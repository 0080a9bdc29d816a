"""End-to-end checkpoint-injection identity: the acceptance property of
the snap subsystem.

For every registered fault model, the outcome *list* (not just counts)
of a checkpointed campaign must be bit-identical to a from-scratch
``inject_once`` loop and to the reference interpreter's — checkpoints
only change how fast a campaign runs.
"""

from collections import Counter

import pytest

from repro.faults.campaign import (
    CampaignConfig,
    _SESSION_TLS,
    draw_model_plans,
    golden_profile,
    hang_budget,
    inject_once,
    run_campaign,
    run_plans,
)
from repro.faults.models import model_names
from repro.toolchain import default_toolchain


@pytest.fixture(autouse=True)
def _fresh_session():
    # The session TLS pins a Machine per cell; model sweeps in one
    # process must not inherit a stale checkpoint attachment.
    _SESSION_TLS.slot = None
    yield
    _SESSION_TLS.slot = None


def _cell(name="histogram", version="elzar"):
    built = default_toolchain().build(name, "test", version)
    reference, profile = golden_profile(built.module, built.entry,
                                        built.args)
    budget = hang_budget(profile.executed, CampaignConfig.hang_factor)
    return built, reference, profile, budget


def _per_plan(built, plans, reference, budget, engine="compiled"):
    """The from-scratch baseline: one fresh machine per plan."""
    return [inject_once(built.module, built.entry, built.args, plan,
                        reference, budget, engine=engine) for plan in plans]


def _model_plans(profile, model, n=5, seed=29):
    config = CampaignConfig(injections=n, seed=seed, fault_model=model)
    try:
        return draw_model_plans(profile, config)
    except ValueError:
        return None  # empty target stream for this cell


class TestModelMatrixIdentity:
    @pytest.mark.parametrize("model", model_names())
    @pytest.mark.parametrize("version", ["native", "elzar"])
    def test_checkpointed_equals_scratch_equals_reference(self, version,
                                                          model):
        built, reference, profile, budget = _cell(version=version)
        plans = _model_plans(profile, model)
        if plans is None:
            pytest.skip(f"{model} has no targets in {version}")
        snap = run_plans(built.module, built.entry, built.args, plans,
                         reference, budget, fault_model=model)
        scratch = _per_plan(built, plans, reference, budget)
        ref_engine = _per_plan(built, plans, reference, budget,
                               engine="reference")
        assert snap == scratch == ref_engine

    def test_campaign_counts_identical_with_and_without_snap(self):
        built, reference, profile, budget = _cell()
        config = CampaignConfig(injections=10, seed=5)
        on = run_campaign(built.module, built.entry, built.args,
                          config=config)
        scratch = _per_plan(built, draw_model_plans(profile, config),
                            reference, budget)
        assert on.counts == Counter(scratch)

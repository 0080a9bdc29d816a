"""End-to-end checkpoint-injection identity: the acceptance property of
the snap subsystem.

For every registered fault model, the outcome *list* (not just counts)
of a checkpointed campaign must be bit-identical to a from-scratch
``inject_once`` loop and to the reference interpreter's — checkpoints
only change how fast a campaign runs.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.cpu.interpreter import FaultPlan
from repro.cpu.resumable import stream_mark
from repro.faults import campaign
from repro.faults.campaign import (
    CampaignConfig,
    _SESSION_TLS,
    _cell_checkpoints,
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
                         reference, budget)
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


class TestStartStateBoundary:
    """Plans around the first checkpoint: stream index 0 and the first
    checkpoint's mark - 1 resume the start state, the mark itself
    resumes the checkpoint. Random plans rarely land before the first
    checkpoint, so this pins that path per model."""

    @pytest.mark.parametrize("model", model_names())
    @pytest.mark.parametrize("version", ["native", "elzar"])
    def test_boundary_plans_equal_reference(self, version, model):
        built, reference, profile, budget = _cell(version=version)
        drawn = _model_plans(profile, model, n=1)
        if drawn is None:
            pytest.skip(f"{model} has no targets in {version}")
        cset = _cell_checkpoints(built.module, built.entry, built.args,
                                 budget, None)
        # A stream the first checkpoint has not reached yet (mark 0,
        # e.g. native checker sites) has no index before it.
        mark = stream_mark(cset.states[0], drawn[0])
        plans = [replace(drawn[0], target_index=index)
                 for index in sorted({0, max(mark - 1, 0), mark})]
        snap = run_plans(built.module, built.entry, built.args, plans,
                         reference, budget)
        assert snap == _per_plan(built, plans, reference, budget,
                                 engine="reference")


def test_every_injection_resumes_a_state(monkeypatch):
    # One injection path: every plan, including one before the first
    # checkpoint, runs through resume_run.
    built, reference, profile, budget = _cell()
    resumed = []
    real = campaign.resume_run

    def counting(machine, state, plans, *poll):
        resumed.append(state)
        return real(machine, state, plans, *poll)

    monkeypatch.setattr(campaign, "resume_run", counting)
    plans = [FaultPlan(target_index=0, bit=3)] + _model_plans(
        profile, "register-bitflip")
    run_plans(built.module, built.entry, built.args, plans, reference,
              budget)
    assert len(resumed) == len(plans)
    assert resumed[0] is _SESSION_TLS.slot[2].start

"""End-to-end checkpoint-injection identity: the acceptance property of
the snap subsystem.

For every registered fault model, the outcome *list* (not just counts)
of a checkpointed campaign must be bit-identical to the from-scratch
sequential loop and to the reference interpreter — checkpoints are a
pure execution-speed knob.
"""

import pytest

from repro.faults.campaign import (
    CampaignConfig,
    _SESSION_TLS,
    draw_model_plans,
    golden_profile,
    run_campaign,
    run_plans,
)
from repro.faults.models import model_names
from repro.lab.durable import run_durable_campaign
from repro.lab.store import ResultStore
from repro.toolchain import default_toolchain


@pytest.fixture(autouse=True)
def _fresh_session():
    # The session TLS pins a Machine per cell; model/engine sweeps in
    # one process must not inherit a stale checkpoint attachment.
    _SESSION_TLS.slot = None
    yield
    _SESSION_TLS.slot = None


def _cell(name="histogram", version="elzar"):
    built = default_toolchain().build(name, "test", version)
    reference, profile = golden_profile(built.module, built.entry,
                                        built.args)
    budget = int(profile.executed * 4.0) + 10_000
    return built, reference, profile, budget


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
        kwargs = dict(fault_model=model)
        scratch = run_plans(built.module, built.entry, built.args, plans,
                            reference, budget, snap=False, **kwargs)
        snap = run_plans(built.module, built.entry, built.args, plans,
                         reference, budget, snap=True, **kwargs)
        ref_engine = run_plans(built.module, built.entry, built.args,
                               plans, reference, budget,
                               engine="reference", **kwargs)
        assert snap == scratch == ref_engine

    def test_campaign_counts_identical_with_and_without_snap(self):
        built, _, _, _ = _cell()
        base = CampaignConfig(injections=10, seed=5)
        on = run_campaign(built.module, built.entry, built.args,
                          config=CampaignConfig(**{**base.__dict__,
                                                   "snap": True}))
        off = run_campaign(built.module, built.entry, built.args,
                           config=CampaignConfig(**{**base.__dict__,
                                                    "snap": False}))
        assert on.counts == off.counts


class TestDurableStoreRows:
    def test_store_rows_shared_across_snap_settings(self, tmp_path):
        # A store written by a snap=False campaign must serve a
        # snap=True campaign in full (the spec key excludes execution
        # knobs), and the counted results must be identical.
        built, _, _, _ = _cell()
        store = ResultStore(str(tmp_path / "lab.sqlite"))
        off = run_durable_campaign(
            built.module, built.entry, built.args, "histogram", "elzar",
            CampaignConfig(injections=12, seed=3, snap=False),
            store=store, shard_size=4,
        )
        assert off.info.shards_executed == 3
        on = run_durable_campaign(
            built.module, built.entry, built.args, "histogram", "elzar",
            CampaignConfig(injections=12, seed=3, snap=True),
            store=store, shard_size=4,
        )
        assert on.info.shards_from_store == 3
        assert on.info.shards_executed == 0
        assert on.result.counts == off.result.counts

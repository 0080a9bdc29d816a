"""Tests for shard planning, spec keying, and checkpoint/replay rules."""

from collections import Counter

import pytest

from repro.cpu.interpreter import FaultPlan
from repro.faults.campaign import CampaignConfig, draw_plans
from repro.faults.trace import functions_only, hardened_only
from repro.lab.checkpoint import (
    build_spec,
    ensure_golden,
    golden_digest,
    load_completed,
    module_digest,
    partition,
)
from repro.lab.events import EventBus, EventLog
from repro.lab.store import ResultStore
from repro.passes.mem2reg import mem2reg
from repro.workloads import get


@pytest.fixture(scope="module")
def hist_module():
    built = get("histogram").build_at("test")
    return mem2reg(built.module)


def _plan_tuples(plans):
    return [(p.target_index, p.bit, p.lane) for p in plans]


class TestPartition:
    def test_contiguous_cover(self):
        plans = [FaultPlan(i, 0, 0) for i in range(23)]
        shards = partition(plans, 5)
        assert [s.index for s in shards] == [0, 1, 2, 3, 4]
        assert [s.start for s in shards] == [0, 5, 10, 15, 20]
        assert [len(s.plans) for s in shards] == [5, 5, 5, 5, 3]
        flat = [p for s in shards for p in s.plans]
        assert flat == plans

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            partition([], 0)

    def test_cap_increase_preserves_shard_prefix(self):
        """Raising the injection cap must extend, not reshuffle, the
        plan list — the property that lets a 2500-injection campaign
        reuse the shards of a 150-injection one."""
        small = draw_plans(97, CampaignConfig(injections=50, seed=11))
        large = draw_plans(97, CampaignConfig(injections=120, seed=11))
        assert _plan_tuples(large[:50]) == _plan_tuples(small)
        for small_shard, large_shard in zip(partition(small, 10),
                                            partition(large, 10)):
            assert _plan_tuples(small_shard.plans) == \
                _plan_tuples(large_shard.plans)


class TestSpecKeys:
    def test_spec_is_stable_for_same_inputs(self, hist_module):
        cfg = CampaignConfig(injections=10, seed=3)
        a = build_spec(hist_module, "main", (), cfg, population=100)
        b = build_spec(hist_module, "main", (), cfg, population=100)
        assert a.spec_key == b.spec_key and a.cell_key == b.cell_key

    def test_seed_changes_spec_but_not_cell(self, hist_module):
        a = build_spec(hist_module, "main", (),
                       CampaignConfig(injections=10, seed=3), population=100)
        b = build_spec(hist_module, "main", (),
                       CampaignConfig(injections=10, seed=4), population=100)
        assert a.cell_key == b.cell_key
        assert a.spec_key != b.spec_key

    def test_injection_cap_not_in_key(self, hist_module):
        a = build_spec(hist_module, "main", (),
                       CampaignConfig(injections=10, seed=3), population=100)
        b = build_spec(hist_module, "main", (),
                       CampaignConfig(injections=500, seed=3), population=100)
        assert a.spec_key == b.spec_key

    def test_module_edit_changes_key(self, hist_module):
        cfg = CampaignConfig(injections=10, seed=3)
        before = build_spec(hist_module, "main", (), cfg, population=100)
        digest_before = module_digest(hist_module)
        rebuilt = mem2reg(get("histogram").build_at("test").module)
        assert module_digest(rebuilt) == digest_before  # same IR, same key
        other = mem2reg(get("blackscholes").build_at("test").module)
        after = build_spec(other, "main", (), cfg, population=100)
        assert after.spec_key != before.spec_key

    def test_keyed_predicates_key_the_spec(self, hist_module):
        cfg_a = CampaignConfig(injections=10, seed=3,
                               fault_eligible=hardened_only(hist_module))
        cfg_b = CampaignConfig(injections=10, seed=3,
                               fault_eligible=functions_only(
                                   frozenset(["main"])))
        a = build_spec(hist_module, "main", (), cfg_a, population=100)
        b = build_spec(hist_module, "main", (), cfg_b, population=100)
        assert a.spec_key != b.spec_key

    def test_unkeyable_predicate_yields_no_spec(self, hist_module):
        cfg = CampaignConfig(injections=10, seed=3,
                             fault_eligible=lambda fn: True)
        assert build_spec(hist_module, "main", (), cfg, population=100) is None

    def test_fault_model_changes_spec_but_not_cell(self, hist_module):
        """Campaigns under different fault models must never share
        shard rows (the plans mean different things), but they share
        the cell — one golden run prices every model."""
        a = build_spec(hist_module, "main", (),
                       CampaignConfig(injections=10, seed=3), population=100)
        b = build_spec(hist_module, "main", (),
                       CampaignConfig(injections=10, seed=3,
                                      fault_model="instruction-skip"),
                       population=100)
        assert a.cell_key == b.cell_key
        assert a.spec_key != b.spec_key

    def test_population_is_in_the_key(self, hist_module):
        """target_index is drawn modulo the population; same seed over a
        different population is a different plan list."""
        a = build_spec(hist_module, "main", (),
                       CampaignConfig(injections=10, seed=3), population=100)
        b = build_spec(hist_module, "main", (),
                       CampaignConfig(injections=10, seed=3), population=101)
        assert a.spec_key != b.spec_key


class TestGoldenGuard:
    def test_golden_digest_is_exact(self):
        assert golden_digest([1.0, 2.0], 10, 20) != \
            golden_digest([1.0, 2.0000000001], 10, 20)

    def test_stale_golden_purges_cell(self, hist_module, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        cfg = CampaignConfig(injections=10, seed=3)
        spec = build_spec(hist_module, "main", (), cfg, population=100)
        events = EventBus()
        log = EventLog()
        events.subscribe(log)

        assert ensure_golden(store, spec, "digest-a", 100, 900, events)
        store.put_shard(spec.spec_key, spec.cell_key, 0, 5,
                        Counter(), 0.1)
        # Same cell, different behaviour: simulator semantics drifted.
        assert not ensure_golden(store, spec, "digest-b", 100, 900, events)
        assert store.get_shard(spec.spec_key, 0) is None
        assert log.count("store-stale") == 1
        assert store.get_golden(spec.cell_key).digest == "digest-b"


class TestLoadCompleted:
    def test_plan_count_mismatch_not_reused(self, hist_module, tmp_path):
        """A short final shard stored under a smaller cap must not be
        served as the full shard of a larger campaign."""
        store = ResultStore(str(tmp_path / "s.sqlite"))
        cfg = CampaignConfig(injections=12, seed=3)
        spec = build_spec(hist_module, "main", (), cfg, population=50,
                          shard_size=5)
        plans_small = draw_plans(50, cfg)
        shards_small = partition(plans_small, 5)  # sizes 5, 5, 2
        for shard in shards_small:
            store.put_shard(spec.spec_key, spec.cell_key, shard.index,
                            len(shard.plans),
                            Counter(), 0.1)
        plans_large = draw_plans(50, CampaignConfig(injections=20, seed=3))
        shards_large = partition(plans_large, 5)  # sizes 5, 5, 5, 5
        loaded = load_completed(store, spec, shards_large)
        assert sorted(loaded) == [0, 1]  # the short shard 2 is re-run

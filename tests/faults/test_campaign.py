"""Tests for the fault-injection framework."""

import pytest

from repro.faults import (
    CampaignConfig,
    CampaignResult,
    Outcome,
    golden_profile,
    inject_once,
    run_campaign,
    run_plans,
)
from repro.faults.models import get_model
from repro.cpu.interpreter import FaultPlan
from repro.ir import Module, types as T
from repro.passes import elzar_transform, mem2reg, swiftr_transform
from repro.toolchain import default_toolchain
from repro.workloads import get

from ..conftest import make_function


@pytest.fixture(scope="module")
def hist():
    wl = get("histogram")
    built = wl.build_at("test")
    return mem2reg(built.module), built


class TestOutcomes:
    def test_system_state_mapping(self):
        assert Outcome.HANG.system_state == "crashed"
        assert Outcome.OS_DETECTED.system_state == "crashed"
        assert Outcome.DETECTED.system_state == "crashed"
        assert Outcome.CORRECTED.system_state == "correct"
        assert Outcome.MASKED.system_state == "correct"
        assert Outcome.SDC.system_state == "corrupted"

    def test_rates(self):
        r = CampaignResult("w", "native")
        r.counts[Outcome.SDC] = 3
        r.counts[Outcome.MASKED] = 6
        r.counts[Outcome.HANG] = 1
        assert r.total == 10
        assert r.sdc_rate == 30.0
        assert r.correct_rate == 60.0
        assert r.crash_rate == 10.0
        assert r.as_dict()["sdc"] == 30.0

    def test_empty_result(self):
        r = CampaignResult("w", "native")
        assert r.sdc_rate == 0.0 and r.total == 0


class TestGoldenRun:
    def test_reference_output_and_counts(self, hist):
        module, built = hist
        output, profile = golden_profile(module, built.entry, built.args)
        assert output == built.expected
        assert 0 < profile.eligible <= profile.executed

    def test_deterministic(self, hist):
        module, built = hist
        a = golden_profile(module, built.entry, built.args)
        b = golden_profile(module, built.entry, built.args)
        assert a == b


class TestInjectOnce:
    def test_masked_fault(self, hist):
        """Flipping a dead-upper bit of an i8-wide value is masked."""
        module, built = hist
        reference, profile = golden_profile(module, built.entry, built.args)
        eligible, executed = profile.eligible, profile.executed
        outcome = inject_once(
            module, built.entry, built.args,
            FaultPlan(target_index=eligible - 1, bit=62),
            reference, budget=executed * 4,
        )
        assert outcome in (Outcome.MASKED, Outcome.SDC, Outcome.OS_DETECTED)

    def test_campaign_is_deterministic(self, hist):
        module, built = hist
        cfg = CampaignConfig(injections=25, seed=99)
        a = run_campaign(module, built.entry, built.args, "h", "native", cfg)
        b = run_campaign(module, built.entry, built.args, "h", "native", cfg)
        assert a.counts == b.counts

    def test_different_seeds_differ(self, hist):
        module, built = hist
        a = run_campaign(module, built.entry, built.args, "h", "native",
                         CampaignConfig(injections=40, seed=1))
        b = run_campaign(module, built.entry, built.args, "h", "native",
                         CampaignConfig(injections=40, seed=2))
        assert a.counts != b.counts  # overwhelmingly likely


class TestHardeningEffect:
    def test_elzar_cuts_sdc_rate(self, hist):
        """The Figure 13 headline: ELZAR reduces SDC substantially."""
        module, built = hist
        cfg = CampaignConfig(injections=80, seed=5)
        native = run_campaign(module, built.entry, built.args, "h", "native", cfg)
        hardened = elzar_transform(module)
        elzar = run_campaign(hardened, built.entry, built.args, "h", "elzar", cfg)
        assert elzar.sdc_rate < native.sdc_rate / 2
        assert elzar.counts[Outcome.CORRECTED] > 0

    def test_swiftr_also_corrects(self, hist):
        module, built = hist
        cfg = CampaignConfig(injections=60, seed=6)
        hardened = swiftr_transform(module)
        result = run_campaign(hardened, built.entry, built.args, "h", "swiftr", cfg)
        native = run_campaign(module, built.entry, built.args, "h", "native", cfg)
        assert result.sdc_rate < native.sdc_rate

    def test_campaign_requires_eligible_instructions(self):
        module = Module("m")
        fn, b = make_function(module, "f", T.VOID, [])
        b.ret_void()
        with pytest.raises(ValueError):
            run_campaign(module, "f", (), "empty", "native",
                         CampaignConfig(injections=1))


class TestEligibilityKeyProtocol:
    def test_unkeyed_predicate_warns_once_per_identity(self, monkeypatch):
        import warnings

        from repro.faults import campaign as campaign_mod

        monkeypatch.setattr(campaign_mod, "_warned_unkeyed_predicates", set())
        first = lambda fn: True  # noqa: E731
        second = lambda fn: False  # noqa: E731
        with pytest.warns(RuntimeWarning, match="cache_key"):
            assert campaign_mod._eligibility_key(first) is None
        # Same predicate again: silent (already warned about).
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert campaign_mod._eligibility_key(first) is None
        assert not [w for w in record
                    if issubclass(w.category, RuntimeWarning)]
        # A *different* unkeyed predicate is its own problem: warn again.
        with pytest.warns(RuntimeWarning, match="cache_key"):
            assert campaign_mod._eligibility_key(second) is None

    def test_forked_worker_does_not_warn(self, monkeypatch):
        """The dedupe set is copied into forked lab workers, but even a
        fresh child must stay silent: only the parent process emits."""
        import multiprocessing
        import warnings

        from repro.faults import campaign as campaign_mod

        monkeypatch.setattr(campaign_mod, "_warned_unkeyed_predicates", set())

        class _FakeChild:
            pass

        monkeypatch.setattr(multiprocessing, "parent_process",
                            lambda: _FakeChild())
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert campaign_mod._eligibility_key(lambda fn: True) is None
        assert not [w for w in record
                    if issubclass(w.category, RuntimeWarning)]
        assert not campaign_mod._warned_unkeyed_predicates

    def test_keyed_predicate_is_silent(self):
        import warnings

        from repro.faults.campaign import _eligibility_key
        from repro.faults.trace import functions_only

        predicate = functions_only(frozenset(["main"]))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            key = _eligibility_key(predicate)
        assert key == predicate.cache_key
        assert not [w for w in record
                    if issubclass(w.category, RuntimeWarning)]

    def test_none_predicate_keys_to_empty(self):
        from repro.faults.campaign import _eligibility_key

        assert _eligibility_key(None) == ()


class TestWorkerResolution:
    def test_zero_means_all_cpus(self):
        from repro.faults.campaign import resolve_workers

        assert resolve_workers(0) >= 1
        assert resolve_workers(3) == 3

    def test_workers_zero_matches_serial_counts(self, hist):
        module, built = hist
        serial = run_campaign(module, built.entry, built.args, "h", "native",
                              CampaignConfig(injections=20, seed=7, workers=1))
        auto = run_campaign(module, built.entry, built.args, "h", "native",
                            CampaignConfig(injections=20, seed=7, workers=0))
        assert auto.counts == serial.counts

    def test_forked_workers_match_serial_counts(self, hist, monkeypatch):
        import multiprocessing

        from repro.lab.scheduler import ShardScheduler

        module, built = hist
        serial = run_campaign(module, built.entry, built.args, "h", "native",
                              CampaignConfig(injections=24, seed=2016,
                                             workers=1))
        spawned = []
        spawn = ShardScheduler._spawn

        def spy(self, ctx, shard, *rest):
            spawned.append(shard.index)
            return spawn(self, ctx, shard, *rest)

        monkeypatch.setattr(ShardScheduler, "_spawn", spy)
        forked = run_campaign(module, built.entry, built.args, "h", "native",
                              CampaignConfig(injections=24, seed=2016,
                                             workers=2))
        assert forked.counts == serial.counts
        if "fork" in multiprocessing.get_all_start_methods():
            # workers=2 runs two shards, each on its own forked worker.
            assert sorted(spawned) == [0, 1]


class _PlanConfig:
    def __init__(self, seed, injections):
        self.seed = seed
        self.injections = injections


@pytest.fixture(scope="module")
def hardened_cell():
    built = default_toolchain().build("histogram", "test", "elzar")
    reference, profile = golden_profile(built.module, built.entry,
                                        built.args)
    budget = max(1000, profile.executed * 10)
    return built, reference, profile, budget


class TestShardPlans:
    """``run_plans`` (the shard entry point: reused session, checkpoint
    resume) returns the per-plan outcome list of a fresh-machine
    ``inject_once`` loop, on shards shaped to stress that reuse."""

    def baseline(self, cell, plans):
        built, reference, _, budget = cell
        return [inject_once(built.module, built.entry, built.args, plan,
                            reference, budget) for plan in plans]

    def find_plan(self, cell, candidates, want):
        for plan in candidates:
            outcome = self.baseline(cell, [plan])[0]
            if outcome in want:
                return plan
        pytest.skip(f"no plan classifying as {want} found at this scale")

    def test_early_trap_and_late_sdc_in_one_shard(self, hardened_cell):
        # A plan that traps near the start of the run and one that
        # silently corrupts near its end, around ordinary plans: the
        # session must come back clean after each.
        built, reference, profile, budget = hardened_cell
        trap_plan = self.find_plan(
            hardened_cell,
            [FaultPlan(target_index=i, bit=40, kind="addr")
             for i in range(8)],
            {Outcome.OS_DETECTED, Outcome.DETECTED, Outcome.HANG})
        sdc_plan = self.find_plan(
            hardened_cell,
            [FaultPlan(target_index=profile.eligible - 1 - i, bit=b, lane=0)
             for b in (31, 15, 7) for i in range(10)],
            {Outcome.SDC})
        filler = get_model("register-bitflip").draw_plans(
            profile, _PlanConfig(seed=3, injections=6))
        plans = [trap_plan, *filler, sdc_plan]
        got = run_plans(built.module, built.entry, built.args, plans,
                        reference, budget)
        assert got == self.baseline(hardened_cell, plans)

    def test_never_firing_and_dead_bit_plans(self, hardened_cell):
        built, reference, profile, budget = hardened_cell
        plans = [
            # Site beyond the stream population: never fires.
            FaultPlan(target_index=profile.eligible + 1000, bit=3, lane=0),
            # Dead bit on a scalar (bit past the type width).
            FaultPlan(target_index=1, bit=63, lane=0),
            *get_model("register-bitflip").draw_plans(
                profile, _PlanConfig(seed=9, injections=4)),
        ]
        got = run_plans(built.module, built.entry, built.args, plans,
                        reference, budget)
        assert got == self.baseline(hardened_cell, plans)

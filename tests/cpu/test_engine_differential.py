"""Differential tests: the compiled engine's record path vs the
reference interpreter.

The record path — the trampoline running one emitted function per
decoded record (``repro.cpu.compiled.run_records``) — is what the
compiled engine falls back to wherever segments cannot run, so for
every workload it must reproduce the reference interpreter *bit for
bit*: outputs, every architectural counter (instructions, uops, loads,
stores, branches, cache hierarchy, branch misses, by-opcode histogram),
cycle counts, ILP, and the fault-injection observables (eligible
counts, injection site, outcome). These tests sweep all 14 kernels, the
three case-study apps, hardened builds, and armed fault runs through
both and require exact equality.
"""

import random
import sys
from collections import Counter

import pytest

from repro.apps import kvstore, sqldb, webserver, workload_a
from repro.cpu import Machine, MachineConfig
from repro.cpu.interpreter import FaultPlan
from repro.faults import (
    CampaignConfig,
    draw_model_plans,
    golden_profile,
    inject_once,
    model_names,
    run_campaign,
)
from repro.faults.campaign import hang_budget
from repro.passes import (
    ElzarOptions,
    elzar_transform,
    mem2reg,
    swift_transform,
    swiftr_transform,
)
from repro.workloads import ALL
from repro.workloads.registry import BENCHMARKS

from ..conftest import TIERS, run_tier, tier_config

KERNELS = [w.name for w in BENCHMARKS]

#: Every hardening scheme, so each intrinsic family meets the oracle:
#: ELZAR (``elzar.check``/``branch_cond``), its 2-lane fail-stop
#: ablation (``check_dmr``/``branch_cond_dmr``), ELZAR with all checks
#: off (``branch_cond_nocheck``), SWIFT-R (``tmr.vote``) and SWIFT
#: (``swift.check``).
SCHEMES = {
    "elzar": elzar_transform,
    "elzar-dmr": lambda m: elzar_transform(
        m, ElzarOptions(fail_stop=True, lanes=2)),
    "elzar-nochecks": lambda m: elzar_transform(m, ElzarOptions.no_checks()),
    "swiftr": swiftr_transform,
    "swift": swift_transform,
}


def run_engine(module, entry, args, engine, collect_timing=True, plan=None,
               max_instructions=None):
    config = tier_config(engine, collect_timing=collect_timing)
    if max_instructions is not None:
        config.max_instructions = max_instructions
    machine = Machine(module, config)
    if plan is not None:
        machine.arm_fault(plan)
    outcome = None
    result = None
    try:
        result = run_tier(machine, engine, entry, args)
    except Exception as exc:  # classified later; both tiers must match
        outcome = (type(exc).__name__, str(exc))
    return machine, result, outcome


def assert_identical(module, entry, args, collect_timing=True,
                     tiers=("records",)):
    _, ref, ref_exc = run_engine(module, entry, args, "reference",
                                 collect_timing)
    for tier in tiers:
        _, rec, rec_exc = run_engine(module, entry, args, tier,
                                     collect_timing)
        assert rec_exc == ref_exc, tier
        if ref is None:
            continue
        assert rec.value == ref.value, tier
        assert rec.output == ref.output, tier
        assert rec.counters.as_dict() == ref.counters.as_dict(), tier
        if collect_timing:
            assert rec.cycles == ref.cycles, tier
            assert rec.ilp == ref.ilp, tier


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_native_identical(name):
    built = ALL[name].build_at("test")
    assert_identical(built.module, built.entry, built.args)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", ["histogram", "blackscholes", "kmeans"])
def test_kernel_hardened_identical(name, scheme):
    built = ALL[name].build_at("test")
    hardened = SCHEMES[scheme](mem2reg(built.module))
    assert_identical(hardened, built.entry, built.args,
                     tiers=("records", "compiled"))


@pytest.mark.parametrize("builder", [
    lambda: kvstore.build(workload_a(60, 32), table_size=256),
    lambda: sqldb.build(workload_a(40, 32), tail_capacity=64),
    lambda: webserver.build(nrequests=8, page_size=1024),
], ids=["kvstore", "sqldb", "webserver"])
def test_app_identical(builder):
    app = builder()
    assert_identical(app.module, app.entry, app.args)


@pytest.mark.parametrize("name", ["histogram", "swaptions"])
def test_kernel_identical_without_timing(name):
    built = ALL[name].build_at("test")
    assert_identical(built.module, built.entry, built.args,
                     collect_timing=False)


@pytest.mark.parametrize("name", ["histogram", "blackscholes"])
def test_armed_runs_identical(name):
    """Fault-injection runs agree on every observable: the eligible
    stream, whether/where the fault landed, the final state or the
    exception, and the counters."""
    built = ALL[name].build_at("test")
    module, entry, args = built.module, built.entry, built.args
    _, profile = golden_profile(module, entry, args)
    eligible, executed = profile.eligible, profile.executed
    rng = random.Random(name)
    for _ in range(6):
        plan = FaultPlan(target_index=rng.randrange(eligible),
                         bit=rng.randrange(64), lane=rng.randrange(4))
        runs = {}
        for engine in ("reference", "records"):
            machine, result, exc = run_engine(
                module, entry, args, engine, collect_timing=False,
                plan=plan, max_instructions=executed * 4,
            )
            runs[engine] = (
                exc,
                machine.fault_injected,
                machine.eligible_executed,
                machine.fault_target.ref() if machine.fault_target else None,
                result.output if result else None,
                machine.counters.as_dict(),
            )
        assert runs["records"] == runs["reference"], plan


@pytest.mark.parametrize("scheme,model", [
    *(("elzar", model) for model in model_names()),
    *((scheme, model) for scheme in ("swiftr", "elzar-dmr")
      for model in ("register-bitflip", "checker-fault")),
])
def test_fault_models_identical_per_plan(scheme, model):
    """For every registered fault model (and, for the register and
    checker models, the SWIFT-R votes and ELZAR-DMR fail-stop checks
    too), the interpreter and the record path must classify the
    identical per-plan observables: same streams counted, same
    injection site, same output or trap. This is the contract that
    lets the durable store share shard rows between engines."""
    built = ALL["histogram"].build_at("test")
    module = SCHEMES[scheme](mem2reg(built.module))
    entry, args = built.entry, built.args
    _, profile = golden_profile(module, entry, args)
    cfg = CampaignConfig(injections=10, seed=13, fault_model=model)
    plans = draw_model_plans(profile, cfg)
    budget = profile.executed * 4 + 10_000
    for plan in plans:
        runs = {}
        for engine in TIERS:
            machine, result, exc = run_engine(
                module, entry, args, engine, collect_timing=False,
                plan=plan, max_instructions=budget,
            )
            runs[engine] = (
                exc,
                machine.fault_injected,
                machine.eligible_executed,
                machine.mem_accesses_eligible,
                machine.cond_branches_eligible,
                machine.checker_sites_executed,
                machine.fault_target.ref() if machine.fault_target else None,
                tuple(result.output) if result else None,
                machine.counters.corrections,
                machine.counters.detections,
            )
        assert runs["records"] == runs["reference"], (model, plan)
        assert runs["compiled"] == runs["reference"], (model, plan)


@pytest.mark.parametrize("model", model_names())
def test_fault_model_campaign_counts_identical(model):
    """End-to-end per model: full campaign outcome counts bit-identical
    to the reference interpreter's per-plan outcomes over the same
    plans (the comparison CI's fault-model smoke makes)."""
    built = ALL["histogram"].build_at("test")
    module = elzar_transform(mem2reg(built.module))
    cfg = CampaignConfig(injections=12, seed=21, fault_model=model)
    result = run_campaign(module, built.entry, built.args, "h", "elzar", cfg)
    assert result.fault_model == model
    golden, profile = golden_profile(module, built.entry, built.args)
    budget = hang_budget(profile.executed, cfg.hang_factor)
    reference = Counter(
        inject_once(module, built.entry, built.args, plan, golden, budget,
                    engine="reference")
        for plan in draw_model_plans(profile, cfg))
    assert result.counts == reference


def test_count_only_mode_matches_engines():
    """count_only profiles the eligible stream without arming a fault,
    identically on the reference and the record path and identically
    to an armed run."""
    built = ALL["kmeans"].build_at("test")
    counts = {}
    for engine in ("reference", "records"):
        machine = Machine(built.module,
                          tier_config(engine, collect_timing=False))
        machine.count_only = True
        result = run_tier(machine, engine, built.entry, built.args)
        assert not machine.fault_injected
        counts[engine] = (machine.eligible_executed, tuple(result.output))
    assert counts["records"] == counts["reference"]
    assert counts["records"][0] > 0


def test_golden_run_has_no_sentinel_plan():
    """golden_profile must not arm any fault plan (the old
    target_index=-1 sentinel hack) — eligible counting rides on
    count_only mode."""
    built = ALL["histogram"].build_at("test")
    output, profile = golden_profile(built.module, built.entry, built.args)
    assert output == built.expected
    assert 0 < profile.eligible <= profile.executed


def test_golden_run_cache_hit_and_invalidation():
    built = ALL["histogram"].build_at("test")
    module = built.module
    module._golden_cache.clear()
    first = golden_profile(module, built.entry, built.args)
    assert len(module._golden_cache) == 1
    second = golden_profile(module, built.entry, built.args)
    assert second == first
    assert len(module._golden_cache) == 1
    module.bump_version()
    assert len(module._golden_cache) == 0
    third = golden_profile(module, built.entry, built.args)
    assert third == first


@pytest.mark.parametrize("workers", [2, 4])
def test_campaign_counts_independent_of_workers(workers):
    built = ALL["histogram"].build_at("test")
    cfg = CampaignConfig(injections=24, seed=11)
    serial = run_campaign(built.module, built.entry, built.args,
                          "h", "native", cfg, workers=1)
    parallel = run_campaign(built.module, built.entry, built.args,
                            "h", "native", cfg, workers=workers)
    assert dict(parallel.counts) == dict(serial.counts)


def test_run_restores_recursion_limit():
    """Importing repro must not touch the interpreter recursion limit,
    and Machine.run must restore whatever limit it raised."""
    saved = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1500)
        built = ALL["histogram"].build_at("test")
        machine = Machine(built.module, MachineConfig(collect_timing=False))
        machine.run(built.entry, built.args)
        assert sys.getrecursionlimit() == 1500
    finally:
        sys.setrecursionlimit(saved)

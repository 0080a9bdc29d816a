"""Differential fuzz: the compiled engine and its record path vs the
reference interpreter.

Randomly generated small modules — nested branches, counted loops,
defined calls (pure leaves the segment compiler inlines and impure
helpers it must really suspend around), intrinsics, memory traffic,
float arithmetic, and trapping division — run through every tier
(reference, the record path alone, compiled), through mid-run
capture/resume, and through every registered fault model, including
plans aimed at the site shapes where fault-armed segments hand over to
the record path.
Outcomes, output streams, stream counters, and architectural counters
must be bit-identical everywhere: the compiled core is admissible only
as a pure performance change.

The file also pins the compiled core's supporting machinery:
``MachineConfig.engine`` validation, the two-tier compiled-code cache
(warm compiles are 100% hits in-process and across processes; damaged
disk entries are recompiled, never trusted), segment-emission errors
that raise, and the ``engine-compile`` lab event.
"""

import contextlib
import json
import marshal
import os
import random
import subprocess
import sys

import pytest

import repro
import repro.cpu.compiled as compiled_mod
import repro.faults.campaign as campaign_mod
from repro.cpu import Machine, MachineConfig
from repro.cpu.compiled import (
    _RECORD_VARIANT,
    _RecordPath,
    add_compile_hook,
    capture_state,
    code_cache_clear,
    ensure_compiled,
    remove_compile_hook,
    resume_run,
    run_records,
    run_resumable,
)
from repro.cpu.engine import decoded_module
from repro.cpu.interpreter import FaultPlan
from repro.cpu.intrinsics import rt_print_i64
from repro.faults import (
    CampaignConfig,
    draw_model_plans,
    golden_profile,
    model_names,
)
from repro.faults.campaign import inject_once, run_plans
from repro.ir import Module
from repro.ir import types as T
from repro.ir.instructions import PhiInst
from repro.passes import elzar_transform, mem2reg
from repro.snap.build import CapturePolicy
from repro.snap.format import serialize_state
from repro.toolchain.cache import ArtifactCache
from repro.workloads import ALL

from ..conftest import TIERS, make_function, run_tier, tier_config

PURE_OPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr")
CMPS = ("eq", "ne", "ult", "ule", "slt", "sle", "sgt", "uge")


def _rand_leaf(module, rng, idx):
    """Pure-ALU single-block callee: the shape the segment compiler
    inlines at call sites."""
    fn, b = make_function(module, f"leaf{idx}", T.I64, [T.I64, T.I64])
    x, y = fn.args
    v = x
    for _ in range(rng.randint(2, 6)):
        operand = rng.choice([y, b.i64(rng.randint(1, 63))])
        v = b.binop(rng.choice(PURE_OPS), v, operand)
    if rng.random() < 0.5:
        cond = b.icmp(rng.choice(CMPS), v, y)
        v = b.select(cond, v, x)
    b.ret(v)
    return fn


def _rand_helper(module, rng, leaves):
    """Memory-touching callee (loads, stores, division): never
    inlinable, so calling it exercises the real suspend/resume path."""
    fn, b = make_function(module, "helper", T.I64, [T.PTR, T.I64])
    p, i = fn.args
    slot = b.gep(T.I64, p, b.and_(i, b.i64(7)))
    v = b.load(T.I64, slot)
    v = b.call(rng.choice(leaves), [v, i])
    b.store(v, slot)
    b.ret(b.urem(v, b.or_(i, b.i64(rng.randint(1, 9) | 1))))
    return fn


def build_random_module(seed, trap=False):
    """Deterministic random program: returns (module, entry, args).

    With ``trap=False`` the golden run always completes (faults are the
    only trap source); ``trap=True`` appends an unguarded division by
    zero so the golden run itself must trap identically everywhere.
    """
    rng = random.Random(seed)
    module = Module(f"fuzz{seed}")
    printer = rt_print_i64(module)
    leaves = [_rand_leaf(module, rng, i) for i in range(rng.randint(1, 3))]
    helper = _rand_helper(module, rng, leaves)

    fn, b = make_function(module, "main", T.I64, [T.I64, T.I64])
    a0, a1 = fn.args
    buf = b.alloca(T.I64, count=8)

    loop = b.begin_loop(b.i64(0), b.i64(8))
    v = b.call(rng.choice(leaves), [b.add(a0, loop.index), a1])
    b.store(v, b.gep(T.I64, buf, loop.index))
    b.end_loop(loop)

    loop = b.begin_loop(b.i64(0), b.i64(rng.randint(6, 12)))
    acc = b.loop_phi(loop, b.i64(rng.randint(0, 1000)))
    i = loop.index
    hv = b.call(helper, [buf, i])
    t = b.call(rng.choice(leaves), [hv, acc])
    state = b.begin_if(b.icmp(rng.choice(CMPS), t, a1), with_else=True)
    b.store(b.xor(t, b.i64(rng.getrandbits(32))),
            b.gep(T.I64, buf, b.and_(i, b.i64(7))))
    b.begin_else(state)
    b.store(b.add(t, acc),
            b.gep(T.I64, buf, b.and_(b.add(i, b.i64(3)), b.i64(7))))
    b.end_if(state)
    m = b.load(T.I64, b.gep(T.I64, buf, b.and_(i, b.i64(7))))
    b.set_loop_next(loop, acc, b.add(acc, b.xor(m, t)))
    b.end_loop(loop)
    acc = loop.pending_phis[0][0]

    # A bounded float excursion: uitofp/fmul/fcmp/select stay exact
    # and trap-free for small operands.
    fv = b.uitofp(b.and_(acc, b.i64(0xFFFF)), T.F64)
    fv = b.fmul(fv, b.f64(1.0 + rng.randint(1, 7) / 8.0))
    picked = b.select(b.fcmp("olt", fv, b.f64(float(rng.randint(0, 1 << 16)))),
                      b.add(acc, a0), b.xor(acc, a1))
    b.call(printer, [picked])
    if trap:
        picked = b.udiv(picked, b.sub(a1, a1))
    b.ret(picked)
    return module, "main", [rng.getrandbits(16), rng.getrandbits(16)]


def _observe(module, entry, args, engine, collect_timing=True, plan=None,
             max_instructions=None, count_only=False, fault_eligible=None,
             max_call_depth=None):
    config = tier_config(engine, collect_timing=collect_timing)
    if max_instructions is not None:
        config.max_instructions = max_instructions
    if max_call_depth is not None:
        config.max_call_depth = max_call_depth
    if fault_eligible is not None:
        config.fault_eligible = fault_eligible
    machine = Machine(module, config)
    if count_only:
        machine.count_only = True
    if plan is not None:
        machine.arm_fault(plan)
    exc = result = None
    try:
        result = run_tier(machine, engine, entry, args)
    except Exception as err:  # classified below; tiers must agree
        exc = (type(err).__name__, str(err))
    observed = {
        "exc": exc,
        "counters": machine.counters.as_dict(),
        "output": list(machine.output),
    }
    if plan is not None or count_only:
        # The eligible-stream counters are maintained by the reference
        # interpreter unconditionally but by the compiled engine only
        # for armed or count_only runs (pure bookkeeping skip).
        observed["streams"] = (
            machine.eligible_executed, machine.mem_accesses_eligible,
            machine.cond_branches_eligible, machine.checker_sites_executed)
        observed["injected"] = machine.fault_injected
        observed["target"] = machine.fault_target
    if result is not None:
        observed["value"] = result.value
        if collect_timing:
            observed["cycles"] = result.cycles
    return observed


@pytest.mark.parametrize("seed", range(8))
def test_random_modules_identical_across_engines(seed):
    module, entry, args = build_random_module(seed)
    payloads = []
    add_compile_hook(payloads.append)
    try:
        runs = {engine: _observe(module, entry, args, engine)
                for engine in TIERS}
    finally:
        remove_compile_hook(payloads.append)
    assert runs["records"] == runs["reference"]
    assert runs["compiled"] == runs["reference"]
    # The compiled run must actually have compiled something — an
    # all-fallback run would make this test vacuous.
    assert sum(p["segments"] for p in payloads) > 0


@pytest.mark.parametrize("seed", range(0, 8, 2))
def test_armed_random_runs_identical_across_engines(seed):
    """Raw fault injection (no campaign machinery): site, streams,
    outcome, and counters agree for every engine."""
    module, entry, args = build_random_module(seed)
    golden = {engine: _observe(module, entry, args, engine,
                               collect_timing=False, count_only=True)
              for engine in TIERS}
    assert golden["records"] == golden["reference"]
    assert golden["compiled"] == golden["reference"]
    eligible = golden["reference"]["streams"][0]
    budget = golden["reference"]["counters"]["instructions"] * 4 + 1000
    rng = random.Random(seed + 100)
    for _ in range(4):
        plan = FaultPlan(target_index=rng.randrange(eligible),
                         bit=rng.randrange(64), lane=0)
        runs = {engine: _observe(module, entry, args, engine,
                                 collect_timing=False, plan=plan,
                                 max_instructions=budget)
                for engine in TIERS}
        assert runs["records"] == runs["reference"], plan
        assert runs["compiled"] == runs["reference"], plan


@pytest.mark.parametrize("seed", range(0, 8, 3))
def test_trapping_modules_identical_across_engines(seed):
    module, entry, args = build_random_module(seed, trap=True)
    runs = {engine: _observe(module, entry, args, engine)
            for engine in TIERS}
    assert runs["reference"]["exc"] is not None
    assert runs["reference"]["exc"][0] == "ArithmeticFault"
    assert runs["records"] == runs["reference"]
    assert runs["compiled"] == runs["reference"]


@pytest.mark.parametrize("budget", [1, 17, 150])
def test_budget_exhaustion_identical_across_engines(budget):
    # HangError must fire at the identical dynamic-instruction count
    # (the compiled core's budget prechecks bail to the record path
    # near exhaustion rather than over- or under-counting).
    module, entry, args = build_random_module(2)
    runs = {engine: _observe(module, entry, args, engine,
                             max_instructions=budget)
            for engine in TIERS}
    assert runs["reference"]["exc"] is not None
    assert runs["reference"]["exc"][0] == "HangError"
    assert runs["records"] == runs["reference"]
    assert runs["compiled"] == runs["reference"]


class _TakeOnce:
    def __init__(self, at):
        self.next_index = at
        self.states = []

    def take(self, machine, stack, executed):
        self.states.append(capture_state(machine, stack, executed))
        self.next_index = 1 << 62


@pytest.mark.parametrize("seed,at", [(1, 1), (1, 40), (5, 12)])
def test_compiled_resume_mid_run_matches_straight_run(seed, at):
    module, entry, args = build_random_module(seed)
    straight = Machine(module, MachineConfig(engine="compiled",
                                             collect_timing=False))
    reference = straight.run(entry, args)

    cap = Machine(module, MachineConfig(engine="compiled",
                                        collect_timing=False))
    cap.count_only = True
    policy = _TakeOnce(at)
    run_resumable(cap, entry, args, capture=policy)
    assert len(policy.states) == 1
    state = policy.states[0]
    assert state.eligible >= at

    resumed = Machine(module, MachineConfig(engine="compiled",
                                            collect_timing=False))
    result = resume_run(resumed, state, ())
    assert list(result.output) == list(reference.output)
    assert result.value == reference.value
    assert result.counters.as_dict() == reference.counters.as_dict()


@contextlib.contextmanager
def _runs_on_records():
    """Route every compiled ``Machine.run`` — including the ones the
    campaign code makes — through the record path, as
    :func:`run_records` does for a single run."""
    real = compiled_mod.run_resumable

    def on_records(M, fn_name, args=(), capture=None):
        return real(M, fn_name, args, _RecordPath(capture))

    compiled_mod.run_resumable = on_records
    try:
        yield
    finally:
        compiled_mod.run_resumable = real


def _inject_each(tier, module, entry, args, plans, reference, budget):
    """From-scratch outcome list on ``tier``: one fresh machine per
    plan (``inject_once``)."""
    engine = "reference" if tier == "reference" else "compiled"
    runs = _runs_on_records() if tier == "records" else contextlib.nullcontext()
    with runs:
        return [inject_once(module, entry, args, plan, reference, budget,
                            engine=engine) for plan in plans]


def _run_plans_fresh(module, *args, **kwargs):
    """``run_plans`` with no session or checkpoint set cached yet."""
    campaign_mod._SESSION_TLS.__dict__.clear()
    module._golden_cache.clear()
    return run_plans(module, *args, **kwargs)


@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("model", model_names())
def test_fault_models_identical_per_plan(seed, model):
    """Every fault model, on hardened random code: the per-plan outcome
    *list* — reference, record path, compiled and the campaign's
    ``run_plans`` — must be bit-identical."""
    module, entry, args = build_random_module(seed)
    module = elzar_transform(mem2reg(module))
    golden = Machine(module, MachineConfig(engine="compiled",
                                           collect_timing=False))
    reference = list(golden.run(entry, args).output)
    _, profile = golden_profile(module, entry, args)
    budget = profile.executed * 4 + 10_000
    cfg = CampaignConfig(injections=6, seed=seed + 17, fault_model=model)
    plans = draw_model_plans(profile, cfg)

    outcomes = {tier: _inject_each(tier, module, entry, args, plans,
                                   reference, budget)
                for tier in TIERS}
    outcomes["campaign"] = _run_plans_fresh(module, entry, args, plans,
                                            reference, budget)
    assert outcomes["compiled"] == outcomes["records"], model
    assert outcomes["compiled"] == outcomes["reference"], model
    assert outcomes["campaign"] == outcomes["reference"], model


def test_fault_plans_with_snap_resume_identical():
    """Checkpoint-resumed injection on the compiled engine returns the
    exact outcome list of from-scratch injection on the record path."""
    module, entry, args = build_random_module(3)
    module = elzar_transform(mem2reg(module))
    golden = Machine(module, MachineConfig(engine="compiled",
                                           collect_timing=False))
    reference = list(golden.run(entry, args).output)
    _, profile = golden_profile(module, entry, args)
    budget = profile.executed * 4 + 10_000
    cfg = CampaignConfig(injections=10, seed=29)
    plans = draw_model_plans(profile, cfg)

    scratch = _inject_each("records", module, entry, args, plans,
                           reference, budget)
    resumed = _run_plans_fresh(module, entry, args, plans, reference,
                               budget)
    assert resumed == scratch


def test_machine_config_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        MachineConfig(engine="jit")
    # The retired record-only engine is gone: run_records replaces it.
    with pytest.raises(ValueError, match="unknown engine"):
        MachineConfig(engine="decoded")
    # The error names the engines so the fix is self-evident.
    try:
        MachineConfig(engine="jit")
    except ValueError as exc:
        for name in ("reference", "compiled"):
            assert name in str(exc)


def test_segment_emission_error_raises(monkeypatch):
    """A segment-compiler error surfaces: it is never hidden behind a
    slower run on the record path."""
    def broken(*args, **kwargs):
        raise RuntimeError("segment emitter bug")

    monkeypatch.setattr(compiled_mod, "_emit_function", broken)
    module, entry, args = _gep_trap_module()
    with pytest.raises(RuntimeError, match="segment emitter bug"):
        Machine(module, MachineConfig()).run(entry, args)


@pytest.fixture
def code_dir(tmp_path, monkeypatch):
    """An empty code cache: both tiers cleared, the disk tier (the
    toolchain cache root) pointed at ``tmp_path`` instead of the
    session-wide dir, where earlier tests leave entries behind."""
    monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", str(tmp_path))
    code_cache_clear()
    yield tmp_path
    code_cache_clear()


def _code_files(root):
    return sorted(p for p in root.rglob("*.code"))


def _compile_and_observe(seed=7):
    """One compiled run of a fresh random module: (its compile
    payloads, the observation)."""
    payloads = []
    add_compile_hook(payloads.append)
    try:
        module, entry, args = build_random_module(seed)
        observed = _observe(module, entry, args, "compiled")
    finally:
        remove_compile_hook(payloads.append)
    totals = {key: sum(p[key] for p in payloads)
              for key in ("functions", "code_hits", "code_misses",
                          "code_disk_hits", "code_invalid")}
    return totals, observed


def test_warm_compile_is_all_code_cache_hits(code_dir):
    """Two machines decoding byte-identical IR in separate module
    instances share compiled code objects: the second compile is 100%
    digest hits, zero fresh ``compile()`` calls."""
    payloads = []
    add_compile_hook(payloads.append)
    try:
        for _ in range(2):
            module, entry, args = build_random_module(7)
            machine = Machine(module, MachineConfig(engine="compiled"))
            machine.run(entry, args)
    finally:
        remove_compile_hook(payloads.append)
    assert len(payloads) == 2
    cold, warm = payloads
    assert cold["digest"] == warm["digest"]
    assert cold["code_misses"] > 0
    assert warm["code_misses"] == 0
    assert warm["code_hits"] == cold["code_hits"] + cold["code_misses"]


_FRESH_PROCESS_RUN = """
import json
from repro.cpu import Machine, MachineConfig
from repro.cpu.compiled import COMPILE_STATS
from repro.passes import elzar_transform, mem2reg
from repro.workloads import ALL

built = ALL["histogram"].build_at("test")
module = elzar_transform(mem2reg(built.module))
machine = Machine(module, MachineConfig(engine="compiled"))
result = machine.run(built.entry, built.args)
print(json.dumps({"value": repr(result.value),
                  "cycles": repr(result.cycles),
                  "output": repr(list(machine.output)),
                  "counters": machine.counters.as_dict(),
                  "stats": COMPILE_STATS.as_dict()}))
"""


def _run_fresh_process(cache_dir, hash_seed):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(hash_seed),
               REPRO_TOOLCHAIN_CACHE=str(cache_dir))
    proc = subprocess.run([sys.executable, "-c", _FRESH_PROCESS_RUN],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_second_process_compiles_nothing(tmp_path):
    """A fresh process sharing the cache dir (and hashing strings
    differently) reads every code object from disk: zero
    ``compile()`` calls, and a bit-identical run."""
    cold = _run_fresh_process(tmp_path, 1)
    warm = _run_fresh_process(tmp_path, 2)
    assert cold["stats"]["code_misses"] > 0
    assert cold["stats"]["code_disk_hits"] == 0
    assert _code_files(tmp_path)
    assert warm["stats"]["code_misses"] == 0
    assert warm["stats"]["code_invalid"] == 0
    assert warm["stats"]["code_disk_hits"] == warm["stats"]["code_hits"]
    assert warm["stats"]["code_hits"] == (cold["stats"]["code_hits"]
                                          + cold["stats"]["code_misses"])
    for key in ("value", "cycles", "output", "counters"):
        assert warm[key] == cold[key], key
    assert float(warm["cycles"]) > 0


def test_damaged_code_entries_are_recompiled(code_dir):
    """Truncated, bit-flipped, non-marshal and non-code entries are
    each a counted ``code_invalid`` miss: removed, recompiled from the
    source, rewritten — and the run stays bit-identical."""
    cold, want = _compile_and_observe()
    files = _code_files(code_dir)
    assert cold["code_misses"] == len(files) >= 4
    damage = [
        lambda data: data[:len(data) // 2],
        lambda data: data[:40] + bytes([data[40] ^ 0x10]) + data[41:],
    ]
    for path, spoil in zip(files, damage):
        path.write_bytes(spoil(path.read_bytes()))
    # Well-sealed entries whose bodies are not usable code.
    cache = ArtifactCache(root=str(code_dir))
    bodies = [b"not marshal data", marshal.dumps(42)]
    for path, body in zip(files[len(damage):], bodies):
        cache.put(path.stem, ".code", body)
    damage += bodies
    code_cache_clear()
    warm, got = _compile_and_observe()
    assert got == want
    assert warm["code_invalid"] == len(damage)
    assert warm["code_misses"] == len(damage)
    assert warm["code_disk_hits"] == len(files) - len(damage)
    assert _code_files(code_dir) == files  # rewritten whole
    code_cache_clear()
    again, got = _compile_and_observe()
    assert got == want
    assert again["code_misses"] == again["code_invalid"] == 0
    assert again["code_disk_hits"] == len(files)


def test_cache_off_writes_no_code_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_TOOLCHAIN_CACHE", "off")
    code_cache_clear()
    try:
        stats, _ = _compile_and_observe()
    finally:
        code_cache_clear()
    assert stats["code_misses"] == stats["functions"] > 0
    assert stats["code_disk_hits"] == 0
    assert not list(tmp_path.rglob("*"))


def test_artifact_cache_gc_evicts_code_entries(code_dir):
    _compile_and_observe()
    files = _code_files(code_dir)
    assert files
    gc = ArtifactCache(root=str(code_dir)).gc(0)
    assert gc.evicted_files == len(files)
    assert not _code_files(code_dir)


def test_durable_campaign_emits_engine_compile_event():
    from repro.lab import run_durable_campaign
    from repro.lab.events import EventBus

    module, entry, args = build_random_module(5)
    module = elzar_transform(mem2reg(module))
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    cfg = CampaignConfig(injections=8, seed=3)
    run_durable_campaign(module, entry, args, "fuzz", "elzar", cfg,
                         store=False, events=bus)
    compiles = [e for e in seen if e.kind == "engine-compile"]
    assert compiles, [e.kind for e in seen]
    payload = compiles[0].data
    for key in ("digest", "variant", "functions", "blocks", "segments",
                "compile_ms", "code_hits", "code_misses", "code_disk_hits",
                "code_invalid"):
        assert key in payload, key
    assert payload["segments"] > 0
    assert payload["digest"]


def _gep_trap_module():
    """A loop whose load walks off the stack in a fused region."""
    module = Module("gep-trap")
    _fn, b = make_function(module, "main", T.I64, [T.I64])
    buf = b.alloca(T.I64, count=4)
    loop = b.begin_loop(b.i64(0), b.i64(100))
    b.load(T.I64, b.gep(T.I64, buf, b.mul(loop.index, b.i64(1000))))
    b.end_loop(loop)
    b.ret(b.i64(0))
    return module, "main", [1]


def test_region_trap_after_gep_identical_across_engines():
    """A trap in a fused region after a record that writes the
    emitter's scratch locals (a GEP base) still reports the trapping
    block exactly."""
    module, entry, args = _gep_trap_module()
    runs = {engine: _observe(module, entry, args, engine)
            for engine in TIERS}
    assert runs["reference"]["exc"][0] == "MemoryFault"
    assert runs["compiled"] == runs["reference"]


def _raiser_module(shape):
    """A loop whose third iteration reaches a record the reference
    fails on before doing any work: a call to an undefined function,
    an operand it cannot resolve (a value of another function), an
    instruction class it cannot execute (an interior phi), or a
    terminator whose operand it cannot resolve."""
    module = Module(f"raiser-{shape}")
    other, ob = make_function(module, "other", T.I64, [T.I64])
    foreign = ob.add(other.args[0], ob.i64(1))
    ob.ret(foreign)
    ext = module.declare_function("mystery.fn",
                                  T.FunctionType(T.I64, (T.I64,)))
    fn, b = make_function(module, "main", T.I64, [T.I64])
    buf = b.alloca(T.I64, count=4)
    loop = b.begin_loop(b.i64(0), b.i64(4))
    v = b.add(fn.args[0], loop.index)
    b.store(v, b.gep(T.I64, buf, b.and_(loop.index, b.i64(3))))
    state = b.begin_if(b.icmp("eq", loop.index, b.i64(2)))
    if shape == "undefined-callee":
        b.call(ext, [v])
    elif shape == "undefined-value":
        b.add(foreign, v)
    elif shape == "interior-phi":
        w = b.mul(v, b.i64(3))
        b.block.insert(b.block.instructions.index(w) + 1, PhiInst(T.I64))
    elif shape == "ret-undefined":
        b.ret(foreign)
        b.position_at_end(fn.append_block("dead"))
    b.end_if(state)
    b.end_loop(loop)
    b.ret(b.load(T.I64, buf))
    return module, "main", [5]


_RAISER_SHAPES = ("undefined-callee", "undefined-value", "interior-phi",
                  "ret-undefined")


@pytest.mark.parametrize("shape", _RAISER_SHAPES)
def test_raiser_records_identical_across_tiers(shape):
    """Records the reference fails on before doing any work raise the
    same exception, with the same message and exact partial counters,
    on every tier."""
    module, entry, args = _raiser_module(shape)
    for timing in (False, True):
        runs = {tier: _observe(module, entry, args, tier,
                               collect_timing=timing)
                for tier in TIERS}
        assert runs["reference"]["exc"] is not None, shape
        assert runs["records"] == runs["reference"], (shape, timing)
        assert runs["compiled"] == runs["reference"], (shape, timing)


# --- Armed segments: fault-armed frames on compiled code ----------------

#: One plan builder per registered fault model, with the stream its
#: target index counts (0 eligible, 1 memory, 2 branch, 3 checker).
_MODEL_PLANS = {
    "register-bitflip": (0, lambda t: FaultPlan(t, bit=3, lane=1)),
    "multi-bitflip": (0, lambda t: FaultPlan(t, bit=2, kind="multi",
                                             bits=(9, 40))),
    "instruction-skip": (0, lambda t: FaultPlan(t, bit=0, kind="skip")),
    "memory-bitflip": (0, lambda t: FaultPlan(t, bit=5, kind="mem",
                                              offset=12345)),
    "address-bitflip": (1, lambda t: FaultPlan(t, bit=62, kind="addr")),
    "branch-flip": (2, lambda t: FaultPlan(t, bit=0, kind="branch")),
    "checker-fault": (3, lambda t: FaultPlan(t, bit=1, lane=2,
                                             kind="checker")),
}


def _stream_events(module, entry, args):
    """The instruction behind every event of each targeting stream, in
    order, from a count_only reference run."""
    machine = Machine(module, MachineConfig(engine="reference",
                                            collect_timing=False))
    machine.count_only = True
    events = ([], [], [], [])
    machine.trace_eligible = lambda inst, fn: events[0].append(inst)
    # Tap the per-stream step methods on this instance: an event is an
    # advance of the stream's counter (the checker step also sees
    # non-checker records and passes them through uncounted).
    for step, counter, log in (
            ("_mem_step", "mem_accesses_eligible", events[1]),
            ("_branch_step", "cond_branches_eligible", events[2]),
            ("_checker_step", "checker_sites_executed", events[3])):
        def tapped(value, inst, real=getattr(machine, step),
                   counter=counter, log=log):
            before = getattr(machine, counter)
            value = real(value, inst)
            if getattr(machine, counter) != before:
                log.append(inst)
            return value
        setattr(machine, step, tapped)
    try:
        machine.run(entry, args)
    except Exception:
        pass  # a trapping module's events up to the trap
    return events


def _targeted_sites(insts, entry):
    """Event indices by site shape: first/last event of a block visit,
    a phi, the first event after an intra-function block boundary, an
    event in a callee frame, and the last event (in a trapping module:
    the trapping block)."""
    sites = {}
    n = len(insts)
    for idx in range(n):
        inst = insts[idx]
        bb = inst.parent
        prev = insts[idx - 1].parent if idx else None
        nxt = insts[idx + 1].parent if idx + 1 < n else None
        if prev is not bb:
            sites.setdefault("block-first", idx)
            if prev is not None and prev.parent is bb.parent:
                sites.setdefault("region-boundary", idx)
        if nxt is not bb:
            sites.setdefault("block-last", idx)
        if isinstance(inst, PhiInst):
            sites.setdefault("phi", idx)
        if bb.parent.name != entry:
            sites.setdefault("callee", idx)
    if n:
        sites["last"] = n - 1
    return sites


def _armed_modules():
    for seed in (0, 3):
        module, entry, args = build_random_module(seed)
        yield f"elzar{seed}", elzar_transform(mem2reg(module)), entry, args
    module, entry, args = build_random_module(5)
    yield "native5", mem2reg(module), entry, args
    module, entry, args = build_random_module(1, trap=True)
    yield "trap1", elzar_transform(mem2reg(module)), entry, args
    yield ("gep-trap",) + _gep_trap_module()


@pytest.mark.parametrize("model", sorted(_MODEL_PLANS))
def test_armed_segments_identical_at_targeted_sites(model):
    """Every fault model, aimed at the site shapes where armed segments
    must hand over to the record path exactly: compiled equals the
    reference on streams, fault target, counters, output or exception.
    The armed variant must really have run."""
    assert set(_MODEL_PLANS) == set(model_names())
    stream, make_plan = _MODEL_PLANS[model]
    payloads = []
    add_compile_hook(payloads.append)
    tried = 0
    try:
        for name, module, entry, args in _armed_modules():
            events = _stream_events(module, entry, args)
            budget = len(events[0]) * 20 + 5000
            for site, idx in sorted(_targeted_sites(events[stream],
                                                    entry).items()):
                plan = make_plan(idx)
                for timing in (False, True):
                    runs = {engine: _observe(module, entry, args, engine,
                                             collect_timing=timing,
                                             plan=plan,
                                             max_instructions=budget)
                            for engine in ("reference", "compiled")}
                    assert runs["compiled"] == runs["reference"], \
                        (name, site, plan, timing)
                    assert runs["reference"]["injected"], (name, site)
                    tried += 1
    finally:
        remove_compile_hook(payloads.append)
    assert tried >= 6
    assert sum(p["segments"] for p in payloads
               if p["variant"].endswith("armed")) > 0


def test_armed_frames_around_ineligible_callees():
    """Armed frames calling fault-ineligible functions (unarmed
    segments) and back: pushes and returns switch segment variants."""
    module, entry, args = build_random_module(2)
    module = elzar_transform(mem2reg(module))
    eligible = lambda fn: fn.name == entry  # noqa: E731
    golden = _observe(module, entry, args, "reference", count_only=True,
                      fault_eligible=eligible)
    for target in (0, golden["streams"][0] // 2, golden["streams"][0] - 1):
        plan = FaultPlan(target_index=target, bit=5, lane=3)
        runs = {engine: _observe(module, entry, args, engine, plan=plan,
                                 fault_eligible=eligible)
                for engine in ("reference", "compiled")}
        assert runs["compiled"] == runs["reference"], target
        assert runs["reference"]["injected"]


@pytest.mark.parametrize("timing", [False, True])
def test_count_only_streams_identical_on_armed_segments(timing):
    for name, module, entry, args in _armed_modules():
        runs = {engine: _observe(module, entry, args, engine,
                                 collect_timing=timing, count_only=True)
                for engine in TIERS}
        assert runs["records"] == runs["reference"], name
        assert runs["compiled"] == runs["reference"], name


def test_capture_bytes_identical_across_engines():
    """A capture run on armed segments takes every checkpoint at the
    record the record path takes it, with the same bytes."""
    module, entry, args = build_random_module(3)
    module = elzar_transform(mem2reg(module))
    blobs = {}
    for tier, run in (("records", run_records),
                      ("compiled", run_resumable)):
        machine = Machine(module, MachineConfig())
        machine.count_only = True
        policy = CapturePolicy(7)
        run(machine, entry, args, capture=policy)
        blobs[tier] = [serialize_state(s, machine) for s in policy.states]
    assert len(blobs["records"]) > 10
    assert blobs["compiled"] == blobs["records"]


def test_run_records_runs_every_record_on_the_record_path(monkeypatch):
    """``run_records`` is the record path alone: every executed body
    record goes through its record function (the rest of the dynamic
    instructions are terminators and defined-call pushes)."""
    module, entry, args = build_random_module(4)
    module = elzar_transform(mem2reg(module))
    machine = Machine(module, MachineConfig(collect_by_opcode=True))
    dmod = decoded_module(module, machine.config.cost_model,
                          machine.globals_addr)
    dmod.function(module.get_function(entry))
    ensure_compiled(dmod, _RECORD_VARIANT)
    calls = [0]

    def counted(record):
        def wrapper(*args):
            calls[0] += 1
            return record(*args)
        return wrapper

    for dfn in dmod._functions.values():
        for db in dfn.blocks:
            db.compiled[_RECORD_VARIANT] = tuple(
                None if r is None else counted(r)
                for r in db.compiled[_RECORD_VARIANT])
    pushes = [0]
    real_push = compiled_mod.push_frame

    def push_frame(*args):
        pushes[0] += 1
        return real_push(*args)

    monkeypatch.setattr(compiled_mod, "push_frame", push_frame)
    result = run_records(machine, entry, args)
    by_op = result.counters.by_opcode
    terminators = by_op.get("br", 0) + by_op.get("ret", 0)
    defined_calls = pushes[0] - 1  # the root frame is no call
    assert defined_calls > 0
    assert calls[0] == result.counters.instructions - terminators \
        - defined_calls


def test_armed_injection_runs_mostly_on_segments():
    """Guard on the fast path itself: an armed fi-scale histogram/elzar
    injection executes under 10% of its instructions through record
    functions — the rest on armed segments."""
    built = ALL["histogram"].build_at("fi")
    module = elzar_transform(mem2reg(built.module))
    golden = Machine(module, MachineConfig(collect_timing=False))
    golden.count_only = True
    golden.run(built.entry, built.args)
    eligible = golden.eligible_executed
    dmod = next(iter(module._decoded_cache.values()))
    plain_records = _RECORD_VARIANT + 1
    ensure_compiled(dmod, plain_records)
    calls = [0]

    def counted(record):
        def wrapper(*args):
            calls[0] += 1
            return record(*args)
        return wrapper

    for dfn in dmod._functions.values():
        for db in dfn.blocks:
            db.compiled[plain_records] = tuple(
                None if r is None else counted(r)
                for r in db.compiled[plain_records])
    machine = Machine(module, MachineConfig(collect_timing=False))
    machine.arm_fault(FaultPlan(target_index=eligible // 2, bit=7, lane=1))
    machine.run(built.entry, built.args)
    assert machine.fault_injected
    assert calls[0] < 0.1 * machine.counters.instructions, calls[0]


@pytest.mark.parametrize("timing", [True, False], ids=["timing", "plain"])
@pytest.mark.parametrize("name", ["histogram", "blackscholes"])
def test_agreeing_checks_call_no_intrinsic(code_dir, monkeypatch, name,
                                           timing):
    """Guard on the inline agreement paths: a fault-free compiled run of
    an fi-scale ELZAR workload never calls the ``elzar.check.*`` or
    ``elzar.branch_cond.*`` implementation (every check agrees inline),
    and its output and counters equal the reference run's."""
    bound, calls = [], []
    real = compiled_mod.intrinsic_impl

    def intrinsic_impl(callee, ret_type):
        impl = real(callee, ret_type)
        if not callee.startswith(("elzar.check.", "elzar.branch_cond.")):
            return impl
        bound.append(callee)

        def counted(M, args):
            calls.append(callee)
            return impl(M, args)
        return counted

    monkeypatch.setattr(compiled_mod, "intrinsic_impl", intrinsic_impl)
    built = ALL[name].build_at("fi")
    module = elzar_transform(mem2reg(built.module))
    compiled = _observe(module, built.entry, built.args, "compiled",
                        collect_timing=timing)
    reference = _observe(module, built.entry, built.args, "reference",
                         collect_timing=timing)
    assert any(c.startswith("elzar.branch_cond.") for c in bound)
    assert any(c.startswith("elzar.check.") for c in bound)
    assert calls == []
    assert compiled == reference


def test_record_path_uses_the_oracles_eligible_hook(monkeypatch):
    """One routine for eligible events: every eligible, non-void event
    the record path meets — body records, phis and defined-call results
    — goes through ``Machine._maybe_inject``, in the reference's
    order."""
    module, entry, args = build_random_module(3)
    module = elzar_transform(mem2reg(module))
    log = []
    real = Machine._maybe_inject

    def logged(self, inst, value, in_eligible_fn):
        if in_eligible_fn and not inst.type.is_void:
            log.append(inst)
        return real(self, inst, value, in_eligible_fn)

    monkeypatch.setattr(Machine, "_maybe_inject", logged)
    logs = {}
    for tier in ("reference", "records"):
        log.clear()
        machine = Machine(module, tier_config(tier, collect_timing=False))
        machine.count_only = True
        run_tier(machine, tier, entry, args)
        assert len(log) == machine.eligible_executed, tier
        logs[tier] = list(log)
    assert logs["records"] == logs["reference"]
    assert any(isinstance(inst, PhiInst) for inst in logs["reference"])
    assert any(getattr(inst, "callee", None) is module.get_function("helper")
               for inst in logs["reference"])


def _wrap_segments(module, entry, wrap):
    """Compile every segment variant of ``module`` and replace each
    segment with ``wrap(vidx, dfn, boundary, segment)``."""
    machine = Machine(module, MachineConfig())
    dmod = decoded_module(module, machine.config.cost_model,
                          machine.globals_addr)
    dmod.function(module.get_function(entry))
    for vidx in range(_RECORD_VARIANT):
        ensure_compiled(dmod, vidx)
        for dfn in dmod._functions.values():
            for db in dfn.blocks:
                segmap = db.compiled[vidx]
                if segmap:
                    db.compiled[vidx] = {s: wrap(vidx, dfn, s, seg)
                                         for s, seg in segmap.items()}


def _assert_runs_equal_reference(module, entry, args):
    for timing in (True, False):
        for count_only in (False, True):
            runs = {engine: _observe(module, entry, args, engine,
                                     collect_timing=timing,
                                     count_only=count_only)
                    for engine in ("reference", "compiled")}
            assert runs["compiled"] == runs["reference"], (timing,
                                                           count_only)


@pytest.mark.parametrize("seed", [0, 3, 6])
def test_segments_return_control_codes_only(seed):
    """Segments hand the trampoline a control code, never a segment:
    every compiled segment, in all four segment variants, returns None,
    1, 2 or 3, and every run still equals the reference. The random
    module's ``helper`` calls produce code 1; its blocks branch inside
    their function's region, so code 2 comes from the raiser modules,
    whose loops branch to blocks outside the compiled subset."""
    module, entry, args = build_random_module(seed)
    modules = [(elzar_transform(mem2reg(module)), entry, args)]
    modules += [_raiser_module(shape) for shape in _RAISER_SHAPES]
    returned = []

    def checked(vidx, _dfn, _boundary, seg):
        def wrapper(*args):
            executed, ctrl = seg(*args)
            returned.append((vidx, ctrl))
            return executed, ctrl
        return wrapper

    for module, entry, args in modules:
        _wrap_segments(module, entry, checked)
        _assert_runs_equal_reference(module, entry, args)
    assert {vidx for vidx, _ctrl in returned} == set(range(_RECORD_VARIANT))
    bad = [ctrl for _vidx, ctrl in returned
           if not (ctrl is None or (type(ctrl) is int and ctrl in (1, 2, 3)))]
    assert not bad, bad[:3]
    assert {1, 2} <= {ctrl for _vidx, ctrl in returned}


@pytest.mark.parametrize("seed", [1, 4])
def test_one_region_per_function(seed):
    """Every function compiles to one region closure: in all four
    segment variants, each segment of a function — block entries, and
    the post-call entries of the blocks that call ``helper`` — is a
    trampoline into that function's single region. The returns from
    ``helper`` re-enter ``main``'s region, and every run still equals
    the reference."""
    module, entry, args = build_random_module(seed)
    modules = [(elzar_transform(mem2reg(module)), entry, args),
               _raiser_module("undefined-value")]
    regions = {}
    entered = set()

    def tracked(vidx, dfn, boundary, seg):
        defaults = seg.__defaults__ or ()
        regions.setdefault((id(dfn), vidx), []).append(
            defaults[0] if len(defaults) == 1 else seg)

        def wrapper(*args):
            entered.add((dfn.fn.name, vidx, boundary))
            return seg(*args)
        return wrapper

    for module, entry, args in modules:
        _wrap_segments(module, entry, tracked)
        _assert_runs_equal_reference(module, entry, args)
    assert regions
    for key, targets in regions.items():
        assert len({id(t) for t in targets}) == 1, key
        assert targets[0].__name__ == "_rg0", key
    assert {vidx for name, vidx, boundary in entered
            if name == "main" and boundary > 0} == set(range(_RECORD_VARIANT))


@pytest.mark.parametrize("max_call_depth", [0, 1, 2])
def test_call_depth_limit_identical_across_tiers(max_call_depth):
    """``max_call_depth`` stops main -> helper -> leaf identically on
    every tier: the reference's "call depth exceeded" HangError (same
    message, partial counters and output) raised by ``push_frame``,
    also where a leaf call the compiled region would inline exits it
    for the real push because the depth guard fails."""
    module, entry, args = build_random_module(5)
    messages = set()
    for timing in (True, False):
        for count_only in (False, True):
            runs = {tier: _observe(module, entry, args, tier,
                                   collect_timing=timing,
                                   count_only=count_only,
                                   max_call_depth=max_call_depth)
                    for tier in TIERS}
            assert runs["records"] == runs["reference"], (timing, count_only)
            assert runs["compiled"] == runs["reference"], (timing,
                                                           count_only)
            messages.add(runs["reference"]["exc"])
    expected = {0: ("HangError", "call depth exceeded in @leaf"),
                1: ("HangError", "call depth exceeded in @leaf"),
                2: None}[max_call_depth]
    assert len(messages) == 1
    (exc,) = messages
    if expected is None:
        assert exc is None
    else:
        assert exc[0] == expected[0] and exc[1].startswith(expected[1]), exc

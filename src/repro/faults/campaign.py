"""Fault-injection campaign runner (paper §IV-B).

The paper's campaign per program: collect an instruction trace to
demarcate the hardened region, run a "golden" fault-free execution to
capture the reference output, then repeatedly re-execute the program
injecting exactly one single-event upset per run — a bit flip in the
output register of a randomly chosen dynamic instruction (one SIMD lane
for YMM results) — and classify each run's outcome per Table I.

Our trace step is the golden run itself: it counts the *eligible*
dynamic instructions (value-producing, inside hardenable functions —
intrinsics and runtime services are excluded, like the paper excludes
unhardened libraries).

Two performance layers (the paper amortized this cost across a
25-machine cluster, §IV-B):

- **Golden-run cache**: fault-free runs are memoized on the module,
  keyed by ``(module.version, entry, args, eligibility)``, so figure
  scripts and ablations stop repeating identical golden executions.
- **Parallel injections**: ``run_campaign(..., workers=N)`` shards the
  injection loop across forked worker processes. All fault plans are
  pre-drawn from one seeded RNG in the serial draw order, so the
  outcome counts are bit-identical for every worker count (and to the
  serial path); platforms without ``fork`` fall back to serial.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..cpu.errors import DetectedError, HangError, Trap
from ..cpu.interpreter import FaultPlan, Machine, MachineConfig
from ..ir.module import Module
from ..workloads.common import outputs_match
from .models import DEFAULT_MODEL, StreamProfile, get_model
from .outcomes import CampaignResult, Outcome


@dataclass
class CampaignConfig:
    injections: int = 150
    seed: int = 1234
    #: Hang threshold as a multiple of the golden run's instructions.
    hang_factor: float = 4.0
    rtol: float = 1e-9
    #: Optional fault-region predicate (paper §IV-B demarcation): which
    #: functions injections may target. See :mod:`repro.faults.trace`.
    fault_eligible: Optional[Callable] = None
    #: Worker processes for the injection loop. 1 = serial; N > 1
    #: forks N workers (outcome counts are identical either way);
    #: 0 = use every CPU (``os.cpu_count()``).
    workers: int = 1
    #: Registered fault-model name (see :mod:`repro.faults.models`).
    #: The default reproduces the paper's single register bit flip.
    fault_model: str = DEFAULT_MODEL
    #: Execution engine for every run of the campaign ("decoded" or
    #: "reference"). Outcome counts are bit-identical either way (the
    #: differential tests enforce it); the knob exists so CI can prove
    #: that end to end. Excluded from durable store keys.
    engine: str = "compiled"
    #: Injections executed per batched lane group (see
    #: :mod:`repro.cpu.batch`): 1 runs the classic sequential loop;
    #: K > 1 shares each batch's golden prefix across K forked lanes.
    #: Per-plan outcomes are bit-identical to sequential injection, so
    #: — like ``engine`` and ``workers`` — ``batch`` is a pure
    #: execution knob, excluded from durable store keys. Batching is
    #: per *worker*: with forked or distributed workers each worker
    #: batches its own shards. Requires the decoded engine and
    #: ``os.fork``; anything else falls back to sequential injection.
    batch: int = 1
    #: Mid-run checkpointing (see :mod:`repro.snap`): resolve each
    #: plan's fault site to the nearest checkpoint at or before it and
    #: execute only the tail. Per-plan outcomes are bit-identical with
    #: and without it (the differential tests and CI pin that), so —
    #: like ``engine``, ``workers`` and ``batch`` — a pure execution
    #: knob, excluded from durable store keys. Decoded engine only;
    #: cells with unkeyable eligibility predicates or golden runs
    #: shorter than :data:`repro.snap.MIN_ELIGIBLE` skip it silently.
    snap: bool = True


def resolve_workers(workers: int) -> int:
    """Resolve a worker-count setting: 0 means "all CPUs"."""
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _fresh_machine(module: Module, max_instructions: Optional[int] = None,
                   fault_eligible: Optional[Callable] = None,
                   engine: str = "compiled") -> Machine:
    config = MachineConfig(collect_timing=False, engine=engine)
    if max_instructions is not None:
        config.max_instructions = max_instructions
    if fault_eligible is not None:
        config.fault_eligible = fault_eligible
    return Machine(module, config)


#: Predicate identities (``id()``) already warned about. Per-identity —
#: not one global boolean — so each distinct unkeyable predicate gets
#: its own (single) warning, and forked lab workers inherit the parent's
#: set instead of re-warning.
_warned_unkeyed_predicates: set = set()


def _eligibility_key(fault_eligible: Optional[Callable]):
    """Cache-key component for an eligibility predicate.

    The ``cache_key`` protocol: a predicate that wants golden-run
    memoization (and durable shard reuse, see :mod:`repro.lab`) must
    expose a ``cache_key`` attribute — a hashable, order-stable value
    that uniquely identifies its decision function, e.g.
    ``("functions_only", frozenset_of_names)``. Two predicates with
    equal ``cache_key`` must classify every function identically; a
    predicate whose behaviour changes must change its key. The
    predicate classes in :mod:`repro.faults.trace` implement this.

    Returns ``()`` for "no predicate", the predicate's ``cache_key``
    when present, and ``None`` for an unkeyable predicate — caching is
    skipped then, and a :class:`RuntimeWarning` says so, once per
    distinct predicate identity (previously the cache was bypassed
    silently, which made every golden run quietly repeat). Forked lab
    workers never emit the warning — only the parent process does, so a
    ``--workers N`` campaign warns once, not N+1 times.
    """
    if fault_eligible is None:
        return ()
    key = getattr(fault_eligible, "cache_key", None)
    if key is None:
        ident = id(fault_eligible)
        if (ident not in _warned_unkeyed_predicates
                and multiprocessing.parent_process() is None):
            _warned_unkeyed_predicates.add(ident)
            warnings.warn(
                f"fault-eligibility predicate {fault_eligible!r} has no "
                "cache_key attribute; golden-run caching and durable shard "
                "reuse are disabled for campaigns using it (see the "
                "cache_key protocol in "
                "repro.faults.campaign._eligibility_key)",
                RuntimeWarning,
                stacklevel=3,
            )
    return key


def _args_key(args: Sequence):
    try:
        key = tuple(args)
        hash(key)
        return key
    except TypeError:
        return repr(tuple(args))


def golden_profile(module: Module, entry: str, args: Sequence,
                   fault_eligible: Optional[Callable] = None,
                   engine: str = "compiled"):
    """Fault-free execution; returns ``(output, StreamProfile)``.

    Runs the machine in ``count_only`` mode, which profiles *every*
    targeting stream in one pass — eligible results, dynamic memory
    accesses, conditional branches, and checker sites — so one golden
    run prices every fault model. Results are cached on the module,
    invalidated by its version stamp. The cache key excludes ``engine``
    (both engines are bit-identical, golden outputs included).
    """
    ekey = _eligibility_key(fault_eligible)
    key = None
    if ekey is not None:
        key = (module.version, entry, _args_key(args), ekey)
        cached = module._golden_cache.get(key)
        if cached is not None:
            output, profile = cached
            return list(output), profile
    machine = _fresh_machine(module, fault_eligible=fault_eligible,
                             engine=engine)
    machine.count_only = True
    result = machine.run(entry, args)
    profile = StreamProfile(
        eligible=machine.eligible_executed,
        executed=result.counters.instructions,
        mem_accesses=machine.mem_accesses_eligible,
        cond_branches=machine.cond_branches_eligible,
        checker_sites=machine.checker_sites_executed,
    )
    if key is not None:
        module._golden_cache[key] = (tuple(result.output), profile)
    return list(result.output), profile


def golden_run(module: Module, entry: str, args: Sequence,
               fault_eligible: Optional[Callable] = None):
    """Fault-free execution; returns (output, eligible_instructions,
    total_instructions). Compatibility wrapper over
    :func:`golden_profile` (same cache)."""
    output, profile = golden_profile(module, entry, args, fault_eligible)
    return output, profile.eligible, profile.executed


def draw_plans(eligible: int, config: CampaignConfig) -> List[FaultPlan]:
    """All fault plans for the *default* (register bit flip) model, in
    the serial draw order — the plan list (hence the outcome multiset)
    is a pure function of (eligible, seed, injections), independent of
    worker count. Plans are drawn sequentially, so the list for a larger
    ``injections`` cap extends (never reshuffles) the list for a smaller
    one — the prefix property :mod:`repro.lab` exploits to reuse stored
    shards when a campaign is scaled up.

    Kept as the historical entry point (its draw order is baked into
    stored campaign keys); other fault models draw through
    :func:`draw_model_plans`."""
    rng = random.Random(config.seed)
    return [
        FaultPlan(
            target_index=rng.randrange(eligible),
            bit=rng.randrange(64),
            lane=rng.randrange(4),
        )
        for _ in range(config.injections)
    ]


def draw_model_plans(profile: StreamProfile,
                     config: CampaignConfig) -> List[FaultPlan]:
    """Plan list for ``config.fault_model``, with the same serial-order
    prefix property as :func:`draw_plans`. Raises ``ValueError`` when
    the model's target stream is empty (e.g. ``checker-fault`` against
    unhardened code)."""
    return get_model(config.fault_model).draw_plans(profile, config)


#: Backwards-compatible alias (pre-lab internal name).
_draw_plans = draw_plans


# Fork-inherited campaign context: (module, entry, args, reference,
# budget, rtol, fault_eligible, engine, batch, fault_model, snap). Set
# in the parent right before the pool forks; never pickled, so modules
# and predicates need not be picklable.
_FORK_CONTEXT = None


def _run_shard(plans: List[FaultPlan]) -> List[Outcome]:
    (module, entry, args, reference, budget, rtol, fault_eligible,
     engine, batch, fault_model, snap) = _FORK_CONTEXT
    return run_plans(module, entry, args, plans, reference, budget, rtol,
                     fault_eligible, engine=engine, batch=batch,
                     fault_model=fault_model, snap=snap)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def run_campaign(
    module: Module,
    entry: str,
    args: Sequence,
    workload: str = "",
    version: str = "",
    config: Optional[CampaignConfig] = None,
    workers: Optional[int] = None,
) -> CampaignResult:
    """Inject ``config.injections`` single faults into fresh executions
    of ``entry`` and classify every outcome.

    ``workers`` (or ``config.workers``) > 1 shards the injections over
    forked processes; counts are bit-identical to the serial run.
    """
    global _FORK_CONTEXT
    config = config or CampaignConfig()
    if workers is None:
        workers = config.workers
    workers = resolve_workers(workers)
    reference, profile = golden_profile(
        module, entry, args, config.fault_eligible, engine=config.engine
    )
    if profile.eligible == 0:
        raise ValueError(f"no eligible instructions in @{entry}")
    budget = int(profile.executed * config.hang_factor) + 10_000
    plans = draw_model_plans(profile, config)
    result = CampaignResult(workload=workload, version=version,
                            fault_model=config.fault_model)

    workers = max(1, min(workers, len(plans) or 1))
    if workers > 1 and _fork_available():
        # Warm the cell's checkpoint set in the parent so every forked
        # worker inherits it through the module cache (copy-on-write)
        # instead of each re-loading or re-capturing it.
        _cell_checkpoints(module, entry, args, budget, config.fault_eligible,
                          config.fault_model, config.engine, config.snap)
        shards = [plans[i::workers] for i in range(workers)]
        _FORK_CONTEXT = (module, entry, args, reference, budget,
                         config.rtol, config.fault_eligible, config.engine,
                         config.batch, config.fault_model, config.snap)
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=workers) as pool:
                for outcomes in pool.map(_run_shard, shards):
                    for outcome in outcomes:
                        result.counts[outcome] += 1
        finally:
            _FORK_CONTEXT = None
        return result

    for outcome in run_plans(module, entry, args, plans, reference, budget,
                             config.rtol, config.fault_eligible,
                             engine=config.engine, batch=config.batch,
                             fault_model=config.fault_model,
                             snap=config.snap):
        result.counts[outcome] += 1
    return result


def trap_outcome(trap: Trap) -> Outcome:
    """Table-I outcome for a trapped run. Exhaustive over the
    :mod:`repro.cpu.errors` hierarchy: hangs are the paper's watchdog
    timeouts, hardening detections are their own class, and every other
    trap (memory fault, arithmetic fault, abort, or a bare ``Trap``) is
    an OS/runtime-detected crash."""
    if isinstance(trap, HangError):
        return Outcome.HANG
    if isinstance(trap, DetectedError):
        return Outcome.DETECTED
    return Outcome.OS_DETECTED


def inject_once(
    module: Module,
    entry: str,
    args: Sequence,
    plan: FaultPlan,
    reference: Sequence,
    budget: int,
    rtol: float = 1e-9,
    fault_eligible: Optional[Callable] = None,
    engine: str = "compiled",
) -> Outcome:
    """One fault-injection run, classified per Table I."""
    machine = _fresh_machine(module, max_instructions=budget,
                             fault_eligible=fault_eligible, engine=engine)
    machine.arm_fault(plan)
    try:
        result = machine.run(entry, args)
    except Trap as exc:
        return trap_outcome(exc)

    if not outputs_match(result.output, list(reference), rtol):
        return Outcome.SDC
    if machine.counters.corrections > 0:
        return Outcome.CORRECTED
    return Outcome.MASKED


class InjectionSession:
    """Per-cell injection scaffolding, hoisted out of the per-plan loop.

    :func:`inject_once` rebuilds the whole machine for every injection —
    memory arenas, global layout, cache/predictor/timing state, and
    (first time through) the decoded module. A session builds the
    machine once, warms the decode, snapshots the golden start state,
    and turns each injection into restore → arm → run → classify.
    Classification is the same code path as :func:`inject_once`, and
    the differential tests pin per-plan outcome identity between the
    two.

    The session machine/snapshot pair doubles as the execution substrate
    for the batched engine (:mod:`repro.cpu.batch`).
    """

    def __init__(self, module: Module, entry: str, args: Sequence,
                 reference: Sequence, budget: int, rtol: float = 1e-9,
                 fault_eligible: Optional[Callable] = None,
                 engine: str = "compiled"):
        self.module = module
        self.entry = entry
        self.args = list(args)
        self.reference = list(reference)
        self.budget = budget
        self.rtol = rtol
        self.engine = engine
        self.machine = _fresh_machine(module, max_instructions=budget,
                                      fault_eligible=fault_eligible,
                                      engine=engine)
        if engine in ("decoded", "compiled"):
            # Decode (and for "compiled", compile segments) up front so
            # the first injection's timing is not an outlier (both are
            # cached on the module either way).
            from ..cpu.engine import decoded_module

            dmod = decoded_module(
                module, self.machine.config.cost_model,
                self.machine.globals_addr,
            )
            dmod.function(module.get_function(entry))
            if engine == "compiled":
                from ..cpu.compiled import ensure_compiled

                ensure_compiled(
                    dmod, 0 if self.machine.timing is not None else 1
                )
        self.snapshot = self.machine.snapshot()
        self._trace = None  # lockstep trace, built on first batched use
        self._checkpoints = None  # CheckpointSet, attached per run_plans

    def attach_checkpoints(self, cset) -> None:
        """Resume injections from ``cset``'s mid-run checkpoints (a
        :class:`repro.snap.CheckpointSet`); None reverts to whole-run
        restore. Attached per :func:`run_plans` call because the set is
        per fault model while the session is shared across models."""
        self._checkpoints = cset

    def inject(self, plan: FaultPlan) -> Outcome:
        """One injection on the reused machine, classified per Table I.

        With checkpoints attached, restores the latest checkpoint at or
        before the plan's fault site and executes only the tail; plans
        whose site precedes every checkpoint run from scratch. Either
        way the outcome is bit-identical (tests/snap pins it)."""
        machine = self.machine
        state = (self._checkpoints.nearest(plan)
                 if self._checkpoints is not None else None)
        try:
            if state is not None:
                from ..cpu.resumable import resume_run

                result = resume_run(machine, state, (plan,))
            else:
                machine.restore(self.snapshot)
                machine.arm_fault(plan)
                result = machine.run(self.entry, self.args)
        except Trap as exc:
            return trap_outcome(exc)
        if not outputs_match(result.output, list(self.reference), self.rtol):
            return Outcome.SDC
        if machine.counters.corrections > 0:
            return Outcome.CORRECTED
        return Outcome.MASKED


#: The one live injection session, as ``(module, key, session)``. A
#: single slot across ALL modules, not one per module: every session
#: pins a Machine — arenas as large as its program's footprint, cache
#: and timing state, the golden snapshot — and a multi-cell campaign
#: (or benchmark sweep) that kept one per module would accumulate all
#: of that for every cell ever run. Beyond parent RSS,
#: that bloat taxes every ``os.fork()`` the batched engine makes —
#: page-table size and copy-on-write faults scale with the parent's
#: resident footprint, which measurably halves late cells' speedup.
#: Campaigns iterate cells one at a time, so one slot hits for every
#: shard of the current cell and retires the previous cell's arena.
#:
#: The slot is *per thread*: a Machine is deeply stateful during a run
#: (frame stack, fault arming, memory image), so two campaign threads
#: sharing one session corrupt each other — the service runs campaigns
#: on a thread pool, and each runner thread must pin its own arena.
#: Single-threaded drivers (the CLI) see the exact historical
#: one-slot-per-process behaviour.
_SESSION_TLS = threading.local()


def _get_session(module: Module, entry: str, args: Sequence,
                 reference: Sequence, budget: int, rtol: float,
                 fault_eligible: Optional[Callable],
                 engine: str) -> InjectionSession:
    """Fetch (or build) this thread's cached injection session for the
    cell."""
    ekey = _eligibility_key(fault_eligible)
    key = None
    if ekey is not None:
        key = (module.version, entry, _args_key(args), budget, rtol, ekey,
               engine)
        slot = getattr(_SESSION_TLS, "slot", None)
        if slot is not None and slot[0] is module and slot[1] == key:
            return slot[2]
    session = InjectionSession(module, entry, args, reference, budget, rtol,
                               fault_eligible, engine)
    if key is not None:
        _SESSION_TLS.slot = (module, key, session)
    return session


def _lockstep_trace(module: Module, session: InjectionSession,
                    fault_eligible: Optional[Callable],
                    profile: StreamProfile):
    """Golden checkpoint trace for batched execution, collected once per
    cell and cached both on the session and (when keyable) in the
    module's golden cache — forked lab workers inherit the parent's
    entry instead of re-tracing per shard."""
    if session._trace is not None:
        return session._trace
    from ..cpu.batch import collect_lockstep_trace, default_interval

    interval = default_interval(profile.eligible)
    ekey = _eligibility_key(fault_eligible)
    key = None
    if ekey is not None:
        key = ("lockstep-trace", module.version, session.entry,
               _args_key(session.args), session.budget, ekey, interval)
        cached = module._golden_cache.get(key)
        if cached is not None:
            session._trace = cached
            return cached
    trace = collect_lockstep_trace(session.machine, session.snapshot,
                                   session.entry, session.args, profile,
                                   interval)
    if key is not None:
        module._golden_cache[key] = trace
    session._trace = trace
    return trace


def _cell_checkpoints(module: Module, entry: str, args: Sequence,
                      budget: int, fault_eligible: Optional[Callable],
                      fault_model: str, engine: str, snap: bool):
    """The cell's :class:`repro.snap.CheckpointSet`, or None when
    checkpointing is off (disabled, reference engine, unkeyable
    predicate, or a golden run too short to profit). Cached through
    the module's golden cache, so shards and forked workers share one
    set per (cell, model)."""
    if not snap or engine not in ("decoded", "compiled"):
        return None
    from ..snap.build import build_checkpoints

    _, profile = golden_profile(module, entry, args, fault_eligible,
                                engine=engine)
    return build_checkpoints(module, entry, args, budget=budget,
                             fault_eligible=fault_eligible,
                             model=fault_model, eligible=profile.eligible)


def run_plans(
    module: Module,
    entry: str,
    args: Sequence,
    plans: Sequence[FaultPlan],
    reference: Sequence,
    budget: int,
    rtol: float = 1e-9,
    fault_eligible: Optional[Callable] = None,
    engine: str = "compiled",
    batch: int = 1,
    fault_model: str = DEFAULT_MODEL,
    tick: Optional[Callable] = None,
    snap: bool = True,
    events=None,
    stats: Optional[dict] = None,
) -> List[Outcome]:
    """Classify a list of fault plans; the shard-level entry point every
    fabric (inline, forked, durable, distributed) runs.

    Returns outcomes in plan order. With ``batch > 1`` on the decoded
    or compiled engine (and ``os.fork`` available), plans are
    re-ordered by the
    model's ``sort_for_batching`` hook, grouped into batches of
    ``batch``, and dispatched to :func:`repro.cpu.batch.run_batch`;
    results are scattered back to plan order, so the outcome *list* —
    not just its counts — is bit-identical to sequential injection.
    Everything else (reference engine, no fork, ``batch=1``) runs the
    sequential loop on a reused :class:`InjectionSession`. ``tick``,
    when given, is called after every injection or batch (cluster
    workers heartbeat there).

    ``snap`` resumes each injection (or batch group) from the nearest
    mid-run checkpoint at or before its fault site (:mod:`repro.snap`)
    — a pure execution-speed knob, bit-identical outcomes either way.
    ``events`` (an :class:`repro.lab.events.EventBus`) receives a
    ``batch-lane-degraded`` event for every batched lane that died
    unreported and had to be reclassified sequentially; ``stats``, when
    given, accumulates ``lanes_degraded`` / ``forked`` / ``converged``
    counters for campaign manifests. Both only see lanes run by *this*
    process: a forked lab worker's degradations stay in the worker
    (the shard pipe carries outcome counts only)."""
    session = _get_session(module, entry, args, reference, budget, rtol,
                           fault_eligible, engine)
    plans = list(plans)
    cset = None
    if plans:
        cset = _cell_checkpoints(module, entry, args, budget,
                                 fault_eligible, fault_model, engine, snap)
    session.attach_checkpoints(cset)
    batched = (batch > 1 and len(plans) > 1
               and engine in ("decoded", "compiled")
               and hasattr(os, "fork"))
    if not batched:
        outcomes = []
        for plan in plans:
            outcomes.append(session.inject(plan))
            if tick is not None:
                tick()
        return outcomes

    from ..cpu.batch import run_batch

    _, profile = golden_profile(module, entry, args, fault_eligible,
                                engine=engine)
    trace = _lockstep_trace(module, session, fault_eligible, profile)
    order = get_model(fault_model).sort_for_batching(plans)
    outcomes: List[Optional[Outcome]] = [None] * len(plans)
    # Convergence is a pure scheduling win (it truncates lane tails,
    # never changes an outcome), so probe it: if a full batch forks a
    # whole lane-worth of plans and not one reconverges — typical of
    # float workloads whose faulted state drifts within rtol forever —
    # stop installing the comparator for the rest of the cell.
    bstats = {"forked": 0, "converged": 0}
    degraded = 0
    for start in range(0, len(order), batch):
        group = [(i, plans[i]) for i in order[start:start + batch]]
        if len(group) == 1:
            index, plan = group[0]
            outcomes[index] = session.inject(plan)
        else:
            converge = bstats["converged"] > 0 or bstats["forked"] < batch
            resume = (cset.nearest_for_all([p for _, p in group])
                      if cset is not None else None)
            got = run_batch(session.machine, session.snapshot, entry,
                            session.args, group, session.reference,
                            budget, rtol, trace, converge=converge,
                            stats=bstats, resume_from=resume)
            for index, plan in group:
                outcome = got.get(index)
                if outcome is None:
                    # Lane died unreported: classify sequentially — and
                    # say so, because each such lane costs a full extra
                    # run (previously this fallback was silent).
                    degraded += 1
                    if events is not None:
                        events.emit(
                            "batch-lane-degraded", index=index,
                            plan_kind=getattr(plan, "kind", "reg"),
                            target=getattr(plan, "target_index", None),
                        )
                    outcome = session.inject(plan)
                outcomes[index] = outcome
        if tick is not None:
            tick()
    if stats is not None:
        stats["lanes_degraded"] = stats.get("lanes_degraded", 0) + degraded
        stats["forked"] = stats.get("forked", 0) + bstats["forked"]
        stats["converged"] = (stats.get("converged", 0)
                              + bstats["converged"])
    return outcomes

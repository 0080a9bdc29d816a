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
  keyed by ``(module.version, entry, args, eligibility)``, and
  persisted as ``.golden`` entries of the artifact cache, so figure
  scripts, ablations and warm processes stop repeating identical
  golden executions.
- **Parallel injections**: ``run_campaign(..., workers=N)`` is the
  store-less call of the lab's campaign driver
  (:mod:`repro.lab.durable`): it cuts the plan list into N shards and
  runs them on N supervised forked workers. All fault plans are
  pre-drawn from one seeded RNG in the serial draw order, so the
  outcome counts are bit-identical for every worker count (and to the
  serial path); platforms without ``fork`` run the shards in-process.

Campaigns run one way: on the compiled engine, each injection resuming
from the nearest mid-run checkpoint at or before its fault site
(:mod:`repro.snap`) wherever the cell has a checkpoint set, and ending
early once its state is back on the golden run (the reconvergence
poll, :class:`repro.snap.build.ReconvergencePoll`). The
reference interpreter stays the oracle, reachable through exactly two
entry points, ``MachineConfig(engine="reference")`` and
``inject_once(..., engine="reference")``; the differential tests hold
every campaign's per-plan outcomes to it.
"""

from __future__ import annotations

import math
import os
import random
import threading
import warnings
from dataclasses import astuple, dataclass, replace
from typing import Callable, List, Optional, Sequence

from ..cpu.compiled import compile_records
from ..cpu.errors import DetectedError, HangError, Trap
from ..cpu.interpreter import FaultPlan, Machine, MachineConfig, RunResult
from ..cpu.resumable import resume_run, start_state
from ..ir.module import Module
from ..snap.build import Reconverged, ReconvergencePoll
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


def resolve_workers(workers: int) -> int:
    """Resolve a worker-count setting: 0 means "all CPUs"."""
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _fresh_config(max_instructions: Optional[int] = None,
                  fault_eligible: Optional[Callable] = None,
                  engine: str = "compiled") -> MachineConfig:
    config = MachineConfig(collect_timing=False, engine=engine)
    if max_instructions is not None:
        config.max_instructions = max_instructions
    if fault_eligible is not None:
        config.fault_eligible = fault_eligible
    return config


def _fresh_machine(module: Module, max_instructions: Optional[int] = None,
                   fault_eligible: Optional[Callable] = None,
                   engine: str = "compiled") -> Machine:
    return Machine(module, _fresh_config(max_instructions, fault_eligible,
                                         engine))


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
        import multiprocessing

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


#: Golden executions this process ran (profiles not served by a cache).
GOLDEN_RUNS = 0


def golden_profile(module: Module, entry: str, args: Sequence,
                   fault_eligible: Optional[Callable] = None,
                   cache=None):
    """Fault-free execution; returns ``(output, StreamProfile)``.

    Runs the machine in ``count_only`` mode, which profiles *every*
    targeting stream in one pass — eligible results, dynamic memory
    accesses, conditional branches, and checker sites — so one golden
    run prices every fault model. Results are cached on the module
    (invalidated by its version stamp) and, beneath that, as a
    ``.golden`` entry of the artifact cache (``cache``, default
    :class:`~repro.toolchain.cache.ArtifactCache`), so a warm process
    runs no golden execution at all. An unkeyable eligibility
    predicate caches nowhere.
    """
    global GOLDEN_RUNS
    from ..snap.store import GOLDEN_SUFFIX, golden_key, machine_key, \
        parse_golden, render_golden
    from ..toolchain.cache import ArtifactCache

    ekey = _eligibility_key(fault_eligible)
    slot = key = None
    if ekey is not None:
        args_key = _args_key(args)
        slot = (module.version, entry, args_key, ekey)
        cached = module._golden_cache.get(slot)
        if cached is not None:
            output, profile = cached
            return list(output), profile
        cache = cache if cache is not None else ArtifactCache()
        key = golden_key(module, entry, args_key, ekey,
                         machine_key(_fresh_config(
                             fault_eligible=fault_eligible)))

        def decode(body: bytes):
            output, totals = parse_golden(body)
            return output, StreamProfile(*totals)

        stored = cache.get(key, GOLDEN_SUFFIX, decode)
        if stored is not None:
            module._golden_cache[slot] = stored
            return list(stored[0]), stored[1]
    machine = _fresh_machine(module, fault_eligible=fault_eligible)
    machine.count_only = True
    result = machine.run(entry, args)
    GOLDEN_RUNS += 1
    profile = StreamProfile(
        eligible=machine.eligible_executed,
        executed=result.counters.instructions,
        mem_accesses=machine.mem_accesses_eligible,
        cond_branches=machine.cond_branches_eligible,
        checker_sites=machine.checker_sites_executed,
    )
    if slot is not None:
        module._golden_cache[slot] = (tuple(result.output), profile)
        cache.put(key, GOLDEN_SUFFIX, render_golden(
            result.output, astuple(profile)))
    return list(result.output), profile


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


def hang_budget(executed: int, hang_factor: float) -> int:
    """Instruction budget past which an injection run counts as a hang
    (the paper's watchdog timeout): ``hang_factor`` times the golden
    run's instruction count, plus slack for very short runs."""
    return int(executed * hang_factor) + 10_000


def warm_record_path(module: Module, entry: str,
                     fault_eligible: Optional[Callable] = None) -> None:
    """Compile, in this process, the record functions the cell's
    injections fire their faults on. Call it before forking injection
    workers: they inherit the code instead of each emitting it again."""
    compile_records(_fresh_machine(module, fault_eligible=fault_eligible),
                    entry)


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

    ``workers`` (or ``config.workers``) > 1 cuts the plans into that
    many shards, each run by a supervised forked worker; counts are
    bit-identical to the serial run. This is
    :func:`repro.lab.durable.run_durable_campaign` with ``store=False``.
    """
    # Imported here: the lab sits above this package.
    from ..lab.durable import run_durable_campaign

    config = config or CampaignConfig()
    if workers is not None:
        config = replace(config, workers=workers)
    shard_size = max(1, math.ceil(config.injections
                                  / resolve_workers(config.workers)))
    return run_durable_campaign(module, entry, args, workload, version,
                                config, store=False,
                                shard_size=shard_size).result


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


def _classify(run: Callable[[], RunResult], reference: Sequence,
             rtol: float) -> Outcome:
    """Execute ``run`` — one armed injection run — and classify it per
    Table I: a trap by :func:`trap_outcome`, otherwise SDC when the
    output differs from ``reference``, corrected when the hardening
    repaired a value, masked when not."""
    try:
        result = run()
    except Trap as exc:
        return trap_outcome(exc)
    if not outputs_match(result.output, reference, rtol):
        return Outcome.SDC
    if result.counters.corrections > 0:
        return Outcome.CORRECTED
    return Outcome.MASKED


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
    return _classify(lambda: machine.run(entry, args), list(reference), rtol)


def reconverged_outcome(executed: int, corrections: int,
                        budget: int) -> Outcome:
    """Table-I outcome of a run the reconvergence poll ended: its rest
    is the golden run's, which cannot trap, emits the golden output and
    corrects nothing. So it hangs when it would end past ``budget``
    (``executed`` instructions), else it is corrected when it corrected
    anything on the way back, else masked."""
    if executed > budget:
        return Outcome.HANG
    if corrections > 0:
        return Outcome.CORRECTED
    return Outcome.MASKED


class Outcomes(list):
    """Per-plan outcomes of one :func:`run_plans` call, in plan order;
    ``reconverged`` counts the injections the reconvergence poll
    ended."""

    reconverged = 0


class InjectionSession:
    """Per-cell injection scaffolding, hoisted out of the per-plan loop.

    :func:`inject_once` rebuilds the whole machine for every injection —
    memory arenas, global layout and (first time through) the decoded
    module. Both run architecture-only machines (``collect_timing=False``:
    no timing model, cache or branch predictor to build, copy or
    restore), as the paper's SDE-based injector did. A session builds the
    machine once, warms the decode, captures the run's start state
    (:func:`repro.cpu.resumable.start_state`), and turns each injection
    into resume → classify. Classification is :func:`_classify`, as in
    :func:`inject_once`, and the differential tests pin per-plan
    outcome identity between the two. With a checkpoint set attached,
    every injection also carries the set's reconvergence poll.
    """

    def __init__(self, module: Module, entry: str, args: Sequence,
                 reference: Sequence, budget: int, rtol: float = 1e-9,
                 fault_eligible: Optional[Callable] = None):
        self.module = module
        self.reference = list(reference)
        self.budget = budget
        self.rtol = rtol
        self.machine = _fresh_machine(module, max_instructions=budget,
                                      fault_eligible=fault_eligible)
        # Decode and compile the record functions every injection fires
        # on up front, so the first injection's timing is not an outlier
        # (cached on the module either way). Segments are compiled by
        # the first run that executes them.
        compile_records(self.machine, entry)
        self.start = start_state(self.machine, entry, args)
        self._checkpoints = None  # CheckpointSet, attached per run_plans
        self._poll = None
        #: Injections the reconvergence poll ended.
        self.reconverged = 0

    def attach_checkpoints(self, cset) -> None:
        """Resume injections from ``cset``'s mid-run checkpoints (a
        :class:`repro.snap.CheckpointSet`) and poll them for
        reconvergence; None resumes every injection from the start
        state and runs it to its end. Attached per :func:`run_plans`
        call."""
        self._checkpoints = cset
        self._poll = (ReconvergencePoll(cset)
                      if cset is not None and cset.polls else None)

    def inject(self, plan: FaultPlan) -> Outcome:
        """One injection on the reused machine, classified per Table I.

        Resumes the latest checkpoint at or before the plan's fault
        site and executes only the tail; a plan whose site precedes
        every checkpoint (or a session with none attached) resumes the
        start state. A run the poll finds back on the golden run ends
        there, its outcome derived (:func:`reconverged_outcome`).
        Either way the outcome is bit-identical to a run from scratch
        (tests/snap pins it)."""
        state = (self._checkpoints.nearest(plan)
                 if self._checkpoints is not None else None)
        poll = self._poll
        if poll is not None:
            poll.arm(plan)
        try:
            return _classify(
                lambda: resume_run(self.machine, state or self.start,
                                   (plan,), poll),
                self.reference, self.rtol)
        except Reconverged as end:
            self.reconverged += 1
            return reconverged_outcome(end.executed, end.corrections,
                                       self.budget)


#: The one live injection session, as ``(module, key, session)``. A
#: single slot across ALL modules, not one per module: every session
#: pins a Machine — arenas as large as its program's footprint, cache
#: and timing state, the start state — and a multi-cell campaign
#: (or benchmark sweep) that kept one per module would accumulate all
#: of that for every cell ever run. Beyond parent RSS, that bloat
#: taxes every ``os.fork()`` of a forked campaign — page-table size
#: and copy-on-write faults scale with the parent's resident footprint.
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
                 fault_eligible: Optional[Callable]) -> InjectionSession:
    """Fetch (or build) this thread's cached injection session for the
    cell."""
    ekey = _eligibility_key(fault_eligible)
    key = None
    if ekey is not None:
        key = (module.version, entry, _args_key(args), budget, rtol, ekey)
        slot = getattr(_SESSION_TLS, "slot", None)
        if slot is not None and slot[0] is module and slot[1] == key:
            return slot[2]
    session = InjectionSession(module, entry, args, reference, budget, rtol,
                               fault_eligible)
    if key is not None:
        _SESSION_TLS.slot = (module, key, session)
    return session


def _cell_checkpoints(module: Module, entry: str, args: Sequence,
                      budget: int, fault_eligible: Optional[Callable]):
    """The cell's :class:`repro.snap.CheckpointSet`, or None when
    checkpoints cannot pay (unkeyable predicate, or a golden run too
    short to profit). Cached through the module's golden cache, so
    shards, forked workers and every fault model share one set per
    cell."""
    from ..snap.build import build_checkpoints

    _, profile = golden_profile(module, entry, args, fault_eligible)
    return build_checkpoints(module, entry, args, budget=budget,
                             fault_eligible=fault_eligible,
                             eligible=profile.eligible)


def run_plans(
    module: Module,
    entry: str,
    args: Sequence,
    plans: Sequence[FaultPlan],
    reference: Sequence,
    budget: int,
    rtol: float = 1e-9,
    fault_eligible: Optional[Callable] = None,
    fault_model: str = DEFAULT_MODEL,
    tick: Optional[Callable] = None,
) -> Outcomes:
    """Classify a list of fault plans, in plan order, on a reused
    :class:`InjectionSession`; the shard-level entry point every fabric
    (in-process, forked workers, cluster agents) runs. ``tick``, when given,
    is called after every injection (cluster workers heartbeat there).
    Each injection resumes from the nearest mid-run checkpoint at or
    before its fault site (:mod:`repro.snap`) where the cell has one,
    and ends once the reconvergence poll finds it back on the golden
    run (counted in the result's ``reconverged``).
    ``fault_model`` is ignored (one checkpoint set serves every model);
    the e2ebench harness still passes it."""
    session = _get_session(module, entry, args, reference, budget, rtol,
                           fault_eligible)
    plans = list(plans)
    cset = None
    if plans:
        cset = _cell_checkpoints(module, entry, args, budget,
                                 fault_eligible)
    session.attach_checkpoints(cset)
    outcomes = Outcomes()
    before = session.reconverged
    for plan in plans:
        outcomes.append(session.inject(plan))
        if tick is not None:
            tick()
    outcomes.reconverged = session.reconverged - before
    return outcomes

"""The campaign driver: the one code path that runs a fault-injection
campaign, whichever *fabric* (in-process, forked workers, cluster
agents) executes its shards. :func:`_drive` does, for every fabric:

1. golden run, hang budget, the pre-drawn serial plan list and its
   partition into contiguous shards (the replay unit);
2. record (or cross-check) the golden row and serve every shard
   already in the result store (``shard-store-hit``);
3. hand the missing shards to an *executor* (the code that runs one
   fabric) as a :class:`CellRun`; it persists each shard's counts the
   moment it completes — *before* telemetry fires, so an interrupt
   never loses work — and returns them;
4. count the contiguous completed shard *prefix*, up to the first
   shard whose prefix meets the Wilson 95% CI rule when a
   ``ci_target`` is given — a pure function of the shard sequence.

:func:`run_durable_campaign` is the driver plus the local executor
(:class:`~repro.lab.scheduler.ShardScheduler`);
:func:`repro.faults.campaign.run_campaign` calls it with no store, and
:func:`repro.cluster.coordinator.run_distributed_campaign` is the
driver plus the cluster executor. For a fixed (module, entry, args,
config, shard_size, ci_target) the counts are bit-identical across
fabrics, worker counts, interrupt/resume cycles and store hit/miss
mixtures.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, \
    Tuple

from ..faults.campaign import (
    CampaignConfig,
    _cell_checkpoints,
    draw_model_plans,
    golden_profile,
    hang_budget,
    run_plans,
    warm_record_path,
)
from ..faults.models import StreamProfile, get_model
from ..faults.outcomes import CampaignResult
from ..ir.module import Module
from ..snap.store import GOLDEN_SUFFIX
from ..toolchain.cache import ArtifactCache
from .checkpoint import (
    DEFAULT_SHARD_SIZE,
    CampaignSpec,
    ShardPlan,
    build_spec,
    ensure_golden,
    golden_digest,
    load_completed,
    partition,
)
from .events import EventBus
from .sampling import AdaptiveStop
from .store import ResultStore, default_store

if TYPE_CHECKING:
    from .scheduler import SchedulerPolicy


@contextmanager
def _engine_compile_events(events: EventBus):
    """Bridge segment-compiler telemetry onto the campaign's bus: every
    :func:`repro.cpu.compiled.ensure_compiled` invocation that did work
    while the campaign runs surfaces as an ``engine-compile`` event
    (module digest, block/segment counts, compile wall time, code-cache
    hit/miss split). In-process compiles only — a forked shard worker's
    or a cluster agent's compiles stay there, like its other events."""
    from ..cpu.compiled import add_compile_hook, remove_compile_hook

    def hook(payload):
        events.emit("engine-compile", **payload)

    add_compile_hook(hook)
    try:
        yield
    finally:
        remove_compile_hook(hook)


@dataclass
class LabRunInfo:
    """What the lab did to produce a campaign result."""

    shards_total: int
    shards_from_store: int
    shards_executed: int
    injections_from_store: int
    injections_executed: int
    #: Injections counted into the result (< the cap under adaptive stop).
    injections_used: int
    stopped_early: bool
    #: Max Wilson CI half-width over outcome classes at the stopping
    #: point (only computed when a ci_target was given).
    ci_halfwidth: Optional[float]
    #: False when the store was disabled (or the spec was unkeyable).
    durable: bool


@dataclass
class DurableCampaign:
    result: CampaignResult
    info: LabRunInfo
    spec: Optional[CampaignSpec]


@dataclass
class CellRun:
    """One campaign cell, as the driver hands it to an executor."""

    reference: List
    profile: StreamProfile
    budget: int
    shards: List[ShardPlan]
    #: Shards the store did not serve, in index order.
    missing: List[ShardPlan]
    #: Stored counts by shard index.
    loaded: Dict[int, Counter]
    spec: Optional[CampaignSpec]
    #: Where executed shards are persisted; None for a non-durable run.
    store: Optional[ResultStore]
    events: EventBus
    stopper: Optional[AdaptiveStop]


#: executor(run) -> counts by shard index, for the shards it executed.
Executor = Callable[[CellRun], Dict[int, Counter]]


def _prefix_status(shards: int, results: Dict[int, Counter],
                   stopper: Optional[AdaptiveStop]
                   ) -> Tuple[Optional[int], int, Counter]:
    """Walk shard indices ``0..shards-1`` accumulating completed counts.
    Returns (stop position or None, completed prefix length, cumulative
    counts over that prefix). The stop position is the first shard at
    which the stopping rule is satisfied — a pure function of the shard
    sequence, so identical for every execution schedule."""
    cumulative: Counter = Counter()
    for index in range(shards):
        counts = results.get(index)
        if counts is None:
            return None, index, cumulative
        cumulative = cumulative + counts
        if stopper is not None and stopper.satisfied(cumulative):
            return index, index + 1, cumulative
    return shards - 1, shards, cumulative


def _drive(module: Module, entry: str, args: Sequence, workload: str,
           version: str, config: CampaignConfig,
           store: Optional[ResultStore], events: EventBus,
           shard_size: int, ci_target: Optional[float],
           min_injections: int, execute: Executor,
           cluster: bool = False) -> DurableCampaign:
    """Run one campaign cell, with ``execute`` running the shards the
    store does not hold; ``cluster`` marks the cluster executor in the
    ``campaign-started`` event."""
    with _engine_compile_events(events):
        cache = ArtifactCache()
        reference, profile = golden_profile(module, entry, args,
                                            config.fault_eligible, cache)
        invalid = cache.stats_for(GOLDEN_SUFFIX).invalid
        if invalid:
            events.emit("cache-invalid", suffix=GOLDEN_SUFFIX,
                        invalid=invalid)
        if profile.eligible == 0:
            raise ValueError(f"no eligible instructions in @{entry}")
        budget = hang_budget(profile.executed, config.hang_factor)
        # Raises ValueError when the model's target stream is empty (e.g.
        # checker-fault against unhardened code) — before any store writes.
        plans = draw_model_plans(profile, config)
        population = get_model(config.fault_model).population(profile)
        shards = partition(plans, shard_size)

        spec = build_spec(module, entry, args, config, population, shard_size)
        durable = spec is not None and store is not None
        if spec is None:
            events.emit("store-disabled",
                        reason="eligibility predicate has no cache_key")

        loaded: Dict[int, Counter] = {}
        if durable:
            digest = golden_digest(reference, profile.eligible,
                                   profile.executed, profile.mem_accesses,
                                   profile.cond_branches,
                                   profile.checker_sites)
            ensure_golden(store, spec, digest, profile.eligible,
                          profile.executed, events)
            loaded = load_completed(store, spec, shards)

        events.emit(
            "campaign-started", workload=workload, version=version,
            shards=len(shards), injections=len(plans), from_store=len(loaded),
            cluster=cluster,
            # The store address of this campaign's rows; the service stashes
            # it in restart manifests so a cold start can probe how much of
            # an interrupted campaign is already banked.
            spec_key=spec.spec_key if durable else None,
        )
        for index in sorted(loaded):
            events.emit("shard-store-hit", index=index,
                        n=sum(loaded[index].values()))

        stopper = (AdaptiveStop(ci_target=ci_target,
                                min_injections=min_injections)
                   if ci_target is not None else None)
        executed = execute(CellRun(
            reference=reference, profile=profile, budget=budget,
            shards=shards,
            missing=[s for s in shards if s.index not in loaded],
            loaded=loaded, spec=spec, store=store if durable else None,
            events=events, stopper=stopper,
        ))

        results = {**loaded, **executed}
        stop_position, prefix_len, cumulative = _prefix_status(
            len(shards), results, stopper)
        if stop_position is None:
            # A cluster drain left a gap; count the contiguous completed
            # prefix only (the resume path re-executes the rest).
            stop_position = prefix_len - 1
        if stopper is not None and stop_position < len(shards) - 1:
            events.emit(
                "adaptive-stop",
                injections=sum(cumulative.values()),
                halfwidth=stopper.max_halfwidth(cumulative),
                target=stopper.ci_target,
            )

        used = shards[:stop_position + 1]
        result = CampaignResult(workload=workload, version=version,
                                fault_model=config.fault_model)
        for shard in used:
            result.counts.update(results[shard.index])

        used_indices = {s.index for s in used}
        info = LabRunInfo(
            shards_total=len(shards),
            shards_from_store=len(loaded),
            shards_executed=len(executed),
            injections_from_store=sum(
                sum(c.values()) for i, c in loaded.items() if i in used_indices
            ),
            injections_executed=sum(
                sum(c.values()) for c in executed.values()),
            injections_used=result.total,
            stopped_early=len(used) < len(shards),
            ci_halfwidth=(stopper.max_halfwidth(result.counts)
                          if stopper is not None else None),
            durable=durable,
        )
        events.emit(
            "campaign-finished", workload=workload, version=version,
            injections=result.total, executed=info.injections_executed,
            from_store=info.injections_from_store,
        )
        return DurableCampaign(result=result, info=info, spec=spec)


def _local_executor(module: Module, entry: str, args: Sequence,
                    workload: str, version: str, config: CampaignConfig,
                    policy: SchedulerPolicy) -> Executor:
    """Run a cell's missing shards in this process or on supervised
    forked workers. Under a stopping rule, shards go out in waves of
    the worker width, in index order, with the prefix rule re-evaluated
    between waves; workers may overrun the stopping point by at most
    one wave, and overrun shards land in the store (useful later) but
    are not counted."""
    from .scheduler import ShardScheduler

    def execute(run: CellRun) -> Dict[int, Counter]:
        scheduler = ShardScheduler(policy, run.events)
        width = scheduler.width(len(run.missing))
        if width > 1:
            # Forked shard workers inherit the checkpoint set, the
            # states their plans resume from, the live registers their
            # polls compare and the record functions instead of each
            # decoding, computing and compiling them again.
            cset = _cell_checkpoints(module, entry, args, run.budget,
                                     config.fault_eligible)
            if cset is not None:
                cset.prefetch(plan for shard in run.missing
                              for plan in shard.plans)
            warm_record_path(module, entry, config.fault_eligible)
        executed: Dict[int, Counter] = {}
        done: Dict[int, Counter] = dict(run.loaded)

        def runner(shard: ShardPlan) -> Tuple[Counter, int]:
            outcomes = run_plans(
                module, entry, args, shard.plans, run.reference, run.budget,
                config.rtol, config.fault_eligible)
            return Counter(outcomes), outcomes.reconverged

        def on_result(shard: ShardPlan, result: Tuple[Counter, int],
                      seconds: float) -> None:
            counts, reconverged = result
            executed[shard.index] = done[shard.index] = counts
            if run.store is not None:
                run.store.put_shard(run.spec.spec_key, run.spec.cell_key,
                                    shard.index, len(shard.plans), counts,
                                    seconds)
            run.events.emit(
                "shard-completed", index=shard.index, n=len(shard.plans),
                seconds=seconds, workload=workload, version=version,
                counts={o.value: int(c) for o, c in counts.items()},
                reconverged=reconverged,
            )

        if run.stopper is None:
            scheduler.run(run.missing, runner, on_result)
            return executed
        while True:
            stop, prefix_len, _ = _prefix_status(len(run.shards), done,
                                                 run.stopper)
            wave = [s for s in run.shards[prefix_len:]
                    if s.index not in done][:width]
            if stop is not None or not wave:
                return executed
            scheduler.run(wave, runner, on_result)

    return execute


def run_durable_campaign(
    module: Module,
    entry: str,
    args: Sequence,
    workload: str = "",
    version: str = "",
    config: Optional[CampaignConfig] = None,
    *,
    store: Optional[ResultStore] = None,
    events: Optional[EventBus] = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    ci_target: Optional[float] = None,
    min_injections: int = 50,
    policy: Optional[SchedulerPolicy] = None,
) -> DurableCampaign:
    """Run (or resume, or entirely replay from the store) a campaign on
    this machine.

    ``store=None`` uses the process-wide default store
    (``$REPRO_LAB_STORE`` or the user cache dir); pass ``store=False``
    to run ephemerally. ``config.injections`` is the cap; with
    ``ci_target`` set, sampling stops at the first shard whose prefix
    satisfies the Wilson rule (see :mod:`repro.lab.sampling`).
    ``policy`` (default: ``config.workers`` workers) supervises the
    shards.
    """
    # Imported here: a process that only sets campaigns up (golden
    # profiles, checkpoint sets) never compiles the scheduler.
    from .scheduler import SchedulerPolicy

    config = config or CampaignConfig()
    if store is None:
        store = default_store()
    elif store is False:
        store = None
    execute = _local_executor(
        module, entry, args, workload, version, config,
        policy or SchedulerPolicy(workers=config.workers))
    return _drive(module, entry, args, workload, version, config, store,
                  events or EventBus(), shard_size, ci_target,
                  min_injections, execute)

"""Supervised shard execution: forked workers, timeouts, retry, degrade.

The paper drove its cluster with ad-hoc scripts; the failure mode of
ad-hoc scripts is a wedged worker silently stalling the whole night's
campaign. This scheduler supervises every shard:

- up to ``workers`` forked processes run shards concurrently (fork
  start method only — modules and eligibility predicates are inherited,
  never pickled; results come back over a pipe);
- each in-flight shard has an optional wall-clock ``timeout``; an
  overrunning worker is terminated and the shard requeued;
- a failed shard (crash, nonzero exit, timeout, reported exception) is
  retried up to ``max_retries`` times with exponential backoff;
- a shard that keeps dying *degrades gracefully*: it runs in-process in
  the supervisor, where a real error surfaces as a real traceback. The
  same in-process path serves platforms without ``fork``.

None of this affects results: a shard's outcome counts are a pure
function of its plans, so scheduling, retries, and completion order are
invisible in the aggregated campaign.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..chaos.hooks import chaos_point
from ..chaos.policy import RetryPolicy
from ..faults.campaign import resolve_workers
from ..faults.outcomes import Outcome
from .checkpoint import ShardPlan
from .events import EventBus

#: runner(shard) -> Counter of Outcome; executed in workers (and, on
#: degradation, in the supervisor).
ShardRunner = Callable[[ShardPlan], Counter]
#: on_result(shard, counts, seconds) — called in the supervisor, in
#: completion order, after each shard finishes.
ResultSink = Callable[[ShardPlan, Counter, float], None]


@dataclass
class SchedulerPolicy:
    #: Concurrent worker processes; 0 = ``os.cpu_count()``, 1 = run
    #: everything in-process.
    workers: int = 1
    #: Per-shard wall-clock limit in seconds (None = unlimited).
    timeout: Optional[float] = None
    #: Re-executions of a failed shard before degrading to in-process.
    max_retries: int = 2
    #: Base delay before a retry; doubles per attempt.
    backoff: float = 0.05

    @property
    def retry(self) -> RetryPolicy:
        """The shard retry schedule in the stack-wide
        :class:`~repro.chaos.policy.RetryPolicy` shape. No jitter:
        shard retries are per-campaign, not fleet-wide, so there is no
        herd to spread."""
        return RetryPolicy(max_attempts=self.max_retries + 1,
                           backoff=self.backoff, backoff_factor=2.0,
                           jitter=0.0, timeout=self.timeout)


def _shard_child(conn, runner: ShardRunner, shard: ShardPlan,
                 attempt: int) -> None:
    """Worker body: run one shard, ship counts back over the pipe."""
    try:
        # Fork inherits the driver's armed chaos controller, so seeded
        # worker kills/stalls/errors fire here, inside the child —
        # degradation to the supervisor stays chaos-free.
        chaos_point("lab.worker.shard", index=shard.index, attempt=attempt)
        start = time.perf_counter()
        counts = runner(shard)
        payload = {o.value: int(n) for o, n in counts.items()}
        conn.send(("ok", payload, time.perf_counter() - start))
    except BaseException as exc:  # report, never hang the supervisor
        try:
            conn.send(("error", repr(exc), 0.0))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


@dataclass
class _InFlight:
    shard: ShardPlan
    attempt: int
    proc: object
    conn: object
    deadline: Optional[float]


@dataclass
class _Queued:
    shard: ShardPlan
    attempt: int
    not_before: float


class ShardScheduler:
    """Run shards under a :class:`SchedulerPolicy`, reporting each
    completion through a result sink (the orchestrator persists the
    shard there, *before* any event subscriber can interrupt)."""

    def __init__(self, policy: Optional[SchedulerPolicy] = None,
                 events: Optional[EventBus] = None):
        self.policy = policy or SchedulerPolicy()
        self.events = events or EventBus()

    def width(self, shards: int) -> int:
        """Worker processes :meth:`run` forks for ``shards`` shards; 1
        means it runs them in-process (one worker or shard, or no
        ``fork`` start method)."""
        width = max(1, min(resolve_workers(self.policy.workers), shards))
        if width > 1:
            # Imported only to fork: an in-process run never loads it.
            import multiprocessing

            if "fork" not in multiprocessing.get_all_start_methods():
                return 1
        return width

    def run(self, shards: List[ShardPlan], runner: ShardRunner,
            on_result: ResultSink) -> None:
        """Execute ``shards`` (any order, all supervised)."""
        workers = self.width(len(shards))
        if workers <= 1:
            for shard in shards:
                self._run_in_process(shard, runner, on_result)
            return
        self._run_forked(shards, runner, on_result, workers)

    # In-process path ---------------------------------------------------------

    def _run_in_process(self, shard: ShardPlan, runner: ShardRunner,
                        on_result: ResultSink) -> None:
        start = time.perf_counter()
        counts = runner(shard)
        on_result(shard, counts, time.perf_counter() - start)

    # Forked path -------------------------------------------------------------

    def _spawn(self, ctx, shard: ShardPlan, attempt: int,
               runner: ShardRunner) -> _InFlight:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_shard_child,
            args=(child_conn, runner, shard, attempt),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        deadline = None
        if self.policy.timeout is not None:
            deadline = time.monotonic() + self.policy.timeout
        return _InFlight(shard=shard, attempt=attempt, proc=proc,
                         conn=parent_conn, deadline=deadline)

    def _reap(self, flight: _InFlight) -> None:
        if flight.proc.is_alive():
            flight.proc.terminate()
        flight.proc.join(timeout=5.0)
        try:
            flight.conn.close()
        except Exception:
            pass

    def _handle_failure(self, flight: _InFlight, reason: str,
                        queue: List[_Queued], runner: ShardRunner,
                        on_result: ResultSink) -> None:
        attempt = flight.attempt + 1
        if attempt <= self.policy.max_retries:
            delay = self.policy.retry.delay(flight.attempt)
            self.events.emit("shard-retry", index=flight.shard.index,
                             attempt=attempt, reason=reason)
            queue.append(_Queued(shard=flight.shard, attempt=attempt,
                                 not_before=time.monotonic() + delay))
            return
        # Out of retries: degrade to the supervisor process, where a
        # genuine error produces a genuine traceback instead of a
        # silently incomplete campaign.
        self.events.emit("shard-degraded", index=flight.shard.index,
                         reason=reason)
        self._run_in_process(flight.shard, runner, on_result)

    def _run_forked(self, shards: List[ShardPlan], runner: ShardRunner,
                    on_result: ResultSink, workers: int) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        queue: List[_Queued] = [
            _Queued(shard=s, attempt=0, not_before=0.0) for s in shards
        ]
        running: Dict[int, _InFlight] = {}
        try:
            while queue or running:
                now = time.monotonic()
                # Launch eligible queued shards into free worker slots.
                for entry in list(queue):
                    if len(running) >= workers:
                        break
                    if entry.not_before > now:
                        continue
                    queue.remove(entry)
                    running[entry.shard.index] = self._spawn(
                        ctx, entry.shard, entry.attempt, runner)
                progressed = False
                for index, flight in list(running.items()):
                    status = self._poll(flight)
                    if status is None:
                        continue
                    progressed = True
                    del running[index]
                    kind, payload, seconds = status
                    self._reap(flight)
                    if kind == "ok":
                        counts = Counter(
                            {Outcome(k): v for k, v in payload.items()}
                        )
                        on_result(flight.shard, counts, seconds)
                    else:
                        self._handle_failure(flight, payload, queue, runner,
                                             on_result)
                if not progressed:
                    self._wait_for_activity(running, queue, workers)
        finally:
            for flight in running.values():
                self._reap(flight)

    def _wait_for_activity(self, running: Dict[int, _InFlight],
                           queue: List[_Queued], workers: int) -> None:
        """Block until something can change: a worker pipe becomes
        readable (result or death — a dying child closes its end), a
        shard deadline passes, or a backed-off retry becomes eligible
        for a free slot. Event-driven, so an idle supervisor costs no
        CPU between completions."""
        now = time.monotonic()
        wakeups = [f.deadline for f in running.values()
                   if f.deadline is not None]
        if len(running) < workers:
            wakeups.extend(entry.not_before for entry in queue)
        timeout = None
        if wakeups:
            timeout = max(0.0, min(wakeups) - now)
        conns = [f.conn for f in running.values()]
        if conns:
            from multiprocessing.connection import wait

            wait(conns, timeout)
        elif timeout is not None:
            time.sleep(timeout)

    def _poll(self, flight: _InFlight):
        """None while still running; otherwise ("ok", counts-dict,
        seconds) or ("error", reason, 0.0)."""
        try:
            if flight.conn.poll():
                return flight.conn.recv()
        except (EOFError, OSError):
            return ("error", "worker pipe closed mid-message", 0.0)
        if not flight.proc.is_alive():
            # Drain the race between the result write and process exit.
            try:
                if flight.conn.poll(0.1):
                    return flight.conn.recv()
            except (EOFError, OSError):
                pass
            return ("error",
                    f"worker died (exitcode {flight.proc.exitcode})", 0.0)
        if flight.deadline is not None and time.monotonic() > flight.deadline:
            return ("error",
                    f"shard timeout after {self.policy.timeout:.1f}s", 0.0)
        return None

"""Campaign coordinator: lease shards to networked workers, merge
results into the lab store.

The paper drove its 25-machine fault-injection cluster with ad-hoc
scripts; this module is that layer made a real system. One asyncio TCP
server (running on a background thread so the synchronous campaign
CLI stays synchronous) owns:

- the **worker pool**: each connection handshakes (protocol version,
  lab schema, toolchain digest) and then *prepares* per cell —
  rebuilding the module
  from the cell recipe and echoing back content digests of the IR, the
  golden run, and the fault model's ``cache_key``. A mismatch is
  refused before any shard is leased: a drifted checkout can waste at
  most one handshake, never corrupt a campaign.
- the **lease table** (:mod:`repro.cluster.lease`): heartbeats,
  expiry, exponential-backoff requeue (with bounded jitter),
  at-most-once commit.
- the **store writer**: one task per cell session drains a *bounded*
  commit queue into
  the coordinator's own SQLite connection. The bound is backpressure —
  when workers outpace the writer, connection handlers block in
  ``queue.put`` and stop reading their sockets, so TCP flow control
  pushes the slowdown to the workers instead of buffering results in
  RAM.
- the **event stream**: everything is narrated on the same
  :class:`~repro.lab.events.EventBus` vocabulary the local lab uses
  (plus cluster-specific kinds), so ``python -m repro campaign``
  progress output and ``--events-log`` JSONL traces work unchanged.

Since the always-on service (:mod:`repro.service`) arrived, the
coordinator **multiplexes many concurrent cell sessions over one
worker pool**: every in-flight :class:`CellJob` owns its own lease
table, leases are tagged with the job's campaign id, and idle workers
are steered by a priority-aware fair-share rule — among the sessions
with grantable shards the highest ``priority`` wins, ties broken by
least-recently-granted, with a mild stickiness bonus for the cell a
worker has already prepared (so two workers serving two campaigns
settle into one-each instead of thrashing prepares). A worker switches
cells by re-preparing, which is cheap: builds come from the worker's
cell cache and golden runs are memoized on the module.

:func:`run_distributed_campaign` is the lab's campaign driver
(:mod:`repro.lab.durable`) with this fabric as its executor: same
golden run, same pre-drawn prefix-stable plans, same store keys, same
determinism contract — shard plans are the unit of distribution and
are never re-drawn, so counts are bit-identical to any forked-worker
or serial run of the same campaign, wherever each shard lands.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..chaos.hooks import chaos_point
from ..faults.campaign import CampaignConfig
from ..ir.module import Module
from ..lab.checkpoint import DEFAULT_SHARD_SIZE
from ..lab.durable import CellRun, DurableCampaign, _drive, _prefix_status
from ..lab.events import EventBus
from ..lab.sampling import AdaptiveStop
from ..lab.store import LAB_SCHEMA, ResultStore, digest_of
from ..toolchain.build import toolchain_digest
from .cells import handshake
from .lease import LeasePolicy, LeaseTable, ShardExhausted
from .proto import (
    PROTO_VERSION,
    ProtocolError,
    counts_from_wire,
    counts_to_wire,
    recv_message_async,
    send_message_async,
    shard_to_wire,
)

#: Uniquifies concurrent sessions of the same campaign spec: two
#: service campaigns may race over one cell recipe, and worker frames
#: are routed by cell id alone.
_SESSION_SEQ = itertools.count()


@dataclass
class CellJob:
    """Everything the loop thread needs to distribute one cell —
    plain data only; modules never cross the thread boundary."""

    cell_id: str
    workload: str
    build_scale: str
    version: str
    hang_factor: float
    rtol: float
    fault_model: str
    #: Expected handshake values (:func:`repro.cluster.cells.handshake`
    #: of the coordinator's own build of the cell).
    expected: Dict[str, object]
    #: Store keys, or None for an ephemeral (store-less) cell.
    spec_key: Optional[str]
    cell_key: Optional[str]
    #: Wire form of every *missing* shard (store hits stay local).
    shards: List[Dict]
    #: Shard count of the whole campaign (indices ``0..n-1``) — the
    #: adaptive stopping rule is defined over this full sequence.
    shards_total: int
    #: Already-loaded counts (store hits), wire-encoded, for prefix
    #: evaluation alongside freshly committed shards.
    loaded: Dict[int, Dict[str, int]]
    ci_target: Optional[float] = None
    min_injections: int = 50
    #: Fair-share inputs: sessions with higher priority are granted
    #: first; the campaign id tags every session-scoped event (and the
    #: leases themselves), which is how the service routes one shared
    #: event stream out to per-campaign feeds.
    priority: int = 0
    campaign: str = ""


@dataclass
class _WorkerConn:
    worker_id: str
    writer: object
    host: str = ""
    pid: int = 0
    #: cell_id this worker has successfully prepared for.
    prepared: Optional[str] = None
    #: cell_id of an in-flight prepare (sent, not yet acknowledged).
    preparing: Optional[str] = None
    #: (cell_id, shard index) currently leased to this worker, if any.
    lease: Optional[Tuple[str, int]] = None


class _CellSession:
    def __init__(self, job: CellJob, policy: LeasePolicy,
                 loop: asyncio.AbstractEventLoop):
        self.job = job
        self.shards_by_index = {int(s["index"]): s for s in job.shards}
        self.table = LeaseTable(sorted(self.shards_by_index), policy)
        self.commits: asyncio.Queue = asyncio.Queue(
            maxsize=max(1, policy.commit_backlog))
        self.done: asyncio.Future = loop.create_future()
        self.executed: Dict[int, Counter] = {}
        self.seconds: Dict[int, float] = {}
        #: Adaptive stop reached — stop granting, cancel idle shards.
        self.stopped = False
        #: SIGINT drain — stop granting, keep committing in-flight.
        self.draining = False
        #: Global grant sequence number of this session's most recent
        #: lease — the fair-share tiebreaker (lowest goes next).
        self.last_grant = 0
        self.stopper = (AdaptiveStop(ci_target=job.ci_target,
                                     min_injections=job.min_injections)
                        if job.ci_target is not None else None)

    def counts_for_prefix(self) -> Dict[int, Counter]:
        merged = {i: counts_from_wire(w) for i, w in self.job.loaded.items()}
        merged.update(self.executed)
        return merged

    def grantable(self) -> bool:
        return not (self.stopped or self.draining or self.done.done())

    def fail(self, exc: BaseException) -> None:
        if not self.done.done():
            self.done.set_exception(exc)

    def finish(self) -> None:
        if not self.done.done():
            self.done.set_result(dict(self.executed))


class _CellFailure(Exception):
    """Loop-side wrapper for a failed cell. A failure must cross the
    task boundary as a plain Exception: :class:`CampaignInterrupted`
    subclasses KeyboardInterrupt, and a BaseException escaping a task
    propagates out of ``run_forever`` and kills the loop thread. The
    sync facade unwraps ``cause`` for the caller."""

    def __init__(self, cause: BaseException):
        super().__init__(repr(cause))
        self.cause = cause


class ClusterCoordinator:
    """The cluster's brain: owns the server socket, the worker pool,
    and any number of in-flight :class:`CellJob` sessions. Runs its
    asyncio loop on a daemon thread; `run_cell` is the synchronous
    facade campaign drivers call per cell — from one thread (the
    campaign CLI) or many (the service's campaign runners)."""

    def __init__(self, store_path: Optional[str] = None,
                 events: Optional[EventBus] = None,
                 policy: Optional[LeasePolicy] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.store_path = store_path
        self.events = events or EventBus()
        self.policy = policy or LeasePolicy()
        self._requested = (host, port)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: Dict[str, _WorkerConn] = {}
        self._sessions: Dict[str, _CellSession] = {}
        self._store: Optional[ResultStore] = None
        self._ticker_task: Optional[asyncio.Task] = None
        self._grant_seq = 0
        self._draining = False
        self._stopped = False

    # Lifecycle (called from the driver thread) -------------------------------

    def start(self) -> Tuple[str, int]:
        """Start the loop thread and the TCP server; returns the bound
        (host, port) — port 0 in the constructor picks an ephemeral
        one, which is how ``campaign --cluster N`` avoids collisions."""
        ready = threading.Event()
        failure: List[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                host, port = self._requested
                self._server = loop.run_until_complete(
                    asyncio.start_server(self._serve, host, port))
                sock = self._server.sockets[0]
                self.host, self.port = sock.getsockname()[:2]
                self._ticker_task = loop.create_task(self._ticker())
            except BaseException as exc:  # bind failure, etc.
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True))
                loop.run_until_complete(loop.shutdown_asyncgens())
                if self._store is not None:
                    self._store.close()
                loop.close()

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name="repro-cluster-coordinator")
        self._thread.start()
        ready.wait()
        if failure:
            raise failure[0]
        self.events.emit("cluster-listening", host=self.host, port=self.port)
        return self.host, self.port

    def run_cell(self, job: CellJob) -> Dict[int, Counter]:
        """Distribute one cell's missing shards; blocks until every
        one is committed (or the cell fails / is interrupted). Returns
        the freshly executed counts by shard index. Thread-safe: many
        driver threads may each run their own cell concurrently — the
        loop thread interleaves their shard grants fair-share."""
        if self._loop is None:
            raise RuntimeError("coordinator not started")
        future = asyncio.run_coroutine_threadsafe(
            self._run_cell_async(job), self._loop)
        try:
            return future.result()
        except _CellFailure as exc:
            raise exc.cause from None

    def request_drain(self) -> None:
        """Stop granting leases (thread-safe); in-flight shards keep
        committing. The SIGINT/SIGTERM path."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._drain_now)

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Drain (bounded wait for in-flight leases), tell workers to
        shut down, close the server, and join the loop thread.
        Completed shards are already persisted — stopping mid-campaign
        loses at most the in-flight work."""
        if self._loop is None or self._stopped:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown(drain_timeout), self._loop)
        try:
            future.result(timeout=drain_timeout + 10.0)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)

    # Loop-thread internals ---------------------------------------------------

    def _emit_session(self, session: _CellSession, kind: str, **data) -> None:
        """Session-scoped events carry the campaign tag (when set) so
        one shared bus can be demultiplexed into per-campaign feeds."""
        if session.job.campaign:
            data.setdefault("campaign", session.job.campaign)
        self.events.emit(kind, **data)

    def _drain_now(self) -> None:
        self._draining = True
        for session in self._sessions.values():
            session.draining = True
        if self._sessions:
            self.events.emit("cluster-drain", reason="requested")

    async def _shutdown(self, drain_timeout: float) -> None:
        self._draining = True
        for session in list(self._sessions.values()):
            session.draining = True
        deadline = time.monotonic() + drain_timeout
        while (any(not s.table.drained()
                   for s in self._sessions.values())
               and time.monotonic() < deadline):
            await asyncio.sleep(0.05)
        from ..lab.events import CampaignInterrupted
        for session in list(self._sessions.values()):
            session.fail(CampaignInterrupted("coordinator shut down"))
        for worker in list(self._workers.values()):
            try:
                await send_message_async(worker.writer, {"kind": "shutdown"})
                worker.writer.close()
            except Exception:
                pass
        if self._server is not None:
            self._server.close()
        if self._ticker_task is not None:
            self._ticker_task.cancel()

    def _tick_interval(self) -> float:
        interval = min(self.policy.heartbeat_interval,
                       self.policy.lease_timeout / 4.0)
        return min(1.0, max(0.02, interval))

    async def _ticker(self) -> None:
        """Periodic lease maintenance: expire lapsed heartbeats
        (requeue with backoff) and grant whatever became grantable
        (backoff expiry, newly idle workers) across every session."""
        while True:
            await asyncio.sleep(self._tick_interval())
            if not self._sessions:
                continue
            now = time.monotonic()
            for session in list(self._sessions.values()):
                for expiry in session.table.expire(now):
                    self._emit_session(
                        session, "lease-expired", index=expiry.index,
                        worker=expiry.worker, attempt=expiry.attempt,
                    )
                    holder = self._workers.get(expiry.worker)
                    if (holder is not None and holder.lease ==
                            (session.job.cell_id, expiry.index)):
                        holder.lease = None
                if session.stopped or session.draining:
                    session.table.cancel_pending()
                    self._check_done(session)
            await self._grant_all()

    # Fair-share session picking ----------------------------------------------

    def _pick_session(self, worker: _WorkerConn,
                      now: float) -> Optional[_CellSession]:
        """The session whose shard this idle worker should run next.

        Among sessions with a grantable shard, highest ``priority``
        first, then least-recently-granted (fair-share interleaving).
        Within the winning priority band, stick with the cell the
        worker already prepared *if* some other idle worker is (or is
        becoming) prepared for the front-runner — that keeps a
        multi-worker pool partitioned one-campaign-each instead of
        thrashing prepares, while a lone worker still alternates."""
        candidates = [
            s for s in self._sessions.values()
            if s.grantable() and s.table.has_grantable(now)
        ]
        if not candidates:
            return None
        top = max(s.job.priority for s in candidates)
        band = sorted((s for s in candidates if s.job.priority == top),
                      key=lambda s: s.last_grant)
        front = band[0]
        if worker.prepared is not None and worker.prepared != front.job.cell_id:
            sticky = next((s for s in band
                           if s.job.cell_id == worker.prepared), None)
            if sticky is not None:
                covered = any(
                    w is not worker and w.lease is None
                    and front.job.cell_id in (w.prepared, w.preparing)
                    for w in self._workers.values()
                )
                if covered:
                    return sticky
        return front

    async def _grant_all(self) -> None:
        for worker in list(self._workers.values()):
            await self._maybe_grant(worker)

    async def _maybe_grant(self, worker: _WorkerConn) -> None:
        if worker.lease is not None:
            return
        now = time.monotonic()
        session = self._pick_session(worker, now)
        if session is None:
            return
        job = session.job
        if worker.prepared != job.cell_id:
            if worker.preparing != job.cell_id:
                worker.preparing = job.cell_id
                await self._send_prepare(worker, session)
            return
        try:
            grant = session.table.grant(worker.worker_id, now)
        except ShardExhausted as exc:
            session.fail(exc)
            return
        if grant is None:
            return
        worker.lease = (job.cell_id, grant.index)
        self._grant_seq += 1
        session.last_grant = self._grant_seq
        shard = session.shards_by_index[grant.index]
        self._emit_session(session, "lease-granted", index=grant.index,
                           worker=worker.worker_id, attempt=grant.attempt)
        try:
            await send_message_async(worker.writer, {
                "kind": "lease",
                "cell": job.cell_id,
                "index": grant.index,
                "start": shard["start"],
                "attempt": grant.attempt,
                "plans": shard["plans"],
                "heartbeat_interval": self.policy.heartbeat_interval,
            })
        except (ConnectionError, OSError):
            pass  # the read loop will reap this worker and requeue

    def _check_done(self, session: _CellSession) -> None:
        if session.table.done() and session.commits.empty():
            session.finish()

    async def _run_cell_async(self, job: CellJob) -> Dict[int, Counter]:
        if job.cell_id in self._sessions:
            raise RuntimeError(
                f"cell session {job.cell_id!r} is already being distributed")
        loop = asyncio.get_running_loop()
        session = _CellSession(job, self.policy, loop)
        if self._draining:
            session.draining = True
        self._sessions[job.cell_id] = session
        writer_task = loop.create_task(self._writer_loop(session))
        try:
            if not session.table.done():
                await self._grant_all()
            else:  # nothing missing; degenerate but legal
                session.finish()
            try:
                return await session.done
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                raise _CellFailure(exc) from None
        finally:
            self._sessions.pop(job.cell_id, None)
            writer_task.cancel()
            for worker in self._workers.values():
                if worker.prepared == job.cell_id:
                    worker.prepared = None
                if worker.preparing == job.cell_id:
                    worker.preparing = None
                if worker.lease is not None and worker.lease[0] == job.cell_id:
                    worker.lease = None
            if self._sessions:
                loop.create_task(self._grant_all())

    async def _writer_loop(self, session: _CellSession) -> None:
        """The store writer: the only consumer of this session's
        bounded commit queue. Persists each shard *before* emitting its
        ``shard-completed`` event — the same interrupt-safety
        discipline as the local lab — then re-evaluates the adaptive
        stopping rule over the completed prefix. Every session's writer
        runs on the one loop thread, so all of them funnel through the
        coordinator's single SQLite connection without locking."""
        job = session.job
        committed = 0
        while True:
            index, wire_counts, n, seconds, worker_id = \
                await session.commits.get()
            # The coordinator-restart seam: "interrupt" kills this
            # session exactly as SIGTERM/power-loss would, with this
            # commit still in the queue. Recovery = a fresh coordinator
            # against the same store resumes from the banked prefix.
            rule = chaos_point("cluster.coordinator.commit",
                               index=index, nth=committed)
            if rule is not None and rule.action == "interrupt":
                from ..lab.events import CampaignInterrupted
                session.fail(CampaignInterrupted(
                    "chaos: coordinator restart mid-commit"))
                return
            committed += 1
            counts = counts_from_wire(wire_counts)
            session.executed[index] = counts
            session.seconds[index] = seconds
            try:
                if job.spec_key is not None and self.store_path is not None:
                    if self._store is None:
                        self._store = ResultStore(self.store_path)
                    self._store.put_shard(job.spec_key, job.cell_key,
                                          index, n, counts, seconds)
                self._emit_session(
                    session, "shard-completed", index=index, n=n,
                    seconds=seconds, workload=job.workload,
                    version=job.version, worker=worker_id,
                    counts=dict(wire_counts),
                )
            except BaseException as exc:
                session.fail(exc)
                return
            if session.stopper is not None and not session.stopped:
                stop, _, _ = _prefix_status(
                    job.shards_total, session.counts_for_prefix(),
                    session.stopper)
                if stop is not None:
                    session.stopped = True
                    cancelled = session.table.cancel_pending()
                    if cancelled:
                        self._emit_session(session, "leases-cancelled",
                                           count=len(cancelled),
                                           reason="adaptive-stop")
            self._check_done(session)

    # Connection handling -----------------------------------------------------

    def _unique_worker_id(self, requested: str) -> str:
        worker_id, n = requested, 1
        while worker_id in self._workers:
            n += 1
            worker_id = f"{requested}-{n}"
        return worker_id

    async def _serve(self, reader, writer) -> None:
        worker: Optional[_WorkerConn] = None
        try:
            hello = await recv_message_async(reader)
            if hello is None or hello.get("kind") != "hello":
                writer.close()
                return
            if (hello.get("proto") != PROTO_VERSION
                    or hello.get("schema") != LAB_SCHEMA
                    or hello.get("toolchain") != toolchain_digest()):
                await send_message_async(writer, {
                    "kind": "reject",
                    "reason": (f"need proto={PROTO_VERSION} "
                               f"schema={LAB_SCHEMA} "
                               f"toolchain={toolchain_digest()[:12]}, got "
                               f"proto={hello.get('proto')} "
                               f"schema={hello.get('schema')} "
                               f"toolchain="
                               f"{str(hello.get('toolchain'))[:12]}"),
                })
                writer.close()
                return
            worker = _WorkerConn(
                worker_id=self._unique_worker_id(
                    str(hello.get("worker") or "worker")),
                writer=writer,
                host=str(hello.get("host", "")),
                pid=int(hello.get("pid", 0)),
            )
            self._workers[worker.worker_id] = worker
            self.events.emit("worker-connected", worker=worker.worker_id,
                             host=worker.host, pid=worker.pid)
            await send_message_async(writer, {
                "kind": "welcome", "proto": PROTO_VERSION,
                "schema": LAB_SCHEMA, "worker": worker.worker_id,
            })
            await self._maybe_grant(worker)
            while True:
                message = await recv_message_async(reader)
                if message is None:
                    break
                await self._dispatch(worker, message)
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            if worker is not None:
                self._workers.pop(worker.worker_id, None)
                self.events.emit("worker-disconnected",
                                 worker=worker.worker_id)
                now = time.monotonic()
                for session in list(self._sessions.values()):
                    for expiry in session.table.release_worker(
                            worker.worker_id, now):
                        self._emit_session(
                            session, "lease-requeued", index=expiry.index,
                            worker=expiry.worker, attempt=expiry.attempt,
                            reason="worker-disconnected",
                        )
                    if session.stopped or session.draining:
                        session.table.cancel_pending()
                        self._check_done(session)
                await self._grant_all()
            try:
                writer.close()
            except Exception:
                pass

    async def _send_prepare(self, worker: _WorkerConn,
                            session: _CellSession) -> None:
        job = session.job
        try:
            await send_message_async(worker.writer, {
                "kind": "prepare",
                "cell": job.cell_id,
                "workload": job.workload,
                "build_scale": job.build_scale,
                "version": job.version,
                "hang_factor": job.hang_factor,
                "rtol": job.rtol,
                "fault_model": job.fault_model,
            })
        except (ConnectionError, OSError):
            pass

    async def _dispatch(self, worker: _WorkerConn, message: Dict) -> None:
        kind = message.get("kind")
        if kind == "event":
            data = message.get("data") or {}
            self.events.emit(str(message.get("name", "worker-event")),
                             worker=worker.worker_id, **data)
            return
        session = self._sessions.get(str(message.get("cell")))
        if session is None:
            # Stale frame from a finished/failed cell. A stale *result*
            # is the tail of the at-most-once story — a duplicate (or
            # post-failure) commit whose session already resolved — so
            # its discard is narrated like any other late commit.
            if kind == "result" and "index" in message:
                self.events.emit("late-commit-discarded",
                                 index=int(message["index"]),
                                 worker=worker.worker_id,
                                 reason="session-finished")
            return
        if kind == "prepared":
            if worker.preparing == session.job.cell_id:
                worker.preparing = None
            mismatch = self._verify_prepared(session.job, message)
            if mismatch:
                self._emit_session(session, "worker-mismatch",
                                   worker=worker.worker_id, reason=mismatch)
                try:
                    await send_message_async(worker.writer, {
                        "kind": "mismatch", "reason": mismatch})
                except (ConnectionError, OSError):
                    pass
                return
            worker.prepared = session.job.cell_id
            self._emit_session(
                session, "worker-prepared", worker=worker.worker_id,
                cell=session.job.cell_id,
                seconds=float(message.get("golden_seconds", 0.0)),
            )
            await self._maybe_grant(worker)
        elif kind == "prepare-error":
            if worker.preparing == session.job.cell_id:
                worker.preparing = None
            self._emit_session(session, "worker-mismatch",
                               worker=worker.worker_id,
                               reason=str(message.get("error")))
            try:
                await send_message_async(worker.writer, {
                    "kind": "mismatch", "reason": str(message.get("error"))})
            except (ConnectionError, OSError):
                pass
        elif kind == "heartbeat":
            session.table.heartbeat(int(message["index"]),
                                    worker.worker_id, time.monotonic())
        elif kind == "result":
            index = int(message["index"])
            if worker.lease == (session.job.cell_id, index):
                worker.lease = None
            status = session.table.commit(index, worker.worker_id)
            if status == "ok":
                # Bounded put = backpressure: while this session's
                # store writer is behind, this handler blocks and stops
                # reading the worker's socket.
                await session.commits.put((
                    index, dict(message["counts"]), int(message["n"]),
                    float(message.get("seconds", 0.0)), worker.worker_id,
                ))
            elif status == "duplicate":
                self._emit_session(session, "late-commit-discarded",
                                   index=index, worker=worker.worker_id)
            await self._maybe_grant(worker)
        elif kind == "shard-error":
            index = int(message["index"])
            if worker.lease == (session.job.cell_id, index):
                worker.lease = None
            disposition = session.table.fail(index, worker.worker_id,
                                             time.monotonic())
            self._emit_session(session, "shard-error", index=index,
                               worker=worker.worker_id,
                               error=str(message.get("error")),
                               disposition=disposition)
            if disposition == "exhausted":
                session.fail(ShardExhausted(
                    f"shard {index} failed on every attempt; last error: "
                    f"{message.get('error')}"))
            else:
                await self._maybe_grant(worker)

    @staticmethod
    def _verify_prepared(job: CellJob, message: Dict) -> Optional[str]:
        """None when the worker's build matches ours; else a reason."""
        for key, ours in job.expected.items():
            theirs = message.get(key)
            if theirs != ours:
                return (f"{key} mismatch: coordinator {ours!r}, "
                        f"worker {theirs!r} — checkouts differ?")
        return None


def run_distributed_campaign(
    module: Module,
    entry: str,
    args: Sequence,
    workload: str = "",
    version: str = "",
    config: Optional[CampaignConfig] = None,
    *,
    coordinator: ClusterCoordinator,
    build_scale: str,
    store: Optional[ResultStore] = None,
    events: Optional[EventBus] = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    ci_target: Optional[float] = None,
    min_injections: int = 50,
    priority: int = 0,
    campaign: str = "",
) -> DurableCampaign:
    """Run one campaign cell across the coordinator's worker pool.

    The lab's campaign driver (:mod:`repro.lab.durable`) with the
    cluster executor: the cell's missing shards are leased to worker
    agents. ``store=None`` means no store. The coordinator's loop
    thread writes shards through its own SQLite connection to
    ``coordinator.store_path``, so ``store`` (used here for golden
    bookkeeping and shard loading) must point at the same file.

    ``workload``/``build_scale``/``version`` double as the cell recipe
    workers rebuild the module from, so cells must come from the
    workload registry (which is what every campaign CLI runs);
    ``config.fault_eligible`` predicates cannot travel and are
    rejected.

    ``priority`` and ``campaign`` feed the coordinator's fair-share
    multiplexing when many cells are in flight (the service path):
    higher priority is granted first, and the campaign id tags this
    cell's leases and events.
    """
    config = config or CampaignConfig()
    if config.fault_eligible is not None:
        raise ValueError(
            "distributed campaigns cannot ship fault_eligible predicates "
            "to remote workers; filter by hardening the module instead"
        )
    if store is not None and coordinator.store_path != store.path:
        raise ValueError(
            f"coordinator writes to {coordinator.store_path!r} but the "
            f"campaign store is {store.path!r}; point both at one file"
        )

    def execute(run: CellRun) -> Dict[int, Counter]:
        if not run.missing:
            return {}
        durable = run.store is not None
        base = (run.spec.spec_key if run.spec is not None
                else digest_of(["ephemeral", workload, version,
                                config.seed, config.injections]))
        return coordinator.run_cell(CellJob(
            # Uniquified per session: two concurrent campaigns over
            # the same spec must not collide in the coordinator's
            # routing table (their store rows still coincide).
            cell_id=f"{base}.{next(_SESSION_SEQ)}",
            workload=workload,
            build_scale=build_scale,
            version=version,
            hang_factor=config.hang_factor,
            rtol=config.rtol,
            fault_model=config.fault_model,
            expected=handshake(module, run.reference, run.profile,
                               config.fault_model),
            spec_key=run.spec.spec_key if durable else None,
            cell_key=run.spec.cell_key if durable else None,
            shards=[shard_to_wire(s) for s in run.missing],
            shards_total=len(run.shards),
            loaded={i: counts_to_wire(c) for i, c in run.loaded.items()},
            ci_target=ci_target,
            min_injections=min_injections,
            priority=priority,
            campaign=campaign,
        ))

    return _drive(module, entry, args, workload, version, config, store,
                  events or EventBus(), shard_size, ci_target,
                  min_injections, execute, cluster=True)

"""Shard leases: the unit of distribution, with failure semantics.

A lease grants one worker the right to execute one shard of the
campaign's pre-drawn plan list. The table is a pure, synchronous state
machine (the coordinator drives it from its event loop; tests drive it
with a fake clock) that guarantees:

- **Requeue with exponential backoff.** A lease whose worker dies, or
  whose heartbeat lapses past ``lease_timeout``, returns to the queue
  with ``attempt + 1`` and becomes grantable only after
  ``backoff * 2 ** attempt`` seconds — a crashing shard
  cannot hot-loop through the worker pool.
- **At-most-once commit.** The first result committed for a shard
  wins; any later result for the same shard (a worker presumed dead
  that was merely slow, or a re-leased duplicate) is reported as such
  and discarded by the caller. Discarding loses nothing: a shard's
  counts are a pure function of its plans, so every copy is
  bit-identical.
- **Bounded attempts.** A shard that keeps failing (worker-reported
  errors, repeated expiry) exhausts after ``max_attempts`` executions
  and fails the campaign loudly — completed shards are already
  persisted, so a rerun resumes rather than restarts.

Grants are lowest-index-first, which keeps the completed shard
*prefix* growing — the same prefix the adaptive stopping rule and the
resume path are defined over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..chaos.policy import RetryPolicy


@dataclass
class LeasePolicy:
    #: Seconds without a heartbeat before an in-flight lease expires.
    lease_timeout: float = 30.0
    #: How often workers are asked to heartbeat while executing (the
    #: coordinator forwards this to workers in every lease frame).
    heartbeat_interval: float = 1.0
    #: Total executions of one shard before the campaign fails.
    max_attempts: int = 5
    #: Base requeue delay; doubles per attempt.
    backoff: float = 0.05
    #: Bounded jitter on every requeue delay: the actual delay is
    #: uniform in ``[d, d * (1 + backoff_jitter)]``. Without it the
    #: backoff schedule is *deterministic*, so the leases of many
    #: campaigns expired by one stalled worker (or one coordinator GC
    #: pause) all become grantable at the same instant and requeue in
    #: a thundering herd; the jitter spreads them out. 0 disables
    #: (tests asserting exact backoff instants do so).
    backoff_jitter: float = 0.25
    #: Bound on commits awaiting the store writer (backpressure: the
    #: coordinator stops reading a worker's socket while full).
    commit_backlog: int = 64

    @property
    def retry(self) -> RetryPolicy:
        """This policy's requeue schedule in the stack-wide
        :class:`~repro.chaos.policy.RetryPolicy` shape (one backoff
        vocabulary for leases, shard retries, and worker connects)."""
        return RetryPolicy(max_attempts=self.max_attempts,
                           backoff=self.backoff, backoff_factor=2.0,
                           jitter=self.backoff_jitter,
                           timeout=self.lease_timeout)


@dataclass
class _ShardState:
    index: int
    attempt: int = 0
    not_before: float = 0.0
    holder: Optional[str] = None
    deadline: Optional[float] = None
    committed: bool = False


@dataclass
class Grant:
    index: int
    attempt: int


@dataclass
class Expiry:
    index: int
    worker: str
    attempt: int
    #: "requeued" or "exhausted".
    disposition: str = "requeued"


class ShardExhausted(RuntimeError):
    """A shard failed ``max_attempts`` times; the campaign cannot
    complete. Completed shards are persisted — rerunning resumes."""


class LeaseTable:
    def __init__(self, indices: List[int], policy: Optional[LeasePolicy] = None,
                 rng: Optional[random.Random] = None):
        self.policy = policy or LeasePolicy()
        #: Jitter source; injectable so tests can pin the schedule.
        #: Requeue timing never affects outcome counts (shard plans are
        #: pre-drawn), so an unseeded RNG does not break determinism.
        self._rng = rng if rng is not None else random.Random()
        self._shards: Dict[int, _ShardState] = {
            index: _ShardState(index=index) for index in indices
        }
        #: Shards withdrawn from leasing (adaptive stop reached); they
        #: no longer count toward completion.
        self._cancelled: set = set()

    # Introspection -----------------------------------------------------------

    @property
    def committed(self) -> List[int]:
        return sorted(s.index for s in self._shards.values() if s.committed)

    @property
    def in_flight(self) -> List[int]:
        return sorted(s.index for s in self._shards.values()
                      if s.holder is not None and not s.committed)

    def done(self) -> bool:
        return all(s.committed or s.index in self._cancelled
                   for s in self._shards.values())

    def drained(self) -> bool:
        """True when nothing is in flight (shutdown can proceed
        without abandoning a worker mid-shard)."""
        return not self.in_flight

    def next_wakeup(self, now: float) -> Optional[float]:
        """Soonest instant at which time alone changes the table: a
        lease deadline or a backoff expiry. None when only an external
        event (result, worker) can make progress."""
        wakeups = []
        for s in self._shards.values():
            if s.committed or s.index in self._cancelled:
                continue
            if s.holder is not None and s.deadline is not None:
                wakeups.append(s.deadline)
            elif s.holder is None and s.not_before > now:
                wakeups.append(s.not_before)
        return min(wakeups) if wakeups else None

    def has_grantable(self, now: float) -> bool:
        """True when :meth:`grant` called now would lease a shard —
        or raise :class:`ShardExhausted` (the caller must find out).
        Read-only: the coordinator's fair-share picker uses it to
        choose between sessions without mutating any of them."""
        for s in self._shards.values():
            if (s.committed or s.holder is not None
                    or s.index in self._cancelled or s.not_before > now):
                continue
            return True
        return False

    # Leasing -----------------------------------------------------------------

    def grant(self, worker: str, now: float) -> Optional[Grant]:
        """Lease the lowest-index grantable shard to ``worker``."""
        for index in sorted(self._shards):
            s = self._shards[index]
            if (s.committed or s.holder is not None
                    or index in self._cancelled or s.not_before > now):
                continue
            if s.attempt >= self.policy.max_attempts:
                raise ShardExhausted(
                    f"shard {index} failed {s.attempt} times; giving up"
                )
            s.holder = worker
            s.deadline = now + self.policy.lease_timeout
            grant = Grant(index=index, attempt=s.attempt)
            s.attempt += 1
            return grant
        return None

    def heartbeat(self, index: int, worker: str, now: float) -> bool:
        """Extend the lease deadline; False for a lease ``worker`` no
        longer holds (expired and re-leased — the worker's eventual
        result will be discarded)."""
        s = self._shards.get(index)
        if s is None or s.holder != worker or s.committed:
            return False
        s.deadline = now + self.policy.lease_timeout
        return True

    def _requeue(self, s: _ShardState, now: float) -> None:
        # s.attempt already counts the execution that just failed.
        delay = self.policy.retry.delay(s.attempt - 1, self._rng)
        s.holder = None
        s.deadline = None
        s.not_before = now + delay

    def expire(self, now: float) -> List[Expiry]:
        """Requeue every lease whose heartbeat lapsed."""
        expired = []
        for s in self._shards.values():
            if s.committed or s.holder is None or s.deadline is None:
                continue
            if now >= s.deadline:
                expired.append(Expiry(index=s.index, worker=s.holder,
                                      attempt=s.attempt - 1))
                self._requeue(s, now)
        return expired

    def release_worker(self, worker: str, now: float) -> List[Expiry]:
        """Worker connection gone: requeue its in-flight leases now."""
        released = []
        for s in self._shards.values():
            if s.holder == worker and not s.committed:
                released.append(Expiry(index=s.index, worker=worker,
                                       attempt=s.attempt - 1))
                self._requeue(s, now)
        return released

    def fail(self, index: int, worker: str, now: float) -> str:
        """Worker reported a shard execution error. Returns the
        disposition: "requeued", "exhausted", or "stale" (not the
        holder — some other copy is still running)."""
        s = self._shards.get(index)
        if s is None or s.committed:
            return "stale"
        if s.holder != worker:
            return "stale"
        if s.attempt >= self.policy.max_attempts:
            s.holder = None
            s.deadline = None
            return "exhausted"
        self._requeue(s, now)
        return "requeued"

    # Commit ------------------------------------------------------------------

    def commit(self, index: int, worker: str) -> str:
        """Commit a worker's result for a shard. Returns:

        - ``"ok"`` — first result for this shard; the caller persists
          it. Accepted even from a worker whose lease expired (the
          work is done and deterministic; discarding it would only buy
          a redundant re-execution).
        - ``"duplicate"`` — the shard was already committed; the
          caller discards this copy (at-most-once).
        - ``"unknown"`` — not a shard of this cell (protocol error or
          a frame from a previous cell); discarded.
        """
        s = self._shards.get(index)
        if s is None:
            return "unknown"
        if s.committed:
            return "duplicate"
        s.committed = True
        s.holder = None
        s.deadline = None
        return "ok"

    def cancel_pending(self) -> List[int]:
        """Withdraw every shard that is neither committed nor in
        flight (adaptive stop / drain): they stop blocking ``done()``
        and are never granted. Returns the withdrawn indices."""
        cancelled = []
        for s in self._shards.values():
            if s.committed or s.index in self._cancelled:
                continue
            if s.holder is None:
                self._cancelled.add(s.index)
                cancelled.append(s.index)
        return sorted(cancelled)

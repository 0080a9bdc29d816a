"""The chaos scenario library: named infrastructure-fault campaigns.

Each :class:`Scenario` names one failure mode of the campaign stack
(a worker dying mid-shard, a torn store write, a dropped result frame,
a coordinator restart), says which fabric exhibits it, and compiles —
deterministically, from ``random.Random(f"{name}:{seed}")`` — into the
:class:`~repro.chaos.hooks.ChaosRule` list that injects it. The seed
moves *where* the fault lands (which shard, which frame); the scenario
fixes *what* goes wrong. Same (scenario, seed) -> same rules -> same
injected-fault schedule, which is what makes a chaos finding a
regression test instead of an anecdote.

Every scenario carries its own falsifiability hook: ``evidence`` lists
event kinds at least one of which MUST appear in the chaotic run's
event log (or, for driver-crash scenarios, ``needs_rerun`` requires
more than one run phase). A scenario whose fault demonstrably never
fired is a verifier failure — silently-green chaos is worse than none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .hooks import ChaosRule, ChaosSpec

#: Rule compiler: (rng, shard_count) -> rules.
RuleBuilder = Callable[[random.Random, int], List[ChaosRule]]


@dataclass(frozen=True)
class Scenario:
    name: str
    #: "forked" (lab scheduler) or "cluster" (coordinator + agents).
    fabric: str
    description: str
    build: RuleBuilder
    #: Event kinds, at least one of which must appear in the chaotic
    #: run's log — proof the injected fault actually bit.
    evidence: Tuple[str, ...] = ()
    #: The fault kills/interrupts the driver: the chaotic run must take
    #: more than one phase (crash -> operator restarts -> resume).
    needs_rerun: bool = False
    #: Run a clean campaign into the chaotic store first (faults that
    #: only exist against pre-existing state, e.g. a torn golden row).
    warm_store: bool = False
    #: Per-shard wall-clock limit for the forked scheduler (stall
    #: scenarios need one so the supervisor reaps the stalled worker).
    scheduler_timeout: Optional[float] = None
    #: Lease timeout override for cluster scenarios (stall scenarios
    #: need expiry faster than the stall).
    lease_timeout: Optional[float] = None
    #: Build the chaotic run's cell with a fresh toolchain: new module
    #: objects whose golden profile and checkpoint set come from the
    #: artifact cache, as in a newly started driver process (faults in
    #: what that cache serves).
    fresh_module: bool = False

    def spec(self, seed: int, shard_count: int) -> ChaosSpec:
        """The reproducible fault schedule for this (scenario, seed)."""
        rng = random.Random(f"{self.name}:{seed}")
        return ChaosSpec(scenario=self.name, seed=seed,
                         rules=self.build(rng, shard_count))


def _pick(rng: random.Random, shard_count: int) -> int:
    return rng.randrange(shard_count)


# Forked-fabric scenarios -----------------------------------------------------

def _worker_kill(rng: random.Random, shards: int) -> List[ChaosRule]:
    # attempt 0 only: a forked child inherits a *copy* of the armed
    # controller, so firing bookkeeping never propagates back to the
    # supervisor — pinning attempt 0 is what stops the rule re-firing
    # on the retry (and, after max_retries, killing the in-process
    # degraded run, i.e. the driver itself).
    return [ChaosRule(point="lab.worker.shard", action="crash",
                      match={"index": _pick(rng, shards), "attempt": 0})]


def _worker_stall(rng: random.Random, shards: int) -> List[ChaosRule]:
    return [ChaosRule(point="lab.worker.shard", action="stall",
                      match={"index": _pick(rng, shards), "attempt": 0},
                      seconds=1.5)]


def _store_lost_write(rng: random.Random, shards: int) -> List[ChaosRule]:
    return [ChaosRule(point="lab.store.put-shard", action="lose-write",
                      match={"index": _pick(rng, shards)})]


def _crash_after_write(rng: random.Random, shards: int) -> List[ChaosRule]:
    return [ChaosRule(point="lab.store.put-shard", action="crash-after-write",
                      match={"index": _pick(rng, shards)})]


def _golden_corrupt(rng: random.Random, shards: int) -> List[ChaosRule]:
    return [ChaosRule(point="lab.checkpoint.golden", action="corrupt")]


def _golden_entry_corrupt(rng: random.Random,
                          shards: int) -> List[ChaosRule]:
    return [ChaosRule(point="toolchain.cache.read", action="corrupt",
                      match={"suffix": ".golden"})]


# Cluster-fabric scenarios ----------------------------------------------------

def _agent_crash(rng: random.Random, shards: int) -> List[ChaosRule]:
    # Crash between execute and commit: the shard's work is done but
    # unreported. Recovery = lease expiry/disconnect requeue; cost = one
    # re-execution, never a double count.
    return [ChaosRule(point="cluster.worker.pre-commit", action="crash",
                      match={"index": _pick(rng, shards), "attempt": 0})]


def _agent_stall(rng: random.Random, shards: int) -> List[ChaosRule]:
    return [ChaosRule(point="cluster.worker.pre-commit", action="stall",
                      match={"index": _pick(rng, shards), "attempt": 0},
                      seconds=2.0)]


def _frame_drop(rng: random.Random, shards: int) -> List[ChaosRule]:
    # Each worker process arms its own copy of this rule, so in the
    # worst case the frame is dropped once per worker before a send
    # gets through; the lease table's attempt budget covers that.
    return [ChaosRule(point="cluster.proto.send", action="drop",
                      match={"kind": "result", "index": _pick(rng, shards)})]


def _frame_dup(rng: random.Random, shards: int) -> List[ChaosRule]:
    # The duplicated result frame is a guaranteed duplicate commit; the
    # coordinator MUST discard the copy. Evidence accepts either the
    # discard event or the wire-level firing announcement: when the
    # duplicate rides the campaign's last commits, coordinator teardown
    # can tear the victim connection down before its reader dispatches
    # the second copy — the announcement (sent ahead of the first copy)
    # is always processed, and the at-most-once + bit-identity checks
    # prove the discard.
    return [ChaosRule(point="cluster.proto.send", action="duplicate",
                      match={"kind": "result", "index": _pick(rng, shards)})]


def _coordinator_restart(rng: random.Random, shards: int) -> List[ChaosRule]:
    # Die mid-commit on the (seeded) nth store write — never the first,
    # so at least one row is banked and phase 2's cold start provably
    # resumes from the store instead of starting over.
    return [ChaosRule(point="cluster.coordinator.commit", action="interrupt",
                      after=1 + rng.randrange(max(1, shards - 2)))]


SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in [
        Scenario(
            name="worker-kill", fabric="forked",
            description="a forked shard worker dies (power-loss exit) on "
                        "its first attempt; the supervisor retries",
            build=_worker_kill, evidence=("shard-retry",),
        ),
        Scenario(
            name="worker-stall", fabric="forked",
            description="a forked shard worker wedges past the shard "
                        "timeout; the supervisor reaps and retries",
            build=_worker_stall, evidence=("shard-retry",),
            scheduler_timeout=0.5,
        ),
        Scenario(
            name="store-lost-write", fabric="forked",
            description="the driver dies with a completed shard's row "
                        "still unwritten; restart re-executes that shard "
                        "only",
            # No event evidence: the crash may land before any other
            # shard banks a row, so phase count (needs_rerun) is the
            # proof the fault fired.
            build=_store_lost_write, needs_rerun=True,
        ),
        Scenario(
            name="store-crash-after-write", fabric="forked",
            description="the driver dies right after a shard's row "
                        "commits; restart replays it as a store hit",
            build=_crash_after_write, needs_rerun=True,
            evidence=("shard-store-hit",),
        ),
        Scenario(
            name="golden-corrupt", fabric="forked",
            description="the stored golden record reads back torn; the "
                        "cell's banked shards must purge, never replay",
            build=_golden_corrupt, warm_store=True,
            evidence=("store-stale",),
        ),
        Scenario(
            name="golden-entry-corrupt", fabric="forked",
            description="the cell's cached golden profile reads back "
                        "damaged in a fresh driver; it is a counted "
                        "invalid miss and the golden run executes again",
            build=_golden_entry_corrupt, fresh_module=True,
            evidence=("cache-invalid",),
        ),
        Scenario(
            name="agent-crash", fabric="cluster",
            description="a worker agent crashes between executing a shard "
                        "and committing its result",
            build=_agent_crash,
            evidence=("worker-disconnected", "lease-requeued"),
        ),
        Scenario(
            name="agent-stall", fabric="cluster",
            description="a worker agent goes silent past the lease "
                        "timeout with a finished shard, then commits late",
            build=_agent_stall, evidence=("lease-expired",),
            lease_timeout=0.4,
        ),
        Scenario(
            name="frame-drop", fabric="cluster",
            description="a result frame vanishes on the wire; the lease "
                        "expires and the shard re-executes elsewhere",
            build=_frame_drop, evidence=("lease-expired",),
            lease_timeout=0.4,
        ),
        Scenario(
            name="frame-dup", fabric="cluster",
            description="a result frame arrives twice; the at-most-once "
                        "commit must discard the copy",
            build=_frame_dup,
            evidence=("late-commit-discarded", "chaos-fired"),
        ),
        Scenario(
            name="coordinator-restart", fabric="cluster",
            description="the coordinator dies mid-commit; a cold restart "
                        "against the same store resumes from banked rows",
            build=_coordinator_restart, needs_rerun=True,
            evidence=("shard-store-hit",),
        ),
    ]
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown chaos scenario {name!r} "
                         f"(known: {known})") from None

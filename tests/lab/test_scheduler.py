"""Tests for supervised shard execution (repro.lab.scheduler).

The runner used here is synthetic (no simulator) so the tests isolate
the supervision behaviour: fork fan-out, crash retry, timeout kill,
and graceful degradation to the supervisor process. Worker faults are
chaos rules on the ``lab.worker.shard`` point, which fires only inside
forked workers (each inherits an unconsumed copy of the armed
controller) — never in the supervisor, which is exactly what makes
degradation safe to test.
"""

import multiprocessing
import time
from collections import Counter

import pytest

from repro.chaos.hooks import ChaosRule, ChaosSpec, chaos_active
from repro.cpu.interpreter import FaultPlan
from repro.faults.outcomes import Outcome
from repro.lab.checkpoint import partition
from repro.lab.events import EventBus, EventLog
from repro.lab.scheduler import SchedulerPolicy, ShardScheduler

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method",
)


def _shards(n_plans=20, shard_size=4):
    return partition([FaultPlan(i, 0, 0) for i in range(n_plans)], shard_size)


def _runner(shard):
    # Deterministic per-shard counts derived from the plans alone.
    return Counter({
        Outcome.MASKED: len(shard.plans),
        Outcome.SDC: shard.index,
    })


def _collect():
    results = {}

    def on_result(shard, counts, seconds):
        assert seconds >= 0.0
        results[shard.index] = counts

    return results, on_result


def _in_worker(action, seconds=0.0, **match):
    """Arm one chaos rule on the forked workers' shard point."""
    return chaos_active(ChaosSpec(scenario="scheduler-test", seed=0, rules=[
        ChaosRule(point="lab.worker.shard", action=action, match=match,
                  seconds=seconds)]))


class TestSerialPath:
    def test_runs_every_shard(self):
        shards = _shards()
        results, on_result = _collect()
        ShardScheduler(SchedulerPolicy(workers=1)).run(
            shards, _runner, on_result
        )
        assert sorted(results) == [s.index for s in shards]

    def test_empty_input_is_noop(self):
        results, on_result = _collect()
        ShardScheduler(SchedulerPolicy(workers=1)).run([], _runner, on_result)
        assert results == {}


@fork_only
class TestForkedPath:
    def test_parallel_matches_serial(self):
        shards = _shards()
        serial, on_serial = _collect()
        ShardScheduler(SchedulerPolicy(workers=1)).run(
            shards, _runner, on_serial
        )
        parallel, on_parallel = _collect()
        ShardScheduler(SchedulerPolicy(workers=3)).run(
            shards, _runner, on_parallel
        )
        assert parallel == serial

    def test_crashed_worker_is_retried(self):
        shards = _shards()
        events = EventBus()
        log = EventLog()
        events.subscribe(log)
        results, on_result = _collect()
        with _in_worker("crash", index=1, attempt=0):
            ShardScheduler(
                SchedulerPolicy(workers=2, backoff=0.01), events
            ).run(shards, _runner, on_result)
        assert sorted(results) == [s.index for s in shards]
        assert results[1] == _runner(shards[1])
        retries = log.of("shard-retry")
        assert retries and retries[0].data["index"] == 1

    def test_repeatedly_dying_shard_degrades_to_supervisor(self):
        shards = _shards()
        events = EventBus()
        log = EventLog()
        events.subscribe(log)
        results, on_result = _collect()
        with _in_worker("crash", index=1):
            ShardScheduler(
                SchedulerPolicy(workers=2, max_retries=1, backoff=0.01),
                events,
            ).run(shards, _runner, on_result)
        # The shard still completes — in-process, where no chaos point
        # fires.
        assert sorted(results) == [s.index for s in shards]
        assert results[1] == _runner(shards[1])
        assert log.count("shard-retry") == 1
        degraded = log.of("shard-degraded")
        assert len(degraded) == 1 and degraded[0].data["index"] == 1

    def test_hung_worker_times_out_and_retries(self):
        shards = _shards(n_plans=8, shard_size=4)
        events = EventBus()
        log = EventLog()
        events.subscribe(log)
        results, on_result = _collect()
        with _in_worker("stall", seconds=30, index=0, attempt=0):
            ShardScheduler(
                SchedulerPolicy(workers=2, timeout=0.5, backoff=0.01), events
            ).run(shards, _runner, on_result)
        assert sorted(results) == [0, 1]
        reasons = [e.data["reason"] for e in log.of("shard-retry")]
        assert any("timeout" in reason for reason in reasons)

    def test_worker_exception_is_reported_and_retried(self):
        shards = _shards()
        events = EventBus()
        log = EventLog()
        events.subscribe(log)
        results, on_result = _collect()
        with _in_worker("error", index=2, attempt=0):
            ShardScheduler(
                SchedulerPolicy(workers=2, backoff=0.01), events
            ).run(shards, _runner, on_result)
        assert sorted(results) == [s.index for s in shards]
        reasons = [e.data["reason"] for e in log.of("shard-retry")]
        assert any("chaos: injected error" in reason for reason in reasons)

    def test_interrupting_sink_cleans_up_workers(self):
        shards = _shards(n_plans=40, shard_size=2)

        def on_result(shard, counts, seconds):
            raise KeyboardInterrupt("stop now")

        with pytest.raises(KeyboardInterrupt):
            ShardScheduler(SchedulerPolicy(workers=4)).run(
                shards, _runner, on_result
            )
        # No worker processes left behind.
        assert not multiprocessing.active_children()


@fork_only
class TestEventDrivenWait:
    def test_huge_poll_interval_is_harmless(self):
        # The supervisor blocks on the worker pipes rather than
        # sleeping between scans, so completions are picked up at once.
        shards = _shards(n_plans=12, shard_size=4)
        results, on_result = _collect()
        started = time.monotonic()
        ShardScheduler(SchedulerPolicy(workers=2)).run(
            shards, _runner, on_result
        )
        assert time.monotonic() - started < 10.0
        assert sorted(results) == [s.index for s in shards]

    def test_retry_backoff_still_honoured(self):
        # With no live pipes to wait on, the supervisor must still
        # sleep until the crashed shard's retry becomes eligible
        # instead of spinning (or hanging forever).
        shards = _shards(n_plans=8, shard_size=4)  # shards 0 and 1
        results, on_result = _collect()
        with _in_worker("crash", index=1, attempt=0):
            ShardScheduler(SchedulerPolicy(workers=2, backoff=0.2)).run(
                shards, _runner, on_result
            )
        assert sorted(results) == [0, 1]
        assert results[1] == _runner(shards[1])

"""Lease-table tests: a fake clock drives the full failure state
machine — grant order, heartbeats, expiry, backoff, exhaustion, and
the at-most-once commit rule."""

import pytest

from repro.cluster.lease import LeasePolicy, LeaseTable, ShardExhausted


def _table(indices=(0, 1, 2, 3), **overrides):
    # Jitter off by default: these tests assert exact backoff instants.
    overrides.setdefault("backoff_jitter", 0.0)
    policy = LeasePolicy(lease_timeout=10.0, backoff=1.0, max_attempts=3,
                         **overrides)
    return LeaseTable(list(indices), policy)


class TestGranting:
    def test_lowest_index_first(self):
        table = _table()
        assert table.grant("a", now=0.0).index == 0
        assert table.grant("b", now=0.0).index == 1

    def test_no_double_grant_while_held(self):
        table = _table(indices=[0])
        assert table.grant("a", now=0.0).index == 0
        assert table.grant("b", now=0.0) is None

    def test_attempt_counts_up_across_requeues(self):
        table = _table(indices=[0])
        assert table.grant("a", now=0.0).attempt == 0
        table.expire(now=100.0)
        grant = table.grant("b", now=200.0)
        assert grant.attempt == 1


class TestHeartbeatAndExpiry:
    def test_heartbeat_extends_deadline(self):
        table = _table(indices=[0])
        table.grant("a", now=0.0)
        assert table.heartbeat(0, "a", now=9.0)
        assert table.expire(now=12.0) == []  # would have expired at 10
        assert table.expire(now=19.5)[0].index == 0

    def test_heartbeat_from_non_holder_rejected(self):
        table = _table(indices=[0])
        table.grant("a", now=0.0)
        assert not table.heartbeat(0, "b", now=1.0)

    def test_expiry_requeues_with_backoff(self):
        table = _table(indices=[0])
        table.grant("a", now=0.0)
        expiries = table.expire(now=10.0)
        assert [e.index for e in expiries] == [0]
        # attempt 0 failed -> backoff 1.0s: not grantable before 11.0.
        assert table.grant("b", now=10.5) is None
        assert table.grant("b", now=11.0).index == 0

    def test_backoff_grows_per_attempt(self):
        table = _table(indices=[0])
        table.grant("a", now=0.0)
        table.expire(now=10.0)          # attempt 0 failed -> +1.0s
        table.grant("a", now=11.0)
        table.expire(now=21.0)          # attempt 1 failed -> +2.0s
        assert table.grant("a", now=22.5) is None
        assert table.grant("a", now=23.0).index == 0

    def test_release_worker_requeues_only_its_leases(self):
        table = _table()
        table.grant("a", now=0.0)
        table.grant("b", now=0.0)
        released = table.release_worker("a", now=1.0)
        assert [e.index for e in released] == [0]
        assert table.in_flight == [1]

    def test_next_wakeup_tracks_deadline_then_backoff(self):
        table = _table(indices=[0])
        assert table.next_wakeup(now=0.0) is None
        table.grant("a", now=0.0)
        assert table.next_wakeup(now=0.0) == 10.0
        table.expire(now=10.0)
        assert table.next_wakeup(now=10.0) == 11.0


class TestBackoffJitter:
    def _requeue_delay(self, rng_seed):
        import random

        policy = LeasePolicy(lease_timeout=10.0, backoff=1.0,
                             backoff_jitter=0.25)
        table = LeaseTable([0], policy, rng=random.Random(rng_seed))
        table.grant("a", now=0.0)
        table.expire(now=10.0)
        # Probe the not_before instant: grantable exactly when the
        # jittered delay elapses.
        lo, hi = 10.0, 10.0 + 1.0 * 1.25 + 1e-9
        for _ in range(60):
            mid = (lo + hi) / 2
            probe = LeaseTable([0], policy, rng=random.Random(rng_seed))
            probe.grant("a", now=0.0)
            probe.expire(now=10.0)
            if probe.grant("b", now=mid) is None:
                lo = mid
            else:
                hi = mid
        return hi - 10.0

    def test_jitter_is_bounded(self):
        # delay must land in [backoff, backoff * (1 + jitter)].
        for seed in range(5):
            delay = self._requeue_delay(seed)
            assert 1.0 <= delay <= 1.25 + 1e-6

    def test_jitter_varies_across_tables(self):
        # Two tables expiring at the same instant must not requeue at
        # the same instant (the thundering-herd fix).
        delays = {round(self._requeue_delay(seed), 6) for seed in range(5)}
        assert len(delays) > 1

    def test_zero_jitter_is_deterministic(self):
        table = _table(indices=[0])
        table.grant("a", now=0.0)
        table.expire(now=10.0)
        assert table.grant("b", now=10.999) is None
        assert table.grant("b", now=11.0) is not None


class TestHasGrantable:
    def test_tracks_queue_state(self):
        table = _table(indices=[0])
        assert table.has_grantable(now=0.0)
        table.grant("a", now=0.0)
        assert not table.has_grantable(now=0.0)   # held
        table.expire(now=10.0)
        assert not table.has_grantable(now=10.5)  # backing off
        assert table.has_grantable(now=11.0)
        table.grant("b", now=11.0)
        table.commit(0, "b")
        assert not table.has_grantable(now=11.0)  # committed

    def test_cancelled_shards_are_not_grantable(self):
        table = _table(indices=[0, 1])
        table.grant("a", now=0.0)
        table.cancel_pending()
        assert not table.has_grantable(now=0.0)


class TestExhaustion:
    def test_shard_exhausts_after_max_attempts(self):
        table = _table(indices=[0])
        for attempt in range(3):
            now = 100.0 * attempt
            assert table.grant("a", now=now).attempt == attempt
            table.expire(now=now + 10.0)
        with pytest.raises(ShardExhausted):
            table.grant("a", now=1000.0)

    def test_fail_reports_disposition(self):
        table = _table(indices=[0], )
        table.grant("a", now=0.0)
        assert table.fail(0, "a", now=1.0) == "requeued"
        assert table.fail(0, "b", now=1.0) == "stale"


class TestCommit:
    def test_commit_is_at_most_once(self):
        table = _table(indices=[0])
        table.grant("a", now=0.0)
        assert table.commit(0, "a") == "ok"
        assert table.commit(0, "a") == "duplicate"
        assert table.commit(5, "a") == "unknown"
        assert table.committed == [0]

    def test_late_commit_from_expired_lease_still_wins_if_first(self):
        # Worker presumed dead was merely slow: its result arrives
        # after expiry but before the re-leased copy finishes. The
        # work is deterministic, so the first copy is kept.
        table = _table(indices=[0])
        table.grant("a", now=0.0)
        table.expire(now=10.0)
        table.grant("b", now=11.0)
        assert table.commit(0, "a") == "ok"
        assert table.commit(0, "b") == "duplicate"

    def test_expired_lease_late_commit_after_regrant_is_discarded(self):
        # The mirror race: the re-leased copy commits first, then the
        # stalled original's commit limps in. At-most-once, no double
        # count — and the shard stays committed (a duplicate must not
        # perturb the table's terminal state).
        table = _table(indices=[0, 1])
        table.grant("a", now=0.0)
        table.expire(now=10.0)            # a stalled past its lease
        table.grant("b", now=11.0)
        assert table.commit(0, "b") == "ok"
        assert table.commit(0, "a") == "duplicate"
        assert table.committed == [0]
        # The discarded copy frees nothing and grants nothing: the
        # only grantable shard is still the untouched one.
        assert table.grant("a", now=11.0).index == 1
        assert table.grant("c", now=11.0) is None

    def test_done_after_all_commits(self):
        table = _table(indices=[0, 1])
        table.grant("a", now=0.0)
        table.grant("b", now=0.0)
        assert not table.done()
        table.commit(0, "a")
        table.commit(1, "b")
        assert table.done()
        assert table.drained()

    def test_cancel_pending_skips_in_flight(self):
        table = _table(indices=[0, 1, 2])
        table.grant("a", now=0.0)
        assert table.cancel_pending() == [1, 2]
        assert not table.done()          # shard 0 still in flight
        table.commit(0, "a")
        assert table.done()

"""RetryPolicy: one backoff vocabulary for leases, shard retries, and
worker connects. The delay math must exactly reproduce what the lease
table and scheduler did before unification — exact-instant fake-clock
tests elsewhere depend on it."""

import random

from repro.chaos.policy import (
    RESULT_RESEND,
    SERVICE_POLL,
    WORKER_CONNECT,
    RetryPolicy,
)
from repro.cluster.lease import LeasePolicy
from repro.lab.scheduler import SchedulerPolicy


class TestDelay:
    def test_exponential_growth(self):
        policy = RetryPolicy(backoff=1.0, backoff_factor=2.0, jitter=0.0)
        assert [policy.delay(a) for a in range(4)] == [1.0, 2.0, 4.0, 8.0]

    def test_zero_jitter_never_draws(self):
        class Explodes:
            def random(self):
                raise AssertionError("rng consulted with jitter off")

        policy = RetryPolicy(backoff=1.0, jitter=0.0)
        assert policy.delay(0, Explodes()) == 1.0

    def test_no_rng_means_deterministic_even_with_jitter(self):
        policy = RetryPolicy(backoff=1.0, backoff_factor=2.0, jitter=0.25)
        assert policy.delay(1) == 2.0

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff=1.0, backoff_factor=2.0, jitter=0.25)
        for seed in range(20):
            delay = policy.delay(0, random.Random(seed))
            assert 1.0 <= delay <= 1.25

    def test_jitter_varies(self):
        policy = RetryPolicy(backoff=1.0, jitter=0.25)
        delays = {policy.delay(0, random.Random(seed)) for seed in range(8)}
        assert len(delays) > 1

    def test_attempts_iterates_zero_based(self):
        assert list(RetryPolicy(max_attempts=3).attempts()) == [0, 1, 2]


class TestUnification:
    def test_lease_policy_retry_matches_its_own_fields(self):
        lease = LeasePolicy(lease_timeout=7.0, max_attempts=4, backoff=0.5,
                            backoff_jitter=0.1)
        retry = lease.retry
        assert retry.max_attempts == 4
        assert retry.backoff == 0.5
        assert retry.backoff_factor == 2.0
        assert retry.jitter == 0.1
        assert retry.timeout == 7.0

    def test_lease_requeue_delay_is_policy_delay(self):
        # Jitter off: the table's requeue instant must be exactly
        # backoff * factor ** attempt after expiry.
        from repro.cluster.lease import LeaseTable

        policy = LeasePolicy(lease_timeout=10.0, backoff=1.0,
                             backoff_jitter=0.0)
        table = LeaseTable([0], policy)
        table.grant("a", now=0.0)
        table.expire(now=10.0)
        expected = policy.retry.delay(0)
        assert table.grant("b", now=10.0 + expected - 1e-9) is None
        assert table.grant("b", now=10.0 + expected) is not None

    def test_scheduler_policy_retry_matches_its_own_fields(self):
        sched = SchedulerPolicy(max_retries=2, backoff=0.25, timeout=3.0)
        retry = sched.retry
        assert retry.max_attempts == 3  # retries + the first attempt
        assert retry.backoff == 0.25
        assert retry.backoff_factor == 2.0
        assert retry.timeout == 3.0
        assert retry.jitter == 0.0  # scheduler keeps exact instants

    def test_named_policies_are_bounded(self):
        # The worker must fail fast when the coordinator is gone: the
        # whole connect budget (sans jitter) stays under a second so
        # test_worker_fails_fast_when_unreachable stays fast.
        total = sum(WORKER_CONNECT.delay(a)
                    for a in range(WORKER_CONNECT.max_attempts - 1))
        assert total <= 1.0
        assert WORKER_CONNECT.timeout is not None
        assert RESULT_RESEND.max_attempts >= 2
        assert SERVICE_POLL.backoff <= 0.1

"""Resilient serving: retry policy, circuit breaker, health export."""

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTupleSet
from repro.errors import (
    CircuitOpenError,
    QueryTimeoutError,
    StorageError,
    TransientStorageError,
)
from repro.faults import FaultPlan, FaultSpec, arm
from repro.storage.diskindex import DiskRankedJoinIndex
from repro.storage.resilient import (
    CircuitBreaker,
    ResilientDiskRankedJoinIndex,
    RetryPolicy,
)


@pytest.fixture()
def stack():
    rng = np.random.default_rng(11)
    tuples = RankTupleSet.from_pairs(
        rng.uniform(0, 100, 250), rng.uniform(0, 100, 250)
    )
    index = RankedJoinIndex.build(tuples, 8)
    disk = DiskRankedJoinIndex(index, buffer_capacity=4)
    return index, disk


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestRetryPolicy:
    def test_config_validation_is_typed(self):
        with pytest.raises(StorageError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(StorageError, match="jitter"):
            RetryPolicy(jitter=2.0)

    def test_delay_is_bounded_and_seeded(self):
        policy = RetryPolicy(
            base_delay_s=0.001, max_delay_s=0.016, multiplier=2.0, jitter=0.5
        )
        a = [policy.delay(i, np.random.default_rng(3)) for i in range(8)]
        b = [policy.delay(i, np.random.default_rng(3)) for i in range(8)]
        assert a == b
        assert all(0 < d <= 0.016 for d in a)

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(
            base_delay_s=0.001, max_delay_s=1.0, multiplier=2.0, jitter=0.0
        )
        rng = np.random.default_rng(0)
        assert policy.delay(0, rng) == pytest.approx(0.001)
        assert policy.delay(3, rng) == pytest.approx(0.008)


class TestCircuitBreaker:
    def test_threshold_validation(self):
        with pytest.raises(StorageError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)

    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_s=10.0, clock=clock
        )
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure("boom")
        assert breaker.state == "closed" and breaker.allow()
        tripped = breaker.record_failure("boom")
        assert tripped and breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trip_count == 1
        assert breaker.last_fault == "boom"

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure("x")
        breaker.record_success()
        breaker.record_failure("x")
        assert breaker.state == "closed"

    def test_half_open_probe_then_close_or_reopen(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=clock
        )
        breaker.record_failure("first")
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        # Now trip again and fail the probe: re-opens for another cooldown.
        breaker.record_failure("again")
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure("probe failed")
        assert breaker.state == "open"
        assert not breaker.allow()


class TestResilientIndex:
    def test_fallback_bound_mismatch_rejected(self, stack):
        index, disk = stack
        rng = np.random.default_rng(0)
        other = RankedJoinIndex.build(
            RankTupleSet.from_pairs(
                rng.uniform(0, 100, 50), rng.uniform(0, 100, 50)
            ),
            4,
        )
        with pytest.raises(StorageError, match="bound"):
            ResilientDiskRankedJoinIndex(disk, other)

    def test_clean_serving_uses_the_disk_path(self, stack):
        index, disk = stack
        resilient = ResilientDiskRankedJoinIndex(disk, index)
        for angle in (0.2, 0.8, 1.4):
            assert resilient.query(angle, 5) == index.query(angle, 5)
        health = resilient.health()
        assert health.disk_queries == 3
        assert health.degraded_queries == 0
        assert health.state == "closed"

    def test_transient_fault_is_retried_transparently(self, stack):
        index, disk = stack
        arm(
            FaultPlan(
                specs=(FaultSpec(target="disk.query", kind="fail", at=0),)
            ),
            disk_index=disk,
        )
        resilient = ResilientDiskRankedJoinIndex(
            disk, index, retry=RetryPolicy(base_delay_s=0.0), sleep=lambda _: None
        )
        assert resilient.query(0.5, 5) == index.query(0.5, 5)
        health = resilient.health()
        assert health.retries == 1
        assert health.disk_queries == 1
        assert health.degraded_queries == 0

    def test_exhausted_retries_degrade_with_fallback(self, stack):
        index, disk = stack
        arm(
            FaultPlan(
                specs=(FaultSpec(target="disk.query", kind="fail", every=1),)
            ),
            disk_index=disk,
        )
        resilient = ResilientDiskRankedJoinIndex(
            disk,
            index,
            retry=RetryPolicy(attempts=2, base_delay_s=0.0),
            sleep=lambda _: None,
        )
        assert resilient.query(0.5, 5) == index.query(0.5, 5)
        assert resilient.health().degraded_queries == 1

    def test_exhausted_retries_raise_typed_without_fallback(self, stack):
        _, disk = stack
        arm(
            FaultPlan(
                specs=(FaultSpec(target="disk.query", kind="fail", every=1),)
            ),
            disk_index=disk,
        )
        resilient = ResilientDiskRankedJoinIndex(
            disk,
            retry=RetryPolicy(attempts=2, base_delay_s=0.0),
            sleep=lambda _: None,
        )
        with pytest.raises(TransientStorageError, match="injected"):
            resilient.query(0.5, 5)

    def test_open_breaker_without_fallback_raises_circuit_open(self, stack):
        _, disk = stack
        arm(
            FaultPlan(
                specs=(FaultSpec(target="disk.query", kind="fail", every=1),)
            ),
            disk_index=disk,
        )
        clock = FakeClock()
        resilient = ResilientDiskRankedJoinIndex(
            disk,
            retry=RetryPolicy(attempts=1),
            breaker=CircuitBreaker(
                failure_threshold=1, cooldown_s=100.0, clock=clock
            ),
            clock=clock,
            sleep=lambda _: None,
        )
        with pytest.raises(TransientStorageError):
            resilient.query(0.5, 5)
        with pytest.raises(CircuitOpenError, match="open"):
            resilient.query(0.5, 5)
        assert resilient.health().state == "open"
        assert resilient.health().trips == 1

    def test_breaker_recovers_through_half_open_probe(self, stack):
        index, disk = stack
        clock = FakeClock()
        injector = arm(
            FaultPlan(
                specs=(
                    FaultSpec(
                        target="disk.query", kind="fail", every=1, count=2
                    ),
                )
            ),
            disk_index=disk,
        )
        resilient = ResilientDiskRankedJoinIndex(
            disk,
            index,
            retry=RetryPolicy(attempts=1),
            breaker=CircuitBreaker(
                failure_threshold=2, cooldown_s=10.0, clock=clock
            ),
            clock=clock,
            sleep=lambda _: None,
        )
        resilient.query(0.5, 5)  # fail -> degraded
        resilient.query(0.5, 5)  # fail -> trips, degraded
        assert resilient.health().state == "open"
        clock.advance(10.0)
        # The fault plan is exhausted (count=2): the probe succeeds.
        assert resilient.query(0.5, 5) == index.query(0.5, 5)
        assert resilient.health().state == "closed"
        assert injector.n_injected == 2

    def test_timeout_propagates_as_query_timeout(self, stack):
        index, disk = stack
        clock = FakeClock()

        class SlowClockDisk:
            k_bound = disk.k_bound

            def query(self, preference, k, *, deadline=None):
                clock.advance(1.0)
                if deadline is not None:
                    deadline.check("test")
                return disk.query(preference, k)

        resilient = ResilientDiskRankedJoinIndex(
            SlowClockDisk(), index, clock=clock, sleep=lambda _: None
        )
        with pytest.raises(QueryTimeoutError):
            resilient.query(0.5, 5, deadline=0.5)
        assert resilient.health().timeouts == 1

    def test_retries_stop_at_the_deadline(self, stack):
        # Every disk call fails and each backoff costs a second of a
        # 1.5 s budget: the third failure finds the budget spent, stops
        # retrying, and the degraded path refuses an expired deadline.
        index, disk = stack
        arm(
            FaultPlan(
                specs=(FaultSpec(target="disk.query", kind="fail", every=1),)
            ),
            disk_index=disk,
        )
        clock = FakeClock()
        resilient = ResilientDiskRankedJoinIndex(
            disk,
            index,
            retry=RetryPolicy(attempts=5, base_delay_s=0.0),
            clock=clock,
            sleep=lambda _: clock.advance(1.0),
        )
        with pytest.raises(QueryTimeoutError):
            resilient.query(0.5, 5, deadline=1.5)
        health = resilient.health()
        assert (health.retries, health.degraded_queries) == (2, 1)

    def test_health_prometheus_export(self, stack):
        index, disk = stack
        resilient = ResilientDiskRankedJoinIndex(disk, index)
        resilient.query(0.5, 5)
        text = resilient.health().prometheus()
        assert "repro_resilience_disk_queries 1" in text
        assert "repro_resilience_state 0" in text
        assert text.endswith("\n")

    def test_counters_reach_an_attached_recorder(self, stack):
        from repro.obs import MetricsRecorder

        index, disk = stack
        recorder = MetricsRecorder()
        resilient = ResilientDiskRankedJoinIndex(
            disk, index, recorder=recorder
        )
        resilient.query(0.5, 5)
        counters = recorder.snapshot()["counters"]
        assert counters["resilience.disk_queries"] == 1

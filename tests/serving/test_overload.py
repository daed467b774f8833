"""Overload protection units: deadline, bounded queue, circuit breaker.

Deadline expiry runs on the injectable fake clock from ``conftest.py`` —
the tests step time explicitly instead of sleeping, so expiry is exact and
instantaneous.
"""

import pytest

from repro.errors import OverloadError
from repro.serving import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BoundedWorkQueue,
    CircuitBreaker,
    Deadline,
)


class TestDeadline:
    def test_none_never_expires(self, fake_clock):
        deadline = Deadline(None, clock=fake_clock)
        fake_clock.advance(1e9)
        assert not deadline.exceeded()
        assert deadline.remaining() == float("inf")

    def test_zero_budget_is_immediately_exceeded(self, fake_clock):
        deadline = Deadline(0.0, clock=fake_clock)
        assert deadline.exceeded()
        assert deadline.remaining() == 0.0

    def test_expires_exactly_when_the_clock_reaches_the_budget(
            self, fake_clock):
        deadline = Deadline(10.0, clock=fake_clock)
        fake_clock.advance(9.999)
        assert not deadline.exceeded()
        assert deadline.remaining() == pytest.approx(0.001)
        fake_clock.advance(0.001)
        assert deadline.exceeded()
        assert deadline.remaining() == 0.0
        assert deadline.elapsed() == pytest.approx(10.0)

    def test_remaining_clamps_at_zero_past_expiry(self, fake_clock):
        deadline = Deadline(1.0, clock=fake_clock)
        fake_clock.advance(5.0)
        assert deadline.remaining() == 0.0
        assert deadline.elapsed() == pytest.approx(5.0)

    def test_default_clock_is_real_monotonic_time(self):
        deadline = Deadline(3600.0)
        assert not deadline.exceeded()
        assert 0.0 < deadline.remaining() <= 3600.0
        assert deadline.elapsed() >= 0.0


class TestBoundedWorkQueue:
    def test_fifo_order(self):
        queue = BoundedWorkQueue(4)
        for item in "abcd":
            queue.push(item)
        assert queue.pop_many(3) == ["a", "b", "c"]
        assert queue.pop_many(3) == ["d"]
        assert queue.pop_many(1) == []

    def test_push_past_capacity_raises_overload(self):
        queue = BoundedWorkQueue(2)
        queue.push(1)
        queue.push(2)
        assert queue.full
        with pytest.raises(OverloadError, match="full"):
            queue.push(3)
        assert len(queue) == 2  # the overflow item was shed, not stored

    def test_capacity_must_be_positive(self):
        with pytest.raises(OverloadError):
            BoundedWorkQueue(0)

    def test_depth_and_high_water_track_occupancy(self):
        queue = BoundedWorkQueue(8)
        assert queue.depth() == 0
        assert queue.high_water == 0
        for item in range(5):
            queue.push(item)
        assert queue.depth() == 5
        queue.pop_many(4)
        assert queue.depth() == 1
        # high water remembers the peak, not the present
        assert queue.high_water == 5
        queue.push("again")
        assert queue.high_water == 5

    def test_shed_counter_and_on_full_fire_per_refused_push(self):
        calls = []
        queue = BoundedWorkQueue(
            2, on_full=lambda depth, cap: calls.append((depth, cap))
        )
        queue.push("a")
        queue.push("b")
        for _ in range(3):
            with pytest.raises(OverloadError):
                queue.push("overflow")
        assert queue.shed == 3
        assert calls == [(2, 2), (2, 2), (2, 2)]

    def test_snapshot_is_a_non_destructive_fifo_view(self):
        queue = BoundedWorkQueue(4)
        for item in "abc":
            queue.push(item)
        assert queue.snapshot() == ("a", "b", "c")
        assert queue.depth() == 3  # nothing was dequeued

    def test_remove_targets_one_item_by_identity(self):
        queue = BoundedWorkQueue(4)
        items = [object(), object(), object()]
        for item in items:
            queue.push(item)
        assert queue.remove(items[1])
        assert queue.snapshot() == (items[0], items[2])
        assert not queue.remove(items[1])  # already gone
        assert not queue.remove(object())  # never queued


class TestCircuitBreaker:
    def test_opens_only_on_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, probe_after=2)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # streak broken
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert [edge[:2] for edge in breaker.transitions] == [
            (BREAKER_CLOSED, BREAKER_OPEN),
        ]

    def test_probe_schedule_half_opens_after_denied_clips(self):
        breaker = CircuitBreaker(threshold=1, probe_after=3)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow_model()
        assert not breaker.allow_model()
        # Third denied clip completes the probation window: half-open, and
        # the clip itself becomes the probe.
        assert breaker.allow_model()
        assert breaker.state == BREAKER_HALF_OPEN

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, probe_after=1)
        breaker.record_failure()
        assert breaker.allow_model()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert [edge[:2] for edge in breaker.transitions] == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_probe_failure_reopens_and_restarts_probation(self):
        breaker = CircuitBreaker(threshold=1, probe_after=2)
        breaker.record_failure()
        assert not breaker.allow_model()
        assert breaker.allow_model()  # the probe
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert [edge[:2] for edge in breaker.transitions] == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_OPEN),
        ]
        # Probation restarts from scratch after a failed probe.
        assert not breaker.allow_model()
        assert breaker.allow_model()
        assert breaker.state == BREAKER_HALF_OPEN

    def test_transition_callback_fires_on_every_edge(self):
        edges = []
        breaker = CircuitBreaker(
            threshold=1, probe_after=1,
            on_transition=lambda s, t, r: edges.append((s, t)),
        )
        breaker.record_failure()
        breaker.allow_model()
        breaker.record_success()
        assert edges == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_closed_breaker_always_allows(self):
        breaker = CircuitBreaker(threshold=2, probe_after=1)
        assert all(breaker.allow_model() for _ in range(5))
        assert breaker.transitions == []

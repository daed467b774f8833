"""Overload protection: deadlines, bounded queueing, and a circuit breaker.

Three independent mechanisms keep a serving node answering under stress:

* :class:`Deadline` — a per-batch wall-clock budget.  Once exceeded, the
  service stops spending time on retries and fallback simulation and serves
  best-effort model outputs instead; every admitted clip is still answered.
* :class:`BoundedWorkQueue` — a FIFO of pending clips with a hard capacity.
  ``push`` raises :class:`~repro.errors.OverloadError` when full, which the
  admission layer converts into per-clip ``overload`` rejections
  (backpressure to the caller rather than unbounded memory growth).  The
  queue tracks its :meth:`depth` and :attr:`high_water` mark and reports
  every full-queue shed through an ``on_full`` callback, so overload is
  visible in metrics, not just in per-clip reports.
* :class:`CircuitBreaker` — after ``threshold`` *consecutive* clip-level
  guard failures, the breaker opens and the service goes simulator-only
  (the model is not even invoked).  After ``probe_after`` further clips it
  half-opens: one probe clip runs through the model, and its guard verdict
  decides between closing (healthy again) and re-opening.  Transitions are
  deterministic in the clip stream, so drills can assert them exactly.

:class:`Deadline` takes an injectable monotonic ``clock`` (default
:func:`time.perf_counter`), so overload tests drive a fake clock forward
instead of sleeping — expiry and probe-race scenarios become deterministic
and instantaneous.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, List, Optional, Tuple

from ..errors import OverloadError

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: the default monotonic clock for deadlines and the serving loop
MONOTONIC_CLOCK = time.perf_counter


class Deadline:
    """A wall-clock budget started at construction; ``None`` never expires.

    ``clock`` is any zero-argument callable returning monotonic seconds
    (default :func:`time.perf_counter`); tests inject a fake clock and step
    it explicitly instead of sleeping.
    """

    def __init__(self, seconds: Optional[float],
                 clock: Optional[Callable[[], float]] = None):
        self.seconds = seconds
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        self._start = self._clock()

    def elapsed(self) -> float:
        return self._clock() - self._start

    def exceeded(self) -> bool:
        return self.seconds is not None and self.elapsed() >= self.seconds

    def remaining(self) -> float:
        if self.seconds is None:
            return float("inf")
        return max(0.0, self.seconds - self.elapsed())


class BoundedWorkQueue:
    """FIFO work queue that sheds load instead of growing without bound.

    ``on_full(depth, capacity)`` fires on every full-queue shed, *before*
    the :class:`~repro.errors.OverloadError` is raised — the serving loop
    wires it to the ``queue_full`` telemetry event and the
    ``serve_queue_full_total`` counter, so shed load shows up in metrics
    rather than only in per-clip rejection reports.  :attr:`high_water`
    remembers the deepest the queue has ever been.
    """

    def __init__(self, capacity: int,
                 on_full: Optional[Callable[[int, int], None]] = None):
        if capacity < 1:
            raise OverloadError(
                f"queue capacity must be >= 1, got {capacity}",
                reason="capacity",
            )
        self.capacity = capacity
        self._items = deque()
        self._high_water = 0
        self._shed = 0
        self._on_full = on_full

    def __len__(self) -> int:
        return len(self._items)

    def depth(self) -> int:
        """Current number of queued items."""
        return len(self._items)

    @property
    def high_water(self) -> int:
        """The deepest the queue has ever been."""
        return self._high_water

    @property
    def shed(self) -> int:
        """How many pushes were refused because the queue was full."""
        return self._shed

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, item) -> None:
        if self.full:
            self._shed += 1
            if self._on_full is not None:
                self._on_full(len(self._items), self.capacity)
            raise OverloadError(
                f"work queue full ({self.capacity} clips)",
                reason="overload",
            )
        self._items.append(item)
        if len(self._items) > self._high_water:
            self._high_water = len(self._items)

    def pop_many(self, count: int) -> List:
        """Dequeue up to ``count`` items in FIFO order."""
        out = []
        while self._items and len(out) < count:
            out.append(self._items.popleft())
        return out

    def snapshot(self) -> Tuple:
        """The queued items, oldest first, without dequeuing anything."""
        return tuple(self._items)

    def remove(self, item) -> bool:
        """Remove one queued item (identity match); False if absent.

        The serving loop's fair-shedding policy evicts a specific queued
        request to make room for a tenant below its fair share.
        """
        try:
            self._items.remove(item)
        except ValueError:
            return False
        return True


class CircuitBreaker:
    """Consecutive-failure breaker with a clip-count probe schedule.

    State machine: ``closed`` → (``threshold`` consecutive failures) →
    ``open`` → (``probe_after`` clips served without the model) →
    ``half_open`` → one model probe → ``closed`` on success, ``open`` on
    failure.  ``on_transition(from_state, to_state, reason)`` fires on every
    edge; ``transitions`` keeps the full history for assertions.
    """

    def __init__(self, threshold: int, probe_after: int,
                 on_transition: Optional[
                     Callable[[str, str, str], None]] = None):
        self.threshold = threshold
        self.probe_after = probe_after
        self.state = BREAKER_CLOSED
        self.transitions: List[Tuple[str, str, str]] = []
        self._on_transition = on_transition
        self._consecutive_failures = 0
        self._clips_since_open = 0

    def _transition(self, to_state: str, reason: str) -> None:
        from_state = self.state
        self.state = to_state
        self.transitions.append((from_state, to_state, reason))
        if self._on_transition is not None:
            self._on_transition(from_state, to_state, reason)

    def allow_model(self) -> bool:
        """Decide, for the next clip, whether the model may run.

        In the open state this also advances the probe schedule: after
        ``probe_after`` denied clips the breaker half-opens and the next
        clip becomes the probe.
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_HALF_OPEN:
            return True
        self._clips_since_open += 1
        if self._clips_since_open >= self.probe_after:
            self._transition(
                BREAKER_HALF_OPEN,
                f"probe after {self._clips_since_open} simulator-only clips",
            )
            return True
        return False

    def record_success(self) -> None:
        """A model-served clip passed the output guard."""
        self._consecutive_failures = 0
        if self.state == BREAKER_HALF_OPEN:
            self._transition(BREAKER_CLOSED, "probe clip passed the guard")

    def record_failure(self) -> None:
        """A model-served clip ended degenerate (retries exhausted)."""
        if self.state == BREAKER_HALF_OPEN:
            self._clips_since_open = 0
            self._transition(BREAKER_OPEN, "probe clip failed the guard")
            return
        self._consecutive_failures += 1
        if (self.state == BREAKER_CLOSED
                and self._consecutive_failures >= self.threshold):
            self._clips_since_open = 0
            self._transition(
                BREAKER_OPEN,
                f"{self._consecutive_failures} consecutive guard failures",
            )

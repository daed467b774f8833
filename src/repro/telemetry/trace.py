"""Span tracing: nested wall-clock measurement of pipeline phases.

A :class:`Tracer` hands out context-manager :class:`Span`\\ s.  Spans nest
(the tracer keeps one active stack per thread, so each finished record knows
its depth and parent, and concurrent threads never parent under each other's
spans), carry arbitrary metadata, and accumulate into per-name totals —
which is exactly the accounting the Table 4 runtime comparison needs: the
simulator times its ``rasterize``/``optical``/``resist``/``contour`` stages
as spans on its ``Tracer``.

Since the observability-plane PR, every span also carries **stable
identifiers**: a ``trace_id`` naming the whole run's trace, a ``span_id``
unique within it, and a ``parent_id`` linking child to parent.  IDs are
allocated from per-tracer counters inside a namespace (``main`` for the
parent process, ``w<shard>`` inside a :class:`~repro.runtime.parallel.
WorkerPool` worker), so a trace merged from many workers is collision-free
and **deterministic in structure**: the same work yields the same span tree
regardless of backend or completion order.  :meth:`Tracer.current_context`
exports the active position as a :class:`TraceContext`; a worker-side tracer
built from that context parents its root spans under the dispatching
``parallel_shard`` span, and :meth:`Tracer.absorb` folds the worker's
serialized records back into the parent.

The **active tracer** (:func:`activate_tracer` / :func:`get_active_tracer`)
is a thread-local ambient slot the worker pool populates before running a
shard, so picklable worker functions can reach their shard's tracer without
threading it through every payload.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .metrics import MetricsRegistry

#: process-wide monotonic trace-ID source (PID-salted like run IDs, so
#: traces from several processes appending to one artifact stay distinct)
_TRACE_COUNTER = itertools.count(1)


def next_trace_id() -> str:
    """A new process-unique trace identifier."""
    return f"trace-{os.getpid()}-{next(_TRACE_COUNTER):04d}"


@dataclass(frozen=True)
class TraceContext:
    """The wire form of "where in the trace am I": what a worker inherits."""

    trace_id: str
    parent_span_id: Optional[str] = None


@dataclass
class SpanRecord:
    """One finished span, in completion order."""

    name: str
    seconds: float
    depth: int
    parent: Optional[str]
    metadata: Dict[str, Any] = field(default_factory=dict)
    trace_id: str = ""
    span_id: str = ""
    parent_id: Optional[str] = None
    start_unix: float = 0.0
    origin: str = "main"

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "seconds": self.seconds,
            "depth": self.depth,
            "parent": self.parent,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "origin": self.origin,
        }
        if self.metadata:
            record["metadata"] = dict(self.metadata)
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        return cls(
            name=data["name"],
            seconds=float(data["seconds"]),
            depth=int(data.get("depth", 0)),
            parent=data.get("parent"),
            metadata=dict(data.get("metadata", {})),
            trace_id=data.get("trace_id", ""),
            span_id=data.get("span_id", ""),
            parent_id=data.get("parent_id"),
            start_unix=float(data.get("start_unix", 0.0)),
            origin=data.get("origin", "main"),
        )


class Span:
    """Live handle yielded by :meth:`Tracer.span`; annotate via :meth:`note`."""

    __slots__ = ("name", "metadata", "span_id", "_start", "_start_unix")

    def __init__(self, name: str, metadata: Dict[str, Any],
                 span_id: str = "") -> None:
        self.name = name
        self.metadata = metadata
        self.span_id = span_id
        self._start = 0.0
        self._start_unix = 0.0

    def note(self, **metadata: Any) -> None:
        """Attach metadata to the span while it is running."""
        self.metadata.update(metadata)


class Tracer:
    """Collects finished :class:`SpanRecord`\\ s and per-name aggregates.

    ``trace_id`` defaults to a fresh process-unique ID; pass the parent's to
    join an existing trace.  ``origin`` labels where the spans ran (``main``,
    ``w3``, ...) and doubles as the span-ID namespace unless ``id_namespace``
    overrides it (the worker pool namespaces by dispatch *and* shard so
    repeated fan-outs never reuse an ID).  ``root_parent_id`` parents
    top-of-stack spans under a span of another tracer — how worker spans nest
    under the dispatching ``parallel_shard`` span after a merge.
    """

    def __init__(self, trace_id: Optional[str] = None, *,
                 origin: str = "main",
                 id_namespace: Optional[str] = None,
                 root_parent_id: Optional[str] = None) -> None:
        self.trace_id = trace_id if trace_id is not None else next_trace_id()
        self.origin = origin
        self._namespace = id_namespace if id_namespace is not None else origin
        self._root_parent_id = root_parent_id
        self._ids = itertools.count(1)  # atomic: unique IDs across threads
        self._local = threading.local()  # per-thread open-span stacks
        self._lock = threading.Lock()    # guards records, totals and counts
        self._records: List[SpanRecord] = []
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's stack of open spans."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- identifiers --------------------------------------------------------

    def reserve_span_id(self) -> str:
        """Allocate the next span ID without opening a span.

        The worker pool reserves the ``parallel_shard`` span's ID at dispatch
        so the worker can parent its spans under it before the shard record
        itself is written (the record is only timed once the result returns).
        """
        return f"{self._namespace}-{next(self._ids):04d}"

    def current_context(self) -> TraceContext:
        """The active trace position, for propagation into workers."""
        stack = self._stack
        parent = stack[-1].span_id if stack else self._root_parent_id
        return TraceContext(trace_id=self.trace_id, parent_span_id=parent)

    # -- span collection ----------------------------------------------------

    @contextmanager
    def span(self, name: str, **metadata: Any) -> Iterator[Span]:
        handle = Span(name, dict(metadata), span_id=self.reserve_span_id())
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_name = parent.name if parent is not None else None
        parent_id = (parent.span_id if parent is not None
                     else self._root_parent_id)
        depth = len(stack)
        stack.append(handle)
        handle._start_unix = time.time()
        handle._start = time.perf_counter()
        try:
            yield handle
        finally:
            elapsed = time.perf_counter() - handle._start
            stack.pop()
            self._append(SpanRecord(
                name=name, seconds=elapsed, depth=depth,
                parent=parent_name, metadata=handle.metadata,
                trace_id=self.trace_id, span_id=handle.span_id,
                parent_id=parent_id, start_unix=handle._start_unix,
                origin=self.origin,
            ))

    def add_record(self, name: str, seconds: float, *,
                   span_id: Optional[str] = None,
                   start_unix: Optional[float] = None,
                   **metadata: Any) -> SpanRecord:
        """Record an externally timed span without sampling the clock twice.

        For latencies assembled from parts (e.g. a served clip's share of a
        batched forward pass plus its own post-processing) that still belong
        in the same per-name aggregates as context-manager spans.
        ``span_id`` accepts an ID previously taken from
        :meth:`reserve_span_id` (the worker-pool dispatch protocol); the
        default allocates a fresh one.
        """
        stack = self._stack
        parent = stack[-1] if stack else None
        record = SpanRecord(
            name=name, seconds=float(seconds), depth=len(stack),
            parent=parent.name if parent is not None else None,
            metadata=dict(metadata),
            trace_id=self.trace_id,
            span_id=span_id if span_id is not None else self.reserve_span_id(),
            parent_id=(parent.span_id if parent is not None
                       else self._root_parent_id),
            start_unix=(start_unix if start_unix is not None
                        else time.time() - float(seconds)),
            origin=self.origin,
        )
        self._append(record)
        return record

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)
            self._totals[record.name] = (
                self._totals.get(record.name, 0.0) + record.seconds
            )
            self._counts[record.name] = self._counts.get(record.name, 0) + 1

    # -- aggregates ---------------------------------------------------------

    @property
    def records(self) -> Tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(self._records)

    def total(self, name: str) -> float:
        return self._totals.get(name, 0.0)

    def count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def mean(self, name: str) -> float:
        with self._lock:
            count = self._counts.get(name, 0)
            return self._totals[name] / count if count else 0.0

    def totals(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._totals)

    def absorb(self, records: Iterable[dict]) -> None:
        """Fold serialized :class:`SpanRecord` dicts (a worker's spans) in.

        Records keep the IDs and timestamps they were written with — the
        worker already namespaced them and parented its roots under the
        dispatching span, so absorption is pure concatenation plus aggregate
        bookkeeping, deterministic in shard order.
        """
        for data in records:
            self._append(SpanRecord.from_dict(data))

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "trace_id": self.trace_id,
                "spans": [record.to_dict() for record in self._records],
                "totals": dict(self._totals),
                "counts": dict(self._counts),
            }

    def record_into(self, registry: MetricsRegistry,
                    histogram: str = "stage_seconds",
                    counter: str = "stages_total",
                    label: str = "stage") -> None:
        """Export finished spans as labeled latency histograms + counters."""
        for record in self.records:
            labels = {label: record.name}
            registry.histogram(histogram, labels=labels).observe(record.seconds)
            registry.counter(counter, labels=labels).inc()


# ---------------------------------------------------------------------------
# Ambient (thread-local) tracer for worker shards
# ---------------------------------------------------------------------------

_ACTIVE = threading.local()


def activate_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as this thread's ambient tracer; returns the old one.

    The worker pool activates a shard-local tracer around each shard so
    worker functions (which must stay picklable, payload-only callables) can
    reach it via :func:`get_active_tracer`.  Always restore the returned
    previous value with a second :func:`activate_tracer` call in ``finally``.
    """
    previous = getattr(_ACTIVE, "tracer", None)
    _ACTIVE.tracer = tracer
    return previous


def get_active_tracer() -> Optional[Tracer]:
    """This thread's ambient tracer, or None outside an instrumented shard."""
    return getattr(_ACTIVE, "tracer", None)

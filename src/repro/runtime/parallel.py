"""Deterministic fan-out engine: sharded dispatch with crash containment.

The hot paths of this repo — dataset synthesis, quarantine repair, per-clip
serving evaluation — are embarrassingly parallel *because* their randomness
is already sharded: every record derives from an independent
``SeedSequence(base_seed, attempt)`` child, so the answer does not depend on
which worker computes it or in what order results arrive.  This module
supplies the execution half of that bargain:

:class:`WorkerPool`
    maps a picklable function over payload shards on a ``serial``,
    ``thread``, or ``process`` backend (``auto`` picks ``serial`` for one
    worker, ``process`` otherwise).  Results come back **in submission
    order** regardless of completion order, so a parallel run reassembles
    bit-identically to a serial one.  Every worker death — crash, timeout,
    or raised exception — is converted into a :class:`~repro.errors.
    ParallelError` naming the shard; a dead worker must never become a hang.

:func:`shard_seed` / :func:`shard_rng`
    per-shard ``SeedSequence`` children for fan-outs that need fresh
    randomness rather than replaying recorded attempts.

:func:`chunk_indices`
    the canonical contiguous split of ``n`` items across ``workers`` shards
    (used by synthesis, repair, and tests so all agree on shard boundaries).

Telemetry is threaded through: each shard lands a ``parallel_shard`` tracer
record and a ``parallel_tasks_total`` counter increment; failures increment
``parallel_worker_failures_total`` through a ``worker_crash`` hook event,
and (in drills) originate from :meth:`FaultPlan.inject_worker_crash`.

**Trace propagation** (the observability plane): when the pool carries a
tracer, every dispatch reserves a ``parallel_shard`` span ID up front and
ships a :class:`TraceWire` to the worker.  The worker builds a shard-local
:class:`~repro.telemetry.trace.Tracer` (origin ``w<shard>``, span IDs
namespaced under the reserved parent ID), installs it as the thread's
*ambient* tracer (:func:`~repro.telemetry.trace.get_active_tracer`), and
returns its finished spans with the shard result.  The parent absorbs them
**in submission order**, so a ``--workers 8`` run yields one coherent,
deterministic-structure trace — identical in shape across serial, thread,
and process backends.  Shards ship spans only: worker-side counts reach the
parent's registry as those spans, through
:meth:`~repro.telemetry.trace.Tracer.record_into`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..config import PARALLEL_BACKENDS, ParallelConfig
from ..errors import ConfigError, ParallelError, ReproError
from ..telemetry.hooks import RunLoggerHook
from ..telemetry.trace import Tracer, activate_tracer

#: exit status a crash-injected process worker dies with (see FaultPlan).
CRASH_EXIT_CODE = 13


class TraceWire(NamedTuple):
    """Trace context shipped to a worker shard (picklable)."""

    trace_id: str
    parent_span_id: str  # the reserved parallel_shard span ID
    origin: str          # worker lane label, e.g. "w3"


class ShardTelemetry(NamedTuple):
    """What an instrumented shard ships back beside its result."""

    result: Any
    spans: List[dict]     # SpanRecord.to_dict() forms, completion order


def shard_seed(base_seed: int, shard: int) -> int:
    """A stable 63-bit seed for ``shard``, derived from ``base_seed``.

    Uses ``SeedSequence`` child spawning so shard seeds are statistically
    independent and identical across platforms and backend choices.
    """
    if shard < 0:
        raise ConfigError(f"shard must be >= 0, got {shard}")
    sequence = np.random.SeedSequence((int(base_seed) % 2**63, int(shard)))
    return int(sequence.generate_state(1, dtype=np.uint64)[0] % 2**63)


def shard_rng(base_seed: int, shard: int) -> np.random.Generator:
    """A fresh ``Generator`` for ``shard``, independent of other shards."""
    return np.random.default_rng(shard_seed(base_seed, shard))


def chunk_indices(n: int, workers: int,
                  chunk_size: Optional[int] = None) -> List[range]:
    """Split ``range(n)`` into contiguous chunks, one per shard.

    Without ``chunk_size`` the split is near-even across ``workers`` (at
    most one extra item on the leading chunks); with it, every chunk holds
    at most ``chunk_size`` items.  Empty input yields no chunks.
    """
    if n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if n == 0:
        return []
    if chunk_size is not None:
        if chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        size = chunk_size
    else:
        size = -(-n // min(workers, n))  # ceil division, >= 1
    return [range(start, min(start + size, n))
            for start in range(0, n, size)]


def _run_wired(fn: Callable[[Any], Any], payload: Any,
               wire: TraceWire) -> ShardTelemetry:
    """Run ``fn`` under a shard-local ambient tracer; bundle its spans.

    The shard tracer joins the parent's trace (same ``trace_id``), parents
    its root spans under the reserved ``parallel_shard`` span, and
    namespaces its span IDs under that reserved ID — globally unique without
    cross-process coordination.  Ambient installation is thread-local, so
    one pool thread running several shards sequentially never mixes them.
    """
    tracer = Tracer(
        wire.trace_id,
        origin=wire.origin,
        id_namespace=wire.parent_span_id,
        root_parent_id=wire.parent_span_id,
    )
    previous = activate_tracer(tracer)
    try:
        result = fn(payload)
    finally:
        activate_tracer(previous)
    return ShardTelemetry(
        result=result,
        spans=[record.to_dict() for record in tracer.records],
    )


def _shard_entry(fn: Callable[[Any], Any], payload: Any, shard: int,
                 crash: bool, wire: Optional[TraceWire] = None) -> Any:
    """Module-level worker entry point (must be picklable for ``process``).

    ``crash`` is the consumed fault-injection flag: in a child process it
    dies hard via ``os._exit`` — modelling a segfault/OOM-kill, invisible
    to ``except`` clauses — which surfaces to the parent as a broken pool.
    With a ``wire`` the shard runs instrumented and returns a
    :class:`ShardTelemetry` instead of the bare result.
    """
    if crash:
        # In a forked/spawned child this kills only the worker.  The serial
        # and thread backends never pass crash=True here (they raise in the
        # parent instead — _exit would take the whole interpreter down).
        os._exit(CRASH_EXIT_CODE)
    if wire is None:
        return fn(payload)
    return _run_wired(fn, payload, wire)


class WorkerPool:
    """Deterministic fan-out over serial, thread, or process workers.

    ``map`` submits one task per payload, waits for each in **submission
    order** (so reassembly is deterministic), and bounds every wait with
    ``timeout_s``.  Failure semantics:

    * a :class:`~repro.errors.ReproError` raised inside a worker propagates
      as-is (domain errors keep their type and exit-code mapping);
    * any other worker exception, a dead process, or a timeout becomes a
      :class:`~repro.errors.ParallelError` whose message (and ``.shard``
      attribute) names the shard.

    The pool is a context manager; ``map`` may be called repeatedly while
    open.  Telemetry objects are all optional.
    """

    def __init__(self, workers: int = 1, backend: str = "auto", *,
                 chunk_size: Optional[int] = None, timeout_s: float = 300.0,
                 tracer=None, hook=None, registry=None, faults=None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if backend not in PARALLEL_BACKENDS:
            raise ConfigError(
                f"backend must be one of {PARALLEL_BACKENDS}, got {backend!r}"
            )
        if timeout_s <= 0:
            raise ConfigError(f"timeout_s must be positive, got {timeout_s}")
        if backend == "auto":
            backend = "serial" if workers == 1 else "process"
        self.workers = int(workers)
        self.backend = backend
        self.chunk_size = chunk_size
        self.timeout_s = float(timeout_s)
        self.tracer = tracer
        # Without a hook, failures still reach the registry, through the
        # same bridge that counts them when a hook is attached.
        if hook is None and registry is not None:
            hook = RunLoggerHook(registry=registry)
        self.hook = hook
        self.registry = registry
        self.faults = faults
        #: injectable monotonic clock: deadline accounting only (the actual
        #: blocking waits still use the executor's real-time primitives)
        self._clock = clock
        self._executor = None

    @classmethod
    def from_config(cls, config: ParallelConfig, *, workers=None,
                    tracer=None, hook=None, registry=None,
                    faults=None) -> "WorkerPool":
        """Build a pool from :class:`ParallelConfig`, optionally overriding
        the worker count (the CLI's ``--workers`` flag wins)."""
        return cls(
            workers=config.workers if workers is None else workers,
            backend=config.backend,
            chunk_size=config.chunk_size,
            timeout_s=config.timeout_s,
            tracer=tracer,
            hook=hook,
            registry=registry,
            faults=faults,
        )

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Shut the backing executor down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _ensure_executor(self):
        if self._executor is None:
            if self.backend == "thread":
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-pool",
                )
            elif self.backend == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                )
        return self._executor

    # -- telemetry plumbing --------------------------------------------------

    def _make_wires(self, count: int) -> List[Optional[TraceWire]]:
        """Reserve a ``parallel_shard`` span ID per shard, at dispatch.

        Reserving in submission order makes the merged trace's ID layout a
        pure function of the workload — completion order never shows.  With
        no tracer attached the shards run uninstrumented (wire ``None``),
        keeping the fast path telemetry-free.
        """
        if self.tracer is None:
            return [None] * count
        context = self.tracer.current_context()
        return [
            TraceWire(
                trace_id=context.trace_id,
                parent_span_id=self.tracer.reserve_span_id(),
                origin=f"w{shard}",
            )
            for shard in range(count)
        ]

    def _record_shard(self, task: str, shard: int, seconds: float,
                      wire: Optional[TraceWire] = None,
                      shipped: Optional[ShardTelemetry] = None) -> None:
        if self.tracer is not None:
            metadata = {"shard": shard, "task": task, "backend": self.backend}
            if wire is not None:
                metadata["worker"] = wire.origin
            self.tracer.add_record(
                "parallel_shard", seconds,
                span_id=wire.parent_span_id if wire is not None else None,
                **metadata,
            )
            if shipped is not None:
                self.tracer.absorb(shipped.spans)
        if self.registry is not None:
            self.registry.counter(
                "parallel_tasks_total", labels={"task": task}
            ).inc()

    def _record_failure(self, task: str, shard: int, detail: str) -> None:
        if self.hook is not None:
            self.hook.emit("worker_crash", shard=shard, task=task,
                           detail=detail)

    def _failure(self, task: str, shard: int, detail: str,
                 kind: str = "error") -> ParallelError:
        self._record_failure(task, shard, detail)
        return ParallelError(
            f"worker for shard {shard} of task {task!r} failed: {detail}",
            shard=shard, task=task, kind=kind,
        )

    # -- dispatch ------------------------------------------------------------

    def _crash_flags(self, count: int) -> List[bool]:
        """Consume injected crash flags for shards [0, count) at dispatch.

        Consuming up front (rather than per-shard inside workers) keeps the
        fault observable even on the process backend, where a dead worker
        breaks the whole pool before later shards report: the parent knows
        exactly which shard was sabotaged and names it in the error.
        """
        if self.faults is None:
            return [False] * count
        return [self.faults.take_worker_crash(shard)
                for shard in range(count)]

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any], *,
            task: str = "map",
            timeout_s: Optional[float] = None) -> List[Any]:
        """Apply ``fn`` to each payload; return results in payload order.

        ``timeout_s`` overrides the pool-level default for this call only:
        each task must produce its result within ``timeout_s`` of *its own
        dispatch* (not of the parent starting to wait on it), so one hung
        worker surfaces as a :class:`~repro.errors.ParallelError` with
        ``kind="timeout"`` after roughly one timeout, never ``N`` of them.
        The serial backend runs in the caller's thread and cannot preempt a
        hung function; timeouts are only enforced on the thread/process
        backends.
        """
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigError(
                f"timeout_s must be positive, got {timeout_s}"
            )
        effective = self.timeout_s if timeout_s is None else float(timeout_s)
        payloads = list(payloads)
        crash_flags = self._crash_flags(len(payloads))
        wires = self._make_wires(len(payloads))
        if self.backend == "serial":
            return self._map_serial(fn, payloads, crash_flags, wires, task)
        return self._map_executor(fn, payloads, crash_flags, wires, task,
                                  effective)

    def _unpack(self, outcome: Any, wire: Optional[TraceWire],
                ) -> Tuple[Any, Optional[ShardTelemetry]]:
        """Split a shard's return into (caller result, shipped telemetry)."""
        if wire is not None and isinstance(outcome, ShardTelemetry):
            return outcome.result, outcome
        return outcome, None

    def _map_serial(self, fn, payloads, crash_flags, wires,
                    task) -> List[Any]:
        results: List[Any] = []
        for shard, payload in enumerate(payloads):
            start = time.perf_counter()
            if crash_flags[shard]:
                raise self._failure(
                    task, shard,
                    f"injected worker crash (exit {CRASH_EXIT_CODE})",
                    kind="crash",
                )
            try:
                outcome = (fn(payload) if wires[shard] is None
                           else _run_wired(fn, payload, wires[shard]))
            except ReproError:
                raise
            except Exception as exc:  # noqa: BLE001 — contained, re-typed
                raise self._failure(
                    task, shard, f"{type(exc).__name__}: {exc}"
                ) from exc
            result, shipped = self._unpack(outcome, wires[shard])
            results.append(result)
            self._record_shard(task, shard, time.perf_counter() - start,
                               wires[shard], shipped)
        return results

    def _map_executor(self, fn, payloads, crash_flags, wires,
                      task, timeout_s) -> List[Any]:
        executor = self._ensure_executor()
        injected = [shard for shard, flag in enumerate(crash_flags) if flag]
        if self.backend == "thread" and injected:
            # os._exit in a thread would kill the whole interpreter; model
            # the crash as an immediate contained failure instead.
            raise self._failure(
                task, injected[0],
                f"injected worker crash (exit {CRASH_EXIT_CODE})",
                kind="crash",
            )
        starts: List[float] = []
        deadlines: List[float] = []
        futures: List[Future] = []
        try:
            for shard, payload in enumerate(payloads):
                starts.append(time.perf_counter())
                deadlines.append(self._clock() + timeout_s)
                futures.append(executor.submit(
                    _shard_entry, fn, payload, shard, crash_flags[shard],
                    wires[shard],
                ))
            results: List[Any] = []
            for shard, future in enumerate(futures):
                # Each task's deadline runs from its own dispatch, so time
                # spent waiting on earlier shards counts against it too —
                # a single hung worker costs ~one timeout, not one per shard.
                remaining = deadlines[shard] - self._clock()
                try:
                    outcome = future.result(timeout=max(0.0, remaining))
                except FutureTimeoutError:
                    raise self._failure(
                        task, shard,
                        f"no result within {timeout_s:g}s of dispatch",
                        kind="timeout",
                    ) from None
                except BrokenExecutor as exc:
                    # A dead process breaks every pending future; if we know
                    # which shard was sabotaged, name it — otherwise name
                    # the first shard observed broken.
                    blamed = injected[0] if injected else shard
                    raise self._failure(
                        task, blamed,
                        f"worker process died ({exc or 'broken pool'})",
                        kind="crash",
                    ) from exc
                except ReproError:
                    raise
                except Exception as exc:  # noqa: BLE001
                    raise self._failure(
                        task, shard, f"{type(exc).__name__}: {exc}"
                    ) from exc
                result, shipped = self._unpack(outcome, wires[shard])
                results.append(result)
                self._record_shard(
                    task, shard, time.perf_counter() - starts[shard],
                    wires[shard], shipped,
                )
            return results
        except BaseException:
            self.close()
            raise


__all__ = [
    "CRASH_EXIT_CODE",
    "ShardTelemetry",
    "TraceWire",
    "WorkerPool",
    "chunk_indices",
    "shard_rng",
    "shard_seed",
]

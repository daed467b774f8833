"""Deterministic fan-out engine: ordering, containment, telemetry."""

import time

import numpy as np
import pytest

from repro.config import ParallelConfig
from repro.errors import ConfigError, DataError, ParallelError
from repro.runtime import FaultPlan
from repro.runtime.parallel import (
    CRASH_EXIT_CODE,
    WorkerPool,
    chunk_indices,
    shard_rng,
    shard_seed,
)
from repro.telemetry import (
    MetricsRegistry,
    RunLoggerHook,
    Tracer,
    get_active_tracer,
)


def _square(x):
    return x * x


def _jittered_square(x):
    # Later payloads finish first, so completion order is scrambled and
    # submission-order reassembly is actually exercised.
    time.sleep(0.02 * (4 - x % 5))
    return x * x


def _boom(x):
    raise ValueError(f"payload {x} exploded")


def _boom_on_one(x):
    if x == 1:
        raise ValueError(f"payload {x} exploded")
    return x


def _domain_error(x):
    raise DataError(f"payload {x} is bad data")


def _sleep_forever(x):
    time.sleep(30)
    return x



def _traced_double(x):
    # Worker-side telemetry: the pool installs a shard-local ambient tracer
    # before calling us; spans recorded here must surface in the parent's
    # merged trace.
    with get_active_tracer().span("inner_stage", item=int(x)):
        pass
    return x * 2


class TestChunkIndices:
    @pytest.mark.parametrize("n,workers", [(1, 1), (5, 2), (8, 4), (3, 8)])
    def test_covers_range_contiguously(self, n, workers):
        chunks = chunk_indices(n, workers)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(n))
        assert len(chunks) <= max(workers, 1)

    def test_near_even_split(self):
        chunks = chunk_indices(10, 4)
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1 or sizes[-1] < sizes[0]

    def test_chunk_size_caps_every_chunk(self):
        chunks = chunk_indices(10, 2, chunk_size=3)
        assert all(len(chunk) <= 3 for chunk in chunks)
        assert [i for chunk in chunks for i in chunk] == list(range(10))

    def test_empty_input(self):
        assert chunk_indices(0, 4) == []

    @pytest.mark.parametrize("n,workers,chunk_size",
                             [(-1, 1, None), (4, 0, None), (4, 2, 0)])
    def test_invalid_arguments(self, n, workers, chunk_size):
        with pytest.raises(ConfigError):
            chunk_indices(n, workers, chunk_size)


class TestShardSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [shard_seed(7, shard) for shard in range(16)]
        assert seeds == [shard_seed(7, shard) for shard in range(16)]
        assert len(set(seeds)) == 16

    def test_rng_streams_differ(self):
        a = shard_rng(7, 0).integers(0, 2**32, size=4)
        b = shard_rng(7, 1).integers(0, 2**32, size=4)
        assert not np.array_equal(a, b)

    def test_negative_shard_rejected(self):
        with pytest.raises(ConfigError):
            shard_seed(7, -1)


class TestWorkerPoolMapping:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("thread", 3), ("process", 2),
    ])
    def test_results_in_submission_order(self, backend, workers):
        with WorkerPool(workers=workers, backend=backend) as pool:
            assert pool.map(_square, range(7)) == [i * i for i in range(7)]

    def test_thread_backend_reorders_completions_not_results(self):
        with WorkerPool(workers=4, backend="thread") as pool:
            assert pool.map(_jittered_square, range(8)) == [
                i * i for i in range(8)
            ]

    def test_auto_picks_serial_for_one_worker(self):
        assert WorkerPool(workers=1).backend == "serial"
        assert WorkerPool(workers=2).backend == "process"

    def test_map_reusable_while_open(self):
        with WorkerPool(workers=2, backend="thread") as pool:
            assert pool.map(_square, [1, 2]) == [1, 4]
            assert pool.map(_square, [3]) == [9]

    def test_from_config_worker_override(self):
        pool = WorkerPool.from_config(ParallelConfig(workers=4), workers=2)
        assert pool.workers == 2
        assert WorkerPool.from_config(ParallelConfig(workers=4)).workers == 4


class TestFailureContainment:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("thread", 2), ("process", 2),
    ])
    def test_worker_exception_names_shard(self, backend, workers):
        with WorkerPool(workers=workers, backend=backend) as pool:
            with pytest.raises(ParallelError, match=r"shard 1 of task 'job'"):
                pool.map(_boom_on_one, [0, 1], task="job")

    def test_parallel_error_carries_shard_and_task(self):
        with WorkerPool(workers=1, backend="serial") as pool:
            with pytest.raises(ParallelError) as excinfo:
                pool.map(_boom, [5], task="job")
        assert excinfo.value.shard == 0
        assert excinfo.value.task == "job"

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("thread", 2), ("process", 2),
    ])
    def test_domain_errors_keep_their_type(self, backend, workers):
        with WorkerPool(workers=workers, backend=backend) as pool:
            with pytest.raises(DataError, match="bad data"):
                pool.map(_domain_error, [0, 1])

    def test_thread_timeout_becomes_parallel_error(self):
        with WorkerPool(workers=2, backend="thread", timeout_s=0.2) as pool:
            with pytest.raises(ParallelError, match="no result within"):
                pool.map(_sleep_forever, [0])


class TestCrashInjection:
    def test_serial_backend_raises_named_error(self):
        faults = FaultPlan(seed=0)
        faults.inject_worker_crash(1)
        with WorkerPool(workers=1, backend="serial", faults=faults) as pool:
            with pytest.raises(ParallelError, match="shard 1") as excinfo:
                pool.map(_square, range(3), task="mint")
        assert excinfo.value.shard == 1
        assert str(CRASH_EXIT_CODE) in str(excinfo.value)
        assert any(kind == "worker_crash" for kind, *_ in faults.fired)

    def test_thread_backend_contains_crash(self):
        faults = FaultPlan(seed=0)
        faults.inject_worker_crash(0)
        with WorkerPool(workers=2, backend="thread", faults=faults) as pool:
            with pytest.raises(ParallelError, match="shard 0"):
                pool.map(_square, range(4))

    def test_process_backend_dead_worker_never_hangs(self):
        faults = FaultPlan(seed=0)
        faults.inject_worker_crash(1)
        with WorkerPool(workers=2, backend="process", timeout_s=60,
                        faults=faults) as pool:
            with pytest.raises(ParallelError, match="shard 1") as excinfo:
                pool.map(_square, range(4), task="mint")
        assert "died" in str(excinfo.value)

    def test_crash_flag_is_consumed_once(self):
        faults = FaultPlan(seed=0)
        faults.inject_worker_crash(0)
        with WorkerPool(workers=1, backend="serial", faults=faults) as pool:
            with pytest.raises(ParallelError):
                pool.map(_square, [1])
            # The flag fired; the next map succeeds.
            assert pool.map(_square, [2]) == [4]

    def test_negative_shard_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(seed=0).inject_worker_crash(-1)


class _SteppingClock:
    """Monotonic fake: returns the scripted readings, then holds the last."""

    def __init__(self, *readings):
        self._readings = list(readings)

    def __call__(self):
        if len(self._readings) > 1:
            return self._readings.pop(0)
        return self._readings[0]


class TestTimeouts:
    def test_per_call_override_beats_pool_default(self):
        with WorkerPool(workers=2, backend="thread", timeout_s=300.0) as pool:
            with pytest.raises(ParallelError, match="no result within 0.2s"):
                pool.map(_sleep_forever, [0], timeout_s=0.2)

    def test_timeout_error_is_typed(self):
        with WorkerPool(workers=2, backend="thread", timeout_s=300.0) as pool:
            with pytest.raises(ParallelError) as excinfo:
                pool.map(_sleep_forever, [0], task="trial", timeout_s=0.2)
        assert excinfo.value.kind == "timeout"
        assert excinfo.value.task == "trial"

    def test_deadline_runs_from_dispatch_fake_clock(self):
        # Submit reads the clock at 0.0 (deadline 10.0); the wait reads it
        # at 1000.0, so the remaining budget is already negative and the
        # pool must raise without ever sleeping the 30s payload out.
        clock = _SteppingClock(0.0, 1000.0)
        start = time.perf_counter()
        with WorkerPool(workers=2, backend="thread", timeout_s=10.0,
                        clock=clock) as pool:
            with pytest.raises(ParallelError, match="no result within"):
                pool.map(_sleep_forever, [0])
        assert time.perf_counter() - start < 5.0

    def test_invalid_per_call_timeout_rejected(self):
        with WorkerPool(workers=1, backend="serial") as pool:
            with pytest.raises(ConfigError, match="timeout_s"):
                pool.map(_square, [1], timeout_s=0)

    def test_error_kinds_by_failure_mode(self):
        with WorkerPool(workers=1, backend="serial") as pool:
            with pytest.raises(ParallelError) as excinfo:
                pool.map(_boom, [0])
        assert excinfo.value.kind == "error"
        faults = FaultPlan(seed=0)
        faults.inject_worker_crash(0)
        with WorkerPool(workers=1, backend="serial", faults=faults) as pool:
            with pytest.raises(ParallelError) as excinfo:
                pool.map(_square, [0])
        assert excinfo.value.kind == "crash"

    def test_parallel_error_pickle_keeps_identity(self):
        import pickle

        error = ParallelError("shard 2 of task 'trial': no result within 5s",
                              shard=2, task="trial", kind="timeout")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.shard == 2
        assert clone.task == "trial"
        assert clone.kind == "timeout"
        assert str(clone) == str(error)


class TestPoolTelemetry:
    def test_shards_counted_and_traced(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        with WorkerPool(workers=2, backend="thread", tracer=tracer,
                        registry=registry) as pool:
            pool.map(_square, range(5), task="job")
        assert tracer.count("parallel_shard") == 5
        assert registry.counter(
            "parallel_tasks_total", labels={"task": "job"}).value == 5

    def test_failure_counted_without_hook(self):
        registry = MetricsRegistry()
        with WorkerPool(workers=1, backend="serial",
                        registry=registry) as pool:
            with pytest.raises(ParallelError):
                pool.map(_boom, [0], task="job")
        assert registry.counter(
            "parallel_worker_failures_total", labels={"task": "job"}
        ).value == 1

    def test_failure_counted_once_with_hook(self):
        registry = MetricsRegistry()
        hook = RunLoggerHook(logger=None, registry=registry)
        with WorkerPool(workers=1, backend="serial", hook=hook,
                        registry=registry) as pool:
            with pytest.raises(ParallelError):
                pool.map(_boom, [0], task="job")
        assert registry.counter(
            "parallel_worker_failures_total", labels={"task": "job"}
        ).value == 1


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"backend": "gpu"},
        {"timeout_s": 0},
    ])
    def test_bad_pool_arguments(self, kwargs):
        with pytest.raises(ConfigError):
            WorkerPool(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"backend": "gpu"},
        {"chunk_size": 0},
        {"timeout_s": -1.0},
        {"kernel_cache_entries": 0},
    ])
    def test_bad_parallel_config(self, kwargs):
        with pytest.raises(ConfigError):
            ParallelConfig(**kwargs)

    def test_reexported_from_package_root(self):
        import repro

        assert repro.WorkerPool is WorkerPool
        assert repro.ParallelConfig is ParallelConfig
        assert repro.ParallelError is ParallelError


class TestTracePropagation:
    """Cross-process traces: worker spans merge under their shard span."""

    def _run(self, backend, workers=4):
        tracer = Tracer()
        registry = MetricsRegistry()
        with WorkerPool(workers=workers, backend=backend, tracer=tracer,
                        registry=registry) as pool:
            results = pool.map(_traced_double, range(workers), task="job")
        assert results == [x * 2 for x in range(workers)]
        return tracer, registry

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_worker_spans_from_every_worker_with_correct_parents(
            self, backend):
        tracer, _ = self._run(backend)
        shards = [r for r in tracer.records if r.name == "parallel_shard"]
        inner = [r for r in tracer.records if r.name == "inner_stage"]
        assert len(shards) == 4 and len(inner) == 4
        assert {r.origin for r in inner} == {"w0", "w1", "w2", "w3"}
        shard_by_worker = {r.metadata["worker"]: r for r in shards}
        for record in inner:
            assert record.parent_id == shard_by_worker[record.origin].span_id
        assert {r.trace_id for r in tracer.records} == {tracer.trace_id}

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_span_structure_identical_across_backends(self, backend):
        baseline, _ = self._run("serial")
        tracer, _ = self._run(backend)

        def shape(t):
            return sorted(
                (r.name, r.span_id, r.parent_id, r.origin, r.depth)
                for r in t.records
            )

        assert shape(tracer) == shape(baseline)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_worker_metrics_aggregate_to_serial_totals(self, backend):
        # Shards ship spans only; the absorbed spans become the parent's
        # stage counters through Tracer.record_into.
        def counts(tracer, registry):
            tracer.record_into(registry)
            return {
                (name, tuple(sorted(series["labels"].items()))):
                    series.get("value", series.get("count"))
                for name, family in registry.snapshot().items()
                for series in family["series"]
            }

        serial = counts(*self._run("serial"))
        parallel = counts(*self._run(backend))
        assert parallel == serial
        assert parallel[("stages_total", (("stage", "inner_stage"),))] == 4

    def test_worker_spans_survive_repeated_maps_without_collisions(self):
        tracer = Tracer()
        with WorkerPool(workers=2, backend="thread", tracer=tracer) as pool:
            pool.map(_traced_double, range(2), task="a")
            pool.map(_traced_double, range(2), task="b")
        span_ids = [r.span_id for r in tracer.records]
        assert len(span_ids) == len(set(span_ids))

    def test_untraced_pool_ships_no_telemetry(self):
        registry = MetricsRegistry()
        with WorkerPool(workers=2, backend="thread",
                        registry=registry) as pool:
            results = pool.map(_square, range(4), task="job")
        assert results == [0, 1, 4, 9]
        assert list(registry.snapshot()) == ["parallel_tasks_total"]

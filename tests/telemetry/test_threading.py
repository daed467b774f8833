"""Concurrency hammer: many threads logging, tracing and counting at once.

The serving loop's submit, batcher and watchdog threads and the thread
backend of ``WorkerPool`` all share one run log, one tracer and one metrics
registry.  A tiny switch interval forces the interpreter to interleave the
threads inside every read-modify-write, so an unlocked sequence number or a
shared span stack shows up on every run instead of once in a while.
"""

import sys
import threading

from repro.telemetry import MetricsRegistry, RunLogger, Tracer, read_run_log

THREADS = 8
EVENTS = 2000
JOIN_TIMEOUT_S = 120.0


def _hammer(work):
    """Run ``work(thread_index)`` on THREADS threads released together."""
    barrier = threading.Barrier(THREADS)
    errors = []

    def body(index):
        try:
            barrier.wait()
            work(index)
        except BaseException as exc:  # surfaced below, not swallowed
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,), daemon=True)
               for i in range(THREADS)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
            assert not thread.is_alive(), "hammer thread did not finish"
    finally:
        sys.setswitchinterval(previous)
    assert not errors, errors


def test_concurrent_run_log_lines_are_whole_and_sequenced(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunLogger(path) as logger:
        def work(index):
            for i in range(EVENTS):
                logger.emit("stage_end", stage=f"t{index}", seconds=0.0,
                            count=i)

        _hammer(work)

    records = read_run_log(path)  # raises on any torn or interleaved line
    assert len(path.read_text().splitlines()) == THREADS * EVENTS
    assert len(records) == THREADS * EVENTS
    seqs = [record["seq"] for record in records]
    assert seqs == list(range(THREADS * EVENTS))
    for index in range(THREADS):
        mine = [r["count"] for r in records if r["stage"] == f"t{index}"]
        assert mine == list(range(EVENTS))


def test_concurrent_spans_keep_exact_aggregates_and_own_parents():
    tracer = Tracer()

    def work(index):
        for i in range(EVENTS):
            with tracer.span("outer", thread=index):
                with tracer.span("inner", thread=index):
                    pass
            tracer.add_record("tick", 1.0, thread=index)

    _hammer(work)

    records = tracer.records
    by_id = {record.span_id: record for record in records}
    assert len(by_id) == len(records) == 3 * THREADS * EVENTS
    for name in ("outer", "inner", "tick"):
        mine = [r for r in records if r.name == name]
        assert tracer.count(name) == len(mine) == THREADS * EVENTS
        assert tracer.total(name) == sum(r.seconds for r in mine)
    assert tracer.total("tick") == float(THREADS * EVENTS)
    for record in records:
        if record.name == "inner":
            parent = by_id[record.parent_id]
            assert parent.name == "outer"
            assert parent.metadata["thread"] == record.metadata["thread"]
            assert record.depth == 1
        else:
            assert record.parent_id is None, record
            assert record.depth == 0


def test_concurrent_counter_increments_are_exact():
    registry = MetricsRegistry()

    def work(index):
        mine = registry.counter("hammer_total", labels={"thread": index})
        for _ in range(EVENTS):
            registry.counter("hammer_total").inc()
            mine.inc()

    _hammer(work)

    assert registry.counter("hammer_total").value == THREADS * EVENTS
    for index in range(THREADS):
        assert registry.counter(
            "hammer_total", labels={"thread": index}).value == EVENTS

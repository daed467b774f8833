"""Run-log JSONL: round-trip, crash tolerance, sequence validation."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    EVENT_TYPES,
    EVENTS,
    SCHEMA_VERSION,
    MetricsRegistry,
    RunLogger,
    RunLoggerHook,
    next_run_id,
    read_run_log,
    split_runs,
    validate_run_log,
)


def _write_run(path, epochs=2):
    with RunLogger(path) as logger:
        logger.emit("run_start", command="train", node="N10")
        for epoch in range(1, epochs + 1):
            logger.emit(
                "epoch_end", epoch=epoch, seconds=0.5, phase="cgan",
                d_loss=1.0, g_loss=2.0, l1=0.3,
            )
        logger.emit("stage_end", stage="cgan", seconds=1.0)
        logger.emit("eval_end", ede_mean_nm=1.5)
        logger.emit("run_end", status="ok", seconds=2.0)
        return logger.run_id


class TestRunLogger:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_id = _write_run(path)
        events = read_run_log(path)
        assert [e["event"] for e in events] == [
            "run_start", "epoch_end", "epoch_end",
            "stage_end", "eval_end", "run_end",
        ]
        assert all(e["run_id"] == run_id for e in events)
        assert all(e["schema_version"] == SCHEMA_VERSION for e in events)
        assert [e["seq"] for e in events] == list(range(6))
        validate_run_log(events)

    def test_epoch_end_carries_losses_and_seconds(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path, epochs=1)
        epoch = read_run_log(path)[1]
        assert epoch["epoch"] == 1
        assert epoch["d_loss"] == 1.0
        assert epoch["g_loss"] == 2.0
        assert epoch["l1"] == 0.3
        assert epoch["seconds"] == 0.5

    def test_run_ids_are_monotonic(self):
        first, second = next_run_id(), next_run_id()
        assert first != second
        assert int(first.rsplit("-", 1)[1]) < int(second.rsplit("-", 1)[1])

    def test_rejects_unknown_event_type(self, tmp_path):
        with RunLogger(tmp_path / "run.jsonl") as logger:
            with pytest.raises(TelemetryError):
                logger.emit("mystery_event")

    def test_emit_after_close_raises(self, tmp_path):
        logger = RunLogger(tmp_path / "run.jsonl")
        logger.close()
        assert logger.closed
        with pytest.raises(TelemetryError):
            logger.emit("run_start")

    def test_append_mode_preserves_prior_runs(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        _write_run(path, epochs=1)
        _write_run(path, epochs=1)
        runs = split_runs(read_run_log(path))
        assert len(runs) == 2
        for run in runs:
            validate_run_log(run)
        assert runs[0][0]["run_id"] != runs[1][0]["run_id"]


class TestCrashTolerance:
    def test_partial_log_readable_after_simulated_crash(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogger(path) as logger:
            logger.emit("run_start", command="train")
            logger.emit("epoch_end", epoch=1, seconds=0.1, phase="cgan",
                        d_loss=1.0, g_loss=2.0, l1=0.3)
            # crash: process dies mid-write of the next record; the flushed
            # prefix plus torn garbage is what remains on disk
            with open(path, "a") as handle:
                handle.write('{"schema_version": 1, "run_id": "run-')
        events = read_run_log(path)
        assert [e["event"] for e in events] == ["run_start", "epoch_end"]
        validate_run_log(events, require_run_end=False)
        with pytest.raises(TelemetryError):
            validate_run_log(events)  # missing run_end is flagged by default

    def test_corruption_in_the_middle_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path)
        lines = path.read_text().splitlines()
        lines[2] = "not json at all"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TelemetryError):
            read_run_log(path)


class TestValidation:
    def _events(self, path, tmp_path=None):
        _write_run(path)
        return read_run_log(path)

    def test_empty_log_rejected(self):
        with pytest.raises(TelemetryError):
            validate_run_log([])

    def test_must_open_with_run_start(self, tmp_path):
        events = self._events(tmp_path / "r.jsonl")
        with pytest.raises(TelemetryError):
            validate_run_log(events[1:], require_run_end=True)

    def test_non_monotonic_seq_rejected(self, tmp_path):
        events = self._events(tmp_path / "r.jsonl")
        events[2]["seq"] = events[1]["seq"]
        with pytest.raises(TelemetryError):
            validate_run_log(events)

    def test_non_increasing_epoch_rejected(self, tmp_path):
        events = self._events(tmp_path / "r.jsonl")
        events[2]["epoch"] = events[1]["epoch"]
        with pytest.raises(TelemetryError):
            validate_run_log(events)

    def test_mixed_run_ids_rejected(self, tmp_path):
        events = self._events(tmp_path / "r.jsonl")
        events[3]["run_id"] = "run-999-9999"
        with pytest.raises(TelemetryError):
            validate_run_log(events)

    def test_run_end_must_be_terminal(self, tmp_path):
        events = self._events(tmp_path / "r.jsonl")
        reordered = events[:-2] + [events[-1], events[-2]]
        # keep seq increasing so only the placement rule fires
        for seq, record in enumerate(reordered):
            record["seq"] = seq
        with pytest.raises(TelemetryError):
            validate_run_log(reordered)

    def test_wrong_schema_version_rejected(self, tmp_path):
        events = self._events(tmp_path / "r.jsonl")
        events[1]["schema_version"] = 99
        with pytest.raises(TelemetryError):
            validate_run_log(events)

    def _breaker_run(self, path, edges):
        with RunLogger(path) as logger:
            logger.emit("run_start", command="serve")
            for slot, source, target in edges:
                logger.emit("breaker", slot=slot, from_state=source,
                            to_state=target, reason="test")
            logger.emit("run_end", status="ok")
        return read_run_log(path)

    def test_each_slot_runs_its_own_breaker_state_machine(self, tmp_path):
        validate_run_log(self._breaker_run(tmp_path / "r.jsonl", [
            ("incumbent", "closed", "open"),
            ("candidate", "closed", "open"),
            ("incumbent", "open", "half_open"),
            ("candidate", "open", "half_open"),
        ]))

    def test_breaker_edge_from_the_wrong_state_rejected(self, tmp_path):
        events = self._breaker_run(tmp_path / "r.jsonl", [
            ("incumbent", "closed", "open"),
            ("incumbent", "closed", "open"),
        ])
        with pytest.raises(TelemetryError,
                           match="from 'closed' but the incumbent breaker "
                                 "was 'open'"):
            validate_run_log(events)

    def test_model_swap_naming_a_slot_closes_only_its_breaker(
            self, tmp_path):
        path = tmp_path / "r.jsonl"

        def edge(logger, slot, source, target):
            logger.emit("breaker", slot=slot, from_state=source,
                        to_state=target, reason="test")

        with RunLogger(path) as logger:
            logger.emit("run_start", command="serve")
            edge(logger, "incumbent", "closed", "open")
            edge(logger, "candidate", "closed", "open")
            logger.emit("model_swap", model="litho", version="1",
                        reason="swap", slot="incumbent")
            edge(logger, "incumbent", "closed", "open")
            edge(logger, "candidate", "open", "half_open")
            # a registry pointer move names no slot and closes nothing
            logger.emit("model_swap", model="litho", version="2",
                        reason="promote")
            edge(logger, "incumbent", "open", "half_open")
            logger.emit("run_end", status="ok")
        validate_run_log(read_run_log(path))


#: a minimal valid body (exactly the required fields) for every logged row
MINIMAL = {
    "run_start": {},
    "epoch_end": {"epoch": 1, "phase": "cgan", "seconds": 0.5},
    "checkpoint": {"phase": "cgan", "epoch": 1, "path": "ckpt.npz"},
    "rollback": {"phase": "cgan"},
    "stage_end": {"stage": "optical", "seconds": 0.5},
    "eval_end": {},
    "admission": {"admitted": 3, "rejected": 0},
    "fallback": {"clip": 2, "cause": "degenerate"},
    "breaker": {"slot": "incumbent", "from_state": "closed",
                "to_state": "open"},
    "queue_full": {"depth": 4, "capacity": 4},
    "shed": {"request": 7, "tenant": "opc", "reason": "quota"},
    "model_swap": {"model": "litho", "version": "1", "reason": "swap"},
    "canary_verdict": {"model": "litho", "verdict": "promote"},
    "data_quarantine": {"quarantined": 1, "total": 4},
    "data_repair": {"repaired": 1},
    "worker_crash": {"shard": 0, "task": "mint"},
    "trial_start": {"digest": "d1", "attempt": 1},
    "trial_retry": {"digest": "d1", "attempt": 1, "reason": "diverged"},
    "trial_end": {"digest": "d1", "status": "completed"},
    "ilt_start": {"clips": 1, "steps": 2},
    "ilt_step": {"step": 0},
    "ilt_end": {"verified": 3, "epe_ilt_nm": 1.5},
    "run_end": {"status": "ok"},
}

FIELD_CASES = [(name, key) for name in EVENT_TYPES
               for key in EVENTS[name].fields]


def _run_with(name, body):
    """A one-run stream holding ``name`` with ``body``, and its index."""
    bodies = [("run_start", {}), (name, body), ("run_end", {"status": "ok"})]
    if name == "run_start":
        del bodies[0]
    elif name == "run_end":
        del bodies[2]
    events = [
        {"schema_version": SCHEMA_VERSION, "run_id": "run-t", "seq": seq,
         "time_unix": 0.0, "event": event, **fields}
        for seq, (event, fields) in enumerate(bodies)
    ]
    return events, 0 if name == "run_start" else 1


class TestEventTable:
    def test_every_logged_row_has_a_minimal_record(self):
        assert set(MINIMAL) == set(EVENT_TYPES)
        for name in EVENT_TYPES:
            assert set(MINIMAL[name]) == set(EVENTS[name].fields), name
            assert EVENTS[name].doc.strip(), name

    @pytest.mark.parametrize("name", EVENT_TYPES)
    def test_minimal_record_validates(self, name):
        events, _ = _run_with(name, dict(MINIMAL[name]))
        validate_run_log(events)

    @pytest.mark.parametrize("name,key", FIELD_CASES)
    def test_dropped_field_is_named(self, name, key):
        body = {k: v for k, v in MINIMAL[name].items() if k != key}
        events, index = _run_with(name, body)
        with pytest.raises(TelemetryError,
                           match=rf"^{name} {index} .*{key}"):
            validate_run_log(events)

    @pytest.mark.parametrize("name,key", FIELD_CASES)
    def test_corrupted_field_is_named(self, name, key):
        events, index = _run_with(name, {**MINIMAL[name], key: None})
        with pytest.raises(TelemetryError,
                           match=rf"^{name} {index} has bad {key} None"):
            validate_run_log(events)

    def test_row_rules_check_fields_against_each_other(self):
        events, _ = _run_with("queue_full", {"depth": 3, "capacity": 4})
        with pytest.raises(TelemetryError, match="queue_full 1 .*not full"):
            validate_run_log(events)
        events, _ = _run_with("rollback", {"phase": "serving"})
        with pytest.raises(TelemetryError,
                           match="rollback 1 .*without naming its model"):
            validate_run_log(events)

    @pytest.mark.parametrize("name", EVENT_TYPES)
    def test_minimal_record_feeds_its_metrics(self, name):
        # a record the table accepts must not raise in its metric effects
        RunLoggerHook(registry=MetricsRegistry()).emit(
            name, **MINIMAL[name])

    def test_metric_only_rows_write_no_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        registry = MetricsRegistry()
        with RunLogger(path) as logger:
            hook = RunLoggerHook(logger=logger, registry=registry)
            hook.emit("queue_depth", depth=3)
            hook.emit("clip_served", clip=0, provenance="model",
                      verdict="ok", seconds=0.01)
            with pytest.raises(TelemetryError):
                logger.emit("queue_depth", depth=3)
        assert path.read_text() == ""
        assert registry.gauge("serve_queue_depth").value == 3
        assert registry.counter(
            "serve_clips_total", labels={"provenance": "model"}).value == 1

    def test_bridge_rejects_events_missing_from_the_table(self):
        with pytest.raises(TelemetryError, match="mystery_event"):
            RunLoggerHook(registry=MetricsRegistry()).emit("mystery_event")


class TestDataIntegrityEvents:
    def _run_with(self, path, emit):
        with RunLogger(path) as logger:
            logger.emit("run_start", command="evaluate")
            emit(logger)
            logger.emit("run_end", status="ok", seconds=1.0)
        return read_run_log(path)

    def test_quarantine_event_round_trips(self, tmp_path):
        events = self._run_with(
            tmp_path / "r.jsonl",
            lambda log: log.emit(
                "data_quarantine", quarantined=2, total=12,
                reasons={"hash": 2}, manifest_missing=False),
        )
        validate_run_log(events)
        record = events[1]
        assert record["event"] == "data_quarantine"
        assert record["quarantined"] == 2
        assert record["total"] == 12
        assert record["reasons"] == {"hash": 2}

    def test_repair_event_round_trips(self, tmp_path):
        events = self._run_with(
            tmp_path / "r.jsonl",
            lambda log: log.emit("data_repair", repaired=3,
                                 indices=[1, 4, 7]),
        )
        validate_run_log(events)
        assert events[1]["repaired"] == 3
        assert events[1]["indices"] == [1, 4, 7]

    def test_quarantine_exceeding_total_rejected(self, tmp_path):
        events = self._run_with(
            tmp_path / "r.jsonl",
            lambda log: log.emit("data_quarantine", quarantined=13,
                                 total=12),
        )
        with pytest.raises(TelemetryError, match="quarantines"):
            validate_run_log(events)

    def test_negative_counts_rejected(self, tmp_path):
        events = self._run_with(
            tmp_path / "r.jsonl",
            lambda log: log.emit("data_quarantine", quarantined=0,
                                 total=12),
        )
        events[1]["quarantined"] = -1
        with pytest.raises(TelemetryError, match="bad quarantined"):
            validate_run_log(events)

    def test_bad_repaired_count_rejected(self, tmp_path):
        events = self._run_with(
            tmp_path / "r.jsonl",
            lambda log: log.emit("data_repair", repaired=1),
        )
        events[1]["repaired"] = "three"
        with pytest.raises(TelemetryError, match="bad repaired"):
            validate_run_log(events)


class TestForwardCompat:
    """An older reader must survive logs written by a newer repro."""

    def _append(self, path, record):
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def test_read_run_log_tolerates_unknown_event_types(self, tmp_path):
        path = tmp_path / "run.jsonl"
        logger = RunLogger(path)
        logger.emit("run_start", command="train")
        logger.close()
        self._append(path, {
            "schema_version": SCHEMA_VERSION, "run_id": logger.run_id,
            "seq": 99, "event": "quantum_flux", "time_unix": 0.0,
        })
        events = read_run_log(path)
        assert events[-1]["event"] == "quantum_flux"
        # strict validation still rejects it — the reader is lenient,
        # the single-run checker is not
        with pytest.raises(TelemetryError, match="unknown type"):
            validate_run_log(events, require_run_end=False)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(path)
        text = path.read_text().splitlines()
        text.insert(1, "")
        text.insert(3, "   ")
        path.write_text("\n".join(text) + "\n")
        events = read_run_log(path)
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"

    def test_truncated_final_line_then_new_run_appends_cleanly(self, tmp_path):
        # crash mid-write, then RunLogger starts a new run in the same file:
        # the torn record sits on its own line, so the reader still refuses
        # (corruption is no longer final) — recovery is a fresh log, and
        # this pins that contract down
        path = tmp_path / "run.jsonl"
        _write_run(path)
        with open(path, "a") as handle:
            handle.write('{"schema_version": 1, "torn')
        events = read_run_log(path)  # torn final line tolerated
        assert events[-1]["event"] == "run_end"


class TestSplitRuns:
    def test_interleaved_multi_run_log_groups_by_run_start(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ids = [_write_run(path) for _ in range(3)]
        runs = split_runs(read_run_log(path))
        assert len(runs) == 3
        assert [run[0]["run_id"] for run in runs] == ids
        for run in runs:
            assert run[0]["event"] == "run_start"
            assert run[-1]["event"] == "run_end"
            validate_run_log(run)

    def test_orphaned_leading_tail_forms_its_own_group(self, tmp_path):
        # the tail of a previously truncated log (no run_start) must not be
        # silently folded into the following complete run
        path = tmp_path / "run.jsonl"
        orphan = {"schema_version": SCHEMA_VERSION, "run_id": "run-lost",
                  "seq": 7, "event": "epoch_end", "time_unix": 0.0,
                  "epoch": 3, "phase": "cgan"}
        with open(path, "w") as handle:
            handle.write(json.dumps(orphan) + "\n")
        run_id = _write_run(path)
        runs = split_runs(read_run_log(path))
        assert len(runs) == 2
        assert runs[0] == [orphan]
        assert runs[1][0]["run_id"] == run_id

    def test_empty_stream_has_no_runs(self):
        assert split_runs([]) == []


class TestTrialEvents:
    def test_trial_lifecycle_round_trips_and_validates(self, tmp_path):
        from repro.telemetry.events import (
            RunLogger,
            read_run_log,
            validate_run_log,
        )

        path = tmp_path / "run.jsonl"
        with RunLogger(path) as logger:
            logger.emit("run_start", command="sweep")
            logger.emit("trial_start", digest="d1", attempt=1,
                        trial="trial-000")
            logger.emit("trial_retry", digest="d1", attempt=1,
                        reason="diverged", trial="trial-000", delay_s=0.5)
            logger.emit("trial_start", digest="d1", attempt=2,
                        trial="trial-000")
            logger.emit("trial_end", digest="d1", status="completed",
                        trial="trial-000", attempts=2, seconds=4.2)
            logger.emit("run_end", status="ok")
        events = read_run_log(path)
        validate_run_log(events)
        kinds = [e["event"] for e in events]
        assert kinds == ["run_start", "trial_start", "trial_retry",
                         "trial_start", "trial_end", "run_end"]
        assert events[2]["reason"] == "diverged"
        assert events[4]["status"] == "completed"

    def test_trial_events_without_digest_rejected(self, tmp_path):
        from repro.errors import TelemetryError
        from repro.telemetry.events import (
            RunLogger,
            read_run_log,
            validate_run_log,
        )

        path = tmp_path / "run.jsonl"
        with RunLogger(path) as logger:
            logger.emit("run_start", command="sweep")
            logger.emit("trial_start", digest="", attempt=1)
            logger.emit("run_end", status="ok")
        with pytest.raises(TelemetryError, match="bad digest"):
            validate_run_log(read_run_log(path))

    def test_trial_retry_requires_a_reason(self, tmp_path):
        from repro.errors import TelemetryError
        from repro.telemetry.events import (
            RunLogger,
            read_run_log,
            validate_run_log,
        )

        path = tmp_path / "run.jsonl"
        with RunLogger(path) as logger:
            logger.emit("run_start", command="sweep")
            logger.emit("trial_retry", digest="d1", attempt=1, reason="")
            logger.emit("run_end", status="ok")
        with pytest.raises(TelemetryError, match="bad reason"):
            validate_run_log(read_run_log(path))

    def test_trial_end_status_must_be_terminal(self, tmp_path):
        from repro.errors import TelemetryError
        from repro.telemetry.events import (
            RunLogger,
            read_run_log,
            validate_run_log,
        )

        path = tmp_path / "run.jsonl"
        with RunLogger(path) as logger:
            logger.emit("run_start", command="sweep")
            logger.emit("trial_end", digest="d1", status="retrying",
                        attempts=1)
            logger.emit("run_end", status="ok")
        with pytest.raises(TelemetryError, match="bad status"):
            validate_run_log(read_run_log(path))

"""Run health reports: correlation, fail-closed inputs, forward compat."""

import json
from pathlib import Path

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    MetricsRegistry,
    RunLogger,
    Tracer,
    build_report,
    write_chrome_trace,
    write_metrics,
)
from repro.telemetry.profile import LayerStats, ProfileReport

HERE = Path(__file__).parent


def _write_good_log(path):
    with RunLogger(path) as logger:
        logger.emit("run_start", command="mint", node="N10",
                    build={"version": "1.0.0", "git_sha": "abc1234"})
        logger.emit("stage_end", stage="optical", seconds=2.0, count=8)
        logger.emit("stage_end", stage="resist", seconds=1.0, count=8)
        logger.emit("run_end", status="ok", seconds=3.5)
        return logger.run_id


def _write_trace(path):
    tracer = Tracer()
    tracer.add_record("parallel_shard", 0.4, shard=0, worker="w0")
    tracer.add_record("parallel_shard", 0.2, shard=1, worker="w1")
    tracer.add_record("parallel_shard", 0.3, shard=2, worker="w0")
    return write_chrome_trace(path, tracer)


class TestBuildReport:
    def test_good_log_yields_healthy_report(self, tmp_path):
        log = tmp_path / "run.jsonl"
        run_id = _write_good_log(log)
        report = build_report(log)
        assert report.healthy
        assert [r.run_id for r in report.runs] == [run_id]
        run = report.runs[0]
        assert (run.command, run.status) == ("mint", "ok")
        assert run.seconds == pytest.approx(3.5)
        assert run.build["git_sha"] == "abc1234"
        assert report.stages["optical"] == {"seconds": 2.0, "count": 8}
        assert report.sources == {"log": str(log)}

    def test_missing_run_end_marks_run_truncated(self, tmp_path):
        log = tmp_path / "run.jsonl"
        logger = RunLogger(log)
        logger.emit("run_start", command="train")
        logger.close()
        report = build_report(log)
        assert not report.healthy
        assert report.runs[0].status == "truncated"

    def test_multi_run_log_summarized_per_run(self, tmp_path):
        log = tmp_path / "run.jsonl"
        _write_good_log(log)
        _write_good_log(log)
        report = build_report(log)
        assert len(report.runs) == 2
        assert report.healthy
        # stage seconds accumulate across runs
        assert report.stages["optical"]["seconds"] == pytest.approx(4.0)

    def test_unknown_event_types_are_tolerated_and_counted(self, tmp_path):
        log = tmp_path / "run.jsonl"
        _write_good_log(log)
        record = {"schema_version": 1, "event": "quantum_flux",
                  "run_id": "run-x", "seq": 99}
        with log.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        report = build_report(log)
        assert report.unknown_events == 1
        assert report.healthy  # the run itself still reads as ok

    def test_missing_log_fails_closed_naming_path(self, tmp_path):
        missing = tmp_path / "absent.jsonl"
        with pytest.raises(TelemetryError, match=str(missing)):
            build_report(missing)

    def test_corrupt_log_fails_closed_naming_path(self, tmp_path):
        log = tmp_path / "run.jsonl"
        _write_good_log(log)
        text = log.read_text().splitlines()
        text.insert(1, "{{{ not json")
        log.write_text("\n".join(text) + "\n")
        with pytest.raises(TelemetryError, match=str(log)):
            build_report(log)

    @pytest.mark.parametrize("event, fields, problem", [
        ("trial_end", {"digest": "d1", "status": "retries_by_reason"},
         "trial_end 1 has bad status 'retries_by_reason'"),
        ("stage_end", {"stage": "optical", "seconds": "fast"},
         "stage_end 1 has bad seconds 'fast'"),
        # optional fields the report reads fail closed too
        ("run_end", {"status": "ok", "seconds": "fast"}, "'fast'"),
    ], ids=["trial_end-status", "stage_end-seconds", "run_end-seconds"])
    def test_malformed_known_record_fails_closed_naming_path(
            self, tmp_path, event, fields, problem):
        log = tmp_path / "run.jsonl"
        with RunLogger(log) as logger:
            logger.emit("run_start", command="sweep")
            logger.emit(event, **fields)
        with pytest.raises(TelemetryError, match=str(log)) as excinfo:
            build_report(log)
        assert problem in str(excinfo.value)

    def test_worker_usage_and_skew_from_trace(self, tmp_path):
        log = tmp_path / "run.jsonl"
        _write_good_log(log)
        trace = _write_trace(tmp_path / "trace.json")
        report = build_report(log, trace_path=trace)
        lanes = {u.worker: u for u in report.workers}
        assert lanes["w0"].shards == 2
        assert lanes["w0"].busy_s == pytest.approx(0.7)
        assert lanes["w1"].busy_s == pytest.approx(0.2)
        # skew = max busy / mean busy = 0.7 / 0.45
        assert report.worker_skew == pytest.approx(0.7 / 0.45)

    def test_corrupt_trace_fails_closed_naming_path(self, tmp_path):
        log = tmp_path / "run.jsonl"
        _write_good_log(log)
        bad = tmp_path / "trace.json"
        bad.write_text('{"traceEvents": [{"ph": "X"}]}')
        with pytest.raises(TelemetryError, match=str(bad)):
            build_report(log, trace_path=bad)

    def test_headline_counters_summed_across_series(self, tmp_path):
        log = tmp_path / "run.jsonl"
        _write_good_log(log)
        registry = MetricsRegistry()
        registry.counter("parallel_tasks_total", labels={"task": "a"}).inc(2)
        registry.counter("parallel_tasks_total", labels={"task": "b"}).inc(3)
        registry.counter("unrelated_total").inc(9)
        metrics = write_metrics(tmp_path / "metrics.json", registry)
        report = build_report(log, metrics_path=metrics)
        assert report.counters == {"parallel_tasks_total": 5.0}

    def test_metrics_without_wrapper_fails_closed(self, tmp_path):
        log = tmp_path / "run.jsonl"
        _write_good_log(log)
        bad = tmp_path / "metrics.json"
        bad.write_text('{"no_metrics_key": {}}')
        with pytest.raises(TelemetryError, match=str(bad)):
            build_report(log, metrics_path=bad)

    def test_profile_hot_layers_attached(self, tmp_path):
        log = tmp_path / "run.jsonl"
        _write_good_log(log)
        profile = ProfileReport(rows=(
            LayerStats("gen", 0, "Conv", "-", calls=1,
                       forward_s=1.0, flops=500),
            LayerStats("gen", 1, "ReLU", "-", calls=1,
                       forward_s=0.1, flops=5),
        )).save(tmp_path / "profile.json")
        report = build_report(log, profile_path=profile)
        assert report.hot_layers[0]["op"] == "Conv"
        assert report.profile_forward_s == pytest.approx(1.1)

    def test_to_dict_and_text_render(self, tmp_path):
        log = tmp_path / "run.jsonl"
        _write_good_log(log)
        report = build_report(log, trace_path=_write_trace(
            tmp_path / "trace.json"))
        payload = report.to_dict()
        json.dumps(payload)  # must be serializable
        assert payload["healthy"] is True
        text = report.format_text()
        assert "runs: 1 (healthy)" in text
        assert "workers: 2 lanes" in text
        assert "[v1.0.0@abc1234]" in text

    def test_save_round_trips(self, tmp_path):
        log = tmp_path / "run.jsonl"
        _write_good_log(log)
        report = build_report(log)
        saved = report.save(tmp_path / "report.json")
        assert json.loads(saved.read_text()) == report.to_dict()


class TestSweepSection:
    def test_trial_events_summarized(self, tmp_path):
        log = tmp_path / "run.jsonl"
        with RunLogger(log) as logger:
            logger.emit("run_start", command="sweep")
            logger.emit("trial_start", digest="d1", attempt=1,
                        trial="trial-000")
            logger.emit("trial_retry", digest="d1", attempt=1,
                        reason="diverged", trial="trial-000", delay_s=0.5)
            logger.emit("trial_start", digest="d1", attempt=2,
                        trial="trial-000")
            logger.emit("trial_end", digest="d1", status="completed",
                        trial="trial-000", attempts=2)
            logger.emit("trial_start", digest="d2", attempt=1,
                        trial="trial-001")
            logger.emit("trial_end", digest="d2", status="failed",
                        trial="trial-001", attempts=1, reason="timeout")
            logger.emit("run_end", status="ok")
        report = build_report(log)
        assert report.sweep["trials"] == 2
        assert report.sweep["completed"] == 1
        assert report.sweep["failed"] == 1
        assert report.sweep["retries_by_reason"] == {"diverged": 1}
        text = report.format_text()
        assert "sweep: trials=2" in text
        payload = report.to_dict()
        assert payload["sweep"]["completed"] == 1

    def test_report_without_trials_omits_sweep_line(self, tmp_path):
        log = tmp_path / "run.jsonl"
        _write_good_log(log)
        report = build_report(log)
        assert "sweep:" not in report.format_text()

    def test_report_without_serving_activity_omits_serving_line(
            self, tmp_path):
        log = tmp_path / "run.jsonl"
        _write_good_log(log)
        report = build_report(log)
        assert report.serving["canary_verdicts"] == {
            "promote": 0, "rollback": 0}
        assert "serving:" not in report.format_text()


class TestGoldenLog:
    """The report over every logged event of ``golden_events.json``.

    ``golden_report.txt`` and ``golden_report.json`` beside the fixture
    pin the text and JSON forms byte for byte.
    """

    def _write_golden_log(self, path):
        runs = 0
        logger = None
        for entry in json.loads((HERE / "golden_events.json").read_text()):
            for record in entry["records"]:
                if record["event"] == "run_start":
                    if logger is not None:
                        logger.close()
                    runs += 1
                    logger = RunLogger(path, run_id=f"run-golden-{runs}")
                fields = {key: value for key, value in record.items()
                          if key not in ("schema_version", "seq", "event")}
                logger.emit(record["event"], **fields)
        logger.close()

    def test_report_matches_the_recording(self, tmp_path):
        log = tmp_path / "golden.jsonl"
        self._write_golden_log(log)
        report = build_report(log)
        assert [run.events for run in report.runs] == [27, 12]
        assert all(report.incidents.values())
        payload = report.to_dict()
        payload["sources"]["log"] = log.name
        assert report.format_text() + "\n" == (
            HERE / "golden_report.txt").read_text()
        assert json.dumps(payload, indent=2) + "\n" == (
            HERE / "golden_report.json").read_text()

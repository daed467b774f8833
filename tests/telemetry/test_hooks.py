"""Hook protocol: null-object default, training callbacks, the bridge."""

from repro.telemetry import (
    EVENTS,
    NULL_HOOK,
    MetricsRegistry,
    RunLogger,
    RunLoggerHook,
    TelemetryHook,
    read_run_log,
)


class RecordingHook(TelemetryHook):
    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append((event, fields))


class TestNullHook:
    def test_every_callback_is_a_noop(self):
        for event in EVENTS:
            NULL_HOOK.emit(event)
        NULL_HOOK.on_epoch_end(1, 0.1, 0.2, 0.3, 0.4)
        NULL_HOOK.on_aux_epoch_end(1, 0.5, 0.1, phase="center-cnn")


class TestTrainingCallbacks:
    def test_epoch_callbacks_forward_to_emit(self):
        hook = RecordingHook()
        hook.on_epoch_end(3, 0.1, 0.2, 0.3, 0.4)
        hook.on_aux_epoch_end(1, 0.5, 0.1, phase="center-cnn")
        assert hook.events == [
            ("epoch_end", {"epoch": 3, "seconds": 0.4, "phase": "cgan",
                           "d_loss": 0.1, "g_loss": 0.2, "l1": 0.3}),
            ("epoch_end", {"epoch": 1, "seconds": 0.1,
                           "phase": "center-cnn", "loss": 0.5}),
        ]


class TestRunLoggerHook:
    def test_bridges_epochs_to_events_and_metrics(self, tmp_path):
        path = tmp_path / "run.jsonl"
        registry = MetricsRegistry()
        with RunLogger(path) as logger:
            hook = RunLoggerHook(logger=logger, registry=registry)
            hook.emit("run_start", command="train")
            hook.on_epoch_end(1, 1.0, 2.0, 0.3, 0.25)
            hook.on_aux_epoch_end(1, 0.4, 0.1, phase="center-cnn")
            hook.emit("stage_end", stage="optical", seconds=0.05)
            hook.emit("eval_end", ede_mean_nm=1.2)
            hook.emit("run_end", status="ok")

        events = read_run_log(path)
        assert [e["event"] for e in events] == [
            "run_start", "epoch_end", "epoch_end",
            "stage_end", "eval_end", "run_end",
        ]
        cgan_epoch = events[1]
        assert cgan_epoch["phase"] == "cgan"
        assert cgan_epoch["d_loss"] == 1.0
        aux_epoch = events[2]
        assert aux_epoch["phase"] == "center-cnn"
        assert aux_epoch["loss"] == 0.4

        snapshot = registry.snapshot()
        epoch_series = {
            tuple(s["labels"].items()): s
            for s in snapshot["train_epoch_seconds"]["series"]
        }
        assert epoch_series[(("phase", "cgan"),)]["count"] == 1
        assert epoch_series[(("phase", "center-cnn"),)]["count"] == 1
        assert snapshot["evals_total"]["series"][0]["value"] == 1.0

    def test_metrics_only_bridge_writes_no_file(self, tmp_path):
        registry = MetricsRegistry()
        hook = RunLoggerHook(registry=registry)
        hook.on_epoch_end(1, 1.0, 2.0, 0.3, 0.25)
        hook.emit("run_end", status="ok")
        assert "train_epochs_total" in registry.snapshot()

    def test_logger_only_bridge_needs_no_registry(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogger(path) as logger:
            hook = RunLoggerHook(logger=logger)
            hook.emit("run_start", command="train")
            hook.emit("run_end", status="ok")
        assert len(read_run_log(path)) == 2


class TestTrialHookBridge:
    def test_trial_callbacks_log_events_and_count(self, tmp_path):
        from repro.telemetry.events import (
            RunLogger,
            read_run_log,
            validate_run_log,
        )
        from repro.telemetry.hooks import RunLoggerHook
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        path = tmp_path / "run.jsonl"
        with RunLogger(path) as logger:
            hook = RunLoggerHook(logger=logger, registry=registry)
            hook.emit("run_start", command="sweep")
            hook.emit("trial_start", digest="d1", attempt=1,
                      trial="trial-000")
            hook.emit("trial_retry", digest="d1", attempt=1,
                      reason="worker_death", trial="trial-000", delay_s=0.25)
            hook.emit("trial_start", digest="d1", attempt=2,
                      trial="trial-000")
            hook.emit("trial_end", digest="d1", status="completed",
                      trial="trial-000", attempts=2, seconds=3.0)
            hook.emit("trial_end", digest="d2", status="failed",
                      trial="trial-001", attempts=1, reason="timeout")
            hook.emit("run_end", status="ok")
        events = read_run_log(path)
        validate_run_log(events)
        assert [e["event"] for e in events[1:-1]] == [
            "trial_start", "trial_retry", "trial_start", "trial_end",
            "trial_end"]
        assert registry.counter("sweep_trials_completed_total").value == 1
        assert registry.counter("sweep_trials_failed_total").value == 1
        assert registry.counter(
            "sweep_trials_retried_total",
            labels={"reason": "worker_death"}).value == 1

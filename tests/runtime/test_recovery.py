"""Recovery policy mechanics and the checkpoint/rollback telemetry path."""

import numpy as np
import pytest

from repro.config import RecoveryConfig
from repro.errors import ConfigError, TrainingError
from repro.nn import Adam, Dense, Sequential
from repro.runtime.recovery import RecoveryPolicy
from repro.telemetry.events import (
    read_run_log,
    validate_run_log,
)
from repro.telemetry.hooks import RunLoggerHook, TelemetryHook
from repro.telemetry.metrics import MetricsRegistry


def make_optimizer(lr=1e-2):
    net = Sequential([Dense(2, 2, np.random.default_rng(0))])
    return Adam(net.parameters(), learning_rate=lr)


class TestRecoveryConfig:
    def test_defaults_valid(self):
        config = RecoveryConfig()
        assert config.max_retries >= 1

    @pytest.mark.parametrize("kwargs", [
        {"checkpoint_every": 0},
        {"keep_last": 0},
        {"max_retries": -1},
        {"lr_backoff": 0.0},
        {"lr_backoff": 1.5},
        {"min_learning_rate": 0.0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RecoveryConfig(**kwargs)


class TestRecoveryPolicy:
    def test_budget_exhaustion_reraises_with_context(self):
        policy = RecoveryPolicy(RecoveryConfig(max_retries=2))
        failure = TrainingError("diverged (loss=nan)")
        policy.register_failure(failure)
        policy.register_failure(failure)
        with pytest.raises(TrainingError, match="recovery budget exhausted"):
            policy.register_failure(failure)
        assert policy.consecutive_failures == 3

    def test_success_resets_the_counter(self):
        policy = RecoveryPolicy(RecoveryConfig(max_retries=1))
        policy.register_failure(TrainingError("x"))
        policy.record_success()
        policy.register_failure(TrainingError("x"))  # budget refreshed
        assert policy.consecutive_failures == 1

    def test_backoff_is_absolute_not_compounding(self):
        policy = RecoveryPolicy(RecoveryConfig(lr_backoff=0.5, max_retries=5))
        opt = make_optimizer(lr=1e-2)
        policy.register_failure(TrainingError("x"))
        assert policy.apply_backoff([opt]) == pytest.approx(5e-3)
        # a restore would have reset lr to 1e-2; backoff must not care
        opt.learning_rate = 1e-2
        policy.register_failure(TrainingError("x"))
        assert policy.apply_backoff([opt]) == pytest.approx(2.5e-3)

    def test_backoff_clamps_at_min_learning_rate(self):
        policy = RecoveryPolicy(
            RecoveryConfig(lr_backoff=0.1, min_learning_rate=1e-3,
                           max_retries=10)
        )
        opt = make_optimizer(lr=1e-2)
        for _ in range(5):
            policy.register_failure(TrainingError("x"))
        assert policy.apply_backoff([opt]) == pytest.approx(1e-3)

    def test_backoff_without_optimizers_rejected(self):
        with pytest.raises(TrainingError, match="no optimizers"):
            RecoveryPolicy().apply_backoff([])

    def test_notify_rollback_counts_and_calls_hook(self):
        calls = []

        class Recorder(TelemetryHook):
            def emit(self, event, **fields):
                calls.append((event, fields))

        policy = RecoveryPolicy()
        policy.register_failure(TrainingError("boom"))
        policy.notify_rollback(
            Recorder(), phase="cgan", failed_epoch=4, restored_epoch=3,
            learning_rate=1e-4, reason="boom",
        )
        policy.notify_rollback(
            None, phase="cgan", failed_epoch=4, restored_epoch=3,
            learning_rate=1e-4, reason="boom",
        )
        assert policy.total_rollbacks == 2
        assert calls == [("rollback", {
            "phase": "cgan", "epoch": 3, "failed_epoch": 4,
            "retries": 1, "learning_rate": 1e-4, "reason": "boom",
        })]


class TestTelemetryIntegration:
    def test_hook_emits_events_and_counters(self, tmp_path):
        from repro.telemetry.events import RunLogger

        registry = MetricsRegistry()
        log_path = tmp_path / "run.jsonl"
        with RunLogger(log_path) as logger:
            hook = RunLoggerHook(logger=logger, registry=registry)
            hook.emit("run_start", command="test")
            hook.on_epoch_end(1, 0.1, 0.2, 0.3, 0.01)
            hook.emit("checkpoint", phase="cgan", epoch=1,
                      path="ckpt-000001.npz", loss=0.3)
            hook.emit("rollback", phase="cgan", epoch=1, failed_epoch=2,
                      retries=1, learning_rate=1e-4, reason="nan")
            hook.on_epoch_end(2, 0.1, 0.2, 0.3, 0.01)
            hook.emit("run_end", status="ok")
        events = read_run_log(log_path)
        validate_run_log(events)
        kinds = [event["event"] for event in events]
        assert kinds == ["run_start", "epoch_end", "checkpoint", "rollback",
                         "epoch_end", "run_end"]
        checkpoint = events[2]
        assert checkpoint["phase"] == "cgan" and checkpoint["loss"] == 0.3
        rollback = events[3]
        assert rollback["failed_epoch"] == 2 and rollback["reason"] == "nan"
        snapshot = registry.to_dict()
        assert {"checkpoints_total", "rollbacks_total"} <= set(
            snapshot["metrics"]
        )
        series = snapshot["metrics"]["rollbacks_total"]["series"]
        assert series == [
            {"labels": {"phase": "cgan"}, "type": "counter", "value": 1}
        ]

    def test_validator_allows_epoch_rewind_after_rollback(self, tmp_path):
        from repro.telemetry.events import RunLogger

        log_path = tmp_path / "run.jsonl"
        with RunLogger(log_path) as logger:
            logger.emit("run_start", command="test")
            logger.emit("epoch_end", epoch=1, seconds=0.1, phase="cgan")
            logger.emit("epoch_end", epoch=2, seconds=0.1, phase="cgan")
            logger.emit("rollback", phase="cgan", epoch=1, failed_epoch=3)
            # replayed epoch
            logger.emit("epoch_end", epoch=2, seconds=0.1, phase="cgan")
            logger.emit("run_end", status="ok")
        validate_run_log(read_run_log(log_path))

    def test_validator_still_rejects_rewind_without_rollback(self, tmp_path):
        from repro.errors import TelemetryError
        from repro.telemetry.events import RunLogger

        log_path = tmp_path / "run.jsonl"
        with RunLogger(log_path) as logger:
            logger.emit("run_start", command="test")
            logger.emit("epoch_end", epoch=2, seconds=0.1, phase="cgan")
            logger.emit("epoch_end", epoch=1, seconds=0.1, phase="cgan")
            logger.emit("run_end", status="ok")
        with pytest.raises(TelemetryError, match="does not increase"):
            validate_run_log(read_run_log(log_path))

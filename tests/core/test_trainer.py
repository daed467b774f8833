"""Shared regression trainer and batched inference."""

import numpy as np
import pytest

from repro.core import fit_regression, predict_in_batches
from repro.errors import TrainingError
from repro.nn import Dense, ReLU, Sequential


def make_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(3, 16, rng), ReLU(), Dense(16, 1, rng)])


def linear_data(count=64, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(count, 3)).astype(np.float32)
    y = (x @ np.array([[1.0], [-2.0], [0.5]])).astype(np.float32)
    return x, y


class TestFitRegression:
    def test_learns_linear_map(self):
        net = make_net()
        x, y = linear_data()
        history = fit_regression(
            net, x, y, epochs=200, batch_size=16,
            rng=np.random.default_rng(2), learning_rate=1e-2,
        )
        assert history.final_loss < 0.05
        assert history.loss[0] > history.final_loss

    def test_count_mismatch_rejected(self):
        net = make_net()
        with pytest.raises(TrainingError):
            fit_regression(
                net,
                np.zeros((4, 3), np.float32),
                np.zeros((5, 1), np.float32),
                epochs=1, batch_size=2, rng=np.random.default_rng(0),
            )

    def test_zero_epochs_rejected(self):
        net = make_net()
        x, y = linear_data(8)
        with pytest.raises(TrainingError):
            fit_regression(
                net, x, y, epochs=0, batch_size=2, rng=np.random.default_rng(0)
            )

    def test_zero_checkpoint_cadence_rejected_before_training(self, tmp_path):
        from repro.runtime import CheckpointManager

        manager = CheckpointManager(tmp_path)
        x, y = linear_data(8)
        with pytest.raises(TrainingError, match="checkpoint_every"):
            fit_regression(
                make_net(), x, y, epochs=1, batch_size=2,
                rng=np.random.default_rng(0), checkpoints=manager,
                checkpoint_every=0,
            )
        assert manager.entries() == []

    def test_divergence_detected(self):
        net = make_net()
        x, y = linear_data(16)
        y[0, 0] = np.nan  # poisons the loss on the first batch touching it
        with pytest.raises(TrainingError):
            fit_regression(
                net, x, y, epochs=5, batch_size=16,
                rng=np.random.default_rng(0),
            )

    def test_divergence_error_names_epoch_and_batch(self):
        net = make_net()
        x, y = linear_data(16)
        y[:, 0] = np.nan  # every batch diverges, so it dies immediately
        with pytest.raises(TrainingError, match=r"epoch 1, batch 0"):
            fit_regression(
                net, x, y, epochs=5, batch_size=16,
                rng=np.random.default_rng(0),
            )

    def test_records_per_epoch_seconds(self):
        net = make_net()
        x, y = linear_data(16)
        history = fit_regression(
            net, x, y, epochs=3, batch_size=8, rng=np.random.default_rng(0)
        )
        assert len(history.seconds) == len(history.loss) == 3
        assert all(s > 0 for s in history.seconds)

    def test_hook_receives_aux_epoch_callbacks(self):
        from repro.telemetry import TelemetryHook

        class Recorder(TelemetryHook):
            def __init__(self):
                self.calls = []

            def on_aux_epoch_end(self, epoch, loss, seconds,
                                 phase="regression"):
                self.calls.append((epoch, loss, seconds, phase))

        net = make_net()
        x, y = linear_data(16)
        hook = Recorder()
        history = fit_regression(
            net, x, y, epochs=2, batch_size=8,
            rng=np.random.default_rng(0), hook=hook, phase="center-cnn",
        )
        assert [c[0] for c in hook.calls] == [1, 2]
        assert [c[1] for c in hook.calls] == history.loss
        assert [c[2] for c in hook.calls] == history.seconds
        assert all(c[3] == "center-cnn" for c in hook.calls)

    def test_empty_history_raises(self):
        from repro.core import RegressionHistory

        with pytest.raises(TrainingError):
            RegressionHistory().final_loss


class TestPredictInBatches:
    def test_matches_single_pass(self):
        net = make_net()
        x, _ = linear_data(10)
        batched = predict_in_batches(net, x, batch_size=3)
        whole = net.forward(x)
        assert np.allclose(batched, whole, atol=1e-6)

    def test_bad_batch_size(self):
        net = make_net()
        with pytest.raises(TrainingError):
            predict_in_batches(net, np.zeros((2, 3), np.float32), batch_size=0)

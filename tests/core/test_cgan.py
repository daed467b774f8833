"""CGAN training loop (Eqs. 1-3) at tiny scale."""

import numpy as np
import pytest

from repro.core import CganModel
from repro.errors import TrainingError


@pytest.fixture
def cgan(tiny_config):
    return CganModel(
        tiny_config.model, tiny_config.training, np.random.default_rng(0)
    )


class TestExpandTargets:
    def test_repeats_channels(self, cgan, tiny_dataset):
        expanded = cgan.expand_targets(tiny_dataset.resists[:2])
        assert expanded.shape[1] == cgan.model_config.resist_channels
        assert np.array_equal(expanded[:, 0], expanded[:, -1])

    def test_rejects_multichannel_input(self, cgan):
        with pytest.raises(TrainingError):
            cgan.expand_targets(np.zeros((2, 2, 8, 8), dtype=np.float32))


class TestTrainStep:
    def test_returns_finite_losses(self, cgan, tiny_dataset):
        masks = tiny_dataset.masks[:2]
        targets = cgan.expand_targets(tiny_dataset.resists[:2])
        d_loss, g_gan, l1 = cgan.train_step(masks, targets)
        assert np.isfinite(d_loss) and np.isfinite(g_gan) and np.isfinite(l1)
        assert l1 >= 0

    def test_updates_both_networks(self, cgan, tiny_dataset):
        g_before = [p.value.copy() for p in cgan.generator.parameters()[:2]]
        d_before = [p.value.copy() for p in cgan.discriminator.parameters()[:2]]
        masks = tiny_dataset.masks[:2]
        targets = cgan.expand_targets(tiny_dataset.resists[:2])
        cgan.train_step(masks, targets)
        assert any(
            not np.array_equal(b, p.value)
            for b, p in zip(g_before, cgan.generator.parameters())
        )
        assert any(
            not np.array_equal(b, p.value)
            for b, p in zip(d_before, cgan.discriminator.parameters())
        )

    def test_batch_mismatch_rejected(self, cgan, tiny_dataset):
        with pytest.raises(TrainingError):
            cgan.train_step(
                tiny_dataset.masks[:2],
                cgan.expand_targets(tiny_dataset.resists[:3]),
            )


class TestFit:
    def test_history_lengths(self, tiny_config, tiny_dataset):
        cgan = CganModel(
            tiny_config.model, tiny_config.training, np.random.default_rng(1)
        )
        history = cgan.fit(
            tiny_dataset.masks, tiny_dataset.resists, np.random.default_rng(2)
        )
        assert history.epochs_trained == tiny_config.training.epochs
        assert len(history.discriminator_loss) == history.epochs_trained
        assert len(history.l1_loss) == history.epochs_trained

    def test_l1_decreases_with_training(self, tiny_config, tiny_dataset):
        """Even two tiny epochs must reduce the pixel loss."""
        cgan = CganModel(
            tiny_config.model, tiny_config.training, np.random.default_rng(3)
        )
        history = cgan.fit(
            tiny_dataset.masks, tiny_dataset.resists, np.random.default_rng(4)
        )
        assert history.l1_loss[-1] < history.l1_loss[0] + 1e-6

    def test_records_per_epoch_seconds(self, tiny_config, tiny_dataset):
        cgan = CganModel(
            tiny_config.model, tiny_config.training, np.random.default_rng(7)
        )
        history = cgan.fit(
            tiny_dataset.masks, tiny_dataset.resists, np.random.default_rng(8)
        )
        assert len(history.seconds) == history.epochs_trained
        assert all(s > 0 for s in history.seconds)

    def test_hook_receives_epoch_callbacks(self, tiny_config, tiny_dataset):
        from repro.telemetry import TelemetryHook

        class Recorder(TelemetryHook):
            def __init__(self):
                self.calls = []

            def on_epoch_end(self, epoch, d_loss, g_loss, l1, seconds):
                self.calls.append((epoch, d_loss, g_loss, l1, seconds))

        cgan = CganModel(
            tiny_config.model, tiny_config.training, np.random.default_rng(9)
        )
        hook = Recorder()
        history = cgan.fit(
            tiny_dataset.masks, tiny_dataset.resists,
            np.random.default_rng(10), hook=hook,
        )
        assert [c[0] for c in hook.calls] == list(
            range(1, history.epochs_trained + 1)
        )
        assert [c[3] for c in hook.calls] == history.l1_loss
        assert [c[4] for c in hook.calls] == history.seconds

    def test_divergence_error_names_epoch_and_batch(
            self, tiny_config, tiny_dataset, monkeypatch):
        cgan = CganModel(
            tiny_config.model, tiny_config.training, np.random.default_rng(11)
        )

        def diverge(masks, targets):
            raise TrainingError("GAN training diverged (d_loss=nan)")

        monkeypatch.setattr(cgan, "train_step", diverge)
        with pytest.raises(TrainingError, match=r"epoch 1, batch 0.*diverged"):
            cgan.fit(
                tiny_dataset.masks, tiny_dataset.resists,
                np.random.default_rng(12),
            )

    def test_snapshots_recorded(self, tiny_config, tiny_dataset):
        cgan = CganModel(
            tiny_config.model, tiny_config.training, np.random.default_rng(5)
        )
        history = cgan.fit(
            tiny_dataset.masks,
            tiny_dataset.resists,
            np.random.default_rng(6),
            snapshot_inputs=tiny_dataset.masks[:2],
        )
        assert set(history.snapshots) == set(
            tiny_config.training.snapshot_epochs
        )
        for images in history.snapshots.values():
            assert images.shape[0] == 2


class TestGenerate:
    def test_shapes_and_determinism(self, cgan, tiny_dataset):
        masks = tiny_dataset.masks[:3]
        a = cgan.generate(masks)
        b = cgan.generate(masks)
        assert a.shape == (
            3,
            cgan.model_config.resist_channels,
            tiny_dataset.image_size,
            tiny_dataset.image_size,
        )
        assert np.array_equal(a, b)  # eval mode is deterministic

    def test_predict_mono_range(self, cgan, tiny_dataset):
        mono = cgan.predict_mono(tiny_dataset.masks[:2])
        assert mono.shape == (2, tiny_dataset.image_size, tiny_dataset.image_size)
        assert mono.min() >= 0.0 and mono.max() <= 1.0

"""End-to-end fault drills: kill-and-resume bit-exactness, NaN rollback.

The acceptance bar for the fault-tolerant runtime: a run interrupted
mid-schedule and resumed from its checkpoints must finish with final weights
*bit-identical* to an uninterrupted run (same shuffle and dropout streams),
and an injected NaN epoch must be survived via rollback + LR backoff with
the run still completing its full schedule.
"""

import numpy as np
import pytest

from repro.config import RecoveryConfig, tiny
from repro.core import LithoGan
from repro.core.cgan import CganModel
from repro.core.trainer import fit_regression
from repro.errors import CheckpointError, TrainingError
from repro.models import build_center_cnn
from repro.runtime import CheckpointManager, FaultPlan, RecoveryPolicy
from repro.telemetry.hooks import TelemetryHook


class RecordingHook(TelemetryHook):
    def __init__(self):
        self.epochs = []
        self.checkpoints = []
        self.rollbacks = []

    def on_epoch_end(self, epoch, d_loss, g_loss, l1, seconds):
        self.epochs.append(epoch)

    def emit(self, event, **fields):
        if event == "checkpoint":
            self.checkpoints.append((fields["phase"], fields["epoch"]))
        elif event == "rollback":
            self.rollbacks.append(fields)


@pytest.fixture(scope="module")
def gan_config():
    return tiny(epochs=3)


@pytest.fixture(scope="module")
def gan_data(gan_config):
    model = gan_config.model
    shape = (8, model.mask_channels, model.image_size, model.image_size)
    masks = np.random.default_rng(5).random(shape).astype(np.float32)
    resists = np.random.default_rng(6).random(
        (8, 1, model.image_size, model.image_size)
    ).astype(np.float32)
    return masks, resists


def assert_states_equal(reference, candidate):
    assert reference.keys() == candidate.keys()
    for key in reference:
        assert np.array_equal(reference[key], candidate[key]), key


class TestCganResume:
    def test_kill_and_resume_is_bit_exact(self, gan_config, gan_data,
                                          tmp_path):
        masks, resists = gan_data

        straight = CganModel(gan_config.model, gan_config.training,
                             np.random.default_rng(0))
        straight.fit(masks, resists, np.random.default_rng(1))
        reference = straight.generator.state_dict()

        manager = CheckpointManager(tmp_path)
        killed = CganModel(gan_config.model, gan_config.training,
                           np.random.default_rng(0))
        with pytest.raises(KeyboardInterrupt):
            killed.fit(
                masks, resists, np.random.default_rng(1),
                checkpoints=manager,
                faults=FaultPlan().inject_interrupt("cgan", 2, batch=1),
            )
        assert manager.entries()[-1]["step"] == 1  # only epoch 1 completed

        resumed = CganModel(gan_config.model, gan_config.training,
                            np.random.default_rng(0))
        history = resumed.fit(
            masks, resists, np.random.default_rng(1),
            checkpoints=manager, resume_from="latest",
        )
        assert_states_equal(reference, resumed.generator.state_dict())
        assert_states_equal(
            straight.discriminator.state_dict(),
            resumed.discriminator.state_dict(),
        )
        assert len(history.l1_loss) == gan_config.training.epochs
        assert manager.entries()[-1]["step"] == gan_config.training.epochs

    def test_resume_restores_history_prefix(self, gan_config, gan_data,
                                            tmp_path):
        masks, resists = gan_data
        manager = CheckpointManager(tmp_path)
        first = CganModel(gan_config.model, gan_config.training,
                          np.random.default_rng(0))
        with pytest.raises(KeyboardInterrupt):
            first.fit(
                masks, resists, np.random.default_rng(1),
                checkpoints=manager,
                faults=FaultPlan().inject_interrupt("cgan", 3, batch=0),
            )
        resumed = CganModel(gan_config.model, gan_config.training,
                            np.random.default_rng(0))
        hook = RecordingHook()
        history = resumed.fit(
            masks, resists, np.random.default_rng(1),
            checkpoints=manager, resume_from="latest", hook=hook,
        )
        # epochs 1-2 restored from the checkpoint, only epoch 3 re-trained
        assert hook.epochs == [3]
        assert len(history.l1_loss) == 3

    def test_resume_from_corrupt_checkpoint_fails_closed(
            self, gan_config, gan_data, tmp_path):
        masks, resists = gan_data
        manager = CheckpointManager(tmp_path)
        model = CganModel(gan_config.model, gan_config.training,
                          np.random.default_rng(0))
        with pytest.raises(KeyboardInterrupt):
            model.fit(
                masks, resists, np.random.default_rng(1),
                checkpoints=manager,
                faults=FaultPlan().inject_interrupt("cgan", 2, batch=0),
            )
        FaultPlan.corrupt_file(
            tmp_path / manager.entries()[-1]["file"], seed=3)
        fresh = CganModel(gan_config.model, gan_config.training,
                          np.random.default_rng(0))
        with pytest.raises(CheckpointError, match="checksum"):
            fresh.fit(
                masks, resists, np.random.default_rng(1),
                checkpoints=manager, resume_from="latest",
            )


class TestNanRecovery:
    def test_injected_nan_epoch_is_survived(self, gan_config, gan_data):
        masks, resists = gan_data
        model = CganModel(gan_config.model, gan_config.training,
                          np.random.default_rng(0))
        base_lr = model.opt_g.learning_rate
        policy = RecoveryPolicy(RecoveryConfig(lr_backoff=0.5))
        hook = RecordingHook()
        history = model.fit(
            masks, resists, np.random.default_rng(1), hook=hook,
            recovery=policy,
            faults=FaultPlan().inject_nan("cgan", 2, batch=0),
        )
        assert len(history.l1_loss) == gan_config.training.epochs
        assert all(np.isfinite(history.l1_loss))
        assert policy.total_rollbacks == 1
        assert len(hook.rollbacks) == 1
        rollback = hook.rollbacks[0]
        assert rollback["failed_epoch"] == 2
        assert rollback["epoch"] == 1
        assert rollback["learning_rate"] == pytest.approx(base_lr * 0.5)
        assert model.opt_g.learning_rate == pytest.approx(base_lr * 0.5)
        # the rolled-back epoch is re-run, so epoch_end fires 1,2,3 in order
        assert hook.epochs == [1, 2, 3]

    def test_recovery_budget_exhaustion_raises(self, gan_config, gan_data):
        masks, resists = gan_data
        model = CganModel(gan_config.model, gan_config.training,
                          np.random.default_rng(0))
        policy = RecoveryPolicy(RecoveryConfig(max_retries=1))
        with pytest.raises(TrainingError, match="recovery budget exhausted"):
            model.fit(
                masks, resists, np.random.default_rng(1),
                recovery=policy,
                faults=FaultPlan().inject_nan("cgan", 2, repeat=True),
            )

    def test_without_policy_divergence_is_fatal(self, gan_config, gan_data):
        masks, resists = gan_data
        model = CganModel(gan_config.model, gan_config.training,
                          np.random.default_rng(0))
        with pytest.raises(TrainingError, match="diverged"):
            model.fit(
                masks, resists, np.random.default_rng(1),
                faults=FaultPlan().inject_nan("cgan", 1),
            )


class TestRegressionResume:
    def test_kill_and_resume_is_bit_exact(self, gan_config, gan_data,
                                          tmp_path):
        masks, _ = gan_data
        targets = np.random.default_rng(7).random((8, 2)).astype(np.float32)

        straight = build_center_cnn(gan_config.model, np.random.default_rng(0))
        fit_regression(straight, masks, targets, epochs=3, batch_size=4,
                       rng=np.random.default_rng(1))
        reference = straight.state_dict()

        manager = CheckpointManager(tmp_path)
        killed = build_center_cnn(gan_config.model, np.random.default_rng(0))
        with pytest.raises(KeyboardInterrupt):
            fit_regression(
                killed, masks, targets, epochs=3, batch_size=4,
                rng=np.random.default_rng(1), checkpoints=manager,
                faults=FaultPlan().inject_interrupt("regression", 3, batch=1),
            )
        resumed = build_center_cnn(gan_config.model, np.random.default_rng(0))
        history = fit_regression(
            resumed, masks, targets, epochs=3, batch_size=4,
            rng=np.random.default_rng(1), checkpoints=manager,
            resume_from="latest",
        )
        assert_states_equal(reference, resumed.state_dict())
        assert len(history.loss) == 3

    def test_nan_rollback_completes_schedule(self, gan_config, gan_data):
        masks, _ = gan_data
        targets = np.random.default_rng(7).random((8, 2)).astype(np.float32)
        net = build_center_cnn(gan_config.model, np.random.default_rng(0))
        policy = RecoveryPolicy(RecoveryConfig())
        history = fit_regression(
            net, masks, targets, epochs=3, batch_size=4,
            rng=np.random.default_rng(1), recovery=policy,
            faults=FaultPlan().inject_nan("regression", 2),
        )
        assert len(history.loss) == 3
        assert all(np.isfinite(history.loss))
        assert policy.total_rollbacks == 1


class TestLithoGanResume:
    def test_interrupt_in_center_phase_resumes_bit_exact(self, tmp_path):
        from repro.data import synthesize_dataset

        config = tiny(num_clips=6, epochs=2)
        dataset = synthesize_dataset(config)

        straight = LithoGan(config, np.random.default_rng(0))
        straight.fit(dataset, np.random.default_rng(1))

        killed = LithoGan(config, np.random.default_rng(0))
        with pytest.raises(KeyboardInterrupt):
            killed.fit(
                dataset, np.random.default_rng(1), checkpoints=tmp_path,
                faults=FaultPlan().inject_interrupt("center-cnn", 2),
            )
        assert (tmp_path / "cgan" / "manifest.json").exists()
        assert (tmp_path / "center-cnn" / "manifest.json").exists()

        resumed = LithoGan(config, np.random.default_rng(0))
        history = resumed.fit(
            dataset, np.random.default_rng(1), checkpoints=tmp_path,
            resume_from=True,
        )
        assert_states_equal(
            straight.cgan.generator.state_dict(),
            resumed.cgan.generator.state_dict(),
        )
        assert_states_equal(
            straight.center_cnn.state_dict(),
            resumed.center_cnn.state_dict(),
        )
        assert len(history.cgan.l1_loss) == config.training.epochs
        assert len(history.center.loss) == config.training.aux_epochs

    def test_resume_from_bare_npz_rejected(self, tmp_path):
        from repro.data import synthesize_dataset

        config = tiny(num_clips=6, epochs=2)
        dataset = synthesize_dataset(config)
        model = LithoGan(config, np.random.default_rng(0))
        with pytest.raises(TrainingError, match="checkpoint directory"):
            model.fit(
                dataset, np.random.default_rng(1),
                resume_from=tmp_path / "single.npz",
            )


class TestFacadeFailureSurface:
    """api.train must fail loudly — with the checkpoint store intact."""

    def test_train_raises_through_facade_with_journal_intact(self, tmp_path):
        import dataclasses

        from repro import api
        from repro.config import RecoveryConfig as RC

        config = tiny(num_clips=8, epochs=3)
        config = dataclasses.replace(
            config, recovery=RC(max_retries=1, checkpoint_every=1))
        minted = api.mint(config)
        ckpt_dir = tmp_path / "ckpts"
        # A NaN that re-fires on every replay of epoch 2 exhausts the
        # in-trial recovery budget; the facade must surface the raw
        # TrainingError rather than swallow it.
        with pytest.raises(TrainingError, match="recovery budget exhausted"):
            api.train(
                config, minted.dataset, checkpoints=ckpt_dir,
                recovery=True,
                faults=FaultPlan().inject_nan("cgan", 2, repeat=True),
            )
        # The checkpoint journal survives the failure: epoch 1's snapshot
        # is present under the phase scope, manifest-valid, and loadable
        # for a later resume.
        manager = CheckpointManager(ckpt_dir / "cgan")
        assert manager.entries()[-1]["step"] == 1
        payload, meta = manager.load()
        assert meta["step"] == 1
        assert payload

    def test_checkpoint_cadence_comes_from_the_config(self, tmp_path):
        import dataclasses

        from repro import api
        from repro.config import RecoveryConfig as RC

        config = tiny(num_clips=8, epochs=3)
        config = dataclasses.replace(config, recovery=RC(checkpoint_every=2))
        hook = RecordingHook()
        api.train(config, api.mint(config).dataset,
                  checkpoints=tmp_path, hook=hook)
        # every second epoch, and always the last one
        assert [epoch for phase, epoch in hook.checkpoints
                if phase == "cgan"] == [2, 3]
        steps = [entry["step"]
                 for entry in CheckpointManager(tmp_path / "cgan").entries()]
        assert steps == [2, 3]

    def test_train_without_recovery_is_immediately_fatal(self, tmp_path):
        from repro import api

        config = tiny(num_clips=8, epochs=2)
        minted = api.mint(config)
        with pytest.raises(TrainingError, match="diverged"):
            api.train(
                config, minted.dataset, recovery=None,
                faults=FaultPlan().inject_nan("cgan", 1),
            )

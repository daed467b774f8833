"""Conditional-GAN training for lithography modeling (Section 3.2).

Implements the objective of Eqs. (1)-(3): the discriminator maximizes
``log D(x, y) + log(1 - D(x, G(x, z)))`` while the generator minimizes the
adversarial term plus ``lambda * ||y - G(x, z)||_1``.  Training alternates
one discriminator step with one generator step per mini-batch, using Adam
with the paper's hyper-parameters (lr 0.0002, betas (0.5, 0.999),
lambda 100, batch size 4).  The noise ``z`` enters through decoder dropout,
as in the pix2pix lineage.  The epoch loop around the step — shuffle,
checkpoints, resume, divergence rollback — is
:func:`~repro.core.trainer.run_epochs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import ModelConfig, TrainingConfig
from ..errors import TrainingError
from ..models import build_discriminator, build_generator
from ..nn import Adam, bce_with_logits, l1_loss
from ..runtime.checkpoint import CheckpointManager
from ..runtime.faults import FaultPlan
from ..runtime.recovery import RecoveryPolicy
from ..telemetry.hooks import TelemetryHook
from .trainer import predict_in_batches, run_epochs

#: phase label used in checkpoints, fault sites, and telemetry events
CGAN_PHASE = "cgan"


@dataclass
class CganHistory:
    """Loss curves (Figure 9) and prediction snapshots (Figure 8)."""

    generator_loss: List[float] = field(default_factory=list)
    discriminator_loss: List[float] = field(default_factory=list)
    l1_loss: List[float] = field(default_factory=list)
    #: per-epoch wall-clock seconds (time-to-quality for Figure 9 plots)
    seconds: List[float] = field(default_factory=list)
    #: epoch -> generated images for the tracked snapshot inputs
    snapshots: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def epochs_trained(self) -> int:
        return len(self.generator_loss)


class CganModel:
    """Generator + discriminator pair with the Eq. (3) training loop."""

    def __init__(self, model_config: ModelConfig,
                 training_config: TrainingConfig, rng: np.random.Generator):
        self.model_config = model_config
        self.training_config = training_config
        self.generator = build_generator(model_config, rng)
        self.discriminator = build_discriminator(model_config, rng)
        self.opt_g = Adam(
            self.generator.parameters(),
            learning_rate=training_config.learning_rate,
            beta1=training_config.adam_beta1,
            beta2=training_config.adam_beta2,
        )
        self.opt_d = Adam(
            self.discriminator.parameters(),
            learning_rate=training_config.learning_rate,
            beta1=training_config.adam_beta1,
            beta2=training_config.adam_beta2,
        )

    # -- target encoding ---------------------------------------------------

    def expand_targets(self, resists: np.ndarray) -> np.ndarray:
        """Lift (N, 1, H, W) golden resists to the generator's channel count."""
        channels = self.model_config.resist_channels
        if resists.ndim != 4 or resists.shape[1] != 1:
            raise TrainingError(
                f"expected (N, 1, H, W) resists, got {resists.shape}"
            )
        return np.repeat(resists.astype(np.float32), channels, axis=1)

    # -- one optimization step -----------------------------------------------

    def train_step(self, masks: np.ndarray,
                   targets: np.ndarray) -> Tuple[float, float, float]:
        """One alternating D/G update; returns (d_loss, g_gan_loss, l1)."""
        if masks.shape[0] != targets.shape[0]:
            raise TrainingError("mask/target batch size mismatch")
        ones = np.ones((masks.shape[0], 1), dtype=np.float32)
        zeros = np.zeros_like(ones)

        # Generator forward (dropout active: this *is* the noise z).
        fake = self.generator.forward(masks, training=True)

        # ---- discriminator step: maximize log D(x,y) + log(1 - D(x,G)).
        self.opt_d.zero_grad()
        real_pair = np.concatenate([masks, targets], axis=1)
        logits_real = self.discriminator.forward(real_pair, training=True)
        loss_real, grad_real = bce_with_logits(logits_real, ones)
        self.discriminator.backward(grad_real)

        fake_pair = np.concatenate([masks, fake], axis=1)
        logits_fake = self.discriminator.forward(fake_pair, training=True)
        loss_fake, grad_fake = bce_with_logits(logits_fake, zeros)
        self.discriminator.backward(grad_fake)
        self.opt_d.step()
        d_loss = loss_real + loss_fake

        # ---- generator step: non-saturating GAN loss + lambda * L1.
        logits_gen = self.discriminator.forward(fake_pair, training=True)
        g_gan_loss, grad_logits = bce_with_logits(logits_gen, ones)
        grad_pair = self.discriminator.backward(grad_logits)
        grad_fake_from_d = grad_pair[:, self.model_config.mask_channels :]

        l1_value, l1_grad = l1_loss(fake, targets)
        total_grad = grad_fake_from_d + self.training_config.lambda_l1 * l1_grad

        self.opt_g.zero_grad()
        self.generator.backward(total_grad)
        self.opt_g.step()

        if not (np.isfinite(d_loss) and np.isfinite(g_gan_loss)):
            raise TrainingError(
                f"GAN training diverged (d_loss={d_loss}, g_loss={g_gan_loss})"
            )
        return d_loss, g_gan_loss, l1_value

    # -- training -------------------------------------------------------------------

    def fit(self, masks: np.ndarray, resists: np.ndarray,
            rng: np.random.Generator,
            snapshot_inputs: Optional[np.ndarray] = None,
            hook: Optional[TelemetryHook] = None,
            checkpoints: Optional[CheckpointManager] = None,
            checkpoint_every: int = 1,
            resume_from: Optional[Any] = None,
            recovery: Optional[RecoveryPolicy] = None,
            faults: Optional[FaultPlan] = None) -> CganHistory:
        """Train for ``training_config.epochs`` epochs.

        ``snapshot_inputs`` (a small stack of mask images) enables Figure 8:
        after each epoch in ``training_config.snapshot_epochs`` the
        generator's eval-mode predictions for those inputs are recorded.

        With ``hook`` attached, ``hook.on_epoch_end(epoch, d_loss, g_loss,
        l1, seconds)`` fires with the epoch-mean losses after every epoch;
        the default ``hook=None`` adds no per-batch work whatsoever.

        The fault-tolerance parameters (``checkpoints``,
        ``checkpoint_every``, ``resume_from``, ``recovery``, ``faults``) are
        those of :func:`~repro.core.trainer.run_epochs`; the snapshot names
        its state ``generator``, ``discriminator``, ``opt_g`` and ``opt_d``,
        and checkpoints rank by the epoch's L1 loss.
        """
        history = CganHistory()
        snapshot_epochs = set(self.training_config.snapshot_epochs)
        lambda_l1 = self.training_config.lambda_l1

        def step(batch_masks: np.ndarray, batch_targets: np.ndarray):
            d_loss, g_gan, l1_value = self.train_step(batch_masks, batch_targets)
            return {"discriminator_loss": d_loss,
                    "generator_loss": g_gan + lambda_l1 * l1_value,
                    "l1_loss": l1_value}

        def on_epoch_end(epoch: int, seconds: float) -> None:
            if hook is not None:
                hook.on_epoch_end(
                    epoch,
                    history.discriminator_loss[-1],
                    history.generator_loss[-1],
                    history.l1_loss[-1],
                    seconds,
                )
            if snapshot_inputs is not None and epoch in snapshot_epochs:
                history.snapshots[epoch] = self.generate(snapshot_inputs)

        run_epochs(
            masks, self.expand_targets(resists), step, history=history,
            epochs=self.training_config.epochs,
            batch_size=self.training_config.batch_size, rng=rng,
            phase=CGAN_PHASE,
            nets={"generator": self.generator,
                  "discriminator": self.discriminator},
            optimizers={"opt_g": self.opt_g, "opt_d": self.opt_d},
            monitor="l1_loss", on_epoch_end=on_epoch_end,
            snapshots=history.snapshots, hook=hook, checkpoints=checkpoints,
            checkpoint_every=checkpoint_every, resume_from=resume_from,
            recovery=recovery, faults=faults,
        )
        return history

    # -- inference ------------------------------------------------------------------

    def generate(self, masks: np.ndarray, batch_size: int = 8) -> np.ndarray:
        """Eval-mode generator output for a stack of mask images."""
        return predict_in_batches(self.generator, masks, batch_size=batch_size)

    def predict_mono(self, masks: np.ndarray, batch_size: int = 8) -> np.ndarray:
        """Channel-averaged generator output clipped to [0, 1]: (N, H, W)."""
        generated = self.generate(masks, batch_size=batch_size)
        return np.clip(generated.mean(axis=1), 0.0, 1.0)

"""The LithoGAN dual-learning framework (Section 3.3, Figure 5).

LithoGAN splits resist prediction into two learned paths:

1. **Resist shape modeling** — a CGAN trained on *re-centered* golden
   patterns, so the generator only has to learn shape, never placement.
2. **Resist center prediction** — a CNN regressing the golden pattern's
   bounding-box center from the mask image.

At inference the generated (centered) shape is binarized and shifted to the
CNN-predicted center, producing the final resist pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..config import ExperimentConfig
from ..telemetry.hooks import TelemetryHook
from ..telemetry.trace import Tracer
from ..data.augment import augment_dataset
from ..data.dataset import PairedDataset
from ..data.encoding import denormalize_center, normalize_center
from ..errors import TrainingError
from ..models import build_center_cnn
from ..nn import Sequential
from ..runtime.checkpoint import CheckpointManager
from ..runtime.faults import FaultPlan
from ..runtime.recovery import RecoveryPolicy
from .cgan import CGAN_PHASE, CganHistory, CganModel
from .recenter import binarize, recenter_to_predicted
from .trainer import RegressionHistory, fit_regression, predict_in_batches

CENTER_PHASE = "center-cnn"


@dataclass
class LithoGanHistory:
    """Training records of both LithoGAN paths."""

    cgan: CganHistory
    center: RegressionHistory


class LithoGan:
    """End-to-end lithography model: CGAN shape path + CNN center path."""

    def __init__(self, config: ExperimentConfig, rng: np.random.Generator):
        self.config = config
        self.cgan = CganModel(config.model, config.training, rng)
        self.center_cnn: Sequential = build_center_cnn(config.model, rng)
        # Center offsets are a tiny fraction of the image, so the regression
        # targets are standardized to unit variance (training statistics are
        # kept for de-standardization at inference); without this, the MSE
        # gradients are so small the CNN never escapes predicting the mean.
        self._center_mean = np.zeros(2, dtype=np.float32)
        self._center_std = np.ones(2, dtype=np.float32)
        self._trained = False

    def _checkpoint_manager(
            self,
            checkpoints: Optional[Union[CheckpointManager, str, Path]],
            resume_from: Optional[Union[str, Path, bool]],
    ) -> Optional[CheckpointManager]:
        """Resolve the fault-tolerance arguments to one root manager.

        Accepts an existing :class:`CheckpointManager` or a directory path;
        with ``checkpoints=None`` but a directory-like ``resume_from``, that
        directory doubles as the manager root (resume-only usage).
        """
        source = checkpoints
        if source is None and isinstance(resume_from, (str, Path)) \
                and str(resume_from) not in ("latest",):
            if Path(resume_from).suffix != ".npz":
                source = resume_from
        if source is None or isinstance(source, CheckpointManager):
            return source
        rec = self.config.recovery
        return CheckpointManager(
            source, keep_last=rec.keep_last, keep_best=rec.keep_best,
        )

    def fit(self, dataset: PairedDataset,
            rng: np.random.Generator,
            snapshot_inputs: Optional[np.ndarray] = None,
            hook: Optional[TelemetryHook] = None,
            tracer: Optional[Tracer] = None,
            checkpoints: Optional[Union[CheckpointManager, str, Path]] = None,
            resume_from: Optional[Union[str, Path, bool]] = None,
            recovery: Optional[RecoveryPolicy] = None,
            faults: Optional[FaultPlan] = None) -> LithoGanHistory:
        """Train both paths on a (training) dataset.

        With ``config.training.augment`` set, the training set is expanded
        with its dihedral-4 transforms first (lithography under a 4-fold
        symmetric source is equivariant to them).

        ``hook`` receives per-epoch callbacks from both paths; ``tracer``
        records the two phases as spans (``cgan``, ``center-cnn``).  Both
        default to off and add no per-batch work.

        Fault tolerance: ``checkpoints`` (a :class:`CheckpointManager` or a
        directory) snapshots each phase every
        ``config.recovery.checkpoint_every`` epochs under phase-scoped
        subdirectories (``cgan/``, ``center-cnn/``).  ``resume_from`` — a
        checkpoint directory, or ``True``/``"latest"`` with ``checkpoints``
        set — continues each phase bit-exactly from its latest snapshot;
        phases that already finished are restored, not re-trained.
        ``recovery`` and ``faults`` are threaded into both phases.
        """
        if dataset.image_size != self.config.model.image_size:
            raise TrainingError(
                f"dataset resolution {dataset.image_size} does not match "
                f"model image_size {self.config.model.image_size}"
            )
        if tracer is None:
            tracer = Tracer()
        if self.config.training.augment:
            dataset = augment_dataset(dataset)

        manager = self._checkpoint_manager(checkpoints, resume_from)
        if resume_from is not None and manager is None:
            raise TrainingError(
                "LithoGan.fit resume_from requires a checkpoint directory "
                f"(or checkpoints=); got {resume_from!r}"
            )
        every = self.config.recovery.checkpoint_every
        cgan_mgr = manager.scoped(CGAN_PHASE) if manager is not None else None
        center_mgr = (manager.scoped(CENTER_PHASE)
                      if manager is not None else None)
        resuming = resume_from is not None

        with tracer.span("cgan", samples=len(dataset)):
            recentered = dataset.recentered_resists()
            cgan_resume = None
            if resuming and cgan_mgr is not None and cgan_mgr.has_checkpoints():
                cgan_resume = "latest"
            cgan_history = self.cgan.fit(
                dataset.masks, recentered, rng,
                snapshot_inputs=snapshot_inputs, hook=hook,
                checkpoints=cgan_mgr, checkpoint_every=every,
                resume_from=cgan_resume, recovery=recovery, faults=faults,
            )
        with tracer.span("center-cnn", samples=len(dataset)):
            center_targets = normalize_center(
                dataset.centers, dataset.image_size
            )
            self._center_mean = center_targets.mean(axis=0).astype(np.float32)
            std = center_targets.std(axis=0)
            self._center_std = np.where(std > 1e-6, std, 1.0).astype(np.float32)
            standardized = (
                (center_targets - self._center_mean) / self._center_std
            ).astype(np.float32)
            center_resume = None
            if resuming and center_mgr is not None \
                    and center_mgr.has_checkpoints():
                center_resume = "latest"
            center_history = fit_regression(
                self.center_cnn,
                dataset.masks,
                standardized,
                epochs=self.config.training.aux_epochs,
                batch_size=max(self.config.training.batch_size, 8),
                rng=rng,
                hook=hook,
                phase=CENTER_PHASE,
                checkpoints=center_mgr, checkpoint_every=every,
                resume_from=center_resume, recovery=recovery, faults=faults,
            )
        self._trained = True
        return LithoGanHistory(cgan=cgan_history, center=center_history)

    # -- inference -------------------------------------------------------------

    def predict_centers(self, masks: np.ndarray) -> np.ndarray:
        """CNN-predicted pattern centers in pixel coordinates, (N, 2)."""
        standardized = predict_in_batches(self.center_cnn, masks)
        normalized = standardized * self._center_std + self._center_mean
        return denormalize_center(normalized, masks.shape[2])

    def predict_raw(self, masks: np.ndarray):
        """Raw generator outputs and predicted centers, pre-binarization.

        Returns ``(mono, centers)`` where ``mono`` is the (N, H, W)
        continuous generator output in [0, 1] and ``centers`` the (N, 2)
        pixel-space center predictions.  The serving layer consumes this
        form so degenerate outputs can be re-thresholded and re-placed
        without a second forward pass.
        """
        return self.cgan.predict_mono(masks), self.predict_centers(masks)

    def predict_shapes(self, masks: np.ndarray) -> np.ndarray:
        """Centered binary shape predictions from the CGAN path, (N, H, W)."""
        return binarize(self.cgan.predict_mono(masks))

    def predict_resist(self, masks: np.ndarray) -> np.ndarray:
        """Final LithoGAN output: centered shapes moved to predicted centers."""
        shapes = self.predict_shapes(masks)
        centers = self.predict_centers(masks)
        return np.stack(
            [
                recenter_to_predicted(shape, center)
                for shape, center in zip(shapes, centers)
            ]
        )


class PlainCgan:
    """The ablation baseline of Section 4.1: CGAN without the center path.

    Trained directly on the un-centered golden patterns; its output is used
    as-is.  Exists to reproduce the CGAN rows of Table 3 and Figures 6-7.
    """

    def __init__(self, config: ExperimentConfig, rng: np.random.Generator):
        self.config = config
        self.cgan = CganModel(config.model, config.training, rng)

    def fit(self, dataset: PairedDataset, rng: np.random.Generator,
            snapshot_inputs: Optional[np.ndarray] = None,
            hook: Optional[TelemetryHook] = None) -> CganHistory:
        return self.cgan.fit(
            dataset.masks, dataset.resists, rng,
            snapshot_inputs=snapshot_inputs, hook=hook,
        )

    def predict_resist(self, masks: np.ndarray) -> np.ndarray:
        return binarize(self.cgan.predict_mono(masks))

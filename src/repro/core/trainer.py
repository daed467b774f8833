"""Shared training utilities: batched inference and supervised regression.

The center CNN (LithoGAN's second path) and the baseline threshold CNN are
both plain supervised regressors; they share this loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

from ..errors import TrainingError
from ..nn import Adam, Sequential, mse_loss
from ..runtime.checkpoint import (
    CheckpointManager,
    collect_rngs,
    load_checkpoint_source,
    pack_state,
    unpack_state,
)
from ..runtime.faults import FaultPlan
from ..runtime.recovery import RecoveryPolicy
from ..telemetry.hooks import TelemetryHook


@dataclass
class RegressionHistory:
    """Per-epoch mean training loss of a supervised regression."""

    loss: List[float] = field(default_factory=list)
    #: per-epoch wall-clock seconds (time-to-quality for Figure 9 plots)
    seconds: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.loss:
            raise TrainingError("no epochs recorded")
        return self.loss[-1]


def predict_in_batches(net: Sequential, inputs: np.ndarray,
                       batch_size: int = 16) -> np.ndarray:
    """Run ``net`` over ``inputs`` in eval-mode batches; stack the outputs."""
    if batch_size < 1:
        raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
    outputs = [
        net.forward(inputs[start : start + batch_size])
        for start in range(0, inputs.shape[0], batch_size)
    ]
    return np.concatenate(outputs, axis=0)


def _pack_regression_state(net, optimizer, history: RegressionHistory,
                           rngs, epoch: int, phase: str):
    """Detached snapshot of a regression run's full training state."""
    return pack_state(
        epoch=epoch, phase=phase,
        nets={"net": net}, optimizers={"opt": optimizer},
        rngs=rngs,
        history={"loss": history.loss, "seconds": history.seconds},
    )


def _restore_regression_state(net, optimizer, history: RegressionHistory,
                              rngs, payload, meta, phase: str) -> int:
    """Apply a packed regression snapshot; returns its epoch."""
    epoch = unpack_state(
        payload, meta, nets={"net": net}, optimizers={"opt": optimizer},
        rngs=rngs, expect_phase=phase,
    )
    saved = meta.get("history", {})
    history.loss[:] = [float(v) for v in saved.get("loss", [])]
    history.seconds[:] = [float(v) for v in saved.get("seconds", [])]
    return epoch


def fit_regression(net: Sequential, inputs: np.ndarray, targets: np.ndarray,
                   *, epochs: int, batch_size: int,
                   rng: np.random.Generator, learning_rate: float = 1e-3,
                   optimizer: Optional[Adam] = None,
                   hook: Optional[TelemetryHook] = None,
                   phase: str = "regression",
                   checkpoints: Optional[CheckpointManager] = None,
                   checkpoint_every: int = 1,
                   resume_from: Optional[Any] = None,
                   recovery: Optional[RecoveryPolicy] = None,
                   faults: Optional[FaultPlan] = None) -> RegressionHistory:
    """Train a network on an MSE objective with Adam.

    Returns the per-epoch loss (and wall-clock) history.  Raises
    :class:`TrainingError` if the loss becomes non-finite (divergence),
    rather than silently continuing.  With ``hook`` attached,
    ``hook.on_aux_epoch_end(epoch, loss, seconds, phase=phase)`` fires after
    every epoch; without one the loop does no telemetry work at all.

    The fault-tolerance parameters mirror :meth:`CganModel.fit`:
    ``checkpoints``/``checkpoint_every`` persist atomic per-epoch snapshots,
    ``resume_from`` restarts mid-schedule bit-exactly, ``recovery`` rolls a
    diverged epoch back with learning-rate backoff, and ``faults`` injects
    NaN batches or interrupts at scheduled sites.
    """
    if inputs.shape[0] != targets.shape[0]:
        raise TrainingError(
            f"input/target count mismatch: {inputs.shape[0]} vs {targets.shape[0]}"
        )
    if epochs < 1:
        raise TrainingError(f"epochs must be >= 1, got {epochs}")
    if optimizer is None:
        optimizer = Adam(net.parameters(), learning_rate=learning_rate)

    history = RegressionHistory()
    count = inputs.shape[0]

    rngs = None
    if (checkpoints is not None or resume_from is not None
            or recovery is not None):
        rngs = collect_rngs(rng, net)

    start_epoch = 1
    if resume_from is not None:
        payload, meta = load_checkpoint_source(resume_from, checkpoints)
        start_epoch = _restore_regression_state(
            net, optimizer, history, rngs, payload, meta, phase
        ) + 1

    last_good = None
    if recovery is not None and start_epoch <= epochs:
        last_good = _pack_regression_state(
            net, optimizer, history, rngs, epoch=start_epoch - 1, phase=phase
        )

    epoch = start_epoch
    while epoch <= epochs:
        epoch_start = time.perf_counter()
        order = rng.permutation(count)
        epoch_losses = []
        try:
            for batch_index, start in enumerate(range(0, count, batch_size)):
                if faults is not None:
                    faults.on_batch_start(phase, epoch, batch_index)
                idx = order[start : start + batch_size]
                batch_targets = targets[idx]
                if faults is not None:
                    batch_targets = faults.poison(
                        phase, epoch, batch_index, batch_targets
                    )
                optimizer.zero_grad()
                prediction = net.forward(inputs[idx], training=True)
                value, grad = mse_loss(prediction, batch_targets)
                if not np.isfinite(value):
                    raise TrainingError(
                        f"regression training diverged (loss={value}) at "
                        f"epoch {epoch}, batch {batch_index}"
                    )
                net.backward(grad)
                optimizer.step()
                epoch_losses.append(value)
        except TrainingError as exc:
            if recovery is None:
                raise
            recovery.register_failure(exc)  # re-raises once exhausted
            restored_epoch = _restore_regression_state(
                net, optimizer, history, rngs, *last_good, phase
            )
            new_lr = recovery.apply_backoff((optimizer,))
            recovery.notify_rollback(
                hook, phase=phase, failed_epoch=epoch,
                restored_epoch=restored_epoch, learning_rate=new_lr,
                reason=str(exc),
            )
            epoch = restored_epoch + 1
            continue
        epoch_seconds = time.perf_counter() - epoch_start
        history.loss.append(float(np.mean(epoch_losses)))
        history.seconds.append(epoch_seconds)
        if hook is not None:
            hook.on_aux_epoch_end(
                epoch, history.loss[-1], epoch_seconds, phase=phase
            )
        if recovery is not None:
            recovery.record_success()
        due = checkpoints is not None and (
            epoch % checkpoint_every == 0 or epoch == epochs
        )
        if recovery is not None or due:
            packed = _pack_regression_state(
                net, optimizer, history, rngs, epoch=epoch, phase=phase
            )
            if recovery is not None:
                last_good = packed
            if due:
                path = checkpoints.save(
                    step=epoch, arrays=packed[0], meta=packed[1],
                    loss=history.loss[-1],
                )
                if hook is not None:
                    hook.emit(
                        "checkpoint", phase=phase, epoch=epoch,
                        path=str(path), loss=history.loss[-1],
                    )
        epoch += 1
    return history

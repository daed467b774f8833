"""Shared training utilities: batched inference and the one epoch loop.

Both LithoGAN paths — the CGAN of Eqs. (1)-(3) and the Table 2 center
CNN — and the baseline threshold CNN train through :func:`run_epochs`, the
one fault-tolerant epoch loop.  It owns the shuffle, the fault sites,
divergence rollback, checkpoints and resume; each caller supplies only its
per-batch step, its end-of-epoch callback, and the names of its networks
and optimizers.  :func:`fit_regression` is the supervised-regression
caller the two CNNs share.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from ..errors import TrainingError
from ..nn import Adam, Sequential, mse_loss
from ..runtime.checkpoint import (
    CheckpointManager,
    collect_rngs,
    extract_extras,
    load_checkpoint_source,
    pack_state,
    unpack_state,
)
from ..runtime.faults import FaultPlan
from ..runtime.recovery import RecoveryPolicy
from ..telemetry.hooks import TelemetryHook

#: one optimization step on a mini-batch; returns its losses keyed by the
#: history list each one's epoch mean is appended to
BatchStep = Callable[[np.ndarray, np.ndarray], Mapping[str, float]]


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


def run_epochs(inputs: np.ndarray, targets: np.ndarray, step: BatchStep, *,
               history: Any, epochs: int, batch_size: int,
               rng: np.random.Generator, phase: str,
               nets: Dict[str, Sequential], optimizers: Dict[str, Adam],
               monitor: str, on_epoch_end: Callable[[int, float], None],
               snapshots: Optional[Dict[int, np.ndarray]] = None,
               hook: Optional[TelemetryHook] = None,
               checkpoints: Optional[CheckpointManager] = None,
               checkpoint_every: int = 1,
               resume_from: Optional[Any] = None,
               recovery: Optional[RecoveryPolicy] = None,
               faults: Optional[FaultPlan] = None) -> None:
    """Train epochs ``1..epochs`` of ``step`` over shuffled mini-batches.

    Each epoch draws one permutation from ``rng`` and calls ``step`` on
    every mini-batch; the epoch mean of each loss it returns is appended to
    the same-named list of the ``history`` dataclass, the wall seconds to
    ``history.seconds``, and then ``on_epoch_end(epoch, seconds)`` fires.
    A :class:`TrainingError` from ``step`` gains an ``epoch E, batch B:``
    prefix.  ``nets`` and ``optimizers`` name the state a snapshot holds
    (``net/<name>/...``, ``opt/<name>/...``), together with every RNG the
    loop draws from, the history lists, and ``snapshots`` (Figure 8 images,
    ``extra/snapshot/<epoch>``).

    Fault tolerance (all off by default):

    * ``checkpoints`` saves a snapshot every ``checkpoint_every`` epochs
      and at the last one, ranked by ``history.<monitor>``, and emits a
      ``checkpoint`` event.
    * ``resume_from`` — a checkpoint path, a checkpoint directory, or
      ``"latest"`` (resolved through ``checkpoints``) — restores a snapshot
      and continues mid-schedule **bit-exactly**: the resumed run replays
      the same shuffle and dropout streams an uninterrupted run would have.
    * ``recovery`` catches a diverged epoch, rolls back to the last
      completed one, backs off every optimizer's learning rate, and retries
      within the policy's budget.
    * ``faults`` injects NaN batches or interrupts at ``(phase, epoch,
      batch)`` sites.
    """
    if checkpoints is not None and checkpoint_every < 1:
        raise TrainingError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    count = inputs.shape[0]
    records = [item.name for item in dataclasses.fields(history)
               if isinstance(getattr(history, item.name), list)]
    if snapshots is None:
        snapshots = {}
    rngs = collect_rngs(rng, *nets.values())

    def pack(epoch: int):
        return pack_state(
            epoch=epoch, phase=phase, nets=nets, optimizers=optimizers,
            rngs=rngs,
            history={name: getattr(history, name) for name in records},
            arrays={f"snapshot/{key}": images
                    for key, images in snapshots.items()},
        )

    def restore(payload, meta) -> int:
        epoch = unpack_state(payload, meta, nets=nets, optimizers=optimizers,
                             rngs=rngs, expect_phase=phase)
        saved = meta.get("history", {})
        for name in records:
            getattr(history, name)[:] = [float(v) for v in saved.get(name, [])]
        snapshots.clear()
        for key, images in extract_extras(payload).items():
            if key.startswith("snapshot/"):
                snapshots[int(key.split("/", 1)[1])] = images
        return epoch

    start_epoch = 1
    if resume_from is not None:
        start_epoch = restore(
            *load_checkpoint_source(resume_from, checkpoints)) + 1
    last_good = None
    if recovery is not None and start_epoch <= epochs:
        last_good = pack(start_epoch - 1)

    epoch = start_epoch
    while epoch <= epochs:
        epoch_start = time.perf_counter()
        order = rng.permutation(count)
        losses: Dict[str, List[float]] = {}
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
                try:
                    values = step(inputs[idx], batch_targets)
                except TrainingError as exc:
                    raise TrainingError(
                        f"epoch {epoch}, batch {batch_index}: {exc}"
                    ) from exc
                for name, value in values.items():
                    losses.setdefault(name, []).append(value)
        except TrainingError as exc:
            if recovery is None:
                raise
            recovery.register_failure(exc)  # re-raises once exhausted
            restored_epoch = restore(*last_good)
            new_lr = recovery.apply_backoff(optimizers.values())
            recovery.notify_rollback(
                hook, phase=phase, failed_epoch=epoch,
                restored_epoch=restored_epoch, learning_rate=new_lr,
                reason=str(exc),
            )
            epoch = restored_epoch + 1
            continue
        epoch_seconds = time.perf_counter() - epoch_start
        for name, values in losses.items():
            getattr(history, name).append(float(np.mean(values)))
        history.seconds.append(epoch_seconds)
        on_epoch_end(epoch, epoch_seconds)
        if recovery is not None:
            recovery.record_success()
        due = checkpoints is not None and (
            epoch % checkpoint_every == 0 or epoch == epochs
        )
        if recovery is not None or due:
            packed = pack(epoch)
            if recovery is not None:
                last_good = packed
            if due:
                loss = getattr(history, monitor)[-1]
                path = checkpoints.save(
                    step=epoch, arrays=packed[0], meta=packed[1], loss=loss,
                )
                if hook is not None:
                    hook.emit("checkpoint", phase=phase, epoch=epoch,
                              path=str(path), loss=loss)
        epoch += 1


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
    every epoch; without one the loop does no telemetry work at all.  The
    fault-tolerance parameters are those of :func:`run_epochs`; the
    snapshot names its state ``net`` and ``opt``.
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

    def step(batch_inputs: np.ndarray, batch_targets: np.ndarray):
        optimizer.zero_grad()
        prediction = net.forward(batch_inputs, training=True)
        value, grad = mse_loss(prediction, batch_targets)
        if not np.isfinite(value):
            raise TrainingError(f"regression training diverged (loss={value})")
        net.backward(grad)
        optimizer.step()
        return {"loss": value}

    def on_epoch_end(epoch: int, seconds: float) -> None:
        if hook is not None:
            hook.on_aux_epoch_end(epoch, history.loss[-1], seconds, phase=phase)

    run_epochs(
        inputs, targets, step, history=history, epochs=epochs,
        batch_size=batch_size, rng=rng, phase=phase,
        nets={"net": net}, optimizers={"opt": optimizer}, monitor="loss",
        on_epoch_end=on_epoch_end, hook=hook, checkpoints=checkpoints,
        checkpoint_every=checkpoint_every, resume_from=resume_from,
        recovery=recovery, faults=faults,
    )
    return history

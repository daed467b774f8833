"""Divergence recovery: rollback-to-last-good with learning-rate backoff.

GAN training can hit a non-finite loss (divergence, mode collapse, a bad
batch) long after hours of progress.  Instead of dying with a terminal
:class:`~repro.errors.TrainingError`, a training loop given a
:class:`RecoveryPolicy` rolls its model/optimizer/RNG state back to the last
good snapshot, shrinks the learning rate, and retries — up to a bounded
number of consecutive failures, after which the original error is
re-raised with context.  Every rollback is surfaced through the telemetry
hook (a ``rollback`` event) so run logs record exactly what happened.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..config import RecoveryConfig
from ..errors import TrainingError
from .retry import RetrySchedule, decay


class RecoveryPolicy:
    """Bounded-retry divergence recovery shared by the training loops.

    One policy instance tracks consecutive failures across a whole run (the
    counter resets after every successfully completed epoch), so a run that
    keeps diverging at the same point gives up after
    ``config.max_retries`` attempts instead of looping forever.  Learning
    rates back off multiplicatively from each optimizer's pre-failure value:
    after ``k`` consecutive failures an optimizer runs at
    ``base_lr * lr_backoff**k`` (clamped at ``min_learning_rate``).
    """

    def __init__(self, config: Optional[RecoveryConfig] = None) -> None:
        self.config = config if config is not None else RecoveryConfig()
        #: the shared deterministic retry budget (no delays: rollback itself
        #: is the pause between in-process retries)
        self.schedule = RetrySchedule(max_retries=self.config.max_retries)
        self.consecutive_failures = 0
        self.total_rollbacks = 0
        self._base_lr: Dict[int, float] = {}

    def register_failure(self, exc: BaseException) -> None:
        """Count one failure; re-raise with context when the budget is gone."""
        self.consecutive_failures += 1
        if self.schedule.exhausted(self.consecutive_failures):
            raise TrainingError(
                f"recovery budget exhausted after {self.config.max_retries} "
                f"consecutive retries; last failure: {exc}"
            ) from exc

    def record_success(self) -> None:
        """An epoch completed cleanly: reset the consecutive-failure count."""
        self.consecutive_failures = 0

    def apply_backoff(self, optimizers: Iterable) -> float:
        """Set each optimizer's learning rate for the current retry.

        Called *after* state rollback (which restores the checkpointed
        learning rate), so the backoff is absolute, not compounding with
        whatever the restore wrote back.  Returns the first optimizer's new
        learning rate for telemetry.
        """
        new_lr: Optional[float] = None
        for optimizer in optimizers:
            base = self._base_lr.setdefault(
                id(optimizer), float(optimizer.learning_rate)
            )
            optimizer.learning_rate = decay(
                base, self.config.lr_backoff, self.consecutive_failures,
                floor=self.config.min_learning_rate,
            )
            if new_lr is None:
                new_lr = optimizer.learning_rate
        if new_lr is None:
            raise TrainingError("apply_backoff received no optimizers")
        return new_lr

    def notify_rollback(self, hook, *, phase: str, failed_epoch: int,
                        restored_epoch: int, learning_rate: float,
                        reason: str) -> None:
        """Record the rollback and emit it through the telemetry hook."""
        self.total_rollbacks += 1
        if hook is not None:
            hook.emit(
                "rollback",
                phase=phase,
                epoch=restored_epoch,
                failed_epoch=failed_epoch,
                retries=self.consecutive_failures,
                learning_rate=learning_rate,
                reason=reason,
            )

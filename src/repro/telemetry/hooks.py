"""The telemetry hook: one ``emit`` for every event in the event table.

:class:`TelemetryHook` is the null object: ``emit`` is a no-op, so code
holding a hook can call ``hook.emit(event, **fields)`` unconditionally,
while code paths with *no* hook attached (``hook=None``, the default
everywhere) skip even the call — telemetry is zero-cost when off.  Events
and their fields are defined once, in :data:`~repro.telemetry.events.EVENTS`.

Two training callbacks stay as methods, each a one-line forward to
``emit``: training code calls them per epoch, and subclasses that only
want epoch timings (the repository benchmark's) override just those.

:class:`RunLoggerHook` is the bridge: for each event it writes the log line
to a :class:`~repro.telemetry.events.RunLogger` and applies the row's
metric side effects to a :class:`~repro.telemetry.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import TelemetryError
from .events import EVENTS, RunLogger
from .metrics import MetricsRegistry


class TelemetryHook:
    """Base hook: ``emit`` is a no-op.  Override it to observe events."""

    def emit(self, event: str, **fields: Any) -> None:
        """An event of the event table happened, with these fields."""

    def on_epoch_end(self, epoch: int, d_loss: float, g_loss: float,
                     l1: float, seconds: float) -> None:
        """One CGAN training epoch finished (losses are epoch means)."""
        self.emit("epoch_end", epoch=epoch, seconds=seconds, phase="cgan",
                  d_loss=d_loss, g_loss=g_loss, l1=l1)

    def on_aux_epoch_end(self, epoch: int, loss: float, seconds: float,
                         phase: str = "regression") -> None:
        """One supervised-regression epoch finished (center/threshold CNN)."""
        self.emit("epoch_end", epoch=epoch, seconds=seconds, phase=phase,
                  loss=loss)


#: shared stateless null hook, for callers that want a non-None default
NULL_HOOK = TelemetryHook()


class RunLoggerHook(TelemetryHook):
    """Bridges events into a run log and/or a metrics registry."""

    def __init__(self, logger: Optional[RunLogger] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.logger = logger
        self.registry = registry

    def emit(self, event: str, **fields: Any) -> None:
        row = EVENTS.get(event)
        if row is None:
            raise TelemetryError(f"unknown event type {event!r}")
        if self.logger is not None and row.logged:
            self.logger.emit(event, **fields)
        if self.registry is not None:
            for effect in row.metrics:
                effect(self.registry, fields)

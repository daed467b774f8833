"""The contract every workload implements, and the shared pieces."""

from __future__ import annotations

import resource
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List

from .common import REFERENCE_DIR, REFERENCE_PIN, directory_digest, load_json
from .host import SpeedProbe
from .spans import total_seconds, trace_dump


@dataclass
class Measurement:
    """What one measured window produced, before it becomes metrics.

    Times come twice: as measured, and at the reference host speed
    (``host.SpeedProbe``), which is what the end-to-end metrics report.
    """

    attempted: int
    failed: int
    #: operations completed in the window (requests, steps, samples, clips)
    operations: float
    #: time spent in the operations (serve: the whole open-loop window)
    window_s: float
    #: per-operation latencies in seconds; a failed operation counts as
    #: the whole window, so it misses every latency limit
    latencies_s: List[float]
    scaled_window_s: float
    scaled_latencies_s: List[float]
    counts: Dict[str, int] = field(default_factory=dict)


class CheckFailed(Exception):
    """An output or input check failed; the run is not correct."""


class Workload:
    """One benchmark workload: set-up phases, a measured window, checks.

    ``traced`` switches on the per-layer instrumentation: one
    ``repro.telemetry.Tracer`` that holds the benchmark's spans and is
    handed to the program's public entry points, plus the ``LayerProfiler``
    they accept.  End-to-end metrics come from untraced runs.
    """

    name = "workload"

    def __init__(self, seed: int, seconds: float, traced: bool):
        from repro.telemetry import Tracer

        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tracer = Tracer() if traced else None
        #: tracer records before this index belong to set-up, not the window
        self.first_record = 0
        #: the measured window's ``ProfileReport``, where one is taken
        self.profile = None
        self.failures: List[str] = []
        self.inputs_digest = ""
        self.setup_extra: Dict[str, float] = {}
        self.speed = SpeedProbe()

    # set-up phases, each timed by the worker
    def prepare_inputs(self) -> None:
        raise NotImplementedError

    def prepare_model(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def measure(self) -> Measurement:
        raise NotImplementedError

    def check(self) -> None:
        """Append a message to ``self.failures`` for every failed check."""
        raise NotImplementedError

    def quality(self) -> Dict[str, float]:
        return {}

    def per_layer(self, measurement: Measurement) -> Dict[str, float]:
        return {}

    def records(self) -> tuple:
        """The tracer records of the measured window."""
        return self.tracer.records[self.first_record:]

    def trace(self) -> dict:
        """The traced run's spans, self times and profile, for the record."""
        return trace_dump(self.records(), self.profile)

    def close(self) -> None:
        pass

    # helpers
    def fail(self, message: str) -> None:
        self.failures.append(message)

    def span(self, name: str):
        """A benchmark span on the run's tracer (a no-op when untraced)."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    def sample_speed(self, reps: int) -> None:
        """One speed-probe sample, between operations, in its own span."""
        with self.span("speed_probe"):
            self.speed.sample(reps)

    def program_seconds(self) -> float:
        """The traced window's wall clock less the speed probe's."""
        records = self.records()
        return (total_seconds(records, ["window"])
                - total_seconds(records, ["speed_probe"]))


def load_reference_model(config):
    """Load the committed reference model, failing closed on any mismatch."""
    from repro import api

    pinned = load_json(REFERENCE_PIN)["files"]
    actual = directory_digest(REFERENCE_DIR)
    if actual != pinned:
        changed = sorted(
            name for name in set(pinned) | set(actual)
            if pinned.get(name) != actual.get(name)
        )
        raise CheckFailed(
            f"reference model digest mismatch in {REFERENCE_DIR}: {changed}")
    return api.load_model(REFERENCE_DIR, config)


NETWORKS = ("generator", "discriminator", "center_cnn")


def nn_metrics(report, samples: int) -> Dict[str, float]:
    """The ``nn.*`` per-layer metrics of one profile, per sample."""
    metrics: Dict[str, float] = {}
    for network in NETWORKS:
        rows = [row for row in report.rows if row.network == network]
        metrics[f"nn.{network}.forward_ms"] = (
            1000.0 * sum(r.forward_s for r in rows) / samples)
        metrics[f"nn.{network}.backward_ms"] = (
            1000.0 * sum(r.backward_s for r in rows) / samples)
    total = sum(row.total_s for row in report.rows)
    for op, key in (("Conv", "nn.conv_share"), ("Deconv", "nn.deconv_share"),
                    ("BN", "nn.bn_share")):
        share = sum(r.total_s for r in report.rows if r.op == op)
        metrics[key] = share / total if total > 0 else 0.0
    forward = report.forward_s
    metrics["nn.gflops_per_s"] = (
        report.flops / forward / 1e9 if forward > 0 else 0.0)
    metrics["nn.activation_mb"] = (
        sum(r.activation_bytes for r in report.rows) / samples / 2 ** 20)
    return metrics


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

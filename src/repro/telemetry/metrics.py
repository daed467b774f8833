"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

The registry is the machine-readable side of the observability layer: every
hot path (training epochs, simulation stages, CLI commands) records into
labeled metric families, and ``MetricsRegistry.to_dict()`` exports the whole
state as plain JSON-serializable data for the ``--metrics-out`` CLI flag and
the benchmark artifacts.

Everything here is dependency-free and allocation-light: a ``Counter`` is one
float, a ``Histogram`` is a fixed bucket array.  Nothing ever samples the
clock — wall-time measurement lives in :mod:`repro.telemetry.trace`.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..errors import TelemetryError

#: default latency bucket upper bounds, in seconds (log-ish spacing from
#: sub-millisecond NN batches up to multi-minute rigorous simulations)
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)

LabelDict = Dict[str, str]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(f"counters only go up, got inc({amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A value that can go up and down (last-write-wins)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Fixed-bucket histogram with quantile summaries.

    Buckets are upper bounds (``observe(v)`` lands in the first bucket with
    ``v <= bound``); observations beyond the last bound go to an implicit
    overflow bucket.  Quantiles are estimated as the upper bound of the
    bucket containing the requested rank — coarse, but stable, bounded-memory,
    and exactly what latency dashboards need.
    """

    __slots__ = ("buckets", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, buckets: Optional[Iterable[float]] = None) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS_S
        if not bounds:
            raise TelemetryError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram buckets must be strictly increasing, got {bounds}"
            )
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for overflow
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        self._counts[bisect.bisect_left(self.buckets, value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (upper bucket bound; exact max for p100)."""
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must lie in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for bound, count in zip(self.buckets, self._counts):
            cumulative += count
            if cumulative >= rank:
                return min(bound, self._max)
        return self._max  # overflow bucket: report the true maximum

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
            "buckets": {
                **{f"le_{bound:g}": count
                   for bound, count in zip(self.buckets, self._counts)},
                "le_inf": self._counts[-1],
            },
            # explicit parallel arrays: the exact form (the le_-keyed dict
            # above is for human diffing; %g formatting is lossy, so the
            # Prometheus exporter reads these)
            "bucket_bounds": list(self.buckets),
            "bucket_counts": list(self._counts),
            "quantiles": {
                "p50": self.quantile(0.50),
                "p90": self.quantile(0.90),
                "p99": self.quantile(0.99),
            },
        }


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric family: a type plus its labeled children."""

    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.children: Dict[Tuple[Tuple[str, str], ...], object] = {}


def _label_key(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Labeled metric families with a JSON-friendly export.

    Thread-safe for registration; individual metric updates are plain
    attribute arithmetic (the GIL makes those safe enough for our use).
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- registration -------------------------------------------------------

    def _get(self, name: str, kind: str, help: str,
             labels: Optional[Mapping[str, str]], **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help)
                self._families[name] = family
            elif family.kind != kind:
                raise TelemetryError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"cannot re-register as {kind}"
                )
            key = _label_key(labels)
            child = family.children.get(key)
            if child is None:
                child = _METRIC_TYPES[kind](**kwargs)
                family.children[key] = child
            return child

    def counter(self, name: str, labels: Optional[Mapping[str, str]] = None,
                help: str = "") -> Counter:
        return self._get(name, "counter", help, labels)

    def gauge(self, name: str, labels: Optional[Mapping[str, str]] = None,
              help: str = "") -> Gauge:
        return self._get(name, "gauge", help, labels)

    def histogram(self, name: str, labels: Optional[Mapping[str, str]] = None,
                  help: str = "",
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        return self._get(name, "histogram", help, labels, buckets=buckets)

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Point-in-time export: ``{family: {type, help, series: [...]}}``."""
        out: Dict[str, dict] = {}
        with self._lock:
            for name, family in sorted(self._families.items()):
                out[name] = {
                    "type": family.kind,
                    "help": family.help,
                    "series": [
                        {"labels": dict(key), **child.to_dict()}
                        for key, child in sorted(family.children.items())
                    ],
                }
        return out

    def to_dict(self) -> dict:
        """Schema-versioned export, the ``--metrics-out`` file format."""
        return {"schema_version": 1, "metrics": self.snapshot()}

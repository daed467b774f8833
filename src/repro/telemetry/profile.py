"""Layer-level profiler for :mod:`repro.nn` networks.

A :class:`LayerProfiler` replaces a :class:`~repro.nn.network.Sequential`'s
forward/backward loop with an instrumented copy that times every layer,
estimates its FLOPs (via ``Layer.flops``), and sizes its activation output.
Attachment is explicit and reversible — ``net.profiler = profiler`` or the
:func:`profiled` context manager — and the un-instrumented path does **not**
touch the profiler machinery at all (one ``is None`` check per pass), so
profiling disabled adds zero overhead to the hot loop; the Table 4 bench
asserts exactly that.

Aggregation is per ``(network name, layer index)``, deterministic across
runs of the same workload, and exported as a :class:`ProfileReport` whose
``top_layers`` table is the document any kernel-optimization PR gets judged
against.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Tuple, Union

from ..errors import TelemetryError

#: export format version for profile JSON artifacts
PROFILE_SCHEMA_VERSION = 1


@dataclass
class LayerStats:
    """Accumulated cost of one layer position in one network."""

    network: str
    index: int
    op: str
    spec: str
    calls: int = 0
    forward_s: float = 0.0
    backward_s: float = 0.0
    flops: int = 0
    activation_bytes: int = 0

    @property
    def total_s(self) -> float:
        return self.forward_s + self.backward_s

    def to_dict(self) -> dict:
        return {
            "network": self.network,
            "index": self.index,
            "op": self.op,
            "spec": self.spec,
            "calls": self.calls,
            "forward_s": self.forward_s,
            "backward_s": self.backward_s,
            "total_s": self.total_s,
            "flops": self.flops,
            "activation_bytes": self.activation_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LayerStats":
        return cls(
            network=data["network"], index=int(data["index"]),
            op=data.get("op", "?"), spec=data.get("spec", "-"),
            calls=int(data.get("calls", 0)),
            forward_s=float(data.get("forward_s", 0.0)),
            backward_s=float(data.get("backward_s", 0.0)),
            flops=int(data.get("flops", 0)),
            activation_bytes=int(data.get("activation_bytes", 0)),
        )


@dataclass(frozen=True)
class ProfileReport:
    """Immutable snapshot of a profiling session."""

    rows: Tuple[LayerStats, ...] = ()

    @property
    def forward_s(self) -> float:
        return sum(row.forward_s for row in self.rows)

    @property
    def backward_s(self) -> float:
        return sum(row.backward_s for row in self.rows)

    @property
    def flops(self) -> int:
        return sum(row.flops for row in self.rows)

    def top_layers(self, k: int = 5) -> List[LayerStats]:
        """The ``k`` most expensive layers by total wall time.

        Ties break on ``(network, index)`` so the table is deterministic
        even when several layers are too fast to time apart.
        """
        ranked = sorted(
            self.rows,
            key=lambda row: (-row.total_s, row.network, row.index),
        )
        return ranked[:k]

    def to_dict(self) -> dict:
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "forward_s": self.forward_s,
            "backward_s": self.backward_s,
            "flops": self.flops,
            "layers": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileReport":
        try:
            rows = tuple(LayerStats.from_dict(row)
                         for row in data.get("layers", ()))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise TelemetryError(f"malformed profile payload: {exc}") from exc
        return cls(rows=rows)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self.to_dict(), indent=2) + "\n",
                            encoding="utf-8")
        except OSError as exc:
            raise TelemetryError(
                f"cannot write profile to {path}: {exc}"
            ) from exc
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ProfileReport":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise TelemetryError(
                f"unreadable profile {path}: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise TelemetryError(f"malformed profile {path}: not an object")
        return cls.from_dict(data)


class LayerProfiler:
    """Times each layer of an attached :class:`Sequential` per pass.

    One profiler can observe several networks at once (LithoGAN has three);
    stats accumulate per ``(network name, layer index)`` until
    :meth:`report` or :meth:`reset`.
    """

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, int], LayerStats] = {}

    def _row(self, network, index: int, layer) -> LayerStats:
        key = (network.name, index)
        row = self._stats.get(key)
        if row is None:
            row = LayerStats(network=network.name, index=index,
                             op=layer.op_name, spec=layer.describe())
            self._stats[key] = row
        return row

    def forward(self, network, x, training: bool = False):
        """Instrumented replacement for ``Sequential.forward``."""
        out = x
        for index, layer in enumerate(network.layers):
            in_shape = out.shape
            started = perf_counter()
            out = layer.forward(out, training=training)
            elapsed = perf_counter() - started
            row = self._row(network, index, layer)
            row.calls += 1
            row.forward_s += elapsed
            row.flops += layer.flops(in_shape, out.shape)
            row.activation_bytes += out.nbytes
        return out

    def backward(self, network, grad):
        """Instrumented replacement for ``Sequential.backward``."""
        out = grad
        for index in range(len(network.layers) - 1, -1, -1):
            layer = network.layers[index]
            started = perf_counter()
            out = layer.backward(out)
            elapsed = perf_counter() - started
            row = self._row(network, index, layer)
            row.backward_s += elapsed
        return out

    def report(self) -> ProfileReport:
        """Snapshot the accumulated stats, ordered by (network, index)."""
        rows = tuple(sorted(self._stats.values(),
                            key=lambda row: (row.network, row.index)))
        return ProfileReport(rows=rows)

    def reset(self) -> None:
        self._stats.clear()


@contextmanager
def profiled(profiler: LayerProfiler, *networks) -> Iterator[LayerProfiler]:
    """Attach ``profiler`` to each network for the duration of the block."""
    previous = [net.profiler for net in networks]
    for net in networks:
        net.profiler = profiler
    try:
        yield profiler
    finally:
        for net, old in zip(networks, previous):
            net.profiler = old

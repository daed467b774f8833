"""Sequential network container with summaries and (de)serialization."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CheckpointError, ShapeError, TrainingError
from .layers.base import Layer
from .parameter import Parameter


class Sequential:
    """A straight-line stack of layers.

    ``forward`` feeds the input through every layer.  A training forward
    leaves each layer's backward cache in place; an eval-mode forward
    releases each cache as soon as its layer returns, so inference holds no
    backward state.  ``backward`` walks the stack in reverse after a
    training forward and returns the gradient with respect to the network
    input — which is how the GAN loop pushes the discriminator's verdict
    back into the generator.

    Gradient API: :meth:`backward` is the *training-internal* path — it
    accumulates parameter gradients as a side effect and assumes the cached
    forward matches the mode the optimizer expects.  Code that only wants
    the gradient of some objective with respect to the network *input*
    (inverse lithography, sensitivity analysis, saliency) must go through
    :meth:`input_gradient`, which runs the inference path and is guaranteed
    to leave parameter gradients — and therefore optimizer state — untouched.
    """

    def __init__(self, layers: Sequence[Layer], name: str = "network"):
        layer_list = list(layers)
        if not layer_list:
            raise TrainingError("Sequential requires at least one layer")
        self.layers: List[Layer] = layer_list
        self.name = name
        #: optional repro.telemetry.profile.LayerProfiler; when attached,
        #: it times every step of :meth:`_walk`
        self.profiler = None

    # -- execution ----------------------------------------------------------

    def _walk(self, x: np.ndarray, step: Callable, reverse: bool = False
              ) -> np.ndarray:
        """The one per-layer loop: ``x = step(layer, x)`` for every layer.

        ``reverse`` walks from the output back to the input, as the
        gradient passes do.  An attached profiler times each step into
        that layer's row (its backward column when ``reverse``).
        """
        profiler = self.profiler
        indices = range(len(self.layers))
        for index in reversed(indices) if reverse else indices:
            if profiler is None:
                x = step(self.layers[index], x)
            else:
                x = profiler.time_step(self, index, step, x, reverse)
        return x

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            return self._walk(
                x, lambda layer, out: layer.forward(out, training=True))
        return self._walk(x, _released(lambda layer, out: layer.forward(out)))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Training-internal backward: accumulates parameter gradients.

        Reads the caches of the preceding ``forward(x, training=True)``.
        External gradient consumers should call :meth:`input_gradient`.
        """
        return self._walk(grad, lambda layer, g: layer.backward(g),
                          reverse=True)

    def input_gradient(
        self,
        x: np.ndarray,
        grad_out: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]],
    ) -> np.ndarray:
        """Gradient of an objective with respect to the network input.

        Runs a fresh eval-mode forward that keeps each layer's cache
        (normalization layers use their running statistics and update
        nothing; dropout is off), then walks the stack in reverse through
        each layer's ``input_gradient``, releasing each cache once its layer
        is done.  An attached profiler records the two walks as forward and
        backward.

        ``grad_out`` is either the gradient of the objective at the network
        output, or a callable mapping the forward output to that gradient —
        the callable form lets a caller compute its loss from the same
        forward pass instead of paying for a second one.

        Parameter gradients are checked where they are written: each
        layer's ``input_gradient`` marks its parameters frozen, and a layer
        that adds a gradient anyway raises
        :class:`~repro.errors.TrainingError` naming the parameter, so it
        fails loudly instead of silently corrupting the next optimizer step.
        """
        out = self._walk(x, lambda layer, h: layer.forward(h))
        grad = grad_out(out) if callable(grad_out) else grad_out
        grad = np.asarray(grad)
        if grad.shape != out.shape:
            raise ShapeError(
                f"grad_out shape {grad.shape} does not match network "
                f"output shape {out.shape}"
            )
        return self._walk(
            grad, _released(lambda layer, g: layer.input_gradient(g)),
            reverse=True)

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    # -- parameters ----------------------------------------------------------

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- introspection --------------------------------------------------------

    def summary(self, input_shape: Tuple[int, ...]) -> List[Dict[str, str]]:
        """Architecture-table rows: layer ops, filter spec, output size.

        Consecutive parameter-free layers (BN, activations, dropout, pooling)
        are folded into the row of the preceding parametric layer, matching
        the ``Conv-BN-ReLU``-style row labels of the paper's Tables 1 and 2.
        """
        rows: List[Dict[str, str]] = [
            {
                "layer": "Input",
                "filter": "-",
                "output": "x".join(str(d) for d in _hwc(input_shape)),
            }
        ]
        shape = input_shape
        current: Optional[Dict[str, str]] = None
        for layer in self.layers:
            shape = layer.output_shape(shape)
            starts_row = layer.op_name in (
                "Conv", "Deconv", "FC", "Dropout", "Flatten",
            )
            if starts_row or current is None:
                current = {
                    "layer": layer.op_name,
                    "filter": layer.describe(),
                    "output": "x".join(str(d) for d in _hwc(shape)),
                }
                rows.append(current)
            else:
                current["layer"] += f"-{layer.op_name}"
                current["output"] = "x".join(str(d) for d in _hwc(shape))
        return rows

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        shape = input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    # -- persistence -----------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Parameter values plus batch-norm running statistics."""
        state: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for j, param in enumerate(layer.parameters()):
                state[f"layer{i}.param{j}"] = param.value.copy()
            if hasattr(layer, "running_mean"):
                state[f"layer{i}.running_mean"] = layer.running_mean.copy()
                state[f"layer{i}.running_var"] = layer.running_var.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            for j, param in enumerate(layer.parameters()):
                key = f"layer{i}.param{j}"
                if key not in state:
                    raise ShapeError(f"missing parameter {key} in state dict")
                value = state[key]
                if value.shape != param.value.shape:
                    raise ShapeError(
                        f"{key}: shape {value.shape} does not match "
                        f"{param.value.shape}"
                    )
                # astype copies; a fresh zeros buffer stays unwritten
                # until a backward needs it, unlike zero_grad's fill
                param.value = value.astype(np.float32)
                param.grad = np.zeros(value.shape, np.float32)
            if hasattr(layer, "running_mean"):
                for stat in ("running_mean", "running_var"):
                    if f"layer{i}.{stat}" not in state:
                        raise ShapeError(
                            f"missing layer{i}.{stat} in state dict"
                        )
                layer.running_mean = state[f"layer{i}.running_mean"].copy()
                layer.running_var = state[f"layer{i}.running_var"].copy()
                if hasattr(layer, "_stats_seeded"):
                    layer._stats_seeded = True

    def save(self, path) -> None:
        """Atomically persist :meth:`state_dict` as a compressed ``.npz``.

        The archive is written to a temp file, fsynced, and renamed into
        place, so a process killed mid-save never leaves a truncated weight
        file where a good one should be.
        """
        from ..runtime.atomic import atomic_savez

        path = Path(path)
        if path.suffix != ".npz":  # match np.savez's suffix behavior
            path = path.with_name(path.name + ".npz")
        atomic_savez(path, self.state_dict())

    def load(self, path) -> None:
        """Load weights saved by :meth:`save`, failing closed.

        Missing files, unreadable/truncated archives, absent keys, and
        shape mismatches all raise :class:`~repro.errors.CheckpointError`
        naming the offending path (and key, where applicable) — never a raw
        ``KeyError``/``ValueError``.
        """
        from ..runtime.atomic import read_npz

        state = read_npz(path, CheckpointError, "weight file")
        try:
            self.load_state_dict(state)
        except ShapeError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc


def _released(step: Callable) -> Callable:
    """``step`` followed by dropping the layer's backward cache."""

    def run(layer: Layer, x: np.ndarray) -> np.ndarray:
        out = step(layer, x)
        layer._cache = None
        return out

    return run


def _hwc(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """Render (C, H, W) shapes as HxWxC like the paper's tables; pass others."""
    if len(shape) == 3:
        c, h, w = shape
        return (h, w, c)
    return shape

"""Layer interface.

A layer is a differentiable function with optional parameters.  ``forward``
keeps whatever the matching ``backward`` needs in the layer's one ``_cache``
slot; calling ``backward`` without a preceding ``forward`` is an error.
Layers are single-use per step: each ``forward`` overwrites the cache of the
previous one.  That holds for training forwards and for the forward of an
input-gradient query only: :meth:`repro.nn.Sequential.forward` in eval mode
clears each layer's slot as soon as the layer returns, and
:meth:`repro.nn.Sequential.input_gradient` clears it once the layer's
gradient is taken, so inference holds no backward state.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...errors import TrainingError
from ..parameter import Parameter


class Layer:
    """Base class for all layers."""

    #: human-readable op name used in architecture summaries ("Conv", ...)
    op_name = "Layer"

    #: what ``backward`` reads from the last ``forward``; ``None`` when no
    #: forward has run or an eval-mode walk released it
    _cache = None

    def parameters(self) -> List[Parameter]:
        """Trainable parameters of this layer (empty by default)."""
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def input_gradient(self, grad: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. this layer's input, parameter gradients untouched.

        The default marks this layer's parameters frozen around
        :meth:`backward`: parametric layers skip the weight gradient
        computation entirely when frozen, and a layer that adds a gradient
        anyway gets a :class:`~repro.errors.TrainingError` from
        :meth:`~repro.nn.parameter.Parameter.add_grad`.  Layers whose
        eval-mode gradient differs from the cached training-mode one
        (:class:`~repro.nn.layers.norm.BatchNorm`) override this.
        """
        params = self.parameters()
        for param in params:
            param.frozen = True
        try:
            return self.backward(grad)
        finally:
            for param in params:
                param.frozen = False

    def output_shape(self, input_shape: tuple) -> tuple:
        """Shape (without batch dim) this layer produces for an input shape."""
        raise NotImplementedError

    def describe(self) -> str:
        """The 'Filter' column of the paper's architecture tables."""
        return "-"

    def flops(self, input_shape: tuple, output_shape: tuple) -> int:
        """Estimated forward-pass FLOPs for one batch.

        Shapes include the batch dimension.  The default is 0 (shape-only
        ops like flatten/reshape cost nothing); compute layers override with
        the standard multiply-add accounting the profiler aggregates.
        """
        return 0

    def _require_cache(self, value, what: str = "input"):
        if value is None:
            raise TrainingError(
                f"{type(self).__name__}.backward called before forward "
                f"(missing cached {what})"
            )
        return value

"""Shape adapters."""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from .base import Layer


class Flatten(Layer):
    """(N, C, H, W) -> (N, C*H*W)."""

    op_name = "Flatten"

    def output_shape(self, input_shape: tuple) -> tuple:
        total = 1
        for dim in input_shape:
            total *= dim
        return (total,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim < 2:
            raise ShapeError(f"expected a batched tensor, got shape {x.shape}")
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        shape = self._require_cache(self._cache, "shape")
        return grad.reshape(shape)

"""Max pooling (2x2 stride 2 is what Table 2 uses; any equal size/stride works)."""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from .base import Layer


class MaxPool2D(Layer):
    """Non-overlapping max pooling: ``size == stride``.

    ``forward`` caches its input and output only; ``backward`` builds the
    gradient routing mask from them, so an inference forward pays for the
    max alone.
    """

    op_name = "P"

    def __init__(self, size: int = 2):
        if size < 2:
            raise ShapeError(f"pool size must be >= 2, got {size}")
        self.size = size

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        if h % self.size or w % self.size:
            raise ShapeError(
                f"input {h}x{w} is not divisible by pool size {self.size}"
            )
        return (c, h // self.size, w // self.size)

    def describe(self) -> str:
        return f"{self.size}x{self.size},{self.size}"

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        h, w = x.shape[2:]
        s = self.size
        if h % s or w % s:
            raise ShapeError(f"input {h}x{w} is not divisible by pool size {s}")
        out = x[:, :, ::s, ::s].copy()
        for i in range(s):
            for j in range(s):
                if i or j:
                    np.maximum(out, x[:, :, i::s, j::s], out=out)
        self._cache = (x, out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, out = self._require_cache(self._cache)
        n, c, h, w = x.shape
        s = self.size
        windows = x.reshape(n, c, h // s, s, w // s, s)
        # Gradient routing mask; ties split the gradient evenly.
        mask = (windows == out[:, :, :, None, :, None]).astype(np.float32)
        counts = mask.sum(axis=(3, 5), keepdims=True)
        grad_windows = grad[:, :, :, None, :, None] * (mask / counts)
        return grad_windows.reshape(n, c, h, w)

"""Inverted dropout.

In the pix2pix lineage the paper follows, dropout in the decoder doubles as
the generator's noise source ``z`` (Section 3.2's ``G(x, z)``); keeping it
active at sampling time is therefore a legitimate mode, exposed through the
``training`` flag of ``forward``.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from .base import Layer


class Dropout(Layer):
    op_name = "Dropout"

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0 <= rate < 1:
            raise ShapeError(f"dropout rate must lie in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0:
            # Eval mode is the identity; a scalar mask keeps backward the
            # identity too without allocating a full ones tensor.
            self._cache = np.float32(1.0)
            return x
        keep = 1.0 - self.rate
        self._cache = (
            self._rng.uniform(size=x.shape) < keep
        ).astype(np.float32) / keep
        return x * self._cache

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask = self._require_cache(self._cache, "mask")
        return grad * mask

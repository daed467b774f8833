"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from ..functional import sigmoid, sigmoid_grad
from .base import Layer


def _numel(shape: tuple) -> int:
    count = 1
    for dim in shape:
        count *= int(dim)
    return count


class ReLU(Layer):
    op_name = "ReLU"

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape

    def flops(self, input_shape: tuple, output_shape: tuple) -> int:
        return _numel(output_shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x > 0
        return np.where(self._cache, x, 0.0).astype(np.float32, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask = self._require_cache(self._cache, "mask")
        return grad * mask


class LeakyReLU(Layer):
    op_name = "LReLU"

    def __init__(self, slope: float = 0.2):
        if not 0 <= slope < 1:
            raise ShapeError(f"leaky slope must lie in [0, 1), got {slope}")
        self.slope = slope

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape

    def flops(self, input_shape: tuple, output_shape: tuple) -> int:
        return 2 * _numel(output_shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x > 0
        return np.where(self._cache, x, self.slope * x).astype(np.float32, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask = self._require_cache(self._cache, "mask")
        return np.where(mask, grad, self.slope * grad)


class Sigmoid(Layer):
    op_name = "Sigmoid"

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape

    def flops(self, input_shape: tuple, output_shape: tuple) -> int:
        return 4 * _numel(output_shape)  # exp, add, div, negate

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = sigmoid(x)
        return self._cache

    def backward(self, grad: np.ndarray) -> np.ndarray:
        out = self._require_cache(self._cache, "output")
        return grad * sigmoid_grad(out)


class Tanh(Layer):
    op_name = "Tanh"

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape

    def flops(self, input_shape: tuple, output_shape: tuple) -> int:
        return 4 * _numel(output_shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = np.tanh(x)
        return self._cache

    def backward(self, grad: np.ndarray) -> np.ndarray:
        out = self._require_cache(self._cache, "output")
        return grad * (1.0 - out**2)

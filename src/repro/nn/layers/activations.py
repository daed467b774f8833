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
        # fmax maps NaN and -0.0 to +0.0, as a select on the mask does,
        # without a branch per element; numpy's float64 loop keeps -0.0
        # on some strides, so the max runs in the float32 it returns
        return np.fmax(x, 0, dtype=np.float32)

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
        if self.slope:
            # for 0 < slope < 1, max(x, slope * x) is x where x > 0 and
            # slope * x elsewhere, NaN, signed zeros and infinities
            # included: the select without a branch per element
            out = self.slope * x
            np.maximum(x, out, out=out)
        else:
            # 0 * inf is NaN, so max(x, 0 * x) would lose +inf
            out = x * self._cache
        return out.astype(np.float32, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask = self._require_cache(self._cache, "mask")
        factor = np.take(np.array([self.slope, 1], grad.dtype),
                         mask.view(np.uint8))
        return np.multiply(grad, factor, out=factor)


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

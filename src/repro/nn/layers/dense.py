"""Fully connected layer."""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from ...errors import ShapeError
from ..initializers import glorot_uniform, zeros
from ..parameter import Parameter
from .base import Layer


class Dense(Layer):
    """Affine map on (N, in_features) tensors."""

    op_name = "FC"

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator,
                 weight_init: Callable = glorot_uniform,
                 use_bias: bool = True, name: str = "dense"):
        if in_features < 1 or out_features < 1:
            raise ShapeError("feature counts must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            weight_init((in_features, out_features), rng), name=f"{name}.weight"
        )
        self.bias = (
            Parameter(zeros((out_features,)), name=f"{name}.bias")
            if use_bias
            else None
        )

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def flops(self, input_shape: tuple, output_shape: tuple) -> int:
        return 2 * self.in_features * self.out_features * input_shape[0]

    def output_shape(self, input_shape: tuple) -> tuple:
        if input_shape != (self.in_features,):
            raise ShapeError(
                f"expected input shape ({self.in_features},), got {input_shape}"
            )
        return (self.out_features,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"expected (N, {self.in_features}), got {x.shape}"
            )
        self._cache = x
        out = x @ self.weight.value
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._require_cache(self._cache)
        if not self.weight.frozen:
            self.weight.add_grad(x.T @ grad)
            if self.bias is not None:
                self.bias.add_grad(grad.sum(axis=0))
        return grad @ self.weight.value.T

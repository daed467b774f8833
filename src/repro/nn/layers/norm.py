"""Batch normalization (Ioffe & Szegedy, the paper's reference [23]).

Works on both (N, C, H, W) image tensors — normalizing per channel over
(N, H, W) — and (N, F) dense tensors.  Training mode uses batch statistics
and updates exponential running averages; eval mode uses the running stats.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...errors import ShapeError
from ..parameter import Parameter
from .base import Layer


class BatchNorm(Layer):
    op_name = "BN"

    def __init__(self, num_features: int, momentum: float = 0.9,
                 eps: float = 1e-5, name: str = "bn"):
        if num_features < 1:
            raise ShapeError("num_features must be >= 1")
        if not 0 <= momentum < 1:
            raise ShapeError(f"momentum must lie in [0, 1), got {momentum}")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(
            np.ones(num_features, dtype=np.float32), name=f"{name}.gamma"
        )
        self.beta = Parameter(
            np.zeros(num_features, dtype=np.float32), name=f"{name}.beta"
        )
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self._stats_seeded = False

    def parameters(self) -> List[Parameter]:
        return [self.gamma, self.beta]

    def output_shape(self, input_shape: tuple) -> tuple:
        if input_shape[0] != self.num_features:
            raise ShapeError(
                f"expected {self.num_features} features, got {input_shape[0]}"
            )
        return input_shape

    def flops(self, input_shape: tuple, output_shape: tuple) -> int:
        count = 1
        for dim in output_shape:
            count *= int(dim)
        return 4 * count  # subtract mean, scale by 1/std, gamma, beta

    @staticmethod
    def _axes_and_shape(x: np.ndarray):
        """Reduction axes and broadcast shape for 2-D or 4-D inputs."""
        if x.ndim == 4:
            return (0, 2, 3), (1, -1, 1, 1)
        if x.ndim == 2:
            return (0,), (1, -1)
        raise ShapeError(f"BatchNorm expects 2-D or 4-D input, got {x.ndim}-D")

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        axes, bshape = self._axes_and_shape(x)
        if x.shape[1] != self.num_features:
            raise ShapeError(
                f"expected {self.num_features} channels, got {x.shape[1]}"
            )
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            if not self._stats_seeded:
                # Seed the running averages with the first batch so eval mode
                # is sensible even after very few training steps.
                self.running_mean = mean.astype(np.float32)
                self.running_var = var.astype(np.float32)
                self._stats_seeded = True
            else:
                self.running_mean = (
                    self.momentum * self.running_mean + (1 - self.momentum) * mean
                ).astype(np.float32)
                self.running_var = (
                    self.momentum * self.running_var + (1 - self.momentum) * var
                ).astype(np.float32)
        else:
            mean = self.running_mean
            var = self.running_var

        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = x - mean.reshape(bshape)
        x_hat *= inv_std.reshape(bshape)
        out = x_hat * self.gamma.value.reshape(bshape)
        out += self.beta.value.reshape(bshape)
        count = x.size // self.num_features
        self._cache = (x_hat, inv_std, axes, bshape, count, training)
        return out.astype(np.float32, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_hat, inv_std, axes, bshape, count, training = self._require_cache(
            self._cache
        )
        if not self.gamma.frozen:
            self.gamma.add_grad((grad * x_hat).sum(axis=axes))
            self.beta.add_grad(grad.sum(axis=axes))

        gamma = self.gamma.value.reshape(bshape)
        if not training:
            # Eval-mode stats are constants w.r.t. the input.
            return grad * gamma * inv_std.reshape(bshape)

        grad_xhat = grad * gamma
        mean_grad = grad_xhat.mean(axis=axes).reshape(bshape)
        mean_grad_xhat = (grad_xhat * x_hat).mean(axis=axes).reshape(bshape)
        return (
            (grad_xhat - mean_grad - x_hat * mean_grad_xhat)
            * inv_std.reshape(bshape)
        ).astype(np.float32, copy=False)

    def input_gradient(self, grad: np.ndarray) -> np.ndarray:
        """Inference-path input gradient from the *running* statistics.

        The inference forward normalizes with the running averages, so its
        input gradient is ``grad * gamma / sqrt(running_var + eps)``.  The
        ``inv_std`` is recomputed here from ``running_var`` rather than
        taken from the forward cache, so a cache left behind by a
        training-mode forward (batch statistics) can never contaminate an
        eval-mode gradient query.  Gamma/beta gradients are never touched.
        """
        _, _, axes, bshape, _, _ = self._require_cache(self._cache)
        gamma = self.gamma.value.reshape(bshape)
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        return (grad * gamma * inv_std.reshape(bshape)).astype(
            np.float32, copy=False
        )

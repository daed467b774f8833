"""Strided convolution and transposed convolution (SAME padding).

``ConvTranspose2D`` is implemented as the exact adjoint of ``Conv2D``: its
forward pass is the conv's input-gradient computation and vice versa, so the
two share the im2col/col2im machinery and upsample/downsample by the same
stride-2 SAME geometry the paper's Tables 1-2 assume.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ...errors import ShapeError
from ..functional import (
    col2im,
    crop_image,
    im2col,
    pad_image,
    same_padding,
)
from ..initializers import dcgan_normal, zeros
from ..parameter import Parameter
from .base import Layer


class Conv2D(Layer):
    """2-D convolution, SAME padding, square kernel and stride."""

    op_name = "Conv"

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int, rng: np.random.Generator,
                 weight_init: Callable = dcgan_normal, use_bias: bool = True,
                 name: str = "conv"):
        if in_channels < 1 or out_channels < 1:
            raise ShapeError("channel counts must be >= 1")
        if kernel < 1 or stride < 1:
            raise ShapeError("kernel and stride must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.weight = Parameter(
            weight_init((out_channels, in_channels, kernel, kernel), rng),
            name=f"{name}.weight",
        )
        self.bias = (
            Parameter(zeros((out_channels,)), name=f"{name}.bias")
            if use_bias
            else None
        )

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def describe(self) -> str:
        return f"{self.kernel}x{self.kernel},{self.stride}"

    def flops(self, input_shape: tuple, output_shape: tuple) -> int:
        # one multiply-add per kernel tap per output element
        n, _, out_h, out_w = output_shape
        return (2 * self.kernel * self.kernel * self.in_channels
                * self.out_channels * n * out_h * out_w)

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ShapeError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        out_h, _ = same_padding(h, self.kernel, self.stride)
        out_w, _ = same_padding(w, self.kernel, self.stride)
        return (self.out_channels, out_h, out_w)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        out_h, pad_h = same_padding(h, self.kernel, self.stride)
        out_w, pad_w = same_padding(w, self.kernel, self.stride)
        padding = (pad_h[0], pad_h[1], pad_w[2], pad_w[3])
        x_padded = pad_image(x, padding)
        cols = im2col(x_padded, self.kernel, self.stride, out_h, out_w)
        w_mat = self.weight.value.reshape(self.out_channels, -1)
        out = np.matmul(w_mat, cols)
        if self.bias is not None:
            out += self.bias.value[None, :, None]
        self._cache = (cols, x_padded.shape, padding, (out_h, out_w))
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        cols, padded_shape, padding, (out_h, out_w) = self._require_cache(
            self._cache
        )
        n = grad.shape[0]
        grad_flat = grad.reshape(n, self.out_channels, out_h * out_w)
        if not self.weight.frozen:
            if self.bias is not None:
                self.bias.add_grad(grad_flat.sum(axis=(0, 2)))
            grad_w = np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0)
            self.weight.add_grad(grad_w.reshape(self.weight.value.shape))
        w_mat = self.weight.value.reshape(self.out_channels, -1)
        grad_cols = np.matmul(w_mat.T, grad_flat)
        grad_padded = col2im(
            grad_cols, padded_shape, self.kernel, self.stride, out_h, out_w
        )
        return crop_image(grad_padded, padding)


class ConvTranspose2D(Layer):
    """Transposed convolution upsampling by ``stride`` (SAME geometry).

    For an input of spatial size ``h`` the output is ``h * stride`` — the
    adjoint of a SAME Conv2D mapping ``h * stride -> h``.
    """

    op_name = "Deconv"

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int, rng: np.random.Generator,
                 weight_init: Callable = dcgan_normal, use_bias: bool = True,
                 name: str = "deconv"):
        if in_channels < 1 or out_channels < 1:
            raise ShapeError("channel counts must be >= 1")
        if kernel < 1 or stride < 1:
            raise ShapeError("kernel and stride must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        # Weight layout mirrors the adjoint conv: (in, out, k, k).
        self.weight = Parameter(
            weight_init((in_channels, out_channels, kernel, kernel), rng),
            name=f"{name}.weight",
        )
        self.bias = (
            Parameter(zeros((out_channels,)), name=f"{name}.bias")
            if use_bias
            else None
        )

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def describe(self) -> str:
        return f"{self.kernel}x{self.kernel},{self.stride}"

    def flops(self, input_shape: tuple, output_shape: tuple) -> int:
        # adjoint of the conv: same tap count, indexed by input elements
        n, _, in_h, in_w = input_shape
        return (2 * self.kernel * self.kernel * self.in_channels
                * self.out_channels * n * in_h * in_w)

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ShapeError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        return (self.out_channels, h * self.stride, w * self.stride)

    def _geometry(self, in_h: int, in_w: int):
        """Padding of the adjoint conv (big -> small) this layer transposes."""
        out_h, out_w = in_h * self.stride, in_w * self.stride
        check_h, pad_h = same_padding(out_h, self.kernel, self.stride)
        check_w, pad_w = same_padding(out_w, self.kernel, self.stride)
        if (check_h, check_w) != (in_h, in_w):  # pragma: no cover - geometry
            raise ShapeError("inconsistent transposed-conv geometry")
        padding = (pad_h[0], pad_h[1], pad_w[2], pad_w[3])
        padded_shape_hw = (out_h + pad_h[0] + pad_h[1], out_w + pad_w[2] + pad_w[3])
        return out_h, out_w, padding, padded_shape_hw

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, in_h, in_w = x.shape
        out_h, out_w, padding, (ph, pw) = self._geometry(in_h, in_w)
        x_flat = x.reshape(n, self.in_channels, in_h * in_w)
        w_mat = self.weight.value.reshape(self.in_channels, -1)  # (in, out*k*k)
        cols = np.matmul(w_mat.T, x_flat)
        out_padded = col2im(
            cols,
            (n, self.out_channels, ph, pw),
            self.kernel,
            self.stride,
            in_h,
            in_w,
        )
        out = crop_image(out_padded, padding)
        if self.bias is not None:
            out = out + self.bias.value[None, :, None, None]
        self._cache = (x_flat, (in_h, in_w), padding)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_flat, (in_h, in_w), padding = self._require_cache(self._cache)
        n = grad.shape[0]
        if not self.weight.frozen and self.bias is not None:
            self.bias.add_grad(grad.sum(axis=(0, 2, 3)))
        grad_padded = pad_image(grad, padding)
        grad_cols = im2col(grad_padded, self.kernel, self.stride, in_h, in_w)
        w_mat = self.weight.value.reshape(self.in_channels, -1)
        grad_x = np.matmul(w_mat, grad_cols)
        if not self.weight.frozen:
            grad_w = np.matmul(x_flat, grad_cols.transpose(0, 2, 1)).sum(axis=0)
            self.weight.add_grad(grad_w.reshape(self.weight.value.shape))
        return grad_x.reshape(n, self.in_channels, in_h, in_w)

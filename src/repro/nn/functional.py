"""Low-level tensor ops shared by the convolution layers.

``im2col`` / ``col2im`` implement the patch-matrix view of convolution.  The
loops run over the kernel footprint only (k*k iterations of full-array
slicing), which keeps them fast in NumPy while staying readable.

Padding follows TensorFlow's SAME convention, which is what the paper's
architecture tables assume: for stride ``s`` the output size is
``ceil(in/s)`` and the total padding splits with the extra pixel at the
bottom/right.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..errors import ShapeError

Padding = Tuple[int, int, int, int]  # (top, bottom, left, right)


def same_padding(in_size: int, kernel: int, stride: int) -> Tuple[int, Padding]:
    """TensorFlow SAME padding: output size and (top, bottom, left, right)."""
    if in_size < 1 or kernel < 1 or stride < 1:
        raise ShapeError(
            f"invalid conv geometry: in={in_size}, k={kernel}, stride={stride}"
        )
    out_size = math.ceil(in_size / stride)
    total = max((out_size - 1) * stride + kernel - in_size, 0)
    begin = total // 2
    end = total - begin
    return out_size, (begin, end, begin, end)


def pad_image(x: np.ndarray, padding: Padding) -> np.ndarray:
    """Zero-pad an (N, C, H, W) tensor spatially."""
    top, bottom, left, right = padding
    if not any(padding):
        return x
    n, c, height, width = x.shape
    out = np.zeros((n, c, top + height + bottom, left + width + right),
                   dtype=x.dtype)
    out[:, :, top : top + height, left : left + width] = x
    return out


def crop_image(x: np.ndarray, padding: Padding) -> np.ndarray:
    """Inverse of :func:`pad_image`."""
    top, bottom, left, right = padding
    height, width = x.shape[2], x.shape[3]
    return x[:, :, top : height - bottom or None, left : width - right or None]


def im2col(x_padded: np.ndarray, kernel: int, stride: int,
           out_h: int, out_w: int) -> np.ndarray:
    """Extract conv patches: (N, C, Hp, Wp) -> (N, C*k*k, out_h*out_w)."""
    n, c = x_padded.shape[:2]
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x_padded.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            cols[:, :, ki, kj] = x_padded[
                :, :, ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride,
            ]
    return cols.reshape(n, c * kernel * kernel, out_h * out_w)


def col2im(cols: np.ndarray, padded_shape: Tuple[int, int, int, int],
           kernel: int, stride: int, out_h: int, out_w: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patches back onto the image."""
    n, c, height, width = padded_shape
    x = np.zeros(padded_shape, dtype=cols.dtype)
    cols = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    for ki in range(kernel):
        for kj in range(kernel):
            x[
                :, :, ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride,
            ] += cols[:, :, ki, kj]
    return x


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=np.float64)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out.astype(z.dtype, copy=False)


def sigmoid_grad(out: np.ndarray) -> np.ndarray:
    """Derivative of :func:`sigmoid` expressed in terms of its *output*.

    Shared by the :class:`~repro.nn.layers.activations.Sigmoid` layer and
    the ILT mask parameterization (``repro.ilt``), whose continuous mask is
    ``sigmoid(steepness * theta)`` and needs the same chain-rule factor.
    """
    return out * (1.0 - out)

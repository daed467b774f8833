"""im2col/col2im adjointness, SAME padding geometry, stable sigmoid."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.nn.functional import (
    col2im,
    crop_image,
    im2col,
    pad_image,
    same_padding,
    sigmoid,
)


class TestSamePadding:
    def test_stride_two_even_input(self):
        """TF SAME: in=256, k=5, s=2 -> out=128, pad (1, 2)."""
        out, (top, bottom, left, right) = same_padding(256, 5, 2)
        assert out == 128
        assert (top, bottom) == (1, 2)

    def test_stride_one(self):
        out, (top, bottom, _, _) = same_padding(64, 7, 1)
        assert out == 64
        assert top + bottom == 6

    def test_odd_input(self):
        out, _ = same_padding(7, 3, 2)
        assert out == 4

    def test_invalid_geometry_raises(self):
        with pytest.raises(ShapeError):
            same_padding(0, 3, 1)


class TestPadCrop:
    def test_roundtrip(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 5, 7)).astype(np.float32)
        padding = (1, 2, 3, 0)
        assert np.array_equal(crop_image(pad_image(x, padding), padding), x)

    def test_no_padding_returns_same_object(self):
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        assert pad_image(x, (0, 0, 0, 0)) is x

    @pytest.mark.parametrize("padding", [
        (1, 2, 3, 0), (0, 3, 0, 1), (2, 0, 0, 0), (0, 0, 1, 2), (3, 3, 3, 3),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_np_pad_bytes(self, padding, dtype):
        x = np.random.default_rng(1).normal(size=(2, 3, 5, 7)).astype(dtype)
        top, bottom, left, right = padding
        expected = np.pad(
            x, ((0, 0), (0, 0), (top, bottom), (left, right)), mode="constant"
        )
        padded = pad_image(x, padding)
        assert padded.dtype == expected.dtype
        assert padded.shape == expected.shape
        assert padded.tobytes() == expected.tobytes()


class TestIm2Col:
    def test_known_patches(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols = im2col(x, kernel=2, stride=2, out_h=2, out_w=2)
        assert cols.shape == (1, 4, 4)
        # First patch is the top-left 2x2 block.
        assert np.array_equal(cols[0, :, 0], [0, 1, 4, 5])

    @given(
        n=st.integers(1, 3), c=st.integers(1, 3),
        k=st.integers(1, 3), stride=st.integers(1, 2),
        out_size=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_col2im_is_adjoint_of_im2col(self, n, c, k, stride, out_size):
        """<im2col(x), y> == <x, col2im(y)> — exact adjointness."""
        rng = np.random.default_rng(42)
        padded = k + stride * (out_size - 1)
        x = rng.normal(size=(n, c, padded, padded)).astype(np.float64)
        y = rng.normal(size=(n, c * k * k, out_size * out_size))
        cols = im2col(x, k, stride, out_size, out_size)
        back = col2im(y, x.shape, k, stride, out_size, out_size)
        assert np.dot(cols.ravel(), y.ravel()) == pytest.approx(
            np.dot(x.ravel(), back.ravel()), rel=1e-9
        )


class TestSigmoid:
    def test_extreme_values_do_not_overflow(self):
        z = np.array([-1e4, -50.0, 0.0, 50.0, 1e4], dtype=np.float64)
        out = sigmoid(z)
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[2] == pytest.approx(0.5)
        assert out[-1] == pytest.approx(1.0)

    @given(st.floats(-30, 30, allow_nan=False))
    def test_matches_reference(self, z):
        arr = np.array([z])
        assert sigmoid(arr)[0] == pytest.approx(1 / (1 + np.exp(-z)), rel=1e-9)

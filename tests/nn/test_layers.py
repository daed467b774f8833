"""Per-layer behaviour: shapes, modes, caching, validation."""

import numpy as np
import pytest

from repro.errors import ShapeError, TrainingError
from repro.nn import (
    BatchNorm,
    Conv2D,
    ConvTranspose2D,
    Dense,
    Dropout,
    Flatten,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _specials(dtype):
    """The values a select and a branch-free kernel may disagree on: NaN
    of either sign, signed zeros, infinities and subnormals."""
    tiny = np.finfo(dtype).smallest_subnormal
    return np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny,
                     -tiny, 1e4 * tiny, -1e4 * tiny], dtype=dtype)


def _with_specials(rng, shape, dtype=np.float32):
    """Random normals with every special value at four random places."""
    values = rng.normal(size=shape).astype(dtype)
    flat = values.reshape(-1)
    specials = _specials(dtype)
    places = rng.choice(flat.size, size=4 * specials.size, replace=False)
    flat[places] = np.tile(specials, 4)
    return values


#: views of a (2, 3, 7, 9) array: numpy runs a ufunc through a vector loop
#: on contiguous data and a scalar loop on odd tails and strides, and the
#: two may treat signed zeros differently
_LAYOUTS = {
    "contiguous": lambda a: a,
    "strided": lambda a: a[:, :, ::2, 1:],
    "transposed": lambda a: a.transpose(0, 1, 3, 2),
}


def _same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestConv2D:
    def test_same_stride2_halves(self, rng):
        conv = Conv2D(3, 8, 5, 2, rng)
        out = conv.forward(np.zeros((2, 3, 16, 16), dtype=np.float32))
        assert out.shape == (2, 8, 8, 8)

    def test_stride1_preserves(self, rng):
        conv = Conv2D(1, 4, 7, 1, rng)
        out = conv.forward(np.zeros((1, 1, 12, 12), dtype=np.float32))
        assert out.shape == (1, 4, 12, 12)

    def test_output_shape_matches_forward(self, rng):
        conv = Conv2D(3, 8, 5, 2, rng)
        assert conv.output_shape((3, 16, 16)) == (8, 8, 8)

    def test_wrong_channels_rejected(self, rng):
        conv = Conv2D(3, 8, 5, 2, rng)
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 4, 16, 16), dtype=np.float32))

    def test_backward_before_forward_rejected(self, rng):
        conv = Conv2D(3, 8, 5, 2, rng)
        with pytest.raises(TrainingError):
            conv.backward(np.zeros((1, 8, 8, 8), dtype=np.float32))

    def test_no_bias_option(self, rng):
        conv = Conv2D(3, 8, 5, 2, rng, use_bias=False)
        assert len(conv.parameters()) == 1

    def test_describe_matches_table_format(self, rng):
        assert Conv2D(3, 8, 5, 2, rng).describe() == "5x5,2"


class TestConvTranspose2D:
    def test_doubles_resolution(self, rng):
        deconv = ConvTranspose2D(8, 4, 5, 2, rng)
        out = deconv.forward(np.zeros((2, 8, 8, 8), dtype=np.float32))
        assert out.shape == (2, 4, 16, 16)

    def test_adjoint_of_conv(self, rng):
        """<conv(x), y> == <x, deconv_with_same_weights(y)>."""
        conv = Conv2D(2, 3, 5, 2, rng, use_bias=False)
        deconv = ConvTranspose2D(3, 2, 5, 2, rng, use_bias=False)
        # Tie the weights: deconv weight (in=3, out=2, k, k) = conv's (3, 2, k, k).
        deconv.weight.value = conv.weight.value.copy()
        x = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        y = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        lhs = float((conv.forward(x) * y).sum())
        rhs = float((x * deconv.forward(y)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-4)


class TestDense:
    def test_affine(self, rng):
        dense = Dense(3, 2, rng)
        dense.weight.value = np.eye(3, 2, dtype=np.float32)
        dense.bias.value = np.array([1.0, -1.0], dtype=np.float32)
        out = dense.forward(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        assert np.allclose(out, [[2.0, 1.0]])

    def test_wrong_features_rejected(self, rng):
        with pytest.raises(ShapeError):
            Dense(3, 2, rng).forward(np.zeros((1, 4), dtype=np.float32))


class TestBatchNorm:
    def test_training_normalizes_batch(self, rng):
        bn = BatchNorm(4)
        x = rng.normal(5.0, 3.0, size=(16, 4, 6, 6)).astype(np.float32)
        out = bn.forward(x, training=True)
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-4
        assert np.abs(out.std(axis=(0, 2, 3)) - 1.0).max() < 1e-2

    def test_first_batch_seeds_running_stats(self, rng):
        bn = BatchNorm(2)
        x = rng.normal(3.0, 2.0, size=(32, 2)).astype(np.float32)
        bn.forward(x, training=True)
        assert np.allclose(bn.running_mean, x.mean(axis=0), atol=1e-5)
        # Eval right after one batch behaves like train stats.
        out = bn.forward(x, training=False)
        assert np.abs(out.mean(axis=0)).max() < 1e-4

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm(2)
        for _ in range(10):
            bn.forward(
                rng.normal(1.0, 1.0, size=(64, 2)).astype(np.float32),
                training=True,
            )
        shifted = rng.normal(50.0, 1.0, size=(4, 2)).astype(np.float32)
        out = bn.forward(shifted, training=False)
        # Running mean ~1, so output should be strongly positive, not centered.
        assert out.mean() > 10

    def test_rejects_3d_input(self):
        with pytest.raises(ShapeError):
            BatchNorm(2).forward(np.zeros((2, 2, 2), dtype=np.float32))

    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("layout",
                             ["contiguous", "strided", "transposed", "dense"])
    def test_same_bytes_as_four_temporary_batchnorm(self, layout, training,
                                                    grad_dtype):
        """Forward, backward and input_gradient match the reference bytes.

        :class:`_FourTemporaryBatchNorm` is the forward as it was before it
        worked in place.  Channel 0 carries the special values, so in
        training mode its batch statistics are NaN; the other channels
        hold random normals.  ``dense`` is a (64, 3) input.
        """
        rng = np.random.default_rng(10 + training)
        shape = (64, 3) if layout == "dense" else (2, 3, 7, 9)
        x = rng.normal(size=shape).astype(np.float32)
        x[:, 0] = _with_specials(rng, x[:, 0].shape)
        grad = _with_specials(rng, shape, grad_dtype)
        if layout != "dense":
            x, grad = _LAYOUTS[layout](x), _LAYOUTS[layout](grad)
        gamma, beta, mean = rng.normal(size=(3, 3)).astype(np.float32)
        var = rng.random(3).astype(np.float32) + 0.5
        bn, reference = BatchNorm(3), _FourTemporaryBatchNorm(3)
        for layer in (bn, reference):
            layer.gamma.value, layer.beta.value = gamma.copy(), beta.copy()
            layer.running_mean, layer.running_var = mean.copy(), var.copy()
        with np.errstate(invalid="ignore"):
            _same_bytes(bn.forward(x, training),
                        reference.forward(x, training))
            for stat in ("running_mean", "running_var"):
                _same_bytes(getattr(bn, stat), getattr(reference, stat))
            _same_bytes(bn.input_gradient(grad),
                        reference.input_gradient(grad))
            _same_bytes(bn.backward(grad), reference.backward(grad))
            for name in ("gamma", "beta"):
                _same_bytes(getattr(bn, name).grad,
                            getattr(reference, name).grad)


#: ReLU (None) and LeakyReLU at the slopes the byte tests cover
_SLOPES = pytest.mark.parametrize(
    "slope", [None, 0.0, 0.01, 0.2],
    ids=["relu", "leaky0", "leaky0.01", "leaky0.2"])


def _layer_and_select(slope):
    """The activation under test and its ``np.where`` reference."""
    if slope is None:
        return ReLU(), _SelectReLU()
    return LeakyReLU(slope), _SelectLeakyReLU(slope)


class TestActivations:
    def test_relu(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]], dtype=np.float32))
        assert np.allclose(out, [[0.0, 2.0]])

    def test_leaky_relu(self):
        out = LeakyReLU(0.2).forward(np.array([[-1.0, 2.0]], dtype=np.float32))
        assert np.allclose(out, [[-0.2, 2.0]])

    def test_leaky_slope_validation(self):
        with pytest.raises(ShapeError):
            LeakyReLU(1.5)

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
    @_SLOPES
    def test_same_bytes_as_select(self, slope, x_dtype, grad_dtype, layout):
        """Forward, backward and input_gradient match the reference bytes.

        :class:`_SelectReLU` and :class:`_SelectLeakyReLU` are the layers as
        they were when they selected with ``np.where``; the branch-free
        kernels must give the same bytes on NaN of either sign, signed
        zeros, infinities, subnormals and random normals, in every layout.
        """
        rng = np.random.default_rng(11)
        view = _LAYOUTS[layout]
        x = view(_with_specials(rng, (2, 3, 7, 9), x_dtype))
        grad = view(_with_specials(rng, (2, 3, 7, 9), grad_dtype))
        layer, expected = _layer_and_select(slope)
        with np.errstate(invalid="ignore"):
            _same_bytes(layer.forward(x), expected.forward(x))
            _same_bytes(layer.backward(grad), expected.backward(grad))
            _same_bytes(layer.input_gradient(grad),
                        expected.input_gradient(grad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @_SLOPES
    def test_same_bytes_as_select_at_every_offset(self, slope, dtype):
        """The forward matches the reference bytes on every short slice.

        Where a slice starts decides which of its elements numpy's scalar
        head and tail loops see, and numpy's float64 ``fmax`` keeps -0.0
        there; slices of a buffer filled with one special value, from 16
        start offsets, 23 lengths and 2 strides, put it in every loop.
        """
        layer, expected = _layer_and_select(slope)
        with np.errstate(invalid="ignore"):
            for fill in _specials(dtype)[[1, 3, 7]]:  # -NaN, -0.0, -tiny
                buffer = np.full(64, fill, dtype)
                for start in range(16):
                    for length in range(1, 24):
                        for step in (1, 2):
                            x = buffer[start:start + length * step:step]
                            _same_bytes(layer.forward(x), expected.forward(x))

    def test_sigmoid_range(self):
        out = Sigmoid().forward(np.array([[-100.0, 0.0, 100.0]], dtype=np.float32))
        assert out.min() >= 0 and out.max() <= 1

    def test_tanh_gradient(self):
        tanh = Tanh()
        x = np.array([[0.5]], dtype=np.float32)
        out = tanh.forward(x)
        grad = tanh.backward(np.ones_like(out))
        assert grad[0, 0] == pytest.approx(1 - np.tanh(0.5) ** 2, rel=1e-5)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        drop = Dropout(0.5, rng)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        assert np.array_equal(drop.forward(x, training=False), x)

    def test_training_scales_survivors(self, rng):
        drop = Dropout(0.5, rng)
        x = np.ones((1, 10000), dtype=np.float32)
        out = drop.forward(x, training=True)
        survivors = out[out > 0]
        assert np.allclose(survivors, 2.0)  # inverted dropout scaling
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_backward_uses_same_mask(self, rng):
        drop = Dropout(0.5, rng)
        x = np.ones((1, 100), dtype=np.float32)
        out = drop.forward(x, training=True)
        grad = drop.backward(np.ones_like(out))
        assert np.array_equal(grad > 0, out > 0)

    def test_rate_validation(self, rng):
        with pytest.raises(ShapeError):
            Dropout(1.0, rng)


class TestMaxPool2D:
    def test_pooling(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_gradient_routes_to_max(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2), dtype=np.float32))
        assert grad[0, 0, 1, 1] == 1.0  # value 5 was the max
        assert grad[0, 0, 0, 0] == 0.0

    def test_ties_split_gradient(self):
        pool = MaxPool2D(2)
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 1, 1), dtype=np.float32))
        assert grad.sum() == pytest.approx(1.0)

    def test_indivisible_input_rejected(self):
        with pytest.raises(ShapeError):
            MaxPool2D(2).forward(np.zeros((1, 1, 5, 5), dtype=np.float32))

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("values", ["random", "halves", "all_equal"])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("size", [2, 3])
    def test_same_bytes_as_mask_on_forward_pool(self, size, batch, values,
                                                training):
        """Forward, backward and input_gradient match the reference bytes.

        :class:`_MaskOnForwardPool` is the layer as it was when its forward
        built the routing mask; the pool must reproduce its output and its
        gradients byte for byte, ties included.
        """
        rng = np.random.default_rng(size * 100 + batch)
        shape = (batch, 3, 4 * size, 6 * size)
        x = rng.normal(size=shape).astype(np.float32)
        if values == "halves":
            x = np.round(x * 2) / 2
        elif values == "all_equal":
            x = np.repeat(np.repeat(
                np.round(x[:, :, ::size, ::size]), size, axis=2), size, axis=3)
        grad = rng.normal(size=(batch, 3, 4, 6)).astype(np.float32)
        pool, reference = MaxPool2D(size), _MaskOnForwardPool(size)
        expected_out = reference.forward(x)
        expected_grad = reference.backward(grad)
        _same_bytes(pool.forward(x, training), expected_out)
        _same_bytes(pool.backward(grad), expected_grad)
        _same_bytes(pool.input_gradient(grad), expected_grad)


class _MaskOnForwardPool:
    """Reference: max pooling whose forward builds the gradient mask."""

    def __init__(self, size):
        self.size = size

    def forward(self, x):
        n, c, h, w = x.shape
        s = self.size
        windows = x.reshape(n, c, h // s, s, w // s, s)
        out = windows.max(axis=(3, 5))
        expanded = out[:, :, :, None, :, None]
        mask = (windows == expanded).astype(np.float32)
        counts = mask.sum(axis=(3, 5), keepdims=True)
        self._cache = (mask / counts, x.shape)
        return out

    def backward(self, grad):
        mask, (n, c, h, w) = self._cache
        grad_windows = grad[:, :, :, None, :, None] * mask
        return grad_windows.reshape(n, c, h, w)


class _SelectReLU(ReLU):
    """Reference: ReLU whose forward selected with ``np.where``."""

    def forward(self, x, training=False):
        self._cache = x > 0
        return np.where(self._cache, x, 0.0).astype(np.float32, copy=False)


class _SelectLeakyReLU(LeakyReLU):
    """Reference: LeakyReLU whose forward and backward used ``np.where``."""

    def forward(self, x, training=False):
        self._cache = x > 0
        return np.where(self._cache, x, self.slope * x).astype(
            np.float32, copy=False)

    def backward(self, grad):
        return np.where(self._cache, grad, self.slope * grad)


class _FourTemporaryBatchNorm(BatchNorm):
    """Reference: BatchNorm whose forward allocated four temporaries."""

    def forward(self, x, training=False):
        axes, bshape = self._axes_and_shape(x)
        if training:
            mean, var = x.mean(axis=axes), x.var(axis=axes)
            if not self._stats_seeded:
                self.running_mean = mean.astype(np.float32)
                self.running_var = var.astype(np.float32)
                self._stats_seeded = True
            else:
                self.running_mean = (
                    self.momentum * self.running_mean
                    + (1 - self.momentum) * mean).astype(np.float32)
                self.running_var = (
                    self.momentum * self.running_var
                    + (1 - self.momentum) * var).astype(np.float32)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(bshape)) * inv_std.reshape(bshape)
        out = (self.gamma.value.reshape(bshape) * x_hat
               + self.beta.value.reshape(bshape))
        count = x.size // self.num_features
        self._cache = (x_hat, inv_std, axes, bshape, count, training)
        return out.astype(np.float32, copy=False)


class TestFlatten:
    def test_roundtrip(self, rng):
        flat = Flatten()
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = flat.forward(x)
        assert out.shape == (2, 48)
        back = flat.backward(out)
        assert np.array_equal(back, x)

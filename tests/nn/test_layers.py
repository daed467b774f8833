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

        def same(actual, expected):
            assert actual.dtype == expected.dtype
            assert actual.shape == expected.shape
            assert actual.tobytes() == expected.tobytes()

        expected_out = reference.forward(x)
        expected_grad = reference.backward(grad)
        same(pool.forward(x, training), expected_out)
        same(pool.backward(grad), expected_grad)
        same(pool.input_gradient(grad), expected_grad)


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


class TestFlatten:
    def test_roundtrip(self, rng):
        flat = Flatten()
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = flat.forward(x)
        assert out.shape == (2, 48)
        back = flat.backward(out)
        assert np.array_equal(back, x)

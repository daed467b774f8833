"""Tests for the inference gradient path (``input_gradient``).

Covers the satellite guarantees of the gradient-API redesign: eval-mode
input gradients match central finite differences for every layer ILT walks
through, BatchNorm's eval gradient comes from the *running* statistics even
when the cache was left by a training-mode forward, and the
``Sequential.input_gradient`` entry point provably leaves parameter
gradients (and hence optimizer state) untouched.
"""

import numpy as np
import pytest

from repro.errors import ShapeError, TrainingError
from repro.nn import (
    BatchNorm,
    Conv2D,
    ConvTranspose2D,
    Dense,
    Dropout,
    LeakyReLU,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.layers.base import Layer

# The eval-mode forward of conv/deconv/dense/BN is *linear* in the input,
# so the central-difference truncation error vanishes and float32 rounding
# noise dominates — a larger step and float64 accumulation keep the
# quotient clean.  (Smooth activations add O(EPS^2) truncation, well under
# TOL.)
EPS = 1e-2
TOL = 2e-2


def _eval_loss(layer, x, g_out):
    out = layer.forward(x, training=False).astype(np.float64)
    return float((out * g_out).sum())


def check_eval_input_gradient(layer, x_shape, samples=4):
    """Layer-level: ``input_gradient`` vs central differences, eval mode."""
    rng = np.random.default_rng(17)
    x = rng.normal(size=x_shape).astype(np.float32)
    out = layer.forward(x, training=False)
    g_out = rng.normal(size=out.shape).astype(np.float32)
    for p in layer.parameters():
        p.zero_grad()
    g_in = layer.input_gradient(g_out)
    assert g_in.shape == x.shape
    for p in layer.parameters():
        assert not p.grad.any(), f"{p.name} gradient touched in eval path"
    for _ in range(samples):
        idx = tuple(int(rng.integers(0, s)) for s in x_shape)
        original = x[idx]
        x[idx] = original + EPS
        f_plus = _eval_loss(layer, x, g_out)
        x[idx] = original - EPS
        f_minus = _eval_loss(layer, x, g_out)
        x[idx] = original
        numeric = (f_plus - f_minus) / (2 * EPS)
        analytic = float(g_in[idx])
        scale = max(1e-3, abs(numeric) + abs(analytic))
        assert abs(numeric - analytic) / scale < TOL, (
            f"eval input grad mismatch at {idx}: numeric={numeric}, "
            f"analytic={analytic}"
        )


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestEvalModeGradients:
    def test_conv2d(self, rng):
        check_eval_input_gradient(Conv2D(3, 4, 5, 2, rng), (2, 3, 8, 8))

    def test_conv_transpose(self, rng):
        check_eval_input_gradient(
            ConvTranspose2D(3, 4, 5, 2, rng), (2, 3, 4, 4)
        )

    def test_dense(self, rng):
        check_eval_input_gradient(Dense(6, 3, rng), (4, 6))

    def test_batchnorm_seeded(self, rng):
        layer = BatchNorm(3)
        # Non-trivial running stats and scale.
        layer.gamma.value = np.asarray([0.75, 1.5, -1.25], dtype=np.float32)
        layer.forward(
            rng.normal(loc=1.5, scale=2.0, size=(8, 3, 4, 4)).astype(
                np.float32
            ),
            training=True,
        )
        check_eval_input_gradient(layer, (4, 3, 4, 4))

    def test_activations(self, rng):
        for layer in (ReLU(), LeakyReLU(0.2), Sigmoid(), Tanh()):
            check_eval_input_gradient(layer, (3, 7))

    def test_dropout_eval_identity(self, rng):
        layer = Dropout(0.5, rng)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = layer.forward(x, training=False)
        np.testing.assert_array_equal(out, x)
        g = rng.normal(size=x.shape).astype(np.float32)
        np.testing.assert_array_equal(layer.input_gradient(g), g)


class TestBatchNormRunningStats:
    def test_training_cache_cannot_leak_batch_stats(self, rng):
        """A training-mode forward cache must not contaminate eval grads."""
        layer = BatchNorm(3)
        layer.gamma.value = np.asarray([0.5, 2.0, -1.0], dtype=np.float32)
        for _ in range(4):
            layer.forward(
                rng.normal(loc=2.0, scale=3.0, size=(8, 3, 4, 4)).astype(
                    np.float32
                ),
                training=True,
            )
        # The cache now holds batch statistics from the last training batch;
        # the inference gradient must still come from the running averages.
        g_out = rng.normal(size=(4, 3, 4, 4)).astype(np.float32)
        got = layer.input_gradient(g_out)
        bshape = (1, -1, 1, 1)
        expected = (
            g_out
            * layer.gamma.value.reshape(bshape)
            / np.sqrt(layer.running_var + layer.eps).reshape(bshape)
        )
        np.testing.assert_allclose(got, expected, rtol=1e-5)
        # Sanity: the stale cached inv_std (batch stats) would give a
        # different answer, so this test can actually fail.
        _, cached_inv_std, _, _, _, _ = layer._cache
        assert not np.allclose(
            cached_inv_std, 1.0 / np.sqrt(layer.running_var + layer.eps)
        )

    def test_matches_finite_differences_after_training(self, rng):
        layer = BatchNorm(3)
        layer.forward(
            rng.normal(loc=1.0, scale=2.0, size=(8, 3, 4, 4)).astype(
                np.float32
            ),
            training=True,
        )
        check_eval_input_gradient(layer, (4, 3, 4, 4))


class _RogueLayer(Layer):
    """Ignores the frozen flag — accumulates its parameter grad regardless."""

    op_name = "Rogue"

    def __init__(self):
        self.scale = Parameter(np.ones(1, dtype=np.float32), name="rogue.s")
        self._cache = None

    def parameters(self):
        return [self.scale]

    def output_shape(self, input_shape):
        return input_shape

    def forward(self, x, training=False):
        self._cache = x
        return x * self.scale.value[0]

    def backward(self, grad):
        x = self._require_cache(self._cache)
        self.scale.add_grad(np.asarray([(grad * x).sum()], dtype=np.float32))
        return grad * self.scale.value[0]


class TestSequentialInputGradient:
    def _net(self, rng):
        return Sequential(
            [
                Conv2D(2, 4, 3, 2, rng),
                BatchNorm(4),
                ReLU(),
                ConvTranspose2D(4, 2, 3, 2, rng),
                Dropout(0.5, rng),
                LeakyReLU(0.2),
            ]
        )

    def test_matches_finite_differences(self, rng):
        net = self._net(rng)
        # Seed BN running stats, then query eval-mode input gradients.
        net.forward(
            rng.normal(size=(4, 2, 8, 8)).astype(np.float32), training=True
        )
        x = rng.normal(size=(2, 2, 8, 8)).astype(np.float32)
        out = net.forward(x, training=False)
        g_out = rng.normal(size=out.shape).astype(np.float32)
        g_in = net.input_gradient(x, g_out)
        idx = (1, 1, 3, 5)

        def total(xv):
            xc = x.copy()
            xc[idx] = xv
            return float((net.forward(xc, training=False) * g_out).sum())

        numeric = (total(x[idx] + EPS) - total(x[idx] - EPS)) / (2 * EPS)
        assert abs(numeric - float(g_in[idx])) / max(1e-3, abs(numeric)) < TOL

    def test_leaves_parameter_gradients_untouched(self, rng):
        net = self._net(rng)
        x = rng.normal(size=(2, 2, 8, 8)).astype(np.float32)
        # Populate non-zero parameter grads from a real training step.
        out = net.forward(x, training=True)
        net.backward(np.ones_like(out))
        snapshot = [p.grad.copy() for p in net.parameters()]
        assert any(s.any() for s in snapshot)
        stats = [
            (layer.running_mean.copy(), layer.running_var.copy())
            for layer in net.layers
            if isinstance(layer, BatchNorm)
        ]
        net.input_gradient(x, lambda y: np.ones_like(y))
        for param, prev in zip(net.parameters(), snapshot):
            np.testing.assert_array_equal(param.grad, prev)
        # Normalization state is inference-path too: no EMA updates.
        bn_layers = [l for l in net.layers if isinstance(l, BatchNorm)]
        for layer, (mean, var) in zip(bn_layers, stats):
            np.testing.assert_array_equal(layer.running_mean, mean)
            np.testing.assert_array_equal(layer.running_var, var)

    def test_dropout_stays_off_so_repeats_match(self, rng):
        net = self._net(rng)
        x = rng.normal(size=(2, 2, 8, 8)).astype(np.float32)
        deterministic = [
            net.input_gradient(x, lambda y: np.ones_like(y)) for _ in range(2)
        ]
        np.testing.assert_array_equal(deterministic[0], deterministic[1])

    def test_rogue_layer_fails_loudly(self, rng):
        net = Sequential([_RogueLayer()])
        x = rng.normal(size=(2, 3)).astype(np.float32)
        with pytest.raises(TrainingError, match="rogue.s"):
            net.input_gradient(x, np.ones_like(x))

    def test_rogue_layer_is_unfrozen_after_it_fails(self):
        layer = _RogueLayer()
        x = np.full((2, 3), 2.0, dtype=np.float32)
        layer.forward(x)
        with pytest.raises(TrainingError, match="rogue.s"):
            layer.input_gradient(np.ones_like(x))
        assert not layer.scale.grad.any()
        assert not layer.scale.frozen
        layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(layer.scale.grad, [12.0])

    def test_shape_mismatch_rejected(self, rng):
        net = self._net(rng)
        x = rng.normal(size=(2, 2, 8, 8)).astype(np.float32)
        with pytest.raises(ShapeError):
            net.input_gradient(x, np.ones((2, 2, 3, 3), dtype=np.float32))

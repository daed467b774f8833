"""Inference holds no training state.

An eval-mode ``Sequential.forward`` releases every layer's backward cache as
soon as the layer returns, and so does the gradient walk of
``input_gradient``.  Gradient buffers stay unwritten until a backward writes
them, at construction and after ``load_state_dict``, so a model built or
loaded for inference never makes its gradient pages resident.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import TrainingError
from repro.nn import (
    Adam,
    BatchNorm,
    Conv2D,
    ConvTranspose2D,
    Dense,
    Dropout,
    Flatten,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.telemetry.profile import LayerProfiler


def _every_layer_net(seed=5):
    """One layer of each type; (N, 2, 8, 8) -> (N, 5)."""
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(2, 4, 3, 2, rng),
            ConvTranspose2D(4, 3, 3, 2, rng),
            BatchNorm(3),
            ReLU(),
            LeakyReLU(0.2),
            Sigmoid(),
            Tanh(),
            Dropout(0.5, rng),
            MaxPool2D(2),
            Flatten(),
            Dense(48, 5, rng),
        ],
        name="every",
    )


@pytest.fixture
def x():
    return np.random.default_rng(11).normal(size=(2, 2, 8, 8)).astype(
        np.float32)


class TestEvalForwardKeepsNoCache:
    @pytest.mark.parametrize("profile", [False, True])
    def test_every_cache_released(self, x, profile):
        net = _every_layer_net()
        if profile:
            net.profiler = LayerProfiler()
        net.forward(x)
        assert [layer._cache for layer in net.layers] == [None] * len(
            net.layers)
        if profile:
            rows = net.profiler.report().rows
            assert [row.calls for row in rows] == [1] * len(net.layers)

    def test_output_bytes_equal_a_caching_walk(self, x):
        net = _every_layer_net()
        cached = net._walk(x, lambda layer, h: layer.forward(h))
        assert all(layer._cache is not None for layer in net.layers)
        assert net.forward(x).tobytes() == cached.tobytes()

    def test_backward_after_eval_forward_fails_typed(self, x):
        net = _every_layer_net()
        out = net.forward(x)
        with pytest.raises(TrainingError, match="called before forward"):
            net.backward(np.ones_like(out))

    def test_training_forward_keeps_every_cache(self, x):
        net = _every_layer_net()
        net.forward(x, training=True)
        assert all(layer._cache is not None for layer in net.layers)

    def test_input_gradient_releases_every_cache(self, x):
        net = _every_layer_net()
        net.forward(x, training=True)
        grad = net.input_gradient(x, lambda y: np.ones_like(y))
        assert grad.shape == x.shape
        assert [layer._cache for layer in net.layers] == [None] * len(
            net.layers)


_RSS_PROBE = textwrap.dedent("""
    import numpy as np
    from repro.nn import Dense, Parameter, Sequential

    MIB = 1 << 20
    SHAPE = (4096, 4096)  # 64 MiB of float32

    def rss_mib():
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0

    def filled(shape):
        return np.full(shape, 0.5, dtype=np.float32)

    value = filled(SHAPE)
    before = rss_mib()
    param = Parameter(value)
    print("parameter", rss_mib() - before)

    state = {"layer0.param0": filled(SHAPE),
             "layer0.param1": filled(SHAPE[1:])}
    before = rss_mib()
    net = Sequential([Dense(*SHAPE, np.random.default_rng(0),
                            weight_init=lambda shape, rng: filled(shape))])
    net.load_state_dict(state)
    print("load", rss_mib() - before - net.layers[0].weight.value.nbytes / MIB)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmRSS from /proc/self/status")
def test_gradient_pages_stay_unwritten():
    """A 64 MiB parameter's gradient adds no resident memory."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _RSS_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    growth = dict(line.split() for line in done.stdout.splitlines())
    # a gradient written at build or load (zeros_like, zero_grad) reads +64
    assert float(growth["parameter"]) < 16.0, growth
    assert float(growth["load"]) < 16.0, growth


class TestLoadAfterTraining:
    def _net(self):
        rng = np.random.default_rng(9)
        return Sequential([Conv2D(2, 4, 3, 2, rng), BatchNorm(4), ReLU(),
                           Flatten(), Dense(64, 3, rng)])

    @staticmethod
    def _adam_step(net, x):
        opt = Adam(net.parameters(), learning_rate=1e-2)
        out = net.forward(x, training=True)
        net.backward(np.ones_like(out))
        opt.step()
        return [param.value.tobytes() for param in net.parameters()]

    def test_load_resets_gradients_for_the_next_step(self, x):
        trained = self._net()
        out = trained.forward(x, training=True)
        trained.backward(np.ones_like(out))
        assert any(param.grad.any() for param in trained.parameters())
        state = self._net().state_dict()
        trained.load_state_dict(state)
        assert not any(param.grad.any() for param in trained.parameters())

        fresh = self._net()
        fresh.load_state_dict(state)
        assert self._adam_step(trained, x) == self._adam_step(fresh, x)

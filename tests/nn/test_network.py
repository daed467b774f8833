"""Sequential container: execution, summaries, persistence."""

import numpy as np
import pytest

from repro.errors import CheckpointError, ShapeError, TrainingError
from repro.nn import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Sequential,
)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


@pytest.fixture
def small_net(rng):
    return Sequential(
        [
            Conv2D(1, 4, 3, 2, rng),
            BatchNorm(4),
            ReLU(),
            Flatten(),
            Dense(4 * 4 * 4, 2, rng),
        ],
        name="small",
    )


class TestExecution:
    def test_forward_shape(self, small_net, rng):
        x = rng.normal(size=(3, 1, 8, 8)).astype(np.float32)
        assert small_net.forward(x).shape == (3, 2)

    def test_backward_returns_input_grad(self, small_net, rng):
        x = rng.normal(size=(3, 1, 8, 8)).astype(np.float32)
        out = small_net.forward(x, training=True)
        grad = small_net.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_empty_network_rejected(self):
        with pytest.raises(TrainingError):
            Sequential([])

    def test_callable(self, small_net, rng):
        x = rng.normal(size=(1, 1, 8, 8)).astype(np.float32)
        assert np.array_equal(small_net(x), small_net.forward(x))


class TestIntrospection:
    def test_output_shape(self, small_net):
        assert small_net.output_shape((1, 8, 8)) == (2,)

    def test_num_parameters(self, rng):
        net = Sequential([Dense(3, 2, rng)])
        assert net.num_parameters() == 3 * 2 + 2

    def test_summary_folds_rows(self, rng):
        net = Sequential([Conv2D(1, 4, 5, 2, rng), BatchNorm(4), ReLU()])
        rows = net.summary((1, 16, 16))
        assert rows[0]["layer"] == "Input"
        assert rows[1]["layer"] == "Conv-BN-ReLU"
        assert rows[1]["filter"] == "5x5,2"
        assert rows[1]["output"] == "8x8x4"

    def test_summary_table2_style(self, rng):
        net = Sequential(
            [Conv2D(3, 32, 7, 1, rng), ReLU(), BatchNorm(32), MaxPool2D(2)]
        )
        rows = net.summary((3, 16, 16))
        assert rows[1]["layer"] == "Conv-ReLU-BN-P"
        assert rows[1]["output"] == "8x8x32"


class TestPersistence:
    def test_state_roundtrip(self, small_net, rng, tmp_path):
        x = rng.normal(size=(4, 1, 8, 8)).astype(np.float32)
        small_net.forward(x, training=True)  # populate BN running stats
        reference = small_net.forward(x, training=False)

        path = tmp_path / "net.npz"
        small_net.save(path)

        clone = Sequential(
            [
                Conv2D(1, 4, 3, 2, np.random.default_rng(99)),
                BatchNorm(4),
                ReLU(),
                Flatten(),
                Dense(4 * 4 * 4, 2, np.random.default_rng(99)),
            ]
        )
        clone.load(path)
        assert np.allclose(clone.forward(x, training=False), reference)

    def test_load_rejects_shape_mismatch(self, small_net, rng, tmp_path):
        path = tmp_path / "net.npz"
        small_net.save(path)
        wrong = Sequential([Dense(3, 2, rng)])
        with pytest.raises(CheckpointError, match=str(path)):
            wrong.load(path)

    def test_load_state_dict_still_raises_shape_error(self, small_net, rng):
        wrong = Sequential([Dense(3, 2, rng)])
        with pytest.raises(ShapeError):
            wrong.load_state_dict(small_net.state_dict())

    def test_load_missing_file_fails_closed(self, small_net, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            small_net.load(tmp_path / "nothing.npz")

    def test_load_corrupt_file_fails_closed(self, small_net, tmp_path):
        path = tmp_path / "net.npz"
        small_net.save(path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CheckpointError, match="unreadable"):
            small_net.load(path)

    def test_load_damaged_deflate_data_fails_closed(self, small_net, tmp_path,
                                                    damage_deflate):
        path = tmp_path / "net.npz"
        small_net.save(path)
        damage_deflate(path)
        with pytest.raises(CheckpointError, match="unreadable weight file"):
            small_net.load(path)

    def test_load_non_archive_fails_closed(self, small_net, tmp_path):
        path = tmp_path / "net.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointError, match=str(path)):
            small_net.load(path)

    def test_save_is_atomic_leaves_no_temp(self, small_net, tmp_path):
        small_net.save(tmp_path / "net.npz")
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "net.npz"]
        assert leftovers == []

    def test_zero_grad_clears_all(self, small_net, rng):
        x = rng.normal(size=(2, 1, 8, 8)).astype(np.float32)
        out = small_net.forward(x, training=True)
        small_net.backward(np.ones_like(out))
        small_net.zero_grad()
        assert all(np.all(p.grad == 0) for p in small_net.parameters())

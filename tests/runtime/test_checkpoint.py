"""Checkpoint archives, manifest validation, and retention."""

import json

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.nn import Adam, Dense, Dropout, ReLU, Sequential
from repro.runtime.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    META_KEY,
    CheckpointManager,
    capture_rng_states,
    collect_rngs,
    extract_extras,
    load_checkpoint_source,
    pack_state,
    read_checkpoint,
    restore_rng_states,
    unpack_state,
)
from repro.runtime.faults import FaultPlan


def make_net(seed: int = 0) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        [Dense(4, 8, rng), ReLU(), Dropout(0.5, rng), Dense(8, 2, rng)]
    )


def train_a_little(net: Sequential, optimizer: Adam, steps: int = 3) -> None:
    rng = np.random.default_rng(7)
    for _ in range(steps):
        x = rng.normal(size=(5, 4)).astype(np.float32)
        out = net.forward(x, training=True)
        net.backward(np.ones_like(out))
        optimizer.step()
        optimizer.zero_grad()


class TestRngCapture:
    def test_collect_includes_layer_generators(self):
        fit_rng = np.random.default_rng(1)
        net = make_net()
        rngs = collect_rngs(fit_rng, net)
        assert rngs[0] is fit_rng
        assert len(rngs) == 2  # fit rng + the Dropout layer's generator

    def test_collect_rejects_unknown_source(self):
        with pytest.raises(CheckpointError, match="cannot collect"):
            collect_rngs(42)

    def test_capture_restore_continues_stream(self):
        rng = np.random.default_rng(3)
        rng.random(10)
        states = capture_rng_states([rng])
        expected = rng.random(5)
        rng.random(100)  # wander off
        restore_rng_states([rng], states)
        assert np.array_equal(rng.random(5), expected)

    def test_restore_length_mismatch_fails_closed(self):
        rng = np.random.default_rng(0)
        states = capture_rng_states([rng])
        with pytest.raises(CheckpointError, match="RNG states"):
            restore_rng_states([rng, np.random.default_rng(1)], states)


class TestPackUnpack:
    def test_roundtrip_restores_everything(self):
        net = make_net(0)
        opt = Adam(net.parameters(), learning_rate=1e-3)
        fit_rng = np.random.default_rng(1)
        rngs = collect_rngs(fit_rng, net)
        train_a_little(net, opt)
        payload, meta = pack_state(
            epoch=3, phase="demo", nets={"net": net},
            optimizers={"opt": opt}, rngs=rngs,
            history={"loss": [1.0, 0.5]},
            arrays={"snap": np.ones((2, 2))},
        )
        reference = {k: v.copy() for k, v in net.state_dict().items()}
        next_draw = fit_rng.random(4)

        # wreck the live state, then restore
        train_a_little(net, opt, steps=2)
        fit_rng.random(50)
        other = make_net(9)
        epoch = unpack_state(
            payload, meta, nets={"net": net}, optimizers={"opt": opt},
            rngs=rngs, expect_phase="demo",
        )
        assert epoch == 3
        for key, value in net.state_dict().items():
            assert np.array_equal(value, reference[key]), key
        assert np.array_equal(fit_rng.random(4), next_draw)
        assert meta["history"]["loss"] == [1.0, 0.5]
        assert np.array_equal(extract_extras(payload)["snap"], np.ones((2, 2)))
        del other

    def test_snapshot_is_detached_from_live_state(self):
        net = make_net(0)
        opt = Adam(net.parameters())
        payload, _ = pack_state(
            epoch=1, phase="demo", nets={"net": net}, optimizers={"opt": opt}
        )
        frozen = {k: v.copy() for k, v in payload.items()}
        train_a_little(net, opt)
        for key, value in payload.items():
            assert np.array_equal(value, frozen[key]), key

    def test_phase_mismatch_rejected(self):
        net = make_net()
        payload, meta = pack_state(epoch=1, phase="cgan", nets={"net": net})
        with pytest.raises(CheckpointError, match="phase"):
            unpack_state(payload, meta, nets={"net": net},
                         expect_phase="center-cnn")

    def test_missing_component_rejected(self):
        net = make_net()
        payload, meta = pack_state(epoch=1, phase="p", nets={"net": net})
        with pytest.raises(CheckpointError, match="generator"):
            unpack_state(payload, meta, nets={"generator": net},
                         expect_phase="p")

    def test_shape_mismatch_names_network(self):
        net = make_net()
        payload, meta = pack_state(epoch=1, phase="p", nets={"net": net})
        wrong = Sequential([Dense(3, 3, np.random.default_rng(0))])
        with pytest.raises(CheckpointError, match="'net'"):
            unpack_state(payload, meta, nets={"net": wrong}, expect_phase="p")


class TestReadCheckpoint:
    def _write(self, manager, step=1, loss=None):
        net = make_net()
        payload, meta = pack_state(epoch=step, phase="p", nets={"net": net})
        return manager.save(step=step, arrays=payload, meta=meta, loss=loss)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            read_checkpoint(tmp_path / "none.npz")

    def test_truncated_archive_fails_closed(self, tmp_path):
        path = self._write(CheckpointManager(tmp_path))
        FaultPlan.truncate_file(path)
        with pytest.raises(CheckpointError, match=str(path.name)):
            read_checkpoint(path)

    def test_non_checkpoint_archive_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, x=np.ones(3))
        with pytest.raises(CheckpointError, match=META_KEY):
            read_checkpoint(path)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "old.npz"
        meta = {"schema_version": CHECKPOINT_SCHEMA_VERSION + 1, "epoch": 1}
        np.savez(path, **{META_KEY: np.array(json.dumps(meta))})
        with pytest.raises(CheckpointError, match="schema version"):
            read_checkpoint(path)


class TestManager:
    def _save(self, manager, step, loss=None):
        net = make_net(step)
        payload, meta = pack_state(epoch=step, phase="p", nets={"net": net})
        return manager.save(step=step, arrays=payload, meta=meta, loss=loss)

    def test_save_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        self._save(manager, 1, loss=0.5)
        payload, meta = manager.load()
        assert meta["step"] == 1
        assert meta["loss"] == 0.5
        assert any(key.startswith("net/net/") for key in payload)

    def test_latest_and_specific_step(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for step in (1, 2, 3):
            self._save(manager, step)
        assert manager.latest_step() == 3
        _, meta = manager.load(step=2)
        assert meta["step"] == 2
        with pytest.raises(CheckpointError, match="step 9"):
            manager.load(step=9)

    def test_retention_keeps_last_n_plus_best(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=2, keep_best=True)
        losses = {1: 0.1, 2: 0.9, 3: 0.8, 4: 0.7}
        for step, loss in losses.items():
            self._save(manager, step, loss=loss)
        steps = [entry["step"] for entry in manager.entries()]
        assert steps == [1, 3, 4]  # best (step 1) + last two
        assert manager.path_for(2).exists() is False

    def test_retention_without_best(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=2, keep_best=False)
        for step in (1, 2, 3):
            self._save(manager, step, loss=1.0 - step * 0.1)
        assert [e["step"] for e in manager.entries()] == [2, 3]

    def test_corrupt_checkpoint_fails_closed(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = self._save(manager, 1)
        FaultPlan.corrupt_file(path, seed=4)
        with pytest.raises(CheckpointError, match="checksum"):
            manager.load()

    def test_manifest_listing_missing_file(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = self._save(manager, 1)
        path.unlink()
        with pytest.raises(CheckpointError, match="missing file"):
            manager.load()

    def test_corrupt_manifest_fails_closed(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        self._save(manager, 1)
        manager.manifest_path.write_text("{not json")
        with pytest.raises(CheckpointError, match="manifest"):
            manager.load()

    def test_empty_directory_reports_no_checkpoints(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.has_checkpoints() is False
        with pytest.raises(CheckpointError, match="no checkpoints"):
            manager.load()

    def test_scoped_submanager(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=5)
        sub = manager.scoped("cgan")
        assert sub.directory == tmp_path / "cgan"
        assert sub.keep_last == 5
        self._save(sub, 1)
        assert sub.has_checkpoints() and not manager.has_checkpoints()

    def test_invalid_options_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path, keep_last=0)
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path, prefix="")


class TestLoadCheckpointSource:
    def test_latest_requires_manager(self):
        with pytest.raises(CheckpointError, match="latest"):
            load_checkpoint_source("latest", None)

    def test_resolves_directory_path_and_manager(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        net = make_net()
        payload, meta = pack_state(epoch=2, phase="p", nets={"net": net})
        path = manager.save(step=2, arrays=payload, meta=meta)
        for source in (True, "latest"):
            _, meta_out = load_checkpoint_source(source, manager)
            assert meta_out["epoch"] == 2
        _, meta_out = load_checkpoint_source(tmp_path)  # directory
        assert meta_out["epoch"] == 2
        _, meta_out = load_checkpoint_source(path)  # direct file
        assert meta_out["epoch"] == 2

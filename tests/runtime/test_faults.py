"""Fault injection: deterministic, site-addressed, fire-once."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.runtime.faults import FaultPlan


class TestNanInjection:
    def test_fires_once_at_the_scheduled_site(self):
        plan = FaultPlan().inject_nan("cgan", 2, batch=1)
        clean = np.ones((3, 2), dtype=np.float32)
        assert np.array_equal(plan.poison("cgan", 1, 1, clean), clean)
        assert np.array_equal(plan.poison("cgan", 2, 0, clean), clean)
        poisoned = plan.poison("cgan", 2, 1, clean)
        assert np.all(np.isnan(poisoned))
        assert poisoned.shape == clean.shape
        # retry of the same site proceeds cleanly
        assert np.array_equal(plan.poison("cgan", 2, 1, clean), clean)
        assert plan.fired == [("nan", "cgan", 2, 1)]
        assert plan.pending == 0

    def test_repeat_fault_keeps_firing(self):
        plan = FaultPlan().inject_nan("p", 1, repeat=True)
        clean = np.zeros(4, dtype=np.float32)
        for _ in range(3):
            assert np.all(np.isnan(plan.poison("p", 1, 0, clean)))
        assert plan.pending == 1

    def test_original_array_untouched(self):
        plan = FaultPlan().inject_nan("p", 1)
        clean = np.ones(4, dtype=np.float32)
        plan.poison("p", 1, 0, clean)
        assert np.all(np.isfinite(clean))


class TestInterruptInjection:
    def test_raises_keyboard_interrupt(self):
        plan = FaultPlan().inject_interrupt("cgan", 3, batch=2)
        plan.on_batch_start("cgan", 3, 1)  # wrong batch: no fire
        with pytest.raises(KeyboardInterrupt, match="epoch 3, batch 2"):
            plan.on_batch_start("cgan", 3, 2)
        plan.on_batch_start("cgan", 3, 2)  # fired once, now clear
        assert plan.fired == [("interrupt", "cgan", 3, 2)]


class TestScheduling:
    def test_site_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan().inject_nan("p", 0)
        with pytest.raises(ConfigError):
            FaultPlan().inject_interrupt("p", 1, batch=-1)


class TestRecordDamage:
    @pytest.fixture()
    def archive(self, tiny_dataset, tmp_path):
        from repro.data import save_dataset

        return save_dataset(tiny_dataset, tmp_path / "ds")

    def test_corrupt_record_touches_only_its_target(self, archive,
                                                    tiny_dataset):
        from repro.data import load_dataset

        plan = FaultPlan(seed=3)
        plan.corrupt_record(archive, 4)
        damaged = load_dataset(archive)
        assert not np.array_equal(damaged.masks[4], tiny_dataset.masks[4])
        assert not np.array_equal(damaged.resists[4], tiny_dataset.resists[4])
        untouched = [i for i in range(len(tiny_dataset)) if i != 4]
        assert np.array_equal(
            damaged.masks[untouched], tiny_dataset.masks[untouched])
        assert np.array_equal(
            damaged.resists[untouched], tiny_dataset.resists[untouched])
        assert plan.fired == [("corrupt_record", str(archive), 4, 0)]

    def test_noise_stays_in_range(self, archive):
        from repro.data import load_dataset

        FaultPlan(seed=3).corrupt_record(archive, 0)
        damaged = load_dataset(archive)
        # In-range noise: invisible to archive-level checks by design.
        assert np.all(np.isfinite(damaged.resists[0]))
        assert damaged.resists[0].min() >= 0.0
        assert damaged.resists[0].max() <= 1.0

    def test_corruption_is_seed_deterministic(self, tiny_dataset, tmp_path):
        from repro.data import load_dataset, save_dataset

        a = save_dataset(tiny_dataset, tmp_path / "a")
        b = save_dataset(tiny_dataset, tmp_path / "b")
        FaultPlan(seed=9).corrupt_records(a, (1, 5))
        FaultPlan(seed=9).corrupt_records(b, (1, 5))
        da, db = load_dataset(a), load_dataset(b)
        assert np.array_equal(da.masks, db.masks)
        assert np.array_equal(da.resists, db.resists)

    def test_manifest_sidecar_left_stale(self, archive):
        from repro.data import manifest_path_for

        before = manifest_path_for(archive).read_bytes()
        FaultPlan(seed=3).corrupt_record(archive, 2)
        assert manifest_path_for(archive).read_bytes() == before

    def test_random_records_are_distinct_and_sorted(self, archive,
                                                    tiny_dataset):
        chosen = FaultPlan(seed=5).corrupt_random_records(archive, 4)
        assert len(chosen) == 4
        assert len(set(chosen)) == 4
        assert list(chosen) == sorted(chosen)
        assert all(0 <= i < len(tiny_dataset) for i in chosen)

    def test_out_of_range_index_rejected(self, archive, tiny_dataset):
        with pytest.raises(ConfigError, match="out of range"):
            FaultPlan(seed=1).corrupt_record(archive, len(tiny_dataset))

    def test_non_dataset_archive_rejected(self, tmp_path):
        from repro.errors import DataError

        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(DataError, match="not a dataset archive"):
            FaultPlan(seed=1).corrupt_record(path, 0)


class TestFileDamage:
    def test_truncate(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(bytes(range(200)))
        FaultPlan.truncate_file(path, keep_bytes=10)
        assert path.read_bytes() == bytes(range(10))

    def test_corrupt_preserves_size_and_is_deterministic(self, tmp_path):
        original = bytes(range(256)) * 4
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(original)
        b.write_bytes(original)
        FaultPlan.corrupt_file(a, seed=5)
        FaultPlan.corrupt_file(b, seed=5)
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) == len(original)
        assert a.read_bytes() != original

"""Cross-module integration at tiny scale.

These tests exercise the seams between subsystems rather than any single
module: mint -> persist -> train -> predict -> score, the physical
consistency between the mask images the models see and the golden patterns
the simulator minted, and the simulation examples run as scripts.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines import CompactVtrFlow
from repro.core import LithoGan
from repro.data import load_dataset, save_dataset
from repro.eval import evaluate_predictions
from repro.metrics import measure_cd_nm


class TestMintTrainScore:
    @pytest.fixture(scope="class")
    def outcome(self, tiny_config, tiny_dataset):
        rng = np.random.default_rng(77)
        train, test = tiny_dataset.split(
            tiny_config.training.train_fraction, rng
        )
        model = LithoGan(tiny_config, rng)
        model.fit(train, rng)
        predictions = model.predict_resist(test.masks)
        nm_per_px = tiny_config.image.resist_nm_per_px(tiny_config.tech)
        _, summary = evaluate_predictions(
            "LithoGAN", test.resists[:, 0], predictions, nm_per_px
        )
        return summary

    def test_metrics_are_sane(self, outcome):
        """Even 2 tiny epochs must beat coin-flip segmentation."""
        assert outcome.pixel_accuracy > 0.6
        assert 0.0 <= outcome.mean_iou <= 1.0
        assert np.isfinite(outcome.ede_mean_nm)

    def test_summary_counts_test_set(self, outcome, tiny_dataset, tiny_config):
        expected = len(tiny_dataset) - round(
            tiny_config.training.train_fraction * len(tiny_dataset)
        )
        assert outcome.num_samples == expected


class TestPersistenceRoundtripTraining:
    def test_loaded_dataset_trains_identically(
        self, tiny_config, tiny_dataset, tmp_path
    ):
        """Training on a save/load roundtripped dataset is bit-identical."""
        path = save_dataset(tiny_dataset, tmp_path / "ds.npz")
        reloaded = load_dataset(path)

        def train_and_predict(dataset):
            rng = np.random.default_rng(5)
            model = LithoGan(tiny_config, rng)
            model.fit(dataset, rng)
            return model.predict_resist(dataset.masks[:2])

        assert np.array_equal(
            train_and_predict(tiny_dataset), train_and_predict(reloaded)
        )


class TestPhysicalConsistency:
    def test_golden_cd_within_lithographic_range(self, tiny_config, tiny_dataset):
        """Every minted golden contact prints within 2x of the drawn CD."""
        nm_per_px = tiny_config.image.resist_nm_per_px(tiny_config.tech)
        drawn = tiny_config.tech.contact_size_nm
        for i in range(len(tiny_dataset)):
            cd_h, cd_v = measure_cd_nm(tiny_dataset.resists[i, 0], nm_per_px)
            assert drawn * 0.5 < cd_h < drawn * 2.2
            assert drawn * 0.5 < cd_v < drawn * 2.2

    def test_compact_flow_recovers_golden_from_mask_images(
        self, tiny_config, tiny_dataset
    ):
        """The mask images carry enough information to re-derive the golden
        patterns: re-simulating from the encoded RGB images reproduces the
        stored resists (pipeline identity through the image encoding)."""
        flow = CompactVtrFlow(tiny_config)
        recovered = flow.predict_resist(tiny_dataset.masks[:3])
        for i in range(3):
            golden = tiny_dataset.resists[i, 0]
            agreement = (recovered[i] == golden).mean()
            assert agreement > 0.97

    def test_centers_match_goldens(self, tiny_dataset):
        """Stored center labels equal the bbox centers of stored goldens."""
        from repro.data import bbox_center_rc

        for i in range(len(tiny_dataset)):
            center = bbox_center_rc(tiny_dataset.resists[i, 0])
            assert np.allclose(tiny_dataset.centers[i], center)


class TestExamples:
    @pytest.mark.parametrize("script", [
        "litho_simulation.py", "process_window_study.py",
    ])
    def test_simulation_example_runs(self, script):
        root = Path(__file__).resolve().parents[1]
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, str(root / "examples" / script)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr

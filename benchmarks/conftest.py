"""Shared benchmark state: datasets and trained models for both nodes.

Training the three flows (LithoGAN, plain CGAN, Ref-[12]) dominates the
benchmark suite's wall-clock, so it happens once per session in the
``bundle_n10`` / ``bundle_n7`` fixtures and is cached on disk — re-running
``pytest benchmarks/ --benchmark-only`` after the first time loads the
pickled bundle instead of retraining.  The cache key covers the config and
the source of the imported ``repro`` package, so editing any of its modules
(training, kernels, synthesis) retrains instead of scoring a stale model.

The reduced scale (64x64 images, base width 16) keeps every code path of the
paper-scale setup; see DESIGN.md section 5.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np
import pytest

import repro
from repro.baselines import Ref12Flow
from repro.config import ExperimentConfig, N7, N10, reduced
from repro.core import CganHistory, LithoGan, LithoGanHistory, PlainCgan
from repro.core.trainer import RegressionHistory
from repro.data import PairedDataset, synthesize_dataset

CACHE_DIR = Path(__file__).parent / ".cache"
ARTIFACT_DIR = Path(__file__).parent / "artifacts"

#: benchmark-scale experiment knobs (kept small enough for CPU training);
#: REPRO_BENCH_CLIPS / REPRO_BENCH_EPOCHS override them for constrained
#: runners (the CI table4 job runs a much smaller configuration)
BENCH_CLIPS = int(os.environ.get("REPRO_BENCH_CLIPS", 180))
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", 10))


@dataclass
class TrainedBundle:
    """Everything the table/figure benchmarks consume for one node."""

    config: ExperimentConfig
    train: PairedDataset
    test: PairedDataset
    lithogan: LithoGan
    cgan: PlainCgan
    ref12: Ref12Flow
    lithogan_history: LithoGanHistory
    cgan_history: CganHistory
    ref12_history: RegressionHistory
    #: test-set predictions, computed once: method -> (N, H, W) binary
    predictions: Dict[str, np.ndarray]
    #: LithoGAN-predicted centers for the test set
    predicted_centers: np.ndarray
    #: aerial windows of the test set (reused by the Ref-[12] timing bench)
    test_aerial_windows: np.ndarray

    @property
    def nm_per_px(self) -> float:
        return self.config.image.resist_nm_per_px(self.config.tech)

    @property
    def golden(self) -> np.ndarray:
        return self.test.resists[:, 0]


def _bench_config(tech) -> ExperimentConfig:
    return reduced(tech, num_clips=BENCH_CLIPS, epochs=BENCH_EPOCHS)


def _source_digest() -> str:
    """md5 over every ``.py`` file of the imported ``repro`` package."""
    root = Path(repro.__file__).parent
    digest = hashlib.md5()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_key(config: ExperimentConfig) -> str:
    digest = hashlib.md5(repr(config).encode())
    digest.update(_source_digest().encode())
    return f"bundle_{config.tech.name}_{digest.hexdigest()[:12]}.pkl"


def _train_bundle(config: ExperimentConfig) -> TrainedBundle:
    rng = np.random.default_rng(config.training.seed)
    dataset = synthesize_dataset(config)
    train, test = dataset.split(config.training.train_fraction, rng)

    snapshot_inputs = test.masks[:4]

    lithogan = LithoGan(config, rng)
    lithogan_history = lithogan.fit(
        train, rng, snapshot_inputs=snapshot_inputs
    )

    cgan = PlainCgan(config, rng)
    cgan_history = cgan.fit(train, rng, snapshot_inputs=snapshot_inputs)

    ref12 = Ref12Flow(config, rng)
    ref12_history = ref12.fit(train, rng)

    test_windows = ref12.compute_aerial_windows(test.masks)
    predictions = {
        "Ref. [12]": ref12.predict_resist(
            test.masks, aerial_windows=test_windows
        ),
        "CGAN": cgan.predict_resist(test.masks),
        "LithoGAN": lithogan.predict_resist(test.masks),
    }
    return TrainedBundle(
        config=config,
        train=train,
        test=test,
        lithogan=lithogan,
        cgan=cgan,
        ref12=ref12,
        lithogan_history=lithogan_history,
        cgan_history=cgan_history,
        ref12_history=ref12_history,
        predictions=predictions,
        predicted_centers=lithogan.predict_centers(test.masks),
        test_aerial_windows=test_windows,
    )


def _load_or_train(config: ExperimentConfig) -> TrainedBundle:
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / _cache_key(config)
    if path.exists():
        with open(path, "rb") as handle:
            return pickle.load(handle)
    bundle = _train_bundle(config)
    with open(path, "wb") as handle:
        pickle.dump(bundle, handle)
    return bundle


@pytest.fixture(scope="session")
def bundle_n10() -> TrainedBundle:
    return _load_or_train(_bench_config(N10))


@pytest.fixture(scope="session")
def bundle_n7() -> TrainedBundle:
    return _load_or_train(_bench_config(N7))


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    ARTIFACT_DIR.mkdir(exist_ok=True)
    return ARTIFACT_DIR


def write_artifact(directory: Path, name: str, lines) -> Path:
    """Persist a regenerated table/figure as text and echo it to stdout."""
    path = directory / name
    text = "\n".join(lines)
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")
    return path

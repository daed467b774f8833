"""Paths, pinned configurations, digests and statistics shared by workloads.

Imports nothing from ``repro`` at module level: the worker times its own
imports, so the program is imported only once the clock is running.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, Sequence

#: the checkout root (the directory holding ``src/`` and ``perfbench/``)
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
#: run records and traces; never committed
STATE_DIR = ROOT / ".perfbench"
REFERENCE_DIR = BENCH_DIR / "reference_model"
REFERENCE_PIN = BENCH_DIR / "reference_model.json"
#: committed input digests per workload and seed (``make_input_pins.py``)
INPUT_PINS = BENCH_DIR / "input_pins.json"

#: seed of the reference model's training data and initialization
REFERENCE_SEED = 20190602
REFERENCE_CLIPS = 180
REFERENCE_EPOCHS = 6
REFERENCE_AUX_EPOCHS = 20

WORKLOADS = ("serve", "ilt", "train", "predict_paper")

#: environment of every benchmark process: one BLAS thread (see host.py)
#: and a fixed hash seed
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


def ensure_src_on_path() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program sources at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def disable_kernel_cache() -> None:
    """Switch the on-disk optical-kernel cache off in this process.

    The program's entry points apply ``config.parallel`` themselves, but
    the public functions that make inputs (``synthesize_dataset``) do not.
    With the cache off, every set-up decomposes its optical kernels itself,
    whatever ran before, and nothing reads ``~/.cache/repro-litho``.
    """
    from repro.config import ParallelConfig
    from repro.optics import configure_kernel_cache

    configure_kernel_cache(ParallelConfig(kernel_cache=False))


def derive_seed(workload: str, seed: int, stream: str = "inputs") -> int:
    """A 63-bit seed for one (workload, seed, stream); distinct per stream."""
    text = f"{workload}/{seed}/{stream}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


def digest_arrays(*arrays) -> str:
    """SHA-256 over the shape, dtype and bytes of each array, in order."""
    import numpy as np

    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        hasher.update(repr((array.shape, array.dtype.str)).encode("utf-8"))
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def directory_digest(path: Path) -> Dict[str, str]:
    """SHA-256 of every regular file directly inside ``path``, by name."""
    return {
        entry.name: hashlib.sha256(entry.read_bytes()).hexdigest()
        for entry in sorted(path.iterdir()) if entry.is_file()
    }


def reference_config():
    """The reduced-scale N10 configuration of the committed reference model.

    Its kernel cache is off, like the process's (``disable_kernel_cache``),
    so the program's entry points keep it off.
    """
    import dataclasses

    from repro.config import N10, ParallelConfig, reduced

    config = reduced(N10, num_clips=REFERENCE_CLIPS,
                     epochs=REFERENCE_EPOCHS, seed=REFERENCE_SEED)
    return dataclasses.replace(
        config,
        training=dataclasses.replace(
            config.training, aux_epochs=REFERENCE_AUX_EPOCHS),
        parallel=ParallelConfig(kernel_cache=False),
    )


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default), 0 <= q <= 1."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)

"""Train the benchmark's fixed reference model and pin its digest.

Mints ``REFERENCE_CLIPS`` reduced-scale N10 clips, trains LithoGAN for
``REFERENCE_EPOCHS`` CGAN epochs and ``REFERENCE_AUX_EPOCHS`` center-CNN
epochs from ``REFERENCE_SEED`` through ``repro.api.train``, writes the weights
with ``repro.api.save_model`` to ``perfbench/reference_model/`` and their
SHA-256 digests to ``perfbench/reference_model.json``.  It then serves the
held-out split and reports how many clips the guard passed at the first rung.

The weights are committed, so the benchmark never retrains: a kernel change
must not alter the model it is measured with.  Run from the checkout root
(about two minutes on one core)::

    python3 perfbench/make_reference_model.py
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench.common import (  # noqa: E402
    REFERENCE_DIR,
    REFERENCE_PIN,
    directory_digest,
    ensure_src_on_path,
    reference_config,
    write_json,
)


def main() -> int:
    ensure_src_on_path()
    from repro import api
    from repro.serving import InferenceService

    config = reference_config()
    started = time.perf_counter()
    dataset = api.mint(config).dataset
    print(f"minted {len(dataset)} clips in "
          f"{time.perf_counter() - started:.1f} s", flush=True)
    started = time.perf_counter()
    result = api.train(config, dataset)
    print(f"trained in {time.perf_counter() - started:.1f} s", flush=True)

    if REFERENCE_DIR.exists():
        shutil.rmtree(REFERENCE_DIR)
    api.save_model(result.model, result.history, REFERENCE_DIR,
                   seed=config.training.seed, node=config.tech.name)
    files = directory_digest(REFERENCE_DIR)
    write_json(REFERENCE_PIN, {
        "config": {
            "node": config.tech.name,
            "seed": config.training.seed,
            "clips": config.tech.num_clips,
            "epochs": config.training.epochs,
            "aux_epochs": config.training.aux_epochs,
        },
        "files": files,
    })

    model = api.load_model(REFERENCE_DIR, config)
    report = InferenceService(model, config).serve_batch(
        result.test_set.masks)
    rung1 = sum(1 for clip in report.served if clip.attempts == ("model",))
    print(f"held-out clips: {len(report.served)}, first rung {rung1}, "
          f"fallbacks {report.fallbacks}")
    return 0 if report.fallbacks == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Pin the digest of every workload's inputs for a range of seeds.

Runs each workload's input phase (the same code a benchmark worker runs)
for seeds ``FIRST_SEED`` to ``FIRST_SEED + SEEDS - 1`` at the run length in
``BENCHMARK.json``, and writes the first 16 hex digits of each input digest
to ``perfbench/input_pins.json``.  ``run.py`` fails a run whose inputs do
not match their pin.  Inputs are made by the program's public functions
(minting runs the lithography simulator), so a change that alters them
must come with new pins, in a benchmark change of its own.  Run from the
checkout root (a few minutes on one core)::

    python3 perfbench/make_input_pins.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench.common import (  # noqa: E402
    INPUT_PINS,
    ROOT,
    THREAD_ENV,
    WORKLOADS,
    disable_kernel_cache,
    ensure_src_on_path,
    load_json,
    write_json,
)

FIRST_SEED = 0
SEEDS = 256


def main() -> int:
    os.environ.update(THREAD_ENV)
    ensure_src_on_path()
    disable_kernel_cache()
    from worker import workload_class

    seconds = load_json(ROOT / "BENCHMARK.json")["run_seconds"]
    digests = {}
    for name in WORKLOADS:
        digests[name] = []
        for seed in range(FIRST_SEED, FIRST_SEED + SEEDS):
            workload = workload_class(name)(seed, seconds, traced=False)
            workload.prepare_inputs()
            digests[name].append(workload.inputs_digest[:16])
        print(f"{name}: {SEEDS} seeds pinned", flush=True)
    write_json(INPUT_PINS, {"first_seed": FIRST_SEED, "seconds": seconds,
                            "digests": digests})
    return 0


if __name__ == "__main__":
    sys.exit(main())

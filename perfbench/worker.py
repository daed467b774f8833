"""One benchmark process: set up a workload, measure it, check its outputs.

Spawned by ``perfbench/run.py`` (never run by hand); writes one JSON record
to ``--out``.  ``--mode setup`` stops after set-up, so the caller can time
several fresh set-ups per run.  ``--t0`` is the caller's ``time.monotonic()``
just before the spawn, so ``setup_s`` covers interpreter start and imports.
Right after set-up the worker samples the host's speed, which scales
``setup_s`` to the reference speed (``bench.host.SpeedProbe``).
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: speed-probe samples taken right after set-up, to scale ``setup_s``
SETUP_SPEED_SAMPLES = 3
SETUP_SPEED_REPS = 12


def workload_class(name: str):
    from bench.ilt import IltWorkload
    from bench.predict_paper import PredictPaperWorkload
    from bench.serve import ServeWorkload
    from bench.train import TrainWorkload

    return {
        "serve": ServeWorkload,
        "ilt": IltWorkload,
        "train": TrainWorkload,
        "predict_paper": PredictPaperWorkload,
    }[name]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from bench.common import (
        disable_kernel_cache,
        ensure_src_on_path,
        write_json,
    )
    from bench.host import host_record
    from bench.workload import CheckFailed, peak_rss_mb

    ensure_src_on_path()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import repro.api  # noqa: F401
    import repro.serving  # noqa: F401
    import repro.telemetry  # noqa: F401

    disable_kernel_cache()
    record = {"mode": args.mode, "workload": args.workload,
              "seed": args.seed, "failures": []}
    phases = {"import_s": time.monotonic() - args.t0}
    workload = workload_class(args.workload)(
        args.seed, args.seconds, traced=args.mode == "traced")
    try:
        for phase, step in (("inputs_s", workload.prepare_inputs),
                            ("model_s", workload.prepare_model),
                            ("warmup_s", workload.warmup)):
            started = time.monotonic()
            step()
            phases[phase] = time.monotonic() - started
        phases["setup_s"] = time.monotonic() - args.t0
        for _ in range(SETUP_SPEED_SAMPLES):
            workload.speed.sample(SETUP_SPEED_REPS)
        phases["scaled_setup_s"] = phases["setup_s"] * workload.speed.scale(
            time.perf_counter())
        record.update(setup=phases, setup_extra=workload.setup_extra,
                      inputs_digest=workload.inputs_digest)
        if args.mode != "setup":
            measurement = workload.measure()
            workload.check()
            record.update(
                attempted=measurement.attempted,
                failed=measurement.failed,
                operations=measurement.operations,
                window_s=measurement.window_s,
                latencies_s=measurement.latencies_s,
                scaled_window_s=measurement.scaled_window_s,
                scaled_latencies_s=measurement.scaled_latencies_s,
                counts=measurement.counts,
                quality=workload.quality(),
            )
            if workload.traced:
                record["per_layer"] = workload.per_layer(measurement)
                record["trace"] = workload.trace()
            record["peak_rss_mb"] = peak_rss_mb()
            record["host"] = host_record()
    except CheckFailed as exc:
        workload.fail(str(exc))
    except Exception:  # noqa: BLE001 - reported, the run is not correct
        workload.fail("worker error:\n" + traceback.format_exc())
    finally:
        workload.close()
    record["failures"] = workload.failures
    record["speed"] = workload.speed.record()
    write_json(Path(args.out), record)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repository benchmark: one command, four workloads, checked outputs.

Usage, from the checkout root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0

Workloads are ``serve``, ``ilt``, ``train`` and ``predict_paper`` (see
``perfbench/README.md``).  With ``--trace 0`` the run reports the
end-to-end metrics of ``BENCHMARK.json``: it times ``SETUP_PROBES`` extra
fresh set-ups and reports the median ``setup_s``, then measures an untraced
worker for ``--seconds``.  With ``--trace 1`` it measures an untraced and a
traced worker on the same seed and reports the per-layer metrics, the
tracing overhead included.  Every worker checks the program's outputs; the
run checks its input digest against ``input_pins.json``.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every check passed; without the
program sources next to this directory it exits 2 and prints no result.

Times are reported at a fixed reference host speed: each worker samples a
fixed NumPy kernel between its operations and scales each operation's time
by the speed it measured there (``bench.host.SpeedProbe``), because on a
small shared host the speed drifts in waves longer than any run.  The
values as measured go to standard error and into the run record.

Workers run with one BLAS thread and no on-disk kernel cache, and the run
writes its record, traces included, under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench.common import (  # noqa: E402
    INPUT_PINS,
    STATE_DIR,
    THREAD_ENV,
    WORKLOADS,
    load_json,
    quantile,
    write_json,
)
from bench.host import (  # noqa: E402
    REFERENCE_REP_S,
    read_cpu_ticks,
    steal_share,
)

#: fresh set-ups timed besides the measured worker's own (median of 5)
SETUP_PROBES = 4
#: the whole run, every worker included, must end within this budget
RUN_BUDGET_S = 170.0
#: share of a traced run's wall clock its named program layers must cover
MIN_COVERAGE = 0.8


class WorkerFailed(Exception):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    return env


class Runner:
    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline
        self.env = _worker_env()
        self.work = STATE_DIR / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.spawned = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def compile_sources(self) -> None:
        """Byte-compile once per checkout, so no set-up pays for it."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
             str(HERE)],
            env=self.env, stdout=subprocess.DEVNULL, check=True,
            timeout=max(1.0, self.remaining()),
        )

    def spawn(self, mode: str) -> dict:
        self.spawned += 1
        out = self.work / (f"{self.args.workload}-{self.args.seed}-"
                           f"{mode}-{self.spawned}-{os.getpid()}.json")
        out.unlink(missing_ok=True)
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", self.args.workload, "--seed", str(self.args.seed),
             "--seconds", str(self.args.seconds), "--mode", mode,
             "--t0", repr(t0), "--out", str(out)],
            env=self.env, stdout=sys.stderr.fileno(), cwd=str(ROOT),
        )
        try:
            code = proc.wait(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkerFailed(f"{mode} worker exceeded the run budget")
        if code != 0 or not out.is_file():
            raise WorkerFailed(f"{mode} worker exited {code} without a record")
        record = load_json(out)
        out.unlink()
        return record


def _latency_ms(record: dict, q: float, kind: str = "scaled_") -> float:
    return 1000.0 * quantile(record[kind + "latencies_s"], q)


def _throughput(record: dict, kind: str = "scaled_") -> float:
    return record["operations"] / record[kind + "window_s"]


def _end_to_end(records: list, kind: str) -> dict:
    """The end-to-end values of one run: at the reference host speed
    (``kind`` "scaled_", what is reported) or as measured ("")."""
    main = records[-1]
    return {
        "setup_s": statistics.median(
            r["setup"][kind + "setup_s"] for r in records if "setup" in r),
        "throughput_per_s": _throughput(main, kind),
        "latency_p50_ms": _latency_ms(main, 0.5, kind),
        "latency_p90_ms": _latency_ms(main, 0.9, kind),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def _cost(workload: str, record: dict) -> float:
    """Time per operation: p50 latency in the open loop (its throughput is
    the offered rate), inverse throughput in the closed loops."""
    if workload == "serve":
        return _latency_ms(record, 0.5)
    return 1.0 / _throughput(record)


def _check_inputs(args, digest: str, failures: list) -> bool:
    """Compare the run's input digest with its committed pin.

    Returns False, and checks nothing, for a seed or run length that has
    no pin.
    """
    pins = load_json(INPUT_PINS)
    digests = pins["digests"][args.workload]
    index = args.seed - pins["first_seed"]
    if args.seconds != pins["seconds"] or not 0 <= index < len(digests):
        print(f"perfbench: no input pin for seed {args.seed} at "
              f"{args.seconds:g} s (pinned: seeds {pins['first_seed']}-"
              f"{pins['first_seed'] + len(digests) - 1} at "
              f"{pins['seconds']:g} s)", file=sys.stderr)
        return False
    if not digest.startswith(digests[index]):
        failures.append(f"input digest of {args.workload} seed {args.seed} "
                        f"is {digest[:16]}, pinned {digests[index]}")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")

    runner = Runner(args, time.monotonic() + RUN_BUDGET_S)
    ticks = read_cpu_ticks()
    try:
        runner.compile_sources()
        if args.trace:
            records = [runner.spawn("measure"), runner.spawn("traced")]
        else:
            records = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
            records.append(runner.spawn("measure"))
    except (WorkerFailed, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    steal = steal_share(ticks, read_cpu_ticks())
    main_record = records[-1]

    failures = [f for r in records for f in r["failures"]]
    digests = {r.get("inputs_digest") for r in records}
    if len(digests) != 1:
        failures.append(f"input digests differ between workers: {digests}")
    measured = all("latencies_s" in r for r in records
                   if r["mode"] != "setup")
    pinned = measured and _check_inputs(
        args, main_record["inputs_digest"], failures)

    metrics = {}
    raw = {}
    if measured and not args.trace:
        values = _end_to_end(records, "scaled_")
        raw = _end_to_end(records, "")
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {"value": values[entry["name"]],
                                      "unit": entry["unit"]}
    elif measured:
        base, traced = records
        values = {f"setup.{phase[:-2]}_s": traced["setup"][phase]
                  for phase in ("import_s", "inputs_s", "model_s",
                                "warmup_s")}
        values.update(traced["setup_extra"])
        values.update(traced["quality"])
        values.update(traced.get("per_layer", {}))
        values["telemetry.trace_overhead_pct"] = 100.0 * (
            _cost(args.workload, traced) / _cost(args.workload, base) - 1.0)
        values["host.steal_share"] = steal
        values["host.speed"] = REFERENCE_REP_S / statistics.median(
            traced["speed"]["rep_s"])
        mapped = load_json(HERE / "metric_map.json")["per_layer"]
        unmapped = [e["name"] for e in spec["per_layer"]
                    if e["name"] not in mapped]
        if unmapped:
            failures.append(f"per-layer metrics missing from "
                            f"metric_map.json: {unmapped}")
        coverage = values.get("trace.coverage", 0.0)
        if coverage < MIN_COVERAGE:
            failures.append(f"named program layers cover {coverage:.1%} "
                            f"of the traced wall clock (< {MIN_COVERAGE:.0%})")
        for entry in spec["per_layer"]:
            metrics[entry["name"]] = {
                "value": float(values.get(entry["name"], 0.0)),
                "unit": entry["unit"]}

    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "steal_share": steal, "inputs_pinned": pinned,
        "failures": failures,
        "setup_s": [r.get("setup", {}).get("setup_s") for r in records],
        "counts": main_record.get("counts"),
        "latency_samples": len(main_record.get("latencies_s", [])),
        "quality": main_record.get("quality"),
        "host": main_record.get("host"),
        "metrics": metrics,
        "as_measured": raw,
    }
    write_json(STATE_DIR / "runs" / (f"{args.workload}-s{args.seed}-"
                                     f"t{args.trace}.json"),
               dict(summary, records=records))
    for name, metric in metrics.items():
        measured_as = (f" (as measured: {raw[name]:.6g})"
                       if name in raw else "")
        print(f"perfbench: {args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}{measured_as}", file=sys.stderr)
    print("perfbench: " + json.dumps(
        {k: summary[k] for k in ("counts", "latency_samples", "quality",
                                 "steal_share", "inputs_pinned", "host",
                                 "failures")}),
        file=sys.stderr)

    correct = measured and not failures
    print(json.dumps({
        "correct": correct,
        "attempted": int(main_record.get("attempted", 1)),
        "failed": int(main_record.get("failed", 0)),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

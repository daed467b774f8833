"""Table 4: per-clip runtime of the three flows.

The paper reports >15 h for rigorous simulation of a full dataset, ~95 min
for the Ref-[12] flow (optical sim + CNN threshold prediction + contour
processing), and ~30 s for CGAN/LithoGAN — ratios of ~1800x and ~190x.

Here each flow is timed per clip on the same substrate:

* **Rigorous** — Abbe source-point integration with a finely sampled source
  (no SOCS compaction), the honest stand-in for Sentaurus;
* **Ref. [12]** — cached-SOCS optical simulation, threshold CNN, contour
  processing;
* **LithoGAN** — two forward passes (generator + center CNN) and a shift.

Absolute numbers depend on the host; the *ordering* and order-of-magnitude
gaps are the reproduced result.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest
from conftest import write_artifact

from repro.config import N10, reduced
from repro.data import synthesize_dataset
from repro.eval import format_table4, table4_ratios
from repro.layout import generate_clip
from repro.sim import LithographySimulator
from repro.telemetry import Tracer, build_fingerprint

#: one tracer shared by the three flows; its spans are the timing substrate
FLOW_TRACER = Tracer()


def _time_per_clip(tracer: Tracer, flow: str, fn, repeats: int) -> float:
    """Mean seconds per call of ``fn``, measured as tracer spans."""
    for _ in range(repeats):
        with tracer.span(flow):
            fn()
    return tracer.mean(flow)


@pytest.fixture(scope="module")
def timings(bundle_n10):
    """Per-clip seconds for the three flows on the N10 benchmark.

    Fidelity settings mirror the paper's accounting: the **rigorous**
    reference integrates a densely sampled source on a 2x finer grid over a
    5-plane focus stack (no SOCS shortcut); the **Ref. [12]** flow consumes
    an accurately simulated aerial image (Abbe, single plane) before its CNN
    and contour-processing stages — the optical step LithoGAN eliminates.
    """
    config = bundle_n10.config
    masks = bundle_n10.test.masks[:4]

    rigorous = LithographySimulator(
        config,
        rigorous=True,
        source_samples=51,
        rigorous_grid_size=2 * config.optical.grid_size,
        focus_planes_nm=(-40.0, -20.0, 0.0, 20.0, 40.0),
        tracer=FLOW_TRACER,
    )
    clip_rng = np.random.default_rng(123)
    clips = [generate_clip(config.tech, clip_rng) for _ in range(2)]
    rigorous_time = _time_per_clip(
        FLOW_TRACER, "Rigorous",
        lambda: [rigorous.simulate_clip(c) for c in clips], 1,
    ) / len(clips)

    # Ref-[12] flow: accurate (Abbe) optical sim + threshold CNN + contours.
    ref12 = bundle_n10.ref12
    baseline_optics = LithographySimulator(
        config, rigorous=True, source_samples=41, tracer=FLOW_TRACER
    )

    def ref12_flow():
        clip = clips[0]
        from repro.layout import build_mask_layout

        layout = build_mask_layout(clip)
        aerial = baseline_optics.aerial_image(layout)
        window = ref12.aerial_window(aerial)[None]
        thresholds = ref12.predict_thresholds(window)
        ref12.contour_processing(
            window[0], ref12.threshold_map(thresholds[0], window.shape[1])
        )

    ref12_flow()  # warm-up
    ref12_time = _time_per_clip(FLOW_TRACER, "Ref. [12]", ref12_flow, 3)

    lithogan = bundle_n10.lithogan
    lithogan.predict_resist(masks[:1])  # warm-up
    lithogan_time = _time_per_clip(
        FLOW_TRACER, "LithoGAN",
        lambda: lithogan.predict_resist(masks[:1]), 3,
    )

    return {
        "Rigorous": rigorous_time,
        "Ref. [12]": ref12_time,
        "LithoGAN": lithogan_time,
    }


@pytest.fixture(scope="module")
def parallel_mint_timing():
    """Serial vs parallel dataset synthesis on one benchmark-scale config.

    Uses model-based OPC so each clip carries a realistic iterative-optics
    cost (a cheap per-clip workload would only measure pool overhead).  The
    first mint warms the in-memory and on-disk kernel caches so neither arm
    pays the eigendecomposition.
    """
    config = reduced(N10, num_clips=48)
    cpu_count = os.cpu_count() or 1
    workers = 4 if cpu_count >= 4 else 2
    # warm-up: imager + kernel caches
    synthesize_dataset(config, model_based_opc=True)
    start = time.perf_counter()
    synthesize_dataset(config, model_based_opc=True)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    synthesize_dataset(config, model_based_opc=True, workers=workers)
    parallel_s = time.perf_counter() - start
    return {
        "clips": config.tech.num_clips,
        "workers": workers,
        "cpu_count": cpu_count,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
    }


def test_table4(timings, artifact_dir, benchmark, bundle_n10,
                parallel_mint_timing):
    lines = format_table4(timings)
    paper_note = (
        "paper ratios: Rigorous ~1800x, Ref. [12] ~190x, ours 1x "
        "(absolute times are host-dependent)"
    )
    write_artifact(artifact_dir, "table4.txt", lines + ["", paper_note])

    ratios = table4_ratios(timings)

    # Machine-readable artifact: flow timings plus the per-stage span
    # breakdown the shared tracer collected underneath.
    (artifact_dir / "BENCH_table4.json").write_text(json.dumps({
        "schema_version": 1,
        "build": build_fingerprint(),
        "seconds_per_clip": timings,
        "ratios": ratios,
        "stage_totals_s": FLOW_TRACER.totals(),
        "stage_counts": {
            name: FLOW_TRACER.count(name) for name in FLOW_TRACER.totals()
        },
        "parallel_mint": parallel_mint_timing,
        "paper_ratios": {"Rigorous": 1800.0, "Ref. [12]": 190.0},
    }, indent=2) + "\n")
    # The fan-out should pay for itself where there are cores to use; on
    # starved runners (this container has 1) only record the numbers.
    if parallel_mint_timing["cpu_count"] >= 4:
        assert parallel_mint_timing["speedup"] >= 2.0, (
            f"parallel mint should be >=2x faster on "
            f"{parallel_mint_timing['cpu_count']} cores, got "
            f"{parallel_mint_timing['speedup']:.2f}x"
        )
    assert ratios["Rigorous"] > ratios["Ref. [12]"] > 1.0, (
        f"runtime ordering violated: {ratios}"
    )
    assert ratios["Rigorous"] > 20.0, (
        "rigorous simulation should be orders of magnitude slower than "
        f"LithoGAN inference, got {ratios['Rigorous']:.1f}x"
    )

    # Benchmarked op: one LithoGAN end-to-end prediction (the Table 4 "Ours").
    masks = bundle_n10.test.masks[:1]
    benchmark(bundle_n10.lithogan.predict_resist, masks)


def test_ref12_flow_per_clip(benchmark, bundle_n10):
    """The Ref-[12] flow per clip — optical sim dominates, as in the paper."""
    masks = bundle_n10.test.masks[:1]
    benchmark(bundle_n10.ref12.predict_resist, masks)


def test_rigorous_simulation_per_clip(benchmark, bundle_n10):
    """One rigorous clip simulation (fine grid, dense source, focus stack)."""
    config = bundle_n10.config
    simulator = LithographySimulator(
        config,
        rigorous=True,
        source_samples=51,
        rigorous_grid_size=2 * config.optical.grid_size,
        focus_planes_nm=(-40.0, -20.0, 0.0, 20.0, 40.0),
    )
    clip = generate_clip(config.tech, np.random.default_rng(7))
    benchmark.pedantic(
        lambda: simulator.simulate_clip(clip), rounds=2, iterations=1
    )

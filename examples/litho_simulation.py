#!/usr/bin/env python
"""Drive the lithography-simulation substrate directly.

Walks the classical flow the paper's Figure 1 sketches — layout synthesis,
SRAF insertion, OPC, partially coherent imaging, resist development — and
prints what each stage produces, for one clip of every contact-array type.
Also demonstrates model-based OPC: the printed CD error before and after
iterative correction of the target contact.

Usage::

    python examples/litho_simulation.py [--seed 3]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.config import N10, reduced
from repro.eval import ascii_pattern, side_by_side
from repro.layout import ArrayType, build_mask_layout, generate_clip
from repro.metrics import measure_cd_nm
from repro.sim import LithographySimulator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    config = reduced(N10, num_clips=1)
    simulator = LithographySimulator(config)
    rng = np.random.default_rng(args.seed)
    nm_per_px = config.image.resist_nm_per_px(config.tech)

    for array_type in ArrayType:
        clip = generate_clip(config.tech, rng, array_type=array_type)
        layout = build_mask_layout(clip)
        result = simulator.simulate_layout(layout)

        print(f"=== {array_type.value} ===")
        print(f"  drawn target: {clip.target.width:.0f} x "
              f"{clip.target.height:.0f} nm at clip center")
        print(f"  neighbors: {len(layout.neighbors)}, "
              f"SRAFs inserted: {len(layout.srafs)}")
        print(f"  OPC'd target: {layout.target.width:.1f} x "
              f"{layout.target.height:.1f} nm")
        print(f"  aerial image peak: {result.aerial.max():.3f} "
              f"(clear field = 1.0)")
        cd_h, cd_v = measure_cd_nm(result.golden_window, nm_per_px)
        print(f"  printed CD: {cd_h:.1f} x {cd_v:.1f} nm")

        from repro.layout import render_mask_rgb

        mask_mono = np.clip(
            render_mask_rgb(layout, 64).sum(axis=0), 0, 1
        )
        blocks = [
            ascii_pattern(mask_mono, width=28),
            ascii_pattern(result.golden_window, width=28),
        ]
        for line in side_by_side(blocks, ["mask (1x1 um)", "resist (128 nm)"]):
            print("  " + line)
        print()

    # --- model-based OPC demo -------------------------------------------
    print("=== model-based OPC on an isolated contact ===")
    clip = generate_clip(config.tech, rng, array_type=ArrayType.ISOLATED)
    layout = build_mask_layout(clip)

    def cd_error(mask_layout) -> float:
        pattern = simulator.develop_pattern(simulator.aerial_image(mask_layout))
        bbox = simulator.printed_window_bbox(pattern)
        drawn = clip.target
        return 0.5 * (
            abs(bbox.width - drawn.width) + abs(bbox.height - drawn.height)
        )

    before = cd_error(layout)
    refined = simulator.refine_target_opc(layout)
    after = cd_error(refined)
    print(f"  rule-based OPC : printed CD error {before:.2f} nm")
    print(f"  model-based OPC: printed CD error {after:.2f} nm")
    print(f"  target rectangle {layout.target.width:.1f} nm -> "
          f"{refined.target.width:.1f} nm wide")

    stats = simulator.tracer.totals()
    print("\nper-stage time spent (s): "
          + ", ".join(f"{k}={v:.2f}" for k, v in stats.items()))


if __name__ == "__main__":
    main()

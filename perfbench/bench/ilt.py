"""``ilt``: gradient-based mask optimization through the reference model.

``repro.api.optimize_mask`` with the default ``IltConfig`` (40 steps,
verify every 8, compact verifier) over a seeded clip set that cycles the
three array types.  The clip set is optimized round-robin, three clips per
facade call, and each clip is timed from the facade's per-clip ``progress``
callbacks.  Nearly all of a clip's time is ``Sequential.input_gradient`` at
batch 1, so this is where gradient-path changes show.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

from .common import derive_seed, digest_arrays, reference_config
from .spans import self_seconds, total_seconds
from .workload import (
    Measurement,
    Workload,
    cpu_seconds,
    load_reference_model,
)

#: distinct clips (two per array type), optimized round-robin
CLIPS = 6
#: clips per optimize_mask call
CHUNK = 3
#: speed-probe repetitions after each call (about 2% of its time)
PROBE_REPS = 16

#: the verifier's simulator stage spans
SIM_STAGES = ("rasterize", "optical", "resist", "contour")


class IltWorkload(Workload):
    name = "ilt"

    def prepare_inputs(self) -> None:
        import numpy as np
        from repro.layout import build_mask_layout, generate_clips
        from repro.layout.coloring import render_mask_rgb

        self.config = reference_config()
        rng = np.random.default_rng(derive_seed(self.name, self.seed))
        self.clips = generate_clips(self.config.tech, rng, count=CLIPS)
        image_px = self.config.model.image_size
        masks = [render_mask_rgb(build_mask_layout(clip), image_px)
                 for clip in self.clips]
        geometry = [repr((clip.array_type.value, clip.target,
                          clip.neighbors)) for clip in self.clips]
        self.inputs_digest = digest_arrays(
            *masks, np.frombuffer("".join(geometry).encode(), np.uint8))

    def prepare_model(self) -> None:
        self.model = load_reference_model(self.config)

    def warmup(self) -> None:
        from repro import api

        result = api.optimize_mask(self.config, self.model,
                                   clips=[self.clips[0]])
        self.summaries: Dict[int, List[str]] = {
            0: [_summary(result.outcomes[0])]}
        self.outcomes: Dict[int, object] = {}

    def measure(self) -> Measurement:
        from repro import api
        from repro.errors import IltError

        #: (start, end, clip latencies) of every optimize_mask call
        calls: List[tuple] = []
        attempted = failed = 0
        self.verifications = 0
        cursor = 0
        cpu0 = cpu_seconds()
        self.sample_speed(PROBE_REPS)
        start = time.perf_counter()
        with self.span("window"):
            while True:
                indices = [(cursor + j) % CLIPS for j in range(CHUNK)]
                cursor += CHUNK
                attempted += CHUNK
                stamps: List[float] = []
                called = time.perf_counter()
                try:
                    with self.span("optimize_mask"):
                        result = api.optimize_mask(
                            self.config, self.model,
                            clips=[self.clips[i] for i in indices],
                            tracer=self.tracer,
                            progress=lambda _: stamps.append(
                                time.perf_counter()),
                        )
                except IltError:
                    failed += CHUNK
                    calls.append((called, time.perf_counter(), []))
                else:
                    ended = time.perf_counter()
                    edges = [called] + stamps
                    calls.append((called, ended, [
                        b - a for a, b in zip(edges, edges[1:])]))
                    self.verifications += result.verifications
                    for index, outcome in zip(indices, result.outcomes):
                        self.outcomes.setdefault(index, outcome)
                        self.summaries.setdefault(index, []).append(
                            _summary(outcome))
                self.sample_speed(PROBE_REPS)
                if time.perf_counter() - start >= self.seconds:
                    break
        self.window_s = time.perf_counter() - start
        self.cpu_s = cpu_seconds() - cpu0
        busy = scaled_busy = 0.0
        latencies: List[float] = []
        scaled: List[float] = []
        for called, ended, clips in calls:
            factor = self.speed.scale(0.5 * (called + ended))
            busy += ended - called
            scaled_busy += factor * (ended - called)
            latencies.extend(clips)
            scaled.extend(factor * latency for latency in clips)
        self.clips_done = len(latencies)
        steps = self.clips_done * self.config.ilt.steps
        latencies.extend([busy] * failed)
        scaled.extend([scaled_busy] * failed)
        return Measurement(
            attempted=attempted, failed=failed, operations=steps,
            window_s=busy, latencies_s=latencies,
            scaled_window_s=scaled_busy, scaled_latencies_s=scaled,
            counts={"clips": attempted, "steps": steps},
        )

    def check(self) -> None:
        for index, outcome in sorted(self.outcomes.items()):
            if outcome.epe_ilt_nm > outcome.epe_rule_opc_nm:
                self.fail(
                    f"ilt: clip {index} best verified EPE "
                    f"{outcome.epe_ilt_nm:.4f} nm is worse than rule OPC "
                    f"{outcome.epe_rule_opc_nm:.4f} nm")
        for index, summaries in sorted(self.summaries.items()):
            if len(set(summaries)) != 1:
                self.fail(f"ilt: clip {index} summary differs between runs")

    def quality(self) -> Dict[str, float]:
        epe = [o.epe_ilt_nm for o in self.outcomes.values()]
        return {"quality.epe_nm": sum(epe) / len(epe)}

    def per_layer(self, measurement: Measurement) -> Dict[str, float]:
        records = self.records()
        selfs = self_seconds(records)
        steps = sum(1 for r in records if r.name == "ilt_step")
        verifications = max(self.verifications, 1)
        sim = {name: total_seconds(records, [name]) for name in SIM_STAGES}
        gradient = total_seconds(records, ["ilt_step"])
        clips = max(self.clips_done, 1)
        improved = [o.best.step > 0 for o in self.outcomes.values()]
        metrics = {
            "nn.input_gradient_ms": 1000.0 * gradient / steps,
            # ilt_clip self time: the descent loop outside the gradient
            # and the verifier's simulator
            "ilt.loop_ms_per_step": 1000.0 * selfs["ilt_clip"] / steps,
            "ilt.verify_ms": 1000.0 * sum(sim.values()) / verifications,
            "ilt.verifications_per_clip": self.verifications / clips,
            "ilt.improved_share": sum(improved) / len(improved),
            "process.cpu_per_wall": self.cpu_s / self.window_s,
            # input_gradient plus simulator stages over the window
            "trace.coverage": (gradient + sum(sim.values()))
            / self.program_seconds(),
        }
        for name, seconds in sim.items():
            metrics[f"sim.{name}_ms"] = 1000.0 * seconds / verifications
        return metrics


def _summary(outcome) -> str:
    return json.dumps(outcome.summary(), sort_keys=True)

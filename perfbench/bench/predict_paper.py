"""``predict_paper``: paper-scale inference, one clip per call.

The ``paper_n10()`` LithoGAN (256x256, base width 64) from a seeded
initialization answers ``LithoGan.predict_raw`` on seeded paper-scale masks
rendered with the public layout functions.  Its cost does not depend on the
weights.  This is the compute-bound regime of the same ``repro.nn`` layers
(the paper's Table 4 number), where large-input kernel changes show.
"""

from __future__ import annotations

import time
from typing import Dict, List

from .common import derive_seed, digest_arrays
from .workload import Measurement, Workload, cpu_seconds, nn_metrics

#: distinct masks, predicted round-robin
MASKS = 4
#: speed-probe repetitions after each call (about 3% of its time)
PROBE_REPS = 6


class PredictPaperWorkload(Workload):
    name = "predict_paper"

    def prepare_inputs(self) -> None:
        import numpy as np
        from repro.config import paper_n10
        from repro.layout import build_mask_layout, generate_clips
        from repro.layout.coloring import render_mask_rgb

        self.config = paper_n10()
        rng = np.random.default_rng(derive_seed(self.name, self.seed))
        clips = generate_clips(self.config.tech, rng, count=MASKS)
        size = self.config.model.image_size
        self.masks = np.stack([
            render_mask_rgb(build_mask_layout(clip), size) for clip in clips
        ])
        self.inputs_digest = digest_arrays(self.masks)

    def prepare_model(self) -> None:
        import numpy as np
        from repro.core import LithoGan

        self.model = LithoGan(self.config, np.random.default_rng(
            derive_seed(self.name, self.seed, "init")))

    def warmup(self) -> None:
        self.reference = {0: self.model.predict_raw(self.masks[:1])}

    def measure(self) -> Measurement:
        import numpy as np
        from repro.telemetry import LayerProfiler

        if self.traced:
            self.profiler = LayerProfiler()
            self.model.cgan.generator.profiler = self.profiler
            self.model.center_cnn.profiler = self.profiler
        #: (start, end) of every predict_raw call
        calls: List[tuple] = []
        self.mismatches: List[int] = []
        self.finite = True
        cpu0 = cpu_seconds()
        self.sample_speed(PROBE_REPS)
        start = time.perf_counter()
        with self.span("window"):
            index = 0
            while True:
                k = index % MASKS
                index += 1
                called = time.perf_counter()
                with self.span("predict_raw"):
                    mono, centers = self.model.predict_raw(self.masks[k:k + 1])
                calls.append((called, time.perf_counter()))
                self.finite &= bool(np.isfinite(mono).all()
                                    and np.isfinite(centers).all())
                expected = self.reference.setdefault(k, (mono, centers))
                if not (np.array_equal(expected[0], mono)
                        and np.array_equal(expected[1], centers)):
                    self.mismatches.append(k)
                self.sample_speed(PROBE_REPS)
                if time.perf_counter() - start >= self.seconds:
                    break
        self.window_s = time.perf_counter() - start
        self.cpu_s = cpu_seconds() - cpu0
        self.calls = len(calls)
        if self.traced:
            self.model.cgan.generator.profiler = None
            self.model.center_cnn.profiler = None
            self.profile = self.profiler.report()
        latencies = [ended - called for called, ended in calls]
        scaled = [self.speed.scale(0.5 * (called + ended)) * (ended - called)
                  for called, ended in calls]
        return Measurement(
            attempted=self.calls, failed=0, operations=self.calls,
            window_s=sum(latencies), latencies_s=latencies,
            scaled_window_s=sum(scaled), scaled_latencies_s=scaled,
            counts={"clips": self.calls},
        )

    def check(self) -> None:
        if not self.finite:
            self.fail("predict_paper: non-finite outputs")
        if self.mismatches:
            self.fail(f"predict_paper: outputs for masks "
                      f"{sorted(set(self.mismatches))} differ between calls")

    def per_layer(self, measurement: Measurement) -> Dict[str, float]:
        metrics = {
            "core.predict_raw_ms": 1000.0 * sum(measurement.latencies_s)
            / self.calls,
            "process.cpu_per_wall": self.cpu_s / self.window_s,
            # the networks' profiled forward time over the window
            "trace.coverage": self.profile.forward_s / self.program_seconds(),
        }
        metrics.update(nn_metrics(self.profile, self.calls))
        return metrics

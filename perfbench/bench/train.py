"""``train``: reduced-scale LithoGAN training through ``repro.api.train``.

Each facade call trains a fresh, seeded model on the same seeded minted N10
set for ``EPOCHS`` CGAN epochs and as many center-CNN epochs; calls repeat
until the window closes, and every call must reproduce the first one's
losses bit for bit.  One operation is one epoch (the CGAN and the center CNN
once each); throughput counts training samples.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Dict, List

from .common import derive_seed, digest_arrays, reference_config
from .spans import total_seconds
from .workload import Measurement, Workload, cpu_seconds, nn_metrics

#: minted clips; the facade trains on its 75% split
CLIPS = 24
EPOCHS = 2
#: calls always made, so determinism is checked even on a slow host
MIN_CALLS = 2
#: speed-probe repetitions after each call (about 2% of its time)
PROBE_REPS = 16


def _epoch_hook(epochs: List):
    """A TelemetryHook appending ``(phase, seconds)`` for every epoch."""
    from repro.telemetry import TelemetryHook

    class EpochHook(TelemetryHook):
        def on_epoch_end(self, epoch, d_loss, g_loss, l1, seconds,
                         **fields) -> None:
            epochs.append(("cgan", seconds))

        def on_aux_epoch_end(self, epoch, loss, seconds, phase="aux",
                             **fields) -> None:
            epochs.append(("center", seconds))

    return EpochHook()


class TrainWorkload(Workload):
    name = "train"

    def prepare_inputs(self) -> None:
        import numpy as np
        from repro.data import synthesize_dataset

        base = reference_config()
        self.config = dataclasses.replace(
            base,
            tech=dataclasses.replace(base.tech, num_clips=CLIPS),
            training=dataclasses.replace(
                base.training, epochs=EPOCHS, aux_epochs=EPOCHS,
                seed=derive_seed(self.name, self.seed, "init") % 2 ** 31),
        )
        rng = np.random.default_rng(derive_seed(self.name, self.seed))
        started = time.perf_counter()
        self.dataset = synthesize_dataset(self.config, rng=rng)
        self.setup_extra["sim.mint_ms_per_clip"] = (
            1000.0 * (time.perf_counter() - started) / len(self.dataset))
        self.inputs_digest = digest_arrays(
            self.dataset.masks, self.dataset.resists, self.dataset.centers)

    def prepare_model(self) -> None:
        """The model is built inside each facade call, from its seed."""

    def warmup(self) -> None:
        from repro import api

        one_epoch = dataclasses.replace(
            self.config, training=dataclasses.replace(
                self.config.training, epochs=1, aux_epochs=1))
        api.train(one_epoch, self.dataset)

    def measure(self) -> Measurement:
        from repro import api
        from repro.errors import TrainingError
        from repro.telemetry import LayerProfiler

        profiler = LayerProfiler() if self.traced else None
        self.epochs: List = []
        self.histories: List = []
        hook = _epoch_hook(self.epochs)
        #: (start, end, epochs recorded before, after) of every call
        calls: List[tuple] = []
        attempted = failed = 0
        samples = 0
        cpu0 = cpu_seconds()
        self.sample_speed(PROBE_REPS)
        start = time.perf_counter()
        with self.span("window"):
            while True:
                attempted += EPOCHS
                before = len(self.epochs)
                called = time.perf_counter()
                try:
                    with self.span("train"):
                        result = api.train(self.config, self.dataset,
                                           hook=hook, tracer=self.tracer,
                                           profiler=profiler)
                except TrainingError:
                    failed += EPOCHS
                else:
                    self.histories.append(result.history)
                    samples += len(result.train_set) * EPOCHS
                calls.append((called, time.perf_counter(), before,
                              len(self.epochs)))
                self.sample_speed(PROBE_REPS)
                if (len(calls) >= MIN_CALLS
                        and time.perf_counter() - start >= self.seconds):
                    break
        self.window_s = time.perf_counter() - start
        self.cpu_s = cpu_seconds() - cpu0
        self.samples = samples
        if profiler is not None:
            self.profile = profiler.report()
        busy = scaled_busy = 0.0
        scaled_epochs: List = []
        for called, ended, first, last in calls:
            factor = self.speed.scale(0.5 * (called + ended))
            busy += ended - called
            scaled_busy += factor * (ended - called)
            scaled_epochs.extend((phase, factor * seconds)
                                 for phase, seconds in self.epochs[first:last])
        latencies = _epoch_latencies(self.epochs)
        scaled = _epoch_latencies(scaled_epochs)
        latencies.extend([busy] * failed)
        scaled.extend([scaled_busy] * failed)
        return Measurement(
            attempted=attempted, failed=failed, operations=samples,
            window_s=busy, latencies_s=latencies,
            scaled_window_s=scaled_busy, scaled_latencies_s=scaled,
            counts={"epochs": attempted, "calls": len(calls),
                    "samples": samples},
        )

    def check(self) -> None:
        if not self.histories:
            self.fail("train: no call finished")
            return
        losses = [_losses(h) for h in self.histories]
        if not all(math.isfinite(v) for v in losses[0]):
            self.fail(f"train: non-finite losses {losses[0]}")
        if any(other != losses[0] for other in losses[1:]):
            self.fail("train: losses differ between identical calls")

    def quality(self) -> Dict[str, float]:
        return {"quality.l1_loss": self.histories[0].cgan.l1_loss[-1]}

    def per_layer(self, measurement: Measurement) -> Dict[str, float]:
        records = self.records()
        phases = total_seconds(records, ["cgan", "center-cnn"])
        profiled = self.profile.forward_s + self.profile.backward_s
        cgan = [s for phase, s in self.epochs if phase == "cgan"]
        center = [s for phase, s in self.epochs if phase == "center"]
        metrics = {
            "core.cgan_epoch_s": sum(cgan) / len(cgan),
            "core.center_epoch_s": sum(center) / len(center),
            # training-phase time outside the profiled networks
            "core.train_other_share": (phases - profiled) / phases,
            "process.cpu_per_wall": self.cpu_s / self.window_s,
            # profiled forward and backward over the window
            "trace.coverage": profiled / self.program_seconds(),
        }
        metrics.update(nn_metrics(self.profile, self.samples))
        return metrics


def _epoch_latencies(epochs: List) -> List[float]:
    """One epoch's time: its CGAN epoch plus its center-CNN epoch."""
    cgan = [s for phase, s in epochs if phase == "cgan"]
    center = [s for phase, s in epochs if phase == "center"]
    return [a + b for a, b in zip(cgan, center)]


def _losses(history) -> List[float]:
    return (list(history.cgan.generator_loss)
            + list(history.cgan.discriminator_loss)
            + list(history.cgan.l1_loss) + list(history.center.loss))

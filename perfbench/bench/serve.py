"""``serve``: an open loop of Poisson arrivals into the serving loop.

The committed reference model is served by ``repro.serving.InferenceServer``
with the default ``ServerConfig`` and ``ServingConfig``, one tenant.  One
load-generator thread submits requests at seeded Poisson due times; each
request is timed from its due time.  In the gaps where the server is idle
the load generator samples the host's speed (``host.SpeedProbe``), and each
latency is scaled by the speed sampled around it.
"""

from __future__ import annotations

import bisect
import dataclasses
import threading
import time
from typing import Dict, List

from .common import derive_seed, digest_arrays, quantile, reference_config
from .spans import total_seconds
from .workload import (
    CheckFailed,
    Measurement,
    Workload,
    cpu_seconds,
    load_reference_model,
    nn_metrics,
)

#: offered load.  predict_raw costs ~23 ms per clip at any batch size, so
#: at 25/s bursts queue and the median falls between the idle-server and
#: queued modes of the latency distribution, where it jumps from run to run;
#: at 10/s the server is busy about a quarter of the time.
RATE_PER_S = 10.0
#: distinct minted clips the requests draw from
CLIPS = 48
WARMUP_REQUESTS = 16
#: how long to wait for stragglers after the last due time
DRAIN_S = 30.0
#: speed-probe repetitions per sample (about 4 ms), taken only in idle
#: gaps that leave at least PROBE_GAP_S before the next due time
PROBE_REPS = 2
PROBE_GAP_S = 0.02
#: samples taken before and after the window
EDGE_SAMPLES = 4


class TimedModel:
    """Timing proxy around ``predict_raw``, handed to the server when traced.

    Records a ``predict_raw`` span per call on the server's tracer and the
    ``perf_counter`` time each call started.  The batcher thread makes the
    calls inside its ``serve_forward`` spans, and it is the only thread that
    records on that tracer.
    """

    def __init__(self, model, tracer):
        self._model = model
        self._tracer = tracer
        self.starts: List[float] = []

    def predict_raw(self, masks):
        self.starts.append(time.perf_counter())
        with self._tracer.span("predict_raw", clips=len(masks)):
            return self._model.predict_raw(masks)

    def __getattr__(self, name):
        return getattr(self._model, name)


class ServeWorkload(Workload):
    name = "serve"

    def prepare_inputs(self) -> None:
        import numpy as np
        from repro.data import synthesize_dataset

        self.config = reference_config()
        mint_config = dataclasses.replace(
            self.config,
            tech=dataclasses.replace(self.config.tech, num_clips=CLIPS),
            training=dataclasses.replace(
                self.config.training,
                seed=derive_seed(self.name, self.seed)),
        )
        started = time.perf_counter()
        dataset = synthesize_dataset(mint_config)
        self.setup_extra["sim.mint_ms_per_clip"] = (
            1000.0 * (time.perf_counter() - started) / len(dataset))
        self.masks = dataset.masks
        self.golden = dataset.resists[:, 0]
        rng = np.random.default_rng(
            derive_seed(self.name, self.seed, "arrivals"))
        count = max(1, int(round(RATE_PER_S * self.seconds)))
        # Exponential inter-arrival gaps at stratified quantiles, in seeded
        # order: Poisson arrivals whose gap distribution is exact for every
        # seed, so seeds differ only in where the bursts fall.
        gaps = -np.log1p(-(np.arange(count) + 0.5) / count) / RATE_PER_S
        self.due = np.cumsum(rng.permutation(gaps)) - gaps.min()
        self.order = rng.integers(0, CLIPS, count)
        self.inputs_digest = digest_arrays(
            dataset.masks, dataset.resists, dataset.centers,
            self.due, self.order)

    def prepare_model(self) -> None:
        from repro.serving import InferenceServer
        from repro.telemetry import LayerProfiler

        self.model = load_reference_model(self.config)
        served = self.model
        if self.traced:
            self.profiler = LayerProfiler()
            self.model.cgan.generator.profiler = self.profiler
            self.model.center_cnn.profiler = self.profiler
            served = self.proxy = TimedModel(self.model, self.tracer)
        self.server = InferenceServer(served, self.config, tracer=self.tracer)
        self.server.start()

    def warmup(self) -> None:
        burst = [self.server.submit(self.masks[i % CLIPS])
                 for i in range(WARMUP_REQUESTS // 2)]
        for future in burst:
            future.result(timeout=DRAIN_S)
        for i in range(WARMUP_REQUESTS // 2):
            self.server.submit(self.masks[(i + 8) % CLIPS]).result(
                timeout=DRAIN_S)
        if self.traced:
            self.profiler.reset()
            self.proxy.starts.clear()
            self.first_record = len(self.tracer.records)

    def measure(self) -> Measurement:
        import numpy as np

        count = len(self.due)
        futures: List = [None] * count
        self.sent = np.zeros(count)
        start = time.perf_counter() + 0.02
        self.due_abs = start + self.due

        def generate() -> None:
            for i in range(count):
                # One tenant, batches answered in order: once the previous
                # request is answered the server is idle, so the host speed
                # is sampled there, when the sample ends before i is due.
                left = self.due_abs[i] - time.perf_counter() - PROBE_GAP_S
                if (i and left > 0 and futures[i - 1].wait(timeout=left)
                        and self.due_abs[i] - time.perf_counter()
                        > PROBE_GAP_S):
                    self.speed.sample(PROBE_REPS)
                wait = self.due_abs[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                self.sent[i] = time.perf_counter()
                futures[i] = self.server.submit(self.masks[self.order[i]])

        for _ in range(EDGE_SAMPLES):
            self.speed.sample(PROBE_REPS)
        cpu0 = cpu_seconds()
        loadgen = threading.Thread(target=generate, name="loadgen")
        loadgen.start()
        loadgen.join(timeout=self.seconds + DRAIN_S)
        if loadgen.is_alive():
            raise CheckFailed("load generator did not finish")
        give_up = time.perf_counter() + DRAIN_S
        for future in futures:
            future.wait(timeout=max(0.0, give_up - time.perf_counter()))
        end = max((f.resolved_at for f in futures if f.done()), default=start)
        self.window_s = end - start
        self.cpu_s = cpu_seconds() - cpu0
        self.futures = futures
        for _ in range(EDGE_SAMPLES):
            self.speed.sample(PROBE_REPS)

        latencies, scaled, answered = [], [], []
        for i, future in enumerate(futures):
            if future.done() and future.error() is None:
                latency = future.resolved_at - self.due_abs[i]
                latencies.append(latency)
                scaled.append(latency * self.speed.scale(
                    self.due_abs[i] + 0.5 * latency))
                answered.append(i)
            else:
                latencies.append(float("inf"))
                scaled.append(float("inf"))
        self.answered = answered
        self.served = {i: futures[i].result() for i in answered}
        if self.traced:
            for net in (self.model.cgan.generator, self.model.center_cnn):
                net.profiler = None
            self.profile = self.profiler.report()
        return Measurement(
            attempted=count, failed=count - len(answered),
            operations=len(answered), window_s=self.window_s,
            latencies_s=latencies,
            # the throughput is the offered rate, not a speed
            scaled_window_s=self.window_s, scaled_latencies_s=scaled,
            counts={"requests": count, "speed_samples": len(self.speed.rep_s)},
        )

    def check(self) -> None:
        from repro.serving import InferenceService

        if len(self.answered) != len(self.futures):
            self.fail(f"serve: {len(self.futures) - len(self.answered)} of "
                      f"{len(self.futures)} requests not answered")
        fallbacks = sum(1 for c in self.served.values() if c.fallback)
        if fallbacks:
            self.fail(f"serve: {fallbacks} answers came from the simulator "
                      "fallback, not the model")
        alone = InferenceService(self.model, self.config)
        solo: Dict[int, object] = {}
        for i, clip in self.served.items():
            k = int(self.order[i])
            if k not in solo:
                solo[k] = alone.serve_batch(self.masks[k][None]).served[0]
            if not _same_answer(clip, solo[k]):
                self.fail(f"serve: request {i} (clip {k}) differs from the "
                          "same mask served alone")
                break

    def quality(self) -> Dict[str, float]:
        from repro.metrics.ede import ede_nm

        nm_per_px = self.config.image.resist_nm_per_px(self.config.tech)
        penalty = self.config.tech.resist_window_nm / 2.0
        values = [
            ede_nm(self.golden[self.order[i]], clip.resist, nm_per_px,
                   empty_penalty_nm=penalty)
            for i, clip in self.served.items()
        ]
        return {"quality.ede_nm": sum(values) / len(values)}

    def per_layer(self, measurement: Measurement) -> Dict[str, float]:
        records = self.records()
        batches = [r for r in records if r.name == "batch_coalesce"]
        # The batcher resolves a batch's requests before it starts the next
        # batch, so a request's batch is the last forward started before it
        # was answered; it queued from its due time until that start.
        queue_waits = [
            self.proxy.starts[bisect.bisect_right(
                self.proxy.starts, self.futures[i].resolved_at) - 1]
            - self.due_abs[i]
            for i in self.answered
        ]
        busy = total_seconds(records, ["batch_coalesce"])
        model_s = total_seconds(records, ["predict_raw"])
        clips = sum(r.metadata["size"] for r in batches)
        served = list(self.served.values())
        latencies_ms = sorted(1000.0 * v for v in measurement.latencies_s)
        late_ms = [1000.0 * (s - d) for s, d in zip(self.sent, self.due_abs)]
        metrics = {
            "serving.queue_wait_ms": 1000.0 * quantile(queue_waits, 0.5),
            "serving.coalesce_wait_ms": quantile(
                [r.metadata["waited_ms"] for r in batches], 0.5),
            "serving.batch_size_mean": clips / len(batches),
            "serving.busy_share": busy / self.window_s,
            "serving.ladder_ms_per_clip": 1000.0 * (busy - model_s) / clips,
            "serving.rung1_share": sum(
                1 for c in served if c.attempts == ("model",)) / len(served),
            "serving.fallback_share": sum(
                1 for c in served if c.fallback) / len(served),
            "serving.request_p99_ms": quantile(latencies_ms, 0.99),
            "serving.request_p99_n": len(latencies_ms),
            "loadgen.late_p99_ms": quantile(late_ms, 0.99),
            "core.predict_raw_ms": 1000.0 * model_s / clips,
            "process.cpu_per_wall": self.cpu_s / self.window_s,
            # the networks' profiled forward time over executor busy time
            "trace.coverage": self.profile.forward_s / busy,
        }
        metrics.update(nn_metrics(self.profile, clips))
        return metrics

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.close()


def _same_answer(a, b) -> bool:
    import numpy as np

    return (a.provenance == b.provenance and a.attempts == b.attempts
            and np.array_equal(a.resist, b.resist))

"""InferenceService drills: the admission → guard → fallback → breaker ladder.

All drills run against the :class:`GoldenModel` playback stand-in (see
``conftest.py``), so every degenerate output is one a seeded
:class:`~repro.runtime.faults.FaultPlan` injected — which is what makes the
exact-count assertions below deterministic.
"""

import dataclasses

import numpy as np
import pytest

from repro.runtime.faults import FaultPlan
from repro.serving import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CAUSE_BREAKER,
    CAUSE_DEGENERATE,
    InferenceService,
    PROVENANCE_FALLBACK,
    PROVENANCE_MODEL,
    SLOT_INCUMBENT,
    VERDICT_DEGENERATE,
    serve_latency_quantiles,
)
from repro.telemetry import (
    MetricsRegistry,
    RunLogger,
    RunLoggerHook,
    TelemetryHook,
    Tracer,
    read_run_log,
    validate_run_log,
)


class TestHealthyBatches:
    def test_golden_playback_serves_everything_from_the_model(
            self, golden_model, tiny_dataset, tiny_config):
        service = InferenceService(golden_model, tiny_config)
        report = service.serve_batch(tiny_dataset.masks)
        assert report.admitted == len(tiny_dataset)
        assert report.rejected == 0
        assert report.fallbacks == 0
        assert all(c.provenance == PROVENANCE_MODEL for c in report.served)
        assert all(c.verdict != VERDICT_DEGENERATE for c in report.served)
        assert report.breaker_state == BREAKER_CLOSED
        assert report.breaker_transitions == ()

    def test_every_admitted_clip_is_answered_in_order(
            self, golden_model, tiny_dataset, tiny_config):
        service = InferenceService(golden_model, tiny_config)
        report = service.serve_batch(tiny_dataset.masks)
        assert [c.clip for c in report.served] == list(
            range(len(tiny_dataset))
        )
        resists = report.resists()
        assert set(resists) == set(range(len(tiny_dataset)))
        assert all(r.shape == tiny_dataset.resists[0, 0].shape
                   for r in resists.values())


class TestDegradationDrill:
    def test_injected_faults_fall_back_exactly(
            self, golden_model, tiny_dataset, tiny_config):
        """The acceptance drill: N injected degradations → exactly N
        fallbacks, every clip still answered, provenance recorded."""
        plan = FaultPlan(seed=11)
        for clip in (1, 5, 9):  # non-consecutive: the breaker must not trip
            plan.inject_degenerate(clip)
        service = InferenceService(golden_model, tiny_config)
        report = service.serve_batch(tiny_dataset.masks, faults=plan)

        assert report.admitted == len(tiny_dataset)
        fallbacks = [c for c in report.served if c.fallback]
        assert sorted(c.clip for c in fallbacks) == [1, 5, 9]
        assert all(c.provenance == PROVENANCE_FALLBACK for c in fallbacks)
        assert all(c.cause == CAUSE_DEGENERATE for c in fallbacks)
        assert all("fallback_sim" in c.attempts for c in fallbacks)
        assert report.fallbacks == 3
        assert report.fallbacks_by_cause() == {CAUSE_DEGENERATE: 3}
        # the plan's audit trail names exactly the fired injections
        assert sorted(site[2] for site in plan.fired) == [1, 5, 9]
        # un-poisoned clips never left the model path
        untouched = [c for c in report.served if c.clip not in (1, 5, 9)]
        assert all(c.provenance == PROVENANCE_MODEL for c in untouched)
        assert report.breaker_state == BREAKER_CLOSED

    def test_seeded_random_injection_is_deterministic(
            self, golden_model, tiny_dataset, tiny_config):
        chosen_a = FaultPlan(seed=4).inject_random_degenerate(
            len(tiny_dataset), 0.25
        )
        chosen_b = FaultPlan(seed=4).inject_random_degenerate(
            len(tiny_dataset), 0.25
        )
        assert chosen_a == chosen_b
        assert len(chosen_a) == 3

        plan = FaultPlan(seed=4)
        plan.inject_random_degenerate(len(tiny_dataset), 0.25)
        service = InferenceService(golden_model, tiny_config)
        report = service.serve_batch(tiny_dataset.masks, faults=plan)
        fallback_clips = {c.clip for c in report.served if c.fallback}
        assert set(chosen_a) <= fallback_clips

    def test_fallback_windows_are_physically_plausible(
            self, golden_model, tiny_dataset, tiny_config):
        plan = FaultPlan(seed=11).inject_degenerate(3)
        service = InferenceService(golden_model, tiny_config)
        report = service.serve_batch(tiny_dataset.masks[:6], faults=plan)
        [fallback] = [c for c in report.served if c.fallback]
        assert fallback.clip == 3
        assert fallback.verdict != VERDICT_DEGENERATE
        assert np.any(fallback.resist >= 0.5)


class TestBreakerLadder:
    def _drill_config(self, serving_config, tiny_config, **overrides):
        # probe_after=3: two simulator-only clips, then the third denied
        # clip completes probation and becomes the half-open probe
        options = dict(micro_batch=1, breaker_threshold=3,
                       breaker_probe_after=3)
        options.update(overrides)
        return serving_config(tiny_config, **options)

    def test_full_open_halfopen_closed_cycle(
            self, golden_model, tiny_dataset, tiny_config, serving_config):
        config = self._drill_config(serving_config, tiny_config)
        plan = FaultPlan(seed=0)
        for clip in (2, 3, 4):  # three consecutive failures trip the breaker
            plan.inject_degenerate(clip)
        service = InferenceService(golden_model, config)
        report = service.serve_batch(tiny_dataset.masks, faults=plan)

        assert [edge[:2] for edge in report.breaker_transitions] == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]
        assert report.breaker_state == BREAKER_CLOSED
        by_clip = {c.clip: c for c in report.served}
        # the three poisoned clips degraded to the simulator
        for clip in (2, 3, 4):
            assert by_clip[clip].cause == CAUSE_DEGENERATE
        # the open breaker benched the model for the probation window
        for clip in (5, 6):
            assert by_clip[clip].provenance == PROVENANCE_FALLBACK
            assert by_clip[clip].cause == CAUSE_BREAKER
            assert "breaker" in by_clip[clip].attempts
        # clip 7 is the half-open probe; golden playback closes the breaker
        assert by_clip[7].provenance == PROVENANCE_MODEL
        for clip in range(8, len(tiny_dataset)):
            assert by_clip[clip].provenance == PROVENANCE_MODEL
        assert report.fallbacks_by_cause() == {
            CAUSE_DEGENERATE: 3, CAUSE_BREAKER: 2,
        }

    def test_failed_probe_reopens(self, golden_model, tiny_dataset,
                                  tiny_config, serving_config):
        config = self._drill_config(serving_config, tiny_config)
        plan = FaultPlan(seed=0)
        for clip in (2, 3, 4, 7):  # 7 is the probe clip — poison it too
            plan.inject_degenerate(clip)
        service = InferenceService(golden_model, config)
        report = service.serve_batch(tiny_dataset.masks, faults=plan)

        edges = [edge[:2] for edge in report.breaker_transitions]
        assert edges[:4] == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
        ]
        by_clip = {c.clip: c for c in report.served}
        assert by_clip[7].provenance == PROVENANCE_FALLBACK
        assert by_clip[7].cause == CAUSE_DEGENERATE
        # probation restarted: clips 8 and 9 are simulator-only again,
        # clip 10 is the second probe (healthy → closed)
        for clip in (8, 9):
            assert by_clip[clip].cause == CAUSE_BREAKER
        assert by_clip[10].provenance == PROVENANCE_MODEL
        assert report.breaker_state == BREAKER_CLOSED
        # every clip was still answered
        assert len(report.served) == len(tiny_dataset)


class TestDegradedModes:
    def test_no_fallback_serves_flagged_best_effort(
            self, golden_model, tiny_dataset, tiny_config, serving_config):
        config = serving_config(tiny_config, fallback_enabled=False)
        plan = FaultPlan(seed=0).inject_degenerate(2)
        service = InferenceService(golden_model, config)
        report = service.serve_batch(tiny_dataset.masks[:5], faults=plan)

        assert report.fallbacks == 0
        by_clip = {c.clip: c for c in report.served}
        assert by_clip[2].provenance == PROVENANCE_MODEL
        assert by_clip[2].verdict == VERDICT_DEGENERATE
        assert "fallback_sim" not in by_clip[2].attempts
        # without the fallback path there is nothing for a breaker to trip to
        assert report.breaker_transitions == ()
        assert len(report.served) == 5

    def test_exceeded_deadline_collapses_to_best_effort(
            self, golden_model, tiny_dataset, tiny_config):
        plan = FaultPlan(seed=0).inject_degenerate(1)
        service = InferenceService(golden_model, tiny_config)
        report = service.serve_batch(
            tiny_dataset.masks[:4], deadline_s=0.0, faults=plan,
        )

        assert report.deadline_exceeded
        assert len(report.served) == 4  # late clips are answered, not dropped
        assert report.fallbacks == 0  # no time left for simulation
        by_clip = {c.clip: c for c in report.served}
        assert by_clip[1].verdict == VERDICT_DEGENERATE
        assert "deadline" in by_clip[1].attempts
        assert report.breaker_transitions == ()

    def test_queue_capacity_sheds_load(self, golden_model, tiny_dataset,
                                       tiny_config, serving_config):
        config = serving_config(tiny_config, queue_capacity=4)
        service = InferenceService(golden_model, config)
        report = service.serve_batch(tiny_dataset.masks)
        assert report.admitted == 4
        assert report.rejected == len(tiny_dataset) - 4
        assert all(r.reason == "overload" for r in report.rejections)

    def test_malformed_clips_never_crash_the_batch(
            self, golden_model, tiny_dataset, tiny_config):
        masks = list(tiny_dataset.masks[:6])
        masks[2] = masks[2][:, :8, :8]  # wrong shape
        masks[4] = np.full_like(tiny_dataset.masks[0], np.nan)
        service = InferenceService(golden_model, tiny_config)
        report = service.serve_batch(masks)
        assert report.admitted == 4
        assert sorted(r.clip for r in report.rejections) == [2, 4]
        assert sorted(c.clip for c in report.served) == [0, 1, 3, 5]


class _RecordingHook(TelemetryHook):
    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append((event, fields))


class TestParallelEvaluation:
    def test_worker_threads_serve_exactly_what_one_thread_serves(
            self, golden_model, tiny_dataset, tiny_config):
        """``workers > 1`` evaluates each micro-batch's ladders on threads
        that share one fallback simulator; clips, breaker edges and hook
        events must match the serial run exactly."""
        runs = {}
        for workers in (1, 4):
            config = dataclasses.replace(
                tiny_config, parallel=dataclasses.replace(
                    tiny_config.parallel, workers=workers))
            plan = FaultPlan(seed=0)
            for clip in (1, 2, 3, 4, 7):
                plan.inject_degenerate(clip)
            hook = _RecordingHook()
            service = InferenceService(golden_model, config, hook=hook)
            report = service.serve_batch(tiny_dataset.masks, faults=plan)
            served = [(c.clip, c.provenance, c.attempts, c.resist.tobytes())
                      for c in report.served]
            edges = [edge[:2] for edge in report.breaker_transitions]
            # per-clip latencies are wall-clock, everything else must match
            events = [(event, {k: v for k, v in fields.items()
                               if k != "seconds"})
                      for event, fields in hook.events]
            runs[workers] = served, edges, events

        served, edges, events = runs[1]
        assert len(served) == len(tiny_dataset)
        provenances = {provenance for _, provenance, _, _ in served}
        assert provenances == {PROVENANCE_MODEL, PROVENANCE_FALLBACK}
        assert edges == [(BREAKER_CLOSED, BREAKER_OPEN)]
        assert runs[4] == runs[1]


class _ClockAdvancingModel:
    """Wraps a model so every forward pass steps the fake clock.

    This is how the deadline can expire *during* a forward — the race the
    breaker/deadline interplay test needs — without any real sleeping.
    """

    def __init__(self, inner, clock, seconds_per_forward: float):
        self._inner = inner
        self._clock = clock
        self._seconds = seconds_per_forward

    def predict_raw(self, masks):
        self._clock.advance(self._seconds)
        return self._inner.predict_raw(masks)


class TestBreakerDeadlineRace:
    def test_probe_truncated_by_deadline_expiry_reopens_not_closes(
            self, golden_model, tiny_dataset, tiny_config, serving_config,
            fake_clock):
        """The half-open probe racing deadline expiry must re-open.

        Construction: each forward advances the fake clock 2s and the
        budget is 7s.  Clips 0-2 are poisoned and trip the breaker at t=6;
        clips 3-4 are simulator-only probation; clip 5 wins the half-open
        probe while the deadline is still live (t=6 < 7), but its forward
        pushes the clock to t=8 — expired.  The poisoned probe's ladder is
        truncated by the dead deadline (no retries, no fallback), and that
        truncated verdict must still count as a *failed* probe: the breaker
        deterministically re-opens.  Closing here would promote a model
        that was never actually vetted.
        """
        config = serving_config(tiny_config, micro_batch=1,
                                breaker_threshold=3, breaker_probe_after=3)
        model = _ClockAdvancingModel(golden_model, fake_clock, 2.0)
        plan = FaultPlan(seed=0)
        for clip in (0, 1, 2, 5):  # 5 is the probe clip
            plan.inject_degenerate(clip)
        service = InferenceService(model, config, clock=fake_clock)
        report = service.serve_batch(
            tiny_dataset.masks, deadline_s=7.0, faults=plan,
        )

        assert report.deadline_exceeded
        assert report.breaker_state == BREAKER_OPEN
        assert [edge[:2] for edge in report.breaker_transitions] == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_OPEN),
        ]
        by_clip = {c.clip: c for c in report.served}
        # the probe was answered best-effort, flagged, ladder cut short
        assert by_clip[5].verdict == VERDICT_DEGENERATE
        assert "deadline" in by_clip[5].attempts
        assert "fallback_sim" not in by_clip[5].attempts
        # probation clips before the probe went simulator-only
        for clip in (3, 4):
            assert by_clip[clip].cause == CAUSE_BREAKER
        # every clip was still answered despite the expired budget
        assert len(report.served) == len(tiny_dataset)


class TestTelemetryIntegration:
    def test_drill_emits_a_valid_run_log_and_counters(
            self, golden_model, tiny_dataset, tiny_config, serving_config,
            tmp_path):
        config = serving_config(tiny_config, micro_batch=1,
                                breaker_threshold=3, breaker_probe_after=3)
        plan = FaultPlan(seed=0)
        for clip in (2, 3, 4):
            plan.inject_degenerate(clip)
        log_path = tmp_path / "serve.jsonl"
        registry = MetricsRegistry()
        tracer = Tracer()
        with RunLogger(log_path) as logger:
            logger.emit("run_start", command="serve-drill")
            hook = RunLoggerHook(logger=logger, registry=registry)
            service = InferenceService(
                golden_model, config, hook=hook, tracer=tracer,
            )
            report = service.serve_batch(tiny_dataset.masks, faults=plan)
            logger.emit("run_end", status="ok")

        events = read_run_log(log_path)
        validate_run_log(events)  # admission/fallback/breaker all well-formed
        kinds = [e["event"] for e in events]
        assert kinds.count("admission") == 1
        assert kinds.count("fallback") == report.fallbacks == 5
        assert kinds.count("breaker") == len(report.breaker_transitions) == 3

        total = len(tiny_dataset)
        assert registry.counter("serve_admitted_total").value == total
        assert registry.counter("serve_rejected_total").value == 0
        assert registry.counter(
            "serve_fallbacks_total", labels={"cause": CAUSE_DEGENERATE}
        ).value == 3
        assert registry.counter(
            "serve_fallbacks_total", labels={"cause": CAUSE_BREAKER}
        ).value == 2
        assert registry.counter(
            "serve_clips_total", labels={"provenance": PROVENANCE_MODEL}
        ).value == total - 5
        assert registry.counter(
            "serve_breaker_transitions_total",
            labels={"slot": SLOT_INCUMBENT, "to_state": BREAKER_OPEN},
        ).value == 1
        assert registry.gauge(
            "serve_breaker_state", labels={"slot": SLOT_INCUMBENT},
        ).value == 0  # closed

    def test_tracer_yields_per_clip_latency_quantiles(
            self, golden_model, tiny_dataset, tiny_config):
        tracer = Tracer()
        service = InferenceService(golden_model, tiny_config, tracer=tracer)
        service.serve_batch(tiny_dataset.masks)
        assert tracer.count("serve_clip") == len(tiny_dataset)
        quantiles = serve_latency_quantiles(tracer)
        assert set(quantiles) == {"p50", "p90", "p99"}
        assert 0.0 <= quantiles["p50"] <= quantiles["p90"] <= quantiles["p99"]

    def test_empty_tracer_yields_no_quantiles(self):
        assert serve_latency_quantiles(Tracer()) == {}

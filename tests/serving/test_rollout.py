"""Canary/shadow rollout drills: hot swap, auto-rollback, zero drops.

The chaos drill is the heart of this file: a degenerate candidate canaries
against a golden incumbent under continuous load, the sliding-window
comparison forces an automatic rollback, and the audit then proves the one
invariant that matters — every admitted request was answered with a result
or a typed error, before, during, and after the swap machinery fired.
"""

import time

import pytest

import numpy as np

from repro.errors import OverloadError, ServingError
from repro.runtime import FaultPlan
from repro.serving import (
    InferenceServer,
    MODE_SHADOW,
    SLOT_CANDIDATE,
    SLOT_INCUMBENT,
    RolloutController,
    SlidingWindow,
    VERDICT_DEGENERATE,
)
from repro.telemetry import (
    MetricsRegistry,
    RunLogger,
    RunLoggerHook,
    read_run_log,
    validate_run_log,
)

RESOLVE_TIMEOUT = 30.0

#: generous real-time bound for "the rollback eventually fires" loops
ROLLBACK_TIMEOUT = 60.0


class DegenerateModel:
    """A stand-in for a bad weight drop: every output is a zero field.

    The output guard flags a constant window degenerate on every clip, so
    a canary built on this model regresses as fast as the sliding window
    can fill.
    """

    def predict_raw(self, masks):
        masks = np.asarray(masks)
        # one mono window per (N, 3, H, W) mask stack: (N, H, W)
        mono = np.zeros((len(masks),) + masks.shape[2:], dtype=np.float32)
        centers = np.zeros((len(masks), 2), dtype=np.float64)
        return mono, centers


# ---------------------------------------------------------------------------
# Controller unit tests
# ---------------------------------------------------------------------------


class TestSlidingWindow:
    def test_rates_over_a_bounded_window(self):
        window = SlidingWindow(4)
        assert window.bad_rate == 0.0
        for bad in (True, True, False, False):
            window.record(bad)
        assert window.samples == 4
        assert window.bad_rate == pytest.approx(0.5)
        # One more good outcome pushes the oldest bad one out.
        window.record(False)
        assert window.bad_count == 1
        assert window.bad_rate == pytest.approx(0.25)

    def test_rejects_empty_window(self):
        with pytest.raises(ServingError):
            SlidingWindow(0)


class TestRolloutController:
    def test_fraction_routing_is_deterministic(self):
        controller = RolloutController("canary", fraction=0.5)
        pattern = [controller.route_to_candidate() for _ in range(6)]
        assert pattern == [False, True, False, True, False, True]

    def test_full_fraction_routes_every_batch(self):
        controller = RolloutController("canary", fraction=1.0)
        assert all(controller.route_to_candidate() for _ in range(5))

    def test_shadow_never_routes(self):
        controller = RolloutController("shadow", fraction=1.0)
        assert not any(controller.route_to_candidate() for _ in range(5))

    def test_verdict_waits_for_min_samples_on_both_slots(self):
        controller = RolloutController(
            "canary", window=8, min_samples=4, margin=0.2)
        controller.record_failures(SLOT_CANDIDATE, 8)
        assert controller.verdict() is None  # incumbent window still empty
        controller.record_failures(SLOT_INCUMBENT, 3)
        assert controller.verdict() is None  # 3 < min_samples
        for _ in range(4):
            controller._windows[SLOT_INCUMBENT].record(False)
        verdict = controller.verdict()
        assert verdict is not None
        assert verdict.verdict == "rollback"
        assert verdict.candidate_rate == pytest.approx(1.0)

    def test_no_verdict_within_margin(self):
        controller = RolloutController(
            "canary", window=8, min_samples=2, margin=0.5)
        controller.record_failures(SLOT_CANDIDATE, 1)
        controller._windows[SLOT_CANDIDATE].record(False)
        for _ in range(2):
            controller._windows[SLOT_INCUMBENT].record(False)
        # candidate 0.5 bad vs incumbent 0.0 — within the 0.5 margin.
        assert controller.verdict() is None

    def test_rejects_bad_config(self):
        with pytest.raises(ServingError):
            RolloutController("bluegreen")
        with pytest.raises(ServingError):
            RolloutController("canary", fraction=0.0)
        with pytest.raises(ServingError):
            RolloutController("canary", window=4, min_samples=5)
        with pytest.raises(ServingError):
            RolloutController("canary", margin=1.0)


# ---------------------------------------------------------------------------
# Hot swap
# ---------------------------------------------------------------------------


class TestHotSwap:
    def test_swap_answers_everything_and_relabels_the_slot(
            self, golden_model, tiny_dataset, tiny_config):
        server = InferenceServer(
            golden_model, tiny_config, model_name="litho", model_version=1)
        with server:
            first = [
                server.submit(mask) for mask in tiny_dataset.masks[:4]
            ]
            label = server.swap_model(
                golden_model, name="litho", version=2, reason="swap")
            assert label == "litho@2"
            second = [
                server.submit(mask) for mask in tiny_dataset.masks[4:8]
            ]
            for future in first + second:
                clip = future.result(timeout=RESOLVE_TIMEOUT)
                assert clip.verdict != VERDICT_DEGENERATE
        stats = server.stats()
        assert stats.swaps == 1
        assert stats.model == "litho@2"

    def test_swap_refused_while_wedged(self, golden_model, tiny_dataset,
                                       tiny_config):
        server = InferenceServer(golden_model, tiny_config)
        server._wedged = True
        with pytest.raises(OverloadError):
            server.swap_model(golden_model, version=2)

    def test_promote_candidate_takes_the_slot(self, golden_model,
                                              tiny_dataset, tiny_config):
        server = InferenceServer(
            golden_model, tiny_config, model_name="litho", model_version=1)
        with server:
            server.start_canary(
                golden_model, name="litho", version=2, fraction=0.5)
            for mask in tiny_dataset.masks[:4]:
                server.submit(mask).result(timeout=RESOLVE_TIMEOUT)
            label = server.promote_candidate()
        assert label == "litho@2"
        stats = server.stats()
        assert stats.model == "litho@2"
        assert stats.candidate is None
        assert stats.swaps == 1

    def test_second_candidate_is_refused(self, golden_model, tiny_config):
        server = InferenceServer(golden_model, tiny_config)
        server.start_canary(golden_model, version=2)
        with pytest.raises(OverloadError):
            server.start_canary(golden_model, version=3)
        server.swap_model(golden_model)  # a swap drops the candidate
        server.start_canary(golden_model, version=3)


class TestCanaryBreakers:
    def test_each_slot_keeps_its_own_breaker_in_the_run_log(
            self, golden_model, tiny_dataset, tiny_config, serving_config,
            tmp_path):
        """Both slots trip their breakers on one hook; the log validates.

        The incumbent and the candidate each own a circuit breaker but
        share the server's hook.  One request per batch, routed alternately,
        every output poisoned: with a threshold of 2 each slot opens on its
        second clip, so the log holds two ``closed -> open`` edges.
        """
        config = serving_config(tiny_config, breaker_threshold=2)
        plan = FaultPlan(seed=0)
        for request in range(4):
            plan.inject_degenerate(request)
        log = tmp_path / "canary.jsonl"
        registry = MetricsRegistry()
        with RunLogger(log) as logger:
            logger.emit("run_start", command="serve")
            hook = RunLoggerHook(logger=logger, registry=registry)
            with InferenceServer(golden_model, config, hook=hook,
                                 faults=plan) as server:
                server.start_canary(golden_model, fraction=0.5)
                for mask in tiny_dataset.masks[:4]:
                    server.submit(mask).result(timeout=RESOLVE_TIMEOUT)
            logger.emit("run_end", status="ok")

        events = read_run_log(log)
        validate_run_log(events)
        assert [(e["slot"], e["from_state"], e["to_state"])
                for e in events if e["event"] == "breaker"] == [
            (SLOT_INCUMBENT, "closed", "open"),
            (SLOT_CANDIDATE, "closed", "open"),
        ]
        for slot in (SLOT_INCUMBENT, SLOT_CANDIDATE):
            assert registry.gauge(
                "serve_breaker_state", labels={"slot": slot}).value == 2
            assert registry.counter(
                "serve_breaker_transitions_total",
                labels={"slot": slot, "to_state": "open"}).value == 1

    def test_swap_resets_the_slot_breaker_gauge(
            self, golden_model, tiny_dataset, tiny_config, serving_config):
        """The gauge shows the swapped-in model's closed breaker at once."""
        config = serving_config(tiny_config, breaker_threshold=2)
        plan = FaultPlan(seed=0)
        for request in range(2):
            plan.inject_degenerate(request)
        registry = MetricsRegistry()
        hook = RunLoggerHook(logger=None, registry=registry)

        def gauge():
            return registry.gauge(
                "serve_breaker_state", labels={"slot": SLOT_INCUMBENT}).value

        with InferenceServer(golden_model, config, hook=hook,
                             faults=plan) as server:
            for mask in tiny_dataset.masks[:2]:
                server.submit(mask).result(timeout=RESOLVE_TIMEOUT)
            assert gauge() == 2  # open
            server.swap_model(golden_model, name="litho", version=2)
            assert gauge() == 0  # closed
            assert server.service.breaker.state == "closed"

    @staticmethod
    def _serve_degenerate(model, masks, config, log, start, between):
        """Four all-degenerate requests: ``start`` first, ``between`` after
        two.  Returns the validated run log."""
        plan = FaultPlan(seed=0)
        for request in range(4):
            plan.inject_degenerate(request)
        with RunLogger(log) as logger:
            logger.emit("run_start", command="serve")
            hook = RunLoggerHook(logger=logger, registry=MetricsRegistry())
            with InferenceServer(model, config, hook=hook,
                                 faults=plan) as server:
                start(server)
                for index, mask in enumerate(masks[:4]):
                    if index == 2:
                        between(server)
                    server.submit(mask).result(timeout=RESOLVE_TIMEOUT)
            logger.emit("run_end", status="ok")
        events = read_run_log(log)
        validate_run_log(events)
        return events

    @staticmethod
    def _fields(events, event, *names):
        return [tuple(e[name] for name in names)
                for e in events if e["event"] == event]

    def test_swapped_model_starts_with_a_closed_breaker(
            self, golden_model, tiny_dataset, tiny_config, serving_config,
            tmp_path):
        """A swap replaces the incumbent's breaker; the log still validates.

        Two degenerate requests open the incumbent breaker.  After
        ``swap_model`` two more open the new incumbent's own breaker from
        closed, and the ``model_swap`` record names the slot it filled.
        """
        config = serving_config(tiny_config, breaker_threshold=2)
        events = self._serve_degenerate(
            golden_model, tiny_dataset.masks, config, tmp_path / "swap.jsonl",
            start=lambda server: None,
            between=lambda server: server.swap_model(
                golden_model, name="litho", version=2),
        )
        assert self._fields(events, "breaker",
                            "slot", "from_state", "to_state") == [
            (SLOT_INCUMBENT, "closed", "open"),
            (SLOT_INCUMBENT, "closed", "open"),
        ]
        assert self._fields(events, "model_swap", "reason", "slot") == [
            ("swap", SLOT_INCUMBENT)]

    def test_promoted_candidate_serves_the_incumbent_slot(
            self, golden_model, tiny_dataset, tiny_config, serving_config,
            tmp_path):
        """A promoted candidate gets a fresh incumbent-slot breaker.

        A canary taking every batch opens the candidate breaker on two
        degenerate requests.  Once promoted, the model serves the incumbent
        slot, so the next two failures open a closed ``incumbent`` breaker
        rather than probing the candidate's open one.
        """
        config = serving_config(tiny_config, breaker_threshold=2,
                                breaker_probe_after=1)
        events = self._serve_degenerate(
            golden_model, tiny_dataset.masks, config,
            tmp_path / "promote.jsonl",
            start=lambda server: server.start_canary(
                golden_model, name="litho", version=2, fraction=1.0),
            between=lambda server: server.promote_candidate(),
        )
        assert self._fields(events, "breaker",
                            "slot", "from_state", "to_state") == [
            (SLOT_CANDIDATE, "closed", "open"),
            (SLOT_INCUMBENT, "closed", "open"),
        ]
        assert self._fields(events, "model_swap", "reason", "slot") == [
            ("canary", SLOT_CANDIDATE), ("promote", SLOT_INCUMBENT)]


# ---------------------------------------------------------------------------
# The chaos drill: canary -> automatic rollback under load, zero drops
# ---------------------------------------------------------------------------


class TestAutoRollback:
    def _drain_all(self, futures):
        """Every future must resolve — a result or a typed serving error."""
        outcomes = {"served": 0, "errors": 0, "degenerate": 0}
        for future in futures:
            try:
                clip = future.result(timeout=RESOLVE_TIMEOUT)
                outcomes["served"] += 1
                outcomes["degenerate"] += clip.verdict == VERDICT_DEGENERATE
            except ServingError:
                outcomes["errors"] += 1
        return outcomes

    def test_degenerate_canary_rolls_back_under_continuous_load(
            self, golden_model, tiny_dataset, tiny_config, serving_config,
            server_config):
        # No fallback ladder: a degenerate output is served flagged, which
        # keeps both slots' health windows a pure function of their models
        # (and keeps the circuit breaker out of the drill entirely).
        config = server_config(
            serving_config(tiny_config, fallback_enabled=False,
                           micro_batch=2),
            queue_capacity=256,
        )
        registry = MetricsRegistry()
        hook = RunLoggerHook(logger=None, registry=registry)
        server = InferenceServer(
            golden_model, config, hook=hook,
            model_name="litho", model_version=1,
        )
        rollbacks = []
        futures = []
        with server:
            # Warm the incumbent window before the candidate shows up.
            for mask in tiny_dataset.masks[:6]:
                futures.append(server.submit(mask))
            label = server.start_canary(
                DegenerateModel(), name="litho", version=2,
                fraction=0.5, window=16, min_samples=4, margin=0.2,
                on_rollback=rollbacks.append,
            )
            assert label == "litho@2"
            assert server.candidate_label == "litho@2"

            # Continuous load until the rollback fires.
            deadline = ROLLBACK_TIMEOUT
            waited = 0.0
            index = 0
            while not rollbacks and waited < deadline:
                mask = tiny_dataset.masks[index % len(tiny_dataset.masks)]
                futures.append(server.submit(mask))
                index += 1
                if index % 8 == 0:
                    time.sleep(0.01)
                    waited += 0.01
            assert rollbacks, "canary never rolled back"

            # The rollback cleared the candidate; the incumbent still serves.
            assert server.candidate_label is None
            assert server.model_label == "litho@1"
            after = [server.submit(mask) for mask in tiny_dataset.masks[:4]]
            futures.extend(after)
        server.close(drain=True)

        outcomes = self._drain_all(futures)
        assert outcomes["served"] + outcomes["errors"] == len(futures)
        # The canary regresses through output-guard verdicts: its answers
        # are served flagged, never as whole-batch errors.
        assert outcomes["errors"] == 0
        assert outcomes["degenerate"] > 0
        stats = server.stats()
        assert stats.rollbacks == 1
        assert stats.swaps == 0  # rollback discards, never swaps
        assert stats.model == "litho@1"
        # Zero drops: the soak invariant, asserted the hard way.
        assert all(future.done() for future in futures)

        verdict = rollbacks[0]
        assert verdict["verdict"] == "rollback"
        assert verdict["candidate_rate"] > verdict["incumbent_rate"] + 0.2
        assert registry.counter(
            "serve_rollbacks_total", labels={"model": "litho"}).value == 1

    def test_rollback_events_flow_into_the_run_log(
            self, golden_model, tiny_dataset, tiny_config, serving_config,
            server_config, tmp_path):
        config = server_config(
            serving_config(tiny_config, fallback_enabled=False,
                           micro_batch=2),
            queue_capacity=256,
        )
        log_path = tmp_path / "serve.jsonl"
        logger = RunLogger(log_path)
        logger.emit("run_start", command="test-rollout")
        hook = RunLoggerHook(logger=logger, registry=MetricsRegistry())
        server = InferenceServer(
            golden_model, config, hook=hook,
            model_name="litho", model_version=1,
        )
        rollbacks = []
        futures = []
        with server:
            server.start_canary(
                DegenerateModel(), name="litho", version=2,
                fraction=0.5, window=8, min_samples=2, margin=0.1,
                on_rollback=rollbacks.append,
            )
            index = 0
            while not rollbacks and index < 4096:
                mask = tiny_dataset.masks[index % len(tiny_dataset.masks)]
                futures.append(server.submit(mask))
                index += 1
        server.close(drain=True)
        logger.emit("run_end", status="ok", seconds=0.0)
        logger.close()
        assert rollbacks

        events = read_run_log(log_path)
        validate_run_log(events)
        kinds = [event["event"] for event in events]
        assert "model_swap" in kinds       # the canary install
        assert "canary_verdict" in kinds   # the rollback verdict
        assert "rollback" in kinds         # the typed rollback event
        rollback_events = [
            event for event in events if event["event"] == "rollback"
        ]
        assert any(
            event.get("phase") == "serving" and event.get("model") == "litho"
            for event in rollback_events
        )

    def test_shadow_candidate_never_answers_but_still_rolls_back(
            self, golden_model, tiny_dataset, tiny_config, serving_config,
            server_config):
        config = server_config(
            serving_config(tiny_config, fallback_enabled=False,
                           micro_batch=2),
            queue_capacity=256,
        )
        server = InferenceServer(
            golden_model, config, model_name="litho", model_version=1)
        rollbacks = []
        futures = []
        with server:
            server.start_canary(
                DegenerateModel(), name="litho", version=2,
                mode=MODE_SHADOW, window=8, min_samples=2, margin=0.1,
                on_rollback=rollbacks.append,
            )
            index = 0
            while not rollbacks and index < 4096:
                mask = tiny_dataset.masks[index % len(tiny_dataset.masks)]
                futures.append(server.submit(mask))
                index += 1
        server.close(drain=True)
        assert rollbacks

        # Shadow invariant: no caller ever saw the degenerate candidate.
        degenerate = 0
        for future in futures:
            try:
                clip = future.result(timeout=RESOLVE_TIMEOUT)
            except ServingError:
                continue
            if clip.verdict == VERDICT_DEGENERATE:
                degenerate += 1
        assert degenerate == 0
        assert server.stats().rollbacks == 1

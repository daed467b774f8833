"""Continuous-batching serving-loop drills: InferenceServer and run_soak.

Determinism strategy: admission-policy tests submit against a *not yet
started* server (the batcher is not racing the assertions), then start or
close it to observe the outcome.  Liveness tests (watchdog, drain) use
generous real-time timeouts — they assert *that* things resolve with typed
answers, never exact timing.  Everything runs on the GoldenModel playback
stand-in, so un-poisoned clips always serve from the model path.
"""

import pytest

from repro.errors import DeadlineError, OverloadError
from repro.runtime.faults import FaultPlan
from repro.serving import (
    InferenceServer,
    PROVENANCE_MODEL,
    SHED_EVICTED,
    SHED_OVERLOAD,
    SHED_QUOTA,
    SHED_SHUTDOWN,
    SHED_WEDGED,
    TenantQuota,
    run_soak,
)
from repro.telemetry import (
    MetricsRegistry,
    RunLogger,
    RunLoggerHook,
    Tracer,
    read_run_log,
    validate_run_log,
)

#: liveness bound for futures that must resolve; generous, never load-bearing
RESOLVE_TIMEOUT = 30.0


class TestServeAndCoalesce:
    def test_every_submission_is_answered_with_its_request_id(
            self, golden_model, tiny_dataset, tiny_config, serving_config):
        config = serving_config(tiny_config, micro_batch=3)
        tracer = Tracer()
        server = InferenceServer(golden_model, config, tracer=tracer)
        futures = [
            server.submit(mask) for mask in tiny_dataset.masks[:8]
        ]
        server.start()
        try:
            results = [f.result(timeout=RESOLVE_TIMEOUT) for f in futures]
        finally:
            server.close()

        assert [clip.clip for clip in results] == list(range(8))
        assert all(c.provenance == PROVENANCE_MODEL for c in results)
        # 8 requests were already queued: micro_batch=3 caps each server
        # batch, and each server batch is exactly one forward pass
        assert server.batches == 3
        assert [record.metadata["size"] for record in tracer.records
                if record.name == "batch_coalesce"] == [3, 3, 2]
        assert [record.metadata["clips"] for record in tracer.records
                if record.name == "serve_forward"] == [3, 3, 2]
        stats = server.stats()
        assert stats.submitted == 8
        assert stats.served == 8
        assert stats.shed == 0
        assert stats.answered == 8
        assert stats.queue_depth == 0

    def test_context_manager_drains_on_exit(
            self, golden_model, tiny_dataset, tiny_config):
        with InferenceServer(golden_model, tiny_config) as server:
            futures = [
                server.submit(mask) for mask in tiny_dataset.masks[:5]
            ]
        # exit closed with a full drain: everything is served, not shed
        assert all(f.done() for f in futures)
        assert all(f.error() is None for f in futures)
        assert server.state == "closed"

    def test_latency_includes_queueing(self, golden_model, tiny_dataset,
                                       tiny_config):
        with InferenceServer(golden_model, tiny_config) as server:
            future = server.submit(tiny_dataset.masks[0])
            future.result(timeout=RESOLVE_TIMEOUT)
        assert future.resolved_at is not None

    def test_closed_server_refuses_submit_and_restart(
            self, golden_model, tiny_dataset, tiny_config):
        server = InferenceServer(golden_model, tiny_config)
        server.start()
        server.close()
        with pytest.raises(OverloadError, match="shutting down"):
            server.submit(tiny_dataset.masks[0])
        with pytest.raises(OverloadError, match="restart"):
            server.start()


class TestAdmissionPolicy:
    def test_quota_cap_sheds_at_the_door(
            self, golden_model, tiny_dataset, tiny_config):
        server = InferenceServer(
            golden_model, tiny_config,
            quotas=(TenantQuota("capped", max_queued=1),),
        )
        first = server.submit(tiny_dataset.masks[0], tenant="capped")
        second = server.submit(tiny_dataset.masks[1], tenant="capped")
        assert not first.done()
        assert second.done()
        error = second.error()
        assert isinstance(error, OverloadError)
        assert error.reason == SHED_QUOTA
        with pytest.raises(OverloadError, match="max_queued"):
            second.result()
        server.close(drain=False)
        assert first.error().reason == SHED_SHUTDOWN

    def test_full_queue_evicts_the_over_share_tenants_newest_request(
            self, golden_model, tiny_dataset, tiny_config, server_config):
        config = server_config(tiny_config, queue_capacity=4)
        server = InferenceServer(golden_model, config)
        hog = [
            server.submit(mask, tenant="hog")
            for mask in tiny_dataset.masks[:4]
        ]
        assert server.queue.full
        small = server.submit(tiny_dataset.masks[4], tenant="small")

        # the newcomer displaced hog's newest request, not its oldest
        assert not small.done()
        assert [f.done() for f in hog] == [False, False, False, True]
        error = hog[3].error()
        assert isinstance(error, OverloadError)
        assert error.reason == SHED_EVICTED
        assert server.stats().tenants["hog"]["shed"] == 1
        server.close(drain=False)

    def test_arriving_tenant_over_its_own_share_is_shed_itself(
            self, golden_model, tiny_dataset, tiny_config, server_config):
        config = server_config(tiny_config, queue_capacity=4)
        server = InferenceServer(golden_model, config)
        kept = [
            server.submit(mask, tenant="solo")
            for mask in tiny_dataset.masks[:4]
        ]
        extra = server.submit(tiny_dataset.masks[4], tenant="solo")

        assert extra.done()
        assert extra.error().reason == SHED_OVERLOAD
        assert all(not f.done() for f in kept)
        assert server.queue.depth() == 4  # nobody was evicted
        assert server.queue.shed == 1
        server.close(drain=False)

    def test_close_without_drain_sheds_the_queue_with_shutdown(
            self, golden_model, tiny_dataset, tiny_config):
        server = InferenceServer(golden_model, tiny_config)
        futures = [
            server.submit(mask) for mask in tiny_dataset.masks[:3]
        ]
        server.close(drain=False)
        for future in futures:
            error = future.error()
            assert isinstance(error, OverloadError)
            assert error.reason == SHED_SHUTDOWN


class TestDeadlines:
    def test_expired_request_is_answered_with_a_typed_deadline_error(
            self, golden_model, tiny_dataset, tiny_config, fake_clock):
        server = InferenceServer(
            golden_model, tiny_config, clock=fake_clock,
        )
        future = server.submit(tiny_dataset.masks[0], deadline_s=5.0)
        fake_clock.advance(10.0)  # the budget expires while queued
        server.start()
        try:
            with pytest.raises(DeadlineError):
                future.result(timeout=RESOLVE_TIMEOUT)
        finally:
            server.close()
        assert future.error().reason == "deadline"

    def test_config_default_deadline_applies_to_submissions(
            self, golden_model, tiny_dataset, tiny_config, server_config,
            fake_clock):
        config = server_config(tiny_config, default_deadline_s=2.0)
        server = InferenceServer(golden_model, config, clock=fake_clock)
        doomed = server.submit(tiny_dataset.masks[0])
        unbounded = server.submit(tiny_dataset.masks[1], deadline_s=None)
        fake_clock.advance(3.0)
        server.start()
        try:
            with pytest.raises(DeadlineError):
                doomed.result(timeout=RESOLVE_TIMEOUT)
            served = unbounded.result(timeout=RESOLVE_TIMEOUT)
        finally:
            server.close()
        assert served.provenance == PROVENANCE_MODEL


class TestWatchdog:
    def test_wedged_executor_fails_pending_requests_with_typed_errors(
            self, golden_model, tiny_dataset, tiny_config, server_config,
            serving_config):
        config = server_config(
            serving_config(tiny_config, micro_batch=2), watchdog_s=0.3)
        faults = FaultPlan(seed=0)
        faults.inject_wedge(0, seconds=60.0)
        server = InferenceServer(golden_model, config, faults=faults)
        futures = [
            server.submit(mask) for mask in tiny_dataset.masks[:5]
        ]
        server.start()
        try:
            for future in futures:
                assert future.wait(RESOLVE_TIMEOUT), "request left unanswered"
            for future in futures:
                error = future.error()
                assert isinstance(error, OverloadError)
                assert error.reason == SHED_WEDGED
            assert server.wedged
            with pytest.raises(OverloadError, match="wedged"):
                server.submit(tiny_dataset.masks[0])
        finally:
            server.close()
        assert server.stats().wedged


class TestInjectedClock:
    """The watchdog's stall timer runs on the injected clock, so wedge
    drills advance a fake clock instead of sleeping real wall time."""

    def test_fake_clock_trips_the_watchdog_on_a_stuck_executor(
            self, golden_model, tiny_dataset, tiny_config, server_config,
            serving_config, fake_clock):
        import threading as _threading

        class BlockingModel:
            """Holds the forward pass until released — a real stall."""

            def __init__(self, inner):
                self.inner = inner
                self.entered = _threading.Event()
                self.release = _threading.Event()

            def predict_raw(self, masks):
                self.entered.set()
                self.release.wait(RESOLVE_TIMEOUT)
                return self.inner.predict_raw(masks)

        import time as _time

        config = server_config(
            serving_config(tiny_config, micro_batch=2), watchdog_s=300.0)
        model = BlockingModel(golden_model)
        server = InferenceServer(model, config, clock=fake_clock)
        server.start()
        try:
            future = server.submit(tiny_dataset.masks[0])
            assert model.entered.wait(RESOLVE_TIMEOUT)
            # 300 real seconds must not pass; fake ones do.  Advance past
            # the stall budget repeatedly — the watchdog samples its stall
            # start from this same clock, so one jump can land before it.
            bound = _time.monotonic() + RESOLVE_TIMEOUT
            while not server.wedged and _time.monotonic() < bound:
                fake_clock.advance(301.0)
                _time.sleep(0.02)
            assert future.wait(RESOLVE_TIMEOUT), "request left unanswered"
            error = future.error()
            assert isinstance(error, OverloadError)
            assert error.reason == SHED_WEDGED
            assert server.wedged
        finally:
            model.release.set()
            server.close()


class TestTelemetry:
    def test_shed_and_queue_full_flow_into_log_and_metrics(
            self, golden_model, tiny_dataset, tiny_config, server_config,
            tmp_path):
        config = server_config(tiny_config, queue_capacity=2)
        registry = MetricsRegistry()
        log_path = tmp_path / "serve.jsonl"
        with RunLogger(log_path) as logger:
            logger.emit("run_start", command="server-drill")
            hook = RunLoggerHook(logger=logger, registry=registry)
            server = InferenceServer(golden_model, config, hook=hook)
            futures = [
                server.submit(mask, tenant="solo")
                for mask in tiny_dataset.masks[:3]
            ]
            server.close(drain=False)
            logger.emit("run_end", status="ok")

        assert all(f.done() for f in futures)
        events = read_run_log(log_path)
        validate_run_log(events)
        kinds = [e["event"] for e in events]
        assert kinds.count("queue_full") == 1   # the third submission
        assert kinds.count("shed") == 3          # 1 overload + 2 shutdown
        assert registry.counter("serve_queue_full_total").value == 1
        assert registry.counter(
            "serve_shed_total", labels={"tenant": "solo"}
        ).value == 3
        assert registry.gauge("serve_queue_depth").value == 0


class TestSoakHarness:
    def test_soak_answers_every_admitted_request(
            self, golden_model, tiny_dataset, tiny_config, serving_config):
        config = serving_config(tiny_config, micro_batch=4)
        server = InferenceServer(golden_model, config)
        report = run_soak(
            server, list(tiny_dataset.masks), duration_s=0.6,
            qps_start=30.0, qps_end=60.0, tenants=("opc", "ilt"),
        )
        assert report.unanswered == 0
        assert report.answered == report.submitted
        assert report.served > 0
        assert report.refused == 0
        assert not report.wedged
        assert set(report.tenants) == {"opc", "ilt"}
        payload = report.to_dict()
        assert payload["answered"] == report.submitted
        assert "fairness_gap" in payload
        # a soak is destructive: it leaves the server closed
        assert server.state == "closed"

    def test_soak_validates_its_load_shape(self, golden_model, tiny_dataset,
                                           tiny_config):
        server = InferenceServer(golden_model, tiny_config)
        with pytest.raises(OverloadError, match="duration"):
            run_soak(server, list(tiny_dataset.masks), duration_s=0.0)
        with pytest.raises(OverloadError, match="QPS"):
            run_soak(server, list(tiny_dataset.masks), duration_s=1.0,
                     qps_start=0.0)
        with pytest.raises(OverloadError, match="mask"):
            run_soak(server, [], duration_s=1.0)
        server.close()

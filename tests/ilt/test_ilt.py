"""Inverse lithography: schedule, objective, verifier, and the descent."""

import dataclasses
import json

import numpy as np
import pytest

from repro.config import IltConfig
from repro.core import LithoGan
from repro.errors import ConfigError, IltError
from repro.ilt import (
    MaskVerifier,
    ProxyObjective,
    Verification,
    ideal_resist_window,
    optimize_clip,
    optimized_layout,
    steepness_at,
    steepness_profile,
)
from repro.layout import generate_clips


@pytest.fixture(scope="module")
def ilt_config(tiny_config):
    """Tiny-scale config with a short, frequently-verified descent."""
    return dataclasses.replace(
        tiny_config,
        ilt=IltConfig(steps=4, verify_every=2),
    )


@pytest.fixture(scope="module")
def trained(ilt_config, tiny_dataset):
    """One trained LithoGAN shared by the descent assertions below."""
    rng = np.random.default_rng(7)
    model = LithoGan(ilt_config, rng)
    model.fit(tiny_dataset, rng)
    return model


@pytest.fixture(scope="module")
def clip(ilt_config):
    return generate_clips(
        ilt_config.tech, np.random.default_rng(3), count=1
    )[0]


class TestSchedule:
    def test_endpoints(self):
        assert steepness_at(0, 10, 4.0, 16.0) == pytest.approx(4.0)
        assert steepness_at(9, 10, 4.0, 16.0) == pytest.approx(16.0)

    def test_geometric_and_monotonic(self):
        profile = steepness_profile(8, 2.0, 32.0)
        assert len(profile) == 8
        ratios = [b / a for a, b in zip(profile, profile[1:])]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)
        assert all(b >= a for a, b in zip(profile, profile[1:]))

    def test_single_step_lands_on_end(self):
        assert steepness_at(0, 1, 4.0, 16.0) == pytest.approx(16.0)

    @pytest.mark.parametrize("args", [
        (0, 0, 4.0, 16.0),     # steps < 1
        (5, 5, 4.0, 16.0),     # step out of range
        (-1, 5, 4.0, 16.0),    # negative step
        (0, 5, 0.0, 16.0),     # non-positive start
        (0, 5, 16.0, 4.0),     # end below start
    ])
    def test_invalid_arguments_fail_closed(self, args):
        with pytest.raises(ConfigError):
            steepness_at(*args)


class TestObjective:
    def test_ideal_window_is_centered_binary(self, ilt_config, clip):
        ideal = ideal_resist_window(ilt_config, clip)
        size = ilt_config.image.resist_image_px
        assert ideal.shape == (size, size)
        assert ideal.dtype == np.float32
        assert 0.0 < float(ideal.sum()) < size * size
        # symmetric target rect in the window center => symmetric raster
        np.testing.assert_allclose(ideal, ideal[::-1, ::-1])

    def test_gradient_shape_and_perfect_prediction(self):
        ideal = np.zeros((4, 4), dtype=np.float32)
        ideal[1:3, 1:3] = 1.0
        objective = ProxyObjective(ideal)
        out = np.broadcast_to(ideal, (1, 3, 4, 4)).astype(np.float32).copy()
        grad = objective(out)
        assert grad.shape == out.shape
        assert objective.loss == pytest.approx(0.0)
        np.testing.assert_allclose(grad, 0.0)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        ideal = rng.random((4, 4)).astype(np.float32)
        out = rng.random((1, 2, 4, 4)).astype(np.float64)
        objective = ProxyObjective(ideal)
        grad = objective(out.astype(np.float32))
        base = objective.loss
        eps = 1e-4
        bumped = out.copy()
        bumped[0, 1, 2, 3] += eps
        objective(bumped.astype(np.float32))
        fd = (objective.loss - base) / eps
        assert grad[0, 1, 2, 3] == pytest.approx(fd, rel=1e-2)


class TestVerification:
    def _verification(self, printed, epe):
        return Verification(step=0, printed=printed, epe_nm=epe,
                            edges_nm=None, mask=np.zeros((3, 2, 2)))

    def test_printed_epe_passes_through(self):
        assert self._verification(True, 3.5).epe_capped(64.0) == 3.5

    def test_epe_clamped_at_cap(self):
        assert self._verification(True, 200.0).epe_capped(64.0) == 64.0

    def test_unprinted_charged_the_cap(self):
        assert self._verification(False, None).epe_capped(64.0) == 64.0


class _NeverPrints:
    """Verifier stub for the fail-closed path: nothing ever prints."""

    def verify(self, mask_rgb, clip, step=-1):
        return Verification(step=step, printed=False, epe_nm=None,
                            edges_nm=None, mask=np.asarray(mask_rgb))


class TestOptimizeClip:
    def test_outcome_invariants(self, ilt_config, trained, clip):
        outcome = optimize_clip(ilt_config, trained, clip)
        assert outcome.best.printed
        assert outcome.best in outcome.verifications
        assert len(outcome.proxy_losses) == ilt_config.ilt.steps
        # step 0 plus one projection after steps 2 and 4
        assert len(outcome.verifications) == 3
        # theta starts at the rule-OPC mask, so a verified result can
        # never be worse than the rule baseline
        assert outcome.epe_ilt_nm <= outcome.epe_rule_opc_nm
        assert outcome.improved_vs_rule_opc

    def test_summary_is_json_ready(self, ilt_config, trained, clip):
        summary = optimize_clip(ilt_config, trained, clip).summary()
        assert summary["steps"] == ilt_config.ilt.steps
        assert summary["epe_ilt_nm"] <= summary["epe_rule_opc_nm"]
        json.dumps(summary)  # must not raise

    def test_descent_is_deterministic(self, ilt_config, trained, clip):
        first = optimize_clip(ilt_config, trained, clip)
        second = optimize_clip(ilt_config, trained, clip)
        assert first.best.step == second.best.step
        assert first.best.epe_nm == second.best.epe_nm
        np.testing.assert_array_equal(first.best.mask, second.best.mask)
        assert first.proxy_losses == second.proxy_losses

    def test_never_printing_verifier_raises(self, ilt_config, trained, clip):
        with pytest.raises(IltError) as excinfo:
            optimize_clip(ilt_config, trained, clip,
                          verifier=_NeverPrints())
        assert excinfo.value.attempts == 3

    def test_optimized_layout_is_sweepable(self, ilt_config, trained, clip):
        outcome = optimize_clip(ilt_config, trained, clip)
        layout = optimized_layout(outcome)
        assert layout.extent_nm == clip.extent_nm
        assert layout.target.width > 0
        assert layout.drawn_target == clip.target

    def test_verifier_counts_every_simulation(self, ilt_config, trained,
                                              clip):
        verifier = MaskVerifier(ilt_config)
        optimize_clip(ilt_config, trained, clip, verifier=verifier)
        # 2 baselines + 3 candidate projections
        assert verifier.verifications == 5


class TestOptimizeMaskFacade:
    def test_result_summary_and_telemetry(self, ilt_config, trained, clip,
                                          tmp_path):
        from repro import api
        from repro.telemetry import MetricsRegistry, RunLoggerHook, Tracer
        from repro.telemetry.events import (
            RunLogger,
            read_run_log,
            validate_run_log,
        )

        metrics = MetricsRegistry()
        tracer = Tracer()
        log_path = tmp_path / "run.jsonl"
        with RunLogger(log_path) as logger:
            logger.emit("run_start", command="optimize", build={})
            result = api.optimize_mask(
                ilt_config, trained, clips=[clip], tracer=tracer,
                hook=RunLoggerHook(logger=logger, registry=metrics),
            )
            logger.emit("run_end", status="ok", seconds=0.0)

        assert result.clips == 1
        assert result.epe_ilt_nm <= result.epe_rule_opc_nm
        summary = result.summary()
        assert summary["type"] == "optimize"
        assert len(summary["per_clip"]) == 1
        parsed = json.loads(result.to_json())
        assert parsed == json.loads(
            json.dumps(summary, sort_keys=True)
        )

        events = read_run_log(log_path)
        validate_run_log(events)
        kinds = [record["event"] for record in events]
        assert kinds.count("ilt_start") == 1
        assert kinds.count("ilt_step") == ilt_config.ilt.steps
        assert kinds.count("ilt_end") == 1
        snapshot = metrics.snapshot()
        assert "ilt_steps_total" in snapshot
        assert "ilt_verifications_total" in snapshot
        assert metrics.counter(
            "ilt_verifications_total").value == result.verifications
        assert tracer.count("ilt_clip") == 1
        assert tracer.count("ilt_step") == ilt_config.ilt.steps

    def test_clip_summary_ignores_its_call_group(self, ilt_config, trained,
                                                 clip):
        """A clip optimized alone or beside others gives the same summary.

        perfbench's ``ilt`` warm-up optimizes its clip 0 alone and the
        measured window optimizes it beside two more, then requires every
        summary of a clip to be identical; a profiler must not change that.
        """
        from repro import api
        from repro.telemetry import LayerProfiler

        others = generate_clips(
            ilt_config.tech, np.random.default_rng(5), count=2)
        summaries = set()
        for profiler in (None, LayerProfiler()):
            for group in ([clip], [clip, *others]):
                result = api.optimize_mask(ilt_config, trained, clips=group,
                                           profiler=profiler)
                summaries.add(json.dumps(result.outcomes[0].summary(),
                                         sort_keys=True))
        assert len(summaries) == 1

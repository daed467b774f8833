"""Rigorous-simulation pipeline: golden-data minting and model-based OPC."""

import numpy as np
import pytest

from repro.config import N10, reduced, tiny
from repro.layout import ArrayType, generate_clip
from repro.sim import LithographySimulator
from repro.telemetry import Tracer


@pytest.fixture(scope="module")
def config():
    return reduced(N10, num_clips=4)


@pytest.fixture(scope="module")
def simulator(config):
    return LithographySimulator(config)


@pytest.fixture(scope="module")
def clip(config):
    return generate_clip(config.tech, np.random.default_rng(21))


class TestSimulateClip:
    def test_produces_golden_window(self, simulator, clip, config):
        result = simulator.simulate_clip(clip)
        px = config.image.resist_image_px
        assert result.golden_window.shape == (px, px)
        assert result.golden_window.sum() > 0
        assert set(np.unique(result.golden_window)) <= {0.0, 1.0}

    def test_aerial_has_contrast(self, simulator, clip):
        result = simulator.simulate_clip(clip)
        assert result.aerial.max() > 3 * result.aerial.mean()

    def test_timing_recorded(self, config, clip):
        simulator = LithographySimulator(config)
        simulator.simulate_clip(clip)
        for stage in ("rasterize", "optical", "resist", "contour"):
            assert simulator.tracer.count(stage) >= 1
            assert simulator.tracer.total(stage) > 0

    def test_stages_land_on_a_shared_tracer(self, config, clip):
        tracer = Tracer()
        for _ in range(2):
            LithographySimulator(config, tracer=tracer).simulate_clip(clip)
        assert tracer.count("contour") == 2

    def test_rigorous_mode_matches_compact_shape(self, config, clip):
        compact = LithographySimulator(config).simulate_clip(clip)
        rigorous = LithographySimulator(
            config, rigorous=True, source_samples=21
        ).simulate_clip(clip)
        # Same physics, different source quadrature: windows nearly agree.
        overlap = (compact.golden_window * rigorous.golden_window).sum()
        union = np.clip(
            compact.golden_window + rigorous.golden_window, 0, 1
        ).sum()
        assert overlap / union > 0.8

    def test_rigorous_mode_slower(self, config, clip):
        compact = LithographySimulator(config)
        rigorous = LithographySimulator(config, rigorous=True, source_samples=31)
        compact.simulate_clip(clip)
        compact.simulate_clip(clip)  # second run: imager is cached
        rigorous.simulate_clip(clip)
        assert rigorous.tracer.total("optical") > compact.tracer.mean("optical")

    def test_different_array_types_print_differently(self, simulator, config):
        rng = np.random.default_rng(5)
        windows = {}
        for array_type in ArrayType:
            clip = generate_clip(config.tech, rng, array_type=array_type)
            windows[array_type] = simulator.simulate_clip(clip).golden_window
        areas = {t: w.sum() for t, w in windows.items()}
        assert len(set(areas.values())) > 1  # neighborhood changes the print


class TestModelBasedOpc:
    def test_refinement_improves_cd(self, config):
        """Model-based OPC drives the printed CD toward the drawn 60 nm."""
        rng = np.random.default_rng(3)
        clip = generate_clip(config.tech, rng, array_type=ArrayType.ISOLATED)
        simulator = LithographySimulator(config)

        rule_based = simulator.simulate_clip(clip, model_based_opc=False)
        refined = simulator.simulate_clip(clip, model_based_opc=True)

        center = simulator.clip_center
        drawn = clip.target

        def cd_error(result):
            bbox = result.pattern.target_bbox_nm(center)
            return abs(bbox.width - drawn.width) + abs(bbox.height - drawn.height)

        assert cd_error(refined) <= cd_error(rule_based) + 1e-9


class TestRigorousFidelityKnobs:
    def test_rigorous_grid_size_applied(self, config):
        simulator = LithographySimulator(
            config, rigorous=True, rigorous_grid_size=128
        )
        assert simulator.grid.size == 128

    def test_grid_size_ignored_in_compact_mode(self, config):
        simulator = LithographySimulator(
            config, rigorous=False, rigorous_grid_size=128
        )
        assert simulator.grid.size == config.optical.grid_size

    def test_focus_stack_lowers_peak_intensity(self, config, clip):
        """Averaging defocused planes blurs the image: peak must drop."""
        from repro.layout import build_mask_layout

        layout = build_mask_layout(clip)
        single = LithographySimulator(
            config, rigorous=True, source_samples=21
        ).aerial_image(layout)
        stacked = LithographySimulator(
            config, rigorous=True, source_samples=21,
            focus_planes_nm=(-60.0, 0.0, 60.0),
        ).aerial_image(layout)
        assert stacked.max() < single.max()

    def test_focus_stack_still_prints(self, config, clip):
        simulator = LithographySimulator(
            config, rigorous=True, source_samples=21,
            focus_planes_nm=(-40.0, 0.0, 40.0),
        )
        result = simulator.simulate_clip(clip)
        assert result.golden_window.sum() > 0

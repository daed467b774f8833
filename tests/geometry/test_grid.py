"""Rasterization grid: coordinate transforms and area-weighted coverage."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry import Grid, Point, Rect
from repro.geometry.grid import resample_image


class TestCoordinateTransforms:
    def test_roundtrip_center(self):
        grid = Grid(size=64, extent_nm=1000.0)
        p = Point(500.0, 500.0)
        row, col = grid.to_pixel(p)
        back = grid.to_layout(row, col)
        assert back.x == pytest.approx(p.x)
        assert back.y == pytest.approx(p.y)

    def test_y_axis_flips(self):
        """Layout y grows upward, image rows grow downward."""
        grid = Grid(size=10, extent_nm=100.0)
        low_row, _ = grid.to_pixel(Point(50, 95))
        high_row, _ = grid.to_pixel(Point(50, 5))
        assert low_row < high_row

    @given(
        row=st.floats(0, 63, allow_nan=False),
        col=st.floats(0, 63, allow_nan=False),
    )
    def test_roundtrip_property(self, row, col):
        grid = Grid(size=64, extent_nm=512.0)
        p = grid.to_layout(row, col)
        r2, c2 = grid.to_pixel(p)
        assert r2 == pytest.approx(row, abs=1e-9)
        assert c2 == pytest.approx(col, abs=1e-9)


class TestRasterization:
    def test_full_cover_rect(self):
        grid = Grid(size=8, extent_nm=80.0)
        image = grid.rasterize_rect(Rect(0, 0, 80, 80))
        assert np.allclose(image, 1.0)

    def test_area_conservation(self):
        """Total coverage equals the rectangle area in pixel units."""
        grid = Grid(size=32, extent_nm=320.0)
        rect = Rect(33.7, 51.2, 97.3, 150.9)
        image = grid.rasterize_rect(rect)
        expected_px = rect.area / grid.nm_per_px**2
        assert image.sum() == pytest.approx(expected_px, rel=1e-9)

    def test_partial_pixel_weights(self):
        grid = Grid(size=4, extent_nm=4.0)
        image = grid.rasterize_rect(Rect(0.5, 0.0, 1.0, 4.0))
        # Column 0 is half covered.
        assert np.allclose(image[:, 0], 0.5)
        assert np.allclose(image[:, 1:], 0.0)

    def test_multiple_rects_take_maximum(self):
        grid = Grid(size=8, extent_nm=8.0)
        image = grid.rasterize_rects([Rect(0, 0, 4, 8), Rect(2, 0, 6, 8)])
        assert image.max() <= 1.0
        assert image[:, :6].min() > 0

    def test_binary_mode(self):
        grid = Grid(size=8, extent_nm=8.0)
        image = grid.rasterize_rects([Rect(0.0, 0.0, 4.5, 8.0)], binary=True)
        assert set(np.unique(image)) <= {0.0, 1.0}

    def test_out_shape_mismatch_rejected(self):
        grid = Grid(size=8, extent_nm=8.0)
        with pytest.raises(GeometryError):
            grid.rasterize_rect(Rect(0, 0, 1, 1), out=np.zeros((4, 4)))


class TestResample:
    def test_upscale_repeats(self):
        image = np.array([[1.0, 2.0], [3.0, 4.0]])
        up = resample_image(image, 4)
        assert up.shape == (4, 4)
        assert np.allclose(up[:2, :2], 1.0)

    def test_downscale_averages(self):
        image = np.arange(16, dtype=float).reshape(4, 4)
        down = resample_image(image, 2)
        assert down[0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))

    def test_identity(self):
        image = np.random.default_rng(0).normal(size=(8, 8))
        assert np.array_equal(resample_image(image, 8), image)

    def test_up_down_roundtrip(self):
        image = np.random.default_rng(1).uniform(size=(8, 8))
        assert np.allclose(resample_image(resample_image(image, 32), 8), image)

    def test_non_integral_factor_rejected(self):
        with pytest.raises(GeometryError):
            resample_image(np.zeros((8, 8)), 12)

"""Rasterization between nanometer layout space and pixel grids.

A :class:`Grid` describes a square pixel raster covering a square region of
layout space.  Layout y grows upward while image row indices grow downward;
the grid takes care of the flip so that callers never hand-roll it.

Rasterization is *area-weighted*: a rectangle partially covering a pixel
contributes fractionally, which keeps aerial-image simulation smooth and lets
mask images be anti-aliased before binarization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError
from .shapes import Point, Rect


@dataclass(frozen=True)
class Grid:
    """A ``size x size`` pixel raster over ``[0, extent_nm]^2`` layout space."""

    size: int
    extent_nm: float

    def __post_init__(self) -> None:
        if self.size < 1:
            raise GeometryError(f"grid size must be >= 1, got {self.size}")
        if self.extent_nm <= 0:
            raise GeometryError(f"extent must be positive, got {self.extent_nm}")

    @property
    def nm_per_px(self) -> float:
        return self.extent_nm / self.size

    # -- coordinate transforms ---------------------------------------------

    def to_pixel(self, p: Point) -> tuple:
        """Map a layout point to fractional ``(row, col)`` pixel coordinates."""
        col = p.x / self.nm_per_px - 0.5
        row = (self.extent_nm - p.y) / self.nm_per_px - 0.5
        return (row, col)

    def to_layout(self, row: float, col: float) -> Point:
        """Map fractional pixel coordinates back to a layout point (pixel centers)."""
        x = (col + 0.5) * self.nm_per_px
        y = self.extent_nm - (row + 0.5) * self.nm_per_px
        return Point(x, y)

    # -- rasterization -------------------------------------------------------

    def rasterize_rect(self, rect: Rect, out: np.ndarray = None) -> np.ndarray:
        """Area-weighted rasterization of one rectangle.

        Returns a float array with per-pixel coverage in ``[0, 1]``.  Pixels
        fully inside the rectangle get 1, boundary pixels get their covered
        fraction.  ``out`` accumulates with ``maximum`` when given.
        """
        if out is None:
            out = np.zeros((self.size, self.size), dtype=np.float64)
        elif out.shape != (self.size, self.size):
            raise GeometryError(
                f"out has shape {out.shape}, expected {(self.size, self.size)}"
            )

        px = self.nm_per_px
        # Column coverage: overlap of [xlo, xhi] with each pixel column.
        edges = np.arange(self.size + 1) * px
        col_cover = np.clip(
            np.minimum(rect.xhi, edges[1:]) - np.maximum(rect.xlo, edges[:-1]),
            0.0,
            px,
        ) / px
        # Row coverage: rows run top-down, so row r spans layout y in
        # [extent - (r+1)*px, extent - r*px].
        row_hi = self.extent_nm - edges[:-1]
        row_lo = self.extent_nm - edges[1:]
        row_cover = np.clip(
            np.minimum(rect.yhi, row_hi) - np.maximum(rect.ylo, row_lo),
            0.0,
            px,
        ) / px
        coverage = np.outer(row_cover, col_cover)
        np.maximum(out, coverage, out=out)
        return out

    def rasterize_rects(self, rects, binary: bool = False,
                        threshold: float = 0.5) -> np.ndarray:
        """Rasterize a collection of rectangles into one coverage image."""
        out = np.zeros((self.size, self.size), dtype=np.float64)
        for rect in rects:
            self.rasterize_rect(rect, out=out)
        if binary:
            return (out >= threshold).astype(np.float64)
        return out


def resample_image(image: np.ndarray, new_size: int) -> np.ndarray:
    """Resample a square image to ``new_size`` via area-average / repetition.

    Downscaling averages blocks; upscaling repeats pixels (exact for the
    integer scale factors used by the Section 3.1 encoding, where a 128 nm
    window at 1 nm/px is scaled to 256 px at 0.5 nm/px).
    """
    size = image.shape[0]
    if image.shape != (size, size):
        raise GeometryError(f"expected a square image, got {image.shape}")
    if new_size == size:
        return image.copy()
    if new_size > size:
        if new_size % size:
            raise GeometryError(
                f"upscale factor must be integral: {size} -> {new_size}"
            )
        factor = new_size // size
        return np.repeat(np.repeat(image, factor, axis=0), factor, axis=1)
    if size % new_size:
        raise GeometryError(
            f"downscale factor must be integral: {size} -> {new_size}"
        )
    factor = size // new_size
    return image.reshape(new_size, factor, new_size, factor).mean(axis=(1, 3))

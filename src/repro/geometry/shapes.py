"""Axis-aligned geometric primitives in nanometer coordinates.

The layout synthesizer works exclusively with axis-aligned rectangles (contact
holes, OPC-biased contacts, and SRAF bars are all rectangles), so the
primitives here are deliberately minimal: an immutable :class:`Point` and an
immutable :class:`Rect` with the handful of predicates the design rules need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import GeometryError


@dataclass(frozen=True, order=True)
class Point:
    """A point in nm, ``x`` growing rightward and ``y`` growing upward."""

    x: float
    y: float

    def translated(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def distance_to(self, other: "Point") -> float:
        return ((self.x - other.x) ** 2 + (self.y - other.y) ** 2) ** 0.5


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle given by its lower-left and upper-right corners."""

    xlo: float
    ylo: float
    xhi: float
    yhi: float

    def __post_init__(self) -> None:
        if self.xhi <= self.xlo or self.yhi <= self.ylo:
            raise GeometryError(
                f"degenerate rectangle: ({self.xlo}, {self.ylo}) .. "
                f"({self.xhi}, {self.yhi})"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_center(cls, cx: float, cy: float, width: float,
                    height: float) -> "Rect":
        if width <= 0 or height <= 0:
            raise GeometryError(
                f"width/height must be positive, got {width} x {height}"
            )
        return cls(cx - width / 2, cy - height / 2, cx + width / 2, cy + height / 2)

    # -- basic measures -----------------------------------------------------

    @property
    def width(self) -> float:
        return self.xhi - self.xlo

    @property
    def height(self) -> float:
        return self.yhi - self.ylo

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.xlo + self.xhi) / 2, (self.ylo + self.yhi) / 2)

    def corners(self) -> Iterator[Point]:
        yield Point(self.xlo, self.ylo)
        yield Point(self.xhi, self.ylo)
        yield Point(self.xhi, self.yhi)
        yield Point(self.xlo, self.yhi)

    # -- transforms ---------------------------------------------------------

    def translated(self, dx: float, dy: float) -> "Rect":
        return Rect(self.xlo + dx, self.ylo + dy, self.xhi + dx, self.yhi + dy)

    def inflated(self, margin: float) -> "Rect":
        """Grow (or, for negative margin, shrink) every side by ``margin``."""
        rect = Rect.__new__(Rect)
        xlo, ylo = self.xlo - margin, self.ylo - margin
        xhi, yhi = self.xhi + margin, self.yhi + margin
        if xhi <= xlo or yhi <= ylo:
            raise GeometryError(
                f"inflating by {margin} collapses rectangle {self}"
            )
        object.__setattr__(rect, "xlo", xlo)
        object.__setattr__(rect, "ylo", ylo)
        object.__setattr__(rect, "xhi", xhi)
        object.__setattr__(rect, "yhi", yhi)
        return rect

    def biased(self, left: float = 0.0, right: float = 0.0,
               bottom: float = 0.0, top: float = 0.0) -> "Rect":
        """Move each edge outward by the given per-edge bias (OPC primitive)."""
        return Rect(
            self.xlo - left, self.ylo - bottom, self.xhi + right, self.yhi + top
        )

    # -- predicates ---------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        return self.xlo <= p.x <= self.xhi and self.ylo <= p.y <= self.yhi

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.xlo <= other.xlo
            and self.ylo <= other.ylo
            and self.xhi >= other.xhi
            and self.yhi >= other.yhi
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.xlo >= self.xhi
            or other.xhi <= self.xlo
            or other.ylo >= self.yhi
            or other.yhi <= self.ylo
        )

    def intersection(self, other: "Rect") -> "Rect":
        if not self.intersects(other):
            raise GeometryError(f"{self} and {other} do not intersect")
        return Rect(
            max(self.xlo, other.xlo),
            max(self.ylo, other.ylo),
            min(self.xhi, other.xhi),
            min(self.yhi, other.yhi),
        )

    def spacing_to(self, other: "Rect") -> float:
        """Euclidean edge-to-edge spacing; 0 when the rectangles overlap."""
        dx = max(0.0, max(other.xlo - self.xhi, self.xlo - other.xhi))
        dy = max(0.0, max(other.ylo - self.yhi, self.ylo - other.yhi))
        return (dx * dx + dy * dy) ** 0.5

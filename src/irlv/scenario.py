"""Map geometry: scenarios, regions of interest, LOS classification, sampling.

Two scenario layouts are supported:

* :class:`StreetScenario` -- a square map with four square buildings at the
  corners separated by a cross of two streets.  Base stations sit in the
  streets; the region of interest (ROI) is a rectangle inside the lower-left
  building.
* :class:`CircularScenario` -- a disc with a single base station at the
  center and a rectangular ROI inside the disc.  Every position is
  line-of-sight.  This is the layout with a closed-form likelihood-ratio
  test (see :mod:`irlv.neyman_pearson`).

Labels follow the inside/outside convention: label 0 means the position is
in the ROI, label 1 means it is in the complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

REGION_INSIDE = "inside"
REGION_OUTSIDE = "outside"
_REGIONS = (REGION_INSIDE, REGION_OUTSIDE)

SCENARIO_STREET = "street"
SCENARIO_CIRCULAR = "circular"


@dataclass(frozen=True)
class ScenarioConfig:
    """The [scenario] keys; the geometry values are the two layouts' defaults."""

    kind: str = SCENARIO_STREET
    map_side: float = 525.0
    building_side: float = 255.0
    street_width: float = 15.0
    r_out: float = 40.0
    roi_width: float = 25.0
    roi_height: float = 25.0
    r_min: float = 4.0


class Position(NamedTuple):
    """2-D point on the map plane, in meters."""

    x: float
    y: float


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle with strictly positive extent (closed set)."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(f"degenerate rectangle: {self}")
        for v in (self.xmin, self.ymin, self.xmax, self.ymax):
            if not math.isfinite(v):
                raise ValueError(f"non-finite rectangle corner: {self}")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x, y):
        """Closed-set membership; x and y may be scalars or arrays."""
        return (
            (np.asarray(x) >= self.xmin)
            & (np.asarray(x) <= self.xmax)
            & (np.asarray(y) >= self.ymin)
            & (np.asarray(y) <= self.ymax)
        )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Uniform points inside the rectangle, shape (size, 2)."""
        xy = rng.uniform(size=(size, 2))
        xy[:, 0] = self.xmin + xy[:, 0] * self.width
        xy[:, 1] = self.ymin + xy[:, 1] * self.height
        return xy


def _check_positive(**lengths) -> None:
    """Reject a length that is not above 0, by its [scenario] key."""
    for key, value in lengths.items():
        if value <= 0:
            raise ValueError(f"{key}: must be positive")


def _rejection_sample(bbox, accept, rng, size):
    """Uniform samples over an acceptance region inside a bounding box.

    accept(x, y) must return a boolean mask; the acceptance probability has
    to be bounded away from zero for termination.
    """
    xmin, ymin, xmax, ymax = bbox
    out = np.empty((size, 2))
    filled = 0
    while filled < size:
        n = max(2 * (size - filled), 64)
        x = rng.uniform(xmin, xmax, n)
        y = rng.uniform(ymin, ymax, n)
        ok = accept(x, y)
        k = min(int(ok.sum()), size - filled)
        out[filled : filled + k, 0] = x[ok][:k]
        out[filled : filled + k, 1] = y[ok][:k]
        filled += k
    return out


# shared by both scenario classes, which supply contains(), roi and bounds
def _sample_region(scenario, region: str, rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform (size, 2) positions over ``"inside"`` (the ROI) or ``"outside"``."""
    if region not in _REGIONS:
        raise ValueError(f"unknown region {region!r}; expected one of {_REGIONS}")
    if region == REGION_INSIDE:
        return scenario.roi.sample(rng, size)
    return _rejection_sample(
        scenario.bounds,
        lambda x, y: scenario.contains(x, y) & ~scenario.roi.contains(x, y),
        rng,
        size,
    )


@dataclass(frozen=True)
class StreetScenario:
    """Square map with four corner buildings and a cross of two streets.

    The horizontal and vertical street rectangles overlap in a central
    square; base stations placed there see both streets.  Only positions in
    a street that also contains the serving base station are line-of-sight.
    """

    map_side: float
    building_side: float
    street_width: float
    roi: Rectangle
    bs_positions: tuple[Position, ...]

    def __post_init__(self):
        _check_positive(building_side=self.building_side, street_width=self.street_width)
        if not math.isclose(
            2.0 * self.building_side + self.street_width, self.map_side, rel_tol=1e-9
        ):
            raise ValueError(
                "inconsistent geometry: 2*building_side + street_width must equal map_side"
            )
        b = self.building_side
        if not (0.0 <= self.roi.xmin and self.roi.xmax <= b and 0.0 <= self.roi.ymin and self.roi.ymax <= b):
            raise ValueError("roi must lie inside the lower-left building")
        if len(self.bs_positions) == 0:
            raise ValueError("at least one base station required")
        object.__setattr__(
            self, "bs_positions", tuple(Position(float(p[0]), float(p[1])) for p in self.bs_positions)
        )
        for p in self.bs_positions:
            if not self.contains(p[0], p[1]):
                raise ValueError(f"base station outside the map: {p}")

    @classmethod
    def default(cls, map_side=ScenarioConfig.map_side, building_side=ScenarioConfig.building_side,
                street_width=ScenarioConfig.street_width) -> "StreetScenario":
        """Scenario with ScenarioConfig's standard urban layout and five base
        stations (one per street arm plus map center).

        The ROI is the quadrant of the lower-left building closest to the
        map center.
        """
        _check_positive(building_side=building_side)  # before the ROI below refuses it unnamed
        b, w = building_side, street_width
        mid = b + 0.5 * w  # street center line
        bs_positions = (
            Position(0.5 * b, mid),            # west arm, horizontal street
            Position(b + w + 0.5 * b, mid),    # east arm
            Position(mid, 0.5 * b),            # south arm, vertical street
            Position(mid, b + w + 0.5 * b),    # north arm
            Position(mid, mid),                # street intersection
        )
        return cls(map_side, building_side, street_width, Rectangle(0.5 * b, 0.5 * b, b, b),
                   bs_positions)

    @property
    def n_bs(self) -> int:
        return len(self.bs_positions)

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (0.0, 0.0, self.map_side, self.map_side)

    @property
    def streets(self) -> tuple[Rectangle, Rectangle]:
        """The horizontal and the vertical street."""
        b, w = self.building_side, self.street_width
        return (Rectangle(0.0, b, self.map_side, b + w), Rectangle(b, 0.0, b + w, self.map_side))

    def contains(self, x, y):
        return Rectangle(0.0, 0.0, self.map_side, self.map_side).contains(x, y)

    sample_region = _sample_region

    def los_mask(self, xy: np.ndarray, bs) -> np.ndarray:
        """LOS indicator for (n, 2) positions towards a base station at bs = (x, y).

        A position is LOS iff it lies in a street rectangle that also
        contains the base station; the center base station belongs to both
        streets and is LOS to the whole cross.  A base station outside every
        street (e.g. a candidate placement inside a building) is NLOS to
        every position.
        """
        xy = np.asarray(xy, dtype=float)
        mask = np.zeros(xy.shape[0], dtype=bool)
        for street in self.streets:
            if street.contains(bs[0], bs[1]):
                mask |= street.contains(xy[:, 0], xy[:, 1])
        return mask


@dataclass(frozen=True)
class CircularScenario:
    """Disc-shaped map with one base station at the origin; LOS everywhere."""

    r_out: float
    roi: Rectangle

    def __post_init__(self):
        _check_positive(r_out=self.r_out)
        if self.r_max > self.r_out:
            raise ValueError("roi must lie entirely inside the outer circle")

    @classmethod
    def default(cls, r_out=ScenarioConfig.r_out, roi_width=ScenarioConfig.roi_width,
                roi_height=ScenarioConfig.roi_height, r_min=ScenarioConfig.r_min
                ) -> "CircularScenario":
        """ROI anchored with its near edge centered on the +x axis, so the
        nearest ROI point to the base station is (r_min, 0)."""
        _check_positive(roi_width=roi_width, roi_height=roi_height)
        roi = Rectangle(r_min, -0.5 * roi_height, r_min + roi_width, 0.5 * roi_height)
        return cls(r_out, roi)

    @property
    def bs_positions(self) -> tuple[Position, ...]:
        return (Position(0.0, 0.0),)

    @property
    def n_bs(self) -> int:
        return 1

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (-self.r_out, -self.r_out, self.r_out, self.r_out)

    @property
    def r_min(self) -> float:
        """Distance from the base station to the nearest ROI point."""
        dx = max(self.roi.xmin, 0.0, -self.roi.xmax)
        dy = max(self.roi.ymin, 0.0, -self.roi.ymax)
        return math.hypot(dx, dy)

    @property
    def r_max(self) -> float:
        """Distance from the base station to the farthest ROI corner."""
        dx = max(abs(self.roi.xmin), abs(self.roi.xmax))
        dy = max(abs(self.roi.ymin), abs(self.roi.ymax))
        return math.hypot(dx, dy)

    def contains(self, x, y):
        return np.asarray(x) ** 2 + np.asarray(y) ** 2 <= self.r_out**2

    sample_region = _sample_region

    def los_mask(self, xy: np.ndarray, bs) -> np.ndarray:
        return np.ones(np.asarray(xy).shape[0], dtype=bool)

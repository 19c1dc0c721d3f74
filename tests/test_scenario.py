"""Geometry tests: region membership, LOS rules, and region samplers."""

import math

import numpy as np
import pytest

from irlv.scenario import (
    REGION_INSIDE,
    REGION_OUTSIDE,
    CircularScenario,
    Position,
    Rectangle,
    StreetScenario,
)


# the dataset's label convention: 0 inside the (closed) ROI, 1 outside
def _label(scenario, xy) -> np.ndarray:
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    return np.where(scenario.roi.contains(xy[:, 0], xy[:, 1]), 0, 1)


def _on_street(scenario, x, y):
    horizontal, vertical = scenario.streets
    return horizontal.contains(x, y) | vertical.contains(x, y)


def _map_draws(scenario, rng, size):
    """Uniform draws over the scenario's bounds, kept where it contains them."""
    xmin, ymin, xmax, ymax = scenario.bounds
    xy = rng.uniform((xmin, ymin), (xmax, ymax), size=(size, 2))
    return xy[scenario.contains(xy[:, 0], xy[:, 1])]


# one-row queries through the batch API
def _is_los(scenario, pos, bs) -> bool:
    return bool(scenario.los_mask(np.array([pos], dtype=float), bs)[0])


class TestRectangle:
    def test_validation(self):
        with pytest.raises(ValueError):
            Rectangle(0, 0, 0, 1)
        with pytest.raises(ValueError):
            Rectangle(0, 5, 1, 5)
        with pytest.raises(ValueError):
            Rectangle(0, 0, math.inf, 1)

    def test_contains_is_closed(self):
        r = Rectangle(1, 2, 3, 4)
        assert r.contains(1, 2) and r.contains(3, 4) and r.contains(2, 3)
        assert not r.contains(0.999, 3)
        assert not r.contains(2, 4.001)

    def test_area(self):
        r = Rectangle(127.5, 127.5, 255.0, 255.0)
        np.testing.assert_allclose(r.area, 127.5**2)


class TestStreetScenarioGeometry:
    def test_default_dimensions(self):
        s = StreetScenario.default()
        assert s.map_side == 525.0
        assert s.building_side == 255.0
        assert s.street_width == 15.0
        assert s.n_bs == 5

    def test_side_constraint_enforced(self):
        with pytest.raises(ValueError):
            StreetScenario(
                map_side=500.0,
                building_side=255.0,
                street_width=15.0,
                roi=Rectangle(127.5, 127.5, 255.0, 255.0),
                bs_positions=(Position(250.0, 262.5),),
            )

    def test_zero_street_width_named_by_key(self):
        """A zero-width street fits 2*building_side + street_width = map_side
        but leaves no street to be LOS in."""
        with pytest.raises(ValueError, match="^street_width: must be positive$"):
            StreetScenario(
                map_side=525.0,
                building_side=262.5,
                street_width=0.0,
                roi=Rectangle(131.25, 131.25, 262.5, 262.5),
                bs_positions=(Position(100.0, 262.5),),
            )

    def test_street_union_area(self):
        """Two crossing streets minus the double-counted intersection.

        area = 2*s*w - w^2 = 525^2 - 4*255^2 = 15525 m^2, checked by a
        fine grid count as an independent route.
        """
        s = StreetScenario.default()
        exact = 2 * s.map_side * s.street_width - s.street_width**2
        assert exact == 525.0**2 - 4 * 255.0**2 == 15525.0
        xs = np.linspace(0.25, s.map_side - 0.25, 1050)
        gx, gy = np.meshgrid(xs, xs)
        frac = _on_street(s, gx.ravel(), gy.ravel()).mean()
        np.testing.assert_allclose(frac * s.map_side**2, exact, rtol=5e-3)

    def test_default_bs_positions_sit_in_streets(self):
        s = StreetScenario.default()
        for n, bs in enumerate(s.bs_positions):
            assert _on_street(s, bs.x, bs.y), f"base station {n} off street"

    def test_roi_is_the_lower_left_building(self):
        s = StreetScenario.default()
        assert s.roi == Rectangle(127.5, 127.5, 255.0, 255.0)
        assert not _on_street(s, 191.25, 191.25)
        assert s.contains(191.25, 191.25)

    def test_in_roi_labels(self):
        s = StreetScenario.default()
        labels = _label(s, [(191.25, 191.25), (127.5, 127.5), (400.0, 400.0), (262.5, 262.5)])
        assert labels.tolist() == [0, 0, 1, 1]
        assert not s.contains(-1.0, 10.0)
        assert not s.contains(10.0, 526.0)


class TestStreetLos:
    """A link is LOS iff the point shares a street with the base station."""

    def test_horizontal_street_bs(self):
        s = StreetScenario.default()
        # BS 0 is at (127.5, 262.5), on the horizontal street only.
        assert _is_los(s, Position(500.0, 262.5), s.bs_positions[0])
        assert not _is_los(s, Position(262.5, 500.0), s.bs_positions[0])

    def test_vertical_street_bs(self):
        s = StreetScenario.default()
        # BS 2 is at (262.5, 127.5), on the vertical street only.
        assert _is_los(s, Position(262.5, 10.0), s.bs_positions[2])
        assert not _is_los(s, Position(10.0, 262.5), s.bs_positions[2])

    def test_central_bs_sees_both_streets(self):
        s = StreetScenario.default()
        # BS 4 at the crossing belongs to both streets.
        assert _is_los(s, Position(10.0, 262.5), s.bs_positions[4])
        assert _is_los(s, Position(262.5, 10.0), s.bs_positions[4])

    def test_off_street_point_is_never_los(self):
        s = StreetScenario.default()
        for bs in s.bs_positions:
            assert not _is_los(s, Position(191.25, 191.25), bs)

    def test_off_street_bs_is_never_los(self):
        s = StreetScenario.default()
        assert not _is_los(s, Position(262.5, 262.5), (50.0, 50.0))

    def test_los_mask_matches_scalar_route(self):
        """A batch query answers each point as a one-row query does."""
        s = StreetScenario.default()
        rng = np.random.default_rng(7)
        xy = _map_draws(s, rng, 300)
        for bs in s.bs_positions:
            mask = s.los_mask(xy, bs)
            scalar = np.array([_is_los(s, Position(x, y), bs) for x, y in xy])
            np.testing.assert_array_equal(mask, scalar)


class TestStreetSampling:
    def test_inside_sampler_centroid(self):
        """Uniform draws over the ROI average to its centroid."""
        s = StreetScenario.default()
        rng = np.random.default_rng(42)
        xy = s.sample_region(REGION_INSIDE, rng, 20000)
        np.testing.assert_allclose(xy.mean(axis=0), (191.25, 191.25), rtol=0.01)

    def test_label_purity(self):
        s = StreetScenario.default()
        rng = np.random.default_rng(42)
        inside = s.sample_region(REGION_INSIDE, rng, 2000)
        outside = s.sample_region(REGION_OUTSIDE, rng, 2000)
        assert np.all(_label(s, inside) == 0)
        assert np.all(_label(s, outside) == 1)
        assert np.all(s.contains(outside[:, 0], outside[:, 1]))

    def test_single_draw_is_a_position(self):
        s = StreetScenario.default()
        rng = np.random.default_rng(0)
        xy = s.sample_region(REGION_INSIDE, rng, 1)
        assert xy.shape == (1, 2)
        assert _label(s, xy[0]) == 0

    def test_map_sampler_covers_streets_and_buildings(self):
        s = StreetScenario.default()
        rng = np.random.default_rng(3)
        xy = _map_draws(s, rng, 5000)
        on_street = _on_street(s, xy[:, 0], xy[:, 1])
        assert 0 < on_street.sum() < len(xy)

    def test_unknown_region_rejected(self):
        s = StreetScenario.default()
        with pytest.raises(ValueError):
            s.sample_region("elsewhere", np.random.default_rng(0), 4)

    def test_reproducible(self):
        s = StreetScenario.default()
        a = s.sample_region(REGION_OUTSIDE, np.random.default_rng(11), 50)
        b = s.sample_region(REGION_OUTSIDE, np.random.default_rng(11), 50)
        np.testing.assert_array_equal(a, b)


class TestCircularScenario:
    def test_default_geometry(self):
        c = CircularScenario.default()
        assert c.r_out == 40.0
        assert c.n_bs == 1
        assert c.bs_positions[0] == Position(0.0, 0.0)
        np.testing.assert_allclose(c.r_min, 4.0)
        np.testing.assert_allclose(c.r_max, math.hypot(29.0, 12.5))
        assert c.r_max < c.r_out

    def test_region_areas(self):
        """|inside| = 625 and |outside| = pi*1600 - 625."""
        c = CircularScenario.default()
        np.testing.assert_allclose(c.roi.area, 625.0)
        np.testing.assert_allclose(
            math.pi * c.r_out**2 - c.roi.area, 4401.548245743669, rtol=1e-12
        )

    def test_roi_must_fit_in_disc(self):
        with pytest.raises(ValueError):
            CircularScenario(r_out=20.0, roi=Rectangle(4.0, -12.5, 29.0, 12.5))

    def test_in_roi_and_bounds(self):
        c = CircularScenario.default()
        assert _label(c, [(10.0, 0.0), (-10.0, 0.0), (0.0, 40.0)]).tolist() == [0, 1, 1]
        assert c.contains(0.0, 40.0)
        assert not c.contains(40.1, 0.0)

    def test_always_los(self):
        c = CircularScenario.default()
        assert _is_los(c, Position(-30.0, 20.0), c.bs_positions[0])
        rng = np.random.default_rng(5)
        xy = _map_draws(c, rng, 100)
        assert np.all(c.los_mask(xy, c.bs_positions[0]))

    def test_samplers_respect_regions(self):
        c = CircularScenario.default()
        rng = np.random.default_rng(42)
        inside = c.sample_region(REGION_INSIDE, rng, 1000)
        outside = c.sample_region(REGION_OUTSIDE, rng, 1000)
        assert np.all(_label(c, inside) == 0)
        assert np.all(_label(c, outside) == 1)
        r = np.hypot(outside[:, 0], outside[:, 1])
        assert np.all(r <= c.r_out)

    def test_inside_sampler_centroid(self):
        c = CircularScenario.default()
        rng = np.random.default_rng(42)
        xy = c.sample_region(REGION_INSIDE, rng, 20000)
        np.testing.assert_allclose(xy.mean(axis=0), (16.5, 0.0), atol=0.3)


def _sample_region_reference(scenario, region, rng, size):
    """sample_region with the ROI draw written out and every round's
    rejection candidates drawn and tested in one call each."""
    if region == REGION_INSIDE:
        roi = scenario.roi
        xy = rng.uniform(size=(size, 2))
        xy[:, 0] = roi.xmin + xy[:, 0] * roi.width
        xy[:, 1] = roi.ymin + xy[:, 1] * roi.height
        return xy
    xmin, ymin, xmax, ymax = scenario.bounds
    out = np.empty((size, 2))
    filled = 0
    while filled < size:
        n = max(2 * (size - filled), 64)
        x = rng.uniform(xmin, xmax, n)
        y = rng.uniform(ymin, ymax, n)
        ok = scenario.contains(x, y) & ~scenario.roi.contains(x, y)
        k = min(int(ok.sum()), size - filled)
        out[filled : filled + k, 0] = x[ok][:k]
        out[filled : filled + k, 1] = y[ok][:k]
        filled += k
    return out


class TestBlockSampler:
    """Testing candidates in blocks changes neither the samples nor the draws."""

    # candidates in the first round, max(2 * size, 64): 64, 8,190, 8,192 (one
    # full block), 8,194 (a block and two) and 100,000 (twelve blocks and a part)
    @pytest.mark.parametrize("size", [1, 4_095, 4_096, 4_097, 50_000])
    @pytest.mark.parametrize("region", [REGION_INSIDE, REGION_OUTSIDE])
    @pytest.mark.parametrize("scenario", [StreetScenario.default(), CircularScenario.default()],
                             ids=["street", "circular"])
    def test_equals_one_shot_rejection(self, scenario, region, size):
        rng, ref_rng = np.random.default_rng(size), np.random.default_rng(size)
        xy = scenario.sample_region(region, rng, size)
        np.testing.assert_array_equal(xy, _sample_region_reference(scenario, region, ref_rng, size))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

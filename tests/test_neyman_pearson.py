"""NP test suite: sector angle, densities, LLR, decisions, Monte-Carlo ROC."""

import math
import tracemalloc

import numpy as np
import pytest

from irlv.channel import SPEED_OF_LIGHT, ChannelParams, path_loss_los_db
from irlv.evaluation import RocCurve, auc
from irlv.neyman_pearson import (
    LLR_SENTINEL_BITS,
    SectorGeometry,
    _axis_interval,
    _llr_of_alpha,
    alpha,
    llr,
    np_roc,
    pdf_r,
    radius_from_attenuation,
)
from irlv.scenario import REGION_INSIDE, REGION_OUTSIDE, CircularScenario

PARAMS = ChannelParams()
GEO = SectorGeometry(CircularScenario.default(), 1e-4)
TWO_PI = 2.0 * math.pi


class TestSectorGeometry:
    def test_resolution_cap(self):
        with pytest.raises(ValueError):
            SectorGeometry(CircularScenario.default(), resolution_rad=2e-3)
        with pytest.raises(ValueError):
            SectorGeometry(CircularScenario.default(), resolution_rad=0.0)

    def test_region_areas(self):
        np.testing.assert_allclose(GEO.area_a0, 625.0)
        np.testing.assert_allclose(GEO.area_a1, math.pi * 1600.0 - 625.0, rtol=1e-12)


class TestRadiusFromAttenuation:
    def test_inverts_free_space_loss(self):
        rng = np.random.default_rng(42)
        d = rng.uniform(1.0, 40.0, 200)
        back = radius_from_attenuation(path_loss_los_db(d, PARAMS), PARAMS)
        np.testing.assert_allclose(back, d, rtol=1e-9)

    def test_unit_radius(self):
        a_lin = 4.0 * math.pi * PARAMS.f0_hz / SPEED_OF_LIGHT
        np.testing.assert_allclose(
            radius_from_attenuation(20.0 * math.log10(a_lin), PARAMS), 1.0, rtol=1e-12
        )

    def test_below_free_space_minimum(self):
        with pytest.raises(ValueError, match="below free-space minimum"):
            radius_from_attenuation(-0.1, PARAMS)


def _alpha_naive(r_values, geometry):
    """Reference scan: test every (radius, angle-bin midpoint) pair."""
    k = geometry.n_angles
    phi = (np.arange(k) + 0.5) * (TWO_PI / k)
    roi = geometry.scenario.roi
    out = []
    for r in np.atleast_1d(r_values):
        inside = roi.contains(r * np.cos(phi), r * np.sin(phi))
        out.append(inside.sum() * (TWO_PI / k))
    return np.array(out)


def _alpha_reference(r, geometry):
    """alpha of a radius array by a stable argsort and the scan written out."""
    arr = np.asarray(r, dtype=float)
    order = np.argsort(arr, kind="stable")
    r_sorted = arr[order]
    k = geometry.n_angles
    phi = (np.arange(k) + 0.5) * (TWO_PI / k)
    roi = geometry.scenario.roi
    lo_x, hi_x = _axis_interval(np.cos(phi), roi.xmin, roi.xmax)
    lo_y, hi_y = _axis_interval(np.sin(phi), roi.ymin, roi.ymax)
    lo = np.maximum(np.maximum(lo_x, lo_y), 0.0)
    hi = np.minimum(hi_x, hi_y)
    ok = lo <= hi
    hits = np.zeros(len(r_sorted) + 1, dtype=np.int64)
    np.add.at(hits, np.searchsorted(r_sorted, lo[ok], side="left"), 1)
    np.add.at(hits, np.searchsorted(r_sorted, hi[ok], side="right"), -1)
    out = np.empty_like(arr)
    out[order] = np.cumsum(hits[:-1]) * (TWO_PI / k)
    return out


def _llr_reference(al, geometry):
    """_llr_of_alpha's value with the ratio written as one expression."""
    out = np.full(al.shape, -LLR_SENTINEL_BITS)
    out[al >= TWO_PI] = LLR_SENTINEL_BITS
    interior = (al > 0.0) & (al < TWO_PI)
    out[interior] = np.log2(
        geometry.area_a1 * al[interior] / (geometry.area_a0 * (TWO_PI - al[interior]))
    )
    return out


def _np_roc_reference(geometry, n_samples, thetas, rng):
    """np_roc with each region's samples scored in draw order through alpha's
    stable-argsort reference, then sorted and counted per threshold."""
    sorted_llr = []
    for region in (REGION_INSIDE, REGION_OUTSIDE):
        xy = geometry.scenario.sample_region(region, rng, n_samples)
        sorted_llr.append(np.sort(_llr_reference(_alpha_reference(np.hypot(*xy.T), geometry),
                                                 geometry)))
    grid = np.concatenate([[0.0], thetas, [np.inf]])
    with np.errstate(divide="ignore"):
        log_grid = np.log2(grid)
    p_fa = np.searchsorted(sorted_llr[0], log_grid, side="left") / n_samples
    p_md = (n_samples - np.searchsorted(sorted_llr[1], log_grid, side="left")) / n_samples
    return RocCurve.from_points(p_fa, p_md, thresholds=grid)


class TestAlpha:
    def test_unreachable_radii(self):
        assert alpha(3.9, GEO) == 0.0
        assert alpha(32.0, GEO) == 0.0
        assert alpha(40.0, GEO) == 0.0

    def test_face_crossing_arc(self):
        """For r between R_min and the ROI y-extent the arc is bounded by
        the near face alone: alpha = 2*acos(R_min/r)."""
        for r in (6.0, 10.0, 12.0):
            np.testing.assert_allclose(
                alpha(r, GEO), 2.0 * math.acos(4.0 / r), atol=3 * GEO.resolution_rad
            )

    def test_side_clipped_arc(self):
        """Past the ROI's half-height the arc is clipped by the long sides:
        alpha = 2*asin(12.5/r) while the far face is still out of reach."""
        for r in (15.0, 20.0, 25.0):
            np.testing.assert_allclose(
                alpha(r, GEO), 2.0 * math.asin(12.5 / r), atol=3 * GEO.resolution_rad
            )

    def test_matches_naive_scan(self):
        """Interval bookkeeping equals the pairwise scan (coarser grid to
        keep the reference affordable)."""
        coarse = SectorGeometry(CircularScenario.default(), resolution_rad=1e-3)
        rng = np.random.default_rng(5)
        r = np.concatenate([rng.uniform(0.5, 39.0, 300), [4.0, 12.5, 29.0, 31.57]])
        fast = alpha(r, coarse)
        ref = _alpha_naive(r, coarse)
        np.testing.assert_allclose(fast, ref, atol=2 * TWO_PI / coarse.n_angles)

    def test_bounds(self):
        rng = np.random.default_rng(6)
        a = alpha(rng.uniform(0.01, 45.0, 500), GEO)
        assert np.all((a >= 0.0) & (a <= TWO_PI))

    def test_full_circle_when_roi_surrounds_origin(self):
        from irlv.scenario import Rectangle

        geo = SectorGeometry(CircularScenario(r_out=40.0, roi=Rectangle(-10, -10, 10, 10)), 1e-4)
        np.testing.assert_allclose(alpha(1.0, geo), TWO_PI, rtol=1e-9)

    def test_area_identity(self):
        """Integrating r*alpha(r) recovers |A0| within 0.5%."""
        r = np.linspace(1e-6, GEO.scenario.r_max, 4000)
        integral = np.trapezoid(r * alpha(r, GEO), r)
        np.testing.assert_allclose(integral, GEO.area_a0, rtol=5e-3)

    def test_scalar_and_unsorted_arrays(self):
        r = np.array([20.0, 6.0, 35.0, 6.0])
        vec = alpha(r, GEO)
        np.testing.assert_array_equal(vec, [alpha(v, GEO) for v in r])

    def test_unsorted_ties_match_naive_scan(self):
        """Repeated radii in any order get the count of their own radius."""
        coarse = SectorGeometry(CircularScenario.default(), resolution_rad=1e-3)
        rng = np.random.default_rng(11)
        r = rng.permutation(np.repeat(rng.uniform(0.5, 39.0, 60), rng.integers(1, 6, 60)))
        np.testing.assert_array_equal(alpha(r, coarse), _alpha_naive(r, coarse))
        np.testing.assert_array_equal(alpha(r, coarse), _alpha_reference(r, coarse))

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            alpha(0.0, GEO)


class TestPdfR:
    def test_normalization_both_hypotheses(self):
        r = np.linspace(1e-9, GEO.scenario.r_out, 20001)
        for hyp in (0, 1):
            total = np.trapezoid(pdf_r(r, hyp, GEO), r)
            np.testing.assert_allclose(total, 1.0, atol=1e-3)

    def test_h0_density_matches_sampled_radii(self):
        """Histogram of a million uniform ROI draws against the density."""
        rng = np.random.default_rng(42)
        xy = GEO.scenario.sample_region(REGION_INSIDE, rng, 1_000_000)
        radii = np.hypot(xy[:, 0], xy[:, 1])
        edges = np.linspace(4.0, GEO.scenario.r_max, 28)
        counts, _ = np.histogram(radii, edges)
        for lo, hi, n in zip(edges[:-1], edges[1:], counts):
            grid = np.linspace(lo, hi, 33)
            p = np.trapezoid(pdf_r(grid, 0, GEO), grid)
            sigma = math.sqrt(len(radii) * p * (1 - p))
            assert abs(n - len(radii) * p) <= 3.5 * sigma, (lo, hi)

    def test_h1_zero_inside_annulus_gap(self):
        # radii below R_min are reachable only from A1
        np.testing.assert_allclose(
            pdf_r(2.0, 1, GEO), 2.0 * TWO_PI / GEO.area_a1, rtol=1e-12
        )
        assert pdf_r(2.0, 0, GEO) == 0.0

    def test_support_checked(self):
        with pytest.raises(ValueError):
            pdf_r(41.0, 0, GEO)
        with pytest.raises(ValueError):
            pdf_r(10.0, 2, GEO)


class TestLlr:
    def test_in_place_ratio_equals_one_expression(self):
        al = np.random.default_rng(6).uniform(0.0, TWO_PI, 10_000)
        al[:3] = (0.0, TWO_PI, 1e-300)
        np.testing.assert_array_equal(_llr_of_alpha(al.copy(), GEO), _llr_reference(al, GEO))

    def test_certain_outside_sentinel(self):
        a_db = path_loss_los_db(2.0, PARAMS)
        assert llr(a_db, GEO, PARAMS) == -LLR_SENTINEL_BITS

    def test_balance_radius_gives_zero_bits(self):
        """Where |A1|*alpha = |A0|*(2*pi - alpha) the evidence is neutral."""
        target = TWO_PI * GEO.area_a0 / (math.pi * GEO.scenario.r_out**2)
        from scipy.optimize import brentq

        r_star = brentq(lambda r: alpha(r, GEO) - target, 4.01, 8.0, xtol=1e-10)
        value = llr(path_loss_los_db(r_star, PARAMS), GEO, PARAMS)
        assert abs(value) < 5e-3

    def test_matches_monte_carlo_density_ratio_at_20m(self):
        """Rejection-sampled density ratio at R = 20 m within 0.1 bit."""
        rng = np.random.default_rng(42)
        h = 0.25
        est = []
        for region, area in ((REGION_INSIDE, GEO.area_a0), (REGION_OUTSIDE, GEO.area_a1)):
            xy = GEO.scenario.sample_region(region, rng, 1_000_000)
            radii = np.hypot(xy[:, 0], xy[:, 1])
            frac = np.mean(np.abs(radii - 20.0) <= h)
            est.append(frac / (2 * h))
        mc_llr = math.log2(est[0] / est[1])
        exact = llr(path_loss_los_db(20.0, PARAMS), GEO, PARAMS)
        assert abs(exact - mc_llr) < 0.1

    def test_vectorized(self):
        a_db = path_loss_los_db(np.array([2.0, 6.0, 20.0]), PARAMS)
        vec = llr(a_db, GEO, PARAMS)
        np.testing.assert_array_equal(vec, [llr(v, GEO, PARAMS) for v in a_db])

    def test_db_linear_representation_invariance(self):
        """a_db -> a_lin -> a_db round trips do not move the llr."""
        a_db = path_loss_los_db(17.3, PARAMS)
        a_db_again = 20.0 * math.log10(10.0 ** (a_db / 20.0))
        np.testing.assert_allclose(
            llr(a_db, GEO, PARAMS), llr(a_db_again, GEO, PARAMS), rtol=1e-12
        )


class TestNpDecide:
    """The NP decision as np_roc counts it: inside (0) iff llr >= log2(theta)."""

    def test_sentinels(self):
        inside_evidence = path_loss_los_db(10.0, PARAMS)   # alpha > 0
        outside_evidence = path_loss_los_db(2.0, PARAMS)   # alpha = 0
        # at theta = 1 the sign of the llr decides
        assert llr(outside_evidence, GEO, PARAMS) == -LLR_SENTINEL_BITS
        assert llr(inside_evidence, GEO, PARAMS) > 0

    def test_threshold_validated(self):
        for theta in (0.0, -1.0):
            with pytest.raises(ValueError, match="thetas"):
                np_roc(GEO, 10_000, [theta], np.random.default_rng(0))

    def test_tie_accepts(self):
        a = path_loss_los_db(20.0, PARAMS)
        theta = 2.0 ** llr(a, GEO, PARAMS)
        assert llr(a, GEO, PARAMS) >= math.log2(theta)


class TestNpRoc:
    thetas = np.logspace(-4, 4, 41)

    def test_endpoints_and_monotonicity(self):
        roc = np_roc(GEO, 10_000, self.thetas, np.random.default_rng(0))
        assert roc.p_fa[0] == 0.0
        assert roc.p_fa[-1] == 1.0 and roc.p_md[-1] == 0.0
        assert np.all(np.diff(roc.p_md) <= 0)
        # radii the ROI cannot reach are rejected for free, so the best
        # zero-false-alarm point already catches a chunk of A1
        assert 0.3 < roc.p_md[0] < 0.8

    def test_extreme_thresholds_decide_unanimously(self):
        """Sentinels keep every llr within +/-1024 bits, so a threshold
        beyond that range accepts (or rejects) every sample."""
        rng = np.random.default_rng(9)
        xy = GEO.scenario.sample_region(REGION_OUTSIDE, rng, 200)
        a_db = path_loss_los_db(np.hypot(xy[:, 0], xy[:, 1]), PARAMS)
        bits = llr(a_db, GEO, PARAMS)
        assert np.all(bits >= -1025.0)  # accept-all below the range
        assert np.all(bits < 1025.0)    # reject-all above it

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            np_roc(GEO, 9_999, self.thetas, np.random.default_rng(0))

    def test_dominates_radius_threshold_heuristic(self):
        """The LLR test is at least as good as any radius cutoff rule."""
        rng = np.random.default_rng(42)
        n = 20_000
        roc = np_roc(GEO, n, np.logspace(-6, 6, 201), np.random.default_rng(1))
        r0 = np.hypot(*GEO.scenario.sample_region(REGION_INSIDE, rng, n).T)
        r1 = np.hypot(*GEO.scenario.sample_region(REGION_OUTSIDE, rng, n).T)
        for cutoff in np.linspace(2.0, 38.0, 25):
            h_fa = np.mean(r0 > cutoff)
            h_md = np.mean(r1 <= cutoff)
            np_md = np.interp(h_fa, roc.p_fa, roc.p_md)
            assert np_md <= h_md + 0.02, cutoff

    @pytest.mark.parametrize("resolution", [1e-3, 1e-4])
    @pytest.mark.parametrize("seed", [2, 7])
    def test_equals_stable_sort_reference(self, seed, resolution):
        """np_roc scores sorted radii in place; the reference scores each
        sample in draw order, sorts the LLRs and counts them per threshold.
        100,000 draws span several of the outside sampler's blocks."""
        geo = SectorGeometry(CircularScenario.default(), resolution)
        for n in (10_000, 100_000):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            roc = np_roc(geo, n, self.thetas, rng)
            ref = _np_roc_reference(geo, n, self.thetas, ref_rng)
            np.testing.assert_array_equal(roc.p_fa, ref.p_fa)
            np.testing.assert_array_equal(roc.p_md, ref.p_md)
            np.testing.assert_array_equal(roc.thresholds, ref.thresholds)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_peak_memory_at_the_paper_sample_count(self):
        """At 100,000 draws per region the oracle scores each region in place:
        its temporaries take at most 6 MiB, the 1e-4 rad angle scan included."""
        thetas = np.exp2(np.linspace(-16.0, 4.0, 200))
        np_roc(GEO, 10_000, thetas, np.random.default_rng(0))  # first-call allocations outside the peak
        tracemalloc.start()
        try:
            np_roc(GEO, 100_000, thetas, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 1024 * 1024

    def test_reproducible(self):
        a = np_roc(GEO, 10_000, self.thetas, np.random.default_rng(3))
        b = np_roc(GEO, 10_000, self.thetas, np.random.default_rng(3))
        np.testing.assert_array_equal(a.p_md, b.p_md)

    def test_informative(self):
        roc = np_roc(GEO, 10_000, self.thetas, np.random.default_rng(4))
        assert auc(roc) < 0.4

    def test_scores_positions_nearer_than_the_free_space_minimum(self):
        """np_roc scores distances, not attenuations, so it takes no
        channel constants: at f0 = 7 Hz every position lies nearer than
        c / (4*pi*f0), whose attenuation llr refuses."""
        slow = ChannelParams(f0_hz=7.0)
        with pytest.raises(ValueError, match="free-space minimum"):
            llr(path_loss_los_db(10.0, slow), GEO, slow)

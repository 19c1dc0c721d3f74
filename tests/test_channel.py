"""Channel model tests: path loss values, shadowing statistics, attenuation."""

import math
import tracemalloc

import numpy as np
import pytest

from irlv.channel import (
    SPEED_OF_LIGHT,
    ChannelParams,
    EmbeddingError,
    ShadowingField,
    _cutoff_cov,
    _exponential_cov,
    _fft2_rows,
    _next_fast_len,
    _real_fft2,
    _synthesis_factor,
    attenuation_matrix,
    field_seed,
    generate_fields,
    generate_shadowing_field,
    path_loss_los_db,
    path_loss_nlos_db,
    save_field,
    shadowing_matrix,
)
from irlv.scenario import CircularScenario, Position, StreetScenario


PARAMS = ChannelParams()


def _attenuation_at(scenario, fields, params, pos) -> np.ndarray:
    """Attenuation from one position to the scenario's own placement: a
    one-row attenuation_matrix plus the shadowing (fields None for none)."""
    xy = np.array([pos], dtype=float)
    a = attenuation_matrix(scenario, params, xy, scenario.bs_positions)[0]
    return a if fields is None else a + shadowing_matrix(scenario, fields, xy)[0]


class TestChannelParams:
    def test_defaults(self):
        assert PARAMS.f0_hz == 2.12e9
        assert PARAMS.sigma_s_db == 8.0
        assert PARAMS.d_c_m == 75.0
        assert PARAMS.h_ap_m == 15.0
        assert SPEED_OF_LIGHT == 299792458.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(f0_hz=0.0)
        with pytest.raises(ValueError):
            ChannelParams(sigma_s_db=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(grid_spacing_m=0.0)


class TestPathLoss:
    def test_los_reference_value(self):
        """Free-space loss at 100 m and 2.12 GHz, checked against a hand
        evaluation of 20*log10(4*pi*f0*d/c)."""
        np.testing.assert_allclose(
            path_loss_los_db(100.0, PARAMS), 78.9745004404584, rtol=1e-12
        )

    def test_los_doubling_adds_6db(self):
        """Doubling the distance adds 20*log10(2) ~ 6.02 dB."""
        d = np.array([10.0, 50.0, 123.4])
        delta = path_loss_los_db(2 * d, PARAMS) - path_loss_los_db(d, PARAMS)
        np.testing.assert_allclose(delta, 20 * math.log10(2), rtol=1e-12)

    def test_los_frequency_monotonicity(self):
        hi = ChannelParams(f0_hz=5.0e9)
        assert path_loss_los_db(100.0, hi) > path_loss_los_db(100.0, PARAMS)

    def test_nlos_reference_value(self):
        """Macro-cell loss at 1 km, 15 m antenna, 2120 MHz carrier."""
        np.testing.assert_allclose(
            path_loss_nlos_db(1000.0, PARAMS), 128.68341041650152, rtol=1e-12
        )

    def test_nlos_distance_slope(self):
        """The distance term scales as 40*(1 - 4e-3*h) dB per decade, so
        halving from 2 km to 1 km removes 40*0.94*log10(2) ~ 11.32 dB."""
        delta = path_loss_nlos_db(2000.0, PARAMS) - path_loss_nlos_db(1000.0, PARAMS)
        np.testing.assert_allclose(delta, 11.318727836965678, rtol=1e-12)

    def test_nlos_exceeds_los_at_street_scales(self):
        d = np.linspace(50.0, 700.0, 50)
        assert np.all(path_loss_nlos_db(d, PARAMS) > path_loss_los_db(d, PARAMS))

    def test_nonpositive_distance_rejected(self):
        for fn in (path_loss_los_db, path_loss_nlos_db):
            with pytest.raises(ValueError):
                fn(0.0, PARAMS)
            with pytest.raises(ValueError):
                fn(np.array([10.0, -1.0]), PARAMS)

    def test_vectorized_matches_scalar(self):
        d = np.array([10.0, 100.0, 400.0])
        for fn in (path_loss_los_db, path_loss_nlos_db):
            np.testing.assert_array_equal(fn(d, PARAMS), [fn(x, PARAMS) for x in d])


def _empirical_cov(realizations, step, axis):
    """Average product of field values a fixed number of grid steps apart."""
    if step == 0:
        return float(np.mean(realizations**2))
    if axis == 0:
        a, b = realizations[:, :-step, :], realizations[:, step:, :]
    else:
        a, b = realizations[:, :, :-step], realizations[:, :, step:]
    return float(np.mean(a * b))


def _indefinite(cov):
    """Eigenvalues of the torus covariance lowered by 1e-3 of the largest, so
    that every torus keeps a negative mass far above the 1e-6 allowed."""
    lam = _real_fft2(cov)
    return lam - 1e-3 * lam.max()


class TestShadowingStatistics:
    """Both embeddings must reproduce sigma_s^2 * exp(-L/d_c)."""

    sigma = 8.0
    d_c = 10.0
    spacing = 2.0
    n = 16
    # 16x16 nodes at 1 m with d_c = 30 m: the plain embedding fails, so the
    # grid takes the cut-off embedding; at 2 m with d_c = 10 m it holds
    cutoff_spacing, cutoff_d_c = 1.0, 30.0

    def _check_cov(self, realizations, spacing, d_c):
        # rtol is looser at two decorrelation lengths: the target there is
        # sigma^2/e^2 and the estimator noise of this sample size is a
        # visible fraction of it.
        for step, rtol in ((0, 0.10), (5, 0.10), (10, 0.25)):
            target = self.sigma**2 * math.exp(-step * spacing / d_c)
            for axis in (0, 1):
                got = _empirical_cov(realizations, step, axis)
                assert abs(got - target) <= rtol * target, (step, axis, got, target)

    def _realizations(self, spacing, d_c, cutoff):
        assert (_synthesis_factor(self.n, self.n, spacing, self.sigma, d_c)[1] > 0) == cutoff
        rng = np.random.default_rng(42)
        return np.stack(
            [_exponential_cov(self.n, self.n, spacing, self.sigma, d_c, rng) for _ in range(1200)]
        )

    def test_cutoff_route_covariance(self):
        reals = self._realizations(self.cutoff_spacing, self.cutoff_d_c, cutoff=True)
        self._check_cov(reals, self.cutoff_spacing, self.cutoff_d_c)

    def test_fft_route_covariance(self):
        reals = self._realizations(self.spacing, self.d_c, cutoff=False)
        self._check_cov(reals, self.spacing, self.d_c)

    @pytest.mark.parametrize("d_c", [1000.0, 5000.0])
    def test_long_d_c_street_grid_draws(self, d_c):
        """Street map, 5 m grid: the plain embedding fails at these d_c, even
        padded to 1728x1728 (negative eigenvalue mass 5.9e-5 and 2.3e-2 of
        the positive mass); the cut-off embedding holds on a 750x750 torus."""
        amplitudes, c = _synthesis_factor(106, 106, 5.0, 8.0, d_c)
        assert amplitudes.shape == (750, 750) and c > 0
        values = _exponential_cov(106, 106, 5.0, 8.0, d_c, np.random.default_rng(0))
        assert values.shape == (106, 106) and np.all(np.isfinite(values))

    @pytest.mark.usefixtures("empty_factor_cache")
    @pytest.mark.parametrize("d_c", [1000.0, 5000.0])
    def test_fft_route_rejects_indefinite_embedding(self, d_c, monkeypatch):
        """A grid where neither the plain nor the cut-off torus embeds raises:
        the guard that no validated grid is known to reach."""
        monkeypatch.setattr("irlv.channel._real_fft2", _indefinite)
        with pytest.raises(EmbeddingError, match="106x106 grid is indefinite, plain and cut-off"):
            _exponential_cov(106, 106, 5.0, 8.0, d_c, np.random.default_rng(0))

    def test_fft_route_is_zero_mean(self):
        rng = np.random.default_rng(1)
        reals = np.stack(
            [_exponential_cov(self.n, self.n, self.spacing, self.sigma, self.d_c, rng) for _ in range(400)]
        )
        assert abs(reals.mean()) < 0.5


class TestGenerateShadowingField:
    def test_zero_sigma_is_zero_field(self):
        params = ChannelParams(sigma_s_db=0.0)
        f = generate_shadowing_field(CircularScenario.default(), params, seed=7)
        assert np.all(f.values == 0.0)

    def test_grid_covers_bounds(self):
        s = StreetScenario.default()
        f = generate_shadowing_field(s, PARAMS, seed=0)
        x1, y1 = f.origin_x + (f.nx - 1) * f.spacing, f.origin_y + (f.ny - 1) * f.spacing
        assert f.origin_x <= 0.0 and f.origin_y <= 0.0 and x1 >= s.map_side and y1 >= s.map_side
        assert f.values.shape == (106, 106)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError, match="grid too coarse"):
            ChannelParams(grid_spacing_m=20.0)

    def test_deterministic_given_seed(self):
        s = CircularScenario.default()
        a = generate_shadowing_field(s, PARAMS, seed=123)
        b = generate_shadowing_field(s, PARAMS, seed=123)
        np.testing.assert_array_equal(a.values, b.values)
        c = generate_shadowing_field(s, PARAMS, seed=124)
        assert not np.array_equal(a.values, c.values)

    def test_large_grid_variance(self):
        """The 106x106 street grid's marginal variance is sigma_s^2."""
        s = StreetScenario.default()
        vals = np.stack(
            [generate_shadowing_field(s, PARAMS, seed=k).values for k in range(60)]
        )
        np.testing.assert_allclose(np.mean(vals**2), 64.0, rtol=0.1)

    def test_per_bs_fields_are_independent(self):
        s = StreetScenario.default()
        fields = generate_fields(s, PARAMS, base_seed=42)
        assert len(fields) == s.n_bs
        z0 = fields[0].values.ravel()
        z1 = fields[1].values.ravel()
        rho = np.corrcoef(z0, z1)[0, 1]
        assert abs(rho) < 0.1
        # derived seeds are stable across calls
        again = generate_fields(s, PARAMS, base_seed=42)
        np.testing.assert_array_equal(fields[2].values, again[2].values)

    def test_field_seed_varies_with_bs(self):
        seen = {field_seed(9, n) for n in range(8)}
        assert len(seen) == 8


# even, odd, mixed and non-square shapes, and the 106x106 street grid's embedding
FFT_SHAPES = [(8, 8), (9, 9), (6, 9), (9, 6), (7, 12), (1, 5), (5, 1), (105, 212), (216, 216)]


class TestNumpyFftMatchesScipy:
    """The FFT route runs on numpy.fft alone; scipy.fft, which it replaced,
    is the reference it must match bit for bit."""

    def test_next_fast_len(self):
        scipy_fft = pytest.importorskip("scipy.fft")
        ns = range(1, 5001)
        assert [_next_fast_len(n) for n in ns] == [scipy_fft.next_fast_len(n) for n in ns]

    @pytest.mark.parametrize("shape", FFT_SHAPES + [(324, 324)], ids=str)
    def test_complex_fft2(self, shape):
        """The kept rows of the 2-D FFT are scipy's bit for bit, for one row,
        half of them and all, and for 81 of 324 rows."""
        scipy_fft = pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(0)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = scipy_fft.fft2(a)
        for n in {1, (shape[0] + 1) // 2, shape[0], min(81, shape[0])}:
            kept = _fft2_rows(a.copy(), n)
            assert kept.shape == (n, shape[1])
            np.testing.assert_array_equal(kept, full[:n])

    @pytest.mark.parametrize("shape", FFT_SHAPES, ids=str)
    def test_real_fft2(self, shape):
        scipy_fft = pytest.importorskip("scipy.fft")
        cov = np.random.default_rng(1).standard_normal(shape)
        np.testing.assert_array_equal(_real_fft2(cov), scipy_fft.fft2(cov).real)


@pytest.fixture
def empty_factor_cache():
    _synthesis_factor.cache_clear()
    yield
    _synthesis_factor.cache_clear()


# (scenario, params): the circular map on a 5 m grid is 17x17 nodes, whose
# plain embedding fails with d_c = 1000 m (cut-off route); the street map on
# a 5 m grid is 106x106 (plain route).
ROUTES = {
    "cutoff": (CircularScenario.default(), ChannelParams(d_c_m=1000.0)),
    "fft": (StreetScenario.default(), PARAMS),
}

# (nx, ny, spacing, sigma, d_c) by route (cut-off or not): 7x7 nodes at 15 m
# with d_c = 1000 m takes the cut-off; the 36x36 street grid at 15 m embeds
# plainly, and still does with twice its d_c
FACTOR_GRIDS = {True: (7, 7, 15.0, 8.0, 1000.0), False: (36, 36, 15.0, 8.0, 75.0)}


def _counting(monkeypatch, target, original):
    """Replace target by a wrapper of original; returns its list of calls."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(target, wrapper)
    return calls


@pytest.mark.usefixtures("empty_factor_cache")
class TestSynthesisFactorCache:
    def test_dense_factor_built_once_per_grid(self, monkeypatch):
        """The 17x17 disc grid at d_c = 1000 m, which the dense Cholesky
        route once served, builds its cut-off covariance once for two
        fields: the second field reads the cached factor."""
        calls = _counting(monkeypatch, "irlv.channel._cutoff_cov", _cutoff_cov)
        scenario, params = ROUTES["cutoff"]
        generate_shadowing_field(scenario, params, seed=1)
        generate_shadowing_field(scenario, params, seed=2)
        assert len(calls) == 1
        assert _synthesis_factor.cache_info().hits == 1

    def test_failed_embedding_is_tried_once_per_fallback_grid(self, monkeypatch):
        """A cut-off grid caches its amplitudes: two fields run the two
        eigenvalue transforms of one build (the failed plain embedding and
        the cut-off), not four."""
        calls = _counting(monkeypatch, "irlv.channel._real_fft2", _real_fft2)
        scenario, params = ROUTES["cutoff"]
        generate_shadowing_field(scenario, params, seed=1)
        generate_shadowing_field(scenario, params, seed=2)
        assert len(calls) == 2
        assert _synthesis_factor.cache_info().hits == 1

    def test_fft_amplitudes_built_once_per_grid(self, monkeypatch):
        calls = _counting(monkeypatch, "irlv.channel._real_fft2", _real_fft2)
        generate_fields(StreetScenario.default(), PARAMS, base_seed=4)  # five fields
        assert len(calls) == 1  # the 216x216 plain embedding holds
        assert _synthesis_factor.cache_info().hits == 4

    @pytest.mark.parametrize("cutoff", [True, False])
    def test_factor_is_read_only(self, cutoff):
        amplitudes, c = _synthesis_factor(*FACTOR_GRIDS[cutoff])
        assert (c > 0) == cutoff
        with pytest.raises(ValueError, match="read-only"):
            amplitudes[0, 0] = 1.0

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_field_after_hit_equals_field_after_clear(self, route):
        scenario, params = ROUTES[route]
        generate_shadowing_field(scenario, params, seed=1)
        hit = generate_shadowing_field(scenario, params, seed=2).values
        assert _synthesis_factor.cache_info().hits == 1
        _synthesis_factor.cache_clear()
        fresh = generate_shadowing_field(scenario, params, seed=2).values
        assert _synthesis_factor.cache_info().hits == 0
        np.testing.assert_array_equal(hit, fresh)

    @pytest.mark.parametrize("cutoff", [True, False])
    def test_factor_depends_on_sigma_d_c_and_spacing(self, cutoff):
        nx, ny, spacing, sigma, d_c = FACTOR_GRIDS[cutoff]
        base = _synthesis_factor(nx, ny, spacing, sigma, d_c)[0]
        for changed in ((spacing, sigma / 2, d_c), (spacing, sigma, 2 * d_c), (1.5 * spacing, sigma, d_c)):
            other, c = _synthesis_factor(nx, ny, *changed)
            assert (c > 0) == cutoff, changed
            assert not np.array_equal(base, other), changed

    def test_failed_embedding_is_not_cached(self, monkeypatch):
        """The street grid at d_c = 5000 m draws and is cached; with its
        eigenvalues made indefinite, every call tries both embeddings again,
        raises and caches nothing."""
        _exponential_cov(106, 106, 5.0, 8.0, 5000.0, np.random.default_rng(0))
        assert _synthesis_factor.cache_info().currsize == 1
        _synthesis_factor.cache_clear()
        calls = _counting(monkeypatch, "irlv.channel._real_fft2", _indefinite)
        for _ in range(2):
            with pytest.raises(EmbeddingError):
                _exponential_cov(106, 106, 5.0, 8.0, 5000.0, np.random.default_rng(0))
        assert len(calls) == 4
        assert _synthesis_factor.cache_info().currsize == 0

    def test_street_grid_at_15_m_peaks_below_1_mib(self):
        """The 36x36 grid of the field-dense benchmark embeds on its 72x72
        torus, so five fields from a cold cache stay small."""
        params = ChannelParams(grid_spacing_m=15.0)
        # first-call allocations (numpy.fft's import among them) outside the peak
        generate_shadowing_field(CircularScenario.default(), params, seed=0)
        _synthesis_factor.cache_clear()
        tracemalloc.start()
        try:
            fields = generate_fields(StreetScenario.default(), params, base_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fields[0].values.shape == (36, 36)
        assert peak < 1024 * 1024

    def test_holds_at_most_two_grids(self):
        grids = [FACTOR_GRIDS[True], FACTOR_GRIDS[False], (10, 6, 2.0, 8.0, 10.0)]
        for args in grids * 2:
            _synthesis_factor(*args)
            assert _synthesis_factor.cache_info().currsize <= 2
        info = _synthesis_factor.cache_info()
        assert (info.maxsize, info.hits, info.misses) == (2, 0, 6)


class TestBilinearInterpolation:
    def _field(self, values):
        return ShadowingField(
            origin_x=0.0, origin_y=0.0, spacing=2.0, values=np.asarray(values, float),
            sigma_s_db=8.0, d_c_m=75.0, seed=0,
        )

    def test_exact_at_nodes(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(4, 5))
        f = self._field(vals)
        for j in range(4):
            for i in range(5):
                assert f.at(2.0 * i, 2.0 * j) == vals[j, i]

    def test_reproduces_bilinear_functions(self):
        """Interpolation is exact for f(x, y) = a + b x + c y + d x y."""
        xs = np.arange(5) * 2.0
        ys = np.arange(4) * 2.0
        gx, gy = np.meshgrid(xs, ys)
        vals = 1.5 - 0.25 * gx + 0.75 * gy + 0.031 * gx * gy
        f = self._field(vals)
        rng = np.random.default_rng(3)
        qx = rng.uniform(0, 8, 200)
        qy = rng.uniform(0, 6, 200)
        expected = 1.5 - 0.25 * qx + 0.75 * qy + 0.031 * qx * qy
        np.testing.assert_allclose(f.at(qx, qy), expected, rtol=1e-12, atol=1e-12)

    def test_outside_extent_rejected(self):
        f = self._field(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            f.at(-0.1, 1.0)
        with pytest.raises(ValueError):
            f.at(1.0, 4.1)

    def test_edge_of_extent_ok(self):
        f = self._field(np.arange(9.0).reshape(3, 3))
        assert f.at(4.0, 4.0) == 8.0


class TestFieldIo:
    def test_round_trip_bit_exact(self, tmp_path):
        f = generate_shadowing_field(CircularScenario.default(), PARAMS, seed=5)
        path = tmp_path / "field.csv"
        save_field(f, path)
        np.testing.assert_array_equal(np.loadtxt(path, delimiter=","), f.values)
        magic, header = path.read_text().splitlines()[:2]
        assert magic == "# shadowing-field-v1"
        assert header == (
            f"# origin_x={f.origin_x:.17g} origin_y={f.origin_y:.17g} spacing={f.spacing:.17g} "
            f"nx={f.nx} ny={f.ny} sigma_s_db={f.sigma_s_db:.17g} d_c_m={f.d_c_m:.17g} seed={f.seed}"
        )

    def test_rows_are_per_value_17_digit_renderings(self, tmp_path):
        tiny = np.nextafter(0.0, 1.0)
        values = np.array([
            [-0.0, 0.0, tiny, -tiny * 3, 2.2250738585072014e-308],
            [0.1, -1.0 / 3.0, 123456789.01234567, 1e300, -2.5e-320],
        ])
        f = ShadowingField(origin_x=0.0, origin_y=0.0, spacing=2.0, values=values,
                           sigma_s_db=8.0, d_c_m=75.0, seed=0)
        path = tmp_path / "field.csv"
        save_field(f, path)
        rows = path.read_text().splitlines()[2:]
        assert rows == [",".join(format(v, ".17g") for v in row) for row in values]
        assert rows[0].startswith("-0,0,4.9406564584124654e-324,")


class TestAttenuation:
    def test_no_shadowing_is_pure_path_loss(self):
        s = StreetScenario.default()
        ue = Position(200.0, 262.5)  # on the horizontal street
        a = _attenuation_at(s, None, PARAMS, ue)
        assert a.shape == (5,)
        d0 = math.hypot(200.0 - 127.5, 0.0)
        np.testing.assert_allclose(a[0], path_loss_los_db(d0, PARAMS), rtol=1e-12)
        d3 = math.hypot(200.0 - 262.5, 262.5 - 397.5)
        np.testing.assert_allclose(a[3], path_loss_nlos_db(d3, PARAMS), rtol=1e-12)

    def test_los_nlos_switch_follows_street_rule(self):
        s = StreetScenario.default()
        roi_pt = np.array([[191.25, 191.25]])  # inside a building: NLOS to all
        a = attenuation_matrix(s, PARAMS, roi_pt, s.bs_positions)[0]
        for n, bs in enumerate(s.bs_positions):
            d = math.hypot(191.25 - bs.x, 191.25 - bs.y)
            np.testing.assert_allclose(a[n], path_loss_nlos_db(d, PARAMS), rtol=1e-12)

    def test_placement_sets_the_base_stations(self):
        """The placement, not the scenario's own stations, sets distances and
        LOS: a station moved into a building is NLOS to a street point."""
        s = StreetScenario.default()
        ue = np.array([[500.0, 262.5]])  # east arm of the horizontal street
        placement = np.array(s.bs_positions)
        placement[0] = (50.0, 50.0)
        moved = attenuation_matrix(s, PARAMS, ue, placement)[0]
        own = attenuation_matrix(s, PARAMS, ue, s.bs_positions)[0]
        np.testing.assert_array_equal(moved[1:], own[1:])
        d = math.hypot(500.0 - 50.0, 262.5 - 50.0)
        assert moved[0] == path_loss_nlos_db(d, PARAMS)
        assert own[0] == path_loss_los_db(500.0 - 127.5, PARAMS)

    def test_shadowing_offset_is_the_field_value(self):
        s = CircularScenario.default()
        fields = generate_fields(s, PARAMS, base_seed=11)
        ue = Position(10.0, -5.0)
        with_s = _attenuation_at(s, fields, PARAMS, ue)
        without = _attenuation_at(s, None, PARAMS, ue)
        np.testing.assert_allclose(with_s - without, fields[0].at(10.0, -5.0), rtol=1e-12)

    def test_matrix_matches_vector(self):
        """Each row of a batch query equals the one-row query."""
        s = StreetScenario.default()
        fields = generate_fields(s, PARAMS, base_seed=3)
        rng = np.random.default_rng(8)
        xy = rng.uniform(0.0, s.map_side, size=(40, 2))
        mat = attenuation_matrix(s, PARAMS, xy, s.bs_positions) + shadowing_matrix(s, fields, xy)
        assert mat.shape == (40, 5)
        for k in (0, 17, 39):
            np.testing.assert_allclose(mat[k], _attenuation_at(s, fields, PARAMS, xy[k]))

    def test_field_count_mismatch_rejected(self):
        s = StreetScenario.default()
        fields = generate_fields(s, PARAMS, base_seed=3)[:2]
        with pytest.raises(ValueError):
            shadowing_matrix(s, fields, np.array([[10.0, 10.0]]))

    def test_attenuation_grows_with_distance_los(self):
        c = CircularScenario.default()
        xy = np.column_stack([np.linspace(1.0, 39.0, 30), np.zeros(30)])
        a = attenuation_matrix(c, PARAMS, xy, c.bs_positions)[:, 0]
        assert np.all(np.diff(a) > 0)

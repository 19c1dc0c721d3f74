"""Property tests: ROC curve invariants, the alpha scan against brute force,
and the covariance of each shadowing embedding."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irlv.channel import _synthesis_factor
from irlv.evaluation import RocCurve
from irlv.neyman_pearson import SectorGeometry, alpha
from irlv.scenario import CircularScenario, Rectangle

TWO_PI = 2.0 * math.pi

# the same examples on every run, and no example database on disk
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

# probabilities, with the endpoints and repeated values drawn often
probability = st.one_of(
    st.floats(0.0, 1.0, allow_subnormal=False), st.sampled_from([0.0, 0.25, 0.5, 1.0])
)
operating_points = st.lists(st.tuples(probability, probability), min_size=1, max_size=40)


@DETERMINISTIC
@given(operating_points)
def test_from_points_invariants(points):
    fa, md = np.array(points).T
    c = RocCurve.from_points(fa, md, thresholds=np.arange(len(fa)))
    assert len(c.thresholds) == len(c)
    # endpoints: always-accept at p_fa = 0, always-reject at (1, 0)
    assert c.p_fa[0] == 0.0 and c.p_fa[-1] == 1.0 and c.p_md[-1] == 0.0
    assert np.all(np.diff(c.p_fa) > 0)
    assert np.all(np.diff(c.p_md) <= 0)
    # every interior point is an input p_fa, and every input p_fa is kept
    assert set(c.p_fa) == set(fa) | {0.0, 1.0}
    # lower envelope: the best p_md among inputs at or left of each point;
    # the added (0, p_md0) point repeats the first input's envelope value
    for x, y in zip(c.p_fa[:-1], c.p_md[:-1]):
        assert y == md[fa <= max(x, fa.min())].min()


def _alpha_scan(r_values, geometry):
    """Brute force: count the bin-midpoint angles whose point lies in the ROI."""
    k = geometry.n_angles
    phi = (np.arange(k) + 0.5) * (TWO_PI / k)
    roi = geometry.scenario.roi
    return np.array([roi.contains(r * np.cos(phi), r * np.sin(phi)).sum() * (TWO_PI / k)
                     for r in r_values])


coordinate = st.floats(-30.0, 30.0, allow_subnormal=False)
extent = st.floats(0.5, 30.0, allow_subnormal=False)


@DETERMINISTIC
@given(
    corner=st.tuples(coordinate, coordinate),
    size=st.tuples(extent, extent),
    resolution=st.sampled_from([1e-3, 5e-4]),
    radii=st.lists(st.floats(1e-2, 90.0, allow_subnormal=False), min_size=1, max_size=20),
)
def test_alpha_matches_angle_scan(corner, size, resolution, radii):
    (x, y), (w, h) = corner, size
    roi = Rectangle(x, y, x + w, y + h)
    r_out = math.hypot(max(abs(x), abs(x + w)), max(abs(y), abs(y + h))) + 1.0
    geometry = SectorGeometry(CircularScenario(r_out, roi), resolution)
    r = np.array(radii)
    # equal up to rounding for points within an ulp of the ROI boundary
    np.testing.assert_allclose(alpha(r, geometry), _alpha_scan(r, geometry),
                               rtol=0, atol=2 * TWO_PI / geometry.n_angles)


SIGMA = 8.0


@st.composite
def shadowing_grids(draw):
    """(nx, ny, spacing, d_c): sides of 2-20 nodes, 1-15 m apart, and a
    d_c from the finest the config allows (5 x spacing) to 1000 m."""
    nx, ny = draw(st.integers(2, 20)), draw(st.integers(2, 20))
    spacing = draw(st.floats(1.0, 15.0))
    return nx, ny, spacing, draw(st.floats(5.0 * spacing, 1000.0))


@DETERMINISTIC
@given(shadowing_grids())
@example((7, 7, 15.0, 1000.0))
@example((16, 16, 1.0, 30.0))
@example((17, 17, 5.0, 1000.0))  # the disc map's grid
@example((106, 106, 5.0, 1000.0))  # the street map's grid
@example((106, 106, 5.0, 5000.0))
def test_every_route_has_the_target_covariance(grid):
    """Every grid embeds (no EmbeddingError), and its torus covariance, the
    inverse FFT of amp^2 * mx * my, plus the offset variance c is
    sigma^2 exp(-lag/d_c) on every in-grid lag; clipping at most 1e-6 of the
    eigenvalue mass moves it by at most about 1e-6 sigma^2."""
    nx, ny, spacing, d_c = grid
    amplitudes, c = _synthesis_factor(nx, ny, spacing, SIGMA, d_c)
    my, mx = amplitudes.shape
    torus = c + np.fft.ifft2(amplitudes**2 * (mx * my)).real
    lx, ly = np.arange(nx) * spacing, np.arange(ny) * spacing
    target = SIGMA**2 * np.exp(-np.hypot(ly[:, None], lx[None, :]) / d_c)
    # lags (dy, dx) and (dy, -dx); (-dy, -dx) and (-dy, dx) are their mirrors
    for lags in (torus[:ny, :nx], torus[:ny, (-np.arange(nx)) % mx]):
        np.testing.assert_allclose(lags, target, rtol=0, atol=1.1e-6 * SIGMA**2)

"""Closed-form Neyman-Pearson verification for the circular LOS scenario.

With a single base station at the origin, no shadowing, and free-space
propagation, the attenuation is an invertible function of the distance R,
so the verification problem reduces to a scalar test on R.  Writing
alpha(r) for the angular measure of directions in which the circle of
radius r crosses the region of interest A0, the conditional densities are

    p(r | H0) = r * alpha(r) / |A0|
    p(r | H1) = r * (2*pi - alpha(r)) / |A1|

and the most powerful test thresholds their log-ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SPEED_OF_LIGHT
from .evaluation import RocCurve
from .scenario import REGION_INSIDE, REGION_OUTSIDE, CircularScenario

TWO_PI = 2.0 * math.pi

# saturated log-likelihood ratio, in bits, standing in for +/- infinity
LLR_SENTINEL_BITS = 1024.0

MIN_NP_ROC_SAMPLES = 10_000

# coarsest angular resolution of the alpha scan, in radians
MAX_RESOLUTION_RAD = 1e-3


@dataclass(frozen=True)
class SectorGeometry:
    """Circular scenario plus the angular resolution of the alpha scan."""

    scenario: CircularScenario
    resolution_rad: float

    def __post_init__(self):
        if not 0.0 < self.resolution_rad <= MAX_RESOLUTION_RAD:
            raise ValueError(f"angular resolution must lie in (0, {MAX_RESOLUTION_RAD:g}] rad")

    @property
    def area_a0(self) -> float:
        return self.scenario.roi.area

    @property
    def area_a1(self) -> float:
        return math.pi * self.scenario.r_out**2 - self.scenario.roi.area

    @property
    def n_angles(self) -> int:
        return int(math.ceil(TWO_PI / self.resolution_rad))


def radius_from_attenuation(a_db, params):
    """Distance R = c * a_lin / (4*pi*f0) with a_lin = 10**(a_db/20).

    Exact inverse of the free-space path loss in dB; attenuations whose
    linear value falls below 1 have no physical distance here.
    """
    a_lin = 10.0 ** (np.asarray(a_db, dtype=float) / 20.0)
    if np.any(a_lin < 1.0):
        raise ValueError("attenuation below free-space minimum")
    out = SPEED_OF_LIGHT * a_lin / (4.0 * math.pi * params.f0_hz)
    return float(out) if out.ndim == 0 else out


def _axis_interval(c: np.ndarray, lo_bound: float, hi_bound: float):
    """Radii r >= 0 with lo_bound <= r*c <= hi_bound, per direction cosine c."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a = lo_bound / c
        b = hi_bound / c
    lo = np.where(c > 0, a, b)
    hi = np.where(c > 0, b, a)
    zero = c == 0.0
    if np.any(zero):
        always = lo_bound <= 0.0 <= hi_bound
        lo = np.where(zero, 0.0 if always else np.inf, lo)
        hi = np.where(zero, np.inf if always else -np.inf, hi)
    return lo, hi


def _alpha_of_sorted(r_sorted: np.ndarray, geometry: SectorGeometry) -> np.ndarray:
    """Angular scan over n_angles bin midpoints, evaluated for many radii.

    For each scan angle phi the set of radii whose point (r cos phi,
    r sin phi) falls in the ROI is an interval, so counting scan hits per
    radius reduces to interval bookkeeping over the sorted radii.  This
    equals testing every (radius, angle) pair, up to floating-point
    rounding for points within an ulp of the ROI boundary.
    """
    k = geometry.n_angles
    phi = (np.arange(k) + 0.5) * (TWO_PI / k)
    roi = geometry.scenario.roi
    lo_x, hi_x = _axis_interval(np.cos(phi), roi.xmin, roi.xmax)
    lo_y, hi_y = _axis_interval(np.sin(phi), roi.ymin, roi.ymax)
    lo = np.maximum(np.maximum(lo_x, lo_y), 0.0)
    hi = np.minimum(hi_x, hi_y)
    ok = lo <= hi
    first = np.searchsorted(r_sorted, lo[ok], side="left")
    last = np.searchsorted(r_sorted, hi[ok], side="right")
    hits = np.zeros(len(r_sorted) + 1, dtype=np.int64)
    np.add.at(hits, first, 1)
    np.add.at(hits, last, -1)
    return np.cumsum(hits[:-1]) * (TWO_PI / k)


def alpha(r, geometry: SectorGeometry):
    """Angular measure (radians) of directions where radius r meets the ROI."""
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr <= 0):
        raise ValueError("radius must be positive")
    # equal radii get equal counts, so the order among ties does not matter
    order = np.argsort(arr)
    out = np.empty_like(arr)
    out[order] = _alpha_of_sorted(arr[order], geometry)
    return float(out[0]) if np.asarray(r).ndim == 0 else out


def pdf_r(r, hypothesis: int, geometry: SectorGeometry):
    """Conditional density of the UE distance under H0 (inside) or H1."""
    if hypothesis not in (0, 1):
        raise ValueError("hypothesis must be 0 or 1")
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr <= 0) or np.any(arr > geometry.scenario.r_out):
        raise ValueError("r must lie in (0, r_out]")
    al = np.atleast_1d(alpha(arr, geometry))
    if hypothesis == 0:
        out = arr * al / geometry.area_a0
    else:
        out = arr * (TWO_PI - al) / geometry.area_a1
    return float(out[0]) if np.asarray(r).ndim == 0 else out


def llr(a_db, geometry: SectorGeometry, params):
    """log2 of the H0/H1 density ratio at the distance implied by a_db.

    Geometric certainty (alpha = 0 or 2*pi) maps to the +/-1024-bit
    sentinels so threshold sweeps stay totally ordered.
    """
    out = _llr_of_alpha(alpha(np.atleast_1d(radius_from_attenuation(a_db, params)), geometry),
                        geometry)
    return float(out[0]) if np.asarray(a_db).ndim == 0 else out


def _llr_of_alpha(al: np.ndarray, geometry: SectorGeometry) -> np.ndarray:
    """llr's value from the angular measure alpha of each distance."""
    out = np.full(al.shape, -LLR_SENTINEL_BITS)
    out[al >= TWO_PI] = LLR_SENTINEL_BITS
    interior = (al > 0.0) & (al < TWO_PI)
    out[interior] = np.log2(
        geometry.area_a1 * al[interior] / (geometry.area_a0 * (TWO_PI - al[interior]))
    )
    return out


def np_roc(geometry: SectorGeometry, n_samples: int, thetas,
           rng: np.random.Generator) -> RocCurve:
    """Monte-Carlo ROC of the NP test over a grid of ratio thresholds.

    Draws n_samples positions uniformly from each region, scores their
    noiseless LOS attenuations, and estimates (P_FA, P_MD) per theta.  The
    grid is extended with theta = 0 and theta = inf so the curve reaches
    both endpoints.  The noiseless LOS attenuation is a monotone function of
    the distance, so the test scores the distance itself and no channel
    constant enters; a position nearer than c / (4*pi*f0), whose
    attenuation llr refuses, gets its LLR too.
    """
    if n_samples < MIN_NP_ROC_SAMPLES:
        raise ValueError(f"need at least {MIN_NP_ROC_SAMPLES} samples per region")
    thetas = np.asarray(thetas, dtype=float)
    if np.any(thetas <= 0):
        raise ValueError("thetas must be positive")
    scenario = geometry.scenario
    llr_by_label = []
    for region in (REGION_INSIDE, REGION_OUTSIDE):
        xy = scenario.sample_region(region, rng, n_samples)
        llr_by_label.append(np.sort(_llr_of_alpha(alpha(np.hypot(*xy.T), geometry), geometry)))
    llr0, llr1 = llr_by_label
    grid = np.concatenate([[0.0], thetas, [np.inf]])
    with np.errstate(divide="ignore"):
        log_grid = np.log2(grid)
    # label 1 (outside) iff llr < log2(theta)
    p_fa = np.searchsorted(llr0, log_grid, side="left") / n_samples
    p_md = (n_samples - np.searchsorted(llr1, log_grid, side="left")) / n_samples
    return RocCurve.from_points(p_fa, p_md, thresholds=grid)

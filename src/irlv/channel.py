"""Wireless channel model: path loss, correlated shadowing, attenuation vectors.

Attenuation in dB between a transmitter and base station n is

    a(n) = a_pl(n) + a_s(n)

where a_pl is a deterministic path-loss term (free-space for LOS links, the
standard macro-cell model for NLOS links) and a_s is zero-mean Gaussian
shadowing with exponential spatial covariance

    cov(a_s at p, a_s at q) = sigma_s^2 * exp(-|p - q| / d_c).

Shadowing is realized as one spatially correlated map per base station,
sampled on a regular grid and interpolated bilinearly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

SPEED_OF_LIGHT = 299792458.0

# Grids at or below this node count use exact dense covariance factorization;
# larger grids use FFT synthesis on a circulant embedding.
_DENSE_NODE_LIMIT = 2500


class EmbeddingError(NumericError):
    """Circulant embedding still indefinite after the last padding (d_c too large)."""


@dataclass(frozen=True)
class ChannelParams:
    """Channel constants: carrier, shadowing statistics, BS antenna elevation."""

    f0_hz: float = 2.12e9
    sigma_s_db: float = 8.0
    d_c_m: float = 75.0
    h_ap_m: float = 15.0
    c_m_s: float = SPEED_OF_LIGHT
    grid_spacing_m: float = 5.0

    def __post_init__(self):
        if self.f0_hz <= 0 or self.d_c_m <= 0 or self.h_ap_m <= 0 or self.c_m_s <= 0:
            raise ValueError("channel constants must be strictly positive")
        if self.sigma_s_db < 0:
            raise ValueError("sigma_s_db must be non-negative")
        if self.grid_spacing_m <= 0:
            raise ValueError("grid_spacing_m must be strictly positive")
        if self.grid_spacing_m > self.d_c_m / 5.0:
            raise ValueError(
                f"grid_spacing_m: grid too coarse for d_c: {self.grid_spacing_m:g} m is above "
                f"d_c_m / 5 = {self.d_c_m / 5.0:g} m"
            )


def path_loss_los_db(d, params: ChannelParams):
    """Free-space path loss 20*log10(4*pi*f0*d/c) in dB; d in meters (> 0)."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("nonpositive distance")
    out = 20.0 * np.log10(params.f0_hz * 4.0 * math.pi * d / params.c_m_s)
    return float(out) if out.ndim == 0 else out


def path_loss_nlos_db(d, params: ChannelParams):
    """Macro-cell NLOS path loss in dB for BS antenna elevation h_ap.

    40*(1 - 4e-3*h_ap)*log10(d/1km) - 18*log10(h_ap) + 21*log10(f0 in MHz) + 80
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("nonpositive distance")
    h = params.h_ap_m
    f0_mhz = params.f0_hz / 1e6
    out = (
        40.0 * (1.0 - 4e-3 * h) * np.log10(d / 1e3)
        - 18.0 * math.log10(h)
        + 21.0 * math.log10(f0_mhz)
        + 80.0
    )
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ShadowingField:
    """Correlated shadowing map in dB on a regular grid.

    values[j, i] is the shadowing at (origin_x + i*spacing, origin_y + j*spacing).
    """

    origin_x: float
    origin_y: float
    spacing: float
    values: np.ndarray
    sigma_s_db: float
    d_c_m: float
    seed: int

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    def at(self, x, y):
        """Bilinear interpolation of the grid at (x, y); scalars or arrays."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gx = (x - self.origin_x) / self.spacing
        gy = (y - self.origin_y) / self.spacing
        if np.any(gx < 0) or np.any(gx > self.nx - 1) or np.any(gy < 0) or np.any(gy > self.ny - 1):
            raise ValueError("position outside shadowing field extent")
        i0 = np.minimum(gx.astype(np.int64), self.nx - 2)
        j0 = np.minimum(gy.astype(np.int64), self.ny - 2)
        tx = gx - i0
        ty = gy - j0
        v = self.values
        out = (
            v[j0, i0] * (1 - tx) * (1 - ty)
            + v[j0, i0 + 1] * tx * (1 - ty)
            + v[j0 + 1, i0] * (1 - tx) * ty
            + v[j0 + 1, i0 + 1] * tx * ty
        )
        return float(out) if out.ndim == 0 else out


def _grid_axis(lo: float, hi: float, spacing: float) -> int:
    """Number of nodes so the grid spans at least [lo, hi]."""
    return int(math.ceil((hi - lo) / spacing - 1e-9)) + 1


def _dense_factor(nx, ny, spacing, sigma, d_c):
    """Lower Cholesky factor of the covariance of the nx*ny grid nodes (x fastest)."""
    xs = np.arange(nx) * spacing
    ys = np.arange(ny) * spacing
    gx, gy = np.meshgrid(xs, ys)
    px, py = gx.ravel(), gy.ravel()
    # one expression, so each (N, N) difference is freed once it is squared
    dist = np.sqrt((px[:, None] - px[None, :]) ** 2 + (py[:, None] - py[None, :]) ** 2)
    cov = sigma**2 * np.exp(-dist / d_c)
    cov[np.diag_indices_from(cov)] += 1e-10 * sigma**2
    return np.linalg.cholesky(cov)


def _next_fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c * 7^d * 11^e >= n, the lengths numpy's
    pocketfft transforms fastest (the value scipy.fft.next_fast_len gives)."""
    lengths = [1]
    for p in (2, 3, 5, 7, 11):
        grown = []
        for m in lengths:
            while m < n:  # a product already >= n only grows by another factor
                m *= p
                grown.append(m)
        lengths += grown
    return min(m for m in lengths if m >= n)


def _fft2(a: np.ndarray) -> np.ndarray:
    """2-D FFT of a complex array, in place, in the order scipy.fft.fft2
    runs it (first axis first), so the result matches it bit for bit.
    In place, it allocates no padded-size array per transform."""
    np.fft.fft(a, axis=0, out=a)
    return np.fft.fft(a, axis=1, out=a)


def _real_fft2(cov: np.ndarray) -> np.ndarray:
    """Real part of the 2-D FFT of a real array, bit for bit as
    scipy.fft.fft2(cov).real: rfft along the last axis, fft along the
    first, and the other half of the last axis filled from the Hermitian
    mirror of the entry that the same row-major fill reads."""
    my, mx = cov.shape
    half = np.fft.fft(np.fft.rfft(cov, axis=1), axis=0).real
    j = np.arange(my)[:, None]
    k = np.arange(mx)[None, :]
    mirror = mx - k
    rows = np.where(k < mirror, j, (-j) % my)
    rows = np.where((k == 0) | (k == mirror), np.minimum(j, (-j) % my), rows)
    return half[rows, np.minimum(k, mirror)]


def _circulant_eigenvalues(mx, my, spacing, sigma, d_c):
    ux = np.minimum(np.arange(mx), mx - np.arange(mx)) * spacing
    uy = np.minimum(np.arange(my), my - np.arange(my)) * spacing
    dist = np.sqrt(uy[:, None] ** 2 + ux[None, :] ** 2)
    cov = sigma**2 * np.exp(-dist / d_c)
    return _real_fft2(cov)


def _fft_amplitudes(nx, ny, spacing, sigma, d_c):
    """Amplitudes sqrt(lam / (mx*my)) of the circulant embedding, shape (my, mx).

    The embedded torus covariance is exact for all in-grid lags; residual
    negative eigenvalues of the embedding are clipped after padding (their
    mass may be at most 1e-6 of the positive mass after at most three
    doublings, else EmbeddingError).
    """
    mx = _next_fast_len(2 * nx)
    my = _next_fast_len(2 * ny)
    for doubling in range(4):
        lam = _circulant_eigenvalues(mx, my, spacing, sigma, d_c)
        neg, pos = -lam[lam < 0].sum(), lam[lam > 0].sum()
        if neg <= 1e-6 * pos:
            break
        if doubling == 3:
            raise EmbeddingError(
                f"circulant embedding of the {nx}x{ny} grid stays indefinite at "
                f"{mx}x{my}: negative eigenvalue mass is {neg / pos:.2g} of the positive "
                f"mass (limit 1e-06); d_c = {d_c:g} m is too large"
            )
        mx = _next_fast_len(2 * mx)
        my = _next_fast_len(2 * my)
    lam = np.clip(lam, 0.0, None)
    return np.sqrt(lam / (mx * my))


# A dense factor at the node limit is 50 MB, so only two grids are kept.
# Failures (EmbeddingError) are not cached.
@functools.lru_cache(maxsize=2)
def _synthesis_factor(dense, nx, ny, spacing, sigma, d_c):
    """Read-only per-grid factor: the Cholesky factor of the grid covariance
    (dense) or the circulant-embedding amplitudes (FFT).  It depends only on
    the grid and the covariance, so every field on that grid shares it."""
    build = _dense_factor if dense else _fft_amplitudes
    factor = build(nx, ny, spacing, sigma, d_c)
    factor.flags.writeable = False
    return factor


def _exponential_cov_dense(nx, ny, spacing, sigma, d_c, rng):
    chol = _synthesis_factor(True, nx, ny, spacing, sigma, d_c)
    z = chol @ rng.standard_normal(nx * ny)
    return z.reshape(ny, nx)


def _exponential_cov_fft(nx, ny, spacing, sigma, d_c, rng):
    """Stationary Gaussian field via circulant embedding and FFT synthesis."""
    amp = _synthesis_factor(False, nx, ny, spacing, sigma, d_c)
    my, mx = amp.shape
    xi = rng.standard_normal((my, mx)) + 1j * rng.standard_normal((my, mx))
    w = _fft2(amp * xi)
    return w.real[:ny, :nx].copy()  # a view would keep the padded array alive


def generate_shadowing_field(scenario, params: ChannelParams, seed: int) -> ShadowingField:
    """One shadowing map for one base station, deterministic given the seed.

    The grid covers the scenario bounding box.  Grid spacing resolves the
    decorrelation distance (ChannelParams enforces spacing <= d_c/5).
    """
    spacing = params.grid_spacing_m
    xmin, ymin, xmax, ymax = scenario.bounds
    nx = _grid_axis(xmin, xmax, spacing)
    ny = _grid_axis(ymin, ymax, spacing)
    sigma = params.sigma_s_db
    if sigma == 0.0:
        values = np.zeros((ny, nx))
    else:
        rng = np.random.default_rng(seed)
        if nx * ny <= _DENSE_NODE_LIMIT:
            values = _exponential_cov_dense(nx, ny, spacing, sigma, params.d_c_m, rng)
        else:
            values = _exponential_cov_fft(nx, ny, spacing, sigma, params.d_c_m, rng)
    return ShadowingField(
        origin_x=xmin,
        origin_y=ymin,
        spacing=spacing,
        values=values,
        sigma_s_db=sigma,
        d_c_m=params.d_c_m,
        seed=int(seed),
    )


def field_seed(base_seed: int, bs_index: int) -> int:
    """Stable per-base-station seed derived from a run-level field seed."""
    return int(np.random.SeedSequence([int(base_seed), int(bs_index)]).generate_state(1, np.uint64)[0])


def generate_fields(scenario, params: ChannelParams, base_seed: int) -> list[ShadowingField]:
    """One independent shadowing map per base station."""
    return [
        generate_shadowing_field(scenario, params, field_seed(base_seed, n))
        for n in range(scenario.n_bs)
    ]


def attenuation_matrix(scenario, params: ChannelParams, xy: np.ndarray, placement) -> np.ndarray:
    """Path loss in dB from (n, 2) positions to the base stations of an
    (n_bs, 2) placement; shape (n, n_bs).  Shadowing does not depend on the
    placement, so callers add it once for all (see shadowing_matrix)."""
    xy = np.asarray(xy, dtype=float)
    out = np.empty((xy.shape[0], len(placement)))
    for n, bs in enumerate(placement):
        d = np.hypot(xy[:, 0] - bs[0], xy[:, 1] - bs[1])
        los = scenario.los_mask(xy, bs)
        out[:, n] = np.where(los, path_loss_los_db(d, params), path_loss_nlos_db(d, params))
    return out


def shadowing_matrix(scenario, fields, xy: np.ndarray) -> np.ndarray:
    """Each base station's shadowing in dB at (n, 2) positions; shape
    (n, n_bs).  It depends on the positions alone, not on where the base
    stations stand."""
    if len(fields) != scenario.n_bs:
        raise ValueError("need one shadowing field per base station")
    return np.column_stack([f.at(xy[:, 0], xy[:, 1]) for f in fields])


_FIELD_MAGIC = "shadowing-field-v1"


def save_field(field: ShadowingField, path) -> None:
    """CSV grid export with a header carrying origin, spacing, and dims.

    Values are written with 17 significant digits, so
    np.loadtxt(path, delimiter=",") reads the grid back bit-exact.
    """
    with open(path, "w") as f:
        f.write(f"# {_FIELD_MAGIC}\n")
        f.write(
            "# origin_x={:.17g} origin_y={:.17g} spacing={:.17g} nx={} ny={} "
            "sigma_s_db={:.17g} d_c_m={:.17g} seed={}\n".format(
                field.origin_x,
                field.origin_y,
                field.spacing,
                field.nx,
                field.ny,
                field.sigma_s_db,
                field.d_c_m,
                field.seed,
            )
        )
        for row in field.values:
            f.write(",".join(format(v, ".17g") for v in row))
            f.write("\n")


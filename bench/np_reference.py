"""Neyman-Pearson reference for the disc map, computed without irlv.

One base station at the origin, free-space LOS attenuation and no
shadowing make the attenuation a monotone function of the distance r, so
every test is a test on r.  Uniform positions give the radius densities

    p0(r) = r * alpha(r) / |A0|            (inside the ROI)
    p1(r) = r * (2*pi - alpha(r)) / |A1|   (rest of the disc)

with alpha(r) the angle of the circle of radius r that lies in the ROI
rectangle.  The likelihood-ratio test accepts "inside" where
g(r) = p0(r) / p1(r) >= theta.  Both ROC coordinates are one-dimensional
integrals over r, done here with the midpoint rule on a fine grid.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def circle_angle_in_rectangle(r, xmin, ymin, xmax, ymax) -> np.ndarray:
    """Angle (radians) of the origin-centred circle of radius r inside the
    closed rectangle, for an array of radii.

    The circle crosses the rectangle's edge lines at no more than eight
    angles; between consecutive crossings it is either inside or outside,
    which the arc midpoint decides.
    """
    r = np.asarray(r, dtype=float)[:, None]
    with np.errstate(invalid="ignore"):
        cx = np.arccos(np.array([xmin, xmax])[None, :] / r)
        sy = np.arcsin(np.array([ymin, ymax])[None, :] / r)
    cuts = np.concatenate([cx, -cx, sy, math.pi - sy], axis=1)
    cuts = np.where(np.isnan(cuts), 0.0, np.mod(cuts, TWO_PI))
    n = len(r)
    cuts = np.sort(np.concatenate([np.zeros((n, 1)), cuts, np.full((n, 1), TWO_PI)], axis=1), axis=1)
    mid = 0.5 * (cuts[:, 1:] + cuts[:, :-1])
    x, y = r * np.cos(mid), r * np.sin(mid)
    inside = (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)
    return np.sum(np.diff(cuts, axis=1) * inside, axis=1)


def _curve_auc(p_fa, p_md) -> float:
    fa = np.asarray(p_fa, dtype=float)
    md = np.asarray(p_md, dtype=float)
    return float(np.sum(np.diff(fa) * (md[1:] + md[:-1]) * 0.5))


def reference_aucs(r_out, roi, thetas, fa_grid, n_cells=200_000):
    """(sampled, optimal) AUC of the likelihood-ratio test on the disc.

    roi is (xmin, ymin, xmax, ymax).  `sampled` is the ROC at the given
    ratio thresholds plus theta = 0 and infinity, interpolated linearly
    onto fa_grid and integrated by trapezoids: the quantity the program
    estimates by Monte Carlo.  `optimal` is the area under the exact
    likelihood-ratio ROC, the least AUC any test can reach.
    """
    xmin, ymin, xmax, ymax = roi
    area0 = (xmax - xmin) * (ymax - ymin)
    area1 = math.pi * r_out**2 - area0
    dr = r_out / n_cells
    r = (np.arange(n_cells) + 0.5) * dr
    al = np.concatenate([
        circle_angle_in_rectangle(chunk, xmin, ymin, xmax, ymax)
        for chunk in np.array_split(r, max(1, n_cells // 20_000))
    ])
    w0 = r * al * dr / area0
    w1 = r * (TWO_PI - al) * dr / area1
    if abs(w0.sum() - 1.0) > 1e-4 or abs(w1.sum() - 1.0) > 1e-4:
        raise ValueError("radius densities do not integrate to one")
    w0, w1 = w0 / w0.sum(), w1 / w1.sum()
    g = (area1 * al) / (area0 * (TWO_PI - al))

    # decide "outside" iff g < theta
    order = np.argsort(g)
    g_sorted = g[order]
    cum0 = np.concatenate([[0.0], np.cumsum(w0[order])])
    cum1 = np.concatenate([[0.0], np.cumsum(w1[order])])
    grid = np.concatenate([[0.0], np.asarray(thetas, dtype=float), [np.inf]])
    below = np.searchsorted(g_sorted, grid, side="left")
    p_fa = cum0[below]
    p_md = 1.0 - cum1[below]
    # one point per distinct p_fa, the lowest p_md (the last theta) of a tie
    fa, last = np.unique(p_fa[::-1], return_index=True)
    md = p_md[::-1][last]
    sampled_md = np.interp(fa_grid, fa, md)
    sampled_md[-1] = 0.0
    sampled = _curve_auc(fa_grid, sampled_md)

    # exact ROC: reject the cells of smallest likelihood ratio first
    optimal = _curve_auc(cum0, 1.0 - cum1)
    return sampled, optimal

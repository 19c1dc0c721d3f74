"""ROC construction, AUC integration, curve averaging, complexity accounting.

The curve convention is missed-detection probability P_MD as a function of
false-alarm probability P_FA, so lower is better everywhere: a perfect
verifier has AUC 0 and pure guessing has AUC 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class RocCurve:
    """Operating points sorted by p_fa, deduplicated, lower-envelope clean.

    thresholds (optional) carries the decision threshold that produced each
    retained point: score thresholds lambda for verifier curves, ratio
    thresholds theta for likelihood-ratio curves.
    """

    p_fa: np.ndarray
    p_md: np.ndarray
    thresholds: np.ndarray | None = None

    def __post_init__(self):
        fa, md = self.p_fa, self.p_md
        if fa.shape != md.shape or fa.ndim != 1 or len(fa) < 2:
            raise ValueError("a curve needs aligned 1-D arrays of >= 2 points")
        if self.thresholds is not None and self.thresholds.shape != fa.shape:
            raise ValueError("thresholds must align with the points")
        if np.any((fa < 0) | (fa > 1)) or np.any((md < 0) | (md > 1)):
            raise ValueError("probabilities must lie in [0, 1]")
        if fa[0] != 0.0 or fa[-1] != 1.0 or md[-1] != 0.0:
            raise ValueError("curve must span (0, p_md0) to (1, 0)")
        if np.any(np.diff(fa) <= 0) or np.any(np.diff(md) > 0):
            raise ValueError("curve must be strictly increasing in p_fa, non-increasing in p_md")

    def __len__(self) -> int:
        return len(self.p_fa)

    @classmethod
    def from_points(cls, p_fa, p_md, thresholds=None) -> "RocCurve":
        """Build a valid curve from raw operating points.

        Sorts by p_fa, keeps the best (lowest) p_md per distinct p_fa,
        applies a running-minimum lower envelope, and completes the
        (0, p_md0) / (1, 0) endpoints, which every thresholded decision
        family attains in the always-accept / always-reject limits.
        """
        fa = np.asarray(p_fa, dtype=float)
        md = np.asarray(p_md, dtype=float)
        if fa.shape != md.shape or fa.ndim != 1 or fa.size == 0:
            raise ValueError("need aligned nonempty p_fa and p_md")
        # absent thresholds ride along as NaN, and come back out as None
        th = np.full(fa.shape, np.nan) if thresholds is None else np.asarray(thresholds, float)
        # best p_md first within each p_fa so the dedup below keeps it
        order = np.lexsort((md, fa))
        fa, md, th = fa[order], md[order], th[order]
        keep = np.concatenate([[True], np.diff(fa) > 0])
        fa, md, th = fa[keep], md[keep], th[keep]
        md = np.minimum.accumulate(md)
        if fa[0] != 0.0:
            fa = np.concatenate([[0.0], fa])
            md = np.concatenate([[md[0]], md])
            th = np.concatenate([[np.nan], th])
        if fa[-1] != 1.0:
            fa = np.concatenate([fa, [1.0]])
            md = np.concatenate([md, [0.0]])
            th = np.concatenate([th, [np.nan]])
        else:
            # always-reject limit dominates whatever was observed at p_fa = 1
            md[-1] = 0.0
        return cls(p_fa=fa, p_md=md, thresholds=None if thresholds is None else th)


def empirical_roc(scores, labels) -> RocCurve:
    """ROC of thresholded scores: for each distinct score value lambda,
    p_fa = fraction of label-0 scores strictly above lambda and
    p_md = fraction of label-1 scores at or below it."""
    s = np.asarray(scores, dtype=float)
    t = np.asarray(labels)
    if s.shape != t.shape or s.ndim != 1:
        raise ValueError("scores and labels must be aligned 1-D arrays")
    s0 = np.sort(s[t == 0])
    s1 = np.sort(s[t == 1])
    if len(s0) == 0 or len(s1) == 0:
        raise NumericError("both classes must be present")
    # distinct values by sort and adjacent differences, as np.unique finds
    # them, without np.unique's import of numpy.ma (scores are never NaN)
    lams = np.sort(np.concatenate([s, [0.0]]))
    lams = lams[np.concatenate([[True], lams[1:] != lams[:-1]])]
    p_fa = (len(s0) - np.searchsorted(s0, lams, side="right")) / len(s0)
    p_md = np.searchsorted(s1, lams, side="right") / len(s1)
    return RocCurve.from_points(p_fa, p_md, thresholds=lams)


def auc(roc: RocCurve) -> float:
    """Trapezoidal integral of p_md over p_fa on [0, 1]; lower is better."""
    return float(np.trapezoid(roc.p_md, roc.p_fa))


DEFAULT_FA_GRID = np.linspace(0.0, 1.0, 200)


def average_roc(curves) -> RocCurve:
    """Pointwise mean of curves linearly interpolated onto DEFAULT_FA_GRID."""
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve")
    md = np.mean([np.interp(DEFAULT_FA_GRID, c.p_fa, c.p_md) for c in curves], axis=0)
    return RocCurve.from_points(DEFAULT_FA_GRID, md)


@dataclass(frozen=True)
class ComplexityReport:
    """Operation counts (multiply + add) for one verification campaign."""

    c_out: int
    c_roc: int
    c_auc: int
    c_test: int


def complexity_report(n_ap: int, n_h: int, n_l: int, tau: int, p: int = 1) -> ComplexityReport:
    """Operation counts for evaluating tau attenuation vectors on P networks.

    c_out covers the forward passes: 2*N_ap*N_h input products, 2*N_h^2 per
    hidden-to-hidden matrix (N_l of them), 2*N_h output products, all times
    tau.  c_roc models the sort-and-sweep ROC construction over tau scores
    (tau*ceil(log2 tau) comparisons plus two counting passes) and c_auc the
    trapezoidal rule over at most tau + 1 intervals (4 ops each).
    c_test = P * (c_out + c_roc + c_auc).
    """
    if min(n_ap, n_h, n_l, tau, p) < 0 or n_ap < 1 or tau < 1 or p < 1:
        raise ValueError("counts must be positive (n_h, n_l may be zero)")
    c_out = (2 * n_ap * n_h + 2 * n_h * n_h * n_l + 2 * n_h) * tau
    c_roc = tau * int(np.ceil(np.log2(tau))) + 2 * tau if tau > 1 else 2
    c_auc = 4 * (tau + 1)
    return ComplexityReport(
        c_out=c_out, c_roc=c_roc, c_auc=c_auc, c_test=p * (c_out + c_roc + c_auc)
    )


def roc_to_csv(roc: RocCurve, path) -> None:
    """CSV export: theta, p_fa, p_md when thresholds are carried, else p_fa, p_md."""
    columns = {"theta": roc.thresholds, "p_fa": roc.p_fa, "p_md": roc.p_md}
    columns = {name: values for name, values in columns.items() if values is not None}
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        f.writelines(row % values for values in zip(*columns.values()))

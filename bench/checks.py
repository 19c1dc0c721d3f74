"""Output checks for the benchmark workloads.

Every check recomputes what it compares against, from the config or from
a property the method must have; none compares with stored outputs.  A
failed check raises CheckFailed naming the file and the property.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from np_reference import reference_aucs

# a statistical check fails only beyond this many standard deviations
N_SIGMA = 5.0


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    require(rows, f"{path.name}: empty file")
    return rows[0], rows[1:]


def read_curve(path: Path) -> tuple[np.ndarray, np.ndarray]:
    header, rows = read_table(path)
    require(header[-2:] == ["p_fa", "p_md"], f"{path.name}: unexpected header {header}")
    data = np.array([[float(v) for v in row[-2:]] for row in rows])
    return data[:, 0], data[:, 1]


def trapezoid(x, y) -> float:
    return float(sum((x[i + 1] - x[i]) * (y[i] + y[i + 1]) * 0.5 for i in range(len(x) - 1)))


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def check_curve(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """A ROC curve runs from p_fa = 0 to (1, 0), p_fa strictly rising and
    p_md never rising."""
    fa, md = read_curve(path)
    name = path.name
    require(len(fa) >= 2, f"{name}: fewer than two points")
    require(fa[0] == 0.0 and fa[-1] == 1.0, f"{name}: p_fa does not run from 0 to 1")
    require(md[-1] == 0.0, f"{name}: curve does not end at (1, 0)")
    require(np.all(np.diff(fa) > 0), f"{name}: p_fa does not rise strictly")
    require(np.all(np.diff(md) <= 0), f"{name}: p_md rises")
    require(np.all((md >= 0) & (md <= 1)), f"{name}: p_md outside [0, 1]")
    return fa, md


def check_manifest(out_dir: Path) -> dict:
    """Every file the manifest lists exists and has the listed sha256."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    outputs = manifest["outputs"]
    require(outputs, "manifest lists no outputs")
    for name, digest in outputs.items():
        path = out_dir / name
        require(path.is_file(), f"manifest names a missing file {name}")
        require(hashlib.sha256(path.read_bytes()).hexdigest() == digest,
                f"{name}: sha256 differs from the manifest")
    return outputs


def check_same_outputs(first: dict, other: dict, label: str) -> None:
    require(other == first, f"{label}: manifest outputs differ from the first run's")


def check_roc_sweep(out_dir: Path, cfg: dict) -> None:
    sweep = cfg["sweep"]
    header, rows = read_table(out_dir / "auc_summary.csv")
    require(header == ["n_hidden", "s_total", "seed", "auc"], "auc_summary.csv: unexpected header")
    summary = {(int(r[0]), int(r[1]), r[2]): float(r[3]) for r in rows}
    for nh in sweep["n_hidden"]:
        for s in sweep["s_total"]:
            curves = []
            for k in range(sweep["n_seeds"]):
                path = out_dir / f"roc_nh{nh}_s{s}_seed{k}.csv"
                fa, md = check_curve(path)
                curves.append((fa, md))
                require(close(summary[(nh, s, str(k))], trapezoid(fa, md)),
                        f"{path.name}: AUC in auc_summary.csv is not the curve's trapezoid")
            path = out_dir / f"roc_nh{nh}_s{s}_mean.csv"
            fa, md = check_curve(path)
            expected = np.mean([np.interp(fa, cfa, cmd) for cfa, cmd in curves], axis=0)
            require(np.allclose(md, expected, rtol=0.0, atol=1e-12),
                    f"{path.name}: not the pointwise mean of its per-seed curves")
            mean_auc = summary[(nh, s, "mean")]
            require(close(mean_auc, trapezoid(fa, md)),
                    f"{path.name}: mean AUC in auc_summary.csv is not the curve's trapezoid")
            require(mean_auc < 0.5, f"{path.name}: mean AUC {mean_auc} is no better than guessing")


def check_plan_pso(out_dir: Path, cfg: dict) -> None:
    pso = cfg["pso"]
    objectives = ["ce", "auc"] if pso["objective"] == "both" else [pso["objective"]]
    side = cfg["scenario"]["map_side"]
    # stall_iterations > max_iterations: no run can stop early
    n_rows = pso["max_iterations"] + 1 if pso["stall_iterations"] > pso["max_iterations"] else None
    for obj in objectives:
        aucs = []
        for k in range(cfg["sweep"]["n_seeds"]):
            name = f"plan_{obj}_seed{k}.csv"
            header, rows = read_table(out_dir / name)
            require(header == ["iteration", "best_objective", "best_auc"], f"{name}: unexpected header")
            require([int(r[0]) for r in rows] == list(range(len(rows))), f"{name}: iterations not 0, 1, ...")
            require(n_rows is None or len(rows) == n_rows, f"{name}: {len(rows)} rows, expected {n_rows}")
            best = [float(r[1]) for r in rows]
            require(all(b <= a for a, b in zip(best, best[1:])), f"{name}: best objective rises")
            if obj == "auc":
                require(all(r[1] == r[2] for r in rows), f"{name}: best_objective != best_auc")
            auc = [float(r[2]) for r in rows]
            require(all(0.0 <= a <= 1.0 for a in auc), f"{name}: best_auc outside [0, 1]")
            aucs.append(auc)
        name = f"plan_{obj}_placements.csv"
        header, rows = read_table(out_dir / name)
        require(header == ["seed", "bs_index", "x", "y"], f"{name}: unexpected header")
        require(len(rows) == 5 * len(aucs), f"{name}: not the street map's five base stations per seed")
        for r in rows:
            x, y = float(r[2]), float(r[3])
            require(0.0 <= x <= side and 0.0 <= y <= side, f"{name}: placement ({x}, {y}) off the map")
        name = f"plan_{obj}_mean.csv"
        header, rows = read_table(out_dir / name)
        width = max(len(a) for a in aucs)
        expected = np.mean([a + [a[-1]] * (width - len(a)) for a in aucs], axis=0)
        got = np.array([float(r[1]) for r in rows])
        require(got.shape == expected.shape and np.allclose(got, expected, rtol=1e-12, atol=0.0),
                f"{name}: not the mean of the per-seed best_auc columns")


def lag_estimate_sd(nx, ny, spacing, sigma, d_c, k, n_real) -> float:
    """Standard deviation of the field command's lag-k covariance estimate.

    The estimate averages v(a) * v(a + k*e) over all in-grid pairs along
    both axes and over n_real independent realizations of a zero-mean
    Gaussian field with covariance c(d) = sigma^2 exp(-|d| / d_c).  By
    Isserlis' theorem the covariance of two such products is
    c(a_p - a_q) c(b_p - b_q) + c(a_p - b_q) c(b_p - a_q); summing it over
    all pairs needs only the number of left-end pairs at each grid
    displacement, which for two rectangles of left ends is a product of
    two interval overlaps.
    """
    def c(dx, dy):
        return sigma**2 * np.exp(-np.hypot(dx, dy) * spacing / d_c)

    def overlap(a, b, d):
        # pairs s in [0, a), t in [0, b) with s - t = d
        return np.maximum(0, np.minimum(b, a - d) - np.maximum(0, -d))

    if k == 0:
        sets = [((nx, ny), (0, 0))]
    else:
        sets = [((nx - k, ny), (k, 0)), ((nx, ny - k), (0, k))]
    dx = np.arange(-(nx - 1), nx)[None, :]
    dy = np.arange(-(ny - 1), ny)[:, None]
    n_pairs = sum(ex * ey for (ex, ey), _ in sets)
    total = 0.0
    for (pex, pey), (pux, puy) in sets:
        for (qex, qey), (qux, quy) in sets:
            count = overlap(pex, qex, dx) * overlap(pey, qey, dy)
            cov = (c(dx, dy) * c(dx + pux - qux, dy + puy - quy)
                   + c(dx - qux, dy - quy) * c(dx + pux, dy + puy))
            total += float(np.sum(count * cov))
    return math.sqrt(total / n_pairs**2 / n_real)


def check_field_dense(out_dir: Path, cfg: dict) -> None:
    ch = cfg["channel"]
    sigma, d_c, spacing = ch["sigma_s_db"], ch["d_c_m"], ch["grid_spacing_m"]
    n_real = cfg["sweep"]["n_field_realizations"]
    n = math.ceil(cfg["scenario"]["map_side"] / spacing - 1e-9) + 1
    for b in range(5):  # the street map's five base stations
        name = f"field_bs{b}.csv"
        with open(out_dir / name) as f:
            require(f.readline().strip() == "# shadowing-field-v1", f"{name}: bad magic line")
            header = dict(item.split("=", 1) for item in f.readline().lstrip("# ").split())
            values = np.array([[float(v) for v in line.split(",")] for line in f])
        require(int(header["nx"]) == n and int(header["ny"]) == n and values.shape == (n, n),
                f"{name}: grid is not {n} x {n}")
        require(np.all(np.isfinite(values)), f"{name}: non-finite values")
    header, rows = read_table(out_dir / "field_cov.csv")
    require(header == ["lag_m", "empirical", "theory", "rel_err"], "field_cov.csv: unexpected header")
    max_k = int(math.floor(2.0 * d_c / spacing + 1e-9))
    require(len(rows) == max_k + 1, f"field_cov.csv: {len(rows)} lags, expected {max_k + 1}")
    max_rel = 0.0
    for k, row in enumerate(rows):
        lag, emp, theory, rel = (float(v) for v in row)
        require(close(lag, k * spacing), f"field_cov.csv: lag {lag} is not {k} * spacing")
        require(close(theory, sigma**2 * math.exp(-lag / d_c), rel=1e-12),
                f"field_cov.csv: theory at lag {lag} is not sigma^2 exp(-lag/d_c)")
        tol = N_SIGMA * lag_estimate_sd(n, n, spacing, sigma, d_c, k, n_real)
        require(abs(emp - theory) <= tol,
                f"field_cov.csv: empirical {emp} at lag {lag} is more than {tol:.3g} from {theory}")
        require(close(rel, abs(emp - theory) / theory), f"field_cov.csv: rel_err at lag {lag}")
        max_rel = max(max_rel, rel)
    summary = json.loads((out_dir / "summary.json").read_text())
    require(summary["n_realizations"] == n_real, "summary.json: wrong realization count")
    require(summary["max_rel_err"] == max_rel, "summary.json: max_rel_err is not the column maximum")


def check_np_compare(out_dir: Path, cfg: dict) -> None:
    sc, data, ev = cfg["scenario"], cfg["dataset"], cfg["eval"]
    summary = json.loads((out_dir / "summary.json").read_text())
    nn_fa, nn_md = check_curve(out_dir / "nn_roc.csv")
    np_fa, np_md = check_curve(out_dir / "np_roc.csv")
    require(np.array_equal(nn_fa, np_fa), "nn_roc.csv and np_roc.csv use different p_fa grids")
    require(close(summary["auc_nn"], trapezoid(nn_fa, nn_md)), "summary.json: auc_nn is not nn_roc.csv's area")
    require(close(summary["auc_np"], trapezoid(np_fa, np_md)), "summary.json: auc_np is not np_roc.csv's area")
    require(close(summary["max_vertical_gap"], float(np.max(np.abs(nn_md - np_md)))),
            "summary.json: max_vertical_gap is not the largest p_md difference")

    # the thresholds cmd_np_compare sweeps
    thetas = np.exp2(np.linspace(-16.0, 4.0, ev["n_thetas"]))
    roi = (sc["r_min"], -0.5 * sc["roi_height"], sc["r_min"] + sc["roi_width"], 0.5 * sc["roi_height"])
    sampled, optimal = reference_aucs(sc["r_out"], roi, thetas, np_fa)
    # Var(AUC estimate) <= A (1 - A) / n for at least n draws per class
    n_np = max(ev["n_np_samples"], 10_000)
    tol = N_SIGMA * math.sqrt(sampled * (1.0 - sampled) / n_np)
    require(abs(summary["auc_np"] - sampled) <= tol,
            f"auc_np {summary['auc_np']} is more than {tol:.3g} from the reference {sampled}")
    # no test beats the likelihood-ratio test; the net is scored on the test split
    n_test = data["s_total"] - math.floor(data["train_frac"] * data["s_total"])
    # the random split leaves each class near its share; 0.9 allows for less
    n_class = 0.9 * n_test * min(data["p0"], 1.0 - data["p0"])
    tol = N_SIGMA * math.sqrt(optimal * (1.0 - optimal) / n_class)
    require(summary["auc_nn"] >= optimal - tol,
            f"auc_nn {summary['auc_nn']} beats the optimal test's {optimal} by more than {tol:.3g}")

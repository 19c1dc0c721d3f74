"""Experiment driver: roc, np-compare, plan, and field subcommands.

Every run is a pure function of (config, seeds): identical inputs produce
byte-identical CSVs, and a manifest written at run end references each
emitted file by content hash.  Each command is a runner(cfg, out, jobs)
that writes every file to the path out(name) returns, which records the
name for the manifest.  Exit codes: 0 success, 2 config error,
3 numeric failure (a NumericError, raised only at the known degenerate
points); any other error is a bug and shows its traceback.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channel import generate_fields, generate_shadowing_field, save_field
from .config import ConfigError, OBJECTIVE_BOTH, RunConfig, Seeds, default_config_path, load_config
from .errors import NumericError
from .evaluation import auc, average_roc, roc_to_csv
from .mlp import train  # noqa: F401  bench/tests/test_bench.py checks that tracing patches it here
from .neyman_pearson import SectorGeometry, np_roc
from .planner import (
    OBJECTIVE_AUC,
    OBJECTIVE_CE,
    PlacementEvalConfig,
    evaluate_placement,
    plan_placement,
)
from .scenario import CircularScenario, StreetScenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _map_jobs(fn, payloads, jobs: int):
    """Run independent jobs, preserving payload order in the results."""
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(*p) for p in payloads]
    # imported here, so a serial run never loads the process pool's modules
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # forkserver, Python 3.14's default: from 3.12 on, forking a process that
    # runs threads raises a DeprecationWarning, and OpenBLAS starts some for a
    # caller who sets OPENBLAS_NUM_THREADS above irlv's default of 1
    context = multiprocessing.get_context("forkserver")
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads)), mp_context=context) as pool:
        futures = [pool.submit(fn, *p) for p in payloads]
        return [f.result() for f in futures]


def _evaluate_task(scenario, cfg: PlacementEvalConfig, seeds: Seeds):
    """Score the scenario's placement on fields drawn for this task alone
    (inside the job, so no task holds another task's fields)."""
    fields = generate_fields(scenario, cfg.channel, seeds.field)
    return evaluate_placement(scenario, fields, cfg, seeds, np.array([scenario.bs_positions]))[0]


def cmd_roc(cfg: RunConfig, out, jobs: int) -> None:
    """Per-seed and seed-averaged test ROC curves over the configured sweep."""
    combos = [(nh, s) for nh in cfg.sweep.n_hidden for s in cfg.sweep.s_total]
    tasks = [(nh, s, k) for nh, s in combos for k in range(cfg.sweep.n_seeds)]
    payloads = [(cfg.scenario, dataclasses.replace(cfg.placement, n_hidden=nh, s_total=s),
                 cfg.seeds.shifted(k)) for nh, s, k in tasks]
    scores = _map_jobs(_evaluate_task, payloads, jobs)
    curves = {task: score.roc for task, score in zip(tasks, scores)}
    summary = ["n_hidden,s_total,seed,auc"]
    for nh, s in combos:
        per_seed = []
        for k in range(cfg.sweep.n_seeds):
            roc = curves[(nh, s, k)]
            roc_to_csv(roc, out(f"roc_nh{nh}_s{s}_seed{k}.csv"))
            per_seed.append(roc)
            summary.append(f"{nh},{s},{k},{auc(roc):.17g}")
        mean_curve = average_roc(per_seed)
        roc_to_csv(mean_curve, out(f"roc_nh{nh}_s{s}_mean.csv"))
        summary.append(f"{nh},{s},mean,{auc(mean_curve):.17g}")
    _write_lines(out("auc_summary.csv"), summary)


def cmd_np_compare(cfg: RunConfig, out, jobs: int) -> None:
    """Net and likelihood-ratio-test ROCs on the same disc geometry.

    Both tests see the deterministic line-of-sight channel the reference
    test is derived for, so the shadowing deviation is forced to zero.
    """
    scenario = cfg.scenario
    params = dataclasses.replace(cfg.placement.channel, sigma_s_db=0.0)
    task = dataclasses.replace(cfg.placement, channel=params)
    nn_curve = _evaluate_task(scenario, task, cfg.seeds).roc

    geometry = SectorGeometry(scenario, cfg.eval.resolution_rad)
    thetas = np.exp2(np.linspace(-16.0, 4.0, cfg.eval.n_thetas))
    rng = np.random.default_rng([cfg.seeds.dataset, 1])
    np_curve = np_roc(geometry, cfg.eval.n_np_samples, thetas, rng)

    nn_grid = average_roc([nn_curve])
    np_grid = average_roc([np_curve])
    roc_to_csv(nn_grid, out("nn_roc.csv"))
    roc_to_csv(np_grid, out("np_roc.csv"))
    gap = float(np.max(np.abs(nn_grid.p_md - np_grid.p_md)))
    _write_json(out("summary.json"), {
        "auc_nn": auc(nn_grid),
        "auc_np": auc(np_grid),
        "max_vertical_gap": gap,
        "geometry": {
            "r_out": scenario.r_out,
            "roi_width": scenario.roi.xmax - scenario.roi.xmin,
            "roi_height": scenario.roi.ymax - scenario.roi.ymin,
            "r_min": scenario.r_min,
        },
        "n_np_samples": cfg.eval.n_np_samples,
        "s_total": cfg.placement.s_total,
    })


def proxy_validity_flags(objective: str, mean_auc) -> list[str]:
    """The training loss is a valid planning surrogate only with enough
    data; an upward mean-AUC trend during a CE-objective run marks the
    regime where it is not."""
    if objective == OBJECTIVE_CE and len(mean_auc) >= 2 and mean_auc[-1] > mean_auc[0]:
        return ["below proxy-validity size"]
    return []


def cmd_plan(cfg: RunConfig, out, jobs: int) -> None:
    """Placement searches per objective and seed, with best-value history
    CSVs and the per-iteration mean AUC across seeds.

    A seed's searches differ only in their objective, so they run as one
    job in lockstep (see plan_placement); --jobs splits the seeds.
    """
    objectives = (
        [OBJECTIVE_CE, OBJECTIVE_AUC] if cfg.objective == OBJECTIVE_BOTH
        else [cfg.objective]
    )
    payloads = [(cfg.scenario, cfg.placement, cfg.seeds.shifted(k), cfg.pso, objectives)
                for k in range(cfg.sweep.n_seeds)]
    runs = {(obj, k): run for k, seed_runs in enumerate(_map_jobs(plan_placement, payloads, jobs))
            for obj, run in zip(objectives, seed_runs)}
    summary = {}
    for obj in objectives:
        series = []
        placements = ["seed,bs_index,x,y"]
        converged = []
        for k in range(cfg.sweep.n_seeds):
            result, aucs = runs[(obj, k)]
            lines = ["iteration,best_objective,best_auc"]
            lines += [
                f"{i},{value:.17g},{a:.17g}"
                for i, (value, a) in enumerate(zip(result.history, aucs))
            ]
            _write_lines(out(f"plan_{obj}_seed{k}.csv"), lines)
            series.append(aucs)
            converged.append(result.converged)
            for b, (x, y) in enumerate(result.best_x.reshape(-1, 2)):
                placements.append(f"{k},{b},{x:.17g},{y:.17g}")
        # common iteration grid: stalled runs hold their final value
        width = max(len(s) for s in series)
        padded = np.array([s + [s[-1]] * (width - len(s)) for s in series])
        mean_auc = padded.mean(axis=0)
        _write_lines(out(f"plan_{obj}_mean.csv"), ["iteration,mean_auc"] + [
            f"{i},{v:.17g}" for i, v in enumerate(mean_auc)
        ])
        _write_lines(out(f"plan_{obj}_placements.csv"), placements)
        summary[obj] = {
            "initial_mean_auc": float(mean_auc[0]),
            "final_mean_auc": float(mean_auc[-1]),
            "flags": proxy_validity_flags(obj, mean_auc),
            "converged": converged,
            "s_total": cfg.placement.s_total,
        }
    _write_json(out("summary.json"), summary)


def cmd_field(cfg: RunConfig, out, jobs: int) -> None:
    """Shadowing field export plus an empirical-vs-theory covariance check.

    The field is zero-mean by construction, so the covariance estimate is
    a plain product average over realizations, along both grid axes.
    """
    scenario, params, seeds = cfg.scenario, cfg.placement.channel, cfg.seeds
    fields = generate_fields(scenario, params, seeds.field)
    for n, f in enumerate(fields):
        save_field(f, out(f"field_bs{n}.csv"))

    spacing = params.grid_spacing_m
    max_k = int(math.floor(2.0 * params.d_c_m / spacing + 1e-9))
    sums = np.zeros(max_k + 1)
    counts = np.zeros(max_k + 1)
    n_real = cfg.sweep.n_field_realizations
    for r in range(n_real):
        v = generate_shadowing_field(scenario, params, seeds.field + r).values
        sums[0] += np.sum(v * v)
        counts[0] += v.size
        for k in range(1, max_k + 1):
            # a lag beyond the grid slices to empty pairs, which add nothing
            for a, b in ((v[:, :-k], v[:, k:]), (v[:-k], v[k:])):
                sums[k] += np.sum(a * b)
                counts[k] += b.size
    rows = ["lag_m,empirical,theory,rel_err"]
    max_rel_err = 0.0
    for k in range(max_k + 1):
        if counts[k] == 0:
            continue
        lag = k * spacing
        emp = sums[k] / counts[k]
        theory = params.sigma_s_db**2 * math.exp(-lag / params.d_c_m)
        # sigma_s_db = 0 zeroes the theory curve; fall back to the absolute gap
        rel = abs(emp - theory) / theory if theory > 0.0 else abs(emp)
        max_rel_err = max(max_rel_err, rel)
        rows.append(f"{lag:.17g},{emp:.17g},{theory:.17g},{rel:.17g}")
    _write_lines(out("field_cov.csv"), rows)
    _write_json(out("summary.json"), {
        "n_realizations": n_real,
        "max_rel_err": max_rel_err,
        "grid": {"nx": fields[0].nx, "ny": fields[0].ny, "spacing_m": spacing},
    })


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config_path: Path,
                    seeds: Seeds, seed_offset: int, names: list[str]) -> None:
    manifest = {
        "command": command,
        "config_sha256": _sha256(Path(config_path)),
        "seed_offset": seed_offset,
        "seeds": dataclasses.asdict(seeds),
        "outputs": {name: _sha256(out_dir / name) for name in sorted(names)},
        "versions": {
            "irlv": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    tmp = out_dir / "manifest.json.tmp"
    _write_json(tmp, manifest)
    os.replace(tmp, out_dir / "manifest.json")


def _job_count(text: str) -> int:
    """--jobs: a whole number of worker processes, at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    # command -> (runner, help, the scenario class it needs, object for any);
    # built per call, so it holds whatever runner the module attribute names
    commands = {
        "roc": (cmd_roc, "test ROC curves over the hidden-size/sample-count sweep", object),
        "np-compare": (cmd_np_compare, "net vs likelihood-ratio oracle on the disc scenario",
                       CircularScenario),
        # the disc scenario pins its base station at the origin (the oracle's
        # geometry), so there is nothing to place there
        "plan": (cmd_plan, "swarm search over base-station placements", StreetScenario),
        "field": (cmd_field, "shadowing field export and covariance diagnostic", object),
    }
    parser = argparse.ArgumentParser(
        prog="irlv",
        description="In-region location verification experiments: "
                    "synthetic channel data, net training, oracle comparison, "
                    "and base-station placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb, _) in commands.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", type=Path, default=None,
                       help="INI config (default: shipped paper.cfg)")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: [output] directory)")
        p.add_argument("--seed-offset", type=int, default=0,
                       help="added to every configured seed")
        p.add_argument("--jobs", type=_job_count, default=1,
                       help="parallel sweep jobs")
    args = parser.parse_args(argv)
    runner, _, scenario_class = commands[args.command]
    config_path = args.config if args.config is not None else default_config_path()
    try:
        loaded = load_config(config_path)
        if not isinstance(loaded.scenario, scenario_class):
            kind = scenario_class.__name__.removesuffix("Scenario").lower()
            raise ConfigError(f"[scenario] kind: {args.command} requires the {kind} scenario")
        try:
            cfg = dataclasses.replace(loaded, seeds=loaded.seeds.shifted(args.seed_offset))
        except ValueError as exc:
            raise ConfigError(f"--seed-offset {args.seed_offset}: shifted [seeds] {exc}") from None
        out_dir = Path(args.out or cfg.directory)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            where = "--out" if args.out else "[output] directory"
            raise ConfigError(f"{where} {out_dir}: {exc.strerror}") from None
        names = []  # the files the run writes, in order

        def out(name: str) -> Path:
            names.append(name)
            return out_dir / name

        runner(cfg, out, args.jobs)
        _write_manifest(out_dir, args.command, config_path, loaded.seeds, args.seed_offset, names)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"wrote {len(names)} files and manifest.json to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

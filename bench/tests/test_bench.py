"""The benchmark's own tests: tracing leaves the outputs alone and restores
every function, --jobs does not change the outputs, and every output check
passes on real outputs and rejects a corrupted one.

    python3 -m pytest -q bench/tests
"""

import copy
import importlib
import inspect
import json
import re
import shutil

import numpy as np
import pytest

import checks
import irlv.cli
import tracer
from workloads import WORKLOADS, render

# desk-sized versions of the four workloads
SMALL = {
    "roc-sweep": {"nn": {"epochs": 10}, "sweep": {"n_hidden": (2, 4), "s_total": (1000, 1500), "n_seeds": 2}},
    "plan-pso": {"dataset": {"s_total": 1000}, "sweep": {"s_total": (1000,)}, "nn": {"epochs": 3},
                 "pso": {"n_particles": 2, "max_iterations": 2, "stall_iterations": 3}},
    "field-dense": {"sweep": {"n_field_realizations": 3}},
    "np-compare-disc": {"dataset": {"s_total": 3000}, "sweep": {"s_total": (3000,)}, "nn": {"epochs": 10},
                        "eval": {"n_np_samples": 10_000, "n_thetas": 50}},
}


def small_config(name):
    config = copy.deepcopy(WORKLOADS[name].config)
    for section, values in SMALL[name].items():
        config[section].update(values)
    return config


def run_cli(name, config, tmp_path, tag, jobs=1):
    cfg = tmp_path / f"{tag}.cfg"
    cfg.write_text(render(config, seed=0))
    out = tmp_path / tag
    code = irlv.cli.main([WORKLOADS[name].command, "--config", str(cfg), "--out", str(out),
                          "--jobs", str(jobs)])
    assert code == 0
    return out


def manifest_outputs(out):
    return json.loads((out / "manifest.json").read_text())["outputs"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Outputs of each small workload, made once."""
    root = tmp_path_factory.mktemp("outputs")
    return {name: run_cli(name, small_config(name), root, name) for name in WORKLOADS}


@pytest.fixture
def copy_of(outputs, tmp_path):
    def make(name):
        dst = tmp_path / name
        shutil.copytree(outputs[name], dst)
        return dst
    return make


def _attributes():
    modules = tracer._irlv_modules()
    found = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if inspect.isfunction(v)}
    for mod, cls, method in tracer.METHODS:
        owner = getattr(importlib.import_module(f"irlv.{mod}"), cls)
        found[(mod, cls, method)] = vars(owner)[method]
    return found


def test_traced_run_matches_untraced_and_restores_functions(tmp_path):
    config = small_config("roc-sweep")
    before = _attributes()
    plain = run_cli("roc-sweep", config, tmp_path, "plain")
    trace = tracer.Tracer()
    with tracer.installed(trace) as patched:
        assert irlv.cli.train is not before[("irlv.mlp", "train")]
        assert irlv.planner.generate_fields is not before[("irlv.channel", "generate_fields")]
        traced = run_cli("roc-sweep", config, tmp_path, "traced")
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert {(owner.__name__, name) for owner, name, _ in patched} >= {
        ("irlv.cli", "train"), ("irlv.cli", "load_config"), ("irlv.dataset", "attenuation_matrix"),
        ("irlv.planner", "evaluate_placement"), ("irlv.mlp", "backward")}
    assert manifest_outputs(traced) == manifest_outputs(plain)
    spans = trace.as_dict()["spans"]
    assert spans["mlp.train"]["calls"] == 8
    assert spans["cli.cmd_roc"]["calls"] == 1
    assert trace.counts["channel.field_fft.calls"] == 40


def test_jobs_2_writes_the_same_outputs_as_jobs_1(tmp_path):
    config = small_config("roc-sweep")
    one = run_cli("roc-sweep", config, tmp_path, "jobs1", jobs=1)
    two = run_cli("roc-sweep", config, tmp_path, "jobs2", jobs=2)
    assert manifest_outputs(two) == manifest_outputs(one)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_pass_on_real_outputs(outputs, name):
    checks.check_manifest(outputs[name])
    WORKLOADS[name].check(outputs[name], small_config(name))


def test_lag_estimate_sd_matches_brute_force():
    nx, ny, spacing, sigma, d_c, n_real = 7, 6, 15.0, 8.0, 75.0, 3
    xs, ys = np.meshgrid(np.arange(nx), np.arange(ny))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    cov = sigma**2 * np.exp(-np.hypot(*(pts[:, None] - pts[None]).transpose(2, 0, 1)) * spacing / d_c)
    at = lambda i, j: j * nx + i  # noqa: E731
    for k in (0, 1, 3):
        if k == 0:
            pairs = [(at(i, j), at(i, j)) for j in range(ny) for i in range(nx)]
        else:
            pairs = ([(at(i, j), at(i + k, j)) for j in range(ny) for i in range(nx - k)]
                     + [(at(i, j), at(i, j + k)) for j in range(ny - k) for i in range(nx)])
        a, b = np.array(pairs).T
        terms = cov[np.ix_(a, a)] * cov[np.ix_(b, b)] + cov[np.ix_(a, b)] * cov[np.ix_(b, a)]
        brute = np.sqrt(terms.sum() / len(pairs) ** 2 / n_real)
        assert checks.lag_estimate_sd(nx, ny, spacing, sigma, d_c, k, n_real) == pytest.approx(brute, rel=1e-12)


# ---- corruptions: each must make its check fail -------------------------

def edit_rows(path, fn):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    rows = fn(rows)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def write_curve(path, fa, md, header="p_fa,p_md"):
    path.write_text(header + "\n" + "".join(f"{a:.17g},{m:.17g}\n" for a, m in zip(fa, md)))


def flip_byte(out):
    path = out / "auc_summary.csv"
    data = bytearray(path.read_bytes())
    data[-3] ^= 1
    path.write_bytes(bytes(data))


def roc_unsorted(out):
    def swap(rows):
        rows[2], rows[3] = rows[3], rows[2]
        return rows
    edit_rows(out / "roc_nh2_s1000_seed0.csv", swap)


def roc_summary_auc(out):
    def bump(rows):
        rows[1][3] = repr(float(rows[1][3]) + 1e-3)
        return rows
    edit_rows(out / "auc_summary.csv", bump)


def roc_mean_curve(out):
    path = out / "roc_nh2_s1000_mean.csv"
    fa, md = checks.read_curve(path)
    md[1:-1] *= 0.999
    write_curve(path, fa, md)


def roc_guessing(out):
    for k in range(2):
        (out / f"roc_nh2_s1000_seed{k}.csv").write_text("theta,p_fa,p_md\nnan,0,1\nnan,1,0\n")
    grid = np.linspace(0.0, 1.0, 200)
    write_curve(out / "roc_nh2_s1000_mean.csv", grid, 1.0 - grid)

    def half(rows):
        for r in rows[1:]:
            if r[:2] == ["2", "1000"]:
                r[3] = "0.5"
        return rows
    edit_rows(out / "auc_summary.csv", half)


def plan_rising(out):
    def rise(rows):
        rows[-1][1] = repr(float(rows[1][1]) + 1.0)
        return rows
    edit_rows(out / "plan_ce_seed0.csv", rise)


def plan_auc_mismatch(out):
    def differ(rows):
        rows[1][2] = repr(float(rows[1][2]) + 1e-9)
        return rows
    edit_rows(out / "plan_auc_seed0.csv", differ)


def plan_off_map(out):
    def move(rows):
        rows[1][2] = "600"
        return rows
    edit_rows(out / "plan_ce_placements.csv", move)


def field_theory(out):
    def bump(rows):
        rows[3][2] = repr(float(rows[3][2]) * (1 + 1e-9))
        return rows
    edit_rows(out / "field_cov.csv", bump)


def field_empirical(out):
    def scale(rows):
        for r in rows[1:]:
            r[1] = repr(float(r[1]) * 3.0)
        return rows
    edit_rows(out / "field_cov.csv", scale)


def _rewrite_np(out, which, md_fn):
    """Replace one ROC with md_fn(md) and keep summary.json consistent, so
    only the reference comparisons can notice."""
    path = out / f"{which}_roc.csv"
    fa, md = checks.read_curve(path)
    md = md_fn(md)
    write_curve(path, fa, md)
    summary = json.loads((out / "summary.json").read_text())
    summary[f"auc_{which}"] = checks.trapezoid(fa, md)
    _, nn_md = checks.read_curve(out / "nn_roc.csv")
    _, np_md = checks.read_curve(out / "np_roc.csv")
    summary["max_vertical_gap"] = float(np.max(np.abs(nn_md - np_md)))
    (out / "summary.json").write_text(json.dumps(summary))


def np_oracle_off(out):
    _rewrite_np(out, "np", lambda md: np.minimum(md * 1.25, 1.0))


def nn_beats_oracle(out):
    _rewrite_np(out, "nn", lambda md: md * 0.1)


CORRUPTIONS = [
    ("roc-sweep", flip_byte, "sha256 differs"),
    ("roc-sweep", roc_unsorted, "does not rise strictly"),
    ("roc-sweep", roc_summary_auc, "not the curve's trapezoid"),
    ("roc-sweep", roc_mean_curve, "pointwise mean"),
    ("roc-sweep", roc_guessing, "no better than guessing"),
    ("plan-pso", plan_rising, "best objective rises"),
    ("plan-pso", plan_auc_mismatch, "best_objective != best_auc"),
    ("plan-pso", plan_off_map, "off the map"),
    ("field-dense", field_theory, "sigma^2 exp(-lag/d_c)"),
    ("field-dense", field_empirical, "empirical"),
    ("np-compare-disc", np_oracle_off, "from the reference"),
    ("np-compare-disc", nn_beats_oracle, "beats the optimal test"),
]


@pytest.mark.parametrize("name, corrupt, message", CORRUPTIONS,
                         ids=[c[1].__name__ for c in CORRUPTIONS])
def test_check_rejects_corrupted_output(copy_of, name, corrupt, message):
    out = copy_of(name)
    corrupt(out)
    with pytest.raises(checks.CheckFailed, match=re.escape(message)):
        if corrupt is flip_byte:
            checks.check_manifest(out)
        else:
            WORKLOADS[name].check(out, small_config(name))


def test_repeat_with_other_outputs_is_rejected(outputs):
    first = checks.check_manifest(outputs["roc-sweep"])
    other = dict(first, **{"auc_summary.csv": "0" * 64})
    with pytest.raises(checks.CheckFailed, match="differ from the first run"):
        checks.check_same_outputs(first, other, "round 1")

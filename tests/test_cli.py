"""End-to-end driver runs on desk-size configs: files, hashes, exit codes."""

import configparser
import json
import os
import subprocess
import sys
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import irlv
from irlv.channel import ChannelParams, _synthesis_factor, generate_fields
from irlv.cli import _map_jobs, main, proxy_validity_flags
from irlv.config import SECTIONS, load_config
from irlv.errors import NumericError
from test_channel import _indefinite

CIRCULAR = """\
[scenario]
kind = circular

[channel]
sigma_s_db = 0.0

[nn]
n_hidden = 4
n_layers = 2
learning_rate = 0.5
epochs = 15
batch_size = 32

[dataset]
s_total = 300
p0 = 0.5
train_frac = 0.7

[pso]
n_particles = 2
max_iterations = 2
stall_iterations = 2
objective = both

[eval]
n_np_samples = 10000
n_thetas = 31
resolution_rad = 1e-3

[sweep]
n_hidden = 2,4
s_total = 200,300
n_seeds = 2
n_field_realizations = 25

[seeds]
field = 0
dataset = 1
init = 2
pso = 3
"""


STREET = CIRCULAR.replace("kind = circular", "kind = street")

# one out-of-range value per (section, key) that a rule of its own checks;
# the [scenario] street lengths go into STREET, everything else into CIRCULAR
SINGLE_KEY_CASES = [
    ("scenario", "kind", "donut"), ("scenario", "building_side", "-1"),
    ("scenario", "street_width", "0"), ("scenario", "r_out", "-1"),
    ("scenario", "roi_width", "0"), ("scenario", "roi_height", "-1"),
    ("channel", "f0_hz", "0"), ("channel", "sigma_s_db", "-1"), ("channel", "d_c_m", "0"),
    ("channel", "h_ap_m", "-1"), ("channel", "grid_spacing_m", "-1"),
    ("nn", "n_hidden", "0"), ("nn", "n_layers", "0"), ("nn", "learning_rate", "0"),
    ("nn", "epochs", "-1"), ("nn", "batch_size", "0"),
    ("dataset", "s_total", "1"), ("dataset", "p0", "1.5"), ("dataset", "train_frac", "0"),
    ("pso", "n_particles", "0"), ("pso", "inertia", "-1"), ("pso", "c1", "-1"),
    ("pso", "c2", "-1"), ("pso", "max_iterations", "-1"), ("pso", "stall_iterations", "0"),
    ("pso", "objective", "f1"),
    ("eval", "n_np_samples", "9999"), ("eval", "n_thetas", "1"), ("eval", "resolution_rad", "0.01"),
    ("sweep", "n_hidden", "0"), ("sweep", "s_total", "1"), ("sweep", "n_seeds", "0"),
    ("sweep", "n_field_realizations", "0"),
    ("seeds", "field", "-1"), ("seeds", "dataset", "-1"), ("seeds", "init", "-1"),
    ("seeds", "pso", "-1"),
]
# keys that take any value of their type: the street's map_side is checked
# with the other two lengths, and the rest have no range
RULE_FREE_KEYS = {("scenario", "map_side"), ("scenario", "r_min"), ("pso", "stall_tolerance"),
                  ("output", "directory")}


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def run(args):
    return main([str(a) for a in args])


class TestRoc:
    def test_emits_per_seed_and_mean_curves(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCULAR)
        out = tmp_path / "out"
        assert run(["roc", "--config", cfg, "--out", out]) == 0
        for nh in (2, 4):
            for s in (200, 300):
                for k in (0, 1):
                    assert (out / f"roc_nh{nh}_s{s}_seed{k}.csv").is_file()
                assert (out / f"roc_nh{nh}_s{s}_mean.csv").is_file()
        summary = (out / "auc_summary.csv").read_text().splitlines()
        assert summary[0] == "n_hidden,s_total,seed,auc"
        assert len(summary) == 1 + 4 * 3  # per combo: two seeds and a mean

    @pytest.mark.parametrize("command, text", [
        ("roc", CIRCULAR), ("np-compare", CIRCULAR), ("plan", STREET), ("field", STREET),
    ], ids=["roc", "np-compare", "plan", "field"])
    def test_manifest_hashes_every_output(self, tmp_path, capsys, command, text):
        """The manifest hashes exactly the files in --out, and the printed
        file count is theirs."""
        import hashlib

        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        emitted = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == emitted
        assert capsys.readouterr().out.startswith(
            f"wrote {len(manifest['outputs'])} files and manifest.json to ")
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert manifest["seeds"] == {"field": 0, "dataset": 1, "init": 2, "pso": 3}
        assert "numpy" in manifest["versions"]

    def test_same_config_same_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCULAR)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["roc", "--config", cfg, "--out", a]) == 0
        assert run(["roc", "--config", cfg, "--out", b]) == 0
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_parallel_jobs_change_nothing(self, tmp_path):
        # plan shares the job fan-out, so it is checked here as well
        for command, text in (("roc", CIRCULAR), ("plan", STREET)):
            cfg = write_cfg(tmp_path, text, name=f"{command}.cfg")
            a, b = tmp_path / f"{command}1", tmp_path / f"{command}2"
            assert run([command, "--config", cfg, "--out", a, "--jobs", 1]) == 0
            assert run([command, "--config", cfg, "--out", b, "--jobs", 2]) == 0
            assert read_manifest(a)["outputs"] == read_manifest(b)["outputs"]

    def test_jobs_clamped_to_task_count(self, monkeypatch):
        """No more workers than tasks, started by the forkserver.  An inline
        pool records the count and the start method."""
        requested = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                requested.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        assert _map_jobs(pow, [(2, 3), (3, 2), (2, 5)], 64) == [8, 9, 32]
        assert _map_jobs(pow, [(2, 3), (3, 2)], 1) == [8, 9]
        assert requested == [(3, "forkserver")]

    def test_seed_offset_changes_results(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCULAR)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["roc", "--config", cfg, "--out", a]) == 0
        assert run(["roc", "--config", cfg, "--out", b, "--seed-offset", 50]) == 0
        assert (a / "auc_summary.csv").read_text() != (b / "auc_summary.csv").read_text()
        assert read_manifest(b)["seed_offset"] == 50


class TestNpCompare:
    def test_curves_share_the_fa_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCULAR)
        out = tmp_path / "out"
        assert run(["np-compare", "--config", cfg, "--out", out]) == 0
        nn = np.loadtxt(out / "nn_roc.csv", delimiter=",", skiprows=1)
        np_ = np.loadtxt(out / "np_roc.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(nn[:, 0], np_[:, 0])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["geometry"] == {
            "r_out": 40.0, "roi_width": 25.0, "roi_height": 25.0, "r_min": 4.0,
        }
        assert 0.0 <= summary["max_vertical_gap"] <= 1.0
        assert summary["auc_np"] <= 0.5

    def test_oracle_sample_at_the_base_station(self, tmp_path):
        """At dataset seed 85 one of the 100,000 outside positions lies
        6.7 mm from the base station, nearer than the free-space minimum
        c / (4*pi*f0) = 11 mm; the oracle scores it like any other."""
        text = CIRCULAR.replace("dataset = 1", "dataset = 85")
        cfg = write_cfg(tmp_path, text.replace("n_np_samples = 10000", "n_np_samples = 100000"))
        assert run(["np-compare", "--config", cfg, "--out", tmp_path / "o"]) == 0

    def test_street_scenario_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, STREET)
        assert run(["np-compare", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "config error: [scenario] kind: np-compare requires the circular scenario\n")
        assert not (tmp_path / "o").exists()


class TestPlan:
    def test_emits_histories_means_and_placements(self, tmp_path):
        cfg = write_cfg(tmp_path, STREET)
        out = tmp_path / "out"
        assert run(["plan", "--config", cfg, "--out", out]) == 0
        for obj in ("ce", "auc"):
            for k in (0, 1):
                rows = np.loadtxt(
                    out / f"plan_{obj}_seed{k}.csv", delimiter=",", skiprows=1, ndmin=2
                )
                assert np.all(np.diff(rows[:, 1]) <= 0)  # best value never worsens
            mean = np.loadtxt(
                out / f"plan_{obj}_mean.csv", delimiter=",", skiprows=1, ndmin=2
            )
            assert np.all((mean[:, 1] >= 0.0) & (mean[:, 1] <= 1.0))
            placements = np.loadtxt(
                out / f"plan_{obj}_placements.csv", delimiter=",", skiprows=1, ndmin=2
            )
            assert placements.shape == (2 * 5, 4)  # two seeds, five base stations
            assert np.all((placements[:, 2:] >= 0.0) & (placements[:, 2:] <= 525.0))
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"ce", "auc"}
        assert isinstance(summary["ce"]["flags"], list)
        assert summary["auc"]["final_mean_auc"] <= summary["auc"]["initial_mean_auc"]

    def test_single_objective_config(self, tmp_path):
        cfg = write_cfg(tmp_path, STREET.replace("objective = both", "objective = auc"))
        out = tmp_path / "out"
        assert run(["plan", "--config", cfg, "--out", out]) == 0
        assert (out / "plan_auc_mean.csv").is_file()
        assert not (out / "plan_ce_mean.csv").exists()

    def test_circular_scenario_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CIRCULAR)
        assert run(["plan", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "config error: [scenario] kind: plan requires the street scenario\n")
        assert not (tmp_path / "o").exists()


class TestProxyValidityFlag:
    def test_upward_trend_flags_ce_runs_only(self):
        assert proxy_validity_flags("ce", [0.30, 0.32, 0.35]) == ["below proxy-validity size"]
        assert proxy_validity_flags("ce", [0.35, 0.30]) == []
        assert proxy_validity_flags("auc", [0.30, 0.35]) == []
        assert proxy_validity_flags("ce", [0.30]) == []


class TestField:
    def test_covariance_diagnostic_and_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCULAR.replace("sigma_s_db = 0.0", "sigma_s_db = 8.0"))
        out = tmp_path / "out"
        assert run(["field", "--config", cfg, "--out", out]) == 0
        rows = np.loadtxt(out / "field_cov.csv", delimiter=",", skiprows=1)
        lags = rows[:, 0]
        assert lags[0] == 0.0
        assert 75.0 in lags  # decorrelation-distance row present
        theory_at_dc = rows[lags == 75.0, 2][0]
        np.testing.assert_allclose(theory_at_dc, 64.0 * np.exp(-1.0))
        np.testing.assert_allclose(rows[0, 2], 64.0)

        loaded = np.loadtxt(out / "field_bs0.csv", delimiter=",")
        scenario = load_config(cfg).scenario
        regenerated = generate_fields(scenario, ChannelParams(sigma_s_db=8.0), 0)[0]
        np.testing.assert_array_equal(loaded, regenerated.values)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_realizations"] == 25
        assert summary["max_rel_err"] >= 0.0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs at least two cores and sched_setaffinity")
    def test_fields_do_not_depend_on_the_core_count(self, tmp_path):
        """A process pinned to one core writes the same cut-off fields as one
        that may use every core (the 17x17 disc grid with d_c = 1000 m, whose
        plain embedding fails).  The children get no OPENBLAS_NUM_THREADS,
        so each takes the package's default, not this process's setting."""
        cfg = write_cfg(tmp_path, CIRCULAR.replace("sigma_s_db = 0.0",
                                                   "sigma_s_db = 8.0\nd_c_m = 1000.0"))
        assert _synthesis_factor(17, 17, 5.0, 8.0, 1000.0)[1] > 0  # the cut-off route
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(irlv.__file__).resolve().parents[1])
        outputs = []
        for name, pin in (("one", lambda: os.sched_setaffinity(0, {0})), ("all", None)):
            subprocess.run([sys.executable, "-m", "irlv.cli", "field", "--config", str(cfg),
                            "--out", str(tmp_path / name)], env=env, preexec_fn=pin, check=True,
                           capture_output=True)
            outputs.append(read_manifest(tmp_path / name)["outputs"])
        assert outputs[0] == outputs[1]

    def test_zero_shadowing_reports_absolute_gap(self, tmp_path):
        # theory curve is identically zero, so rel_err must not divide by it
        cfg = write_cfg(tmp_path, CIRCULAR)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["field", "--config", cfg, "--out", out]) == 0
        rows = np.loadtxt(out / "field_cov.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows))
        np.testing.assert_array_equal(rows[:, 1:], 0.0)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_rel_err"] == 0.0


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        assert run(["roc", "--config", tmp_path / "absent.cfg", "--out", tmp_path]) == 2

    def test_bad_key_is_config_error(self, tmp_path, capsys):
        # the bad value goes into the existing [nn] section: a second [nn]
        # header would fail as a malformed file before any key is read
        text = CIRCULAR.replace("epochs = 15", "epochs = soon")
        assert text.count("[nn]") == 1 and "epochs = soon" in text
        cfg = write_cfg(tmp_path, text)
        assert run(["roc", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: [nn] epochs: cannot read 'soon' as int\n"

    def test_coarse_grid_is_config_error(self, tmp_path, capsys):
        text = STREET.replace("sigma_s_db = 0.0", "sigma_s_db = 8.0\ngrid_spacing_m = 20.0")
        cfg = write_cfg(tmp_path, text)
        assert run(["field", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "config error: [channel] grid_spacing_m: grid too coarse for d_c: "
            "20 m is above d_c_m / 5 = 15 m\n"
        )

    def test_coarse_angular_resolution_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CIRCULAR.replace("resolution_rad = 1e-3", "resolution_rad = 0.01"))
        assert run(["np-compare", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "config error: [eval] resolution_rad: must lie in (0, 0.001] rad\n"
        )

    def test_class_without_rows_is_config_error(self, tmp_path, capsys):
        """floor(p0 * s_total) = 0 is refused before any training, not
        after it as a one-class split."""
        cfg = write_cfg(tmp_path, CIRCULAR.replace("p0 = 0.5", "p0 = 0.0001"))
        assert run(["roc", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "config error: [dataset] p0: 0.0001 of 200 samples leaves one class without rows\n"
        )

    @pytest.mark.parametrize("old, new, message", [
        ("kind = circular", "kind = street\nmap_side = 500",
         "[scenario] inconsistent geometry: 2*building_side + street_width must equal map_side"),
        ("sigma_s_db = 0.0", "sigma_s_db = nan", "[channel] sigma_s_db: must be finite"),
        ("field = 0", "field = -1", "[seeds] field: -1 is below 0"),
        # a repeated sweep value would train its tasks twice
        ("n_hidden = 2,4", "n_hidden = 4,2,4", "[sweep] n_hidden: 4 is listed twice"),
        ("s_total = 200,300", "s_total = 200,200", "[sweep] s_total: 200 is listed twice"),
    ], ids=["street-geometry", "non-finite", "negative-seed", "repeated-width", "repeated-size"])
    def test_bad_value_is_config_error_before_any_output(self, tmp_path, capsys, old, new, message):
        cfg = write_cfg(tmp_path, CIRCULAR.replace(old, new))
        assert run(["field", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value", SINGLE_KEY_CASES,
                             ids=[f"{s}-{k}" for s, k, _ in SINGLE_KEY_CASES])
    def test_single_key_rule_names_its_key(self, tmp_path, capsys, section, key, value):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(STREET if key in ("building_side", "street_width") else CIRCULAR)
        parser.set(section, key, value)
        with open(tmp_path / "run.cfg", "w") as f:
            parser.write(f)
        assert run(["field", "--config", tmp_path / "run.cfg", "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: [{section}] {key}: ")
        assert not (tmp_path / "o").exists()

    def test_every_key_with_a_rule_has_a_case(self):
        keys = {(section, key) for section, classes in SECTIONS.items()
                for names in classes.values() for key in names}
        assert keys - {(s, k) for s, k, _ in SINGLE_KEY_CASES} == RULE_FREE_KEYS

    def test_seed_offset_below_a_seed_is_config_error(self, tmp_path, capsys):
        """The offset may lower the seeds, but not below 0; the manifest
        of an allowed shift records the config's own seeds."""
        cfg = write_cfg(tmp_path, CIRCULAR.replace("field = 0", "field = 5"))
        assert run(["field", "--config", cfg, "--out", tmp_path / "o", "--seed-offset", -2]) == 2
        assert capsys.readouterr().err == (
            "config error: --seed-offset -2: shifted [seeds] dataset: -1 is below 0\n"
        )
        assert not (tmp_path / "o").exists()
        assert run(["field", "--config", cfg, "--out", tmp_path / "o", "--seed-offset", -1]) == 0
        assert read_manifest(tmp_path / "o")["seeds"] == {"field": 5, "dataset": 1, "init": 2,
                                                         "pso": 3}

    @pytest.mark.parametrize("out, reason", [
        ("afile", "File exists"), ("afile/sub", "Not a directory"),
        ("a" * 300, "File name too long"),
    ], ids=["file", "under-a-file", "overlong"])
    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys, out, reason):
        """--out that names a file, a path under one, or any path the OS
        refuses to make is refused with the config exit code and leaves the
        file as it was."""
        cfg = write_cfg(tmp_path, CIRCULAR)
        (tmp_path / "afile").write_text("kept\n")
        assert run(["field", "--config", cfg, "--out", tmp_path / out]) == 2
        assert capsys.readouterr().err == f"config error: --out {tmp_path / out}: {reason}\n"
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        """A config file that is not UTF-8 text is malformed, refused
        before any output exists."""
        (tmp_path / "run.cfg").write_bytes(b"\xff\xfe[scenario]\n")
        assert run(["field", "--config", tmp_path / "run.cfg", "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "config error: malformed config: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        """argparse refuses --jobs below 1 or not a whole number with its
        usage exit code, before any output."""
        cfg = write_cfg(tmp_path, CIRCULAR)
        with pytest.raises(SystemExit) as exc:
            run(["roc", "--config", cfg, "--out", tmp_path / "o", "--jobs", jobs])
        assert exc.value.code == 2
        assert (f"argument --jobs: must be a whole number of at least 1, got '{jobs}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_divergence_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        from irlv.mlp import TrainingDivergedError

        def blow_up(*args, **kwargs):
            raise TrainingDivergedError("training diverged")

        monkeypatch.setattr("irlv.planner.train", blow_up)
        cfg = write_cfg(tmp_path, CIRCULAR)
        assert run(["roc", "--config", cfg, "--out", tmp_path / "o"]) == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("d_c", ["1000.0", "5000.0"])
    def test_long_d_c_street_field_runs(self, tmp_path, d_c):
        """The street grid's plain embedding fails at these d_c; the cut-off
        embedding holds, so the validated config runs."""
        cfg = write_cfg(tmp_path, STREET.replace("sigma_s_db = 0.0", f"d_c_m = {d_c}"))
        assert run(["field", "--config", cfg, "--out", tmp_path / "o"]) == 0

    def test_indefinite_field_embedding_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        """Eigenvalues with a negative mass on both tori (a guard no validated
        grid is known to reach) exit 3."""
        monkeypatch.setattr("irlv.channel._real_fft2", _indefinite)
        _synthesis_factor.cache_clear()
        cfg = write_cfg(tmp_path, STREET.replace("sigma_s_db = 0.0", "d_c_m = 1000.0"))
        assert run(["field", "--config", cfg, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert "numeric failure: circulant embedding of the 106x106 grid is indefinite" in err

    def test_degenerate_data_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise NumericError("feature 0 of placement 0 has zero variance")

        monkeypatch.setattr("irlv.planner.normalize", degenerate)
        cfg = write_cfg(tmp_path, CIRCULAR)
        assert run(["roc", "--config", cfg, "--out", tmp_path / "o"]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_other_value_error_is_a_bug_not_numeric(self, tmp_path, monkeypatch):
        """A ValueError outside the degenerate points propagates with its
        traceback instead of exiting 3."""
        def broken_writer(*args, **kwargs):
            raise ValueError("planted bug")

        monkeypatch.setattr("irlv.cli.roc_to_csv", broken_writer)
        cfg = write_cfg(tmp_path, CIRCULAR)
        with pytest.raises(ValueError, match="planted bug"):
            run(["roc", "--config", cfg, "--out", tmp_path / "o"])

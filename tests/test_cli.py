"""End-to-end driver runs on desk-size configs: files, hashes, exit codes."""

import json
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from irlv.channel import ChannelParams, generate_fields
from irlv.cli import _map_jobs, main, proxy_validity_flags
from irlv.config import load_config
from irlv.errors import NumericError

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

    def test_manifest_hashes_every_output(self, tmp_path):
        import hashlib

        cfg = write_cfg(tmp_path, CIRCULAR)
        out = tmp_path / "out"
        assert run(["roc", "--config", cfg, "--out", out]) == 0
        manifest = read_manifest(out)
        emitted = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == emitted
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
        """No more workers than tasks: the fork start method would launch
        all of them at the first submit.  An inline pool records the count."""
        requested = []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

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
        assert requested == [3]

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

    def test_street_scenario_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCULAR.replace("kind = circular", "kind = street"))
        assert run(["np-compare", "--config", cfg, "--out", tmp_path / "o"]) == 2


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

    def test_circular_scenario_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCULAR)
        assert run(["plan", "--config", cfg, "--out", tmp_path / "o"]) == 2


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
    ], ids=["street-geometry", "non-finite", "negative-seed"])
    def test_bad_value_is_config_error_before_any_output(self, tmp_path, capsys, old, new, message):
        cfg = write_cfg(tmp_path, CIRCULAR.replace(old, new))
        assert run(["field", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

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

    def test_indefinite_field_embedding_is_numeric_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, STREET.replace("sigma_s_db = 0.0", "d_c_m = 1000.0"))
        assert run(["field", "--config", cfg, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert "numeric failure: circulant embedding" in err
        assert "negative eigenvalue mass is 5.9e-05" in err

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

"""Config parsing: strict keys, named errors, scenario construction."""

import configparser
import dataclasses
import re
from typing import get_type_hints

import pytest

from irlv.config import (
    SECTIONS,
    ConfigError,
    EvalConfig,
    RunConfig,
    Seeds,
    SweepConfig,
    default_config_path,
    load_config,
)
from irlv.mlp import TrainConfig
from irlv.planner import PlacementEvalConfig, PsoConfig
from irlv.scenario import CircularScenario, StreetScenario

MINIMAL = """\
[seeds]
field = 0
dataset = 1
init = 2
pso = 3
"""


# every (section, key) that SECTIONS reads as a float
FLOAT_KEYS = [
    (section, f.name)
    for section, keys in SECTIONS.items()
    for cls, names in keys.items()
    for f in dataclasses.fields(cls)
    if f.name in names and type(f.default) is float
]


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_minimal_config_gets_standard_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        assert isinstance(cfg.scenario, StreetScenario)
        assert cfg.placement.channel.f0_hz == 2.12e9
        assert cfg.placement.channel.sigma_s_db == 8.0
        assert cfg.placement.channel.d_c_m == 75.0
        assert cfg.placement.n_hidden == 8
        assert cfg.placement.n_layers == 3
        assert cfg.placement.train == TrainConfig(learning_rate=0.05, epochs=200, batch_size=128)
        assert cfg.pso.inertia == 0.7298
        assert cfg.pso.c1 == cfg.pso.c2 == 1.4961
        assert cfg.placement.s_total == 20_000
        assert cfg.seeds == Seeds(0, 1, 2, 3)
        # every absent key takes its dataclass default
        assert cfg == RunConfig(
            scenario=StreetScenario.default(), placement=PlacementEvalConfig(), pso=PsoConfig(),
            eval=EvalConfig(), sweep=SweepConfig(), seeds=Seeds(0, 1, 2, 3),
        )
        assert (cfg.objective, cfg.directory) == ("ce", "runs")

    def test_shipped_config_loads(self):
        """paper.cfg writes out the dataclass defaults; it differs only where
        it plans with both objectives and sweeps several sizes."""
        cfg = load_config(default_config_path())
        assert cfg.objective == "both" != RunConfig.objective
        sweep = dataclasses.replace(
            SweepConfig(), n_hidden=(2, 4, 8, 16), s_total=(1_000, 10_000, 100_000)
        )
        assert cfg == RunConfig(
            scenario=StreetScenario.default(), placement=PlacementEvalConfig(), pso=PsoConfig(),
            eval=EvalConfig(), sweep=sweep, seeds=Seeds(0, 1, 2, 3), objective="both",
        )

    def test_shipped_config_writes_out_every_key(self):
        """A key paper.cfg left out at its default value would still load
        equal to the defaults, so its presence is checked on its own."""
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(default_config_path())
        missing = [f"[{section}] {key}" for section, keys in SECTIONS.items()
                   for names in keys.values() for key in names
                   if not parser.has_option(section, key)]
        assert missing == []

    def test_every_field_is_a_key_the_file_can_set(self):
        """Each field of a config type is a key SECTIONS lists for it, or a
        nested config or the scenario: no field holds a value that only
        code can set, such as a copy of another key.  The one exception is
        the replicate a Seeds draws, which is --seed-offset + k, not a key."""
        listed = {(cls, key) for keys in SECTIONS.values() for cls, names in keys.items()
                  for key in names}
        types = {cls for keys in SECTIONS.values() for cls in keys} | {PlacementEvalConfig, TrainConfig}
        nested = types | {StreetScenario | CircularScenario}
        unset = sorted(f"{cls.__name__}.{f.name}" for cls in types for f in dataclasses.fields(cls)
                       if (cls, f.name) not in listed and get_type_hints(cls)[f.name] not in nested)
        assert unset == ["Seeds.replicate"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_seeds_are_mandatory(self, tmp_path):
        path = write_cfg(tmp_path, "[seeds]\nfield = 0\ndataset = 1\ninit = 2\n")
        with pytest.raises(ConfigError, match=r"\[seeds\] pso"):
            load_config(path)

    def test_absent_seed_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[seeds\] field"):
            load_config(write_cfg(tmp_path, "[nn]\nn_hidden = 4\n"))

    def test_bad_number_named_by_key(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "[nn]\nepochs = many\n")
        with pytest.raises(ConfigError, match=r"\[nn\] epochs: cannot read"):
            load_config(path)

    @pytest.mark.parametrize("text, match", [
        ("[nn]\nepoch = 5\n", r"\[nn\] epoch: unknown key"),
        ("[bogus]\n", r"\[bogus\]: unknown section"),
        ("[channel]\nc_m_s = 3e8\n", r"\[channel\] c_m_s: unknown key"),
        ("[eval]\nn_np_samples = 9999\n", r"\[eval\] n_np_samples: need at least 10000"),
        ("[eval]\nresolution_rad = 0.01\n", r"^\[eval\] resolution_rad: must lie in \(0, 0.001\] rad$"),
        ("[sweep]\nn_hidden = 0,4\n", r"^\[sweep\] n_hidden: every width must be at least 1$"),
        ("[sweep]\ns_total = 0,300\n", r"^\[sweep\] s_total: every sample count must be at least 2$"),
        ("[sweep]\ns_total = 2e2,300\n",
         r"^\[sweep\] s_total: cannot read '2e2,300' as a comma-separated list of whole numbers$"),
        ("[dataset]\ns_total = 1\n", r"^\[dataset\] s_total: need at least 2 samples$"),
        ("[dataset]\ns_total = 3000\np0 = 0.0001\n",
         r"^\[dataset\] p0: 0.0001 of 3000 samples leaves one class without rows$"),
        ("[dataset]\np0 = 0.0001\n[sweep]\ns_total = 30000,3000\n",
         r"^\[dataset\] p0: 0.0001 of 3000 samples leaves one class without rows$"),
        # PlacementEvalConfig raises it, but batch_size is TrainConfig's [nn] key
        ("[dataset]\ns_total = 100\n",
         r"^\[nn\] batch_size: exceeds the training split of 100 samples$"),
        ("[pso]\nobjective = f1\n", r"^\[pso\] objective: 'f1' is not one of ce, auc, both, two-stage$"),
    ], ids=["unknown-key", "unknown-section", "constant", "np-samples", "resolution", "zero-width",
            "sweep-size", "sweep-list", "dataset-size", "empty-class", "empty-class-in-sweep",
            "batch-in-split", "objective"])
    def test_bad_input_named_by_key(self, tmp_path, text, match):
        path = write_cfg(tmp_path, MINIMAL + text)
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    def test_unknown_scenario_kind(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "[scenario]\nkind = donut\n")
        with pytest.raises(ConfigError, match="kind"):
            load_config(path)

    def test_unknown_objective(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "[pso]\nobjective = f1\n")
        with pytest.raises(ConfigError, match="objective"):
            load_config(path)

    def test_p0_range_checked(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "[dataset]\np0 = 1.5\n")
        with pytest.raises(ConfigError, match="p0"):
            load_config(path)

    def test_batch_size_vs_smallest_split(self, tmp_path):
        path = write_cfg(
            tmp_path, MINIMAL + "[dataset]\ns_total = 100\n[sweep]\ns_total = 100,200\n"
        )
        with pytest.raises(ConfigError, match="batch_size"):
            load_config(path)

    def test_sweep_list_parsing(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "[sweep]\nn_hidden = 2, 4 ,8\n")
        assert load_config(path).sweep.n_hidden == (2, 4, 8)

    def test_malformed_ini(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed"):
            load_config(write_cfg(tmp_path, "no section header"))

    def test_negative_learning_rate(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "[nn]\nlearning_rate = -1\n")
        with pytest.raises(ConfigError, match=r"\[nn\]"):
            load_config(path)

    @pytest.mark.parametrize("old, new, message", [
        ("pso = 3", "pso = 1", "pso: 1 is also the dataset root"),
        ("init = 2", "init = 0", "init: 0 is also the field root"),
        ("dataset = 1", "dataset = 4294967296", "dataset: 4294967296 is not below 2**32"),
    ], ids=["equal-pso", "equal-init", "two-words"])
    def test_seed_roots_that_share_a_stream_named_by_key(self, tmp_path, old, new, message):
        """Purposes differ by root alone, so two equal roots would draw the
        same streams; a root of two words aliases another key."""
        with pytest.raises(ConfigError, match=rf"^\[seeds\] {re.escape(message)}$"):
            load_config(write_cfg(tmp_path, MINIMAL.replace(old, new)))

    def test_negative_seed_named_by_key(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("dataset = 1", "dataset = -1"))
        with pytest.raises(ConfigError, match=r"^\[seeds\] dataset: -1 is below 0$"):
            load_config(path)

    @pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{s}-{k}" for s, k in FLOAT_KEYS])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_named_by_key(self, tmp_path, section, key, value):
        path = write_cfg(tmp_path, MINIMAL + f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: must be finite$"):
            load_config(path)


class TestTypesCheckTheirOwnKeys:
    """The rules live in the config types, so a value is refused however
    the type is built: by load_config, in a test, or by dataclasses.replace."""

    @pytest.mark.parametrize("build, message", [
        (lambda: PlacementEvalConfig(p0=2.0), "p0: must lie strictly between 0 and 1"),
        (lambda: PlacementEvalConfig(n_layers=0), "n_layers: must be at least 1"),
        (lambda: PlacementEvalConfig(s_total=200, p0=0.001),
         "p0: 0.001 of 200 samples leaves one class without rows"),
        (lambda: dataclasses.replace(PlacementEvalConfig(), s_total=100),
         "batch_size: exceeds the training split of 100 samples"),
        (lambda: EvalConfig(n_thetas=1), "n_thetas: need at least 2 thresholds"),
        (lambda: SweepConfig(n_seeds=0), "n_seeds: must be at least 1"),
        (lambda: SweepConfig(s_total=()), "s_total: every sample count must be at least 2"),
        (lambda: RunConfig(scenario=StreetScenario.default(), placement=PlacementEvalConfig(),
                           pso=PsoConfig(), eval=EvalConfig(), sweep=SweepConfig(),
                           seeds=Seeds(0, 1, 2, 3), objective="f1"),
         "objective: 'f1' is not one of ce, auc, both, two-stage"),
        (lambda: PsoConfig(stall_iterations=0), "stall_iterations: must be at least 1"),
        (lambda: TrainConfig(batch_size=0), "batch_size: must be at least 1"),
    ], ids=["p0", "n_layers", "empty-class", "batch-vs-split", "n_thetas", "n_seeds",
            "empty-sweep", "objective", "stall", "batch_size"])
    def test_rule_raises_named_by_key(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


class TestBuildScenario:
    def test_street(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        scenario = cfg.scenario
        assert isinstance(scenario, StreetScenario)
        assert scenario.map_side == 525.0
        assert scenario.n_bs == 5

    def test_circular_with_overrides(self, tmp_path):
        path = write_cfg(
            tmp_path, MINIMAL + "[scenario]\nkind = circular\nr_out = 60.0\n"
        )
        scenario = load_config(path).scenario
        assert isinstance(scenario, CircularScenario)
        assert scenario.r_out == 60.0
        assert scenario.r_min == 4.0

    def test_inconsistent_street_geometry(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "[scenario]\nmap_side = 500.0\n")
        with pytest.raises(ConfigError, match=r"^\[scenario\] inconsistent geometry: .*map_side$"):
            load_config(path)

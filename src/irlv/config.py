"""INI run configuration: strict parsing with errors named by section/key.

Every experiment is a pure function of (config, seeds), so seeds are
mandatory keys with no wall-clock fallback.  Every other key defaults to
its dataclass field; paper.cfg ships those same standard values.
"""

import configparser
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .channel import ChannelParams
from .mlp import TrainConfig
from .neyman_pearson import MAX_RESOLUTION_RAD, MIN_NP_ROC_SAMPLES
from .planner import OBJECTIVE_AUC, OBJECTIVE_CE, PlacementEvalConfig, PsoConfig
from .scenario import CircularScenario, StreetScenario

SCENARIO_STREET = "street"
SCENARIO_CIRCULAR = "circular"

OBJECTIVE_BOTH = "both"


class ConfigError(ValueError):
    """Invalid or missing configuration; message names the offending key."""


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str = SCENARIO_STREET
    map_side: float = 525.0
    building_side: float = 255.0
    street_width: float = 15.0
    r_out: float = 40.0
    roi_width: float = 25.0
    roi_height: float = 25.0
    r_min: float = 4.0


@dataclass(frozen=True)
class EvalConfig:
    n_np_samples: int = 100_000
    n_thetas: int = 200
    resolution_rad: float = 1e-4


@dataclass(frozen=True)
class SweepConfig:
    n_hidden: tuple[int, ...] = (8,)
    s_total: tuple[int, ...] = (20_000,)
    n_seeds: int = 5
    n_field_realizations: int = 500


@dataclass(frozen=True)
class Seeds:
    field: int
    dataset: int
    init: int
    pso: int

    def shifted(self, offset: int) -> "Seeds":
        return Seeds(
            self.field + offset, self.dataset + offset,
            self.init + offset, self.pso + offset,
        )


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    placement: PlacementEvalConfig  # [channel], [nn], [dataset]; seeds filled in per task
    pso: PsoConfig
    objective: str  # ce, auc, or both
    eval: EvalConfig
    sweep: SweepConfig
    seeds: Seeds
    output_dir: str = "runs"


def _names(cls, *skip: str) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in skip)


# Every key a config may set: [section] -> {dataclass: the fields of it the
# section sets, named as the keys}.  load_config reads through this table
# and rejects any section or key it does not list.
SECTIONS = {
    "scenario": {ScenarioConfig: _names(ScenarioConfig)},
    # the speed of light is a constant, not a setting
    "channel": {ChannelParams: _names(ChannelParams, "c_m_s")},
    "nn": {PlacementEvalConfig: ("n_hidden", "n_layers"),
           TrainConfig: ("learning_rate", "epochs", "batch_size")},
    "dataset": {PlacementEvalConfig: ("s_total", "p0", "train_frac")},
    "pso": {PsoConfig: _names(PsoConfig)},
    "eval": {EvalConfig: _names(EvalConfig)},
    "sweep": {SweepConfig: _names(SweepConfig)},
    "seeds": {Seeds: _names(Seeds)},
    "output": {RunConfig: ("directory",)},  # read into RunConfig.output_dir
}


def _parse(raw: str, section: str, key: str, kind):
    if kind is tuple and not raw.replace(",", "").strip():
        raise ConfigError(f"[{section}] {key}: empty list")
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw.strip()
        if kind is tuple:  # a comma-separated list of integers
            return tuple(int(part) for part in raw.split(",") if part.strip())
        raise TypeError(kind)
    except (TypeError, ValueError):
        raise ConfigError(f"[{section}] {key}: cannot read {raw!r} as {kind.__name__}") from None


def _get(parser, section: str, key: str, kind):
    if not parser.has_option(section, key):
        raise ConfigError(f"[{section}] {key}: required key missing")
    return _parse(parser.get(section, key), section, key, kind)


def _build(cls, section: str, keys: dict):
    """cls(**keys), its own validation errors named by section (the keys
    were read beforehand, so read errors are not named twice)."""
    try:
        return cls(**keys)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _read(parser, section: str, cls) -> dict:
    """The keys the file sets among those SECTIONS lists for cls in the
    section, each parsed as the type of its field default."""
    defaults = {f.name: f.default for f in fields(cls)}
    return {
        key: _get(parser, section, key, type(defaults[key]))
        for key in SECTIONS[section][cls]
        if parser.has_option(section, key)
    }


def default_config_path() -> Path:
    """The config shipped with the package, holding the standard values."""
    return Path(str(resources.files("irlv").joinpath("paper.cfg")))


def load_config(path) -> RunConfig:
    """Parse and validate an INI run configuration."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"[{section}]: unknown section")
        known = {key for keys in SECTIONS[section].values() for key in keys}
        unknown = [key for key in parser.options(section) if key not in known]
        if unknown:
            raise ConfigError(f"[{section}] {unknown[0]}: unknown key")

    scenario = ScenarioConfig(**_read(parser, "scenario", ScenarioConfig))
    if scenario.kind not in (SCENARIO_STREET, SCENARIO_CIRCULAR):
        raise ConfigError(f"[scenario] kind: unknown scenario {scenario.kind!r}")

    channel = _build(ChannelParams, "channel", _read(parser, "channel", ChannelParams))
    train = _build(TrainConfig, "nn", _read(parser, "nn", TrainConfig))
    placement = PlacementEvalConfig(
        channel=channel, train=train,
        **_read(parser, "nn", PlacementEvalConfig),
        **_read(parser, "dataset", PlacementEvalConfig),
    )
    if placement.n_hidden < 1 or placement.n_layers < 1:
        raise ConfigError("[nn] n_hidden/n_layers: must be at least 1")
    if not 0.0 < placement.p0 < 1.0:
        raise ConfigError("[dataset] p0: must lie strictly between 0 and 1")
    if not 0.0 < placement.train_frac < 1.0:
        raise ConfigError("[dataset] train_frac: must lie strictly between 0 and 1")

    # [pso] objective may also be "both", which no single swarm run takes
    pso_keys = _read(parser, "pso", PsoConfig)
    objective = pso_keys.pop("objective", PsoConfig.objective)
    if objective not in (OBJECTIVE_CE, OBJECTIVE_AUC, OBJECTIVE_BOTH):
        raise ConfigError(f"[pso] objective: unknown objective {objective!r}")
    pso = _build(PsoConfig, "pso", pso_keys)

    eval_cfg = EvalConfig(**_read(parser, "eval", EvalConfig))
    if eval_cfg.n_np_samples < MIN_NP_ROC_SAMPLES:
        raise ConfigError(f"[eval] n_np_samples: need at least {MIN_NP_ROC_SAMPLES}")
    if eval_cfg.n_thetas < 2:
        raise ConfigError("[eval] n_thetas: need at least 2 thresholds")
    if not 0.0 < eval_cfg.resolution_rad <= MAX_RESOLUTION_RAD:
        raise ConfigError(f"[eval] resolution_rad: must lie in (0, {MAX_RESOLUTION_RAD:g}] rad")

    # the sweep lists default to the single [nn]/[dataset] value
    sweep = SweepConfig(**{
        "n_hidden": (placement.n_hidden,), "s_total": (placement.s_total,),
        **_read(parser, "sweep", SweepConfig),
    })
    if sweep.n_seeds < 1 or sweep.n_field_realizations < 1:
        raise ConfigError("[sweep] n_seeds/n_field_realizations: must be at least 1")
    if min(sweep.n_hidden) < 1:
        raise ConfigError("[sweep] n_hidden: every width must be at least 1")
    if placement.s_total < 2:
        raise ConfigError("[dataset] s_total: need at least 2 samples")
    if min(sweep.s_total) < 2:
        raise ConfigError("[sweep] s_total: every sample count must be at least 2")
    sizes = sweep.s_total + (placement.s_total,)
    for s in sizes:  # generate_dataset draws floor(p0 * s) rows inside, the rest outside
        if math.floor(placement.p0 * s) in (0, s):
            raise ConfigError(f"[dataset] p0: {placement.p0:g} of {s} samples leaves one "
                              f"class without rows")
    smallest_split = int(min(sizes) * placement.train_frac)
    if train.batch_size > smallest_split:
        raise ConfigError("[nn] batch_size: exceeds the smallest training split in the sweep")

    seeds = Seeds(**{key: _get(parser, "seeds", key, int) for key in SECTIONS["seeds"][Seeds]})

    output = {}
    if parser.has_option("output", "directory"):
        output["output_dir"] = _get(parser, "output", "directory", str)
    return RunConfig(
        scenario=scenario, placement=placement, pso=pso, objective=objective,
        eval=eval_cfg, sweep=sweep, seeds=seeds, **output,
    )


def build_scenario(cfg: ScenarioConfig):
    """Instantiate the scenario object a config section describes."""
    try:
        if cfg.kind == SCENARIO_STREET:
            return StreetScenario.default(cfg.map_side, cfg.building_side, cfg.street_width)
        return CircularScenario.default(cfg.r_out, cfg.roi_width, cfg.roi_height, cfg.r_min)
    except ValueError as exc:
        raise ConfigError(f"[scenario] {exc}") from None

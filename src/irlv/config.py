"""INI run configuration: strict parsing with errors named by section/key.

Every experiment is a pure function of (config, seeds), so seeds are
mandatory keys with no wall-clock fallback.  Every other key defaults to
its dataclass field; paper.cfg ships those same standard values.
"""

import configparser
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .channel import ChannelParams
from .mlp import TrainConfig
from .planner import OBJECTIVE_AUC, OBJECTIVE_CE, PsoConfig
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
class NnConfig:
    n_hidden: int = 8
    n_layers: int = 3
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 128


@dataclass(frozen=True)
class DataConfig:
    s_total: int = 20_000
    p0: float = 0.5
    train_frac: float = 0.7


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
    channel: ChannelParams
    nn: NnConfig
    data: DataConfig
    pso: PsoConfig
    objective: str  # ce, auc, or both
    eval: EvalConfig
    sweep: SweepConfig
    seeds: Seeds
    output_dir: str = "runs"


def _parse(raw: str, section: str, key: str, kind):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw.strip()
        raise TypeError(kind)
    except (TypeError, ValueError):
        raise ConfigError(f"[{section}] {key}: cannot read {raw!r} as {kind.__name__}") from None


def _get(parser, section: str, key: str, kind):
    if not parser.has_option(section, key):
        raise ConfigError(f"[{section}] {key}: required key missing")
    return _parse(parser.get(section, key), section, key, kind)


def _read(parser, section: str, cls, *skip: str) -> dict:
    """The keys of one section that the file sets, parsed as the type of
    the matching field default of cls; fields in skip are not read."""
    return {
        f.name: _get(parser, section, f.name, type(f.default))
        for f in fields(cls)
        if f.name not in skip and parser.has_option(section, f.name)
    }


def _get_list(parser, section: str, key: str, kind, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"[{section}] {key}: empty list")
    return tuple(_parse(item, section, key, kind) for item in items)


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

    scenario = ScenarioConfig(**_read(parser, "scenario", ScenarioConfig))
    if scenario.kind not in (SCENARIO_STREET, SCENARIO_CIRCULAR):
        raise ConfigError(f"[scenario] kind: unknown scenario {scenario.kind!r}")

    try:
        # the speed of light is a constant, not a setting
        channel = ChannelParams(**_read(parser, "channel", ChannelParams, "c_m_s"))
    except ValueError as exc:
        raise ConfigError(f"[channel] {exc}") from None

    nn = NnConfig(**_read(parser, "nn", NnConfig))
    if nn.n_hidden < 1 or nn.n_layers < 1:
        raise ConfigError("[nn] n_hidden/n_layers: must be at least 1")
    try:
        TrainConfig(
            learning_rate=nn.learning_rate, epochs=nn.epochs,
            batch_size=nn.batch_size, seed=0,
        )
    except ValueError as exc:
        raise ConfigError(f"[nn] {exc}") from None

    data = DataConfig(**_read(parser, "dataset", DataConfig))
    if not 0.0 < data.p0 < 1.0:
        raise ConfigError("[dataset] p0: must lie strictly between 0 and 1")
    if not 0.0 < data.train_frac < 1.0:
        raise ConfigError("[dataset] train_frac: must lie strictly between 0 and 1")

    # [pso] objective may also be "both", which no single swarm run takes
    pso_keys = _read(parser, "pso", PsoConfig)
    objective = pso_keys.pop("objective", PsoConfig.objective)
    if objective not in (OBJECTIVE_CE, OBJECTIVE_AUC, OBJECTIVE_BOTH):
        raise ConfigError(f"[pso] objective: unknown objective {objective!r}")
    try:
        pso = PsoConfig(**pso_keys)
    except ValueError as exc:
        raise ConfigError(f"[pso] {exc}") from None

    eval_cfg = EvalConfig(**_read(parser, "eval", EvalConfig))
    if eval_cfg.n_thetas < 2:
        raise ConfigError("[eval] n_thetas: need at least 2 thresholds")

    # the sweep lists default to the single [nn]/[dataset] value
    sweep = SweepConfig(
        n_hidden=_get_list(parser, "sweep", "n_hidden", int, (nn.n_hidden,)),
        s_total=_get_list(parser, "sweep", "s_total", int, (data.s_total,)),
        **_read(parser, "sweep", SweepConfig, "n_hidden", "s_total"),
    )
    if sweep.n_seeds < 1 or sweep.n_field_realizations < 1:
        raise ConfigError("[sweep] n_seeds/n_field_realizations: must be at least 1")
    smallest_split = int(min(sweep.s_total + (data.s_total,)) * data.train_frac)
    if nn.batch_size > smallest_split:
        raise ConfigError("[nn] batch_size: exceeds the smallest training split in the sweep")

    seeds = Seeds(**{f.name: _get(parser, "seeds", f.name, int) for f in fields(Seeds)})

    output = {}
    if parser.has_option("output", "directory"):
        output["output_dir"] = _get(parser, "output", "directory", str)
    return RunConfig(
        scenario=scenario, channel=channel, nn=nn, data=data, pso=pso,
        objective=objective, eval=eval_cfg, sweep=sweep, seeds=seeds, **output,
    )


def build_scenario(cfg: ScenarioConfig):
    """Instantiate the scenario object a config section describes."""
    try:
        if cfg.kind == SCENARIO_STREET:
            return StreetScenario.default(cfg.map_side, cfg.building_side, cfg.street_width)
        return CircularScenario.default(cfg.r_out, cfg.roi_width, cfg.roi_height, cfg.r_min)
    except ValueError as exc:
        raise ConfigError(f"[scenario] {exc}") from None

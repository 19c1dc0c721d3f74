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
from .planner import OBJECTIVE_AUC, OBJECTIVE_CE, PlacementEvalConfig, PsoConfig, Seeds
from .scenario import (
    SCENARIO_CIRCULAR,
    SCENARIO_STREET,
    CircularScenario,
    ScenarioConfig,
    StreetScenario,
)

OBJECTIVE_BOTH = "both"


class ConfigError(ValueError):
    """Invalid or missing configuration; message names the offending key."""


@dataclass(frozen=True)
class EvalConfig:
    n_np_samples: int = 100_000
    n_thetas: int = 200
    resolution_rad: float = 1e-4

    def __post_init__(self):
        if self.n_np_samples < MIN_NP_ROC_SAMPLES:
            raise ValueError(f"n_np_samples: need at least {MIN_NP_ROC_SAMPLES}")
        if self.n_thetas < 2:
            raise ValueError("n_thetas: need at least 2 thresholds")
        if not 0.0 < self.resolution_rad <= MAX_RESOLUTION_RAD:
            raise ValueError(f"resolution_rad: must lie in (0, {MAX_RESOLUTION_RAD:g}] rad")


@dataclass(frozen=True)
class SweepConfig:
    n_hidden: tuple[int, ...] = (PlacementEvalConfig.n_hidden,)
    s_total: tuple[int, ...] = (PlacementEvalConfig.s_total,)
    n_seeds: int = 5
    n_field_realizations: int = 500

    def __post_init__(self):
        for key in ("n_seeds", "n_field_realizations"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key}: must be at least 1")
        if min(self.n_hidden, default=0) < 1:
            raise ValueError("n_hidden: every width must be at least 1")
        if min(self.s_total, default=0) < 2:
            raise ValueError("s_total: every sample count must be at least 2")
        for key in ("n_hidden", "s_total"):  # a repeat would train its tasks twice
            values = getattr(self, key)
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{key}: {value} is listed twice")


@dataclass(frozen=True)
class RunConfig:
    scenario: StreetScenario | CircularScenario
    placement: PlacementEvalConfig  # [channel], [nn], [dataset]
    pso: PsoConfig
    eval: EvalConfig
    sweep: SweepConfig
    seeds: Seeds
    objective: str = OBJECTIVE_CE  # [pso] objective: ce, auc, or both
    directory: str = "runs"  # [output] directory

    def __post_init__(self):
        if self.objective not in (OBJECTIVE_CE, OBJECTIVE_AUC, OBJECTIVE_BOTH):
            raise ValueError(f"objective: unknown objective {self.objective!r}")


def _names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


# Every key a config may set: [section] -> {dataclass: the fields of it the
# section sets, named as the keys}.  load_config reads through this table
# and rejects any section or key it does not list.
SECTIONS = {
    "scenario": {ScenarioConfig: _names(ScenarioConfig)},
    "channel": {ChannelParams: _names(ChannelParams)},
    "nn": {PlacementEvalConfig: ("n_hidden", "n_layers"),
           TrainConfig: ("learning_rate", "epochs", "batch_size")},
    "dataset": {PlacementEvalConfig: ("s_total", "p0", "train_frac")},
    "pso": {PsoConfig: _names(PsoConfig), RunConfig: ("objective",)},
    "eval": {EvalConfig: _names(EvalConfig)},
    "sweep": {SweepConfig: _names(SweepConfig)},
    "seeds": {Seeds: _names(Seeds)},
    "output": {RunConfig: ("directory",)},
}


def _parse(raw: str, section: str, key: str, kind):
    if kind is tuple and not raw.replace(",", "").strip():
        raise ConfigError(f"[{section}] {key}: empty list")
    try:
        if kind is tuple:  # a comma-separated list of integers
            value = tuple(int(part) for part in raw.split(",") if part.strip())
        elif kind is str:
            value = raw.strip()
        else:  # int or float
            value = kind(raw)
    except ValueError:
        what = "a comma-separated list of whole numbers" if kind is tuple else kind.__name__
        raise ConfigError(f"[{section}] {key}: cannot read {raw!r} as {what}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite")
    return value


def _get(parser, section: str, key: str, kind):
    if not parser.has_option(section, key):
        raise ConfigError(f"[{section}] {key}: required key missing")
    return _parse(parser.get(section, key), section, key, kind)


def _build(cls, keys: dict):
    """cls(**keys), its "key: ..." validation error prefixed by the section
    SECTIONS lists the key in for cls, or else for the class that owns it."""
    try:
        return cls(**keys)
    except ValueError as exc:
        key = str(exc).partition(":")[0]
        owners = {c: s for s, classes in SECTIONS.items() for c, names in classes.items() if key in names}
        raise ConfigError(f"[{owners.get(cls) or next(iter(owners.values()))}] {exc}") from None


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
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"[{section}]: unknown section")
        known = {key for keys in SECTIONS[section].values() for key in keys}
        unknown = [key for key in parser.options(section) if key not in known]
        if unknown:
            raise ConfigError(f"[{section}] {unknown[0]}: unknown key")

    placement_keys = {
        "channel": _build(ChannelParams, _read(parser, "channel", ChannelParams)),
        "train": _build(TrainConfig, _read(parser, "nn", TrainConfig)),
        **_read(parser, "nn", PlacementEvalConfig), **_read(parser, "dataset", PlacementEvalConfig),
    }
    sweep_keys = _read(parser, "sweep", SweepConfig)
    _build(SweepConfig, sweep_keys)
    # each [sweep] size is a placement config at run time, checked before the [dataset] one
    for s_total in sweep_keys.get("s_total", ()):
        _build(PlacementEvalConfig, {**placement_keys, "s_total": s_total})
    placement = _build(PlacementEvalConfig, placement_keys)
    return _build(RunConfig, {
        "scenario": _build_scenario(ScenarioConfig(**_read(parser, "scenario", ScenarioConfig))),
        "placement": placement, "pso": _build(PsoConfig, _read(parser, "pso", PsoConfig)),
        "eval": _build(EvalConfig, _read(parser, "eval", EvalConfig)),
        # the sweep lists default to the single [nn]/[dataset] value
        "sweep": SweepConfig(**{"n_hidden": (placement.n_hidden,),
                                "s_total": (placement.s_total,), **sweep_keys}),
        "seeds": _build(Seeds, {key: _get(parser, "seeds", key, int) for key in _names(Seeds)}),
        **_read(parser, "pso", RunConfig), **_read(parser, "output", RunConfig),
    })


def _build_scenario(cfg: ScenarioConfig):
    """The scenario object the [scenario] section describes."""
    try:
        if cfg.kind == SCENARIO_STREET:
            return StreetScenario.default(cfg.map_side, cfg.building_side, cfg.street_width)
        if cfg.kind == SCENARIO_CIRCULAR:
            return CircularScenario.default(cfg.r_out, cfg.roi_width, cfg.roi_height, cfg.r_min)
    except ValueError as exc:
        raise ConfigError(f"[scenario] {exc}") from None
    raise ConfigError(f"[scenario] kind: unknown scenario {cfg.kind!r}")

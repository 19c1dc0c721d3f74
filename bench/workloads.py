"""The four benchmark workloads: irlv command, config make-up and checks.

Every key is written out, so a change of irlv's defaults cannot change a
workload.  The [seeds] section comes from the benchmark's --seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

STREET = {"kind": "street", "map_side": 525.0, "building_side": 255.0, "street_width": 15.0,
          "r_out": 40.0, "roi_width": 25.0, "roi_height": 25.0, "r_min": 4.0}
CHANNEL = {"f0_hz": 2.12e9, "sigma_s_db": 8.0, "d_c_m": 75.0, "h_ap_m": 15.0, "grid_spacing_m": 5.0}
NN = {"n_hidden": 8, "n_layers": 3, "learning_rate": 0.5, "epochs": 10, "batch_size": 128}
PSO = {"n_particles": 6, "inertia": 0.7298, "c1": 1.4961, "c2": 1.4961, "max_iterations": 3,
       "stall_iterations": 4, "stall_tolerance": 1e-4, "objective": "ce"}
EVAL = {"n_np_samples": 100_000, "n_thetas": 200, "resolution_rad": 1e-4}


def _config(scenario=None, channel=None, nn=None, data=None, pso=None, sweep=None) -> dict:
    s_total = (data or {}).get("s_total", 5000)
    return {
        "scenario": {**STREET, **(scenario or {})},
        "channel": {**CHANNEL, **(channel or {})},
        "nn": {**NN, **(nn or {})},
        "dataset": {"s_total": s_total, "p0": 0.5, "train_frac": 0.7, **(data or {})},
        "pso": {**PSO, **(pso or {})},
        "eval": dict(EVAL),
        "sweep": {"n_hidden": (8,), "s_total": (s_total,), "n_seeds": 1,
                  "n_field_realizations": 10, **(sweep or {})},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    check: Callable


# Why each workload: see BENCHMARK.json and the README.
WORKLOADS = {w.name: w for w in [
    Workload(
        "roc-sweep", "roc",
        _config(nn={"epochs": 60},
                sweep={"n_hidden": (4, 8), "s_total": (2000, 5000), "n_seeds": 3}),
        checks.check_roc_sweep,
    ),
    Workload(
        "plan-pso", "plan",
        _config(pso={"objective": "both"}),
        checks.check_plan_pso,
    ),
    Workload(
        "field-dense", "field",
        _config(channel={"grid_spacing_m": 15.0}),
        checks.check_field_dense,
    ),
    Workload(
        "np-compare-disc", "np-compare",
        _config(scenario={"kind": "circular"}, channel={"sigma_s_db": 0.0},
                nn={"epochs": 30}, data={"s_total": 20_000}),
        checks.check_np_compare,
    ),
]}


def seeds(seed: int) -> dict:
    """The [seeds] section for one workload seed; four unrelated streams."""
    field, dataset, init, pso = (int(v) >> 1 for v in np.random.SeedSequence(seed).generate_state(4))
    return {"field": field, "dataset": dataset, "init": init, "pso": pso}


def render(config: dict, seed: int) -> str:
    """INI text of a config with the [seeds] section for seed."""
    lines = []
    for section, values in {**config, "seeds": seeds(seed)}.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)

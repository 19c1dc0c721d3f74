"""Golden pins, all in tests/golden_outputs.json and re-recorded by one command.

- runs: the sha256 of every file the four commands write on the
  tests/test_cli.py configs.
- library: the exact values of a few seeded library calls (swarm runs,
  placement scores, shadowing fields), each from a recipe below that
  returns plain lists and floats; JSON keeps a float's repr, so every value
  round-trips bit for bit.

Any change that moves an output byte or a pinned value fails here, so a
refactor that claims byte-identical outputs is checked by the suite itself.
Floating-point results may differ between numpy and BLAS builds; the table
records the versions it was taken with, and a mismatch prints both sets, so
a failure on another build reads as such.  BLAS products may round
differently with another thread count, so the table records that too.  A
declared golden change rewrites both sections with
`python tests/test_golden.py`.
"""

import dataclasses
import json
import sys
from pathlib import Path

# before numpy, so a run as a script gets the package's one-thread BLAS default
import irlv  # noqa: F401
import numpy as np
import pytest

from irlv.channel import ChannelParams, generate_fields, generate_shadowing_field
from irlv.cli import main
from irlv.mlp import TrainConfig
from irlv.planner import (
    OBJECTIVE_CE,
    PlacementEvalConfig,
    PsoConfig,
    Seeds,
    evaluate_placement,
    plan_placement,
    run_pso,
)
from irlv.scenario import CircularScenario, StreetScenario
from test_cli import CIRCULAR, STREET
from test_packaging import blas_threads
from test_planner import BOUNDS, _sphere

TABLE = Path(__file__).with_name("golden_outputs.json")

CONFIGS = {
    "circular-sigma0": CIRCULAR,
    "circular-sigma8": CIRCULAR.replace("sigma_s_db = 0.0", "sigma_s_db = 8.0"),
    "street-sigma0": STREET,
    "street-sigma8": STREET.replace("sigma_s_db = 0.0", "sigma_s_db = 8.0"),
}
# the paper's two-stage search; only plan reads [pso] objective, so it gets a plan case alone
CONFIGS["street-sigma8-two-stage"] = CONFIGS["street-sigma8"].replace("objective = both",
                                                                      "objective = two-stage")

# (command, config, seed offset); np-compare needs the disc and plan the street
CASES = [
    (command, config, 0)
    for config in ("circular-sigma0", "circular-sigma8", "street-sigma0", "street-sigma8")
    for command in ("roc", "np-compare" if config.startswith("circular") else "plan", "field")
] + [("roc", "circular-sigma0", 3), ("np-compare", "circular-sigma8", 3),
     ("plan", "street-sigma8", 3), ("field", "street-sigma8", 3),
     ("plan", "street-sigma8-two-stage", 0)]

# roc and plan split their work under --jobs; the outputs must not move
RUNS = [(case, jobs) for case in CASES for jobs in ((1, 2) if case[0] in ("roc", "plan") else (1,))]


def case_id(case) -> str:
    command, config, offset = case
    return f"{command}-{config}" + (f"-offset{offset}" if offset else "")


def versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": f"{blas['name']} {blas.get('version', '?')}", "numpy": np.__version__,
            "blas_threads": str(blas_threads())}


def output_hashes(case, jobs: int, work: Path) -> dict[str, str]:
    """The manifest's outputs table of one run of the case."""
    command, config, offset = case
    path = work / f"{config}.cfg"
    path.write_text(CONFIGS[config])
    out = work / f"{case_id(case)}-jobs{jobs}"
    argv = [command, "--config", path, "--out", out, "--seed-offset", offset, "--jobs", jobs]
    assert main([str(a) for a in argv]) == 0
    return json.loads((out / "manifest.json").read_text())["outputs"]


@pytest.mark.parametrize("case, jobs", RUNS, ids=[f"{case_id(c)}-jobs{j}" for c, j in RUNS])
def test_outputs_match_the_golden_table(tmp_path, case, jobs):
    table = json.loads(TABLE.read_text())
    got = output_hashes(case, jobs, tmp_path)
    assert got == table["runs"][case_id(case)], (
        f"outputs of {case_id(case)} --jobs {jobs} moved; table taken with "
        f"{table['versions']}, this run with {versions()}"
    )


def _swarm_run(result) -> dict:
    """The best position, the best-value history and every sweep's values."""
    return {"best_x": result.best_x.tolist(), "history": result.history,
            "particle_values": result.particle_values}


def pso_sphere_runs():
    """The swarm's random-number order and update rule: two short runs on
    the sphere, free and from given starts (the third start lies outside the
    box and is clipped to (10, 0))."""
    cfg = PsoConfig(n_particles=3, max_iterations=3, stall_iterations=3)
    starts = [[1.0, 9.0], [5.0, 5.0], [12.0, -1.0]]
    return {
        "free": _swarm_run(run_pso(_sphere, BOUNDS, 2, cfg, np.random.default_rng(11))),
        "seeded": _swarm_run(run_pso(_sphere, BOUNDS, 2, cfg, np.random.default_rng(11), starts)),
    }


# the small street and disc training setup of the placement pins
SMALL_EVAL = PlacementEvalConfig(channel=ChannelParams(), s_total=600, n_hidden=4, n_layers=2,
                                 train=TrainConfig(learning_rate=0.5, epochs=5, batch_size=64))


def own_placement_score(scenario, channel):
    """The scenario's own placement, scored as a stack of one: the CE and
    AUC that its single network got when roc and np-compare trained one,
    with the mini-batch order drawn from the init seed."""
    cfg = dataclasses.replace(SMALL_EVAL, channel=channel)
    seeds = Seeds(field=1, dataset=2, init=3, pso=0)
    [score] = evaluate_placement(scenario, generate_fields(scenario, channel, seeds),
                                 cfg, seeds, np.array([scenario.bs_positions]))
    return [score.ce_bits, score.auc_value]


def street_plan_run():
    """One small search on the street map with shadowing, taken when every
    placement was trained alone, with the mini-batch order drawn from the
    init seed."""
    pso = PsoConfig(n_particles=3, max_iterations=2, stall_iterations=3)
    [(result, aucs)] = plan_placement(StreetScenario.default(), SMALL_EVAL, Seeds(1, 2, 3, 4), pso,
                                      [OBJECTIVE_CE])
    return {**_swarm_run(result), "aucs": aucs}


def street_two_stage_run():
    """The two-stage search on the street map: a CE stage, then an AUC stage
    from its best placement, with the same swarm settings."""
    pso = PsoConfig(n_particles=3, max_iterations=2, stall_iterations=3)
    stages = plan_placement(StreetScenario.default(), SMALL_EVAL, Seeds(1, 2, 3, 0), pso,
                            ["two-stage"])
    return [{**_swarm_run(result), "aucs": aucs} for result, aucs in stages]


def cutoff_field():
    """A 7x7 cut-off field (15 m apart with d_c = 1000 m, where the plain
    embedding fails), bit for bit: any change to the cut-off's arithmetic,
    to the draw order or to the routing shows here."""
    params = ChannelParams(d_c_m=1000.0, grid_spacing_m=15.0)
    f = generate_shadowing_field(CircularScenario.default(), params, seed=11)
    assert f.values.shape == (7, 7)
    return f.values.tolist()


def fft_field_corners():
    """A 51x51 grid whose plain embedding fails at its first size, so it
    takes the cut-off route; its two 3x3 corner blocks, bit for bit."""
    f = generate_shadowing_field(CircularScenario.default(), ChannelParams(grid_spacing_m=1.6),
                                 seed=11)
    assert f.values.shape == (51, 51)
    return {"first": f.values[:3, :3].tolist(), "last": f.values[-3:, -3:].tolist()}


# case -> zero-argument recipe of its pinned values
LIBRARY = {
    "run_pso-sphere": pso_sphere_runs,
    "evaluate_placement-street": lambda: own_placement_score(StreetScenario.default(),
                                                             ChannelParams()),
    "evaluate_placement-disc": lambda: own_placement_score(CircularScenario.default(),
                                                           ChannelParams(sigma_s_db=0.0)),
    "plan_placement-street": street_plan_run,
    "plan_placement-street-two-stage": street_two_stage_run,
    "shadowing_field-cutoff": cutoff_field,
    "shadowing_field-fft-corners": fft_field_corners,
}


@pytest.mark.parametrize("name", LIBRARY)
def test_library_values_match_the_golden_table(name):
    table = json.loads(TABLE.read_text())
    assert LIBRARY[name]() == table["library"][name], (
        f"values of {name} moved; table taken with {table['versions']}, this run with {versions()}"
    )


def test_table_covers_exactly_the_cases():
    table = json.loads(TABLE.read_text())
    assert sorted(table["runs"]) == sorted(map(case_id, CASES))
    assert sorted(table["library"]) == sorted(LIBRARY)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        runs = {case_id(case): output_hashes(case, 1, Path(work)) for case in CASES}
    library = {name: recipe() for name, recipe in LIBRARY.items()}
    TABLE.write_text(json.dumps({"versions": versions(), "runs": runs, "library": library},
                                indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs and {len(library)} library cases to {TABLE}", file=sys.stderr)

"""Golden output pins: the sha256 of every file the four commands write on
the tests/test_cli.py configs, checked against tests/golden_outputs.json.

Any change that moves an output byte fails here, so a refactor that claims
byte-identical outputs is checked by the suite itself.  Floating-point
results may differ between numpy and BLAS builds; the table records the
versions it was taken with, and a mismatch prints both sets, so a failure
on another build reads as such.  Dense-route fields also depend on the
number of BLAS threads, so the table records that too.  A declared golden
change rewrites the table with `python tests/test_golden.py`.
"""

import json
import sys
from pathlib import Path

# before numpy, so a run as a script gets the package's one-thread BLAS default
import irlv  # noqa: F401
import numpy as np
import pytest

from irlv.cli import main
from test_cli import CIRCULAR, STREET
from test_packaging import blas_threads

TABLE = Path(__file__).with_name("golden_outputs.json")

CONFIGS = {
    "circular-sigma0": CIRCULAR,
    "circular-sigma8": CIRCULAR.replace("sigma_s_db = 0.0", "sigma_s_db = 8.0"),
    "street-sigma0": STREET,
    "street-sigma8": STREET.replace("sigma_s_db = 0.0", "sigma_s_db = 8.0"),
}

# (command, config, seed offset); np-compare needs the disc and plan the street
CASES = [
    (command, config, 0)
    for config in CONFIGS
    for command in ("roc", "np-compare" if config.startswith("circular") else "plan", "field")
] + [("roc", "circular-sigma0", 3), ("np-compare", "circular-sigma8", 3),
     ("plan", "street-sigma8", 3), ("field", "street-sigma8", 3)]

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


def test_table_covers_exactly_the_cases():
    assert sorted(json.loads(TABLE.read_text())["runs"]) == sorted(map(case_id, CASES))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        runs = {case_id(case): output_hashes(case, 1, Path(work)) for case in CASES}
    TABLE.write_text(json.dumps({"versions": versions(), "runs": runs}, indent=1, sort_keys=True)
                     + "\n")
    print(f"wrote {len(runs)} cases to {TABLE}", file=sys.stderr)

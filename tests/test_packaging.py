"""Packaging: the program runs on numpy alone, pyproject.toml lists
exactly the third-party modules it imports, every import is used, and
importing irlv sets a one-thread BLAS default."""

import ast
import ctypes
import glob
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import irlv

PACKAGE = Path(irlv.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def _third_party_imports() -> set[str]:
    """Top-level names of the absolute imports in src/irlv that are neither
    the standard library nor irlv itself."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"irlv"}


def blas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS runs with, or None when no
    OpenBLAS thread query is found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_threads is not None:
                    get_threads.restype = ctypes.c_int
                    return get_threads()
    return None


def _distribution_name(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")


def test_cli_import_loads_no_scipy():
    code = "import sys, irlv.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    """Only a parallel run (--jobs above 1) imports the process pool."""
    code = ("import sys, irlv.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def _import_cli_report_blas(**preset: str) -> list[str]:
    """Import irlv.cli in a fresh process whose environment holds no
    OPENBLAS_NUM_THREADS beyond `preset`; returns the variable's value and
    OpenBLAS's thread count as that process sees them."""
    code = ("import os, irlv.cli; from test_packaging import blas_threads; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], blas_threads())")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(preset, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), str(Path(__file__).parent)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.split()


def test_cli_import_sets_one_blas_thread():
    """irlv's parallelism is --jobs: importing the package sets one BLAS
    thread before numpy loads, so OpenBLAS starts with one."""
    setting, threads = _import_cli_report_blas()
    assert setting == "1"
    if threads == "None":
        pytest.skip("no OpenBLAS thread query found in numpy.libs")
    assert threads == "1"


def test_preset_blas_threads_are_kept():
    setting, _ = _import_cli_report_blas(OPENBLAS_NUM_THREADS="2")
    assert setting == "2"


def test_roc_run_loads_no_masked_arrays(tmp_path):
    """np.unique imports numpy.ma; the ROC construction finds its distinct
    thresholds without it, so a run does not pay for that import."""
    (tmp_path / "run.cfg").write_text(
        "[scenario]\nkind = circular\n[channel]\nsigma_s_db = 0.0\n"
        "[nn]\nn_hidden = 2\nepochs = 2\n[dataset]\ns_total = 200\n[sweep]\nn_seeds = 1\n"
        "[seeds]\nfield = 0\ndataset = 1\ninit = 2\npso = 3\n")
    code = ("import sys, irlv.cli; "
            "assert irlv.cli.main(['roc', '--config', 'run.cfg', '--out', 'o']) == 0; "
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, cwd=tmp_path)
    assert out.stdout.splitlines()[-1] == "False"


def _unused_imports(source: str) -> list[str]:
    """Names the module imports but never reads, as pyflakes' F401 finds
    them: __future__ imports and lines marked `# noqa: F401` are exempt."""
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
                or "# noqa: F401" in "\n".join(lines[node.lineno - 1:node.end_lineno])):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{name} (line {node.lineno})")
    return unused


@pytest.mark.parametrize("source, unused", [
    ("import os\nimport numpy as np\nnp.zeros(os.cpu_count())\n", []),
    ("import os.path\nfrom math import pi, tau\nprint(pi)\n", ["os (line 1)", "tau (line 2)"]),
    ("from __future__ import annotations\nfrom a import (\n    b,\n)  # noqa: F401\n", []),
    ("def f():\n    import json\n    return 1\n", ["json (line 2)"]),
], ids=["used", "unused", "exempt", "local"])
def test_unused_import_rule(source, unused):
    assert _unused_imports(source) == unused


def test_package_imports_are_used():
    """No linter ships with the toolchain, so this is the package's
    unused-import check."""
    found = {path.name: _unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def _linalg_uses(source: str) -> list[int]:
    """Lines that reach numpy.linalg: an attribute `linalg` or an import of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any("linalg" in name.split(".") for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, lines", [
    ("import numpy as np\nnp.linalg.cholesky(a)\n", [2]),
    ("from numpy.linalg import solve\nfrom numpy import linalg\nimport numpy.linalg\n", [1, 2, 3]),
    ("x = 'np.linalg'  # linalg\nlinalg = 1\n", []),
], ids=["call", "imports", "names"])
def test_linalg_rule(source, lines):
    assert sorted(_linalg_uses(source)) == lines


def test_package_calls_no_linear_algebra():
    """Every shadowing field is an FFT draw on a circulant embedding: a dense
    factor (numpy.linalg) would bring back a second route, a node limit and
    bytes that depend on the BLAS build."""
    found = {path.name: _linalg_uses(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_dependencies_are_exactly_the_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    listed = {_distribution_name(r) for r in project["dependencies"]}
    assert listed == _third_party_imports() == {"numpy"}
    test_extra = {_distribution_name(r) for r in project["optional-dependencies"]["test"]}
    assert "scipy" in test_extra

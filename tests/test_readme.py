"""README code blocks: each python block compiles, its irlv imports resolve,
and its calls of the imported names fit their signatures."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_block_compiles_and_its_imports_resolve(index):
    tree = ast.parse(BLOCKS[index], filename=f"README.md python block {index}")
    compile(tree, "README.md", "exec")
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "irlv":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    # calls of imported names must fit their signatures, keywords included
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in imported:
            signature = inspect.signature(imported[node.func.id])
            signature.bind(*node.args, **{kw.arg: None for kw in node.keywords})

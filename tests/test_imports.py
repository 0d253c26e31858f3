"""Every module-level import in the package is used.

No linter runs on this repository, so this is the check that keeps unused
imports out: a name bound by a module-level `import` or `from ... import` must
be referenced somewhere in its module, or be re-exported through `__all__`.
The package `__init__` is left out: re-exporting is what its imports are for.
"""

import ast
from pathlib import Path

import pytest

import wsobolev

MODULES = sorted(m for m in Path(wsobolev.__file__).parent.glob("*.py")
                 if m.name != "__init__.py")


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every module-level import binding."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [f"{name} (line {line})" for name, line in _bound_names(tree).items()
            if name not in used]


def test_modules_found():
    assert {"pde.py", "sobolev.py", "cli.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_no_unused_module_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import math\nimport numpy as np\nfrom typing import Sequence\nnp.zeros(1)\n"
    assert unused_imports(source) == ["math (line 1)", "Sequence (line 3)"]

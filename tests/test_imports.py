"""Every module-level import in the package is used, and every export has a
caller.

No linter runs on this repository, so this is the check that keeps unused
imports out: a name bound by a module-level `import` or `from ... import` must
be referenced somewhere in its module or test file, or be re-exported through
`__all__`.

A function, class or module-level constant in a module's `__all__` must be
referenced somewhere outside its own definition: in the package, or in the
benchmark, the tools, the README or the acceptance tests.  Unit tests do not
count, so library code that only its own tests reach is flagged.

The package `__init__` re-exports nothing, so each name has one home, its
module: it imports package modules only (`from . import grid`) and binds no
other name but `__version__`.
"""

import ast
import re
from pathlib import Path

import pytest

import wsobolev

MODULES = sorted(m for m in Path(wsobolev.__file__).parent.glob("*.py")
                 if m.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]
TEST_FILES = sorted((REPO / "tests").glob("*.py"))
# python files outside the package whose references count as callers
CALLER_SCRIPTS = [*sorted((REPO / "bench").glob("*.py")), *sorted((REPO / "tools").glob("*.py")),
                  REPO / "tests" / "test_acceptance.py"]


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


def references(source: str, strings: bool = False) -> set[str]:
    """Names read and attributes taken in the module, each top-level def or
    class not counting its own name; with strings, also every string constant
    (a name passed to getattr)."""
    refs = set()
    for stmt in ast.parse(source).body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        refs |= found
    return refs


def _top_level_names(tree: ast.Module) -> set[str]:
    """Names that module-level defs, classes and assignments bind."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def uncalled_exports(package: dict[str, str], scripts: list[str], text: str) -> list[str]:
    """`module.name` for each function, class or constant in a package
    module's `__all__` that no package module, script or the text refers to."""
    called = set().union(*(references(src) for src in package.values()),
                         *(references(src, strings=True) for src in scripts))
    out = []
    for module, src in sorted(package.items()):
        tree = ast.parse(src)
        out += [f"{module}.{name}" for name in sorted(_exported(tree) & _top_level_names(tree))
                if name not in called and not re.search(rf"\b{name}\b", text)]
    return out


def init_bindings(init: str, modules: set[str]) -> list[str]:
    """Each name the package `__init__` binds other than `__version__` and
    the package modules it imports under their own names (`from . import grid`)."""
    tree = ast.parse(init)
    allowed = {"__version__"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            allowed |= {a.name for a in node.names if a.name in modules and a.asname is None}
    return [name for name in [*_bound_names(tree), *sorted(_top_level_names(tree))]
            if name not in allowed]


def test_modules_found():
    assert {"pde.py", "sobolev.py", "cli.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES + TEST_FILES,
                         ids=[m.name for m in MODULES] + [f"tests/{m.name}" for m in TEST_FILES])
def test_no_unused_module_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import math\nimport numpy as np\nfrom typing import Sequence\nnp.zeros(1)\n"
    assert unused_imports(source) == ["math (line 1)", "Sequence (line 3)"]


def test_every_export_has_a_caller():
    package = {m.stem: m.read_text(encoding="utf-8") for m in MODULES}
    scripts = [p.read_text(encoding="utf-8") for p in CALLER_SCRIPTS]
    assert uncalled_exports(package, scripts, (REPO / "README.md").read_text("utf-8")) == []


def test_init_binds_only_modules():
    init = (Path(wsobolev.__file__).parent / "__init__.py").read_text(encoding="utf-8")
    assert init_bindings(init, {m.stem for m in MODULES}) == []


def test_detects_a_name_reexport():
    init = ('"""Doc."""\nfrom . import a, b as c, missing\nfrom .a import listed\nimport math\n'
            '__version__ = "1"\nLIMIT = 1\n')
    assert init_bindings(init, {"a", "b"}) == ["c", "missing", "listed", "math", "LIMIT"]


def test_detects_an_uncalled_export():
    package = {
        "a": '__all__ = ["VERSION", "LIMIT", "used", "recursive", "own_tests_only", "named"]\n'
             "VERSION = 1\n"
             "LIMIT: int = 2\n"
             "def used(): pass\n"
             "def recursive(n): return recursive(n - 1)\n"
             "def own_tests_only(): pass\n"
             "def named(): pass\n",
        "b": "from .a import LIMIT, used\nused(LIMIT)\n",
    }
    scripts = ['LIB = ("own",)\n']
    assert uncalled_exports(package, scripts, "call `named`") == [
        "a.VERSION", "a.own_tests_only", "a.recursive"]

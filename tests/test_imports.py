"""Every module-level import in the package is used, and every export has a
caller.

No linter runs on this repository, so this is the check that keeps unused
imports out: a name bound by a module-level `import` or `from ... import` must
be referenced somewhere in its module or test file, or be re-exported through
`__all__`.

A function, class or module-level constant in a module's `__all__` must be
called somewhere outside its own definition: loaded or imported by name in
the package, called or imported in the README, or referenced in the
benchmark, the tools or the acceptance tests.  Unit tests do not count, so
library code that only its own tests reach is flagged.  In the package an
attribute of the same name (`step.energy`) is not a call, and in the README
neither is prose that uses the word.

The package `__init__` re-exports nothing, so each name has one home, its
module: it imports package modules only (`from . import grid`) and binds no
other name but `__version__`.
"""

import ast
import os
import re
import subprocess
import sys
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


def references(source: str, script: bool = False) -> set[str]:
    """Names read and names imported (`from .x import name`) in the module,
    each top-level def or class not counting its own name; in a script, also
    every attribute taken and every string constant (a name passed to
    getattr)."""
    refs = set()
    for stmt in ast.parse(source).body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                found |= {alias.name for alias in node.names}
            elif script and isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif script and isinstance(node, ast.Constant) and isinstance(node.value, str):
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


def text_references(text: str) -> set[str]:
    """Names the text calls (`name(`) or imports, on an `import` or
    `from ... import` line."""
    refs = set(re.findall(r"\b(\w+)\(", text))
    for line in re.findall(r"^\s*(?:from\s+\S+\s+)?import\s+(.+)$", text, re.MULTILINE):
        refs |= set(re.findall(r"\w+", line))
    return refs


def uncalled_exports(package: dict[str, str], scripts: list[str], text: str) -> list[str]:
    """`module.name` for each function, class or constant in a package
    module's `__all__` that no package module, script or the text calls."""
    called = set().union(*(references(src) for src in package.values()),
                         *(references(src, script=True) for src in scripts),
                         text_references(text))
    out = []
    for module, src in sorted(package.items()):
        tree = ast.parse(src)
        out += [f"{module}.{name}" for name in sorted(_exported(tree) & _top_level_names(tree))
                if name not in called]
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


def imported_modules(source: str) -> set[str]:
    """The top-level name of every absolute import, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_dataclasses():
    """The package has one record mechanism, `_record.Record`.  Records built
    by the `dataclasses` decorator compile their methods one `exec` at a time:
    29 of them cost 17-20 ms of every process's import."""
    assert [m.name for m in MODULES
            if "dataclasses" in imported_modules(m.read_text(encoding="utf-8"))] == []


def test_detects_a_dataclasses_import():
    source = "from dataclasses import dataclass\ndef f():\n    import numpy.linalg\n"
    assert imported_modules(source) == {"dataclasses", "numpy"}


# numpy calls that may hand their sums to the BLAS
_BLAS_CALLS = {"dot", "tensordot", "vdot", "inner", "matmul", "einsum"}


def blas_uses(source: str) -> list[int]:
    """Lines that call a BLAS-backed numpy routine (dot, tensordot, vdot,
    inner, matmul, einsum, or anything under linalg, as a name or an
    attribute) or use the `@` operator."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            hit = name in _BLAS_CALLS or any(
                isinstance(n, ast.Attribute) and n.attr == "linalg"
                or isinstance(n, ast.Name) and n.id == "linalg" for n in ast.walk(f))
        else:
            hit = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        if hit:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_weight_and_grid_evaluation_call_no_blas():
    """The rounding of a BLAS product depends on the kernel the machine
    picks (its blocking, its use of FMA), so a weight or a grid value
    computed through one could differ between machines."""
    uses = {name: blas_uses((Path(wsobolev.__file__).parent / name).read_text(encoding="utf-8"))
            for name in ("weights.py", "grid.py")}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_detects_a_blas_use():
    source = ("import numpy as np\nfrom numpy import linalg\nnp.sum(x)\n"
              "np.dot(a, b)\na.dot(b)\nnp.linalg.norm(a)\nlinalg.solve(a, b)\n"
              "c = a @ b\nc @= b\nnp.tensordot(a, b, 1)\nnp.einsum('i,i', a, b)\n"
              "np.inner(a, b) + np.vdot(a, b)\nnp.matmul(a, b)\nnp.add(a, b)\n")
    assert blas_uses(source) == [4, 5, 6, 7, 8, 9, 10, 11, 12, 13]


def numpy_random_uses(source: str) -> list[int]:
    """Lines that reach numpy.random: `np.random` or `numpy.random` as an
    attribute, `import numpy.random`, `from numpy import random` or
    `from numpy.random import ...`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            hit = any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            hit = (node.module.split(".")[:2] == ["numpy", "random"]
                   or node.module == "numpy" and any(a.name == "random" for a in node.names))
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_no_module_uses_numpy_random():
    """The package draws from the stdlib `random`, which interpreter
    start-up (`site`) usually loads already and which costs under 1 MB when
    it does not.  numpy.random's first use loads its nine
    extension modules and OpenSSL's libcrypto (through `secrets` and
    `hashlib`), about 5.5 MB of a process's resident memory."""
    uses = {m.name: numpy_random_uses(m.read_text(encoding="utf-8")) for m in MODULES}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_detects_a_numpy_random_use():
    source = ("import random\nimport numpy as np\nimport numpy.random\n"
              "from numpy import random as npr, zeros\nfrom numpy.random import default_rng\n"
              "rng = np.random.default_rng(0)\nrandom.Random(1).random()\nrng.random(3)\n"
              "x = numpy.random\n")
    assert numpy_random_uses(source) == [3, 4, 5, 6, 9]


def test_maximal_diagnostics_leave_numpy_random_and_openssl_out():
    # a fresh interpreter: this test process has loaded numpy.random already
    src = str(Path(wsobolev.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from wsobolev.grid import build_grid\n"
        "from wsobolev.sobolev import hedberg_constant, maximal_bound_check\n"
        "from wsobolev.weights import WeightSpec, root_on_grid\n"
        "for dim in (1, 2):\n"
        "    u = root_on_grid(WeightSpec(1.0, 2.0, dim), build_grid(dim, 6.0, 41), 2.0)\n"
        "    assert hedberg_constant(u).pairs_used == 200\n"
        "    maximal_bound_check(u, 2.0)\n"
        "print(sorted(m for m in ('numpy.random', 'secrets', 'hashlib', '_hashlib')\n"
        "             if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_init_binds_only_modules():
    init = (Path(wsobolev.__file__).parent / "__init__.py").read_text(encoding="utf-8")
    assert init_bindings(init, {m.stem for m in MODULES}) == []


def test_detects_a_name_reexport():
    init = ('"""Doc."""\nfrom . import a, b as c, missing\nfrom .a import listed\nimport math\n'
            '__version__ = "1"\nLIMIT = 1\n')
    assert init_bindings(init, {"a", "b"}) == ["c", "missing", "listed", "math", "LIMIT"]


def test_detects_an_uncalled_export():
    package = {
        "a": '__all__ = ["VERSION", "LIMIT", "used", "recursive", "own_tests_only", "named",\n'
             '           "imported", "attr_and_prose", "scripted"]\n'
             "VERSION = 1\n"
             "LIMIT: int = 2\n"
             "def used(): pass\n"
             "def recursive(n): return recursive(n - 1)\n"
             "def own_tests_only(): pass\n"
             "def named(): pass\n"
             "def imported(): pass\n"
             "def attr_and_prose(): pass\n"
             "def scripted(): pass\n",
        # an attribute of an export's name is no call in a package module
        "b": "from .a import LIMIT, used\nused(LIMIT)\ndef f(step): return step.attr_and_prose\n",
    }
    scripts = ['LIB = ("own",)\nimport a\na.scripted\n']
    text = ("call `named(u)`, or\n"
            "    from wsobolev.a import imported\n"
            "the attr_and_prose is prose\n")
    assert uncalled_exports(package, scripts, text) == [
        "a.VERSION", "a.attr_and_prose", "a.own_tests_only", "a.recursive"]

"""Byte-compare the CLI reports, library results and arrays of two source trees.

    python tools/report_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `wsobolev` package, such as
the `src/` of two checkouts. The configs are every CLI case of the benchmark's
run lists (`bench/cases.build` for the three workloads and seeds 0-4, with
repeated configs dropped), the README config in 1d and in 2d, and a sweep of
102 solves that reach the Newton-CG path, 4 p = 3 flows whose last step is
shorter and 3 p = 2 solves, one per kind of prepared system
(`_sweep_configs`), and 7 solves whose numbers reach the ends of float range:
the six whose iterate leaves it, which fail in one error line, and a
stationary solve on a weight clamped at the smallest float
(`_float_range_configs`), and 14 configs with one fault each, each run
under `constants` and `solve-stationary`, which refuse it in one error
line (`_refusal_configs`). Each runs once per tree through
`wsobolev.cli.main`, in the same relative paths, so messages that name a
path match. Every library case of the same run lists
also runs once per tree, through the functions `bench/run.py` hands its
library cases (`LIB_NAMES`), and its result is compared by `repr`. For every
catalog weight of the diagnostics run lists, the node values of the weight
(`weight_on_grid`) and of the maximal function of its p-th root
(`maximal_function(root_on_grid(...))`) are compared byte for byte, and so
are the node values of the p-Laplacian (`pde.apply_operator`) at p = 2 and
3 against that weight, on the sum of the coordinates' sines, and those of
`mollify` at every eps of every `approximate` run above, of its u0 state
with its declared support and with none.

Every report file, exit code, stderr text and library result that differs
between the trees is printed with its first differing line and the largest
change among its numbers, absolute and relative to the text's largest
number; every array that differs, with the number of values that changed
and the largest change relative to the value, or that one tree alone
gives. The exit status is 1 if
anything differs, else 0. Only `bench/` and
`README.md` of this checkout are read; nothing is written outside a
temporary directory.
"""

from __future__ import annotations

import os

# one BLAS thread, as in the benchmark, so sums round the same way on every run
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import copy
import importlib
import io
import itertools
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("diagnostics", "flow-1d", "flow-2d")
SEEDS = range(5)
SUBCOMMANDS = ("weight-report", "constants", "verify-inequalities", "approximate",
               "solve-evolution", "solve-stationary")


def _readme_configs() -> dict[str, dict]:
    """The README config, and a 2d variant of it small enough to run quickly."""
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", text, flags=re.S)
    one = json.loads(block)
    two = copy.deepcopy(one)
    two["weight"]["dim"] = 2
    two["weight"]["V"][0]["k"] = [2.0, 1.0]
    two["grid"] = {"half_width": 4.0, "nodes_per_axis": 41}
    two["balls"] = [{"center": [0.0, 0.0], "radius": 1.0},
                    {"center": [0.5, -0.5], "radius": 1.5}]
    two["approximate"]["u0"] = "max(1 - x*x - y*y, 0)"
    two["evolution"]["T"] = 0.02
    return {"readme-1d": one, "readme-2d": two}


def _sweep_configs() -> dict[str, tuple[str, dict]]:
    """Run name -> (subcommand, config) of the solves that go to CG at p > 2:
    beta = 1, q = 2, half-width 6, V = 0 or 0.5 cos(1.5 sum x), p in {2.5, 3,
    4}; 1d stationary solves (source 2x) at n in {101, 151, 201, 301, 601},
    and 2d stationary solves (source 2(x + y)) and 2d flows (u0 = x, T = 0.2,
    tau in {0.01, 0.1}) at n in {41, 61, 81, 101}.  Then p = 3 flows from
    u0 = x to T = 0.25 with tau = 0.1, whose last step is shorter and
    prepared apart, with V = 0 and with that V: 1d at n = 301 (solved
    directly) and 2d at n = 41 (by CG).  Then three p = 2 solves with that V,
    one through each kind of prepared system: a 1d (n = 301) and a 2d
    (n = 61) flow from u0 = x to T = 0.25 with tau = 0.1, and a 1d
    stationary solve at n = 301."""
    out = {}
    for dim, p, cos in itertools.product((1, 2), (2.5, 3.0, 4.0), (False, True)):
        weight = {"beta": 1.0, "q": 2.0, "dim": dim}
        if cos:
            weight["V"] = [{"kind": "cosine", "c": 0.5, "k": [1.5] * dim}]
        tag = f"sweep-{dim}d-p{p:g}{'-cos' if cos else ''}"
        for n in (101, 151, 201, 301, 601) if dim == 1 else (41, 61, 81, 101):
            base = {"weight": weight, "p": p, "grid": {"half_width": 6.0, "nodes_per_axis": n}}
            out[f"{tag}-n{n}-stationary"] = ("solve-stationary", {
                **base, "stationary": {"source": "2*x" if dim == 1 else "2*(x+y)"}})
            if dim == 2:
                for tau in (0.01, 0.1):
                    out[f"{tag}-n{n}-tau{tau:g}"] = ("solve-evolution", {
                        **base, "evolution": {"T": 0.2, "tau": tau, "u0": "x"}})
        if p == 3.0:
            n = 301 if dim == 1 else 41
            out[f"{tag}-n{n}-T0.25-tau0.1"] = ("solve-evolution", {
                "weight": weight, "p": p, "grid": {"half_width": 6.0, "nodes_per_axis": n},
                "evolution": {"T": 0.25, "tau": 0.1, "u0": "x"}})
    for dim, n in ((1, 301), (2, 61)):
        base = {"weight": {"beta": 1.0, "q": 2.0, "dim": dim,
                           "V": [{"kind": "cosine", "c": 0.5, "k": [1.5] * dim}]},
                "p": 2.0, "grid": {"half_width": 6.0, "nodes_per_axis": n}}
        out[f"sweep-{dim}d-p2-cos-n{n}-T0.25-tau0.1"] = ("solve-evolution", {
            **base, "evolution": {"T": 0.25, "tau": 0.1, "u0": "x"}})
        if dim == 1:
            out[f"sweep-1d-p2-cos-n{n}-stationary"] = ("solve-stationary", {
                **base, "stationary": {"source": "2*x"}})
    return out


def _float_range_configs() -> dict[str, tuple[str, dict]]:
    """Run name -> (subcommand, config) of the solves at the ends of float
    range, where the solvers' norms overflow or their metric is subnormal:
    the float-range cases of the CLI tests (the energy overflows at p = 4; d^T
    A d overflows in a 2d p = 3 CG; a Lebesgue p = 4 flow and a p = 2 flow
    from u0 = 1e200 x start at an infinite norm; a steep p = 4 weight; CG's
    products overflow at p = 2), and a stationary solve at beta = 1e307,
    whose weight is clamped at the smallest float at every node but the
    origin, so its metric there is the mass times it, a subnormal."""
    return {
        "float-range-stationary-energy-overflow": ("solve-stationary", {
            "weight": {"beta": 0.121, "q": 2.01, "dim": 1, "V": [
                {"kind": "constant", "c": 17.6}, {"kind": "quadratic_form", "c": -65.5}]},
            "p": 4.0, "grid": {"half_width": 3.09, "nodes_per_axis": 51}}),
        "float-range-stationary-2d-curvature-overflow": ("solve-stationary", {
            "weight": {"beta": -3.23, "q": 2.23, "dim": 2, "W": [
                {"kind": "quadratic_form", "c": -0.313},
                {"kind": "power_abs", "c": -0.134, "s": 2.65}],
                "V": [{"kind": "cosine", "c": 0.151, "k": [2.2, 0.951]}]},
            "p": 3.0, "grid": {"half_width": 7.21, "nodes_per_axis": 21},
            "stationary": {"source": "2*(x+y)"}}),
        "float-range-lebesgue-flow-starts-at-inf": ("solve-evolution", {
            "weight": {"beta": -0.138, "q": 2.5, "dim": 1,
                       "W": [{"kind": "power_abs", "c": -1.91, "s": 3.24}],
                       "V": [{"kind": "cosine", "c": -13.0, "k": [-1.23]}]},
            "p": 4.0, "grid": {"half_width": 5.9, "nodes_per_axis": 101},
            "evolution": {"T": 0.02, "tau": 0.01, "dualization": "lebesgue", "u0": "x"}}),
        "float-range-p2-flow-starts-at-inf": ("solve-evolution", {
            "weight": {"beta": 1.0, "q": 2.0, "dim": 1}, "p": 2.0,
            "grid": {"nodes_per_axis": 301}, "evolution": {"T": 0.01, "u0": "1e200*x"}}),
        "float-range-stationary-steep-weight": ("solve-stationary", {
            "weight": {"beta": 0.839, "q": 2.98, "dim": 1, "W": [
                {"kind": "quadratic_form", "c": 101.0}, {"kind": "constant", "c": -50.8}]},
            "p": 4.0, "grid": {"half_width": 9.49, "nodes_per_axis": 151}}),
        "float-range-stationary-p2-overflow": ("solve-stationary", {
            "weight": {"beta": -0.24, "q": 2.22, "dim": 1, "W": [
                {"kind": "quadratic_form", "c": 5.59}, {"kind": "cosine", "c": 78.6, "k": [4.8]}],
                "V": [{"kind": "constant", "c": -1.69}]},
            "p": 2.0, "grid": {"half_width": 7.8, "nodes_per_axis": 101}}),
        "float-range-stationary-huge-beta": ("solve-stationary", {
            "weight": {"beta": 1e307, "q": 2.0, "dim": 1}, "grid": {"nodes_per_axis": 151}}),
    }


def _refusal_configs() -> dict[str, tuple[str, dict]]:
    """Run name -> (subcommand, config) of the Gaussian 1d config with one
    fault, under `constants` and `solve-stationary`: a grid or weight value
    that `Grid` or `WeightSpec` refuses, a JSON type that the parser
    refuses, and an integer beyond float range as the node count or as a
    literal in `stationary.source` (refused by `solve-stationary` only).
    No grid here needs more than the default's memory."""
    gauss = {"beta": 1.0, "q": 2.0, "dim": 1}
    faults = [("grid", "nodes_per_axis", n) for n in (1, 4, 2.0, 10**400 + 1)]
    faults += [("grid", "half_width", r) for r in (0, -1.5, 1e-320)]
    faults += [("weight", "q", q) for q in (1, 0.5, -3)]
    faults += [("weight", "dim", d) for d in (0, 3, True)]
    faults.append(("stationary", "source", str(10**400)))
    out = {}
    for i, (section, key, value) in enumerate(faults):
        base = gauss if section == "weight" else {}
        config = {"weight": gauss, section: {**base, key: value}}
        for subcommand in ("constants", "solve-stationary"):
            out[f"refusal-{i:02d}-{key}-{subcommand}"] = (subcommand, config)
    return out


def _bench(module: str):
    """A module of this checkout's `bench/`, imported read-only."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(str(ROOT / "bench"))


def library_calls() -> dict:
    """Case name -> call(lib) for every library case of the run lists."""
    cases = _bench("cases")
    return {f"{case.name}-s{seed}": case.call for workload in WORKLOADS for seed in SEEDS
            for case in cases.build(workload, seed) if case.call is not None}


def array_probes() -> dict[str, dict]:
    """Case name -> config of every diagnostics catalog weight: its weight,
    p and grid, read from the weight's `weight-report` case."""
    cases = _bench("cases")
    return {f"{case.name.removesuffix('-weight-report')}-s{seed}": case.config
            for seed in SEEDS for case in cases.build("diagnostics", seed)
            if case.subcommand == "weight-report"}


def runs() -> dict[str, tuple[str, dict]]:
    """Run name -> (subcommand, config), one entry per distinct pair;
    ValueError if two distinct pairs share a name."""
    cases = _bench("cases")
    out: dict[str, tuple[str, dict]] = {}
    seen = set()

    def add(name: str, subcommand: str, config: dict) -> None:
        key = (subcommand, json.dumps(config, sort_keys=True))
        if key not in seen:
            if name in out:  # a second config would replace the first unseen
                raise ValueError(f"two runs are named {name!r}")
            seen.add(key)
            out[name] = (subcommand, config)

    for workload in WORKLOADS:
        for seed in SEEDS:
            for case in cases.build(workload, seed):
                if case.subcommand is not None:
                    add(f"{case.name}-s{seed}", case.subcommand, case.config)
    for tag, config in _readme_configs().items():
        for subcommand in SUBCOMMANDS:
            add(f"{tag}-{subcommand}", subcommand, config)
    for name, (subcommand, config) in {**_sweep_configs(), **_float_range_configs()}.items():
        add(name, subcommand, config)
    return out


def _import_package(src: Path):
    """The `wsobolev` package imported from src, dropping any copy loaded before."""
    for name in [m for m in sys.modules if m == "wsobolev" or m.startswith("wsobolev.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        import wsobolev.cli
    finally:
        sys.path.remove(str(src))
    return wsobolev


def run_library(src: Path, calls: dict) -> dict[str, str]:
    """Case name -> repr of each library case's result against the package
    in src, or the exception it raised."""
    lib = _bench("run")._lib(_import_package(src))
    out = {}
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                out[name] = repr(call(lib))
            except Exception as err:  # an exception is a result too
                out[name] = f"raised {type(err).__name__}: {err}"
    return out


def run_arrays(src: Path, probes: dict[str, dict],
               approximations: dict[str, dict]) -> dict[str, np.ndarray]:
    """Array name -> node values against the package in src: each probe's
    weight (`<name>-weight`), the maximal function of its p-th root
    (`<name>-maximal`) and the p-Laplacian against it of the sum of the
    coordinates' sines at p = 2 and 3 (`<name>-operator-p<p>`), and, for
    each approximate run whose u0 state builds,
    `mollify` of that state at every eps of its schedule, with its declared
    support (`<run>-mollify-<eps>`) and with none (`<run>-mollify-<eps>-none`).
    A scale `mollify` refuses gives no array."""
    pkg = _import_package(src)
    out = {}
    for name, config in probes.items():
        spec = pkg.weights.WeightSpec.from_json(config["weight"])
        g = config["grid"]
        grid = pkg.grid.build_grid(spec.dim, g["half_width"], g["nodes_per_axis"])
        out[f"{name}-weight"] = pkg.weights.weight_on_grid(spec, grid).values
        root = pkg.weights.root_on_grid(spec, grid, config["p"])
        out[f"{name}-maximal"] = pkg.grid.maximal_function(root).values
        smooth = pkg.grid.sample_field(grid, lambda *x: sum(np.sin(c) for c in x))
        with np.errstate(all="ignore"):
            for p in (2, 3):
                out[f"{name}-operator-p{p}"] = pkg.pde.apply_operator(smooth, spec, p).values
    for name, config in approximations.items():
        try:
            run = pkg.config.parse_config(config)
            cfg = run.approximate
            f = pkg.cli._state_from_string(cfg.u0, run.grid, "approximate.u0",
                                           cfg.support_radius)
        except ValueError:  # the run's CLI report holds the error
            continue
        unsupported = pkg.grid.GridFunction(run.grid, f.values)
        for eps in cfg.schedule:
            for tag, state in (("", f), ("-none", unsupported)):
                with contextlib.suppress(ValueError):
                    out[f"{name}-mollify-{eps!r}{tag}"] = pkg.grid.mollify(state, eps).values
    return out


def _array_change(a: np.ndarray, b: np.ndarray) -> str:
    if a.shape != b.shape:
        return f"shape {a.shape} -> {b.shape}"
    changed = (a != b) & ~(np.isnan(a) & np.isnan(b))
    if not changed.any():
        return "equal values, different bytes (signed zeros or NaN payloads)"
    with np.errstate(all="ignore"):
        own = np.abs(a - b)[changed] / np.maximum(np.abs(a), np.abs(b))[changed]
    return (f"{np.count_nonzero(changed)} of {a.size} values changed, largest by "
            f"{np.max(own):.3g} of its own")


def run_tree(src: Path, work: Path, todo: dict[str, tuple[str, dict]]) -> None:
    """Run every config against the package in src. Each run's reports land
    in work/<run>/ next to `_exit` and `_stderr` files."""
    main = _import_package(src).cli.main
    (work / "configs").mkdir(parents=True)
    here = os.getcwd()
    os.chdir(work)
    try:
        for name, (subcommand, config) in todo.items():
            cfg = Path("configs") / f"{name}.json"
            cfg.write_text(json.dumps(config))
            out = Path(name)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
                warnings.simplefilter("always")
                try:
                    code = main([subcommand, "--config", str(cfg), "--out", str(out)])
                except Exception as err:  # an escaping exception is a result too
                    code = f"raised {type(err).__name__}: {err}"
            out.mkdir(exist_ok=True)
            (out / "_exit").write_text(f"{code}\n")
            (out / "_stderr").write_text(stderr.getvalue())
    finally:
        os.chdir(here)


def _first_difference(a: bytes, b: bytes) -> str:
    la, lb = a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x[:120]!r} -> {y[:120]!r}"
    return f"{len(la)} -> {len(lb)} lines"


# a JSON or CSV number, or a non-finite float as Python prints it
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def _numeric_change(a: bytes, b: bytes) -> str:
    """The largest absolute change between the numbers of two texts, paired in
    order, and that change relative to the largest magnitude in either text,
    so round-off reads as round-off even where a value crosses zero; then the
    largest change of a number relative to its own magnitude."""
    xs, ys = ([float(t) for t in _NUMBER.findall(s)] for s in (a, b))
    if len(xs) != len(ys):
        return f"{len(xs)} -> {len(ys)} numbers"
    pairs = [(x, y) for x, y in zip(xs, ys) if x != y and not (math.isnan(x) and math.isnan(y))]
    if not pairs:
        return "no number changed"
    worst = max(abs(x - y) for x, y in pairs)
    scale = max((abs(x) for x in xs + ys if math.isfinite(x)), default=0.0)
    relative = worst / scale if scale and math.isfinite(worst) else math.inf
    own = max(abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf
              for x, y in pairs)
    return (f"{len(pairs)} numbers changed, largest by {worst:.3g} ({relative:.3g} of the "
            f"largest |number|), {own:.3g} of its own")


def compare(old: Path, new: Path) -> tuple[int, list[str]]:
    """(files compared, one line per difference) over the two run trees."""
    names = {p.relative_to(tree) for tree in (old, new) for p in tree.rglob("*")
             if p.is_file() and p.relative_to(tree).parts[0] != "configs"}
    problems = []
    for rel in sorted(names):
        a, b = old / rel, new / rel
        if not a.exists() or not b.exists():
            problems.append(f"{rel}: only in {'new' if b.exists() else 'old'}")
        elif (x := a.read_bytes()) != (y := b.read_bytes()):
            problems.append(f"{rel}: {_first_difference(x, y)}; {_numeric_change(x, y)}")
    return len(names), problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/report_diff.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in args)
    for src in (old_src, new_src):
        if not (src / "wsobolev" / "__init__.py").is_file():
            print(f"error: no wsobolev package under {src}", file=sys.stderr)
            return 2
    refusals = _refusal_configs()
    todo, calls = {**runs(), **refusals}, library_calls()
    with tempfile.TemporaryDirectory() as tmp:
        old, new = Path(tmp, "old"), Path(tmp, "new")
        run_tree(old_src, old, todo)
        run_tree(new_src, new, todo)
        n_files, problems = compare(old, new)
    old_lib, new_lib = run_library(old_src, calls), run_library(new_src, calls)
    lib_problems = [f"{name}: {_first_difference(x.encode(), y.encode())}; "
                    f"{_numeric_change(x.encode(), y.encode())}"
                    for name in calls if (x := old_lib[name]) != (y := new_lib[name])]
    probes = array_probes()
    approximations = {name: config for name, (subcommand, config) in todo.items()
                       if subcommand == "approximate"}
    old_arrays, new_arrays = (run_arrays(src, probes, approximations)
                              for src in (old_src, new_src))
    array_problems = [f"{name}: only in {'new' if name in new_arrays else 'old'}"
                      for name in sorted(old_arrays.keys() ^ new_arrays.keys())]
    array_problems += [f"{name}: {_array_change(x, y)}" for name, x in old_arrays.items()
                       if name in new_arrays and x.tobytes() != (y := new_arrays[name]).tobytes()]
    for line in problems + lib_problems + array_problems:
        print(line)
    print(f"{len(todo)} configs, {n_files} files: {len(problems)} differ")
    print(f"of them {len(refusals)} refusal configs: "
          f"{sum(any(p.startswith(f'{name}/') for p in problems) for name in refusals)} differ")
    print(f"{len(calls)} library results: {len(lib_problems)} differ")
    print(f"{len(old_arrays.keys() | new_arrays.keys())} arrays: {len(array_problems)} differ")
    return 1 if problems or lib_problems or array_problems else 0


if __name__ == "__main__":
    sys.exit(main())

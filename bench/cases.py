"""Seeded case lists for the three workloads, and the check each output must pass.

A case is one call the benchmark times: a CLI run (`cli.main` on a config
written before timing starts) or a library call through `lib`, the table of
package functions the benchmark uses (wrapped with timers in a traced run).
Each case carries its own check, which returns whether the output is what the
maths requires, plus the relative errors of any closed-form oracle it covers.

Pinned cases reproduce failures known at the time the benchmark was written
(ROADMAP item 5 and the Lebesgue-pairing stall). Their checks expect the fixed
behaviour, so they fail today and stop failing once the program is fixed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

GAUSS_1D = {"beta": 1.0, "q": 2.0, "dim": 1}
GAUSS_2D = {"beta": 1.0, "q": 2.0, "dim": 2}
P_VALUES = (1.5, 2.0, 3.0)
WEIGHTS_PER_STRATUM = 2  # catalog weights per (dim, p) in each diagnostics pass

# acceptance-test tolerances (tests/test_acceptance.py) and solver-output bounds
OU_REL_TOL = 0.02  # criterion 8
ORACLE_ABS_TOL = 1e-3  # criteria 6 and 7
HEDBERG_ABS_TOL = 1e-6  # criterion 11
RESIDUAL_TOL = 1e-6  # tests/test_pde.py, stationary residual
MEAN_DRIFT_TOL = 1e-6  # criterion 9


@dataclass
class Outcome:
    seconds: float
    code: int | None = None  # CLI exit code; None for library calls or on a raise
    error: BaseException | None = None
    stderr: str = ""
    out: Path | None = None
    value: object = None


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    errors: dict[str, float] = field(default_factory=dict)  # oracle name -> relative error


@dataclass
class Case:
    name: str
    check: Callable[[Outcome], Verdict]
    subcommand: str | None = None
    config: dict | None = None
    call: Callable | None = None  # library case: call(lib) -> value
    pinned: bool = False
    nodes: int = 0  # grid nodes of a solver run, for per-node cost


def build(workload: str, seed: int) -> list[Case]:
    """The workload's run list for one seed.

    The order is fixed: the process's peak memory depends on the order in
    which the calls free and reuse memory, and a seeded order moved it by up
    to 20% between seeds.
    """
    builders = {"diagnostics": _diagnostics, "flow-1d": _flow_1d, "flow-2d": _flow_2d}
    return builders[workload](random.Random(seed))


# ---------------------------------------------------------------------------
# output readers and shared checks
# ---------------------------------------------------------------------------


def _json(o: Outcome, name: str) -> dict:
    return json.loads((o.out / name).read_text())


def _csv(o: Outcome, name: str) -> np.ndarray:
    return np.loadtxt(o.out / name, delimiter=",", skiprows=1, ndmin=2)


def _exit_problem(o: Outcome, allowed: tuple[int, ...]) -> str | None:
    if o.error is not None:
        return f"raised {type(o.error).__name__}: {o.error}"
    if o.code not in allowed:
        return f"exit {o.code}, expected {allowed}: {o.stderr.strip()[:200]}"
    return None


def _guarded(body: Callable[[Outcome], Verdict], allowed: tuple[int, ...] = (0,)):
    """Check the exit code, then run the output check."""

    def check(o: Outcome) -> Verdict:
        problem = _exit_problem(o, allowed)
        if problem:
            return Verdict(False, problem)
        try:
            return body(o)
        except (OSError, ValueError, KeyError, TypeError) as err:
            return Verdict(False, f"unreadable output: {err!r}")

    return check


def _lib_guarded(body: Callable[[object], Verdict]):
    def check(o: Outcome) -> Verdict:
        if o.error is not None:
            return Verdict(False, f"raised {type(o.error).__name__}: {o.error}")
        return body(o.value)

    return check


def _trapezoid_mass(n: int, half_width: float, dim: int) -> np.ndarray:
    h = 2.0 * half_width / (n - 1)
    w = np.full(n, h)
    w[[0, -1]] *= 0.5
    return w if dim == 1 else np.outer(w, w)


def _gauss_rel_l2(o: Outcome, csv_name: str, n: int, half_width: float, dim: int,
                  exact: Callable[[np.ndarray], np.ndarray]) -> float:
    """Relative L2 error against exp(-|x|^2) dx of a solution dump vs exact(x)."""
    rows = _csv(o, csv_name)
    shape = (n,) * dim
    x = rows[:, 0].reshape(shape)
    r2 = np.sum(rows[:, :dim] ** 2, axis=1).reshape(shape)
    u = rows[:, dim].reshape(shape)
    mu = _trapezoid_mass(n, half_width, dim) * np.exp(-r2)
    ref = exact(x)
    return math.sqrt(float(np.sum(mu * (u - ref) ** 2)) / float(np.sum(mu * ref * ref)))


def _stationary_check(oracle: str | None, n: int = 0, half_width: float = 0.0, dim: int = 1):
    def body(o: Outcome) -> Verdict:
        res = _json(o, "stationary.json")["residual"]
        if not res <= RESIDUAL_TOL:
            return Verdict(False, f"residual {res:.3e} > {RESIDUAL_TOL:g}")
        if oracle is None:
            return Verdict(True)
        err = _gauss_rel_l2(o, "solution.csv", n, half_width, dim, lambda x: x)
        return Verdict(err <= OU_REL_TOL, f"u=x relative error {err:.3e}", {oracle: err})

    return _guarded(body)


def _trajectory_problem(o: Outcome) -> str | None:
    rows = _csv(o, "trajectory.csv")
    energies, means = rows[:, 1], rows[:, 2]
    rises = np.diff(energies) > 1e-12 * np.maximum(np.abs(energies[:-1]), 1.0)
    if rises.any():
        return f"energy increases at step {int(np.argmax(rises)) + 1}"
    drift = float(np.max(np.abs(np.diff(means)))) if len(means) > 1 else 0.0
    if drift > MEAN_DRIFT_TOL:
        return f"mean drift {drift:.3e} > {MEAN_DRIFT_TOL:g}"
    return None


def _evolution_check(oracle: str | None = None, n: int = 0, half_width: float = 0.0,
                     dim: int = 1, T: float = 0.0):
    def body(o: Outcome) -> Verdict:
        problem = _trajectory_problem(o)
        if problem:
            return Verdict(False, problem)
        if oracle is None:
            return Verdict(True)
        decay = math.exp(-2.0 * T)
        err = _gauss_rel_l2(o, "final_state.csv", n, half_width, dim, lambda x: decay * x)
        return Verdict(err <= OU_REL_TOL, f"e^(-2t)x relative error {err:.3e}", {oracle: err})

    return _guarded(body)


def _gate_check(o: Outcome) -> Verdict:
    gate = _json(o, "integrability_gate.json")
    return Verdict(gate["passes"] is False, "gate report must say passes=false")


# ---------------------------------------------------------------------------
# diagnostics: catalog weights through the non-solver subcommands
# ---------------------------------------------------------------------------


def catalog_weight(rng: random.Random, dim: int) -> dict:
    """A weight exp(-beta|x|^q - W - V) from the documented domain.

    beta in [1, 1.5], q in [1.5, 1.9], W = c|x|^q with c <= beta/20 (so the
    growth fit keeps delta well below beta*q), V = c cos(k.x) with c <= 0.02
    and k in [0.5, 2]^dim. With constants.eps0 = 2 and L = 4 every subcommand
    succeeds on this domain for p in {1.5, 2, 3}: D' stays below L, and
    exp(2 a_L) stays in float range for p = 3.
    """
    beta = rng.uniform(1.0, 1.5)
    q = rng.uniform(1.5, 1.9)
    return {
        "beta": beta,
        "q": q,
        "dim": dim,
        "W": [{"kind": "power_abs", "c": rng.uniform(0.0, 0.05) * beta, "s": q}],
        "V": [{"kind": "cosine", "c": rng.uniform(0.0, 0.02),
               "k": [rng.uniform(0.5, 2.0) for _ in range(dim)]}],
    }


def _weight_report_check(o: Outcome) -> Verdict:
    doubling = _json(o, "doubling.json")["constant"]
    if not doubling >= 1.0:
        return Verdict(False, f"doubling constant {doubling} < 1")
    if (o.out / "muckenhoupt.json").exists():
        muck = _json(o, "muckenhoupt.json")["constant"]
        if not muck >= 1.0:
            return Verdict(False, f"Muckenhoupt constant {muck} < 1")
    return Verdict(True)


def _constants_check(o: Outcome) -> Verdict:
    chain = _json(o, "constant_chain.json")
    values = [chain[k] for k in ("C", "D", "C_prime", "D_prime", "c")]
    ok = all(isinstance(v, (int, float)) and 0.0 < v < math.inf for v in values)
    return Verdict(ok, f"constants {values}")


def _log_space_constants_check(o: Outcome) -> Verdict:
    chain = _json(o, "constant_chain.json")
    log_c = chain.get("log_c")
    ok = chain.get("c") is None and isinstance(log_c, (int, float)) and math.isfinite(log_c)
    return Verdict(ok, "expected c = null with a finite log_c")


def _verify_check(o: Outcome) -> Verdict:
    return Verdict(_json(o, "verify_summary.json")["all_hold"] is True, "all_hold must be true")


def _approximate_check(o: Outcome) -> Verdict:
    rep = _json(o, "approximation.json")
    consistent = rep["passed"] == (rep["final_relative_error"] <= rep["tol"])
    exit_ok = o.code == (0 if rep["passed"] else 2)
    return Verdict(consistent and exit_ok, f"passed={rep['passed']} exit={o.code}")


def _config_error_check(path: str):
    def check(o: Outcome) -> Verdict:
        problem = _exit_problem(o, (1,))
        if problem:
            return Verdict(False, problem)
        return Verdict(path in o.stderr, f"error must name {path}: {o.stderr.strip()[:200]}")

    return check


def _weight_cases(tag: str, weight: dict, p: float) -> list[Case]:
    dim = weight["dim"]
    if dim == 1:
        grid = {"half_width": 6.0, "nodes_per_axis": 301}
        approx = {"u0": "max(1 - abs(x), 0)", "support_radius": 1.0}
    else:
        grid = {"half_width": 3.0, "nodes_per_axis": 101}
        approx = {"u0": "max(1 - x*x - y*y, 0)", "support_radius": 1.0,
                  "schedule": [0.4, 0.2, 0.1]}
    config = {"weight": weight, "p": p, "grid": grid, "constants": {"eps0": 2.0},
              "approximate": approx}
    subcommands = ["weight-report", "constants", "approximate"]
    if dim == 1:
        subcommands.append("verify-inequalities")
    checks = {
        "weight-report": _guarded(_weight_report_check),
        "constants": _guarded(_constants_check),
        "verify-inequalities": _guarded(_verify_check),
        # exit 2 is the correct outcome when the schedule misses its tolerance
        "approximate": _guarded(_approximate_check, allowed=(0, 2)),
    }
    cases = [Case(f"{tag}-{sub}", checks[sub], sub, config) for sub in subcommands]

    def root(lib):
        spec = lib.WeightSpec.from_json(weight)
        n = grid["nodes_per_axis"]
        return lib.root_on_grid(spec, lib.build_grid(dim, grid["half_width"], n), p)

    cases.append(Case(
        f"{tag}-hedberg",
        _lib_guarded(lambda rep: Verdict(
            math.isfinite(rep.constant) and rep.constant > 0.0 and rep.pairs_used > 0,
            f"Hedberg constant {rep.constant}")),
        call=lambda lib: lib.hedberg_constant(root(lib)),
    ))
    cases.append(Case(
        f"{tag}-maximal-bound",
        _lib_guarded(lambda ratio: Verdict(ratio >= 1.0 - 1e-12, f"||Mf||/||f|| = {ratio}")),
        call=lambda lib: lib.maximal_bound_check(root(lib), p),
    ))
    return cases


def _oracle_cases() -> list[Case]:
    def doubling(lib):
        w = lib.weight_on_grid(lib.WeightSpec(1.0, 2.0, 1), lib.build_grid(1, 6.0, 601))
        return lib.estimate_doubling(w, [lib.Ball.of(0.0, 1.0)]).constant

    def doubling_check(value):
        oracle = math.erf(2.0) / math.erf(1.0)
        return Verdict(abs(value - oracle) <= ORACLE_ABS_TOL, f"doubling {value}",
                       {"weights.doubling.err": abs(value - oracle) / oracle})

    def muckenhoupt(lib):
        g = lib.build_grid(1, 6.0, 601)
        root = lib.sample_field(g, lambda x: np.abs(x) ** 0.5)
        balls = [lib.Ball.of(0.0, r) for r in (0.5, 1.0, 2.0)]
        return [e.value for e in lib.estimate_muckenhoupt(root, 2.0, balls).entries]

    def muckenhoupt_check(values):
        worst = max(abs(v - 4.0 / 3.0) for v in values)
        return Verdict(worst <= ORACLE_ABS_TOL, f"products {values}",
                       {"weights.muckenhoupt.err": worst / (4.0 / 3.0)})

    def maximal(lib):
        out = []
        for n in (301, 601):
            g = lib.build_grid(1, 6.0, n)
            f = lib.sample_field(g, lambda x: np.where(np.abs(x) <= 1.0, 1.0, 0.0))
            out.append((float(lib.maximal_function(f).values[g.index_of(2.0)]), g.spacing))
        return out

    def maximal_check(values):
        ok = all(abs(m - 1.0 / 3.0) <= 2.0 * h for m, h in values)
        worst = max(abs(m - 1.0 / 3.0) for m, _ in values)
        return Verdict(ok, f"Mf(2) {values}", {"grid.maxfn.err": worst * 3.0})

    def hedberg(lib):
        g = lib.build_grid(1, 6.0, 301)
        return lib.hedberg_constant(lib.sample_field(g, lambda x: x)).constant

    def hedberg_check(value):
        return Verdict(abs(value - 0.5) <= HEDBERG_ABS_TOL, f"Hedberg {value}",
                       {"sobolev.hedberg.err": abs(value - 0.5) / 0.5})

    return [
        Case("oracle-doubling-erf", _lib_guarded(doubling_check), call=doubling),
        Case("oracle-muckenhoupt-sqrt", _lib_guarded(muckenhoupt_check), call=muckenhoupt),
        Case("oracle-maximal-indicator", _lib_guarded(maximal_check), call=maximal),
        Case("oracle-hedberg-linear", _lib_guarded(hedberg_check), call=hedberg),
    ]


def _diagnostics(rng: random.Random) -> list[Case]:
    cases = []
    for dim in (1, 2):
        for p in P_VALUES:
            for i in range(WEIGHTS_PER_STRATUM):
                cases += _weight_cases(f"w{dim}d-p{p:g}-{i}", catalog_weight(rng, dim), p)
    cases += _oracle_cases()
    cases.append(Case(
        "pinned-constants-beta-1e3", _guarded(_log_space_constants_check), "constants",
        {"weight": {"beta": 1e3, "q": 2.0, "dim": 1}}, pinned=True,
    ))
    cases.append(Case(
        "pinned-term-missing-s", _config_error_check("weight.W[0]"), "constants",
        {"weight": {"beta": 1.0, "q": 2.0, "dim": 1, "W": [{"kind": "power_abs", "c": 0.3}]}},
        pinned=True,
    ))
    return cases


# ---------------------------------------------------------------------------
# flow workloads: the pde solvers
# ---------------------------------------------------------------------------


def _grid(n: int, half_width: float = 6.0) -> dict:
    return {"half_width": half_width, "nodes_per_axis": n}


def _flow_1d(rng: random.Random) -> list[Case]:
    cases = []
    for n in (301, 601):  # Ornstein-Uhlenbeck: source 2x, exact u = x
        cases.append(Case(
            f"stationary-ou-n{n}", _stationary_check("pde.ou_stationary.err", n, 6.0),
            "solve-stationary", {"weight": GAUSS_1D, "grid": _grid(n)}, nodes=n,
        ))
    cases.append(Case(
        "stationary-p3-n101", _stationary_check(None), "solve-stationary",
        {"weight": GAUSS_1D, "p": 3.0, "grid": _grid(101)}, nodes=101,
    ))
    cases.append(Case(
        "evolution-ou-p2", _evolution_check("pde.ou_evolution.err", 301, 6.0, 1, 0.5),
        "solve-evolution",
        {"weight": GAUSS_1D, "grid": _grid(301), "evolution": {"u0": "x", "T": 0.5}},
        nodes=301,
    ))
    weighted = dict(GAUSS_1D, V=[{"kind": "cosine", "c": rng.uniform(0.0, 0.05),
                                  "k": [rng.uniform(1.0, 2.0)]}])
    cases.append(Case(
        "evolution-p3-weighted", _evolution_check(), "solve-evolution",
        {"weight": weighted, "p": 3.0, "grid": _grid(301),
         "evolution": {"u0": f"{rng.uniform(0.9, 1.1)!r}*sin(x)", "T": 0.05, "tau": 5e-3}},
        nodes=301,
    ))
    desk = {"weight": {"beta": -0.5, "q": 2.0, "dim": 1}, "p": 3.0, "grid": _grid(101, 2.0),
            "evolution": {"u0": "x", "T": 0.1, "dualization": "lebesgue"}}
    cases.append(Case("lebesgue-desk", _evolution_check(), "solve-evolution", desk, nodes=101))
    # The same run from 0.8240268307262444*x stalls at 10,000 iterations, while
    # every amplitude on the 0.01 grid of [0.8, 1.2] converges; the stall is
    # sporadic in u0, so the desk case's u0 is fixed and this one is pinned.
    stall = dict(desk, evolution=dict(desk["evolution"], u0="0.8240268307262444*x"))
    cases.append(Case("pinned-lebesgue-desk-stall", _evolution_check(), "solve-evolution",
                      stall, pinned=True, nodes=101))
    cases.append(Case(
        "lebesgue-gate-1d", _guarded(_gate_check, allowed=(1,)), "solve-evolution",
        {"weight": GAUSS_1D, "p": 3.0, "grid": _grid(301),
         "evolution": {"T": 0.01, "tau": 0.01, "dualization": "lebesgue"}},
    ))
    cases.append(Case(
        "pinned-lebesgue-stall", _evolution_check(), "solve-evolution",
        {"weight": {"beta": -1.0, "q": 2.0, "dim": 1}, "p": 3.0, "grid": _grid(301),
         "evolution": {"u0": "x", "T": 0.5, "dualization": "lebesgue"}},
        pinned=True, nodes=301,
    ))
    return cases


def _flow_2d(rng: random.Random) -> list[Case]:
    n = 101
    weighted = dict(GAUSS_2D, V=[{"kind": "cosine", "c": rng.uniform(0.0, 0.1),
                                  "k": [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)]}])
    a, b = rng.uniform(0.8, 1.2), rng.uniform(-0.5, 0.5)
    return [
        Case("stationary-ou-2d", _stationary_check("pde.ou_stationary.err", n, 6.0, 2),
             "solve-stationary", {"weight": GAUSS_2D, "grid": _grid(n)}, nodes=n * n),
        Case("evolution-ou-2d", _evolution_check("pde.ou_evolution.err", n, 6.0, 2, 0.2),
             "solve-evolution",
             {"weight": GAUSS_2D, "grid": _grid(n), "evolution": {"u0": "x", "T": 0.2}},
             nodes=n * n),
        Case("evolution-p2-weighted-2d", _evolution_check(), "solve-evolution",
             {"weight": weighted, "grid": _grid(n),
              "evolution": {"u0": f"{a!r}*x + {b!r}*y", "T": 0.05}},
             nodes=n * n),
        Case("lebesgue-gate-2d", _guarded(_gate_check, allowed=(1,)), "solve-evolution",
             {"weight": GAUSS_2D, "p": 3.0, "grid": _grid(n),
              "evolution": {"T": 0.01, "tau": 0.01, "dualization": "lebesgue"}}),
    ]

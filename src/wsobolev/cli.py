"""Batch front end: config in, reports out.

Subcommands mirror the package's module boundaries:

  weight-report        certified admissibility, doubling/Muckenhoupt ball tables
  constants            the certified constant chain
  verify-inequalities  quadrature checks of the moment and Poincaré bounds
                       over the bump corpus
  approximate          mollification convergence run
  solve-evolution      implicit-Euler gradient-flow trajectory
  solve-stationary     mean-zero stationary state for a compatible source

Exit codes: 0 success (and --help), 2 when a verification that should
mathematically hold comes out false (and only then), 1 for operational
failures and usage errors.  Outputs are byte-deterministic for a fixed
config: floats are rounded to 12 significant digits and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._expr import ExpressionError, evaluate_expression
from ._record import Record
from .config import ConfigError, RunConfig, load_config
from .corpus import corpus_members
from .grid import Grid, GridFunction
from .inequalities import ConstantChain, build_constant_chain, verify_batch
from .pde import EvolutionProblem, IntegrabilityGateError, ProxConvergenceError, \
    solve_evolution, solve_stationary
from .sobolev import smooth_approximation
from .weights import check_admissibility, estimate_doubling, estimate_muckenhoupt, weight_on_grid

__all__ = ["SUBCOMMANDS", "emit_report", "run", "main"]

EXIT_OK = 0
EXIT_OPERATIONAL = 1
EXIT_VERIFICATION = 2


def _round_floats(obj, path: str = "report"):
    """JSON form of a report payload with floats rounded to 12 significant
    digits.

    A payload with to_json() renders through it; any other record renders
    its fields.  Tuples become lists.  NaN and infinities have no JSON form
    and raise ValueError naming their path in the payload.
    """
    if hasattr(obj, "to_json"):
        return _round_floats(obj.to_json(), path)
    if isinstance(obj, Record):
        return {f: _round_floats(getattr(obj, f), f"{path}.{f}") for f in obj._fields}
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"{path}: {obj} is not a finite number, so the report "
                             "cannot be written")
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, f"{path}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    return obj


def _canonical_json(payload, name: str = "report") -> str:
    return json.dumps(_round_floats(payload, name), sort_keys=True, indent=2) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _csv(name: str, header: str, rows) -> str:
    """CSV text: floats to 12 significant digits, bools in lowercase.  NaN
    and infinities raise ValueError naming their row and column, as in the
    JSON reports."""
    columns = header.split(",")
    lines = [header]
    for i, row in enumerate(rows):
        for column, v in zip(columns, row):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{name}[{i}].{column}: {v} is not a finite number, so "
                                 "the report cannot be written")
        lines.append(",".join(map(_csv_cell, row)))
    return "".join(f"{line}\n" for line in lines)


def _first_non_finite(grid: Grid, values: np.ndarray) -> str | None:
    """The first non-finite node value and its coordinates, or None."""
    bad = np.argwhere(~np.isfinite(values))
    if not len(bad):
        return None
    node = tuple(bad[0])
    return f"{values[node]} at x = {tuple(float(grid.axis()[i]) for i in node)}"


def _state_csv(f: GridFunction, name: str) -> str:
    """CSV text of a state, one row per node in C order: the node's
    coordinates, then its value.  The rows are one template, the nodes'
    coordinate strings each followed by a %.12g slot, filled by one % over
    the values: the same bytes as f"{v:.12g}" per value.  The template is
    joined one leading-axis row at a time: each row's nodes share the
    coordinates of every axis but the last, so its lines are the last
    axis's strings joined by a slot and that shared prefix.  A non-finite
    value raises ValueError naming the node."""
    bad = _first_non_finite(f.grid, f.values)
    if bad is not None:
        raise ValueError(f"{name}: {bad} is not a finite number, so the report cannot be written")
    g = f.grid
    axis = [f"{x:.12g}," for x in g.axis()]
    rows = "".join(prefix + ("%.12g\n" + prefix).join(axis) + "%.12g\n"
                   for prefix in map("".join, itertools.product(axis, repeat=g.dim - 1)))
    return ",".join("xy"[: g.dim]) + ",value\n" + rows % tuple(f.values.ravel().tolist())


def emit_report(results: dict, out_dir: str | Path) -> list[Path]:
    """Write one file per report.

    Dict-like payloads (record reports or plain dicts) become <name>.json;
    string payloads are pre-rendered CSV and become <name>.csv.  Every file
    is rendered before any is written.
    """
    files: dict[str, str] = {}
    for name in sorted(results):
        payload = results[name]
        if isinstance(payload, str):
            files[f"{name}.csv"] = payload
        else:
            files[f"{name}.json"] = _canonical_json(payload, name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, text in files.items():
        (out / fname).write_text(text)
    return [out / fname for fname in files]


# ---------------------------------------------------------------------------
# state construction from config strings
# ---------------------------------------------------------------------------


def _state_from_string(
    text: str, grid: Grid, path: str, support_radius: float | None = None
) -> GridFunction:
    """A u0/source string is an arithmetic expression of x (and y in 2d); the
    state takes support_radius as its declared support.  An expression that
    does not evaluate, a non-finite value (named with its node) or a nonzero
    value outside that support raises ValueError naming the config path."""
    try:
        with np.errstate(all="ignore"):
            vals = evaluate_expression(text, *grid.coordinates())
    except ExpressionError as err:
        raise ExpressionError(f"{path}: {err}") from None
    bad = _first_non_finite(grid, vals)
    if bad is not None:
        raise ValueError(f"{path}: {text!r} is {bad}, not a finite number")
    try:
        return GridFunction(grid, vals, compact_support_radius=support_radius)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _constant_chain(config: RunConfig) -> ConstantChain:
    return build_constant_chain(config.weight, config.p, eps0=config.constants.eps0)


# ---------------------------------------------------------------------------
# subcommand implementations (each returns (exit_code, results dict))
# ---------------------------------------------------------------------------


def _cmd_weight_report(config: RunConfig) -> tuple[int, dict]:
    spec = config.weight
    w = weight_on_grid(spec, config.grid)  # first: an undefined weight is the error
    results: dict = {
        "admissibility": check_admissibility(spec),
        "doubling": estimate_doubling(w, config.balls),
    }
    if config.p > 1.0:
        results["muckenhoupt"] = estimate_muckenhoupt(w, config.p, config.balls)
    return EXIT_OK, results


def _cmd_constants(config: RunConfig) -> tuple[int, dict]:
    return EXIT_OK, {"constant_chain": _constant_chain(config)}


def _cmd_verify(config: RunConfig) -> tuple[int, dict]:
    """The three inequalities on the corpus members inside the grid box, in
    one verify_batch pass, which forms their derivatives."""
    spec = config.weight
    grid = config.grid
    if spec.dim != 1:
        raise ValueError("the verification corpus is one-dimensional; use dim = 1")
    chain = _constant_chain(config)
    constants = {key: getattr(chain, key) for key in ("C", "D", "C_prime", "D_prime", "c")}
    source = "formula"
    if config.verify_override:
        constants.update(config.verify_override)
        source = "config override"
    if constants["c"] is None:
        raise ValueError(f"the certified Poincaré constant leaves float range (log_c = "
                         f"{chain.log_c:.6g}); set verify.c to verify with a given constant")

    members = [m for m in corpus_members() if m.support_radius < grid.half_width]
    if not members:
        raise ValueError("no corpus member fits inside the grid box")
    values = np.stack([m.on_grid(grid).values for m in members])
    reports = verify_batch(grid, values, spec, config.p, **constants)
    all_hold = all(r.holds for rows in reports for r in rows)

    results: dict = {"verify_summary": {
        "constants": constants,
        "constants_source": source,
        "corpus_size": len(members),
        "all_hold": all_hold,
    }}
    for key, rows in zip(("verify_xq", "verify_potential", "verify_poincare"), reports):
        results[key] = _csv(key, "corpus_id,lhs,rhs,margin,quadrature_error_estimate,holds",
                            ((m.name, *r._values()) for m, r in zip(members, rows)))
    return (EXIT_OK if all_hold else EXIT_VERIFICATION), results


def _cmd_approximate(config: RunConfig) -> tuple[int, dict]:
    cfg = config.approximate
    f = _state_from_string(cfg.u0, config.grid, "approximate.u0", cfg.support_radius)
    report = smooth_approximation(f, config.weight, config.p, cfg.schedule)
    steps = _csv("approximation_steps", "eps,lp_error,grad_lp_error,sobolev_error",
                 (step._values() for step in report.steps))
    results = {"approximation": report, "approximation_steps": steps}
    return (EXIT_OK if report.passed else EXIT_VERIFICATION), results


def _cmd_evolution(config: RunConfig) -> tuple[int, dict]:
    cfg = config.evolution
    u0 = _state_from_string(cfg.u0, config.grid, "evolution.u0")
    problem = EvolutionProblem(
        p=config.p,
        spec=config.weight,
        u0=u0,
        horizon=cfg.T,
        step=cfg.tau,
        dualization=cfg.dualization,
    )
    traj = solve_evolution(problem)
    summary = {
        "p": config.p,
        "dualization": cfg.dualization,
        "steps": len(traj.times) - 1,
        "tau": cfg.tau,
        "final_time": traj.times[-1],
        "initial_energy": traj.energies[0],
        "final_energy": traj.energies[-1],
        "initial_mean": traj.means[0],
        "final_mean": traj.means[-1],
        "total_inner_iterations": int(sum(traj.step_iterations)),
    }
    trajectory = _csv("trajectory", "t,energy,mean,inner_iters", zip(
        traj.times, traj.energies, traj.means, [0] + traj.step_iterations))
    final_state = _state_csv(traj.state, "final_state")
    return EXIT_OK, {"trajectory": trajectory, "evolution": summary, "final_state": final_state}


def _cmd_stationary(config: RunConfig) -> tuple[int, dict]:
    f = _state_from_string(config.stationary.source, config.grid, "stationary.source")
    result = solve_stationary(f, config.weight, config.p)
    return EXIT_OK, {"stationary": result, "solution": _state_csv(result.state, "solution")}


_COMMANDS = {
    "weight-report": _cmd_weight_report,
    "constants": _cmd_constants,
    "verify-inequalities": _cmd_verify,
    "approximate": _cmd_approximate,
    "solve-evolution": _cmd_evolution,
    "solve-stationary": _cmd_stationary,
}
SUBCOMMANDS = tuple(_COMMANDS)


def run(subcommand: str, config: RunConfig, out_dir: str | Path) -> int:
    """Dispatch one subcommand; writes artifacts and returns the exit code."""
    out = Path(out_dir)
    try:
        if subcommand not in _COMMANDS:
            raise ValueError(f"unknown subcommand {subcommand!r}")
        code, results = _COMMANDS[subcommand](config)
        emit_report(results, out)
        return code
    except IntegrabilityGateError as err:
        emit_report({"integrability_gate": err.report}, out)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_OPERATIONAL
    except ProxConvergenceError as err:
        print(f"error: inner solver did not converge: {err}", file=sys.stderr)
        return EXIT_OPERATIONAL
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_OPERATIONAL
    except MemoryError as err:  # such as a grid too large to allocate
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_OPERATIONAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsobolev",
        description="Weighted Sobolev toolkit: weight diagnostics, certified "
        "constants, inequality verification, and gradient-flow solvers.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS, metavar="subcommand",
                        help=f"one of: {', '.join(SUBCOMMANDS)}")
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default="wsobolev-out",
                        help="output directory (default: ./wsobolev-out)")
    return parser


# built once per process: argparse looks up sys.stdout, sys.stderr and COLUMNS
# only when it prints, so every call sees the streams and width of its time
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as err:  # argparse has printed the usage error or --help
        return EXIT_OPERATIONAL if err.code else EXIT_OK
    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_OPERATIONAL
    return run(args.subcommand, config, args.out)


if __name__ == "__main__":
    sys.exit(main())

"""Batch front end: config in, reports out.

Subcommands mirror the package's module boundaries:

  weight-report        admissibility fits, doubling/Muckenhoupt ball tables,
                       reciprocal-power integrability
  constants            the certified constant chain
  verify-inequalities  quadrature checks of the moment and Poincaré bounds
                       over the bump corpus
  approximate          mollification convergence run
  solve-evolution      implicit-Euler gradient-flow trajectory
  solve-stationary     mean-zero stationary state for a compatible source

Exit codes: 0 success, 2 when a verification that should mathematically hold
comes out false (and only then), 1 for operational failures.  Outputs are
byte-deterministic for a fixed config: floats are rounded to 12 significant
digits and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields, is_dataclass, replace
from pathlib import Path

from ._expr import ExpressionError, evaluate_expression
from .config import ConfigError, RunConfig, load_config
from .corpus import corpus_members
from .grid import Grid, GridFunction, discrete_gradient, load_grid_function_binary, \
    save_grid_function_csv
from .inequalities import ConstantChain, build_constant_chain, verify_poincare, \
    verify_potential, verify_xq
from .pde import EvolutionProblem, IntegrabilityGateError, ProxConvergenceError, \
    solve_evolution, solve_evolution_lebesgue, solve_stationary
from .sobolev import smooth_approximation
from .weights import DoublingReport, MuckenhouptReport, check_admissibility, \
    check_reciprocal_integrability, estimate_doubling, estimate_muckenhoupt, weight_on_grid

__all__ = ["SUBCOMMANDS", "OUTPUT_DIR_ENV", "emit_report", "run", "main"]

OUTPUT_DIR_ENV = "WSOBOLEV_OUT"

EXIT_OK = 0
EXIT_OPERATIONAL = 1
EXIT_VERIFICATION = 2


def _round_floats(obj, path: str = "report"):
    """JSON form of a report payload with floats rounded to 12 significant
    digits.

    A payload with to_json() renders through it; any other dataclass renders
    its fields.  Tuples become lists.  NaN and infinities have no JSON form
    and raise ValueError naming their path in the payload.
    """
    if hasattr(obj, "to_json"):
        return _round_floats(obj.to_json(), path)
    if is_dataclass(obj):
        return {f.name: _round_floats(getattr(obj, f.name), f"{path}.{f.name}")
                for f in fields(obj)}
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
    if v is None:
        return ""
    if isinstance(v, tuple):
        return ";".join(map(_csv_cell, v))
    return str(v)


def _csv(header: str, rows) -> str:
    """CSV text: floats to 12 significant digits, bools in lowercase, None as
    an empty cell, tuples joined with ';'."""
    return "".join(f"{line}\n" for line in
                   [header, *(",".join(map(_csv_cell, row)) for row in rows)])


def _ball_csv(report: DoublingReport | MuckenhouptReport) -> str:
    return _csv("ball_center,ball_radius,value",
                ((e.center, e.radius, e.value) for e in report.entries))


# report type -> its CSV sidecar under --format csv
_SIDECARS = {DoublingReport: _ball_csv, MuckenhouptReport: _ball_csv}


def emit_report(results: dict, out_dir: str | Path, format: str = "json") -> list[Path]:
    """Write one file per report.

    Dict-like payloads (dataclass reports or plain dicts) become <name>.json;
    string payloads are pre-rendered CSV and become <name>.csv.  With
    format="csv", payloads whose type has an entry in _SIDECARS also get a
    CSV sidecar.  Every file is rendered before any is written.
    """
    if format not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    files: dict[str, str] = {}
    for name in sorted(results):
        payload = results[name]
        if isinstance(payload, str):
            files[f"{name}.csv"] = payload
            continue
        files[f"{name}.json"] = _canonical_json(payload, name)
        if format == "csv" and type(payload) in _SIDECARS:
            files[f"{name}.csv"] = _SIDECARS[type(payload)](payload)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, text in files.items():
        (out / fname).write_text(text)
    return [out / fname for fname in files]


# ---------------------------------------------------------------------------
# state construction from config strings
# ---------------------------------------------------------------------------


def _state_from_string(
    text: str, grid: Grid, support_radius: float | None = None
) -> GridFunction:
    """u0/source strings are either "file:<path>" (grid binary dump) or an
    arithmetic expression of x (and y in 2d)."""
    if text.startswith("file:"):
        f = load_grid_function_binary(text[5:])
        if f.grid != grid:
            raise ValueError(
                f"state file {text[5:]!r} was saved on a different grid "
                f"(n={f.grid.nodes_per_axis}, R={f.grid.half_width:g})"
            )
        return f
    vals = evaluate_expression(text, *grid.mesh())
    return GridFunction(grid, vals, compact_support_radius=support_radius)


def _constant_chain(config: RunConfig) -> ConstantChain:
    return build_constant_chain(
        config.weight,
        config.p,
        L=config.constants.L,
        C4=config.constants.C4,
        fit_half_width=config.fit_half_width,
        eps=config.constants.eps,
        eps0=config.constants.eps0,
        eps1=config.constants.eps1,
        n_samples=config.fit_samples,
        lattice=config.fit_lattice,
    )


# ---------------------------------------------------------------------------
# subcommand implementations (each returns (exit_code, results dict))
# ---------------------------------------------------------------------------


def _cmd_weight_report(config: RunConfig, out_dir: Path) -> tuple[int, dict]:
    spec = config.weight
    w = weight_on_grid(spec, config.grid)  # before the fits: an undefined weight is the error
    admissibility = check_admissibility(
        spec,
        half_width=config.fit_half_width,
        n_samples=config.fit_samples,
        lattice=config.fit_lattice,
    )
    results: dict = {
        "admissibility": admissibility,
        "doubling": estimate_doubling(w, config.balls),
        "reciprocal_integrability": check_reciprocal_integrability(w, config.p),
    }
    if config.p > 1.0:
        results["muckenhoupt"] = estimate_muckenhoupt(w, config.p, config.balls)
    return EXIT_OK, results


def _cmd_constants(config: RunConfig, out_dir: Path) -> tuple[int, dict]:
    return EXIT_OK, {"constant_chain": _constant_chain(config)}


def _cmd_verify(config: RunConfig, out_dir: Path) -> tuple[int, dict]:
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
    rows_xq, rows_pot, rows_poi = [], [], []
    all_hold = True
    for member in members:
        f = member.on_grid(grid)
        grads = discrete_gradient(f)
        rep_xq = verify_xq(f, grads, spec.beta, spec.q, constants["C"], constants["D"])
        rep_pot = verify_potential(
            f, grads, spec, config.p, constants["C_prime"], constants["D_prime"]
        )
        rep_poi = verify_poincare(f, grads, spec, config.p, constants["c"])
        rows_xq.append((member.name, rep_xq))
        rows_pot.append((member.name, rep_pot))
        rows_poi.append((member.name, rep_poi))
        all_hold = all_hold and rep_xq.holds and rep_pot.holds and rep_poi.holds

    summary = {
        "constants": constants,
        "constants_source": source,
        "corpus_size": len(members),
        "all_hold": all_hold,
        "inequalities": {
            key: [{"corpus_id": n, **asdict(r)} for n, r in rows]
            for key, rows in (("radial_moment", rows_xq), ("potential_moment", rows_pot),
                              ("poincare", rows_poi))
        },
    }
    results = {"verify_summary": summary}
    for key, rows in (("verify_xq", rows_xq), ("verify_potential", rows_pot),
                      ("verify_poincare", rows_poi)):
        results[key] = _csv("corpus_id,lhs,rhs,margin,holds",
                            ((n, r.lhs, r.rhs, r.margin, r.holds) for n, r in rows))
    return (EXIT_OK if all_hold else EXIT_VERIFICATION), results


def _cmd_approximate(config: RunConfig, out_dir: Path) -> tuple[int, dict]:
    cfg = config.approximate
    f = _state_from_string(cfg.u0, config.grid, support_radius=cfg.support_radius)
    report = smooth_approximation(f, config.weight, config.p, cfg.schedule, tol=cfg.tol)
    steps = _csv("eps,lp_error,grad_lp_error,sobolev_error", map(astuple, report.steps))
    results = {"approximation": report, "approximation_steps": steps}
    return (EXIT_OK if report.passed else EXIT_VERIFICATION), results


def _cmd_evolution(config: RunConfig, out_dir: Path) -> tuple[int, dict]:
    cfg = config.evolution
    u0 = _state_from_string(cfg.u0, config.grid)
    problem = EvolutionProblem(
        p=config.p,
        spec=config.weight,
        u0=u0,
        horizon=cfg.T,
        step=cfg.tau,
        dualization=cfg.dualization,
        settings=cfg.solver,
    )
    if cfg.dualization == "weighted":
        traj = solve_evolution(problem)
    else:
        traj = solve_evolution_lebesgue(problem)
    save_grid_function_csv(traj.states[-1], out_dir / "final_state.csv")
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
    trajectory = _csv("t,energy,mean,inner_iters", zip(
        traj.times, traj.energies, traj.means, [0] + traj.step_iterations))
    return EXIT_OK, {"trajectory": trajectory, "evolution": summary}


def _cmd_stationary(config: RunConfig, out_dir: Path) -> tuple[int, dict]:
    cfg = config.stationary
    f = _state_from_string(cfg.source, config.grid)
    result = solve_stationary(
        f,
        config.weight,
        config.p,
        settings=cfg.solver,
        compatibility_tol=cfg.compatibility_tol,
    )
    save_grid_function_csv(result.state, out_dir / "solution.csv")
    return EXIT_OK, {"stationary": result}


_COMMANDS = {
    "weight-report": _cmd_weight_report,
    "constants": _cmd_constants,
    "verify-inequalities": _cmd_verify,
    "approximate": _cmd_approximate,
    "solve-evolution": _cmd_evolution,
    "solve-stationary": _cmd_stationary,
}
SUBCOMMANDS = tuple(_COMMANDS)


def run(subcommand: str, config: RunConfig, out_dir: str | Path, format: str = "json") -> int:
    """Dispatch one subcommand; writes artifacts and returns the exit code."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if subcommand not in _COMMANDS:
            raise ValueError(f"unknown subcommand {subcommand!r}")
        code, results = _COMMANDS[subcommand](config, out)
        emit_report(results, out, format=format)
        return code
    except IntegrabilityGateError as err:
        emit_report({"integrability_gate": err.report}, out, format=format)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_OPERATIONAL
    except ProxConvergenceError as err:
        print(f"error: inner solver did not converge: {err}", file=sys.stderr)
        return EXIT_OPERATIONAL
    except (ValueError, ExpressionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_OPERATIONAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsobolev",
        description="Weighted Sobolev toolkit: weight diagnostics, certified "
        "constants, inequality verification, and gradient-flow solvers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (default: "
                       f"${OUTPUT_DIR_ENV} or ./wsobolev-out)")
        p.add_argument("--grid-n", type=int, default=None,
                       help="override grid.nodes_per_axis (odd)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="tabular report format (JSON summaries always written)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_OPERATIONAL
    if args.grid_n is not None:
        try:
            grid = Grid(config.grid.dim, config.grid.half_width, args.grid_n)
        except ValueError as err:
            print(f"error: --grid-n: {err}", file=sys.stderr)
            return EXIT_OPERATIONAL
        config = replace(config, grid=grid)
    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV) or "wsobolev-out"
    return run(args.subcommand, config, out_dir, format=args.format)


if __name__ == "__main__":
    sys.exit(main())

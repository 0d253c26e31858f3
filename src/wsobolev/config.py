"""Run-configuration parsing and validation for the batch front end.

A run config is one JSON document describing the weight, the grid, and the
per-subcommand settings.  Everything has a default except the weight's
shape parameters, so the minimal useful config is

    {"weight": {"beta": 1.0, "q": 2.0, "dim": 1}}

Validation errors always name the offending field by its JSON path
("weight.q", "evolution.solver.max_iters", "weight.W[0].kind").
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .grid import Grid
from .pde import SolverSettings
from .weights import Ball, FitLattice, PotentialExpr, WeightSpec, is_finite_number

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    pass


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj

def _number(obj: dict, key: str, path: str, default=None, minimum=None, strict=False):
    if key not in obj:
        if default is None:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    val = obj[key]
    if not is_finite_number(val):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {val!r}")
    val = float(val)
    if minimum is not None and (val <= minimum if strict else val < minimum):
        op = ">" if strict else ">="
        raise ConfigError(f"{path}.{key}: must be {op} {minimum:g}, got {val:g}")
    return val

def _integer(obj: dict, key: str, path: str, default=None, minimum=None) -> int:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {val}")
    return val

def _string(obj: dict, key: str, path: str, default=None, choices=None) -> str:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    val = obj[key]
    if not isinstance(val, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {val!r}")
    if choices is not None and val not in choices:
        raise ConfigError(f"{path}.{key}: must be one of {sorted(choices)}, got {val!r}")
    return val

def _check_keys(obj: dict, path: str, allowed: set[str]) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _parse_weight(obj: dict) -> WeightSpec:
    _check_keys(obj, "weight", {"beta", "q", "dim", "W", "V"})
    beta = _number(obj, "beta", "weight")
    if beta == 0.0:
        raise ConfigError("weight.beta: must be nonzero")
    q = _number(obj, "q", "weight", minimum=1.0, strict=True)
    if not math.isfinite(beta * q):
        raise ConfigError(f"weight.beta: beta * q must be finite, got {beta:g} * {q:g}")
    dim = _integer(obj, "dim", "weight")
    if dim not in (1, 2):
        raise ConfigError(f"weight.dim: must be 1 or 2, got {dim}")
    def potential(key: str) -> PotentialExpr:
        items = obj.get(key, [])
        if not isinstance(items, list):
            raise ConfigError(f"weight.{key}: expected a list of terms")
        try:
            return PotentialExpr.from_json(items, dim)
        except ValueError as err:
            raise ConfigError(f"weight.{key}{err}") from None
    return WeightSpec(beta=beta, q=q, dim=dim, W=potential("W"), V=potential("V"))


def _parse_grid(obj: dict, dim: int) -> Grid:
    _check_keys(obj, "grid", {"half_width", "nodes_per_axis"})
    half_width = _number(obj, "half_width", "grid", default=6.0, minimum=0.0, strict=True)
    n = _integer(obj, "nodes_per_axis", "grid", default=301, minimum=3)
    if n % 2 == 0:
        raise ConfigError(f"grid.nodes_per_axis: must be odd, got {n}")
    return Grid(dim=dim, half_width=half_width, nodes_per_axis=n)


def _parse_solver(obj: dict, path: str) -> SolverSettings:
    _check_keys(obj, path, {"tol", "max_iters"})
    return SolverSettings(
        tolerance=_number(obj, "tol", path, default=1e-8, minimum=0.0, strict=True),
        max_iterations=_integer(obj, "max_iters", path, default=10_000, minimum=1),
    )


def _parse_balls(items, dim: int) -> tuple[Ball, ...]:
    if not isinstance(items, list) or not items:
        raise ConfigError("balls: expected a non-empty list")
    out = []
    for i, entry in enumerate(items):
        path = f"balls[{i}]"
        entry = _expect_mapping(entry, path)
        _check_keys(entry, path, {"center", "radius"})
        if "center" not in entry:
            raise ConfigError(f"{path}.center: required field is missing")
        center = entry["center"]
        if is_finite_number(center):
            if dim != 1:
                raise ConfigError(f"{path}.center: expected {dim} coordinates")
            center = (float(center),)
        elif isinstance(center, list) and len(center) == dim and all(
            map(is_finite_number, center)
        ):
            center = tuple(float(c) for c in center)
        else:
            raise ConfigError(
                f"{path}.center: expected {dim} finite coordinates, got {center!r}"
            )
        radius = _number(entry, "radius", path, minimum=0.0, strict=True)
        out.append(Ball(center=center, radius=radius))
    return tuple(out)


@dataclass(frozen=True)
class ConstantsConfig:
    eps: float = 1.0
    eps0: float | None = None  # None -> 1/p at use time
    eps1: float = 1.0
    L: float = 4.0
    C4: float = 1.0


@dataclass(frozen=True)
class ApproximateConfig:
    u0: str = "max(1 - abs(x), 0)"
    support_radius: float = 1.0
    schedule: tuple[float, ...] = (0.2, 0.1, 0.05)
    tol: float = 1e-2


@dataclass(frozen=True)
class EvolutionConfig:
    u0: str = "x"
    T: float = 0.5
    tau: float = 1e-3
    dualization: str = "weighted"
    solver: SolverSettings = field(default_factory=SolverSettings)


@dataclass(frozen=True)
class StationaryConfig:
    source: str = "2*x"
    compatibility_tol: float = 1e-6
    solver: SolverSettings = field(default_factory=SolverSettings)


@dataclass(frozen=True)
class RunConfig:
    weight: WeightSpec
    grid: Grid
    p: float
    fit_lattice: FitLattice
    fit_half_width: float
    fit_samples: int
    constants: ConstantsConfig
    balls: tuple[Ball, ...]
    approximate: ApproximateConfig
    evolution: EvolutionConfig
    stationary: StationaryConfig
    verify_override: dict[str, float] | None


_TOP_KEYS = {
    "weight", "grid", "p", "fit", "constants", "balls",
    "approximate", "evolution", "stationary", "verify",
}


def parse_config(doc: dict) -> RunConfig:
    doc = _expect_mapping(doc, "config")
    _check_keys(doc, "config", _TOP_KEYS)
    if "weight" not in doc:
        raise ConfigError("weight: required section is missing")
    weight = _parse_weight(_expect_mapping(doc["weight"], "weight"))
    grid = _parse_grid(_expect_mapping(doc.get("grid", {}), "grid"), weight.dim)
    p = _number(doc, "p", "config", default=2.0, minimum=1.0)

    fit = _expect_mapping(doc.get("fit", {}), "fit")
    _check_keys(fit, "fit", {"half_width", "n_samples", "delta_step", "delta_max",
                             "c1_step", "c1_max", "c2_cap"})
    lattice = FitLattice(
        delta_step=_number(fit, "delta_step", "fit", default=0.01, minimum=0.0, strict=True),
        delta_max=_number(fit, "delta_max", "fit", default=10.0, minimum=0.0, strict=True),
        c1_step=_number(fit, "c1_step", "fit", default=0.05, minimum=0.0, strict=True),
        c1_max=_number(fit, "c1_max", "fit", default=8.0, minimum=1.0),
        c2_cap=_number(fit, "c2_cap", "fit", default=1e6, minimum=0.0, strict=True),
    )
    fit_half_width = _number(fit, "half_width", "fit", default=grid.half_width,
                             minimum=0.0, strict=True)
    fit_samples = _integer(fit, "n_samples", "fit", default=2001, minimum=3)

    cons = _expect_mapping(doc.get("constants", {}), "constants")
    _check_keys(cons, "constants", {"eps", "eps0", "eps1", "L", "C4"})
    eps0 = None
    if cons.get("eps0") is not None:
        eps0 = _number(cons, "eps0", "constants", minimum=0.0, strict=True)
    constants = ConstantsConfig(
        eps=_number(cons, "eps", "constants", default=1.0, minimum=0.0, strict=True),
        eps0=eps0,
        eps1=_number(cons, "eps1", "constants", default=1.0, minimum=0.0, strict=True),
        L=_number(cons, "L", "constants", default=4.0, minimum=0.0, strict=True),
        C4=_number(cons, "C4", "constants", default=1.0, minimum=0.0, strict=True),
    )

    if "balls" in doc:
        balls = _parse_balls(doc["balls"], weight.dim)
    else:
        origin = (0.0,) * weight.dim
        balls = (Ball(origin, 1.0), Ball(origin, 2.0))

    approx = _expect_mapping(doc.get("approximate", {}), "approximate")
    _check_keys(approx, "approximate", {"u0", "support_radius", "schedule", "tol"})
    schedule = approx.get("schedule", [0.2, 0.1, 0.05])
    if (not isinstance(schedule, list) or not schedule
            or not all(is_finite_number(s) and s > 0 for s in schedule)):
        raise ConfigError("approximate.schedule: expected a list of positive finite numbers")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("approximate.schedule: must be strictly decreasing")
    approximate = ApproximateConfig(
        u0=_string(approx, "u0", "approximate", default=ApproximateConfig.u0),
        support_radius=_number(approx, "support_radius", "approximate",
                               default=1.0, minimum=0.0, strict=True),
        schedule=tuple(float(s) for s in schedule),
        tol=_number(approx, "tol", "approximate", default=1e-2, minimum=0.0, strict=True),
    )

    evo = _expect_mapping(doc.get("evolution", {}), "evolution")
    _check_keys(evo, "evolution", {"u0", "T", "tau", "dualization", "solver"})
    evolution = EvolutionConfig(
        u0=_string(evo, "u0", "evolution", default="x"),
        T=_number(evo, "T", "evolution", default=0.5, minimum=0.0, strict=True),
        tau=_number(evo, "tau", "evolution", default=1e-3, minimum=0.0, strict=True),
        dualization=_string(evo, "dualization", "evolution", default="weighted",
                            choices={"weighted", "lebesgue"}),
        solver=_parse_solver(_expect_mapping(evo.get("solver", {}), "evolution.solver"),
                             "evolution.solver"),
    )

    stat = _expect_mapping(doc.get("stationary", {}), "stationary")
    _check_keys(stat, "stationary", {"source", "compatibility_tol", "solver"})
    stationary = StationaryConfig(
        source=_string(stat, "source", "stationary", default="2*x"),
        compatibility_tol=_number(stat, "compatibility_tol", "stationary",
                                  default=1e-6, minimum=0.0, strict=True),
        solver=_parse_solver(_expect_mapping(stat.get("solver", {}), "stationary.solver"),
                             "stationary.solver"),
    )

    verify_override = None
    if "verify" in doc:
        ver = _expect_mapping(doc["verify"], "verify")
        _check_keys(ver, "verify", {"C", "D", "C_prime", "D_prime", "c"})
        verify_override = {}
        for key in ("C", "D", "C_prime", "D_prime", "c"):
            if key in ver:
                verify_override[key] = _number(ver, key, "verify", minimum=0.0, strict=True)
        if not verify_override:
            raise ConfigError("verify: override block is present but empty")

    return RunConfig(
        weight=weight, grid=grid, p=p,
        fit_lattice=lattice, fit_half_width=fit_half_width, fit_samples=fit_samples,
        constants=constants, balls=balls, approximate=approximate,
        evolution=evolution, stationary=stationary, verify_override=verify_override,
    )


def load_config(path: str | Path) -> RunConfig:
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigError(f"config: not UTF-8 text (byte {err.start})") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config: not valid JSON ({err.msg} at line {err.lineno})") from None
    return parse_config(doc)

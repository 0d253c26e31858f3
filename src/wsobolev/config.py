"""Run-configuration parsing and validation for the batch front end.

A run config is one JSON document describing the weight, the grid, and the
per-subcommand settings.  Everything has a default except the weight's
shape parameters, so the minimal useful config is

    {"weight": {"beta": 1.0, "q": 2.0, "dim": 1}}

Validation errors always name the offending field by its JSON path
("weight.q", "approximate.schedule", "weight.W[0].kind").
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .grid import Grid
from .weights import Ball, WeightSpec, is_finite_number, json_number

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    pass


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj

def _number(obj: dict, key: str, path: str, default=None, minimum=None, strict=False):
    if key not in obj and default is not None:
        return default
    try:
        val = json_number(obj, key, f"{path}.{key}")
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if minimum is not None and (val <= minimum if strict else val < minimum):
        op = ">" if strict else ">="
        raise ConfigError(f"{path}.{key}: must be {op} {minimum:g}, got {val:g}")
    return val

def _integer(obj: dict, key: str, path: str, default: int, minimum: int) -> int:
    val = obj.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {val!r}")
    if val < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {val}")
    return val

def _string(obj: dict, key: str, path: str, default: str, choices=None) -> str:
    val = obj.get(key, default)
    if not isinstance(val, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {val!r}")
    if choices is not None and val not in choices:
        raise ConfigError(f"{path}.{key}: must be one of {sorted(choices)}, got {val!r}")
    return val

def _section(obj, path: str, allowed: set[str]) -> dict:
    """obj as an object whose fields are all in allowed."""
    for key in _expect_mapping(obj, path):
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")
    return obj


def _parse_weight(obj: dict) -> WeightSpec:
    try:
        return WeightSpec.from_json(obj)
    except ValueError as err:
        raise ConfigError(f"weight.{err}") from None


def _parse_grid(obj, dim: int) -> Grid:
    obj = _section(obj, "grid", {"half_width", "nodes_per_axis"})
    half_width = _number(obj, "half_width", "grid", default=6.0, minimum=0.0, strict=True)
    n = _integer(obj, "nodes_per_axis", "grid", default=301, minimum=3)
    if n % 2 == 0:
        raise ConfigError(f"grid.nodes_per_axis: must be odd, got {n}")
    return Grid(dim=dim, half_width=half_width, nodes_per_axis=n)


def _parse_balls(items, dim: int) -> tuple[Ball, ...]:
    if not isinstance(items, list) or not items:
        raise ConfigError("balls: expected a non-empty list")
    out = []
    for i, entry in enumerate(items):
        path = f"balls[{i}]"
        entry = _section(entry, path, {"center", "radius"})
        if "center" not in entry:
            raise ConfigError(f"{path}.center: required field is missing")
        center = entry["center"]
        if not (isinstance(center, list) and len(center) == dim
                and all(map(is_finite_number, center))):
            raise ConfigError(
                f"{path}.center: expected {dim} finite coordinates, got {center!r}"
            )
        radius = _number(entry, "radius", path, minimum=0.0, strict=True)
        out.append(Ball(center=tuple(map(float, center)), radius=radius))
    return tuple(out)


@dataclass(frozen=True)
class ConstantsConfig:
    eps: float
    eps0: float | None  # None -> 1/p at use time
    eps1: float
    L: float
    C4: float


@dataclass(frozen=True)
class ApproximateConfig:
    u0: str
    support_radius: float
    schedule: tuple[float, ...]


@dataclass(frozen=True)
class EvolutionConfig:
    u0: str
    T: float
    tau: float
    dualization: str


@dataclass(frozen=True)
class StationaryConfig:
    source: str


@dataclass(frozen=True)
class RunConfig:
    weight: WeightSpec
    grid: Grid
    p: float
    constants: ConstantsConfig
    balls: tuple[Ball, ...]
    approximate: ApproximateConfig
    evolution: EvolutionConfig
    stationary: StationaryConfig
    verify_override: dict[str, float] | None


_TOP_KEYS = {
    "weight", "grid", "p", "constants", "balls",
    "approximate", "evolution", "stationary", "verify",
}


def parse_config(doc: dict) -> RunConfig:
    doc = _section(doc, "config", _TOP_KEYS)
    if "weight" not in doc:
        raise ConfigError("weight: required section is missing")
    weight = _parse_weight(_expect_mapping(doc["weight"], "weight"))
    grid = _parse_grid(doc.get("grid", {}), weight.dim)
    p = _number(doc, "p", "config", default=2.0, minimum=1.0)

    cons = _section(doc.get("constants", {}), "constants", {"eps", "eps0", "eps1", "L", "C4"})
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

    approx = _section(doc.get("approximate", {}), "approximate",
                      {"u0", "support_radius", "schedule"})
    schedule = approx.get("schedule", [0.2, 0.1, 0.05])
    if (not isinstance(schedule, list) or not schedule
            or not all(is_finite_number(s) and s > 0 for s in schedule)):
        raise ConfigError("approximate.schedule: expected a list of positive finite numbers")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("approximate.schedule: must be strictly decreasing")
    approximate = ApproximateConfig(
        u0=_string(approx, "u0", "approximate", default="max(1 - abs(x), 0)"),
        support_radius=_number(approx, "support_radius", "approximate",
                               default=1.0, minimum=0.0, strict=True),
        schedule=tuple(float(s) for s in schedule),
    )

    evo = _section(doc.get("evolution", {}), "evolution",
                   {"u0", "T", "tau", "dualization"})
    evolution = EvolutionConfig(
        u0=_string(evo, "u0", "evolution", default="x"),
        T=_number(evo, "T", "evolution", default=0.5, minimum=0.0, strict=True),
        tau=_number(evo, "tau", "evolution", default=1e-3, minimum=0.0, strict=True),
        dualization=_string(evo, "dualization", "evolution", default="weighted",
                            choices={"weighted", "lebesgue"}),
    )

    stat = _section(doc.get("stationary", {}), "stationary", {"source"})
    stationary = StationaryConfig(source=_string(stat, "source", "stationary", default="2*x"))

    verify_override = None
    if "verify" in doc:
        ver = _section(doc["verify"], "verify", {"C", "D", "C_prime", "D_prime", "c"})
        verify_override = {}
        for key in ("C", "D", "C_prime", "D_prime", "c"):
            if key in ver:
                verify_override[key] = _number(ver, key, "verify", minimum=0.0, strict=True)
        if not verify_override:
            raise ConfigError("verify: override block is present but empty")

    return RunConfig(
        weight=weight, grid=grid, p=p, constants=constants, balls=balls, approximate=approximate,
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

"""Weighted p-Laplacian energy, operator, and implicit-Euler gradient flow.

The flow discretizes du/dt = div(w |grad u|^(p-2) grad u)/w (or its plain-
Lebesgue dualization, without the 1/w) by proximal steps: each step
minimizes (1/(2 tau)) ||v - u||^2 + (1/p) int |grad v|^p w dx with a
backtracking gradient descent.  The step is unconditionally stable, makes
the energy non-increasing by construction, and conserves the mean because
constants annihilate the operator exactly.

All node sums here use trapezoid mass weights rather than Simpson: the
operator is the quadrature-form adjoint of the discrete gradient divided by
the node mass, and Simpson's alternating node weights would leave an O(1)
odd/even oscillation in that quotient.  Trapezoid weights keep the operator
pointwise second-order consistent (and on rapidly decaying smooth weights
the accuracy loss is negligible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import Grid, GridFunction, tensor_weights, trapezoid_weights
from .weights import WeightSpec, eval_weight

__all__ = [
    "SolverSettings",
    "EvolutionProblem",
    "Trajectory",
    "ProxConvergenceError",
    "IntegrabilityGateError",
    "TailReport",
    "energy",
    "energy_with_source",
    "apply_operator",
    "prox_step",
    "solve_evolution",
    "check_lebesgue_compatibility",
    "solve_evolution_lebesgue",
    "StationaryResult",
    "solve_stationary",
]


def _mass_weights(grid: Grid) -> np.ndarray:
    return tensor_weights(trapezoid_weights(grid.nodes_per_axis, grid.spacing), grid.dim)


def _axis_gradient(vals: np.ndarray, h: float, axis: int) -> np.ndarray:
    return np.gradient(vals, h, edge_order=2, axis=axis)


def _axis_gradient_transpose(g: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Exact adjoint of the np.gradient stencil (edge_order=2) along one axis."""
    gm = np.moveaxis(g, axis, 0)
    out = np.empty_like(gm)
    out[1:-1] = gm[:-2] - gm[2:]
    out[0] = -3.0 * gm[0] - gm[1]
    out[-1] = 3.0 * gm[-1] + gm[-2]
    out[1] += 3.0 * gm[0]
    out[2] -= gm[0]
    out[-2] -= 3.0 * gm[-1]
    out[-3] += gm[-1]
    return np.moveaxis(out, 0, axis) / (2.0 * h)


@dataclass(frozen=True)
class SolverSettings:
    tolerance: float = 1e-8
    max_iterations: int = 10_000
    shrink: float = 0.5
    sufficient_decrease: float = 1e-4

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must be in (0, 1)")
        if not 0.0 < self.sufficient_decrease < 1.0:
            raise ValueError("sufficient_decrease must be in (0, 1)")


@dataclass(frozen=True)
class EvolutionProblem:
    p: float
    spec: WeightSpec
    u0: GridFunction
    horizon: float
    step: float
    dualization: str = "weighted"
    settings: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self) -> None:
        if self.p < 2.0:
            raise ValueError(f"the degenerate flow needs p >= 2, got {self.p}")
        if self.spec.dim != self.u0.grid.dim:
            raise ValueError("weight and initial state dimensions differ")
        if self.horizon <= 0.0 or self.step <= 0.0:
            raise ValueError("horizon and step must be positive")
        if self.dualization not in ("weighted", "lebesgue"):
            raise ValueError(f"unknown dualization {self.dualization!r}")
        if self.dualization == "weighted" and self.spec.beta <= 0.0:
            raise ValueError("weighted dualization needs beta > 0 (integrable weight)")
        if self.dualization == "lebesgue" and self.p <= 2.0:
            raise ValueError("lebesgue dualization is defined for p > 2 only")


class ProxConvergenceError(RuntimeError):
    """Inner descent ran out of iterations; carries the last iterate."""

    def __init__(self, message: str, iterate: GridFunction, residual: float):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


class IntegrabilityGateError(RuntimeError):
    """The reciprocal-power integrability gate failed; carries the report."""

    def __init__(self, message: str, report: "TailReport"):
        super().__init__(message)
        self.report = report


@dataclass
class Trajectory:
    times: list[float]
    states: list[GridFunction]
    energies: list[float]
    means: list[float]
    step_iterations: list[int]

    def to_csv(self) -> str:
        lines = ["t,energy,mean,inner_iters"]
        iters = [0] + self.step_iterations
        for t, e, m, it in zip(self.times, self.energies, self.means, iters):
            lines.append(f"{t:.12g},{e:.12g},{m:.12g},{it}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# energy and operator
# ---------------------------------------------------------------------------


def _gradient_arrays(vals: np.ndarray, grid: Grid) -> list[np.ndarray]:
    return [_axis_gradient(vals, grid.spacing, a) for a in range(grid.dim)]


def _energy_value(vals: np.ndarray, grid: Grid, mass_w: np.ndarray, p: float) -> float:
    grads = _gradient_arrays(vals, grid)
    mag2 = sum(g * g for g in grads)
    return float(np.sum(mass_w * mag2 ** (p / 2.0))) / p


def energy(u: GridFunction, spec: WeightSpec, p: float) -> float:
    """(1/p) int |grad u|^p w dx by trapezoid node sums."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    grid = u.grid
    w = eval_weight(spec, grid.points())
    return _energy_value(u.values, grid, _mass_weights(grid) * w, p)


def energy_with_source(u: GridFunction, f: GridFunction, spec: WeightSpec, p: float) -> float:
    """Energy minus the weighted source pairing int f u w dx."""
    u._check_same_grid(f)
    grid = u.grid
    w = eval_weight(spec, grid.points())
    pairing = float(np.sum(_mass_weights(grid) * w * f.values * u.values))
    return energy(u, spec, p) - pairing


def _operator_arrays(vals: np.ndarray, grid: Grid, mass_w: np.ndarray, p: float) -> np.ndarray:
    """Euclidean gradient of the discrete energy: sum_a D_a^T(mass_w *
    |grad|^(p-2) * D_a u).  Dividing by the node mass gives the operator."""
    h = grid.spacing
    grads = _gradient_arrays(vals, grid)
    if p == 2.0:
        coef = mass_w
    else:
        mag2 = sum(g * g for g in grads)
        coef = mass_w * mag2 ** ((p - 2.0) / 2.0)
    out = np.zeros_like(vals)
    for a in range(grid.dim):
        out += _axis_gradient_transpose(coef * grads[a], h, a)
    return out


def apply_operator(u: GridFunction, spec: WeightSpec, p: float) -> GridFunction:
    """Riesz representative of v -> int |grad u|^(p-2) <grad u, grad v> w dx
    in the weighted node inner product (discrete no-flux boundary)."""
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")
    grid = u.grid
    w = eval_weight(spec, grid.points())
    mass_w = _mass_weights(grid) * w
    return GridFunction(grid, _operator_arrays(u.values, grid, mass_w, p) / mass_w)


# ---------------------------------------------------------------------------
# proximal stepping
# ---------------------------------------------------------------------------


def _descend(
    vals0: np.ndarray,
    grid: Grid,
    metric: np.ndarray,
    energy_mass: np.ndarray,
    p: float,
    settings: SolverSettings,
    tau: float | None,
    anchor: np.ndarray | None,
    source: np.ndarray | None = None,
    project_mean_zero: bool = False,
) -> tuple[np.ndarray, int, float]:
    """Backtracking gradient descent on the proximal (or source) objective.

    Objective: (1/(2 tau)) ||v - anchor||_metric^2 + (1/p) sum energy_mass
    |grad v|^p - <source, v>_metric, any of the pieces optional.  Descent
    runs in the metric inner product (the Euclidean gradient divided by the
    metric), which also preconditions away the weight's dynamic range.

    Two finite-precision guards on top of the textbook Armijo loop: the
    sufficient-decrease comparison carries a round-off allowance (near the
    minimizer the true per-step decrease drops below one ulp of the
    objective, so the exact comparison would reject genuine descent steps
    forever), and the step size stops growing once the gradient norm is
    within 1e3 of the tolerance (growing into an expansive step there could
    not be detected through the noise).  The stopping test itself uses the
    gradient norm, whose arithmetic stays meaningful well below the
    objective's noise floor.
    """
    metric_total = float(np.sum(metric))
    noise_scale = 4.0 * np.finfo(float).eps

    def project(arr: np.ndarray) -> np.ndarray:
        if not project_mean_zero:
            return arr
        return arr - np.sum(metric * arr) / metric_total

    def objective(v: np.ndarray) -> float:
        val = _energy_value(v, grid, energy_mass, p)
        if tau is not None:
            d = v - anchor
            val += 0.5 / tau * float(np.sum(metric * d * d))
        if source is not None:
            val -= float(np.sum(metric * source * v))
        return val

    def metric_gradient(v: np.ndarray) -> np.ndarray:
        g = _operator_arrays(v, grid, energy_mass, p) / metric
        if tau is not None:
            g = g + (v - anchor) / tau
        if source is not None:
            g = g - source
        return project(g)

    v = project(vals0.copy())
    obj = objective(v)
    alpha = tau if tau is not None else 1.0
    for it in range(settings.max_iterations):
        g = metric_gradient(v)
        gnorm2 = float(np.sum(metric * g * g))
        gnorm = math.sqrt(max(gnorm2, 0.0))
        if gnorm <= settings.tolerance:
            return v, it, gnorm
        if gnorm > 1e3 * settings.tolerance:
            alpha *= 1.5
        for _ in range(60):
            trial = project(v - alpha * g)
            trial_obj = objective(trial)
            allowance = noise_scale * (abs(obj) + abs(trial_obj))
            if trial_obj <= obj - settings.sufficient_decrease * alpha * gnorm2 + allowance:
                break
            alpha *= settings.shrink
        else:
            raise ProxConvergenceError(
                f"line search stalled at iteration {it} (gradient norm {gnorm:.3e})",
                GridFunction(grid, v),
                gnorm,
            )
        v, obj = trial, trial_obj
    g = metric_gradient(v)
    gnorm = math.sqrt(max(float(np.sum(metric * g * g)), 0.0))
    if gnorm <= settings.tolerance:
        return v, settings.max_iterations, gnorm
    raise ProxConvergenceError(
        f"descent did not reach tolerance {settings.tolerance:g} in "
        f"{settings.max_iterations} iterations (gradient norm {gnorm:.3e})",
        GridFunction(grid, v),
        gnorm,
    )


def _problem_masses(problem: EvolutionProblem) -> tuple[np.ndarray, np.ndarray]:
    grid = problem.u0.grid
    tw = _mass_weights(grid)
    w = eval_weight(problem.spec, grid.points())
    energy_mass = tw * w
    metric = energy_mass if problem.dualization == "weighted" else tw
    return metric, energy_mass


def _prox_arrays(vals: np.ndarray, problem: EvolutionProblem) -> tuple[np.ndarray, int]:
    metric, energy_mass = _problem_masses(problem)
    out, iters, _ = _descend(
        vals,
        problem.u0.grid,
        metric,
        energy_mass,
        problem.p,
        problem.settings,
        tau=problem.step,
        anchor=vals,
    )
    return out, iters


def prox_step(u_prev: GridFunction, problem: EvolutionProblem) -> GridFunction:
    """One implicit-Euler step: the minimizer of the proximal objective."""
    u_prev._check_same_grid(problem.u0)
    out, _ = _prox_arrays(u_prev.values, problem)
    return GridFunction(u_prev.grid, out)


def _solve(problem: EvolutionProblem) -> Trajectory:
    grid = problem.u0.grid
    metric, energy_mass = _problem_masses(problem)
    metric_total = float(np.sum(metric))
    n_steps = int(math.ceil(problem.horizon / problem.step - 1e-12))

    def record(vals: np.ndarray) -> tuple[float, float]:
        e = _energy_value(vals, grid, energy_mass, problem.p)
        mean = float(np.sum(metric * vals)) / metric_total
        return e, mean

    vals = problem.u0.values.copy()
    e, m = record(vals)
    traj = Trajectory([0.0], [problem.u0.copy()], [e], [m], [])
    for k in range(1, n_steps + 1):
        vals, iters = _prox_arrays(vals, problem)
        e, m = record(vals)
        traj.times.append(k * problem.step)
        traj.states.append(GridFunction(grid, vals.copy()))
        traj.energies.append(e)
        traj.means.append(m)
        traj.step_iterations.append(iters)
    return traj


def solve_evolution(problem: EvolutionProblem) -> Trajectory:
    """Implicit-Euler trajectory of the weighted-dualized flow."""
    if problem.dualization != "weighted":
        raise ValueError("solve_evolution handles the weighted dualization; "
                         "use solve_evolution_lebesgue for the other one")
    return _solve(problem)


# ---------------------------------------------------------------------------
# Lebesgue dualization and its integrability gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailReport:
    """Nested-box masses of w^(-1/(p-2)) and their increments.

    Divergence on the whole space shows up as tail increments that stop
    decaying: each shell of the box family contributes at least as much as
    the previous one.  (A plain refinement check cannot see this — on any
    fixed box the quadrature of a smooth integrand converges no matter how
    violently it grows.)
    """

    exponent: float
    radii: tuple[float, ...]
    masses: tuple[float, ...]
    increments: tuple[float, ...]
    passes: bool


def check_lebesgue_compatibility(spec: WeightSpec, grid: Grid, p: float) -> TailReport:
    """Gate for the Lebesgue-dualized flow: w^(-1/(p-2)) must be integrable.

    Integrates the reciprocal power over the nested boxes r in {R/4, R/2,
    3R/4, R}; the gate passes when the shell increments strictly decay.
    """
    if p <= 2.0:
        raise ValueError("the gate applies to p > 2 only")
    s = -1.0 / (p - 2.0)
    tw1 = trapezoid_weights(grid.nodes_per_axis, grid.spacing)
    logw = spec.exponent(grid.points())
    vals = np.exp(np.minimum(s * logw, 700.0))  # cap just below overflow
    c = (grid.nodes_per_axis - 1) // 2
    masses = []
    radii = []
    for kq in (1, 2, 3, 4):
        k = (c * kq) // 4
        sl = slice(c - k, c + k + 1)
        # trapezoid weights of the sub-box: halve them on its new boundary
        # (scaling by 0.5 is exact, so the order of products does not matter)
        sub_w1 = tw1[sl].copy()
        if kq < 4:
            sub_w1[0] *= 0.5
            sub_w1[-1] *= 0.5
        masses.append(float(np.sum(vals[(sl,) * grid.dim] * tensor_weights(sub_w1, grid.dim))))
        radii.append(k * grid.spacing)
    increments = [b - a for a, b in zip(masses, masses[1:])]
    passes = all(b < a for a, b in zip(increments, increments[1:]))
    return TailReport(s, tuple(radii), tuple(masses), tuple(increments), passes)


def solve_evolution_lebesgue(problem: EvolutionProblem) -> Trajectory:
    """Implicit-Euler trajectory of the flow dualized in the plain L^2 inner
    product; requires p > 2 and an integrable reciprocal power of the weight.
    """
    if problem.dualization != "lebesgue":
        raise ValueError("problem.dualization must be 'lebesgue'")
    report = check_lebesgue_compatibility(problem.spec, problem.u0.grid, problem.p)
    if not report.passes:
        pretty = ", ".join(f"{v:.3g}" for v in report.increments)
        raise IntegrabilityGateError(
            f"w^({report.exponent:g}) is not integrable: nested-box increments "
            f"grow ({pretty})",
            report,
        )
    return _solve(problem)


# ---------------------------------------------------------------------------
# stationary problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationaryResult:
    state: GridFunction
    residual: float
    iterations: int
    objective: float

    def to_json(self) -> dict:
        return {
            "residual": self.residual,
            "iterations": self.iterations,
            "objective": self.objective,
        }


def solve_stationary(
    f: GridFunction,
    spec: WeightSpec,
    p: float,
    settings: SolverSettings | None = None,
    compatibility_tol: float = 1e-6,
) -> StationaryResult:
    """Minimize the source-perturbed energy over mean-zero grid functions.

    The natural (no-flux) boundary leaves constants in the operator's
    kernel, so the source must be compatible: its weighted mean has to
    vanish (within tolerance, relative to the source's size), and the
    solution is pinned down by the mean-zero constraint.
    """
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")
    if settings is None:
        settings = SolverSettings()
    grid = f.grid
    if spec.dim != grid.dim:
        raise ValueError("weight and source dimensions differ")
    tw = _mass_weights(grid)
    w = eval_weight(spec, grid.points())
    metric = tw * w
    metric_total = float(np.sum(metric))
    f_mean = float(np.sum(metric * f.values)) / metric_total
    scale = max(float(np.max(np.abs(f.values))), 1.0)
    if abs(f_mean) > compatibility_tol * scale:
        raise ValueError(
            f"incompatible source: weighted mean {f_mean:.3e} exceeds "
            f"{compatibility_tol:g} * max|f|"
        )
    source = f.values - f_mean
    out, iters, _ = _descend(
        np.zeros(grid.shape),
        grid,
        metric,
        metric,
        p,
        settings,
        tau=None,
        anchor=None,
        source=source,
        project_mean_zero=True,
    )
    op = _operator_arrays(out, grid, metric, p) / metric
    res = math.sqrt(float(np.sum(metric * (op - source) ** 2)))
    obj = _energy_value(out, grid, metric, p) - float(np.sum(metric * source * out))
    return StationaryResult(GridFunction(grid, out), res, iters, obj)

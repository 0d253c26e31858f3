"""Weighted p-Laplacian energy, operator, and implicit-Euler gradient flow.

The flow discretizes du/dt = div(w |grad u|^(p-2) grad u)/w (or its plain-
Lebesgue dualization, without the 1/w) by proximal steps, each minimizing
(1/(2 tau)) ||v - u||^2 + E(v): unconditionally stable, energy-lowering and
mean-preserving, since constants annihilate the operator exactly.

E is staggered.  Differences (u[i+1] - u[i])/h live on the cell edges; a cell
adds (1/p) h^d w(centre) (|grad u|^2)^(p/2), where |grad u|^2 sums over the
axes the mean squared difference on the cell's 2^(d-1) edges along that axis.
For p = 2 that is the 3-point stencil in 1d and the 5-point one in 2d, and
its kernel is the constants alone.  Node sums (the metric, the source
pairing) use trapezoid mass times w at the nodes.  Every minimization is one
damped Newton loop with matrix-free Jacobi-preconditioned CG solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


# backtracking line search: step shrink factor and Armijo sufficient-decrease constant
_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4


def _mass_weights(grid: Grid) -> np.ndarray:
    return tensor_weights(trapezoid_weights(grid.nodes_per_axis, grid.spacing), grid.dim)


def _node_metric(spec: WeightSpec, grid: Grid) -> np.ndarray:
    """Trapezoid mass times the weight at the nodes."""
    return _mass_weights(grid) * eval_weight(spec, grid.points())


@dataclass(frozen=True)
class SolverSettings:
    tolerance: float = 1e-8
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


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
    """The inner Newton-CG solve failed; carries the last iterate."""

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


# ---------------------------------------------------------------------------
# staggered energy and operator
# ---------------------------------------------------------------------------


def _cell_weights(spec: WeightSpec, grid: Grid) -> np.ndarray:
    """h^d times the weight at the cell centres."""
    x = grid.axis()
    mid = 0.5 * (x[:-1] + x[1:])
    pts = np.stack(np.meshgrid(*[mid] * grid.dim, indexing="ij"), axis=-1)
    return grid.spacing**grid.dim * eval_weight(spec, pts)


def _pad(x: np.ndarray, axis: int) -> np.ndarray:
    """x with a zero slab added at both ends of `axis`."""
    slab = np.zeros(x.shape[:axis] + (1,) + x.shape[axis + 1:])
    return np.concatenate([slab, x, slab], axis=axis)


def _ends(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """x without its last, and x without its first slice along `axis`."""
    pre = (slice(None),) * axis
    return x[pre + (slice(None, -1),)], x[pre + (slice(1, None),)]


def _pair_mean(x: np.ndarray, axis: int) -> np.ndarray:
    lo, hi = _ends(x, axis)
    return 0.5 * (lo + hi)


def _edge_differences(vals: np.ndarray, h: float) -> list[np.ndarray]:
    """(u[i+1] - u[i])/h along each axis, on that axis's edges."""
    return [np.subtract(*_ends(vals, a)[::-1]) / h for a in range(vals.ndim)]


def _edge_differences_transpose(edges: list[np.ndarray], h: float) -> np.ndarray:
    """Exact adjoint of _edge_differences: minus the difference of the
    zero-padded edge values."""
    return sum(np.subtract(*_ends(_pad(e, a), a)) for a, e in enumerate(edges)) / h


def _to_cells(edge: np.ndarray, axis: int) -> np.ndarray:
    """Mean over a cell's edges along `axis`: pairs along every other axis."""
    for b in range(edge.ndim):
        if b != axis:
            edge = _pair_mean(edge, b)
    return edge


def _to_edges(cell: np.ndarray, axis: int) -> np.ndarray:
    """Exact adjoint of _to_cells."""
    for b in range(cell.ndim):
        if b != axis:
            cell = _pair_mean(_pad(cell, b), b)
    return cell


def _cell_square(diffs: list[np.ndarray]) -> np.ndarray:
    """|grad u|^2 on each cell."""
    return sum(_to_cells(d * d, a) for a, d in enumerate(diffs))


def _energy_value(vals: np.ndarray, h: float, cell_w: np.ndarray, p: float) -> float:
    s = _cell_square(_edge_differences(vals, h))
    return float(np.sum(cell_w * s ** (p / 2.0))) / p


def _energy_gradient(vals: np.ndarray, h: float, cell_w: np.ndarray, p: float) -> np.ndarray:
    """Euclidean gradient of the discrete energy: sum_a D_a^T(k_a D_a u) with
    edge coefficients k_a = A_a^T(cell_w |grad u|^(p-2))."""
    diffs = _edge_differences(vals, h)
    coef = cell_w * _cell_square(diffs) ** ((p - 2.0) / 2.0)
    return _edge_differences_transpose(
        [_to_edges(coef, a) * d for a, d in enumerate(diffs)], h)


def energy(u: GridFunction, spec: WeightSpec, p: float) -> float:
    """(1/p) int |grad u|^p w dx by the staggered cell sum."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    return _energy_value(u.values, u.grid.spacing, _cell_weights(spec, u.grid), p)


def energy_with_source(u: GridFunction, f: GridFunction, spec: WeightSpec, p: float) -> float:
    """Energy minus the weighted source pairing int f u w dx."""
    u._check_same_grid(f)
    metric = _node_metric(spec, u.grid)
    return energy(u, spec, p) - float(np.sum(metric * f.values * u.values))


def apply_operator(u: GridFunction, spec: WeightSpec, p: float) -> GridFunction:
    """Riesz representative of v -> int |grad u|^(p-2) <grad u, grad v> w dx
    in the weighted node inner product (discrete no-flux boundary)."""
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")
    grid = u.grid
    grad = _energy_gradient(u.values, grid.spacing, _cell_weights(spec, grid), p)
    return GridFunction(grid, grad / _node_metric(spec, grid))


# ---------------------------------------------------------------------------
# the Newton-CG solver core
# ---------------------------------------------------------------------------


def _hessian(vals: np.ndarray, h: float, cell_w: np.ndarray, p: float, shift):
    """Matrix-free Hessian of the energy at vals plus diag(shift), |grad u|^2
    raised by 1e-6 of its weighted mean (by 1 if u is constant) to stay definite
    where the gradient vanishes; and, as the Jacobi preconditioner, the diagonal
    of the majorant that bounds its rank-one term by Cauchy-Schwarz (exact in 1d)."""
    diffs = _edge_differences(vals, h)
    s = _cell_square(diffs)
    eps = 1e-6 * float(np.sum(cell_w * s) / np.sum(cell_w)) or 1.0
    q = cell_w * (s + eps) ** ((p - 2.0) / 2.0)
    r = (p - 2.0) * cell_w * (s + eps) ** ((p - 4.0) / 2.0)
    k = [_to_edges(q, a) for a in range(vals.ndim)]

    def apply(v: np.ndarray) -> np.ndarray:
        dv = _edge_differences(v, h)
        t = r * sum(_to_cells(d * e, a) for a, (d, e) in enumerate(zip(diffs, dv)))
        edges = [k[a] * dv[a] + diffs[a] * _to_edges(t, a) for a in range(vals.ndim)]
        return _edge_differences_transpose(edges, h) + shift * v

    bound = [_to_edges(q + r * s, a) for a in range(vals.ndim)]
    diag = sum(2.0 * _pair_mean(_pad(b, a), a) for a, b in enumerate(bound)) / h**2
    return apply, diag + shift


def _pcg(apply, rhs: np.ndarray, diag: np.ndarray, metric: np.ndarray,
         target: float, budget: int) -> tuple[np.ndarray, int, float]:
    """Jacobi-preconditioned CG from zero until the residual's metric norm
    sqrt(sum r^2/metric) is at most target or the budget is spent; returns
    the solution, the iterations and that norm."""
    x, r = np.zeros_like(rhs), rhs.copy()
    d = z = r / diag
    rz, it = np.vdot(r, z), 0
    while (rnorm := math.sqrt(np.vdot(r, r / metric))) > target and it < budget:
        ad = apply(d)
        dad = np.vdot(d, ad)
        if not dad > 0.0:
            break
        x += rz / dad * d
        r -= rz / dad * ad
        z, rz_old, it = r / diag, rz, it + 1
        rz = np.vdot(r, z)
        d = z + rz / rz_old * d
    return x, it, rnorm


def _minimize(anchor: np.ndarray, grid: Grid, metric: np.ndarray, cell_w: np.ndarray,
              p: float, settings: SolverSettings, tau: float = math.inf,
              source: np.ndarray | float = 0.0, start: np.ndarray | None = None):
    """Damped Newton on (1/(2 tau)) ||v - anchor||^2 + E(v) - <source, v> (norm
    and pairing in the metric) from start (default: the anchor); returns the
    minimizer and the CG iterations.  Without the proximal term (tau = inf)
    constants are free, so the iterate is kept metric-mean-zero.

    The first Newton system is solved to a tenth of the tolerance (a quadratic
    takes one step), later ones as far as the last model missed the new
    gradient (Eisenstat-Walker); an inexact step that does not lower the
    gradient norm is redone exactly.  Steps backtrack on the true objective
    with a round-off allowance, since near the minimizer the decrease drops
    below one ulp.  The solve has stalled, and raises at once, if no step is
    found or an exact one lowers neither the objective nor the gradient norm.
    """
    h, shift, pull = grid.spacing, metric / tau, metric * source
    project = math.isinf(tau)
    metric_total = float(np.sum(metric))

    def evaluate(v: np.ndarray) -> tuple[float, np.ndarray, float]:
        """Objective, Euclidean gradient and the gradient's metric norm."""
        d = v - anchor
        obj = _energy_value(v, h, cell_w, p) + 0.5 * np.vdot(shift * d, d) - np.vdot(pull, v)
        g = _energy_gradient(v, h, cell_w, p) + shift * d - pull
        if project:
            g -= metric * (np.sum(g) / metric_total)
        return obj, g, math.sqrt(np.vdot(g, g / metric))

    def failure(what: str) -> ProxConvergenceError:
        return ProxConvergenceError(f"{what} (gradient norm {gnorm:.3e})",
                                    GridFunction(grid, v), gnorm)

    v = anchor if start is None else start
    v = v - np.vdot(metric, v) / metric_total if project else v
    obj, g, gnorm = evaluate(v)
    spent, forcing = 0, 0.0
    while gnorm > settings.tolerance:
        if spent == settings.max_iterations:
            raise failure(f"Newton-CG did not reach tolerance {settings.tolerance:g} "
                          f"in {spent} iterations")
        apply, diag = _hessian(v, h, cell_w, p, shift)
        step, its, model_gnorm = _pcg(apply, -g, diag, metric,
                                      max(0.1 * settings.tolerance, forcing * gnorm),
                                      settings.max_iterations - spent)
        spent += its
        if project:
            step -= np.vdot(metric, step) / metric_total
        alpha, slope = 1.0, np.vdot(g, step)
        for _ in range(60):
            trial = v + alpha * step
            trial_obj, trial_g, trial_gnorm = evaluate(trial)
            allowance = 4.0 * np.finfo(float).eps * (abs(obj) + abs(trial_obj))
            if trial_obj <= obj + _SUFFICIENT_DECREASE * alpha * slope + allowance:
                break
            alpha *= _SHRINK
        else:
            raise failure(f"line search stalled at iteration {spent}")
        if trial_gnorm >= gnorm and forcing > 0.0:
            forcing = 0.0
            continue
        if trial_gnorm >= gnorm and trial_obj >= obj:
            raise failure(f"line search stalled at iteration {spent}")
        model_gnorm = (1.0 - alpha) * gnorm + alpha * model_gnorm
        forcing = min(0.5, abs(trial_gnorm - model_gnorm) / gnorm)
        v, obj, g, gnorm = trial, trial_obj, trial_g, trial_gnorm
    return v, spent


def _problem_masses(problem: EvolutionProblem) -> tuple[np.ndarray, np.ndarray]:
    """The flow's node metric and the energy's cell weights."""
    grid = problem.u0.grid
    weighted = problem.dualization == "weighted"
    metric = _node_metric(problem.spec, grid) if weighted else _mass_weights(grid)
    return metric, _cell_weights(problem.spec, grid)


def prox_step(u_prev: GridFunction, problem: EvolutionProblem) -> GridFunction:
    """One implicit-Euler step: the minimizer of the proximal objective."""
    u_prev._check_same_grid(problem.u0)
    out, _ = _minimize(u_prev.values, u_prev.grid, *_problem_masses(problem), problem.p,
                       problem.settings, problem.step)
    return GridFunction(u_prev.grid, out)


def _solve(problem: EvolutionProblem) -> Trajectory:
    grid, p = problem.u0.grid, problem.p
    metric, cell_w = _problem_masses(problem)
    n_steps = int(math.ceil(problem.horizon / problem.step - 1e-12))
    vals = prev = problem.u0.values
    traj = Trajectory([0.0], [problem.u0.copy()], [], [], [])
    for k in range(n_steps + 1):
        if k:  # Newton starts from the linear extrapolation of the last two states
            (vals, iters), prev = _minimize(vals, grid, metric, cell_w, p, problem.settings,
                                            problem.step, start=2 * vals - prev), vals
            traj.times.append(k * problem.step)
            traj.states.append(GridFunction(grid, vals.copy()))
            traj.step_iterations.append(iters)
        traj.energies.append(_energy_value(vals, grid.spacing, cell_w, p))
        traj.means.append(float(np.sum(metric * vals)) / float(np.sum(metric)))
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
    logw = spec.exponent(grid.points())
    vals = np.exp(np.minimum(s * logw, 700.0))  # cap just below overflow
    c = (grid.nodes_per_axis - 1) // 2
    masses = []
    radii = []
    for kq in (1, 2, 3, 4):
        k = (c * kq) // 4
        sub_w = tensor_weights(trapezoid_weights(2 * k + 1, grid.spacing), grid.dim)
        masses.append(float(np.sum(vals[(slice(c - k, c + k + 1),) * grid.dim] * sub_w)))
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
        return {"residual": self.residual, "iterations": self.iterations,
                "objective": self.objective}


def solve_stationary(f: GridFunction, spec: WeightSpec, p: float,
                     settings: SolverSettings = SolverSettings(),
                     compatibility_tol: float = 1e-6) -> StationaryResult:
    """Minimize the source-perturbed energy over mean-zero grid functions.

    The natural (no-flux) boundary leaves constants in the operator's
    kernel, so the source must be compatible: its weighted mean has to
    vanish (within tolerance, relative to the source's size), and the
    solution is pinned down by the mean-zero constraint.
    """
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")
    grid = f.grid
    if spec.dim != grid.dim:
        raise ValueError("weight and source dimensions differ")
    metric = _node_metric(spec, grid)
    metric_total = float(np.sum(metric))
    f_mean = float(np.sum(metric * f.values)) / metric_total
    scale = max(float(np.max(np.abs(f.values))), 1.0)
    if abs(f_mean) > compatibility_tol * scale:
        raise ValueError(
            f"incompatible source: weighted mean {f_mean:.3e} exceeds "
            f"{compatibility_tol:g} * max|f|"
        )
    source = f.values - f_mean
    cell_w = _cell_weights(spec, grid)
    out, iters = _minimize(np.zeros(grid.shape), grid, metric, cell_w, p, settings,
                           source=source)
    op = _energy_gradient(out, grid.spacing, cell_w, p) / metric
    res = math.sqrt(float(np.sum(metric * (op - source) ** 2)))
    obj = _energy_value(out, grid.spacing, cell_w, p) - float(np.sum(metric * source * out))
    return StationaryResult(GridFunction(grid, out), res, iters, obj)

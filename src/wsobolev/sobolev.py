"""Weighted Sobolev norms, gradient identities, and smooth approximation.

The central residuals check, by quadrature, the two identities that tie a
discrete gradient to the weight: the integration-by-parts identity against
the full weight (with the logarithmic drift absorbing the weight's
derivative) and the product-rule identity at the level of the weight's p-th
root.  Both vanish in the continuum for true gradients, so their decay under
grid refinement is the consistency certificate for discrete_gradient.

smooth_approximation measures how fast mollification converges in the
weighted Sobolev norm; hedberg_constant and maximal_bound_check probe the
two maximal-function inequalities that power the approximation argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    GridFunction,
    discrete_gradient,
    gradient_magnitude,
    maximal_function,
    mollify,
    quadrature,
)
from .weights import WeightSpec, drift_on_grid, root_on_grid, weight_on_grid

__all__ = [
    "lebesgue_norm",
    "gradient_lebesgue_norm",
    "sobolev_norm",
    "ibp_residual",
    "product_rule_residual",
    "ApproximationStep",
    "ApproximationReport",
    "smooth_approximation",
    "HedbergReport",
    "hedberg_constant",
    "maximal_bound_check",
]


def lebesgue_norm(f: GridFunction, weight: GridFunction | None, p: float) -> float:
    """(integral of |f|^p against the weight)^(1/p)."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    val = quadrature(GridFunction(f.grid, np.abs(f.values) ** p), weight)
    return max(val, 0.0) ** (1.0 / p)


def gradient_lebesgue_norm(
    grads: Sequence[GridFunction], weight: GridFunction | None, p: float
) -> float:
    """L^p norm of the gradient magnitude against the weight."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    grid = grads[0].grid
    mag = gradient_magnitude(grads)
    val = quadrature(GridFunction(grid, mag**p), weight)
    return max(val, 0.0) ** (1.0 / p)


def sobolev_norm(
    f: GridFunction,
    grads: Sequence[GridFunction],
    weight: GridFunction | None,
    p: float,
) -> float:
    """First-order weighted Sobolev norm (grad term and plain term combined
    with exponent p)."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    a = lebesgue_norm(f, weight, p)
    b = gradient_lebesgue_norm(grads, weight, p)
    return (a**p + b**p) ** (1.0 / p)


def _require_compact(eta: GridFunction, name: str) -> None:
    r = eta.compact_support_radius
    if r is None or r >= eta.grid.half_width:
        raise ValueError(f"{name} must be compactly supported inside the box")


def ibp_residual(
    f: GridFunction,
    grads: Sequence[GridFunction],
    eta: GridFunction,
    spec: WeightSpec,
    axis: int,
    p: float = 2.0,
) -> float:
    """Integration-by-parts residual against the full weight.

    Quadrature of (d_i f)*eta*w + f*(d_i eta)*w + f*eta*drift_i*w; zero in
    the continuum whenever grads is the true gradient of f.  The identity is
    the same for every p (the weight enters at full power); p is kept for
    reporting symmetry with the root-level residual.
    """
    if p <= 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    _require_compact(eta, "eta")
    w = weight_on_grid(spec, f.grid)
    drift = drift_on_grid(spec, f.grid)[axis]
    grad_eta = discrete_gradient(eta)[axis]
    integrand = (
        grads[axis].values * eta.values
        + f.values * grad_eta.values
        + f.values * eta.values * drift.values
    )
    return quadrature(GridFunction(f.grid, integrand), w)


def product_rule_residual(
    f: GridFunction,
    grads: Sequence[GridFunction],
    zeta: GridFunction,
    spec: WeightSpec,
    axis: int,
    p: float,
) -> float:
    """Product-rule residual at the level of the weight's p-th root.

    Quadrature of (d_i f)*zeta*root + f*(d_i zeta)*root + f*zeta*(d_i root),
    with d_i root evaluated in closed form as root*drift_i/p.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    _require_compact(zeta, "zeta")
    root = root_on_grid(spec, f.grid, p)
    drift = drift_on_grid(spec, f.grid)[axis]
    grad_zeta = discrete_gradient(zeta)[axis]
    integrand = root.values * (
        grads[axis].values * zeta.values
        + f.values * grad_zeta.values
        + f.values * zeta.values * drift.values / p
    )
    return quadrature(GridFunction(f.grid, integrand))


# ---------------------------------------------------------------------------
# smooth approximation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproximationStep:
    eps: float
    lp_error: float
    grad_lp_error: float
    sobolev_error: float


@dataclass(frozen=True)
class ApproximationReport:
    """Per-scale mollification errors in the weighted Sobolev norm."""

    p: float
    steps: tuple[ApproximationStep, ...]
    base_norm: float
    final_relative_error: float
    tol: float
    passed: bool
    # Bookkeeping for the p = 1 branch: the approximation argument needs the
    # weight root's gradient locally bounded, which holds for every catalog
    # weight (root and drift are continuous).
    grad_root_locally_bounded: bool

    def to_csv(self) -> str:
        lines = ["eps,lp_error,grad_lp_error,sobolev_error"]
        for s in self.steps:
            lines.append(
                f"{s.eps:.12g},{s.lp_error:.12g},{s.grad_lp_error:.12g},{s.sobolev_error:.12g}"
            )
        return "\n".join(lines) + "\n"


def smooth_approximation(
    f: GridFunction,
    spec: WeightSpec,
    p: float,
    eps_schedule: Sequence[float],
    tol: float = 1e-2,
) -> ApproximationReport:
    """Mollify f at each scale of a decreasing schedule and measure the
    weighted Sobolev error; passes when the final relative error meets tol.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    schedule = [float(e) for e in eps_schedule]
    if not schedule:
        raise ValueError("eps schedule is empty")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"eps schedule must be strictly decreasing, got {schedule}")
    if f.compact_support_radius is None:
        raise ValueError("f must declare a compact support radius")
    if f.compact_support_radius + max(schedule) >= f.grid.half_width:
        raise ValueError("support plus largest eps reaches the box boundary")
    w = weight_on_grid(spec, f.grid)
    grads_f = discrete_gradient(f)
    base = sobolev_norm(f, grads_f, w, p)
    steps = []
    for eps in schedule:
        g = mollify(f, eps)
        grads_g = discrete_gradient(g)
        diff = g - f
        grad_diff = [a - b for a, b in zip(grads_g, grads_f)]
        lp = lebesgue_norm(diff, w, p)
        grad_lp = gradient_lebesgue_norm(grad_diff, w, p)
        steps.append(
            ApproximationStep(eps, lp, grad_lp, (lp**p + grad_lp**p) ** (1.0 / p))
        )
    rel = steps[-1].sobolev_error / base if base > 0.0 else 0.0
    return ApproximationReport(
        p=p,
        steps=tuple(steps),
        base_norm=base,
        final_relative_error=rel,
        tol=tol,
        passed=rel <= tol,
        grad_root_locally_bounded=True,
    )


# ---------------------------------------------------------------------------
# maximal-function diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HedbergReport:
    """Empirical constant in the two-point gradient bound
    |u(x) - u(y)| <= c * |x - y| * (M|grad u|(x) + M|grad u|(y))."""

    constant: float
    pairs_used: int
    pairs_skipped: int
    seed: int | None


def _flat_index(grid, idx) -> int:
    """Flat node number of a node index (an int is accepted in 1d)."""
    return int(np.ravel_multi_index(tuple(int(v) for v in np.atleast_1d(idx)), grid.shape))


def hedberg_constant(
    u: GridFunction,
    grads: Sequence[GridFunction] | None = None,
    pairs: Sequence[tuple] | None = None,
    n_pairs: int = 200,
    seed: int = 42,
) -> HedbergReport:
    """Max over node pairs of |u(x)-u(y)| / (|x-y| (M|grad u|(x)+M|grad u|(y))).

    Pairs with a zero denominator (or coincident nodes) are skipped.  When no
    explicit pairs are given, n_pairs node pairs are drawn with the recorded
    seed.
    """
    grid = u.grid
    if grads is None:
        grads = discrete_gradient(u)
    m = maximal_function(GridFunction(grid, gradient_magnitude(grads))).values.ravel()
    pts = grid.points().reshape(-1, grid.dim)
    vals = u.values.ravel()
    if pairs is None:
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, pts.shape[0], size=(n_pairs, 2))
        flat_pairs = [(int(a), int(b)) for a, b in raw]
        used_seed: int | None = seed
    else:
        flat_pairs = [(_flat_index(grid, a), _flat_index(grid, b)) for a, b in pairs]
        used_seed = None
    best = 0.0
    used = skipped = 0
    for ia, ib in flat_pairs:
        dist = float(np.linalg.norm(pts[ia] - pts[ib]))
        denom = dist * (m[ia] + m[ib])
        if denom <= 0.0:
            skipped += 1
            continue
        used += 1
        best = max(best, abs(vals[ia] - vals[ib]) / denom)
    return HedbergReport(best, used, skipped, used_seed)


def maximal_bound_check(u: GridFunction, p: float) -> float:
    """Ratio of the maximal function's L^p norm (plain measure) to u's."""
    if p <= 1.0:
        raise ValueError(f"the maximal bound needs p > 1, got {p}")
    denom = lebesgue_norm(u, None, p)
    if denom <= 0.0:
        raise ValueError("u has zero norm")
    return lebesgue_norm(maximal_function(u), None, p) / denom

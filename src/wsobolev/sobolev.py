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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    GridFunction,
    discrete_gradient,
    gradient_magnitude,
    maximal_at,
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
    return lebesgue_norm(GridFunction(grads[0].grid, gradient_magnitude(grads)), weight, p)


def sobolev_norm(
    f: GridFunction,
    grads: Sequence[GridFunction],
    weight: GridFunction | None,
    p: float,
) -> float:
    """First-order weighted Sobolev norm (grad term and plain term combined
    with exponent p)."""
    a = lebesgue_norm(f, weight, p)
    b = gradient_lebesgue_norm(grads, weight, p)
    return (a**p + b**p) ** (1.0 / p)


def ibp_residual(
    f: GridFunction,
    grads: Sequence[GridFunction],
    eta: GridFunction,
    spec: WeightSpec,
    axis: int,
) -> float:
    """Integration-by-parts residual against the full weight.

    Quadrature of (d_i f)*eta*w + f*(d_i eta)*w + f*eta*drift_i*w; zero in
    the continuum whenever grads is the true gradient of f.  It is the
    product-rule residual at p = 1, where the weight's root is the weight.
    """
    return product_rule_residual(f, grads, eta, spec, axis, 1.0)


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
    r = zeta.compact_support_radius
    if r is None or r >= zeta.grid.half_width:
        raise ValueError("the test function must be compactly supported inside the box")
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


# the relative weighted Sobolev error the finest scale must reach
_TOL = 1e-2


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


def smooth_approximation(
    f: GridFunction,
    spec: WeightSpec,
    p: float,
    eps_schedule: Sequence[float],
) -> ApproximationReport:
    """Mollify f at each scale of a decreasing schedule and measure the
    weighted Sobolev error; passes when the final relative error is at most
    _TOL.
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
        tol=_TOL,
        passed=rel <= _TOL,
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
    seed: int


# the node pairs hedberg_constant draws, and the seed it draws them with
_HEDBERG_PAIRS = 200
_HEDBERG_SEED = 42


def hedberg_constant(u: GridFunction) -> HedbergReport:
    """Max over node pairs of |u(x)-u(y)| / (|x-y| (M|grad u|(x)+M|grad u|(y))).

    The pairs are drawn with a fixed seed, recorded in the report; pairs
    with a zero denominator (or coincident nodes) are skipped.  M|grad u| is evaluated
    at the drawn nodes only.
    """
    grid = u.grid
    mag = GridFunction(grid, gradient_magnitude(discrete_gradient(u)))
    pairs = np.random.default_rng(_HEDBERG_SEED).integers(
        0, u.values.size, size=(_HEDBERG_PAIRS, 2))
    m = maximal_at(mag, pairs)
    pts = grid.points().reshape(-1, grid.dim)[pairs]
    vals = u.values.ravel()[pairs]
    denom = np.linalg.norm(pts[:, 0] - pts[:, 1], axis=-1) * (m[:, 0] + m[:, 1])
    used = ~(denom <= 0.0)  # a NaN denominator is not <= 0, so its pair counts as used
    ratios = np.abs(vals[used, 0] - vals[used, 1]) / denom[used]
    # fmax skips NaN ratios: they never raise the maximum
    best = np.fmax.reduce(ratios, initial=0.0)
    n_used = int(used.sum())
    return HedbergReport(best, n_used, _HEDBERG_PAIRS - n_used, _HEDBERG_SEED)


def maximal_bound_check(u: GridFunction, p: float) -> float:
    """Ratio of the maximal function's L^p norm (plain measure) to u's."""
    if p <= 1.0:
        raise ValueError(f"the maximal bound needs p > 1, got {p}")
    denom = lebesgue_norm(u, None, p)
    if denom <= 0.0:
        raise ValueError("u has zero norm")
    return lebesgue_norm(maximal_function(u), None, p) / denom

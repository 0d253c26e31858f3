"""Gradient identities, smooth approximation, and maximal-function diagnostics.

The central residuals check, by quadrature, the two identities that tie a
discrete gradient to the weight: the integration-by-parts identity against
the full weight (with the logarithmic drift absorbing the weight's
derivative) and the product-rule identity at the level of the weight's p-th
root.  Both vanish in the continuum for true gradients, so their decay under
grid refinement is the consistency certificate for discrete_gradient.

smooth_approximation measures how fast mollification converges in the
weighted Sobolev norm; hedberg_constant and maximal_bound_check probe the
two maximal-function inequalities that power the approximation argument.
The module has no norm functions of its own: each weighted integral is one
grid.integrate call on node arrays.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from ._record import Record
from .grid import (
    GridFunction,
    axis_derivatives,
    gradient_magnitude,
    integrate,
    maximal_at,
    maximal_function,
    mollify,
    segment_weights,
    squared_norm,
)
from .weights import WeightSpec, eval_log_drift, root_on_grid, weight_on_grid

__all__ = [
    "ibp_residual",
    "product_rule_residual",
    "ApproximationStep",
    "ApproximationReport",
    "smooth_approximation",
    "HedbergReport",
    "hedberg_constant",
    "maximal_bound_check",
]


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
    drift = eval_log_drift(spec, f.grid.coordinates())[axis]
    grad_zeta = axis_derivatives(zeta.values, zeta.grid)[axis]
    integrand = root.values * (
        grads[axis].values * zeta.values
        + f.values * grad_zeta
        + f.values * zeta.values * drift / p
    )
    return integrate(integrand, f.grid.spacing, segment_weights)


# ---------------------------------------------------------------------------
# smooth approximation
# ---------------------------------------------------------------------------


# the relative weighted Sobolev error the finest scale must reach
_TOL = 1e-2


class ApproximationStep(Record):
    eps: float
    lp_error: float
    grad_lp_error: float
    sobolev_error: float


class ApproximationReport(Record):
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
    # the weight first: one that overflows is the error, before any mollify
    w = weight_on_grid(spec, f.grid).values
    h = f.grid.spacing

    def norm(values: np.ndarray) -> float:
        """(integral of |values|^p against the weight)^(1/p)."""
        return max(integrate(np.abs(values) ** p * w, h, segment_weights), 0.0) ** (1.0 / p)

    grads_f = axis_derivatives(f.values, f.grid)
    base = (norm(f.values) ** p + norm(gradient_magnitude(grads_f)) ** p) ** (1.0 / p)
    steps = []
    for eps in schedule:
        g = mollify(f, eps).values
        lp = norm(g - f.values)
        grad_lp = norm(gradient_magnitude(
            [a - b for a, b in zip(axis_derivatives(g, f.grid), grads_f)]))
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


class HedbergReport(Record):
    """Empirical constant in the two-point gradient bound
    |u(x) - u(y)| <= c * |x - y| * (M|grad u|(x) + M|grad u|(y))."""

    constant: float
    pairs_used: int
    pairs_skipped: int
    seed: int


# the node pairs hedberg_constant draws, and the seed it draws them with
_HEDBERG_PAIRS = 200
_HEDBERG_SEED = 42


def _hedberg_pairs(size: int) -> np.ndarray:
    """(_HEDBERG_PAIRS, 2) flat indices of distinct nodes among `size`, the
    same for every call.

    One vectorised draw of floats U from `random.Random(_HEDBERG_SEED)`,
    whose `random()` sequence Python keeps across versions: i = floor(U0 size)
    and j = (i + 1 + floor(U1 (size - 1))) mod size, so j never equals i.
    """
    draw = random.Random(_HEDBERG_SEED).random
    u = np.fromiter(iter(draw, None), float, 2 * _HEDBERG_PAIRS).reshape(-1, 2)
    i = (u[:, 0] * size).astype(np.intp)
    j = (i + 1 + (u[:, 1] * (size - 1)).astype(np.intp)) % size
    return np.stack([i, j], axis=1)


def hedberg_constant(u: GridFunction) -> HedbergReport:
    """Max over node pairs of |u(x)-u(y)| / (|x-y| (M|grad u|(x)+M|grad u|(y))).

    The pairs are distinct nodes drawn from `random.Random(seed)`, the seed
    recorded in the report; pairs with a zero denominator are skipped.
    M|grad u| is evaluated at the drawn nodes only.
    """
    grid = u.grid
    mag = GridFunction(grid, gradient_magnitude(axis_derivatives(u.values, grid)))
    pairs = _hedberg_pairs(u.values.size)
    m = maximal_at(mag, pairs)
    x = grid.axis()
    steps = [x[i[:, 0]] - x[i[:, 1]] for i in np.unravel_index(pairs, grid.shape)]
    vals = u.values.ravel()[pairs]
    denom = np.sqrt(squared_norm(steps)) * (m[:, 0] + m[:, 1])
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
    h = u.grid.spacing
    denom = integrate(np.abs(u.values) ** p, h, segment_weights)
    if denom <= 0.0:
        raise ValueError("u has zero norm")
    num = integrate(np.abs(maximal_function(u).values) ** p, h, segment_weights)
    return num ** (1.0 / p) / denom ** (1.0 / p)

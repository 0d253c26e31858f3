"""Exact solutions as oracles for the solvers, at every p >= 2.

A linear state has a constant gradient, so the weighted p-Laplacian of
u = x_1 is the weight's drift: div(w |grad u|^(p-2) grad u)/w = d_1 log w,
for every catalog weight, every p and every dimension.  So the stationary
problem with source f = -d_1 log w (`eval_log_drift`) is solved exactly by
x_1 minus its metric mean, and the discrete solution's error against it is
the space discretization's alone.

Each case asserts a size and an order: the relative L^2(w) error (node
metric) on each grid is at most 1.5 times the value measured when the test
was written, and the observed order between consecutive grids is in
[1.8, 2.2].  A defect that keeps one grid's error small still changes the
order.
"""

import math

import numpy as np
import pytest

from wsobolev.grid import GridFunction, build_grid
from wsobolev.pde import _node_metric, solve_stationary
from wsobolev.weights import CosineTerm, PotentialExpr, PowerAbsTerm, WeightSpec, eval_log_drift

HALF_WIDTH = 6.0


def gaussian(dim):
    return WeightSpec(1.0, 2.0, dim)


def catalog(dim):
    """beta = 1.2, q = 2, W = 0.05 |x|^1.5, V = 0.3 cos(1.5 x + 0.5 y) (no y in 1d)."""
    return WeightSpec(1.2, 2.0, dim, W=PotentialExpr((PowerAbsTerm(0.05, 1.5),)),
                      V=PotentialExpr((CosineTerm(0.3, (1.5, 0.5)[:dim]),)))


# (weight, dim, p, {nodes per axis: relative L^2(w) error measured})
STATIONARY = [
    (gaussian, 1, 2.0, {101: 9.80e-4, 301: 1.09e-4, 601: 2.72e-5}),
    (gaussian, 1, 3.0, {101: 4.90e-4, 301: 5.44e-5, 601: 1.36e-5}),
    (gaussian, 1, 4.0, {101: 3.27e-4, 301: 3.63e-5, 601: 9.07e-6}),
    (gaussian, 2, 2.0, {41: 1.18e-2, 81: 3.03e-3}),
    (gaussian, 2, 3.0, {41: 8.36e-3, 81: 2.12e-3}),
    (gaussian, 2, 4.0, {41: 6.64e-3, 81: 1.67e-3}),
    (catalog, 1, 2.0, {101: 9.90e-4, 301: 1.10e-4}),
    (catalog, 1, 3.0, {101: 4.96e-4, 301: 5.51e-5}),
    (catalog, 2, 2.0, {41: 1.26e-2, 81: 3.25e-3}),
    (catalog, 2, 3.0, {41: 9.19e-3, 81: 2.34e-3}),
]


def stationary_error(spec, n, p):
    """Relative L^2(w) error of the stationary solve with source -d_1 log w
    against x_1 minus its metric mean."""
    grid = build_grid(spec.dim, HALF_WIDTH, n)
    x = np.broadcast_arrays(*grid.coordinates())
    state = solve_stationary(GridFunction(grid, -eval_log_drift(spec, x)[0]), spec, p).state
    metric = _node_metric(spec, grid)
    exact = x[0] - np.sum(metric * x[0]) / np.sum(metric)
    return math.sqrt(np.sum(metric * (state.values - exact) ** 2) / np.sum(metric * exact**2))


@pytest.mark.parametrize("weight,dim,p,measured", STATIONARY,
                         ids=[f"{w.__name__}-{d}d-p{p:g}" for w, d, p, _ in STATIONARY])
def test_stationary_linear_state_is_exact(weight, dim, p, measured):
    errors = {n: stationary_error(weight(dim), n, p) for n in measured}
    for n, err in errors.items():
        assert err <= 1.5 * measured[n], f"n = {n}"
    (n0, e0), *rest = errors.items()
    for n1, e1 in rest:
        # h = 2R/(n - 1), so the order is log(e0/e1) / log((n1 - 1)/(n0 - 1))
        order = math.log(e0 / e1) / math.log((n1 - 1) / (n0 - 1))
        assert 1.8 <= order <= 2.2, f"order {order:.3f} between n = {n0} and {n1}"
        n0, e0 = n1, e1

"""Properties the maths guarantees for the discrete estimators, over random
catalog weights exp(-beta |x|^q - c cos(<k, x>)) in 1d and 2d.

beta is capped so that beta (R sqrt(d))^q <= 150: the weight stays far above
underflow on the whole box, so no node is zero and every reciprocal power is
finite.  Two properties one might expect are not here, because they are false
for these estimators: a doubling ratio can fall below 1 when the weight is
under-resolved, and Mf >= |f| fails at a node of a sharp peak, because the
radius lattice starts at h and never averages over the node alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wsobolev.grid import (
    Grid,
    GridFunction,
    _mollifier_taps,
    bump_profile,
    integrate,
    maximal_at,
    maximal_function,
    mollify,
    quadrature_rows,
    segment_weights,
    squared_norm,
    trapezoid_weights,
)
from wsobolev.inequalities import build_constant_chain, poincare_bound
from wsobolev.weights import (
    Ball,
    CosineTerm,
    PotentialExpr,
    PowerAbsTerm,
    QuadraticTerm,
    WeightSpec,
    estimate_muckenhoupt,
    eval_log_drift,
    eval_weight,
    eval_weight_root,
    weight_on_grid,
)

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def catalog_specs(draw):
    """A catalog weight with a cosine V and a grid, in 1d or 2d."""
    dim = draw(st.sampled_from([1, 2]))
    R = draw(st.floats(1.0, 6.0))
    n = draw(st.sampled_from([21, 41, 61, 101] if dim == 1 else [11, 21, 31, 41]))
    q = draw(st.floats(1.2, 3.0))
    beta = draw(st.floats(0.01, 1.0)) * min(3.0, 150.0 / (R * math.sqrt(dim)) ** q)
    cosine = CosineTerm(draw(st.floats(-2.0, 2.0)),
                        tuple(draw(st.floats(-5.0, 5.0)) for _ in range(dim)))
    return WeightSpec(beta, q, dim, V=PotentialExpr((cosine,))), Grid(dim, R, n)


def catalog_weights():
    """A catalog_specs weight's field on its grid."""
    return catalog_specs().map(lambda spec_grid: weight_on_grid(*spec_grid))


@PROPERTY
@given(w=catalog_weights(), p=st.floats(1.5, 4.0), data=st.data())
def test_muckenhoupt_products_are_at_least_one(w, p, data):
    # Jensen: avg(w) avg(w^(-1/(p-1)))^(p-1) >= 1 on every ball
    grid = w.grid
    m = grid.nodes_per_axis
    balls = []
    for _ in range(3):
        center = [grid.axis()[data.draw(st.integers(0, m - 1))] for _ in range(grid.dim)]
        balls.append(Ball.of(center, grid.spacing * data.draw(st.integers(1, (m - 1) // 2))))
    values = [e.value for e in estimate_muckenhoupt(w, p, balls).entries if e.value is not None]
    assert all(v >= 1.0 - 1e-12 for v in values)


@PROPERTY
@given(spec_grid=catalog_specs(), p=st.floats(1.5, 4.0))
def test_chain_chooses_the_smallest_constant(spec_grid, p):
    # poincare_bound holds for every L > D'; the chain's L beats a spread of them
    spec = spec_grid[0]
    chain = build_constant_chain(spec, p, C4=1.0, eps0=1.0 / p)
    assert chain.L > chain.D_prime
    for k in range(13):
        L = chain.D_prime * (1.0 + 2.0**k / 64.0)
        log_c = poincare_bound(spec, p, chain.C_prime, chain.D_prime, L, C4=1.0)[2]
        assert chain.log_c <= log_c + 1e-12 * abs(log_c)


@PROPERTY
@given(w=catalog_weights(), seed=st.integers(0, 2**32 - 1))
def test_maximal_function_is_sublinear(w, seed):
    g = GridFunction(w.grid, np.random.default_rng(seed).standard_normal(w.grid.shape))
    bound = maximal_function(w).values + maximal_function(g).values
    total = maximal_function(GridFunction(w.grid, w.values + g.values)).values
    assert np.max(total - bound) <= 1e-12 * np.max(bound)


def _brute_force_maximal(values: np.ndarray) -> np.ndarray:
    """max over k = 1..(n-1)/2 of the mean |f| over the nodes within k of
    each node along every axis, the window clipped to the box."""
    n = values.shape[0]
    out = np.zeros(values.shape)
    for node in np.ndindex(values.shape):
        for k in range(1, (n - 1) // 2 + 1):
            box = tuple(slice(max(i - k, 0), min(i + k, n - 1) + 1) for i in node)
            out[node] = max(out[node], np.mean(np.abs(values[box])))
    return out


@PROPERTY
@given(dim=st.sampled_from([1, 2]), n=st.sampled_from([3, 5, 7, 9, 11, 13, 15]),
       seed=st.integers(0, 2**32 - 1))
def test_maximal_function_is_the_largest_clipped_box_mean(dim, n, seed):
    values = np.random.default_rng(seed).uniform(-10.0, 10.0, (n,) * dim)
    got = maximal_function(GridFunction(Grid(dim, 1.0, n), values)).values
    # a summed-area difference is exact to rounding of the table's totals, so
    # small means next to large values carry an absolute error
    np.testing.assert_allclose(got, _brute_force_maximal(values), rtol=1e-12,
                               atol=1e-12 * np.abs(values).max())



@PROPERTY
@given(w=catalog_weights(), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 300))
def test_maximal_at_equals_maximal_function_at_those_nodes(w, seed, k):
    nodes = np.random.default_rng(seed).integers(0, w.values.size, size=(k, 2))
    got = maximal_at(w, nodes)
    assert got.shape == nodes.shape
    assert np.array_equal(got, maximal_function(w).values.ravel()[nodes])


@PROPERTY
@given(dim=st.sampled_from([1, 2]), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_quadrature_rows_equal_each_rows_own_integral(dim, m, seed, data):
    # n = 4k + 1 takes the every-other-node Simpson estimate, other odd n
    # the trapezoid one; both must give each row its own bits
    n = data.draw(st.sampled_from([5, 9, 21, 41, 101] if dim == 1 else [5, 9, 21, 41])
                  | st.sampled_from([3, 7, 11, 23, 103] if dim == 1 else [3, 7, 11, 23]))
    grid = Grid(dim, data.draw(st.floats(0.5, 8.0)), n)
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.uniform(-20.0, 20.0, (m,) + (1,) * dim))
    values = rng.standard_normal((m,) + grid.shape) * scales
    fine, err = quadrature_rows(values, grid)
    h = grid.spacing
    for i, row in enumerate(values):
        (single_fine,), (single_err,) = quadrature_rows(row[None], grid)
        want = integrate(row, h, segment_weights)
        if (n - 1) % 4 == 0:
            coarse = integrate(row[(slice(None, None, 2),) * dim], 2.0 * h, segment_weights)
        else:
            coarse = integrate(row, h, trapezoid_weights)
        assert (fine[i], err[i]) == (single_fine, single_err) == (want, abs(want - coarse))


@PROPERTY
@given(w=catalog_weights(), radius=st.floats(1.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_mollifier_has_unit_mass_and_contracts(w, radius, seed):
    eps = radius * w.grid.spacing
    assert _mollifier_taps(w.grid, eps).sum() == pytest.approx(1.0, abs=1e-12)
    g = GridFunction(w.grid, np.random.default_rng(seed).standard_normal(w.grid.shape))
    for f in (w, g):
        sup = np.max(np.abs(f.values))
        assert np.max(np.abs(mollify(f, eps).values)) <= sup * (1.0 + 1e-12)


# every float64 but NaN: huge, subnormal, signed zero and infinite coordinates
ANY_FLOAT = st.floats(allow_nan=False, allow_subnormal=True)


@PROPERTY
@given(data=st.data(), dim=st.sampled_from([1, 2]))
def test_norms_are_the_trailing_axis_sum_bit_for_bit(data, dim):
    lead = data.draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=5))
    pts = data.draw(hnp.arrays(np.float64, lead + (dim,), elements=ANY_FLOAT))
    c = data.draw(ANY_FLOAT)
    x = np.moveaxis(pts, -1, 0)  # one array per axis
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sq = np.sum(pts * pts, axis=-1)
        assert squared_norm(x).tobytes() == sq.tobytes()
        assert PowerAbsTerm(1.0, 1.0).value(x).tobytes() == np.sqrt(sq).tobytes()
        assert QuadraticTerm(c).value(x).tobytes() == (c * sq).tobytes()


@PROPERTY
@given(dim=st.sampled_from([1, 2]), n=st.sampled_from([3, 5, 11, 41, 101]),
       half_width=st.floats(min_value=5e-324, allow_infinity=False, allow_subnormal=True),
       radius=st.floats(1.0, 6.0))
def test_node_radii_are_the_meshgrid_sum_bit_for_bit(dim, n, half_width, radius):
    # a half-width whose spacing is subnormal, zero or infinite makes no grid
    if not np.finfo(float).smallest_normal <= 2.0 * half_width / (n - 1) < math.inf:
        with pytest.raises(ValueError, match="^half_width: the node spacing .* is not a "
                                             "positive normal float$"):
            Grid(dim, half_width, n)
        return
    grid = Grid(dim, half_width, n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = np.sqrt(sum(m * m for m in np.broadcast_arrays(*grid.coordinates())))
        got = grid.node_radii()
    assert got.tobytes() == want.tobytes()
    # the mollifier's taps against their dense formula, on grids that have
    # taps: an eps beyond float range has none
    h = grid.spacing
    eps = radius * h
    if not 0.0 < eps < math.inf:
        return
    K = int(np.floor(eps / h + 1e-12))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        offsets = np.meshgrid(*[np.arange(-K, K + 1) * h] * dim, indexing="ij")
        raw = bump_profile(np.sqrt(sum(o * o for o in offsets)) / eps)
        got = _mollifier_taps(grid, eps)
    assert got.tobytes() == (raw / raw.sum()).tobytes()


@PROPERTY
@given(spec_grid=catalog_specs())
def test_weights_do_not_depend_on_the_coordinate_layout(spec_grid):
    """Open coordinates, the dense mesh and a flat node list give the same
    bytes: every operation is elementwise, in the same order."""
    spec, grid = spec_grid
    mesh = np.broadcast_arrays(*grid.coordinates())
    layouts = [grid.coordinates(), mesh, [m.ravel() for m in mesh]]
    for evaluate in (spec.exponent, lambda x: eval_weight(spec, x),
                     lambda x: eval_weight_root(spec, x, 3.0),
                     lambda x: eval_log_drift(spec, x)):
        results = [np.reshape(evaluate(x), (-1,) + grid.shape) for x in layouts]
        assert results[0].shape[1:] == grid.shape
        assert results[0].tobytes() == results[1].tobytes() == results[2].tobytes()

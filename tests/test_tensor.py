"""Cross-dimension properties of the tensor-product code path.

For a separable 2d field f(x)*g(y) (or f(x)*1(y)) every tensor operation must
reduce to the 1d one applied to the factors.  1d and 2d run through the same
code, so these properties pin that path in both dimensions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from wsobolev.grid import (
    Grid,
    GridFunction,
    ball_slices,
    integrate,
    maximal_function,
    quadrature_rows,
    segment_weights,
)
from wsobolev.pde import check_lebesgue_compatibility
from wsobolev.weights import (
    Ball,
    PotentialExpr,
    QuadraticTerm,
    WeightSpec,
    estimate_doubling,
    estimate_muckenhoupt,
)

REL = 1e-12
SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def grid_pair(draw, sizes=(5, 7, 9, 11, 13, 21, 31)):
    """A 1d grid and the 2d grid with the same axis."""
    n = draw(st.sampled_from(sizes))
    R = draw(st.floats(0.5, 4.0))
    return Grid(1, R, n), Grid(2, R, n)


def node_values(n: int, low: float = 0.01, high: float = 10.0):
    return arrays(float, n, elements=st.floats(low, high))


def outer(grid2d: Grid, f: np.ndarray, g: np.ndarray) -> GridFunction:
    """The separable field f(x)*g(y) on a 2d grid."""
    return GridFunction(grid2d, np.multiply.outer(f, g))


def simpson(grid: Grid, values: np.ndarray) -> tuple[float, float]:
    """The Simpson integral and error estimate of one node array."""
    (value,), (err,) = quadrature_rows(values[None], grid)
    return value, err


@SETTINGS
@given(data=st.data())
def test_quadrature_separates(data):
    g1, g2 = data.draw(grid_pair())
    f = data.draw(node_values(g1.nodes_per_axis))
    g = data.draw(node_values(g1.nodes_per_axis))
    F, F_err = simpson(g1, f)
    G, _ = simpson(g1, g)
    one, _ = simpson(g1, np.ones(g1.shape))
    value, _ = simpson(g2, outer(g2, f, g).values)
    assert value == pytest.approx(F * G, rel=REL)
    # f(x)*1(y): the error estimate scales by the y-integral of 1; the estimate
    # is a difference of two quadratures, so its rounding is relative to them
    value, err = simpson(g2, outer(g2, f, np.ones(g1.shape)).values)
    assert value == pytest.approx(F * one, rel=REL)
    assert err == pytest.approx(F_err * one, rel=REL, abs=REL * value)


@SETTINGS
@given(data=st.data())
def test_ball_quadrature_separates(data):
    g1, g2 = data.draw(grid_pair(sizes=(21, 31, 41)))
    n = g1.nodes_per_axis
    f = data.draw(node_values(n))
    g = data.draw(node_values(n))
    cx, cy = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    center = (float(g1.axis()[cx]), float(g1.axis()[cy]))
    radius = g1.spacing * data.draw(st.integers(1, (n - 1) // 2))
    box = ball_slices(g2, center, radius)
    if not isinstance(box, str):
        h = g1.spacing
        assert integrate(np.multiply.outer(f, g)[box], h, segment_weights) == pytest.approx(
            integrate(f[box[0]], h, segment_weights) * integrate(g[box[1]], h, segment_weights),
            rel=REL,
        )
    balls_1d = [Ball.of(c, radius) for c in center]
    w2 = outer(g2, f, g)
    d2 = estimate_doubling(w2, [Ball.of(center, radius)]).constant
    dx, dy = (estimate_doubling(GridFunction(g1, v), [b]).constant
              for v, b in zip((f, g), balls_1d))
    if dx is None or dy is None:
        assert d2 is None
    else:
        assert d2 == pytest.approx(dx * dy, rel=REL)
    m2 = estimate_muckenhoupt(w2, 2.0, [Ball.of(center, radius)]).constant
    mx, my = (estimate_muckenhoupt(GridFunction(g1, v), 2.0, [b]).constant
              for v, b in zip((f, g), balls_1d))
    if mx is None or my is None:
        assert m2 is None
    else:
        assert m2 == pytest.approx(mx * my, rel=REL)


@SETTINGS
@given(data=st.data(), h=st.floats(0.01, 2.0))
def test_integrate_matches_axis_contraction(data, h):
    shape = (data.draw(st.integers(2, 15)), data.draw(st.integers(2, 15)))
    block = data.draw(arrays(float, shape, elements=st.floats(0.01, 10.0)))
    # the segment rule contracted one axis at a time, the last axis by a
    # weighted sum
    rows = segment_weights(shape[0], h) @ block
    expected = float(np.sum(segment_weights(shape[1], h) * rows))
    assert integrate(block, h, segment_weights) == pytest.approx(expected, rel=REL)


@SETTINGS
@given(data=st.data())
def test_maximal_function_ignores_constant_axis(data):
    g1, g2 = data.draw(grid_pair())
    f = data.draw(node_values(g1.nodes_per_axis, -5.0, 5.0))
    m1 = maximal_function(GridFunction(g1, f)).values
    m2 = maximal_function(outer(g2, f, np.ones(g1.shape))).values
    # a summed-area difference is exact to rounding of the table's totals, so
    # small averages next to large values carry an absolute error
    atol = REL * np.abs(f).max()
    assert_allclose(m2, np.broadcast_to(m1[:, None], g2.shape), rtol=REL, atol=atol)


@SETTINGS
@given(
    data=st.data(),
    beta=st.floats(-2.0, 2.0).filter(lambda b: abs(b) > 1e-3),
    c=st.floats(0.0, 0.5),
    p=st.floats(2.5, 5.0),
)
def test_lebesgue_gate_masses_square(data, beta, c, p):
    # exp(-beta |x|^2 - c |x|^2) is a product of 1d factors, and so is every
    # nested box's mass
    g1, g2 = data.draw(grid_pair(sizes=(9, 13, 21, 41)))
    expr = PotentialExpr((QuadraticTerm(c),))
    rep1 = check_lebesgue_compatibility(WeightSpec(beta, 2.0, 1, W=expr), g1, p)
    rep2 = check_lebesgue_compatibility(WeightSpec(beta, 2.0, 2, W=expr), g2, p)
    assert rep2.radii == rep1.radii
    assert_allclose(rep2.masses, np.square(rep1.masses), rtol=REL)

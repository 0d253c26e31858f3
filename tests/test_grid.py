import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erf

from wsobolev.cli import _state_csv

from wsobolev.grid import (
    Grid,
    GridFunction,
    _mollifier_taps,
    build_grid,
    discrete_gradient,
    maximal_function,
    mollify,
    quadrature,
    quadrature_with_error,
    sample_field,
    segment_weights,
)


def gauss_grid(n=301):
    return build_grid(1, 6.0, n)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(3, 1.0, 11)
        with pytest.raises(ValueError):
            Grid(1, -1.0, 11)
        with pytest.raises(ValueError):
            Grid(1, 1.0, 10)  # even
        with pytest.raises(ValueError):
            Grid(1, 1.0, 1)

    def test_spacing_and_axis(self):
        g = Grid(1, 6.0, 301)
        assert g.spacing == pytest.approx(0.04)
        ax = g.axis()
        assert ax[0] == -6.0 and ax[-1] == 6.0
        assert ax[150] == 0.0  # origin is an exact node

    def test_refine_preserves_nodes(self):
        # 2n - 1 nodes on the same box halve the spacing and keep every node
        g = Grid(1, 2.0, 11)
        g2 = Grid(1, 2.0, 2 * g.nodes_per_axis - 1)
        assert_allclose(g2.axis()[::2], g.axis())

    def test_index_of(self):
        g = Grid(1, 6.0, 301)
        assert g.index_of(0.0) == 150
        assert g.index_of(2.0) == 200
        with pytest.raises(ValueError):
            g.index_of(7.5)

    def test_points_shape(self):
        g2 = Grid(2, 1.0, 5)
        assert g2.points().shape == (5, 5, 2)
        assert g2.shape == (5, 5)


class TestGridFunction:
    def test_shape_mismatch(self):
        g = Grid(1, 1.0, 11)
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros(7))

    def test_support_enforced(self):
        g = Grid(1, 2.0, 21)
        vals = np.ones(21)
        with pytest.raises(ValueError):
            GridFunction(g, vals, compact_support_radius=1.0)
        vals = np.where(np.abs(g.axis()) <= 1.0, 1.0, 0.0)
        f = GridFunction(g, vals, compact_support_radius=1.0)
        assert f.compact_support_radius == 1.0

    def test_arithmetic_combines_support(self):
        g = Grid(1, 4.0, 41)
        a = sample_field(g, lambda x: np.maximum(1 - np.abs(x), 0.0),
                         compact_support_radius=1.0)
        b = sample_field(g, lambda x: np.maximum(2 - np.abs(x), 0.0),
                         compact_support_radius=2.0)
        c = a - b
        assert c.compact_support_radius == 2.0
        assert_allclose(c.values, a.values - b.values)
        assert (a - GridFunction(g, b.values)).compact_support_radius is None

    def test_scalar_multiplication_only(self):
        g = Grid(1, 1.0, 11)
        f = GridFunction(g, np.ones(11))
        with pytest.raises(TypeError):
            f * f  # node-wise products are built explicitly, not via *

    def test_grid_mismatch_rejected(self):
        a = GridFunction(Grid(1, 1.0, 11), np.zeros(11))
        b = GridFunction(Grid(1, 1.0, 13), np.zeros(13))
        with pytest.raises(ValueError):
            a - b


class TestQuadrature:
    def test_constant_exact(self):
        g = Grid(1, 0.5, 21)
        assert quadrature(GridFunction(g, np.ones(21))) == pytest.approx(1.0, abs=1e-14)

    def test_odd_cubic_zero(self):
        g = gauss_grid()
        f = sample_field(g, lambda x: x**3)
        assert abs(quadrature(f)) < 1e-12

    def test_cubic_exact(self):
        # Simpson integrates degree-3 polynomials exactly
        g = gauss_grid()
        f = sample_field(g, lambda x: x**3 - 2 * x**2 + x - 5)
        exact = -2 * (2 * 6.0**3 / 3) - 5 * 12.0
        assert quadrature(f) == pytest.approx(exact, abs=1e-12 * abs(exact))

    def test_gaussian_vs_erf(self):
        g = gauss_grid(601)
        f = sample_field(g, lambda x: np.exp(-(x**2)))
        assert quadrature(f) == pytest.approx(np.sqrt(np.pi) * erf(6.0), abs=1e-10)

    def test_weighted(self):
        g = gauss_grid(601)
        f = sample_field(g, lambda x: x * x)
        w = sample_field(g, lambda x: np.exp(-(x**2)))
        # int x^2 e^{-x^2} = sqrt(pi)/2
        assert quadrature(f, w) == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-10)

    def test_error_estimate_brackets(self):
        g = gauss_grid(601)  # (n-1) % 4 == 0 so the coarse rule is valid
        f = sample_field(g, lambda x: np.exp(-(x**2)) * np.cos(3 * x))
        val, err = quadrature_with_error(f)
        exact = np.sqrt(np.pi) * np.exp(-9.0 / 4.0)
        assert abs(val - exact) <= max(err, 1e-12)

    def test_2d_constant(self):
        g = Grid(2, 1.0, 11)
        assert quadrature(GridFunction(g, np.ones((11, 11)))) == pytest.approx(4.0)

    def test_weights_sum_to_length(self):
        assert segment_weights(11, 0.1).sum() == pytest.approx(1.0)
        assert segment_weights(10, 0.1).sum() == pytest.approx(0.9)
        assert segment_weights(2, 0.1).sum() == pytest.approx(0.1)


class TestDiscreteGradient:
    def test_quadratic_exact_interior(self):
        g = gauss_grid()
        f = sample_field(g, lambda x: x * x)
        (df,) = discrete_gradient(f)
        assert_allclose(df.values[1:-1], 2 * g.axis()[1:-1], atol=1e-11)

    def test_constant_zero(self):
        g = Grid(2, 1.0, 11)
        f = GridFunction(g, np.full((11, 11), 3.0))
        for comp in discrete_gradient(f):
            assert np.all(comp.values == 0.0)

    def test_sin_second_order(self):
        errs = []
        for n in (151, 301):
            g = gauss_grid(n)
            f = sample_field(g, np.sin)
            (df,) = discrete_gradient(f)
            errs.append(np.max(np.abs(df.values - np.cos(g.axis()))))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5


class TestMollifier:
    def test_eps_below_spacing_rejected(self):
        g = gauss_grid()
        with pytest.raises(ValueError):
            _mollifier_taps(g, 0.01)

    def test_discrete_mass_is_one(self):
        g = gauss_grid(601)
        for eps in (0.2, 0.1, 0.05):
            assert abs(_mollifier_taps(g, eps).sum() - 1.0) <= 1e-8

    def test_constant_preserved_away_from_boundary(self):
        g = gauss_grid()
        one = GridFunction(g, np.ones(g.shape))
        for eps in (0.2, 0.05):
            sm = mollify(one, eps)
            inner = np.abs(g.axis()) <= g.half_width - eps - 1e-9
            assert_allclose(sm.values[inner], 1.0, atol=1e-12)

    def test_linear_preserved_away_from_boundary(self):
        # the kernel is even, so the linear moment vanishes
        g = gauss_grid()
        f = sample_field(g, lambda x: x)
        sm = mollify(f, 0.1)
        inner = np.abs(g.axis()) <= g.half_width - 0.1 - 1e-9
        assert_allclose(sm.values[inner], g.axis()[inner], atol=1e-12)

    def test_zero_maps_to_zero(self):
        g = gauss_grid()
        z = GridFunction(g, np.zeros(g.shape))
        assert np.abs(mollify(z, 0.1).values).max() == 0.0

    def test_sup_contraction_on_corpus(self):
        from wsobolev.corpus import corpus_members

        g = gauss_grid()
        for m in corpus_members()[:6]:
            f = m.on_grid(g)
            sm = mollify(f, 0.1)
            # one-ulp allowance: the taps sum to 1 only up to rounding
            assert np.abs(sm.values).max() <= np.abs(f.values).max() * (1 + 1e-12)

    def test_support_growth(self):
        g = gauss_grid()
        f = sample_field(g, lambda x: np.maximum(1 - np.abs(x), 0.0),
                         compact_support_radius=1.0)
        sm = mollify(f, 0.2)
        assert sm.compact_support_radius <= 1.0 + 0.2 + 1e-12
        outside = np.abs(g.axis()) > 1.2 + 1e-9
        assert np.all(sm.values[outside] == 0.0)

    def test_2d_smoothing(self):
        g = Grid(2, 2.0, 41)
        f = sample_field(g, lambda x, y: np.maximum(1 - np.hypot(x, y), 0.0),
                         compact_support_radius=1.0)
        sm = mollify(f, 0.2)
        assert np.abs(sm.values).max() <= np.abs(f.values).max() * (1 + 1e-12)
        assert sm.compact_support_radius <= 1.0 + 0.2 * np.sqrt(2) + 1e-12


class TestMaximalFunction:
    def test_constant(self):
        g = gauss_grid()
        f = GridFunction(g, np.full(g.shape, -2.5))
        assert_allclose(maximal_function(f).values, 2.5)

    def test_indicator_closed_form(self):
        # M(1_{[-1,1]})(2): the best clipped window is rho = 3 giving 1/3
        g = gauss_grid(601)
        f = sample_field(g, lambda x: np.where(np.abs(x) <= 1.0, 1.0, 0.0))
        M = maximal_function(f)
        val = M.values[g.index_of(2.0)]
        assert abs(val - 1.0 / 3.0) <= 2 * g.spacing

    def test_dominates_nonnegative(self):
        # the smallest scanned radius is h, so domination holds up to the
        # O(h^2) gap between a 3-node average and the center value; that is
        # only meaningful for smooth data (a noise spike beats its own average)
        g = gauss_grid()
        f = sample_field(g, lambda x: np.exp(-(x**2)))
        M = maximal_function(f)
        assert np.all(M.values >= f.values - 2 * g.spacing**2)

    def test_sublinear(self):
        g = gauss_grid()
        rng = np.random.default_rng(7)
        a = GridFunction(g, rng.standard_normal(g.shape))
        b = GridFunction(g, rng.standard_normal(g.shape))
        Mab = maximal_function(GridFunction(g, a.values + b.values))
        bound = maximal_function(a).values + maximal_function(b).values
        assert np.all(Mab.values <= bound + 1e-12)

    def test_2d_constant(self):
        g = Grid(2, 2.0, 41)
        f = GridFunction(g, np.ones(g.shape))
        assert_allclose(maximal_function(f).values, 1.0)


class TestSampleField:
    def test_callable_and_array(self):
        g = Grid(1, 1.0, 11)
        f = sample_field(g, lambda x: x + 1)
        assert_allclose(f.values, GridFunction(g, g.axis() + 1).values)

    def test_2d_callable(self):
        g = Grid(2, 1.0, 11)
        f = sample_field(g, lambda x, y: x + 2 * y)
        X, Y = g.mesh()
        assert_allclose(f.values, X + 2 * Y)


class TestSerialization:
    def test_csv_columns(self):
        g = Grid(1, 1.0, 11)
        f = sample_field(g, lambda x: x)
        lines = _state_csv(f, "state").splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 12

        g2 = Grid(2, 1.0, 5)
        f2 = GridFunction(g2, np.ones((5, 5)))
        assert _state_csv(f2, "state").splitlines()[0] == "x,y,value"

    def test_csv_bytes(self):
        # C order, coordinates and values in %.12g, "\n" line ends
        f = sample_field(Grid(1, 2.0, 5), lambda x: x / 3.0)
        assert _state_csv(f, "state").encode() == (
            b"x,value\n-2,-0.666666666667\n-1,-0.333333333333\n0,0\n"
            b"1,0.333333333333\n2,0.666666666667\n")
        vals = [[0.0, 0.5, -1.0], [2.25, 1e-13, 3.0], [1.0 / 3.0, -0.125, 1e20]]
        assert _state_csv(GridFunction(Grid(2, 1.0, 3), np.array(vals)), "state").encode() == (
            b"x,y,value\n-1,-1,0\n-1,0,0.5\n-1,1,-1\n0,-1,2.25\n0,0,1e-13\n0,1,3\n"
            b"1,-1,0.333333333333\n1,0,-0.125\n1,1,1e+20\n")

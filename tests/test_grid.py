import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erf

from wsobolev.grid import (
    Grid,
    GridFunction,
    Mollifier,
    build_grid,
    difference_quotient,
    discrete_gradient,
    load_grid_function_binary,
    maximal_function,
    mollify,
    quadrature,
    quadrature_with_error,
    sample_field,
    save_grid_function_binary,
    save_grid_function_csv,
    segment_weights,
    simpson_weights,
    truncate,
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
        g = Grid(1, 2.0, 11)
        g2 = g.refine()
        assert g2.nodes_per_axis == 21
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
        c = a + b
        assert c.compact_support_radius == 2.0
        d = (a - b) * 3.0
        assert d.compact_support_radius == 2.0
        assert_allclose(d.values, 3.0 * (a.values - b.values))

    def test_scalar_multiplication_only(self):
        g = Grid(1, 1.0, 11)
        f = GridFunction(g, np.ones(11))
        with pytest.raises(TypeError):
            f * f  # node-wise products are built explicitly, not via *

    def test_grid_mismatch_rejected(self):
        a = GridFunction(Grid(1, 1.0, 11), np.zeros(11))
        b = GridFunction(Grid(1, 1.0, 13), np.zeros(13))
        with pytest.raises(ValueError):
            a + b


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
        assert simpson_weights(11, 0.1).sum() == pytest.approx(1.0)
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
            Mollifier.build(g, 0.01)

    def test_discrete_mass_is_one(self):
        g = gauss_grid(601)
        for eps in (0.2, 0.1, 0.05):
            m = Mollifier.build(g, eps)
            assert abs(m.mass - 1.0) <= 1e-8

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
        assert mollify(z, 0.1).max_abs() == 0.0

    def test_sup_contraction_on_corpus(self):
        from wsobolev.corpus import corpus_members

        g = gauss_grid()
        for m in corpus_members()[:6]:
            f = m.on_grid(g)
            sm = mollify(f, 0.1)
            # one-ulp allowance: the taps sum to 1 only up to rounding
            assert sm.max_abs() <= f.max_abs() * (1 + 1e-12)

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
        assert sm.max_abs() <= f.max_abs() * (1 + 1e-12)
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
        Mab = maximal_function(a + b)
        bound = maximal_function(a).values + maximal_function(b).values
        assert np.all(Mab.values <= bound + 1e-12)

    def test_2d_constant(self):
        g = Grid(2, 2.0, 41)
        f = GridFunction(g, np.ones(g.shape))
        assert_allclose(maximal_function(f).values, 1.0)


class TestDifferenceQuotient:
    def test_linear_exact(self):
        g = gauss_grid()
        f = sample_field(g, lambda x: x)
        dq = difference_quotient(f, np.array([1.0]), 0.2)
        (df,) = discrete_gradient(f)
        inner = g.axis() >= -g.half_width + 0.25
        assert_allclose((dq.values + df.values)[inner], 0.0, atol=1e-12)

    def test_constant_zero(self):
        # zero everywhere the backward sample point stays inside the box; the
        # leftmost node reads the zero extension (shift 0.03 escapes at -6)
        g = gauss_grid()
        f = GridFunction(g, np.full(g.shape, 4.0))
        dq = difference_quotient(f, np.array([0.3]), 0.1)
        assert_allclose(dq.values[1:], 0.0, atol=1e-13)
        assert dq.values[0] == pytest.approx(-40.0)

    def test_quadratic_linear_in_eps(self):
        g = gauss_grid(601)
        f = sample_field(g, lambda x: x * x)
        (df,) = discrete_gradient(f)
        inner = np.abs(g.axis()) <= 5.0
        errs = []
        for eps in (0.4, 0.2, 0.1):
            dq = difference_quotient(f, np.array([1.0]), eps)
            errs.append(np.max(np.abs((dq.values + df.values)[inner])))
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_unit_ball_direction_required(self):
        g = gauss_grid()
        f = sample_field(g, lambda x: x)
        with pytest.raises(ValueError):
            difference_quotient(f, np.array([1.5]), 0.1)


class TestTruncate:
    def test_clamps(self):
        g = gauss_grid()
        f = sample_field(g, lambda x: x)
        t = truncate(f, 1.0)
        assert t.values.min() == -1.0 and t.values.max() == 1.0

    def test_identity_region(self):
        g = gauss_grid()
        f = sample_field(g, lambda x: np.sin(x))
        t = truncate(f, 2.0)
        assert np.array_equal(t.values, f.values)

    def test_gradient_bound_inside_clamp(self):
        g = gauss_grid(601)
        f = sample_field(g, lambda x: 2 * np.sin(x))
        t = truncate(f, 1.0)
        (df,) = discrete_gradient(f)
        (dt,) = discrete_gradient(t)
        # compare away from the clamp boundary, where the stencil is one-sided
        interior = np.abs(np.abs(f.values) - 1.0) > 3 * g.spacing
        assert np.all(np.abs(dt.values)[interior] <= np.abs(df.values)[interior] + 1e-10)


class TestSampleField:
    def test_callable_and_array(self):
        g = Grid(1, 1.0, 11)
        f1 = sample_field(g, lambda x: x + 1)
        f2 = sample_field(g, g.axis() + 1)
        assert_allclose(f1.values, f2.values)

    def test_2d_callable(self):
        g = Grid(2, 1.0, 11)
        f = sample_field(g, lambda x, y: x + 2 * y)
        X, Y = g.mesh()
        assert_allclose(f.values, X + 2 * Y)


class TestSerialization:
    def test_binary_round_trip(self, tmp_path):
        from wsobolev.corpus import corpus_members

        g = gauss_grid()
        f = corpus_members()[4].on_grid(g)
        path = tmp_path / "f.bin"
        save_grid_function_binary(f, path)
        f2 = load_grid_function_binary(path)
        assert np.array_equal(f.values, f2.values)
        assert f2.grid == f.grid
        assert f2.compact_support_radius == pytest.approx(f.compact_support_radius)

    def test_binary_header_is_json(self, tmp_path):
        g = Grid(2, 1.5, 11)
        f = GridFunction(g, np.zeros((11, 11)))
        path = tmp_path / "f.bin"
        save_grid_function_binary(f, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["dim"] == 2 and header["n"] == 11 and header["R"] == 1.5

    def test_csv_columns(self, tmp_path):
        g = Grid(1, 1.0, 11)
        f = sample_field(g, lambda x: x)
        path = tmp_path / "f.csv"
        save_grid_function_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 12

        g2 = Grid(2, 1.0, 5)
        f2 = GridFunction(g2, np.ones((5, 5)))
        path2 = tmp_path / "f2.csv"
        save_grid_function_csv(f2, path2)
        assert path2.read_text().splitlines()[0] == "x,y,value"

    def test_csv_bytes(self, tmp_path):
        # C order, coordinates and values in %.12g, "\n" line ends
        f = sample_field(Grid(1, 2.0, 5), lambda x: x / 3.0)
        save_grid_function_csv(f, tmp_path / "f1.csv")
        assert (tmp_path / "f1.csv").read_bytes() == (
            b"x,value\n-2,-0.666666666667\n-1,-0.333333333333\n0,0\n"
            b"1,0.333333333333\n2,0.666666666667\n")
        vals = [[0.0, 0.5, -1.0], [2.25, 1e-13, 3.0], [1.0 / 3.0, -0.125, 1e20]]
        save_grid_function_csv(GridFunction(Grid(2, 1.0, 3), np.array(vals)), tmp_path / "f2.csv")
        assert (tmp_path / "f2.csv").read_bytes() == (
            b"x,y,value\n-1,-1,0\n-1,0,0.5\n-1,1,-1\n0,-1,2.25\n0,0,1e-13\n0,1,3\n"
            b"1,-1,0.333333333333\n1,0,-0.125\n1,1,1e+20\n")

import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erf

from wsobolev import grid
from wsobolev.cli import _state_csv

from wsobolev.grid import (
    Grid,
    GridFunction,
    _mollifier_taps,
    _summed_area,
    axis_derivatives,
    build_grid,
    discrete_gradient,
    integrate,
    maximal_function,
    mollify,
    quadrature_rows,
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

    @pytest.mark.parametrize("half_width, spacing", [
        (5e-324, "0.0"), (1e-310, "5e-311"), (1.7e308, "inf"), (math.nan, "nan")])
    def test_spacing_must_be_a_positive_normal_float(self, half_width, spacing):
        with pytest.raises(ValueError, match=rf"^half_width: the node spacing {spacing} is not "
                                             r"a positive normal float$"):
            Grid(1, half_width, 5)
        # the smallest normal spacing is a grid
        assert Grid(1, 2.0 * np.finfo(float).smallest_normal, 5).spacing > 0.0

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

    def test_coordinates_shape(self):
        g2 = Grid(2, 1.0, 5)
        assert [x.shape for x in g2.coordinates()] == [(5, 1), (1, 5)]
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

    def test_scalar_multiplication_only(self):
        g = Grid(1, 1.0, 11)
        f = GridFunction(g, np.ones(11))
        with pytest.raises(TypeError):
            f * f  # node-wise products are built explicitly, not via *


class TestQuadrature:
    @staticmethod
    def simpson(f):
        return integrate(f.values, f.grid.spacing, segment_weights)

    def test_constant_exact(self):
        g = Grid(1, 0.5, 21)
        assert self.simpson(GridFunction(g, np.ones(21))) == pytest.approx(1.0, abs=1e-14)

    def test_odd_cubic_zero(self):
        g = gauss_grid()
        f = sample_field(g, lambda x: x**3)
        assert abs(self.simpson(f)) < 1e-12

    def test_cubic_exact(self):
        # Simpson integrates degree-3 polynomials exactly
        g = gauss_grid()
        f = sample_field(g, lambda x: x**3 - 2 * x**2 + x - 5)
        exact = -2 * (2 * 6.0**3 / 3) - 5 * 12.0
        assert self.simpson(f) == pytest.approx(exact, abs=1e-12 * abs(exact))

    def test_gaussian_vs_erf(self):
        g = gauss_grid(601)
        f = sample_field(g, lambda x: np.exp(-(x**2)))
        assert self.simpson(f) == pytest.approx(np.sqrt(np.pi) * erf(6.0), abs=1e-10)

    def test_weighted(self):
        g = gauss_grid(601)
        f = sample_field(g, lambda x: x * x)
        w = sample_field(g, lambda x: np.exp(-(x**2)))
        # int x^2 e^{-x^2} = sqrt(pi)/2
        value = integrate(f.values * w.values, g.spacing, segment_weights)
        assert value == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-10)

    def test_error_estimate_brackets(self):
        g = gauss_grid(601)  # (n-1) % 4 == 0 so the coarse rule is valid
        f = sample_field(g, lambda x: np.exp(-(x**2)) * np.cos(3 * x))
        (val,), (err,) = quadrature_rows(f.values[None], g)
        exact = np.sqrt(np.pi) * np.exp(-9.0 / 4.0)
        assert abs(val - exact) <= max(err, 1e-12)

    def test_2d_constant(self):
        g = Grid(2, 1.0, 11)
        assert self.simpson(GridFunction(g, np.ones((11, 11)))) == pytest.approx(4.0)

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

    @pytest.mark.parametrize("dim, n", [(1, 41), (2, 21)])
    def test_axis_derivatives_batch_rows_match(self, dim, n):
        # a stacked batch gets, row by row, the bits each row gets alone
        g = Grid(dim, 2.0, n)
        rows = np.random.default_rng(dim).standard_normal((3,) + g.shape)
        batch = axis_derivatives(rows, g)
        assert len(batch) == dim
        for i, row in enumerate(rows):
            alone = discrete_gradient(GridFunction(g, row))
            for b, a in zip(batch, alone):
                assert b[i].tobytes() == a.values.tobytes()


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

    @staticmethod
    def full_grid_mollify(f, eps):
        """mollify summed over the whole grid, one product per nonzero tap."""
        taps = _mollifier_taps(f.grid, eps)
        n = f.grid.nodes_per_axis
        padded = np.pad(f.values, (taps.shape[0] - 1) // 2)
        out = np.zeros_like(f.values)
        for offset in np.ndindex(taps.shape):
            t = taps[offset]
            if t != 0.0:
                out += t * padded[tuple(slice(i, i + n) for i in offset)]
        csr = f.compact_support_radius
        if csr is not None:
            csr = min(csr + eps, f.grid.half_width * np.sqrt(f.grid.dim))
        return GridFunction(f.grid, out, csr)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_support_box_matches_the_full_grid_sum(self, data):
        # the box summed is the one that can be nonzero, so every node,
        # signed zeros included, is the full-grid sum bit for bit
        dim = data.draw(st.sampled_from([1, 2]))
        n = 2 * data.draw(st.integers(1, 150 if dim == 1 else 30)) + 1
        g = Grid(dim, data.draw(st.sampled_from([1.0, 2.5, 6.0])), n)
        eps = data.draw(st.floats(1.0, 8.0)) * g.spacing
        support = data.draw(st.one_of(
            st.none(), st.just(0.0),
            st.floats(0.0, g.half_width),  # inside the box
            st.sampled_from([g.half_width, g.half_width * np.sqrt(dim), 1e300]),  # at or past it
            st.floats(g.half_width, 1e300), st.just(math.inf)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.standard_normal(g.shape)
        values[rng.random(g.shape) < 0.2] = -0.0
        if support is not None:
            outside = g.node_radii() > support
            values[outside] = np.where(rng.random(g.shape) < 0.5, 0.0, -0.0)[outside]
        f = GridFunction(g, values, support)
        got, want = mollify(f, eps), self.full_grid_mollify(f, eps)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.compact_support_radius == want.compact_support_radius


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


def _take_maximal(f):
    """The maximal function by one clipped-index gather of the unpadded
    summed-area table per radius and axis, the box sums formed along the
    first axis first, then divided by the integer node counts."""
    d, n = f.grid.dim, f.grid.nodes_per_axis
    idx = np.arange(n)
    S = _summed_area(f)
    best = np.zeros(f.grid.shape)
    for k in range(1, (n - 1) // 2 + 1):
        lo = np.maximum(idx - k, 0)
        hi = np.minimum(idx + k, n - 1)
        box = S
        for a in range(d):
            box = box.take(hi + 1, axis=a) - box.take(lo, axis=a)
        np.maximum(best, box / reduce(np.multiply.outer, [hi - lo + 1] * d), out=best)
    return best


class TestPaddedMaximalFunction:
    """The padded-table views give the gather loop's values bit for bit."""

    @staticmethod
    def field(dim, n, seed):
        rng = np.random.default_rng(seed)
        # magnitudes over many decades, so that the table's rounding shows
        values = rng.standard_normal((n,) * dim) * np.exp(rng.uniform(-30.0, 30.0, (n,) * dim))
        return GridFunction(Grid(dim, 1.0, n), values)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", range(3, 42, 2))
    def test_equals_the_gather_loop(self, dim, n):
        f = self.field(dim, n, n)
        assert np.array_equal(maximal_function(f).values, _take_maximal(f))

    @pytest.mark.parametrize("block", ["1", "7", "7n"])
    @pytest.mark.parametrize("n", [3, 5, 17, 29, 41])
    def test_ragged_radius_blocks(self, block, n, monkeypatch):
        # 7n gives 7 radii a block, so the last block is short unless 7 divides (n-1)/2
        monkeypatch.setattr(grid, "_MAXIMAL_AT_BLOCK", 7 * n if block == "7n" else int(block))
        for dim in (1, 2):
            f = self.field(dim, n, 100 + n)
            assert np.array_equal(maximal_function(f).values, _take_maximal(f))

    @pytest.mark.parametrize("dim, n, arrays", [(1, 601, 200), (2, 101, 16)])
    def test_peak_memory(self, dim, n, arrays):
        # 1d blocks hold at most _MAXIMAL_AT_BLOCK means at a time; all K x n
        # of them at once would take 1.4 MB at n = 601
        f = self.field(dim, n, 0)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            maximal_function(f)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert peak <= arrays * f.values.nbytes


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

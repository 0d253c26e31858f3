import numpy as np
import pytest

from wsobolev.cli import run
from wsobolev.config import parse_config
from wsobolev.corpus import corpus_members
from wsobolev.grid import GridFunction, build_grid, discrete_gradient, sample_field
from wsobolev.sobolev import (
    gradient_lebesgue_norm,
    hedberg_constant,
    ibp_residual,
    lebesgue_norm,
    maximal_bound_check,
    product_rule_residual,
    smooth_approximation,
    sobolev_norm,
)
from wsobolev.weights import WeightSpec, weight_on_grid

GAUSS = WeightSpec(1.0, 2.0, 1)


def grid_and_weight(n=301):
    g = build_grid(1, 6.0, n)
    return g, weight_on_grid(GAUSS, g)


class TestNorms:
    def test_l2_gaussian_mass(self):
        g, w = grid_and_weight(601)
        one = GridFunction(g, np.ones(g.shape))
        assert lebesgue_norm(one, w, 2.0) == pytest.approx(np.pi**0.25, abs=1e-10)

    def test_sobolev_norm_linear(self):
        # ||x||^2 + ||1||^2 against the Gaussian: sqrt(pi)/2 + sqrt(pi)
        g, w = grid_and_weight(601)
        f = sample_field(g, lambda x: x)
        val = sobolev_norm(f, discrete_gradient(f), w, 2.0)
        exact = (1.5 * np.sqrt(np.pi)) ** 0.5
        assert val == pytest.approx(exact, abs=1e-8)
        # frozen regression value
        assert val == pytest.approx(1.6305461589167822, abs=1e-9)

    def test_unweighted_branch(self):
        g, _ = grid_and_weight()
        f = GridFunction(g, np.ones(g.shape))
        assert lebesgue_norm(f, None, 1.0) == pytest.approx(12.0)

    def test_gradient_norm_multi_component(self):
        g = build_grid(2, 2.0, 41)
        f = sample_field(g, lambda x, y: x + y)
        val = gradient_lebesgue_norm(discrete_gradient(f), None, 2.0)
        # |grad| = sqrt(2) on a box of area 16
        assert val == pytest.approx((2.0 * 16.0) ** 0.5, rel=1e-10)

    def test_p_below_one_rejected(self):
        g, w = grid_and_weight()
        f = GridFunction(g, np.ones(g.shape))
        with pytest.raises(ValueError):
            lebesgue_norm(f, w, 0.5)
        with pytest.raises(ValueError):
            sobolev_norm(f, discrete_gradient(f), w, 0.9)


class TestIbpResidual:
    def test_centered_pairs_cancel(self):
        # even test function x centered member: the quadrature kills the odd
        # integrand to rounding, at any resolution
        g, _ = grid_and_weight()
        members = corpus_members()
        f = members[8].on_grid(g)  # bump_cp0_w1.0, even
        eta = members[7].on_grid(g)  # bump_cp0_w0.7, even
        res = ibp_residual(f, discrete_gradient(f), eta, GAUSS, axis=0)
        assert abs(res) < 1e-12

    def test_off_center_second_order(self):
        members = corpus_members()
        off = [m for m in members if m.center != 0.0]
        assert len(off) == 12
        eta_member = next(m for m in members if m.name == "bump_cp0_w1.0")
        for m in off[:4]:
            res = {}
            for n in (301, 601):
                g = build_grid(1, 6.0, n)
                f = m.on_grid(g)
                eta = eta_member.on_grid(g)
                res[n] = abs(ibp_residual(f, discrete_gradient(f), eta, GAUSS, 0))
            ratio = res[301] / res[601]
            assert 3.2 <= ratio <= 4.8

    def test_requires_compact_support(self):
        g, _ = grid_and_weight()
        f = corpus_members()[0].on_grid(g)
        eta = sample_field(g, lambda x: np.ones_like(x))  # no compact support
        with pytest.raises(ValueError, match="compact"):
            ibp_residual(f, discrete_gradient(f), eta, GAUSS, 0)

    def test_axis_out_of_range(self):
        g, _ = grid_and_weight()
        f = corpus_members()[0].on_grid(g)
        eta = corpus_members()[6].on_grid(g)
        with pytest.raises(IndexError):
            ibp_residual(f, discrete_gradient(f), eta, GAUSS, axis=1)


class TestProductRuleResidual:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_second_order(self, p):
        members = corpus_members()
        m = next(x for x in members if x.name == "bump_cp1_w0.7")
        zeta_member = next(x for x in members if x.name == "bump_cp0_w1.0")
        res = {}
        for n in (301, 601):
            g = build_grid(1, 6.0, n)
            f = m.on_grid(g)
            zeta = zeta_member.on_grid(g)
            res[n] = abs(product_rule_residual(f, discrete_gradient(f), zeta, GAUSS, 0, p))
        assert res[301] / res[601] == pytest.approx(4.0, rel=0.25)

    def test_small_at_fine_resolution(self):
        g, _ = grid_and_weight(601)
        f = corpus_members()[3].on_grid(g)
        zeta = corpus_members()[8].on_grid(g)
        res = product_rule_residual(f, discrete_gradient(f), zeta, GAUSS, 0, 2.0)
        assert abs(res) < 1e-4


class TestSmoothApproximation:
    def test_smooth_function_passes(self):
        g, _ = grid_and_weight(601)
        f = sample_field(
            g,
            lambda x: np.exp(-(x**2)) * np.maximum(1 - (x / 3.0) ** 2, 0.0) ** 2,
            compact_support_radius=3.0,
        )
        rep = smooth_approximation(f, GAUSS, 2.0, [0.2, 0.1, 0.05])
        assert rep.passed
        assert rep.final_relative_error < 1e-2
        assert rep.grad_root_locally_bounded

    def test_errors_decrease_along_schedule(self):
        g, _ = grid_and_weight(601)
        f = sample_field(g, lambda x: np.maximum(1 - np.abs(x), 0.0),
                         compact_support_radius=1.0)
        rep = smooth_approximation(f, GAUSS, 2.0, [0.2, 0.1, 0.05])
        errs = [s.sobolev_error for s in rep.steps]
        assert errs[0] > errs[1] > errs[2]

    def test_schedule_must_decrease(self):
        g, _ = grid_and_weight()
        f = corpus_members()[8].on_grid(g)
        with pytest.raises(ValueError):
            smooth_approximation(f, GAUSS, 2.0, [0.1, 0.2])

    def test_empty_schedule_rejected(self):
        g, _ = grid_and_weight()
        f = corpus_members()[8].on_grid(g)
        with pytest.raises(ValueError):
            smooth_approximation(f, GAUSS, 2.0, [])

    def test_compact_support_required(self):
        g, _ = grid_and_weight()
        f = sample_field(g, lambda x: x)
        with pytest.raises(ValueError, match="compact"):
            smooth_approximation(f, GAUSS, 2.0, [0.1])

    def test_csv_output(self, tmp_path):
        cfg = parse_config({"weight": {"beta": 1.0, "q": 2.0, "dim": 1},
                            "approximate": {"schedule": [0.2, 0.1]}})
        run("approximate", cfg, tmp_path)
        lines = (tmp_path / "approximation_steps.csv").read_text().splitlines()
        assert lines[0] == "eps,lp_error,grad_lp_error,sobolev_error"
        assert len(lines) == 3


class TestHedberg:
    def test_linear_function_half(self):
        # u = x has M|u'| = 1 everywhere, so every pair gives exactly 1/2
        g, _ = grid_and_weight()
        u = sample_field(g, lambda x: x)
        rep = hedberg_constant(u)
        assert rep.constant == pytest.approx(0.5, abs=1e-6)
        assert rep.pairs_used == 200
        assert rep.pairs_skipped == 0
        assert rep.seed == 42

    def test_corpus_members_bounded(self):
        g, _ = grid_and_weight()
        for m in corpus_members()[:3]:
            u = m.on_grid(g)
            rep = hedberg_constant(u)
            assert rep.constant <= 1.0 + 1e-9

    def test_constant_function_all_skipped(self):
        g, _ = grid_and_weight()
        u = GridFunction(g, np.ones(g.shape))
        rep = hedberg_constant(u)
        assert rep.pairs_used == 0
        assert rep.pairs_skipped == 200
        assert rep.constant == 0.0


class TestMaximalBound:
    def test_indicator_ratio(self):
        g, _ = grid_and_weight()
        f = sample_field(g, lambda x: np.where(np.abs(x) <= 1.0, 1.0, 0.0))
        ratio = maximal_bound_check(f, 2.0)
        assert ratio == pytest.approx(1.1989, abs=0.02)

    def test_stable_under_refinement(self):
        vals = {}
        for n in (301, 601):
            g = build_grid(1, 6.0, n)
            f = sample_field(g, lambda x: np.where(np.abs(x) <= 1.0, 1.0, 0.0))
            vals[n] = maximal_bound_check(f, 2.0)
        assert abs(vals[601] - vals[301]) / vals[301] < 0.10

    def test_p_one_rejected(self):
        g, _ = grid_and_weight()
        f = GridFunction(g, np.ones(g.shape))
        with pytest.raises(ValueError):
            maximal_bound_check(f, 1.0)

    def test_zero_norm_rejected(self):
        g, _ = grid_and_weight()
        f = GridFunction(g, np.zeros(g.shape))
        with pytest.raises(ValueError):
            maximal_bound_check(f, 2.0)

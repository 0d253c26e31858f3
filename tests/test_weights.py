import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erf, erfi

from test_expr_config import _JSON, _SHAPED
from wsobolev.cli import _round_floats
from wsobolev.config import ConfigError, parse_config
from wsobolev.grid import GridFunction, build_grid
from wsobolev.inequalities import oscillation_over_ball
from wsobolev.weights import (
    AdmissibilityReport,
    Ball,
    BallEntry,
    ConstantTerm,
    CosineTerm,
    PotentialExpr,
    PowerAbsTerm,
    QuadraticTerm,
    WeightSpec,
    check_admissibility,
    estimate_doubling,
    estimate_muckenhoupt,
    eval_log_drift,
    eval_weight,
    eval_weight_root,
    root_on_grid,
    weight_on_grid,
)

GAUSS = WeightSpec(1.0, 2.0, 1)

_NO_GROWTH_BOUND = "W has no growth bound |grad W| <= delta*|x|^(q-1) + gamma"
# weights that break a hypothesis only beyond a grid box, or at every x,
# and the hypothesis check_admissibility names for each
OUTSIDE_HYPOTHESES = {
    "cubic-W": ({"beta": 1.0, "q": 2.0, "dim": 1,
                 "W": [{"kind": "power_abs", "c": 0.05, "s": 3.0}]}, _NO_GROWTH_BOUND),
    "power-2.2-W": ({"beta": 1.0, "q": 2.0, "dim": 1,
                     "W": [{"kind": "power_abs", "c": 0.3, "s": 2.2}]}, _NO_GROWTH_BOUND),
    "linear-V": ({"beta": 1.0, "q": 2.0, "dim": 1,
                  "V": [{"kind": "power_abs", "c": 1.0, "s": 1.0}]}, "V is not certified bounded"),
    "concave-W": ({"beta": 1.0, "q": 2.0, "dim": 1,
                   "W": [{"kind": "quadratic_form", "c": -0.5}]},
                  "W is not certified convex and bounded below"),
}


def pts1(*xs):
    return np.array(xs, dtype=float)[None, :]


class TestTerms:
    def test_constant(self):
        t = ConstantTerm(2.5)
        p = pts1(0.0, 1.0, -3.0)
        assert_allclose(t.value(p), 2.5)
        assert_allclose(t.grad(p), 0.0)

    def test_power_abs(self):
        t = PowerAbsTerm(0.5, 3.0)
        p = pts1(2.0)
        assert t.value(p)[0] == pytest.approx(4.0)
        assert t.grad(p)[0][0] == pytest.approx(6.0)
        # gradient of |x|^s is taken as zero at the origin
        assert t.grad(pts1(0.0))[0][0] == 0.0

    def test_power_abs_needs_exponent_at_least_one(self):
        with pytest.raises(ValueError):
            PowerAbsTerm(1.0, 0.5)

    def test_quadratic(self):
        t = QuadraticTerm(0.5)
        p = np.array([[1.0], [2.0]])
        assert t.value(p)[0] == pytest.approx(2.5)
        assert_allclose([g[0] for g in t.grad(p)], [1.0, 2.0])

    def test_cosine(self):
        t = CosineTerm(2.0, (3.0,))
        p = pts1(0.0)
        assert t.value(p)[0] == pytest.approx(2.0)
        assert t.grad(p)[0][0] == pytest.approx(0.0)
        p = pts1(np.pi / 6.0)
        assert t.value(p)[0] == pytest.approx(0.0, abs=1e-15)
        assert t.grad(p)[0][0] == pytest.approx(-6.0)

    def test_cosine_2d_phase_adds_in_axis_order(self):
        # the phase is k0*x + k1*y, not a BLAS dot product, bit for bit
        t = CosineTerm(0.7, (2.3, -1.7))
        x, y = build_grid(2, 6.0, 41).mesh()
        assert t.value([x, y]).tobytes() == (0.7 * np.cos(2.3 * x + -1.7 * y)).tobytes()

    def test_term_json_round_trip(self):
        expr = PotentialExpr(
            (PowerAbsTerm(1.0, 2.5), CosineTerm(0.5, (2.0,)), ConstantTerm(1.0))
        )
        doc = [{"kind": "power_abs", "c": 1.0, "s": 2.5},
               {"kind": "cosine", "c": 0.5, "k": [2.0]},
               {"kind": "constant", "c": 1.0}]
        assert PotentialExpr.from_json(doc, dim=1) == expr

    def test_from_json_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            PotentialExpr.from_json([{"kind": "spline"}], dim=1)


class TestWeightSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSpec(1.0, 1.0, 1)  # q must exceed 1
        with pytest.raises(ValueError):
            WeightSpec(1.0, 2.0, 3)  # only 1 or 2 dimensions
        # beta carries no sign constraint here; solvers gate on it themselves
        assert WeightSpec(0.0, 2.0, 1).beta == 0.0

    def test_grid_of_another_dimension_refused(self):
        spec, grid = WeightSpec(1.0, 2.0, 2), build_grid(1, 6.0, 51)
        with pytest.raises(ValueError, match="^weight and grid dimensions differ$"):
            weight_on_grid(spec, grid)
        with pytest.raises(ValueError, match="^weight and grid dimensions differ$"):
            root_on_grid(spec, grid, 2.0)

    @pytest.mark.parametrize("dim, x", [(1, [[1.0], [2.0]]), (2, [[1.0, 2.0]])])
    def test_coordinates_of_another_dimension_refused(self, dim, x):
        # the point (1, 2) for a 1d weight, and the points 1 and 2 for a 2d one
        spec = WeightSpec(1.0, 2.0, dim, V=PotentialExpr((CosineTerm(1.0, (1.0,) * dim),)))
        for evaluate in (eval_weight, eval_log_drift, WeightSpec.exponent):
            with pytest.raises(ValueError, match="^weight and grid dimensions differ$"):
                evaluate(spec, x)

    def test_negative_beta_allowed(self):
        # growing weights are legal inputs; downstream per-solver gates decide
        spec = WeightSpec(-1.0, 2.0, 1)
        assert eval_weight(spec, pts1(1.0))[0] == pytest.approx(math.e)

    def test_gaussian_values(self):
        p = pts1(0.0, 1.0, 2.0)
        assert_allclose(eval_weight(GAUSS, p), np.exp(-np.array([0.0, 1.0, 4.0])))

    def test_root_is_weight_power(self):
        p = pts1(0.5, 1.5)
        w = eval_weight(GAUSS, p)
        assert_allclose(eval_weight_root(GAUSS, p, 3.0), w ** (1.0 / 3.0))

    def test_underflow_clamped(self):
        # clamps to the smallest positive normal instead of flushing to zero,
        # so log w and the drift stay finite
        spec = WeightSpec(1.0, 4.0, 1)
        w = eval_weight(spec, pts1(40.0))
        # exp(log(tiny)) round trip lands within a few ulp of tiny itself
        assert w[0] == pytest.approx(np.finfo(float).tiny, rel=1e-12)
        assert np.isfinite(np.log(w[0]))

    def test_no_underflow_flag(self):
        w = eval_weight(GAUSS, pts1(1.0))
        assert w[0] > 0.0

    def test_overflowing_exponent_clamps(self):
        # beta |x|^2 and the W term both leave float range at |x| = 5
        spec = WeightSpec(1e307, 2.0, 1, W=PotentialExpr((PowerAbsTerm(1e307, 2.0),)))
        w = eval_weight(spec, pts1(0.0, 5.0))
        assert w[0] == 1.0
        assert w[1] == pytest.approx(np.finfo(float).tiny, rel=1e-12)

    def test_upward_overflow_names_the_first_node(self):
        # log w = 1000 - x^2: w overflows on |x| < 17.0, its square root nowhere;
        # at p = 1 the first overflowing point is the second one
        spec = WeightSpec(1.0, 2.0, 1, W=PotentialExpr((ConstantTerm(-1000.0),)))
        pts = pts1(20.0, 10.0, 0.0)
        assert_allclose(eval_weight_root(spec, pts, 2.0), np.exp((1000.0 - pts[0] ** 2) / 2))
        with pytest.raises(ValueError, match=r"overflows at node \(1,\), x = \(10\.0,\): "
                                             r"log w = 900 exceeds p \* log\(float max\) = "
                                             r"709\.783 at p = 1$"):
            eval_weight(spec, pts)

    def test_opposite_overflows_are_undefined(self):
        # beta |x|^2 = +inf and W = -inf at |x| = 5 leave inf - inf, not NaN
        spec = WeightSpec(1e307, 2.0, 1, W=PotentialExpr((PowerAbsTerm(-1e307, 2.0),)))
        with pytest.raises(ValueError, match=r"undefined \(inf - inf\) at x = \(5\.0,\)"):
            eval_weight(spec, pts1(0.0, 5.0))

    @pytest.mark.parametrize("doc, message", [
        ({"beta": math.nan, "q": 2.0, "dim": 1}, "beta: expected a finite number, got nan"),
        ({"beta": "2", "q": 2.0, "dim": 1}, "beta: expected a finite number, got '2'"),
        ({"beta": 1.0, "q": 2.0, "dim": 1.9}, "dim: expected an integer, got 1.9"),
        ({"beta": 1.0, "q": 2.0}, "dim: required field is missing"),
        ({"beta": 1.0, "q": 2.0, "dim": 1, "gamma": 1.0}, "gamma: unknown field"),
        ({"beta": 0, "q": 2.0, "dim": 1}, "beta: must be nonzero"),
    ])
    def test_from_json_rejects_as_parse_config(self, doc, message):
        with pytest.raises(ValueError) as err:
            WeightSpec.from_json(doc)
        assert str(err.value) == message
        with pytest.raises(ConfigError) as err:
            parse_config({"weight": doc})
        assert str(err.value) == f"weight.{message}"

    def test_json_round_trip(self):
        spec = WeightSpec(
            2.0,
            3.0,
            1,
            W=PotentialExpr((PowerAbsTerm(0.5, 2.0),)),
            V=PotentialExpr((CosineTerm(1.0, (1.0,)),)),
        )
        doc = {"beta": 2.0, "q": 3.0, "dim": 1,
               "W": [{"kind": "power_abs", "c": 0.5, "s": 2.0}],
               "V": [{"kind": "cosine", "c": 1.0, "k": [1.0]}]}
        assert WeightSpec.from_json(doc) == spec

    def test_drift_closed_form(self):
        # for w = exp(-x^2), grad(w)/w = -2x
        p = pts1(-1.0, 0.5, 2.0)
        assert_allclose(eval_log_drift(GAUSS, p)[0], -2.0 * p[0])

    def test_drift_with_potentials(self):
        spec = WeightSpec(
            1.0, 2.0, 1,
            W=PotentialExpr((QuadraticTerm(0.5),)),
            V=PotentialExpr((CosineTerm(1.0, (1.0,)),)),
        )
        x = 0.7
        expected = -2.0 * x - x + math.sin(x)
        assert eval_log_drift(spec, pts1(x))[0][0] == pytest.approx(expected)

    def test_overflowing_drift_keeps_zero_components(self):
        drift = eval_log_drift(WeightSpec(1e307, 3.0, 2), np.array([[6.0], [0.0]]))
        assert [d.tolist() for d in drift] == [[-math.inf], [0.0]]

    def test_self_drift_coef(self):
        assert check_admissibility(WeightSpec(2.0, 3.0, 1)).drift_budget == pytest.approx(6.0)

    def test_grid_helpers(self):
        g = build_grid(1, 6.0, 301)
        w = weight_on_grid(GAUSS, g)
        r = root_on_grid(GAUSS, g, 2.0)
        assert_allclose(r.values**2, w.values, atol=1e-300)
        assert_allclose(eval_log_drift(GAUSS, g.coordinates())[0], -2.0 * g.axis())


class TestGrowthFits:
    """The growth constants of |grad W| <= delta*|x|^(q-1) + gamma, which
    check_admissibility certifies from the terms of W."""

    @staticmethod
    def growth(terms, q: float = 2.0, dim: int = 1):
        rep = check_admissibility(WeightSpec(1.0, q, dim, W=PotentialExpr(terms)))
        return rep.delta, rep.gamma

    def test_quadratic_potential(self):
        # |grad(x^2/2)| = |x| = 1*|x|^(q-1) for q=2: delta=1, gamma=0
        assert self.growth((QuadraticTerm(0.5),)) == (1.0, 0.0)

    def test_cosine_potential(self):
        # |2 sin(2x)| <= |c|*|k| = 2: a cosine goes into gamma alone
        assert self.growth((CosineTerm(1.0, (2.0,)),)) == (0.0, 2.0)

    def test_zero_potential(self):
        assert self.growth(()) == (0.0, 0.0)

    @pytest.mark.parametrize("q", [1.5, 2.0, 2.7, 3.0])
    @pytest.mark.parametrize("c", [0.05, 0.3, -0.4])
    def test_power_q_is_exact(self, q, c):
        # |grad(c|x|^q)| = |c| q |x|^(q-1): delta = |c| q, gamma = 0
        assert self.growth((PowerAbsTerm(c, q),), q) == (abs(c) * q, 0.0)

    def test_lower_powers_split_by_am_gm(self):
        # s = 1.5 at q = 3: theta = 1/4, so 1.5 r^0.5 <= 0.375 r^2 + 1.125
        delta, gamma = self.growth((PowerAbsTerm(1.0, 1.5), PowerAbsTerm(2.0, 1.0)), 3.0)
        assert delta == pytest.approx(0.375) and gamma == pytest.approx(1.125 + 2.0)

    def test_like_terms_merge(self):
        # 0.3|x|^2 - 0.3 x.x and a cosine with k = 0 are constant
        terms = (PowerAbsTerm(0.3, 2.0), QuadraticTerm(-0.3), CosineTerm(5.0, (0.0, 0.0)),
                 ConstantTerm(-7.0))
        assert self.growth(terms, 2.0, 2) == (0.0, 0.0)
        rep = check_admissibility(WeightSpec(1.0, 2.0, 2, W=PotentialExpr(terms),
                                             V=PotentialExpr(terms)))
        assert rep.W_convex and rep.V_bounded and rep.osc_V == 0.0

    @pytest.mark.parametrize("terms", [
        (PowerAbsTerm(0.05, 3.0),),
        (PowerAbsTerm(1e-9, 2.0001),),
        # |c| |k| = 1e309 leaves float range
        (CosineTerm(10.0, (1e308,)), CosineTerm(-10.0, (1.1e308,))),
        (PowerAbsTerm(1e308, 2.0), QuadraticTerm(1e308)),
    ])
    def test_no_bound(self, terms):
        assert self.growth(terms) == (None, None)


class TestAdmissibility:
    def test_gaussian_admissible(self):
        rep = check_admissibility(GAUSS)
        assert isinstance(rep, AdmissibilityReport)
        assert rep.admissible
        assert rep.delta == 0.0 and rep.gamma == 0.0
        assert rep.drift_budget == pytest.approx(2.0)
        assert rep.osc_V == 0.0

    def test_quadratic_w_admissible(self):
        spec = WeightSpec(1.0, 2.0, 1, W=PotentialExpr((QuadraticTerm(0.5),)))
        rep = check_admissibility(spec)
        assert rep.admissible
        assert rep.delta == pytest.approx(1.0)
        assert rep.grad_bound_ok  # 1 < beta*q = 2

    def test_drift_budget_violation(self):
        # W = 3x^2/2 has |W'| = 3|x| with delta = 3 >= beta*q = 2
        spec = WeightSpec(1.0, 2.0, 1, W=PotentialExpr((QuadraticTerm(1.5),)))
        rep = check_admissibility(spec)
        assert not rep.grad_bound_ok
        assert not rep.admissible

    def test_infinite_gamma_fails_the_growth_bound(self):
        # |grad W| = 3.5e308 |x|^2.5 outgrows |x|^(q-1): no gamma bounds it
        spec = WeightSpec(1.0, 2.0, 1, W=PotentialExpr((PowerAbsTerm(1e308, 3.5),)))
        rep = check_admissibility(spec)
        assert rep.gamma is None
        assert rep.grad_bound_ok is False and rep.admissible is False

    @pytest.mark.parametrize("dim, term", [(2, PowerAbsTerm(1e308, 3.5)),
                                           (1, QuadraticTerm(1e308)),
                                           (2, QuadraticTerm(1e308))])
    def test_infinite_gradient_on_the_axes_is_not_undefined(self, dim, term):
        # the gradient's scale overflows, which fails the growth bound, not
        # the check: no NaN is reported
        spec = WeightSpec(1.0, 2.0, dim, W=PotentialExpr((term,)))
        rep = check_admissibility(spec)
        assert rep.gamma is None
        assert rep.grad_bound_ok is False and rep.admissible is False

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            check_admissibility(WeightSpec(-1.0, 2.0, 1))

    def test_json_keys(self):
        d = _round_floats(check_admissibility(GAUSS))
        for key in ("admissible", "delta", "gamma", "W_convex", "V_bounded"):
            assert key in d

    @pytest.mark.parametrize("case", sorted(OUTSIDE_HYPOTHESES))
    def test_weights_outside_the_hypotheses(self, case):
        weight, failure = OUTSIDE_HYPOTHESES[case]
        rep = check_admissibility(WeightSpec.from_json(weight))
        assert rep.admissible is False and rep.failure() == failure

    @pytest.mark.parametrize("c_quad, convex", [(0.25, True), (0.24, False), (0.0, False)])
    def test_quadratic_outweighs_cosines(self, c_quad, convex):
        # W'' >= 2 c_quad - sum |c| |k|^2 = 2 c_quad - 0.5
        W = PotentialExpr((QuadraticTerm(c_quad), CosineTerm(0.125, (1.0, 1.0)),
                           CosineTerm(-0.25, (0.0, 1.0)), PowerAbsTerm(0.5, 3.0)))
        rep = check_admissibility(WeightSpec(1.0, 2.0, 2, W=W))
        assert rep.W_convex is convex

    def test_osc_V_sums_cosines(self):
        V = PotentialExpr((CosineTerm(0.2, (2.0,)), CosineTerm(-0.1, (1.0,)), ConstantTerm(3.0)))
        rep = check_admissibility(WeightSpec(1.0, 2.0, 1, V=V))
        assert rep.V_bounded and rep.osc_V == pytest.approx(0.6)


class TestDoubling:
    def test_lebesgue_is_two(self):
        g = build_grid(1, 6.0, 301)
        one = GridFunction(g, np.ones(g.shape))
        rep = estimate_doubling(one, [Ball.of(0.0, 1.0), Ball.of(1.0, 2.0)])
        assert rep.constant == pytest.approx(2.0, abs=1e-13)

    def test_lebesgue_2d_is_four(self):
        g = build_grid(2, 4.0, 81)
        one = GridFunction(g, np.ones(g.shape))
        rep = estimate_doubling(one, [Ball.of((0.0, 0.0), 1.0)])
        assert rep.constant == pytest.approx(4.0, abs=1e-13)

    def test_gaussian_closed_form(self):
        # ratio for B(0,1) is erf(2)/erf(1)
        g = build_grid(1, 6.0, 601)
        w = weight_on_grid(GAUSS, g)
        rep = estimate_doubling(w, [Ball.of(0.0, 1.0)])
        assert rep.constant == pytest.approx(erf(2.0) / erf(1.0), abs=1e-8)

    def test_off_center_ball_large_ratio(self):
        # doubling of a far-out ball blows up for the Gaussian
        g = build_grid(1, 6.0, 601)
        w = weight_on_grid(GAUSS, g)
        rep = estimate_doubling(w, [Ball.of(3.0, 0.5)])
        assert rep.constant > 10.0

    def test_escaping_ball_noted(self):
        g = build_grid(1, 6.0, 301)
        one = GridFunction(g, np.ones(g.shape))
        rep = estimate_doubling(one, [Ball.of(5.0, 2.0)])
        assert rep.constant is None
        assert rep.entries[0].value is None
        assert "escapes" in rep.entries[0].note
        assert rep.entries[0].note == "doubled ball escapes the grid box"

    def test_too_small_ball_noted(self):
        # at the origin, well inside the box, but narrower than two cells
        g = build_grid(1, 6.0, 301)
        one = GridFunction(g, np.ones(g.shape))
        rep = estimate_doubling(one, [Ball.of(0.0, 0.001), Ball.of(0.0, 0.015)])
        assert rep.constant is None
        # both balls too small, then the ball alone (its double spans 2 cells)
        assert [e.note for e in rep.entries] == ["doubled ball spans fewer than two grid cells",
                                                 "ball spans fewer than two grid cells"]
        rep = estimate_muckenhoupt(one, 2.0, [Ball.of(0.0, 0.001)])
        assert rep.constant is None
        assert rep.entries[0].note == "ball spans fewer than two grid cells"

    def test_massless_ball_noted(self):
        g = build_grid(1, 6.0, 301)
        w = GridFunction(g, np.where(np.abs(g.axis()) > 1.5, 1.0, 0.0))
        rep = estimate_doubling(w, [Ball.of(0.0, 1.0), Ball.of(1.0, 1.0)])
        assert rep.entries[0] == BallEntry((0.0,), 1.0, None, "ball carries no mass")
        assert rep.constant == rep.entries[1].value > 1.0


class TestMuckenhoupt:
    def test_constant_weight_is_one(self):
        g = build_grid(1, 6.0, 301)
        one = GridFunction(g, np.ones(g.shape))
        rep = estimate_muckenhoupt(one, 2.0, [Ball.of(0.0, 1.0), Ball.of(2.0, 1.5)])
        assert rep.constant == pytest.approx(1.0, abs=1e-13)

    def test_jensen_lower_bound(self):
        g = build_grid(1, 6.0, 301)
        w = weight_on_grid(GAUSS, g)
        for p in (1.5, 2.0, 3.0):
            rep = estimate_muckenhoupt(w, p, [Ball.of(0.0, 2.0), Ball.of(1.0, 1.0)])
            for e in rep.entries:
                assert e.value >= 1.0 - 1e-12

    def test_gaussian_closed_form(self):
        # A_2 product on B(0,1): (pi/4) erf(1) erfi(1)
        g = build_grid(1, 6.0, 601)
        w = weight_on_grid(GAUSS, g)
        rep = estimate_muckenhoupt(w, 2.0, [Ball.of(0.0, 1.0)])
        exact = (np.pi / 4.0) * erf(1.0) * erfi(1.0)
        assert rep.constant == pytest.approx(exact, abs=1e-6)

    def test_power_weight_zero_node(self):
        # w = |x|^(1/2), p = 2 on B(0,r): closed form 4/3 regardless of r
        g = build_grid(1, 6.0, 601)
        w = GridFunction(g, np.abs(g.axis()) ** 0.5)
        rep = estimate_muckenhoupt(w, 2.0, [Ball.of(0.0, 1.0), Ball.of(0.0, 2.0)])
        for e in rep.entries:
            assert e.value == pytest.approx(4.0 / 3.0, abs=1e-4)

    def test_nonintegrable_reciprocal_raises(self):
        # w = x^2 at p = 2 needs int w^{-1} near 0, which diverges
        g = build_grid(1, 6.0, 601)
        w = GridFunction(g, g.axis() ** 2)
        with pytest.raises(ValueError, match="not integrable"):
            estimate_muckenhoupt(w, 2.0, [Ball.of(0.0, 1.0)])

    def test_negative_weight_raises(self):
        g = build_grid(1, 6.0, 301)
        w = GridFunction(g, g.axis())
        with pytest.raises(ValueError, match="negative weight"):
            estimate_muckenhoupt(w, 2.0, [Ball.of(0.0, 1.0)])

    def test_p_at_most_one_rejected(self):
        g = build_grid(1, 6.0, 301)
        one = GridFunction(g, np.ones(g.shape))
        with pytest.raises(ValueError):
            estimate_muckenhoupt(one, 1.0, [Ball.of(0.0, 1.0)])

    def test_escaping_ball(self):
        g = build_grid(1, 6.0, 301)
        one = GridFunction(g, np.ones(g.shape))
        rep = estimate_muckenhoupt(one, 2.0, [Ball.of(6.0, 1.0)])
        assert rep.constant is None
        assert rep.entries[0].note == "ball escapes the grid box"

    @pytest.mark.parametrize("zeros, message", [
        # node 173 lies 2 nodes inside the edge node 175 of B(0, 1)
        ([173], "zero weight node 173 too close to the ball edge"),
        ([140, 160], "weight vanishes at several nodes, e.g. node 160"),
    ])
    def test_zero_nodes_refused_1d(self, zeros, message):
        g = build_grid(1, 6.0, 301)
        w = np.abs(g.axis() - g.axis()[zeros[0]]) ** 0.5
        w[zeros] = 0.0
        with pytest.raises(ValueError) as err:
            estimate_muckenhoupt(GridFunction(g, w), 2.0, [Ball.of(0.0, 1.0)])
        assert str(err.value) == message

    def test_zero_node_refused_2d(self):
        # the power-law extrapolation across a zero node is 1d only
        g = build_grid(2, 2.0, 21)
        w = np.ones(g.shape)
        w[10, 10] = 0.0
        with pytest.raises(ValueError) as err:
            estimate_muckenhoupt(GridFunction(g, w), 2.0, [Ball.of((0.0, 0.0), 1.0)])
        assert str(err.value) == "weight vanishes at node (10, 10) inside a ball"


@settings(max_examples=300, deadline=None)
@given(doc=_SHAPED.map(lambda d: d["weight"]) | _JSON)
def test_from_json_fuzz(doc):
    """from_json raises only ValueError, and agrees with parse_config."""
    try:
        spec = WeightSpec.from_json(doc)
    except ValueError:
        spec = None
    try:
        parsed = parse_config({"weight": doc}).weight
    except ConfigError:
        parsed = None
    assert spec == parsed


def _potentials(dim: int):
    c = st.floats(-2.0, 2.0)
    term = st.one_of(
        st.builds(ConstantTerm, c),
        st.builds(PowerAbsTerm, c, st.floats(1.0, 3.0)),
        st.builds(QuadraticTerm, c),
        st.builds(CosineTerm, c, st.tuples(*[st.floats(-2.0, 2.0)] * dim)),
    )
    return st.lists(term, max_size=3).map(lambda terms: PotentialExpr(tuple(terms)))


@st.composite
def _catalog(draw):
    """(dim, W, V, q, points) with point coordinates up to 1e3."""
    dim = draw(st.sampled_from([1, 2]))
    coords = st.tuples(*[st.floats(-1e3, 1e3)] * dim)
    return (dim, draw(_potentials(dim)), draw(_potentials(dim)), draw(st.floats(1.5, 3.0)),
            np.array(draw(st.lists(coords, min_size=1, max_size=20))))


def _abs_sum(parts) -> np.ndarray:
    """Pointwise sum of the terms' magnitudes: the scale of round-off in a sum."""
    return sum((np.abs(v) for v in parts), np.zeros(()))


def _norms(v) -> np.ndarray:
    """|v| of one array per axis."""
    return np.sqrt(sum(a * a for a in v))


@settings(max_examples=100, deadline=None)
@given(case=_catalog())
def test_growth_bound_holds_far_out(case):
    """The certified (delta, gamma) bound |grad W| far outside any grid box."""
    dim, W, _, q, pts = case
    pts = pts.T
    rep = check_admissibility(WeightSpec(1.0, q, dim, W=W))
    if rep.delta is None:
        assert any(s > q for s in W.merged()[0])
        return
    bound = rep.delta * _norms(pts) ** (q - 1.0) + rep.gamma
    slack = 1e-12 * (1.0 + bound + _abs_sum(_norms(t.grad(pts)) for t in W.terms))
    assert np.all(_norms(W.grad(pts)) <= bound + slack)


@settings(max_examples=100, deadline=None)
@given(case=_catalog())
def test_osc_V_bounds_samples(case):
    """The certified osc_V bounds the spread of V's samples far out."""
    dim, _, V, q, pts = case
    pts = pts.T
    rep = check_admissibility(WeightSpec(1.0, q, dim, V=V))
    if not rep.V_bounded:
        assert V.merged()[0]
        return
    vals = V.value(pts)
    slack = 1e-12 * (1.0 + _abs_sum(t.value(pts) for t in V.terms).max())
    assert vals.max() - vals.min() <= rep.osc_V + slack


@settings(max_examples=100, deadline=None)
@given(case=_catalog(), beta=st.floats(0.1, 3.0), radius=st.floats(0.1, 1e3))
def test_log_oscillation_bounds_samples(case, beta, radius):
    """oscillation_over_ball bounds the spread of log w over B(0, radius)."""
    dim, W, V, q, pts = case
    spec = WeightSpec(beta, q, dim, W=W, V=V)
    pts = np.vstack([np.zeros((1, dim)), pts * (radius / 1e3)]).T
    pts = pts[:, _norms(pts) <= radius]
    vals = spec.exponent(pts)
    terms = (PowerAbsTerm(beta, q),) + W.terms + V.terms
    slack = 1e-12 * (1.0 + _abs_sum(t.value(pts) for t in terms).max())
    assert vals.max() - vals.min() <= oscillation_over_ball(spec, radius) + slack

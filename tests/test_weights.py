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
from wsobolev.grid import GridFunction, build_grid, lattice_points
from wsobolev.weights import (
    AdmissibilityReport,
    Ball,
    ConstantTerm,
    CosineTerm,
    DilationFit,
    PotentialExpr,
    PowerAbsTerm,
    QuadraticTerm,
    WeightSpec,
    check_admissibility,
    check_reciprocal_integrability,
    estimate_doubling,
    estimate_muckenhoupt,
    eval_log_drift,
    eval_weight,
    eval_weight_root,
    fit_dilation_bound,
    fit_growth_constants,
    root_on_grid,
    weight_on_grid,
)

GAUSS = WeightSpec(1.0, 2.0, 1)
# the sample lattice check_admissibility fits on over [-6, 6]
FIT_PTS = lattice_points(1, 6.0, 2001)


def pts1(*xs):
    return np.array(xs, dtype=float)[:, None]


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
        assert t.grad(p)[0, 0] == pytest.approx(6.0)
        # gradient of |x|^s is taken as zero at the origin
        assert t.grad(pts1(0.0))[0, 0] == 0.0

    def test_power_abs_needs_exponent_at_least_one(self):
        with pytest.raises(ValueError):
            PowerAbsTerm(1.0, 0.5)

    def test_quadratic(self):
        t = QuadraticTerm(0.5)
        p = np.array([[1.0, 2.0]])
        assert t.value(p)[0] == pytest.approx(2.5)
        assert_allclose(t.grad(p)[0], [1.0, 2.0])

    def test_cosine(self):
        t = CosineTerm(2.0, (3.0,))
        p = pts1(0.0)
        assert t.value(p)[0] == pytest.approx(2.0)
        assert t.grad(p)[0, 0] == pytest.approx(0.0)
        p = pts1(np.pi / 6.0)
        assert t.value(p)[0] == pytest.approx(0.0, abs=1e-15)
        assert t.grad(p)[0, 0] == pytest.approx(-6.0)

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

    def test_neg(self):
        expr = PotentialExpr((QuadraticTerm(1.0),))
        p = pts1(2.0)
        assert (-expr).value(p)[0] == pytest.approx(-expr.value(p)[0])


class TestWeightSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSpec(1.0, 1.0, 1)  # q must exceed 1
        with pytest.raises(ValueError):
            WeightSpec(1.0, 2.0, 3)  # only 1 or 2 dimensions
        # beta carries no sign constraint here; solvers gate on it themselves
        assert WeightSpec(0.0, 2.0, 1).beta == 0.0

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
        assert_allclose(eval_log_drift(GAUSS, p)[:, 0], -2.0 * p[:, 0])

    def test_drift_with_potentials(self):
        spec = WeightSpec(
            1.0, 2.0, 1,
            W=PotentialExpr((QuadraticTerm(0.5),)),
            V=PotentialExpr((CosineTerm(1.0, (1.0,)),)),
        )
        x = 0.7
        expected = -2.0 * x - x + math.sin(x)
        assert eval_log_drift(spec, pts1(x))[0, 0] == pytest.approx(expected)

    def test_overflowing_drift_keeps_zero_components(self):
        drift = eval_log_drift(WeightSpec(1e307, 3.0, 2), np.array([[6.0, 0.0]]))
        assert drift.tolist() == [[-math.inf, 0.0]]

    def test_self_drift_coef(self):
        assert check_admissibility(WeightSpec(2.0, 3.0, 1), 6.0).drift_budget == pytest.approx(6.0)

    def test_grid_helpers(self):
        g = build_grid(1, 6.0, 301)
        w = weight_on_grid(GAUSS, g)
        r = root_on_grid(GAUSS, g, 2.0)
        assert_allclose(r.values**2, w.values, atol=1e-300)
        assert_allclose(eval_log_drift(GAUSS, g.points())[..., 0], -2.0 * g.axis())


class TestGrowthFits:
    def test_quadratic_potential(self):
        # |grad(x^2/2)| = |x| = 1*|x|^(q-1) for q=2: delta=1, gamma=0
        expr = PotentialExpr((QuadraticTerm(0.5),))
        delta, gamma = fit_growth_constants(expr, 2.0, FIT_PTS)
        assert delta == pytest.approx(1.0)
        assert gamma == pytest.approx(0.0, abs=1e-12)

    def test_cosine_potential(self):
        # |2 sin(2x)| <= 4|x| everywhere, so the offset can be driven to zero
        # by slope 4; the fit minimizes the offset first, then the slope
        expr = PotentialExpr((CosineTerm(1.0, (2.0,)),))
        delta, gamma = fit_growth_constants(expr, 2.0, FIT_PTS)
        assert delta == pytest.approx(4.0, abs=0.02)
        assert gamma == pytest.approx(0.0, abs=1e-9)

    def test_zero_potential(self):
        delta, gamma = fit_growth_constants(PotentialExpr(()), 2.0, FIT_PTS)
        assert delta == 0.0 and gamma == 0.0

    def test_undefined_gradient_names_the_point(self):
        # k x overflows to inf beyond |x| = 1.8 (and 1.6), where sin(inf) is NaN
        expr = PotentialExpr((CosineTerm(10.0, (1e308,)), CosineTerm(-10.0, (1.1e308,))))
        with pytest.raises(ValueError, match=r"^grad W is undefined \(NaN\) at x = \(-6\.0,\)$"):
            fit_growth_constants(expr, 2.0, FIT_PTS)

    def test_dilation_quadratic(self):
        # F = -x^2/2 concave: F(2x) = 4F(x) <= c1 F(x) only once c1 >= 4 ...
        # but smaller c1 succeeds with offset 0 since F <= 0.  The scan picks
        # the smallest c1 with offset under the cap, which is c1 = 1.
        expr = -PotentialExpr((QuadraticTerm(0.5),))
        fit = fit_dilation_bound(expr, FIT_PTS)
        assert fit.ok
        assert fit.c1 == pytest.approx(1.0)
        assert fit.c2 <= 0.0 + 1e-12

    def test_dilation_bound_holds_on_samples(self):
        expr = -PotentialExpr((PowerAbsTerm(1.0, 2.5), CosineTerm(1.0, (1.0,))))
        fit = fit_dilation_bound(expr, FIT_PTS)
        assert fit.ok
        xs = np.linspace(-6.0, 6.0, 2001)[:, None]
        lhs = expr.value(2 * xs)
        rhs = fit.c1 * expr.value(xs) + fit.c2
        assert np.all(lhs <= rhs + 1e-9)

    def test_dilation_fit_json(self):
        d = _round_floats(DilationFit(True, 1.0, 0.5))
        assert d == {"ok": True, "c1": 1.0, "c2": 0.5}


class TestAdmissibility:
    def test_gaussian_admissible(self):
        rep = check_admissibility(GAUSS, 6.0)
        assert isinstance(rep, AdmissibilityReport)
        assert rep.admissible
        assert rep.delta == 0.0 and rep.gamma == 0.0
        assert rep.drift_budget == pytest.approx(2.0)
        assert rep.osc_V == 0.0

    def test_quadratic_w_admissible(self):
        spec = WeightSpec(1.0, 2.0, 1, W=PotentialExpr((QuadraticTerm(0.5),)))
        rep = check_admissibility(spec, 6.0)
        assert rep.admissible
        assert rep.delta == pytest.approx(1.0)
        assert rep.grad_bound_ok  # 1 < beta*q = 2

    def test_drift_budget_violation(self):
        # W = 3x^2/2 has |W'| = 3|x| with delta = 3 >= beta*q = 2
        spec = WeightSpec(1.0, 2.0, 1, W=PotentialExpr((QuadraticTerm(1.5),)))
        rep = check_admissibility(spec, 6.0)
        assert not rep.grad_bound_ok
        assert not rep.admissible

    def test_infinite_gamma_fails_the_growth_bound(self):
        # the exponent clamps to -inf, but |grad W| = 3.5e308 |x|^2.5 overflows
        spec = WeightSpec(1.0, 2.0, 1, W=PotentialExpr((PowerAbsTerm(1e308, 3.5),)))
        rep = check_admissibility(spec, 6.0)
        assert rep.gamma == math.inf
        assert rep.grad_bound_ok is False and rep.admissible is False

    @pytest.mark.parametrize("dim, term", [(2, PowerAbsTerm(1e308, 3.5)),
                                           (1, QuadraticTerm(1e308)),
                                           (2, QuadraticTerm(1e308))])
    def test_infinite_gradient_on_the_axes_is_not_undefined(self, dim, term):
        # the gradient's scale overflows to inf, and a zero coordinate keeps a
        # zero component instead of inf * 0 = NaN
        spec = WeightSpec(1.0, 2.0, dim, W=PotentialExpr((term,)))
        rep = check_admissibility(spec, 6.0)
        assert rep.gamma == math.inf
        assert rep.grad_bound_ok is False and rep.admissible is False

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            check_admissibility(WeightSpec(-1.0, 2.0, 1), 6.0)

    def test_json_keys(self):
        d = _round_floats(check_admissibility(GAUSS, 4.0))
        for key in ("admissible", "delta", "gamma", "dilation_W", "dilation_V"):
            assert key in d


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


class TestReciprocalIntegrability:
    def test_gaussian_ok(self):
        g = build_grid(1, 6.0, 301)
        w = weight_on_grid(GAUSS, g)
        rep = check_reciprocal_integrability(w, 2.0)
        assert rep.ok

    def test_p_one_boundedness(self):
        g = build_grid(1, 6.0, 301)
        w = weight_on_grid(GAUSS, g)
        rep = check_reciprocal_integrability(w, 1.0)
        assert rep.ok

    def test_vanishing_node_fails(self):
        g = build_grid(1, 6.0, 301)
        vals = np.ones(g.shape)
        vals[g.index_of(0.0)] = 0.0
        rep = check_reciprocal_integrability(GridFunction(g, vals), 2.0)
        assert not rep.ok
        assert rep.worst_cell is not None

    def test_negative_raises(self):
        g = build_grid(1, 6.0, 301)
        with pytest.raises(ValueError):
            check_reciprocal_integrability(GridFunction(g, -np.ones(g.shape)), 2.0)

    def test_2d_ok(self):
        g = build_grid(2, 3.0, 61)
        w = weight_on_grid(WeightSpec(1.0, 2.0, 2), g)
        assert check_reciprocal_integrability(w, 2.0).ok

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_mirror_image_cells_tie_to_the_smallest_index(self, dim, p):
        # unit cells [-2,-1], [-1,0], [0,1], [1,2] per axis; the worst ratio is
        # on the cells at the origin, whose mirror images tie but for rounding
        g = build_grid(dim, 2.0, 41)
        s = np.exp(-g.axis() ** 2)
        s = 0.5 * (s + s[::-1])
        vals = s if dim == 1 else np.multiply.outer(s, s)
        rep = check_reciprocal_integrability(GridFunction(g, vals), p)
        assert rep.ok and rep.worst_cell == (-1.0,) * dim


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
    dim = draw(st.sampled_from([1, 2]))
    return (dim, draw(_potentials(dim)), draw(_potentials(dim)), draw(st.floats(1.5, 3.0)),
            draw(st.floats(1.0, 6.0)))


@settings(max_examples=60, deadline=None)
@given(case=_catalog())
def test_fits_hold_on_samples(case):
    """The fitted growth and dilation constants bound every lattice sample."""
    dim, W, V, q, half_width = case
    pts = lattice_points(dim, half_width, 401)
    delta, gamma = fit_growth_constants(W, q, pts)
    bound = delta * np.sqrt(np.sum(pts * pts, axis=-1)) ** (q - 1.0) + gamma
    assert np.all(W.grad_norm(pts) <= bound + 1e-12 * (1.0 + bound))
    for F in (-W, -V):
        fit = fit_dilation_bound(F, pts)
        if fit.ok:
            lhs, rhs = F.value(2.0 * pts), fit.c1 * F.value(pts) + fit.c2
            assert np.all(lhs <= rhs + 1e-12 * (1.0 + np.abs(lhs) + np.abs(rhs)))


@settings(max_examples=60, deadline=None)
@given(case=_catalog())
def test_growth_fit_bisection_matches_full_table(case):
    """The bisection picks exactly the (delta, gamma) of the full delta table."""
    dim, W, _, q, half_width = case
    pts = lattice_points(dim, half_width, 401)
    gnorm = W.grad_norm(pts)
    rq = np.sqrt(np.sum(pts * pts, axis=-1)) ** (q - 1.0)
    deltas = np.arange(0.0, 10.0 + 0.5 * 0.01, 0.01)
    gammas = np.maximum(gnorm[None, :] - deltas[:, None] * rq[None, :], 0.0).max(axis=1)
    gmin = gammas.min()
    pick = int(np.argmax(gammas <= gmin + 1e-12 * (1.0 + gmin)))
    assert fit_growth_constants(W, q, pts) == (float(deltas[pick]), float(gammas[pick]))

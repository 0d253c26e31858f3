import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erf, erfi

from test_expr_config import _JSON, _SHAPED
from wsobolev.cli import _SIDECARS, _round_floats
from wsobolev.config import ConfigError, parse_config
from wsobolev.grid import Grid, GridFunction, build_grid, lattice_points, sample_field
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
    drift_on_grid,
    estimate_doubling,
    estimate_muckenhoupt,
    eval_log_drift,
    eval_weight,
    eval_weight_root,
    fit_dilation_bound,
    fit_growth_constants,
    root_on_grid,
    self_drift_coef,
    weight_on_grid,
)

GAUSS = WeightSpec(1.0, 2.0, 1)


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
        back = PotentialExpr.from_json(expr.to_json(), dim=1)
        p = pts1(-1.3, 0.2, 2.7)
        assert_allclose(back.value(p), expr.value(p))
        assert_allclose(back.grad(p), expr.grad(p))

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
        back = WeightSpec.from_json(spec.to_json())
        p = pts1(0.3, -1.7)
        assert_allclose(eval_weight(back, p), eval_weight(spec, p))

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

    def test_self_drift_coef(self):
        assert self_drift_coef(WeightSpec(2.0, 3.0, 1)) == pytest.approx(6.0)

    def test_grid_helpers(self):
        g = build_grid(1, 6.0, 301)
        w = weight_on_grid(GAUSS, g)
        r = root_on_grid(GAUSS, g, 2.0)
        assert_allclose(r.values**2, w.values, atol=1e-300)
        (b,) = drift_on_grid(GAUSS, g)
        assert_allclose(b.values, -2.0 * g.axis())


class TestGrowthFits:
    def test_quadratic_potential(self):
        # |grad(x^2/2)| = |x| = 1*|x|^(q-1) for q=2: delta=1, gamma=0
        expr = PotentialExpr((QuadraticTerm(0.5),))
        delta, gamma = fit_growth_constants(expr, 2.0, 1, 6.0)
        assert delta == pytest.approx(1.0)
        assert gamma == pytest.approx(0.0, abs=1e-12)

    def test_cosine_potential(self):
        # |2 sin(2x)| <= 4|x| everywhere, so the offset can be driven to zero
        # by slope 4; the fit minimizes the offset first, then the slope
        expr = PotentialExpr((CosineTerm(1.0, (2.0,)),))
        delta, gamma = fit_growth_constants(expr, 2.0, 1, 6.0)
        assert delta == pytest.approx(4.0, abs=0.02)
        assert gamma == pytest.approx(0.0, abs=1e-9)

    def test_zero_potential(self):
        delta, gamma = fit_growth_constants(PotentialExpr(()), 2.0, 1, 6.0)
        assert delta == 0.0 and gamma == 0.0

    def test_dilation_quadratic(self):
        # F = -x^2/2 concave: F(2x) = 4F(x) <= c1 F(x) only once c1 >= 4 ...
        # but smaller c1 succeeds with offset 0 since F <= 0.  The scan picks
        # the smallest c1 with offset under the cap, which is c1 = 1.
        expr = -PotentialExpr((QuadraticTerm(0.5),))
        fit = fit_dilation_bound(expr, 1, 6.0)
        assert fit.ok
        assert fit.c1 == pytest.approx(1.0)
        assert fit.c2 <= 0.0 + 1e-12

    def test_dilation_bound_holds_on_samples(self):
        expr = -PotentialExpr((PowerAbsTerm(1.0, 2.5), CosineTerm(1.0, (1.0,))))
        fit = fit_dilation_bound(expr, 1, 6.0)
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

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            check_admissibility(WeightSpec(-1.0, 2.0, 1), 6.0)

    def test_json_keys(self):
        d = _round_floats(check_admissibility(GAUSS, 4.0, n_samples=201))
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

    def test_csv(self):
        g = build_grid(1, 6.0, 301)
        one = GridFunction(g, np.ones(g.shape))
        rep = estimate_doubling(one, [Ball.of(0.0, 1.0)])
        lines = _SIDECARS[type(rep)](rep).splitlines()
        assert lines[0] == "ball_center,ball_radius,value"
        assert lines[1].startswith("0,1,")


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
    n = 401
    pts = lattice_points(dim, half_width, n)
    delta, gamma = fit_growth_constants(W, q, dim, half_width, n)
    bound = delta * np.sqrt(np.sum(pts * pts, axis=-1)) ** (q - 1.0) + gamma
    assert np.all(W.grad_norm(pts) <= bound + 1e-12 * (1.0 + bound))
    for F in (-W, -V):
        fit = fit_dilation_bound(F, dim, half_width, n)
        if fit.ok:
            lhs, rhs = F.value(2.0 * pts), fit.c1 * F.value(pts) + fit.c2
            assert np.all(lhs <= rhs + 1e-12 * (1.0 + np.abs(lhs) + np.abs(rhs)))

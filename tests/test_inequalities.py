import json
import math
import re

import numpy as np
import pytest

from wsobolev import cli, weights
from wsobolev.cli import run
from wsobolev.config import parse_config
from wsobolev.corpus import corpus_members
from wsobolev.grid import GridFunction, build_grid, discrete_gradient, sample_field
from wsobolev.inequalities import (
    InequalityReport,
    build_constant_chain,
    constants_potential,
    constants_xq,
    empirical_poincare_ratio,
    oscillation_over_ball,
    poincare_bound,
    verify_batch,
    verify_poincare,
    verify_potential,
    verify_xq,
)
from wsobolev.weights import (
    CosineTerm,
    PotentialExpr,
    PowerAbsTerm,
    QuadraticTerm,
    WeightSpec,
)

GAUSS = WeightSpec(1.0, 2.0, 1)


class TestConstantFormulas:
    def test_xq_gaussian(self):
        C, D = constants_xq(1.0, 2.0, 1, eps=1.0)
        assert C == pytest.approx(0.5)
        assert D == pytest.approx(2.5)

    def test_xq_dimension_dependence(self):
        C1, D1 = constants_xq(1.0, 2.0, 1, eps=1.0)
        C2, D2 = constants_xq(1.0, 2.0, 2, eps=1.0)
        assert C1 == C2
        assert D2 == pytest.approx(D1 + C1)  # one extra (d-1) C

    def test_xq_validation(self):
        with pytest.raises(ValueError):
            constants_xq(0.0, 2.0, 1, 1.0)
        with pytest.raises(ValueError):
            constants_xq(1.0, 1.0, 1, 1.0)
        with pytest.raises(ValueError):
            constants_xq(1.0, 2.0, 1, 0.0)

    def test_potential_trivial_perturbation(self):
        # no W, no V: C' = eps0*p*C with eps0 = 1/p, D' as in the
        # unperturbed bound plus the Young-term
        c_prime, d_prime, _ = constants_potential(
            2.0, 2.0, 1.0, delta=0.0, gamma=0.0, osc_V=0.0, d=1, eps0=0.5
        )
        assert c_prime == pytest.approx(0.5)
        assert d_prime == pytest.approx(3.0)

    def test_potential_quadratic_w(self):
        # W = x^2/2: delta = 1 < beta*q = 2, lead factor 2
        c_prime, d_prime, _ = constants_potential(
            2.0, 2.0, 1.0, delta=1.0, gamma=0.0, osc_V=0.0, d=1, eps0=0.5
        )
        assert c_prime == pytest.approx(1.0)
        assert d_prime == pytest.approx(6.0)

    def test_gamma_conventions_differ(self):
        kwargs = dict(p=2.0, q=2.0, beta_coeff=1.0, delta=0.0, gamma=2.0, osc_V=0.0, d=1,
                      eps0=0.5)
        _, additive, scaled = constants_potential(**kwargs)
        assert additive == pytest.approx(5.0)
        assert scaled == pytest.approx(4.0)  # gamma enters as C*gamma = 1.0

    def test_terms_beyond_float_range_refused(self):
        with pytest.raises(ValueError, match=re.escape(
                "(1 + eps)^(q - 1) leaves float range (eps = 1, q = 1e+300)")):
            constants_xq(1.0, 1e300, 1, 1.0)
        with pytest.raises(ValueError, match=re.escape(
                "(eps0 p)^(-q/p) leaves float range (eps0 = 4.94066e-324, p = 2, q = 2)")):
            constants_potential(2.0, 2.0, 1.0, 0.0, 0.0, 0.0, 1, eps0=5e-324)

    def test_blow_up_at_drift_budget(self):
        with pytest.raises(ValueError, match="blows up"):
            constants_potential(2.0, 2.0, 1.0, delta=2.0, gamma=0.0, osc_V=0.0, d=1, eps0=0.5)

    def test_oscillation_amplifies(self):
        base = constants_potential(2.0, 2.0, 1.0, 0.0, 0.0, 0.0, 1, eps0=0.5)
        osc = constants_potential(2.0, 2.0, 1.0, 0.0, 0.0, 0.5, 1, eps0=0.5)
        assert osc[0] == pytest.approx(base[0] * math.e)
        assert osc[1] == pytest.approx(base[1] * math.e)


class TestOscillation:
    def test_gaussian_exact(self):
        # log w = -x^2 over B(0,4): oscillation 16
        assert oscillation_over_ball(GAUSS, 4.0) == pytest.approx(16.0)

    def test_flat_potential_zero(self):
        spec = WeightSpec(1e-12, 2.0, 1)
        assert oscillation_over_ball(spec, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_2d(self):
        spec = WeightSpec(1.0, 2.0, 2)
        # max of |x|^2 over the Euclidean ball of radius 2 is 4
        assert oscillation_over_ball(spec, 2.0) == pytest.approx(4.0, rel=1e-3)

    @pytest.mark.parametrize("beta, q, radius", [(1.0, 2.0, 4.0), (0.7, 2.5, 16.0),
                                                 (1.3, 1.6, 3.0), (2.0, 3.0, 0.5)])
    def test_gaussian_is_exact(self, beta, q, radius):
        assert oscillation_over_ball(WeightSpec(beta, q, 1), radius) == beta * radius**q

    def test_terms_add_their_ranges(self):
        # powers merge with beta |x|^q first: (1 + 0.5 - 2) |x|^2 ranges over 0.5 R^2
        spec = WeightSpec(1.0, 2.0, 2,
                          W=PotentialExpr((QuadraticTerm(0.5), PowerAbsTerm(0.25, 3.0))),
                          V=PotentialExpr((PowerAbsTerm(-2.0, 2.0), CosineTerm(0.2, (1.0, 0.0)))))
        assert oscillation_over_ball(spec, 2.0) == pytest.approx(0.5 * 4.0 + 0.25 * 8.0 + 0.4)

    def test_beyond_float_range_is_inf(self):
        spec = WeightSpec(1.0, 2.0, 1, W=PotentialExpr((PowerAbsTerm(1.0, 400.0),)))
        assert oscillation_over_ball(spec, 1e3) == math.inf


class TestPoincareBound:
    def test_gaussian_frozen_value(self):
        c, a_L, log_c = poincare_bound(GAUSS, 2.0, 0.5, 3.0, L=4.0, C4=1.0)
        assert a_L == pytest.approx(16.0)
        expected = 4.0 * (math.exp(32.0) * 16.0 + 0.125) / 0.25
        assert c == pytest.approx(expected, rel=1e-12)
        assert c == pytest.approx(2.0214517806766256e16, rel=1e-10)
        assert log_c == pytest.approx(math.log(expected), rel=1e-12)

    def test_overflow_goes_to_log_space(self):
        # a_L = 1e3 * 4^2: e^(2 a_L) is far beyond float range
        c, a_L, log_c = poincare_bound(WeightSpec(1e3, 2.0, 1), 2.0, 0.5, 3.0, L=4.0, C4=1.0)
        assert c is None
        assert a_L == pytest.approx(16000.0)
        expected = 2 * math.log(2.0) + 32000.0 + math.log(16.0) - math.log(0.25)
        assert log_c == pytest.approx(expected, rel=1e-12)

    def test_L_must_exceed_d_prime(self):
        with pytest.raises(ValueError, match="must exceed"):
            poincare_bound(GAUSS, 2.0, 0.5, 3.0, L=3.0, C4=1.0)

    def test_c4_positive(self):
        with pytest.raises(ValueError):
            poincare_bound(GAUSS, 2.0, 0.5, 3.0, L=4.0, C4=0.0)


class TestConstantChain:
    def test_gaussian_chain(self):
        chain = build_constant_chain(GAUSS, 2.0, C4=1.0, eps0=0.5)
        assert chain.C == pytest.approx(0.5)
        assert chain.D == pytest.approx(2.5)
        assert chain.C_prime == pytest.approx(0.5)
        assert chain.D_prime == pytest.approx(3.0)
        assert chain.D_prime_gamma_scaled == pytest.approx(3.0)  # gamma = 0
        L = chain.L
        assert L == pytest.approx(3.0753, abs=1e-4)
        assert chain.a_L == pytest.approx(L**2, rel=1e-12)
        expected = 4.0 * (math.exp(2.0 * L**2) * L**2 + 0.5 / L) / (1.0 - 3.0 / L)
        assert chain.c == pytest.approx(expected, rel=1e-10)
        assert chain.log_c == pytest.approx(math.log(expected), rel=1e-12)
        # smaller than at the old fixed L = 4, where log10 c was 16.31
        assert chain.log_c < 16.31 * math.log(10.0)

    def test_smallest_bound_past_the_first_bracket(self):
        # log c falls for 3.75 units of log L past log D', so the bracket
        # [log D', log D' + 2] has to move up before golden section narrows it
        spec = WeightSpec(0.05, 1.2, 1)
        chain = build_constant_chain(spec, 1.2, C4=1.0, eps0=100.0)
        assert chain.D_prime == pytest.approx(17.954, abs=1e-3)
        assert chain.L == pytest.approx(762.75, abs=1e-2)
        assert chain.L > chain.D_prime
        assert math.log(chain.L) - math.log(chain.D_prime) > 2.0
        assert chain.log_c == pytest.approx(3.2224537551, abs=1e-9)
        scan = []
        for t in np.linspace(0.0, 10.0, 20001)[1:]:
            L = chain.D_prime * math.exp(t)
            try:
                scan.append(poincare_bound(spec, 1.2, chain.C_prime, chain.D_prime, L, 1.0)[2])
            except ValueError:
                pass
        assert chain.log_c <= min(scan) + 1e-9

    def test_settings_are_keyword_only(self):
        # a stale positional call (p, L, C4) must not read L as C4
        with pytest.raises(TypeError):
            build_constant_chain(GAUSS, 2.0, 4.0, 1.0)

    def test_d_prime_beyond_float_range(self):
        # osc_V = 354.8: e^(2 osc_V) = 1.5e308 stays finite, D' = 3 e^(2 osc_V) does not
        spec = WeightSpec(1.0, 2.0, 1, V=PotentialExpr((CosineTerm(177.4, (1.0,)),)))
        with pytest.raises(ValueError, match=r"^D' leaves float range \(D' = inf\)$"):
            build_constant_chain(spec, 2.0, C4=1.0, eps0=0.5)

    @pytest.mark.parametrize("W, failure", [
        (PowerAbsTerm(0.05, 3.0), "W has no growth bound"),
        (QuadraticTerm(1.5), "the growth bound |grad W| <= delta*|x|^(q-1) + gamma needs delta"),
        (QuadraticTerm(-0.5), "W is not certified convex"),
    ])
    def test_weight_outside_the_hypotheses_has_no_chain(self, W, failure):
        spec = WeightSpec(1.0, 2.0, 1, W=PotentialExpr((W,)))
        with pytest.raises(ValueError) as err:
            build_constant_chain(spec, 2.0, C4=1.0, eps0=0.5)
        assert str(err.value).startswith(f"the weight is not admissible: {failure}")

    def test_quadratic_w_chain(self):
        spec = WeightSpec(1.0, 2.0, 1, W=PotentialExpr((QuadraticTerm(0.5),)))
        chain = build_constant_chain(spec, 2.0, C4=1.0, eps0=0.5)
        assert chain.delta == pytest.approx(1.0)
        assert chain.C_prime == pytest.approx(1.0)
        assert chain.D_prime == pytest.approx(6.0)

    def test_json_layout(self):
        chain = build_constant_chain(GAUSS, 2.0, C4=1.0, eps0=0.5)
        d = chain.to_json()
        assert set(d) == {
            "inputs", "C", "D", "C_prime", "D_prime",
            "D_prime_gamma_scaled", "a_L", "L", "c",
        }
        assert d["inputs"]["p"] == 2.0
        assert "L" not in d["inputs"]
        assert d["L"] == chain.L


class TestVerification:
    @pytest.fixture(scope="class")
    @staticmethod
    def setup():
        g = build_grid(1, 6.0, 301)
        members = corpus_members()
        fields = [(m.name, m.on_grid(g)) for m in members]
        return g, fields

    def test_xq_holds_on_corpus(self, setup):
        _, fields = setup
        for name, f in fields:
            rep = verify_xq(f, discrete_gradient(f), 1.0, 2.0, C=0.5, D=2.5)
            assert rep.holds, name
            assert rep.margin > 0.0

    def test_xq_frozen_worst_member(self, setup):
        _, fields = setup
        f = dict(fields)["bump_cm2_w0.4"]
        rep = verify_xq(f, discrete_gradient(f), 1.0, 2.0, C=0.5, D=2.5)
        assert rep.lhs == pytest.approx(0.0326613943728, rel=1e-9)
        assert rep.rhs == pytest.approx(0.0846119737919, rel=1e-9)

    def test_potential_holds_on_corpus(self, setup):
        _, fields = setup
        for name, f in fields:
            rep = verify_potential(f, discrete_gradient(f), GAUSS, 2.0,
                                   c_prime=0.5, d_prime=3.0)
            assert rep.holds, name

    def test_poincare_holds_on_corpus(self, setup):
        _, fields = setup
        for name, f in fields:
            rep = verify_poincare(f, discrete_gradient(f), GAUSS, 2.0,
                                  c=2.0214517806766256e16)
            assert rep.holds, name

    def test_false_with_tiny_constants(self, setup):
        _, fields = setup
        f = dict(fields)["bump_cm2_w0.4"]
        rep = verify_xq(f, discrete_gradient(f), 1.0, 2.0, C=1e-6, D=1e-6)
        assert not rep.holds
        assert rep.margin < 0.0

    def test_report_margin_consistency(self):
        rep = InequalityReport.of(1.0, 1.5, 0.01)
        assert rep.margin == pytest.approx(0.5)
        assert rep.holds
        # a margin within quadrature error still counts as holding
        rep2 = InequalityReport.of(1.0, 1.0 - 1e-9, 1e-6)
        assert rep2.holds
        rep3 = InequalityReport.of(1.0, 0.9, 1e-6)
        assert not rep3.holds

    def test_batch_csv_layout(self, tmp_path):
        cfg = parse_config({"weight": {"beta": 1.0, "q": 2.0, "dim": 1}})
        run("verify-inequalities", cfg, tmp_path)
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        lines = (tmp_path / "verify_xq.csv").read_text().splitlines()
        assert lines[0] == "corpus_id,lhs,rhs,margin,quadrature_error_estimate,holds"
        assert len(lines) == summary["corpus_size"] + 1
        assert lines[1].startswith("bump_cm2_w0.4,")
        assert lines[1].endswith(",true")


class TestBatch:
    SPEC = WeightSpec(0.7, 2.5, 1, W=PotentialExpr((QuadraticTerm(0.1),)))

    @pytest.mark.parametrize("n", [301, 203])
    def test_rows_equal_batches_of_one(self, n):
        # 301 takes the every-other-node error estimate, 203 the trapezoid one
        g = build_grid(1, 6.0, n)
        fields = [m.on_grid(g) for m in corpus_members()]
        grads = [discrete_gradient(f) for f in fields]
        values = np.stack([f.values for f in fields])
        xq, pot, poi = verify_batch(g, values, self.SPEC, 3.0, C=0.5, D=2.5,
                                    C_prime=0.5, D_prime=3.0, c=1e3)
        for i, (f, gr) in enumerate(zip(fields, grads)):
            assert xq[i] == verify_xq(f, gr, 0.7, 2.5, 0.5, 2.5)
            assert pot[i] == verify_potential(f, gr, self.SPEC, 3.0, 0.5, 3.0)
            assert poi[i] == verify_poincare(f, gr, self.SPEC, 3.0, 1e3)

    def test_cli_evaluates_the_weight_a_fixed_number_of_times(self, tmp_path, monkeypatch):
        calls = []
        real = weights.eval_weight
        monkeypatch.setattr(weights, "eval_weight", lambda *a: calls.append(1) or real(*a))
        cfg = parse_config({"weight": {"beta": 1.0, "q": 2.0, "dim": 1}})
        counts = []
        for size in (18, 2):
            monkeypatch.setattr(cli, "corpus_members", lambda: corpus_members()[:size])
            calls.clear()
            assert run("verify-inequalities", cfg, tmp_path / str(size)) == 0
            counts.append(len(calls))
        # the weight and the radial weight, once each, whatever the corpus size
        assert counts == [2, 2]


class TestEmpiricalPoincare:
    def test_linear_ratio(self):
        # for f = x against the Gaussian: Var/1 = 1/2
        g = build_grid(1, 6.0, 601)
        f = sample_field(g, lambda x: x)
        ratio = empirical_poincare_ratio(f, discrete_gradient(f), GAUSS, 2.0)
        assert ratio == pytest.approx(0.5, abs=1e-8)

    def test_certified_constant_dominates(self):
        g = build_grid(1, 6.0, 301)
        chain = build_constant_chain(GAUSS, 2.0, C4=1.0, eps0=0.5)
        for m in corpus_members()[:5]:
            f = m.on_grid(g)
            ratio = empirical_poincare_ratio(f, discrete_gradient(f), GAUSS, 2.0)
            assert ratio < chain.c

    def test_zero_gradient_rejected(self):
        g = build_grid(1, 6.0, 301)
        f = GridFunction(g, np.ones(g.shape))
        with pytest.raises(ValueError):
            empirical_poincare_ratio(f, discrete_gradient(f), GAUSS, 2.0)

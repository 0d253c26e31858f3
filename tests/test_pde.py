import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wsobolev import pde
from wsobolev.cli import _round_floats, run
from wsobolev.config import parse_config
from wsobolev.grid import Grid, GridFunction, build_grid, sample_field
from wsobolev.pde import (
    EvolutionProblem,
    IntegrabilityGateError,
    ProxConvergenceError,
    SolverSettings,
    StationaryResult,
    Trajectory,
    _edge_differences,
    _edge_differences_transpose,
    _energy_terms,
    _hessian,
    _mass_weights,
    _to_cells,
    _to_edges,
    apply_operator,
    check_lebesgue_compatibility,
    energy,
    energy_with_source,
    prox_step,
    solve_evolution,
    solve_evolution_lebesgue,
    solve_stationary,
)
from wsobolev.weights import CosineTerm, PotentialExpr, WeightSpec

GAUSS = WeightSpec(1.0, 2.0, 1)


def linear_state(n=301, R=6.0):
    g = build_grid(1, R, n)
    return g, sample_field(g, lambda x: x)


class TestSolverSettings:
    def test_defaults(self):
        s = SolverSettings()
        assert s.tolerance == 1e-8
        assert s.max_iterations == 10_000

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverSettings(max_iterations=0)


class TestEvolutionProblem:
    def test_validation(self):
        g, u0 = linear_state(51)
        with pytest.raises(ValueError):
            EvolutionProblem(1.5, GAUSS, u0, 1.0, 0.1)
        with pytest.raises(ValueError):
            EvolutionProblem(2.0, WeightSpec(1.0, 2.0, 2), u0, 1.0, 0.1)
        with pytest.raises(ValueError):
            EvolutionProblem(2.0, GAUSS, u0, -1.0, 0.1)
        with pytest.raises(ValueError):
            EvolutionProblem(2.0, GAUSS, u0, 1.0, 0.1, dualization="dual")
        with pytest.raises(ValueError):
            # weighted flow needs an integrable (decaying) weight
            EvolutionProblem(2.0, WeightSpec(-1.0, 2.0, 1), u0, 1.0, 0.1)
        with pytest.raises(ValueError):
            # the Lebesgue-dualized flow degenerates at p = 2
            EvolutionProblem(2.0, GAUSS, u0, 1.0, 0.1, dualization="lebesgue")


class TestDiscretizationPieces:
    def test_mass_weights_sum_1d(self):
        g = Grid(1, 6.0, 301)
        tw = _mass_weights(g)
        assert tw.sum() == pytest.approx(12.0)
        assert tw[0] == pytest.approx(0.5 * g.spacing)
        assert tw[1] == pytest.approx(g.spacing)

    def test_mass_weights_2d_outer(self):
        g = Grid(2, 2.0, 21)
        tw = _mass_weights(g)
        assert tw.shape == (21, 21)
        assert tw.sum() == pytest.approx(16.0)
        assert tw[0, 0] == pytest.approx(0.25 * g.spacing**2)

    @pytest.mark.parametrize("shape,axis", [((64,), 0), ((17, 23), 0), ((17, 23), 1)])
    def test_gradient_transpose_is_exact_adjoint(self, shape, axis):
        # <D u, e> == <u, D^T e> to rounding, for the edge differences along one axis
        rng = np.random.default_rng(42)
        u = rng.standard_normal(shape)
        h = 0.07
        edges = [np.zeros(d.shape) for d in _edge_differences(u, h)]
        edges[axis] = rng.standard_normal(edges[axis].shape)
        lhs = np.sum(_edge_differences(u, h)[axis] * edges[axis])
        rhs = np.sum(u * _edge_differences_transpose(edges, h))
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-12)

    def test_gradient_matches_numpy(self):
        # the staggered gradient is numpy's first difference over h, on the edges
        u = np.random.default_rng(3).standard_normal((17, 23))
        for axis, d in enumerate(_edge_differences(u, 0.1)):
            assert_allclose(d, np.diff(u, axis=axis) / 0.1)


class TestEnergy:
    def test_linear_p2(self):
        g, u = linear_state(601)
        # (1/2) int w = sqrt(pi)/2
        assert energy(u, GAUSS, 2.0) == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-6)

    def test_linear_p4(self):
        g, u = linear_state(601)
        assert energy(u, GAUSS, 4.0) == pytest.approx(np.sqrt(np.pi) / 4, abs=1e-6)

    def test_constant_zero(self):
        g = build_grid(1, 6.0, 301)
        c = GridFunction(g, np.full(g.shape, 2.0))
        assert energy(c, GAUSS, 3.0) == 0.0

    def test_with_source(self):
        g, u = linear_state(601)
        f = sample_field(g, lambda x: 2.0 * x)
        # sqrt(pi)/2 - 2 * int x^2 w = -sqrt(pi)/2
        val = energy_with_source(u, f, GAUSS, 2.0)
        assert val == pytest.approx(-np.sqrt(np.pi) / 2, abs=1e-6)

    def test_2d_plane(self):
        g = build_grid(2, 4.0, 81)
        u = sample_field(g, lambda x, y: x + y)
        # |grad|^2 = 2, (1/2) * 2 * int w = pi for the 2d Gaussian
        assert energy(u, WeightSpec(1.0, 2.0, 2), 2.0) == pytest.approx(np.pi, abs=1e-5)

    def test_p_validation(self):
        g, u = linear_state(51)
        with pytest.raises(ValueError):
            energy(u, GAUSS, 0.5)


class TestOperator:
    def test_constant_maps_to_zero(self):
        g = build_grid(1, 6.0, 301)
        c = GridFunction(g, np.full(g.shape, 3.0))
        out = apply_operator(c, GAUSS, 2.0)
        assert np.all(out.values == 0.0)

    def test_linear_p2_closed_form(self):
        # A(x) = -(w x')'/w = 2x for the Gaussian weight, second order in h:
        # the discrete d/dx of w carries an h^2 w''' term that w does not
        # divide out, so compare away from the box edge and check the rate
        errs = []
        for n in (301, 601):
            g, u = linear_state(n)
            out = apply_operator(u, GAUSS, 2.0)
            x = g.axis()
            inner = np.abs(x) <= 3.0
            errs.append(np.max(np.abs(out.values[inner] - 2.0 * x[inner])))
        assert errs[1] <= 1.5e-2
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_checkerboard_rayleigh_quotient(self):
        # the odd/even mode differs by +-2/h on every edge, so it is far from
        # the kernel (u = x has quotient 2)
        g = build_grid(1, 6.0, 301)
        tw = _mass_weights(g) * np.exp(-g.axis() ** 2)
        quotients = []
        for vals in ((-1.0) ** np.arange(301), g.axis()):
            u = GridFunction(g, vals)
            au = apply_operator(u, GAUSS, 2.0).values
            quotients.append(np.sum(tw * au * vals) / np.sum(tw * vals**2))
        assert quotients[0] >= 1e3
        assert quotients[1] == pytest.approx(2.0, rel=1e-3)

    def test_weighted_mean_is_zero(self):
        # the divergence structure makes <A(u), 1> vanish identically
        g = build_grid(1, 6.0, 301)
        rng = np.random.default_rng(11)
        u = GridFunction(g, rng.standard_normal(g.shape))
        out = apply_operator(u, GAUSS, 3.0)
        tw = _mass_weights(g)
        w = np.exp(-g.axis() ** 2)
        mean = float(np.sum(tw * w * out.values))
        assert abs(mean) < 1e-10 * float(np.sum(np.abs(tw * w * out.values)) + 1.0)

    def test_p_validation(self):
        g, u = linear_state(51)
        with pytest.raises(ValueError):
            apply_operator(u, GAUSS, 1.5)


class TestProxStep:
    def test_constant_fixed_point(self):
        g = build_grid(1, 6.0, 151)
        c = GridFunction(g, np.full(g.shape, 1.5))
        prob = EvolutionProblem(2.0, GAUSS, c, 0.1, 0.01)
        out = prox_step(c, prob)
        assert_allclose(out.values, 1.5, atol=1e-7)

    def test_ornstein_uhlenbeck_factor(self):
        # p = 2, u0 = x: one implicit step contracts by 1/(1 + 2 tau)
        g, u = linear_state(301)
        tau = 1e-3
        prob = EvolutionProblem(2.0, GAUSS, u, 0.1, tau)
        out = prox_step(u, prob)
        x = g.axis()
        inner = np.abs(x) <= 4.0
        fitted = np.sum(out.values[inner] * x[inner]) / np.sum(x[inner] ** 2)
        assert fitted == pytest.approx(1.0 / (1.0 + 2.0 * tau), rel=1e-4)

    def test_p2_prox_step_differences_each_iterate_once(self, monkeypatch):
        # the start and the accepted trial are the only iterates a p = 2 step
        # evaluates; the Hessian reuses the start's differences
        calls, applies, hessians = [], [], []
        differences, hessian = pde._edge_differences, pde._hessian

        def counted_differences(*args):
            calls.append(args)
            return differences(*args)

        def counted_hessian(*args):
            apply, diag = hessian(*args)
            hessians.append(args)

            def counted_apply(v):
                applies.append(v)
                return apply(v)

            return counted_apply, diag

        monkeypatch.setattr(pde, "_edge_differences", counted_differences)
        monkeypatch.setattr(pde, "_hessian", counted_hessian)
        g = build_grid(1, 6.0, 301)
        u = sample_field(g, np.sin)
        prox_step(u, EvolutionProblem(2.0, GAUSS, u, 0.1, 0.1))
        assert len(hessians) == 1 and len(applies) > 0
        assert len(calls) - len(applies) == 2


class TestEvolution:
    def test_ou_decay_short(self):
        g, u = linear_state(301)
        prob = EvolutionProblem(2.0, GAUSS, u, 0.05, 5e-3)
        traj = solve_evolution(prob)
        assert len(traj.times) == 11
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.05)
        x = g.axis()
        inner = np.abs(x) <= 4.0
        expected = math.exp(-2.0 * 0.05)
        fitted = np.sum(traj.states[-1].values[inner] * x[inner]) / np.sum(x[inner] ** 2)
        assert fitted == pytest.approx(expected, rel=5e-3)

    def test_energy_monotone_and_mean_conserved(self):
        g, u = linear_state(301)
        prob = EvolutionProblem(3.0, GAUSS, u, 0.02, 5e-3)
        traj = solve_evolution(prob)
        e = traj.energies
        assert all(b <= a + 1e-12 for a, b in zip(e, e[1:]))
        drift = max(abs(m - traj.means[0]) for m in traj.means)
        assert drift <= 1e-9

    def test_steady_state(self):
        g = build_grid(1, 6.0, 151)
        c = GridFunction(g, np.full(g.shape, -0.7))
        prob = EvolutionProblem(2.0, GAUSS, c, 0.05, 0.01)
        traj = solve_evolution(prob)
        assert_allclose(traj.states[-1].values, -0.7, atol=1e-6)
        assert max(traj.energies) <= 1e-12

    def test_contraction_of_two_flows(self):
        g = build_grid(1, 6.0, 151)
        u = sample_field(g, lambda x: x)
        v = sample_field(g, lambda x: np.sin(x))
        dists = []
        for p in (2.0, 3.0):
            pu = EvolutionProblem(p, GAUSS, u, 0.02, 5e-3)
            pv = EvolutionProblem(p, GAUSS, v, 0.02, 5e-3)
            tu, tv = solve_evolution(pu), solve_evolution(pv)
            tw = _mass_weights(g) * np.exp(-g.axis() ** 2)
            d = [
                math.sqrt(float(np.sum(tw * (a.values - b.values) ** 2)))
                for a, b in zip(tu.states, tv.states)
            ]
            dists.append(d)
            assert all(b <= a * (1 + 1e-9) for a, b in zip(d, d[1:]))

    def test_trajectory_csv(self, tmp_path):
        cfg = parse_config({"weight": {"beta": 1.0, "q": 2.0, "dim": 1},
                            "grid": {"nodes_per_axis": 151},
                            "evolution": {"T": 0.02, "tau": 0.01}})
        assert run("solve-evolution", cfg, tmp_path) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,energy,mean,inner_iters"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "0"
        assert lines[1].split(",")[3] == "0"  # no inner iterations at t = 0

    def test_wrong_dualization_dispatch(self):
        g = build_grid(1, 6.0, 151)
        u = sample_field(g, lambda x: x)
        prob = EvolutionProblem(3.0, WeightSpec(-1.0, 2.0, 1), u, 0.02, 0.01,
                                dualization="lebesgue")
        with pytest.raises(ValueError):
            solve_evolution(prob)

    def test_convergence_error_carries_iterate(self):
        g, u = linear_state(301)
        settings = SolverSettings(tolerance=1e-14, max_iterations=3)
        prob = EvolutionProblem(2.0, GAUSS, u, 0.1, 0.05, settings=settings)
        with pytest.raises(ProxConvergenceError) as exc:
            solve_evolution(prob)
        assert exc.value.iterate.grid == g
        assert exc.value.residual > 0.0


class TestLebesgueGate:
    def test_growing_weight_passes(self):
        spec = WeightSpec(-1.0, 2.0, 1)  # w = e^{x^2}, reciprocal power decays
        g = build_grid(1, 6.0, 301)
        rep = check_lebesgue_compatibility(spec, g, 3.0)
        assert rep.passes
        assert rep.exponent == pytest.approx(-1.0)
        assert len(rep.radii) == 4
        incs = rep.increments
        assert all(b < a for a, b in zip(incs, incs[1:]))

    def test_decaying_weight_fails(self):
        g = build_grid(1, 6.0, 301)
        rep = check_lebesgue_compatibility(GAUSS, g, 3.0)
        assert not rep.passes
        assert rep.increments[-1] > rep.increments[0]

    def test_p2_rejected(self):
        g = build_grid(1, 6.0, 301)
        with pytest.raises(ValueError):
            check_lebesgue_compatibility(GAUSS, g, 2.0)

    def test_json_keys(self):
        g = build_grid(1, 6.0, 151)
        d = _round_floats(check_lebesgue_compatibility(GAUSS, g, 3.0))
        assert set(d) == {"exponent", "radii", "masses", "increments", "passes"}

    def test_lebesgue_solve_runs_on_passing_weight(self):
        # kept at desk scale: once the growing weight spans many orders of
        # magnitude over the box, the inner solver stalls (next test)
        spec = WeightSpec(-0.5, 2.0, 1)
        g = build_grid(1, 2.0, 101)
        u = sample_field(g, lambda x: np.maximum(1 - x * x, 0.0))
        prob = EvolutionProblem(3.0, spec, u, 0.01, 0.005, dualization="lebesgue")
        traj = solve_evolution_lebesgue(prob)
        e = traj.energies
        assert len(e) == 3
        assert all(b <= a + 1e-12 for a, b in zip(e, e[1:]))

    def test_stall_raises_at_once(self):
        # w = e^(x^2) reaches e^36 on the box: the first step's line search
        # stalls long before the CG budget is spent
        g = build_grid(1, 6.0, 301)
        u = sample_field(g, lambda x: x)
        prob = EvolutionProblem(3.0, WeightSpec(-1.0, 2.0, 1), u, 0.5, 1e-3,
                                dualization="lebesgue")
        with pytest.raises(ProxConvergenceError, match=r"stalled at iteration (\d+)") as exc:
            solve_evolution_lebesgue(prob)
        spent = int(re.search(r"iteration (\d+)", str(exc.value)).group(1))
        assert spent < SolverSettings().max_iterations
        assert exc.value.iterate.grid == g

    def test_lebesgue_constant_is_steady(self):
        spec = WeightSpec(-0.5, 2.0, 1)
        g = build_grid(1, 2.0, 101)
        u = GridFunction(g, np.full(g.shape, 2.5))
        prob = EvolutionProblem(3.0, spec, u, 0.01, 0.005, dualization="lebesgue")
        traj = solve_evolution_lebesgue(prob)
        for state in traj.states:
            assert_allclose(state.values, 2.5, atol=1e-9)

    def test_lebesgue_solve_gate_failure(self):
        g = build_grid(1, 6.0, 151)
        u = sample_field(g, lambda x: x)
        prob = EvolutionProblem(3.0, GAUSS, u, 0.02, 0.01, dualization="lebesgue")
        with pytest.raises(IntegrabilityGateError) as exc:
            solve_evolution_lebesgue(prob)
        assert not exc.value.report.passes
        assert "increment" in str(exc.value)

    def test_lebesgue_dispatch_guard(self):
        g = build_grid(1, 4.0, 151)
        u = sample_field(g, lambda x: x)
        prob = EvolutionProblem(3.0, GAUSS, u, 0.02, 0.01)  # weighted
        with pytest.raises(ValueError):
            solve_evolution_lebesgue(prob)


class TestStationary:
    def test_zero_source_zero_solution(self):
        g = build_grid(1, 6.0, 151)
        f = GridFunction(g, np.zeros(g.shape))
        res = solve_stationary(f, GAUSS, 2.0)
        assert isinstance(res, StationaryResult)
        assert np.max(np.abs(res.state.values)) <= 1e-10
        assert res.residual <= 1e-8

    def test_linear_problem_second_order(self):
        # A(x) = 2x for the Gaussian, so f = 2x has solution x (mean-zero)
        errs = {}
        for n in (301, 601):
            g = build_grid(1, 6.0, n)
            f = sample_field(g, lambda x: 2.0 * x)
            res = solve_stationary(f, GAUSS, 2.0)
            x = g.axis()
            inner = np.abs(x) <= 2.0
            errs[n] = np.max(np.abs(res.state.values - x)[inner])
        assert errs[301] <= 5e-3
        assert errs[301] / errs[601] == pytest.approx(4.0, rel=0.3)

    def test_residual_small(self):
        g = build_grid(1, 6.0, 301)
        f = sample_field(g, lambda x: 2.0 * x)
        res = solve_stationary(f, GAUSS, 2.0)
        assert res.residual <= 1e-6
        assert res.iterations > 0

    def test_incompatible_source_rejected(self):
        g = build_grid(1, 6.0, 151)
        f = sample_field(g, lambda x: x + 1.0)
        with pytest.raises(ValueError, match="incompatible source"):
            solve_stationary(f, GAUSS, 2.0)

    def test_mean_zero_solution(self):
        g = build_grid(1, 6.0, 301)
        f = sample_field(g, lambda x: x**3 - 1.5 * x)
        res = solve_stationary(f, GAUSS, 2.0)
        tw = _mass_weights(g) * np.exp(-g.axis() ** 2)
        mean = float(np.sum(tw * res.state.values)) / float(np.sum(tw))
        assert abs(mean) <= 1e-10

    def test_p_validation(self):
        g = build_grid(1, 6.0, 151)
        f = GridFunction(g, np.zeros(g.shape))
        with pytest.raises(ValueError):
            solve_stationary(f, GAUSS, 1.5)

    def test_runs_out_of_iterations(self):
        # p = 2 converges in one Newton step, so a p = 3 Newton solve is the
        # one that can run out of CG iterations
        g = build_grid(1, 6.0, 301)
        f = sample_field(g, lambda x: 2.0 * x)
        with pytest.raises(ProxConvergenceError, match="in 5 iterations") as exc:
            solve_stationary(f, GAUSS, 3.0, SolverSettings(max_iterations=5))
        assert exc.value.iterate.grid == g
        assert exc.value.residual > 1e-8

    def test_p2_is_one_newton_step(self, monkeypatch):
        solves = []
        pcg = pde._pcg

        def counted(*args):
            out = pcg(*args)
            solves.append(out[1])
            return out

        monkeypatch.setattr(pde, "_pcg", counted)
        g = build_grid(1, 6.0, 301)
        f = sample_field(g, lambda x: 2.0 * x)
        res = solve_stationary(f, GAUSS, 2.0)
        assert len(solves) == 1
        assert res.iterations == solves[0] < 100
        assert res.residual <= 1e-8

    def test_p3_solution(self):
        # w |u'| u' = e^(-x^2) for f = 2x, so u = x solves the p = 3 problem too
        g = build_grid(1, 6.0, 301)
        f = sample_field(g, lambda x: 2.0 * x)
        res = solve_stationary(f, GAUSS, 3.0)
        x = g.axis()
        inner = np.abs(x) <= 2.0
        assert res.residual <= 1e-8
        assert np.max(np.abs(res.state.values - x)[inner]) <= 2e-3

    def test_2d_small(self):
        g = build_grid(2, 3.0, 41)
        spec = WeightSpec(1.0, 2.0, 2)
        f = sample_field(g, lambda x, y: 2.0 * (x + y))
        res = solve_stationary(f, spec, 2.0)
        X, Y = g.mesh()
        inner = np.maximum(np.abs(X), np.abs(Y)) <= 1.5
        assert np.max(np.abs(res.state.values - (X + Y))[inner]) <= 0.05


# ---------------------------------------------------------------------------
# properties of the staggered energy, over dimension, grid and p
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=25, deadline=None)


@st.composite
def weighted_grid(draw):
    """A Gaussian-type weight exp(-beta |x|^2) and a grid, in 1d or 2d."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([9, 11, 15, 21, 31, 41] if dim == 1 else [9, 11, 15, 21]))
    grid = Grid(dim, draw(st.floats(1.0, 3.0)), n)
    return WeightSpec(draw(st.floats(0.5, 1.5)), 2.0, dim), grid


def node_metric(spec, grid):
    return _mass_weights(grid) * np.exp(spec.exponent(grid.points()))


class TestStaggeredProperties:
    @PROPERTY
    @given(wg=weighted_grid(), p=st.sampled_from([2.0, 3.0]), c=st.floats(-5.0, 5.0))
    def test_constants_map_to_exactly_zero(self, wg, p, c):
        spec, grid = wg
        out = apply_operator(GridFunction(grid, np.full(grid.shape, c)), spec, p)
        assert np.all(out.values == 0.0)

    @PROPERTY
    @given(wg=weighted_grid(), p=st.sampled_from([2.0, 3.0]))
    def test_checkerboard_is_stiff(self, wg, p):
        # the odd/even mode is the one a central-difference energy cannot see
        spec, grid = wg
        idx = np.indices(grid.shape).sum(axis=0)
        u = GridFunction(grid, (-1.0) ** idx)
        m = node_metric(spec, grid)
        rq = np.sum(m * apply_operator(u, spec, p).values * u.values) / np.sum(m * u.values**2)
        assert rq >= 1.0 / grid.spacing**2

    @PROPERTY
    @given(wg=weighted_grid(), seed=st.integers(0, 2**32 - 1))
    def test_edge_pairs_are_exact_adjoints(self, wg, seed):
        _, grid = wg
        rng = np.random.default_rng(seed)
        h = grid.spacing
        u = rng.standard_normal(grid.shape)
        diffs = _edge_differences(u, h)
        edges = [rng.standard_normal(d.shape) for d in diffs]
        lhs = sum(np.sum(d * e) for d, e in zip(diffs, edges))
        rhs = np.sum(u * _edge_differences_transpose(edges, h))
        scale = sum(np.sum(np.abs(d * e)) for d, e in zip(diffs, edges))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12 * scale)
        cells = rng.standard_normal((grid.nodes_per_axis - 1,) * grid.dim)
        for a, e in enumerate(edges):
            lhs = np.sum(_to_cells(e, a) * cells)
            assert lhs == pytest.approx(np.sum(e * _to_edges(cells, a)), rel=1e-12, abs=1e-12)

    @PROPERTY
    @given(wg=weighted_grid(), p=st.sampled_from([2.0, 3.0]),
           seed=st.integers(0, 2**32 - 1), tau=st.floats(1e-3, 1e-1))
    def test_prox_step_keeps_mean_and_lowers_energy(self, wg, p, seed, tau):
        spec, grid = wg
        u = GridFunction(grid, np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape))
        out = prox_step(u, EvolutionProblem(p, spec, u, tau, tau))
        m = node_metric(spec, grid)
        drift = abs(np.sum(m * (out.values - u.values))) / np.sum(m)
        assert drift <= 1e-9
        assert energy(out, spec, p) <= energy(u, spec, p) * (1.0 + 1e-12)

    @PROPERTY
    @given(wg=weighted_grid(), p=st.sampled_from([2.0, 3.0]), cosine=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_trajectory_energies_are_state_energies(self, wg, p, cosine, seed):
        # the flow records the energy its Newton solve returned; it must be
        # the energy of the state, to the last bit
        spec, grid = wg
        if cosine:
            spec = replace(spec, V=PotentialExpr((CosineTerm(0.5, (1.5,) * grid.dim),)))
        u = GridFunction(grid, np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape))
        traj = solve_evolution(EvolutionProblem(p, spec, u, 0.02, 0.01))
        assert len(traj.energies) == len(traj.states) == 3
        assert traj.energies == [energy(s, spec, p) for s in traj.states]

    @pytest.mark.parametrize("shape", [(9,), (7, 6)])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_hessian_matches_gradient_differences(self, shape, p):
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal(shape), rng.standard_normal(shape)
        cell_w = rng.uniform(0.5, 2.0, tuple(n - 1 for n in shape))
        apply, diag = _hessian(*_energy_terms(u, 0.3, cell_w, p)[2], 0.3, cell_w, p, 0.0)
        e = 1e-6
        fd = (_energy_terms(u + e * v, 0.3, cell_w, p)[1]
              - _energy_terms(u - e * v, 0.3, cell_w, p)[1]) / (2 * e)
        assert_allclose(apply(v), fd, rtol=0, atol=1e-5 * np.abs(fd).max())
        assert np.all(diag > 0.0)

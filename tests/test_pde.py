import itertools
import math
import re
import tracemalloc
import warnings

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
    StationaryResult,
    _cell_weights,
    _edge_differences,
    _edge_differences_transpose,
    _energy_terms,
    _extrapolate,
    _hessian,
    _mass_weights,
    _node_metric,
    _pcg,
    _prepare,
    _quadratic_energy,
    _solve,
    _to_cells,
    _to_edges,
    _workspace,
    apply_operator,
    check_lebesgue_compatibility,
    evolve,
    solve_evolution,
    solve_stationary,
)
from wsobolev.weights import CosineTerm, PotentialExpr, WeightSpec

GAUSS = WeightSpec(1.0, 2.0, 1)


def linear_state(n=301, R=6.0):
    g = build_grid(1, R, n)
    return g, sample_field(g, lambda x: x)


def one_step(u, p, spec, tau):
    """The state after one implicit-Euler step of the weighted flow."""
    return solve_evolution(EvolutionProblem(p, spec, u, tau, tau)).state


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

    @pytest.mark.parametrize("horizon, step", [(1e300, 1e-300), (math.inf, 0.1), (math.nan, 0.1)])
    def test_step_count_beyond_float_range_refused(self, horizon, step):
        # evolve's step count ceil(T/tau) once raised OverflowError at T/tau = inf
        g, u0 = linear_state(11)
        with pytest.raises(ValueError, match=r"^horizon/step = .* steps is beyond float range$"):
            EvolutionProblem(2.0, GAUSS, u0, horizon, step)


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
    """The p = 2 solvers evaluate the energy as the quadratic form <u, Hu>/2
    (_quadratic_energy), the p > 2 ones as the staggered cell sum
    (_energy_terms)."""

    def test_linear_p2(self):
        g, u = linear_state(601)
        # (1/2) int w = sqrt(pi)/2
        solve = _solve(g.spacing, 2.0, _node_metric(GAUSS, g), _cell_weights(GAUSS, g))
        value = _quadratic_energy(u.values, _hessian(solve), solve)
        assert value == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-6)

    def test_linear_p4(self):
        g, u = linear_state(601)
        value = _energy_terms(u.values, g.spacing, _cell_weights(GAUSS, g), 4.0)[0]
        assert value == pytest.approx(np.sqrt(np.pi) / 4, abs=1e-6)

    def test_constant_zero(self):
        g = build_grid(1, 6.0, 301)
        c = np.full(g.shape, 2.0)
        assert _energy_terms(c, g.spacing, _cell_weights(GAUSS, g), 3.0)[0] == 0.0

    def test_2d_plane(self):
        g = build_grid(2, 4.0, 81)
        u = sample_field(g, lambda x, y: x + y)
        spec = WeightSpec(1.0, 2.0, 2)
        # |grad|^2 = 2, (1/2) * 2 * int w = pi for the 2d Gaussian
        solve = _solve(g.spacing, 2.0, _node_metric(spec, g), _cell_weights(spec, g))
        value = _quadratic_energy(u.values, _hessian(solve), solve)
        assert value == pytest.approx(np.pi, abs=1e-5)


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

    def test_weight_of_another_dimension_refused(self):
        g, u = linear_state(51)
        with pytest.raises(ValueError, match="^weight and grid dimensions differ$"):
            apply_operator(u, WeightSpec(1.0, 2.0, 2), 2.0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_assembles_no_stencil(self, monkeypatch, p):
        # the operator is the staggered gradient at every p
        def refused(*args):
            raise AssertionError("apply_operator assembled a Hessian stencil")

        monkeypatch.setattr(pde, "_hessian", refused)
        g = build_grid(2, 3.0, 21)
        u = sample_field(g, lambda x, y: np.sin(x) * y)
        out = apply_operator(u, WeightSpec(1.0, 2.0, 2), p)
        assert out.values.shape == g.shape and np.all(np.isfinite(out.values))


class TestProxStep:
    def test_constant_fixed_point(self):
        g = build_grid(1, 6.0, 151)
        c = GridFunction(g, np.full(g.shape, 1.5))
        out = one_step(c, 2.0, GAUSS, 0.01)
        assert_allclose(out.values, 1.5, atol=1e-7)

    def test_ornstein_uhlenbeck_factor(self):
        # p = 2, u0 = x: one implicit step contracts by 1/(1 + 2 tau)
        g, u = linear_state(301)
        tau = 1e-3
        out = one_step(u, 2.0, GAUSS, tau)
        x = g.axis()
        inner = np.abs(x) <= 4.0
        fitted = np.sum(out.values[inner] * x[inner]) / np.sum(x[inner] ** 2)
        assert fitted == pytest.approx(1.0 / (1.0 + 2.0 * tau), rel=1e-4)

    def test_p2_prox_step_differences_each_iterate_once(self, monkeypatch):
        # a p = 2 step is one linear solve: it forms no gradient, and each
        # state's differences are formed once, by the value-only pass over the
        # flat stencil for its energy (the initial state's too), and none
        # through the staggered ones; a flow assembles its stencil once
        counts = {"_quadratic_energy": 0, "_energy_terms": 0, "_hessian": 0,
                  "_edge_differences": 0}

        def counted(name):
            fn = getattr(pde, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(pde, name, counted(name))
        g = build_grid(1, 6.0, 301)
        u = sample_field(g, np.sin)
        traj = solve_evolution(EvolutionProblem(2.0, GAUSS, u, 0.3, 0.1))
        assert len(traj.times) == 4
        assert counts == {"_quadratic_energy": 4, "_energy_terms": 0, "_hessian": 1,
                          "_edge_differences": 0}


class TestWorkspace:
    @pytest.mark.parametrize("iterations", [3, 30])
    def test_cg_allocates_only_its_solution(self, iterations):
        # every CG vector but the solution is a row of the solve's workspace
        g = build_grid(2, 6.0, 101)
        spec = WeightSpec(1.0, 2.0, 2)
        solve = _solve(g.spacing, 2.0, _node_metric(spec, g), pde._cell_weights(spec, g))
        rhs = np.random.default_rng(0).standard_normal(g.shape)
        system, ratio = _prepare(_hessian(solve), 1e-2, solve)[2:]
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            x, it, _ = _pcg(system, rhs, ratio, 0.0, iterations, solve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert it == iterations
        assert x.shape == g.shape
        assert (peak - baseline) / rhs.nbytes <= 1.5
        # a warm start is the solution, continued in place, and its residual
        # is formed in work: CG allocates nothing
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            warm = _pcg(system, rhs, ratio, 0.0, iterations, solve, x)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert warm is x
        assert (peak - baseline) / rhs.nbytes <= 0.5

    @pytest.mark.parametrize("shape", [(301,), (101, 101), (41, 41)])
    def test_rows_are_aligned_views(self, shape):
        work = _workspace(shape)
        assert work.shape == (8,) + shape
        flat = work.reshape(len(work), -1)
        for k in range(len(work)):
            assert work[k].ctypes.data % 64 == 0
            assert work[k].flags.c_contiguous
            # a reshape in _pcg or _quadratic_energy writes the rows themselves
            flat[k] = k
            assert np.all(work[k] == k)
        assert [float(row.min()) for row in work] == list(range(len(work)))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_one_workspace_per_solve(self, monkeypatch, p):
        made = []
        workspace = pde._workspace

        def counted(*args):
            made.append(args)
            return workspace(*args)

        monkeypatch.setattr(pde, "_workspace", counted)
        g = build_grid(1, 6.0, 301)
        traj = solve_evolution(EvolutionProblem(p, GAUSS, sample_field(g, np.sin), 0.03, 0.01))
        assert len(traj.times) == 4
        assert len(made) == 1
        made.clear()
        solve_stationary(sample_field(g, lambda x: 2.0 * x), GAUSS, p)
        assert len(made) == 1


class TestPCG:
    @pytest.mark.parametrize("shape", [(301,), (41, 41)])
    def test_warm_start_continues_from_its_iterate(self, shape):
        # CG restarted from its own iterate reaches the target; from the
        # solution it takes no iteration; the start is the solution, continued
        # in place
        g = build_grid(len(shape), 6.0, shape[0])
        spec = WeightSpec(1.0, 2.0, len(shape))
        metric = _node_metric(spec, g)
        solve = _solve(g.spacing, 2.0, metric, pde._cell_weights(spec, g))
        stencil = _hessian(solve)
        shift, positive, system, ratio = _prepare(stencil, 1e-2, solve)
        assert positive and np.array_equal(shift, metric / 1e-2)
        assert np.array_equal(system[0], stencil[0] + shift)
        assert np.array_equal(ratio, system[0] / metric)
        rhs = shift * np.random.default_rng(1).standard_normal(g.shape)
        partial, it, norm = _pcg(system, rhs, ratio, 1e-9, 3, solve)
        assert it == 3 and norm > 1e-9
        x, it, norm = _pcg(system, rhs, ratio, 1e-9, 10_000, solve, partial)
        assert 0 < it < 10_000 and norm <= 1e-9
        assert x is partial
        true = rhs - reference_apply(stencil[0] + shift, stencil[1], x)
        assert math.sqrt(np.vdot(true, true / metric)) <= 1e-9
        solution = x.copy()
        again, it, _ = _pcg(system, rhs, ratio, 1e-6, 10_000, solve, x)
        assert it == 0 and np.array_equal(again, solution)

    def test_infinite_curvature_ends_cg(self):
        # d^T A d overflows on the first direction: CG stops before a step
        g = build_grid(1, 1.0, 11)
        solve = _solve(g.spacing, 2.0, np.ones(g.shape), np.ones(10))
        rhs = np.full(g.shape, 1e160)
        system, ratio = _prepare(_hessian(solve), 1.0, solve)[2:]
        x, it, norm = _pcg(system, rhs, ratio, 1e-9, 100, solve)
        assert it == 0 and norm == math.inf and not x.any()

    def test_p2_norm_beyond_float_range_fails_in_one_message(self):
        # the first CG norm is inf: the same message as at p > 2, not a budget
        g = build_grid(1, 6.0, 301)
        u = sample_field(g, lambda x: 1e200 * x)
        with pytest.raises(ProxConvergenceError, match=r"^the iterate left float range at "
                           r"iteration 0 \(gradient norm inf\)$"):
            solve_evolution(EvolutionProblem(2.0, GAUSS, u, 0.01, 0.01))

    def test_every_newton_system_gets_one_target(self, monkeypatch):
        # a 2d flow's and a stationary solve's CG systems, at p = 3
        targets = []

        def recorded(*args, pcg=pde._pcg):
            targets.append(args[3])
            return pcg(*args)

        monkeypatch.setattr(pde, "_pcg", recorded)
        g = build_grid(2, 6.0, 41)
        u = sample_field(g, lambda x, y: x)
        solve_evolution(EvolutionProblem(3.0, WeightSpec(1.0, 2.0, 2), u, 0.2, 0.1))
        flow = len(targets)
        g = build_grid(1, 6.0, 101)
        solve_stationary(sample_field(g, lambda x: 2.0 * x), GAUSS, 3.0)
        assert 0 < flow < len(targets)
        assert set(targets) == {0.1 * pde._TOLERANCE}


class TestTridiagonal:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 601), seed=st.integers(0, 2**32 - 1),
           relative_shift=st.floats(-8.0, 4.0))
    def test_backward_error_against_dense_solve(self, n, seed, relative_shift):
        # a weighted Laplacian plus a positive shift, as a 1d flow's Newton
        # system is: edge coefficients and right-hand side spanning e^+-36,
        # each edge within e^+-1 of the last, off-diagonals of either sign
        rng = np.random.default_rng(seed)
        k = np.exp(np.clip(rng.uniform(-36.0, 36.0) + np.cumsum(rng.uniform(-1.0, 1.0, n - 1)),
                           -36.0, 36.0))
        diag = np.zeros(n)
        diag[:-1] += k
        diag[1:] += k
        diag *= 1.0 + np.exp(relative_shift + rng.uniform(-1.0, 1.0, n))
        off = k * rng.choice((-1.0, 1.0), n - 1)
        rhs = rng.standard_normal(n) * np.exp(rng.uniform(-36.0, 36.0, n))
        A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)

        def backward_error(x):  # max_i |rhs - A x|_i / (|A| |x| + |rhs|)_i
            return np.max(np.abs(rhs - A @ x) / (np.abs(A) @ np.abs(x) + np.abs(rhs)))

        x = pde._tridiagonal_solve(diag, off, rhs)
        assert backward_error(x) <= 1e-13
        assert backward_error(x) <= max(backward_error(np.linalg.solve(A, rhs)), 1e-15) * 10

    def test_indefinite_system_has_no_solution(self):
        # a pivot that is not positive: the caller solves by CG instead
        assert pde._tridiagonal_solve(np.ones(3), np.full(2, 2.0), np.ones(3)) is None
        assert pde._tridiagonal_solve(np.array([1.0, 1.0]), np.ones(1), np.ones(2)) is None

    def test_agrees_with_cg_on_a_newton_system(self):
        # the Hessian of a 1d p = 3 iterate plus the flow's shift
        g, u = linear_state(301)
        h, cell_w = g.spacing, pde._cell_weights(GAUSS, g)
        vals = u.values + 0.3 * np.sin(3.0 * g.axis())
        _, grad, terms = _energy_terms(vals, h, cell_w, 3.0)
        metric = _node_metric(GAUSS, g)
        solve = _solve(h, 3.0, metric, cell_w)
        centre, neighbours = _hessian(solve, *terms)
        shift = metric / 1e-2
        direct = pde._tridiagonal_solve(centre + shift, neighbours[0][2], -grad)
        cg, it, norm = _pcg((centre + shift, neighbours), -grad, (centre + shift) / metric,
                            1e-12, 10_000, solve)
        assert norm <= 1e-12 and it > 1
        assert math.sqrt(np.vdot(direct - cg, metric * (direct - cg))) <= 1e-9

    @staticmethod
    def counted(monkeypatch):
        """Calls of _pcg, of _tridiagonal_solve and of _hessian, by name."""
        calls = {"_pcg": 0, "_tridiagonal_solve": 0, "_hessian": 0}
        for name in calls:
            def wrapper(*args, fn=getattr(pde, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(pde, name, wrapper)
        return calls

    @pytest.mark.parametrize("dualization, spec, half_width", [
        ("weighted", GAUSS, 6.0), ("lebesgue", WeightSpec(-0.5, 2.0, 1), 2.0)])
    def test_1d_flow_solves_each_newton_system_directly(self, monkeypatch, dualization, spec,
                                                        half_width):
        calls = self.counted(monkeypatch)
        g = build_grid(1, half_width, 101)
        u = sample_field(g, lambda x: np.maximum(1 - x * x, 0.0))
        prob = EvolutionProblem(3.0, spec, u, 0.05, 0.01, dualization=dualization)
        systems = []
        for step in evolve(prob):
            assert step.iterations == calls["_tridiagonal_solve"] == calls["_hessian"]
            systems.append(step.iterations)
            calls.update(_tridiagonal_solve=0, _hessian=0)
        assert len(systems) == 6 and all(systems[1:])
        assert calls["_pcg"] == 0

    def test_2d_flow_and_stationary_solve_use_cg(self, monkeypatch):
        calls = self.counted(monkeypatch)
        g = build_grid(2, 3.0, 21)
        u = sample_field(g, lambda x, y: np.sin(x) * np.cos(y))
        solve_evolution(EvolutionProblem(3.0, WeightSpec(1.0, 2.0, 2), u, 0.02, 0.01))
        assert calls["_pcg"] >= calls["_hessian"] > 0 and calls["_tridiagonal_solve"] == 0
        calls.update(_pcg=0, _hessian=0)
        g = build_grid(1, 6.0, 301)
        solve_stationary(sample_field(g, lambda x: 2.0 * x), GAUSS, 3.0)
        assert calls["_pcg"] >= calls["_hessian"] > 0 and calls["_tridiagonal_solve"] == 0


class TestLayout:
    def test_stencil_layout_is_planned_once_per_solve(self, monkeypatch):
        # _solve plans the stencil's offsets and corners by itertools.product
        # once per solve; every Newton system reads that plan, so the calls
        # do not grow with the systems or the steps
        calls = {"product": 0, "_hessian": 0}
        product, hessian = pde.itertools.product, pde._hessian

        def counted_product(*args, **kwargs):
            calls["product"] += 1
            return product(*args, **kwargs)

        def counted_hessian(*args):
            calls["_hessian"] += 1
            return hessian(*args)

        monkeypatch.setattr(pde.itertools, "product", counted_product)
        monkeypatch.setattr(pde, "_hessian", counted_hessian)
        g, u = linear_state(101)
        made = []
        for steps in (10, 20):  # a 1d p = 3 flow, its systems solved directly
            solve_evolution(EvolutionProblem(3.0, GAUSS, u, steps * 0.01, 0.01))
            made.append(dict(calls))
            calls.update(product=0, _hessian=0)
        g = build_grid(2, 3.0, 21)  # a 2d p = 3 stationary solve, by CG
        solve_stationary(sample_field(g, lambda x, y: 2.0 * (x + y)), WeightSpec(1.0, 2.0, 2), 3.0)
        made.append(dict(calls))
        assert made[0]["_hessian"] >= 10 and made[1]["_hessian"] > made[0]["_hessian"]
        assert made[2]["_hessian"] > 1
        assert [m["product"] for m in made] == [2, 2, 2]


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
        fitted = np.sum(traj.state.values[inner] * x[inner]) / np.sum(x[inner] ** 2)
        assert fitted == pytest.approx(expected, rel=5e-3)

    def test_energy_monotone_and_mean_conserved(self):
        g, u = linear_state(301)
        prob = EvolutionProblem(3.0, GAUSS, u, 0.02, 5e-3)
        traj = solve_evolution(prob)
        e = traj.energies
        assert all(b <= a + 1e-12 for a, b in zip(e, e[1:]))
        drift = max(abs(m - traj.means[0]) for m in traj.means)
        assert drift <= 1e-9

    def test_2d_large_steps_complete(self):
        g = build_grid(2, 6.0, 61)
        u = sample_field(g, lambda x, y: x)
        traj = solve_evolution(EvolutionProblem(4.0, WeightSpec(1.0, 2.0, 2), u, 0.2, 0.1))
        e = traj.energies
        assert len(e) == 3 and all(b <= a + 1e-12 for a, b in zip(e, e[1:]))
        assert max(abs(m - traj.means[0]) for m in traj.means) <= 1e-9

    def test_horizon_between_steps_is_the_last_time(self):
        # T = 0.25 is no whole number of tau = 0.1 steps: the last step is 0.05
        g, u = linear_state(151)
        traj = solve_evolution(EvolutionProblem(2.0, GAUSS, u, 0.25, 0.1))
        assert traj.times == [0.0, 0.1, 0.2, 0.25]
        assert len(traj.times) == len(traj.energies) == len(traj.means) == 4
        e = traj.energies
        assert all(b < a for a, b in zip(e, e[1:]))
        assert max(abs(m - traj.means[0]) for m in traj.means) <= 1e-9

    def test_horizon_below_one_step_takes_one_step(self):
        # T/tau = 1e-16 rounds below the 1e-12 allowance, yet the flow ends at T
        g, u = linear_state(41)
        traj = solve_evolution(EvolutionProblem(2.0, GAUSS, u, 1e-16, 1.0))
        assert traj.times == [0.0, 1e-16]
        assert len(traj.energies) == len(traj.step_iterations) + 1 == 2

    @pytest.mark.parametrize("n, dim, p", [(151, 1, 2.0), (41, 2, 2.0), (151, 1, 3.0),
                                           (41, 2, 3.0)],
                             ids=["151-1", "41-2", "151-1-p3", "41-2-p3"])
    def test_short_last_step_solves_its_own_system(self, n, dim, p):
        # T = 0.25, tau = 0.1: the last step, of 0.05, through the flow's
        # re-prepared system and through a _minimize with a system prepared
        # for its own tau on a fresh workspace
        g = build_grid(dim, 6.0, n)
        spec = WeightSpec(1.0, 2.0, dim, V=PotentialExpr((CosineTerm(0.5, (1.5,) * dim),)))
        steps = list(evolve(EvolutionProblem(p, spec, sample_field(g, lambda *x: x[0]),
                                             0.25, 0.1)))
        assert [s.t for s in steps] == [0.0, 0.1, 0.2, 0.25]
        history = [(s.t, s.state.values) for s in steps[:3]]
        solve = _solve(g.spacing, p, _node_metric(spec, g), pde._cell_weights(spec, g))
        system = _prepare(_hessian(solve) if p == 2.0 else None, 0.25 - 0.2, solve)
        last, iters, value = pde._minimize(solve, g, steps[2].state.values, 0.25 - 0.2, system,
                                           _extrapolate(history, 0.25))
        assert np.array_equal(steps[3].state.values, last)
        assert (steps[3].iterations, steps[3].energy) == (iters, value)

    def test_newton_starts_from_the_last_states_extrapolated(self, monkeypatch):
        # T = 0.25, tau = 0.1: the third step is the short one, to 0.25
        starts = []
        minimize = pde._minimize

        def recorded(*args, **kwargs):
            starts.append(kwargs["start"].copy())
            return minimize(*args, **kwargs)

        monkeypatch.setattr(pde, "_minimize", recorded)
        g = build_grid(1, 6.0, 151)
        steps = list(evolve(EvolutionProblem(2.0, GAUSS, sample_field(g, np.sin), 0.25, 0.1)))
        v0, v1, v2 = (s.state.values for s in steps[:3])
        assert np.array_equal(starts[0], v0)
        assert np.array_equal(starts[1], 2 * v1 - v0)
        # Lagrange weights of the times 0, 0.1, 0.2 at 0.25
        assert_allclose(starts[2], 0.375 * v0 - 1.25 * v1 + 1.875 * v2, rtol=0, atol=1e-14)

    def test_far_field_follows_the_exact_flow(self):
        # u0 = x decays as e^(-2t) x.  At the far corner w = e^-72, so the
        # weighted stopping norm never corrects an iterate there and the
        # step's start's error stays: a cubic start sends it to ~6e3
        g = build_grid(2, 6.0, 101)
        u = sample_field(g, lambda x, y: x)
        traj = solve_evolution(EvolutionProblem(2.0, WeightSpec(1.0, 2.0, 2), u, 0.2, 1e-3))
        exact = math.exp(-0.4) * np.broadcast_arrays(*g.coordinates())[0]
        assert np.abs(traj.state.values - exact).max() <= 0.5

    def test_steady_state(self):
        g = build_grid(1, 6.0, 151)
        c = GridFunction(g, np.full(g.shape, -0.7))
        prob = EvolutionProblem(2.0, GAUSS, c, 0.05, 0.01)
        traj = solve_evolution(prob)
        assert_allclose(traj.state.values, -0.7, atol=1e-6)
        assert max(traj.energies) <= 1e-12

    def test_contraction_of_two_flows(self):
        g = build_grid(1, 6.0, 151)
        u = sample_field(g, lambda x: x)
        v = sample_field(g, lambda x: np.sin(x))
        dists = []
        for p in (2.0, 3.0):
            pu = EvolutionProblem(p, GAUSS, u, 0.02, 5e-3)
            pv = EvolutionProblem(p, GAUSS, v, 0.02, 5e-3)
            tu, tv = evolve(pu), evolve(pv)
            tw = _mass_weights(g) * np.exp(-g.axis() ** 2)
            d = [
                math.sqrt(float(np.sum(tw * (a.state.values - b.state.values) ** 2)))
                for a, b in zip(tu, tv)
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

    def test_convergence_error_carries_iterate(self, monkeypatch):
        g, u = linear_state(301)
        monkeypatch.setattr(pde, "_TOLERANCE", 1e-14)
        monkeypatch.setattr(pde, "_MAX_ITERATIONS", 3)
        prob = EvolutionProblem(2.0, GAUSS, u, 0.1, 0.05)
        with pytest.raises(ProxConvergenceError) as exc:
            solve_evolution(prob)
        assert exc.value.iterate.grid == g
        assert exc.value.residual > 0.0


class TestStreamedFlow:
    # whole steps at p = 2, a short last step at p = 3, a Lebesgue flow, a 2d flow
    CASES = [
        (2.0, GAUSS, 1, 0.05, 0.01, "weighted"),
        (3.0, GAUSS, 1, 0.025, 0.01, "weighted"),
        (3.0, WeightSpec(-0.5, 2.0, 1), 1, 0.01, 0.005, "lebesgue"),
        (2.0, WeightSpec(1.0, 2.0, 2), 2, 0.02, 0.01, "weighted"),
    ]

    @staticmethod
    def problem(p, spec, dim, horizon, tau, dualization):
        g = build_grid(dim, 2.0 if dualization == "lebesgue" else 6.0, 101 if dim == 1 else 41)
        u = sample_field(g, lambda *x: np.sin(x[0]) + 0.5 * x[-1])
        return EvolutionProblem(p, spec, u, horizon, tau, dualization)

    @pytest.mark.parametrize("case", CASES)
    def test_solve_evolution_is_the_fold_of_evolve(self, case):
        problem = self.problem(*case)
        traj = solve_evolution(problem)
        steps = list(evolve(problem))
        assert traj.times == [s.t for s in steps]
        assert traj.energies == [s.energy for s in steps]
        assert traj.means == [s.mean for s in steps]
        assert steps[0].iterations == 0
        assert traj.step_iterations == [s.iterations for s in steps[1:]]
        assert np.array_equal(traj.state.values, steps[-1].state.values)

    @pytest.mark.parametrize("case", CASES)
    def test_states_are_read_only_and_apart_from_u0(self, case):
        problem = self.problem(*case)
        steps = list(evolve(problem))
        traj = solve_evolution(problem)
        kept = [s.state.values.copy() for s in steps]
        for step in steps:
            assert not step.state.values.flags.writeable
            with pytest.raises(ValueError):
                step.state.values[0] = 1.0
        u0 = problem.u0.values
        assert u0.flags.writeable
        assert not any(np.shares_memory(s.state.values, u0) for s in steps)
        u0 += 7.0
        assert all(np.array_equal(s.state.values, v) for s, v in zip(steps, kept))
        assert np.array_equal(traj.state.values, kept[-1])

    # p = 2 at n = 101 and p = 3 at n = 41, tau = 1e-3: from 20 to 200 steps the
    # peak grows by the per-step scalars alone (~20 KB at most), under one state,
    # not by the ~180 states a flow that kept them all would add
    @pytest.mark.parametrize(("p", "n"), [(2.0, 101), (3.0, 41)])
    def test_memory_stays_flat(self, p, n):
        g = build_grid(2, 6.0, n)
        u = sample_field(g, lambda x, y: x)

        def problem(steps):
            return EvolutionProblem(p, WeightSpec(1.0, 2.0, 2), u, steps * 1e-3, 1e-3)

        def peak(steps):
            prob = problem(steps)
            tracemalloc.start()
            try:
                baseline = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                solve_evolution(prob)
                return tracemalloc.get_traced_memory()[1] - baseline
            finally:
                tracemalloc.stop()

        solve_evolution(problem(200))  # a first flow's one-time allocations, outside either peak
        assert peak(200) - peak(20) < u.values.nbytes


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

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_grid_must_nest_four_boxes(self, n):
        # below 9 nodes the boxes repeat (n = 3, 5), so the integrable
        # reciprocal of w = e^(x^2) would fail on zero increments, or the
        # first box is one node (n = 7); at 9 each is one cell wider
        g = build_grid(1, 2.0, n)
        spec = WeightSpec(-1.0, 2.0, 1)
        if n < 9:
            with pytest.raises(ValueError, match=rf"nodes_per_axis >= 9 .*, got {n}$"):
                check_lebesgue_compatibility(spec, g, 3.0)
        else:
            rep = check_lebesgue_compatibility(spec, g, 3.0)
            assert rep.radii == tuple(k * g.spacing for k in (1, 2, 3, 4)) and rep.passes

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
        traj = solve_evolution(prob)
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
            solve_evolution(prob)
        spent = int(re.search(r"iteration (\d+)", str(exc.value)).group(1))
        assert spent < pde._MAX_ITERATIONS
        assert exc.value.iterate.grid == g

    def test_lebesgue_constant_is_steady(self):
        spec = WeightSpec(-0.5, 2.0, 1)
        g = build_grid(1, 2.0, 101)
        u = GridFunction(g, np.full(g.shape, 2.5))
        prob = EvolutionProblem(3.0, spec, u, 0.01, 0.005, dualization="lebesgue")
        for step in evolve(prob):
            assert_allclose(step.state.values, 2.5, atol=1e-9)

    def test_lebesgue_solve_gate_failure(self):
        g = build_grid(1, 6.0, 151)
        u = sample_field(g, lambda x: x)
        prob = EvolutionProblem(3.0, GAUSS, u, 0.02, 0.01, dualization="lebesgue")
        with pytest.raises(IntegrabilityGateError) as exc:
            solve_evolution(prob)
        assert not exc.value.report.passes
        assert "increment" in str(exc.value)
        steps = evolve(prob)  # a generator: the gate runs at its first step
        with pytest.raises(IntegrabilityGateError):
            next(steps)

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

    def test_objective(self):
        # u = x solves f = 2x; sqrt(pi)/2 - 2 int x^2 w = -sqrt(pi)/2
        g = build_grid(1, 6.0, 301)
        res = solve_stationary(sample_field(g, lambda x: 2.0 * x), GAUSS, 2.0)
        assert res.objective == pytest.approx(-np.sqrt(np.pi) / 2, abs=1e-6)

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

    def test_dimension_mismatch_refused(self):
        g = build_grid(1, 6.0, 51)
        with pytest.raises(ValueError, match="^weight and source dimensions differ$"):
            solve_stationary(GridFunction(g, np.zeros(g.shape)), WeightSpec(1.0, 2.0, 2), 2.0)

    def test_runs_out_of_iterations(self, monkeypatch):
        # the budget is shared by every Newton system of the solve (p = 2, one
        # CG run: TestEvolution.test_convergence_error_carries_iterate)
        g = build_grid(1, 6.0, 301)
        f = sample_field(g, lambda x: 2.0 * x)
        monkeypatch.setattr(pde, "_MAX_ITERATIONS", 5)
        with pytest.raises(ProxConvergenceError,
                           match="did not reach tolerance 1e-08 in 5 iterations") as exc:
            solve_stationary(f, GAUSS, 3.0)
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

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_coarse_grid_converges(self, p):
        g = build_grid(1, 6.0, 151)
        res = solve_stationary(sample_field(g, lambda x: 2.0 * x), GAUSS, p)
        assert res.residual <= 1e-6

    def test_iterate_beyond_float_range_fails(self):
        # the energy overflows within two Newton steps, and its gradient is NaN
        config = parse_config({
            "weight": {"beta": 0.121, "q": 2.01, "dim": 1, "V": [
                {"kind": "constant", "c": 17.6}, {"kind": "quadratic_form", "c": -65.5}]},
            "p": 4.0, "grid": {"half_width": 3.09, "nodes_per_axis": 51}})
        f = sample_field(config.grid, lambda x: 2.0 * x)
        with pytest.raises(ProxConvergenceError,
                           match=r"left float range at iteration \d+ \(gradient norm nan\)"):
            solve_stationary(f, config.weight, config.p)

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
        X, Y = np.broadcast_arrays(*g.coordinates())
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


@st.composite
def small_weight_grid(draw):
    """A weight exp(-beta |x|^q - c cos(k . x)) and a grid small enough for a
    dense solve: up to 41 nodes in 1d, 9 x 9 in 2d."""
    dim = draw(st.sampled_from([1, 2]))
    n = 2 * draw(st.integers(2, 20) if dim == 1 else st.integers(1, 4)) + 1
    grid = Grid(dim, draw(st.floats(1.0, 3.0)), n)
    V = PotentialExpr((CosineTerm(draw(st.floats(-1.0, 1.0)),
                                  tuple(draw(st.floats(0.0, 3.0)) for _ in range(dim))),))
    return WeightSpec(draw(st.floats(0.5, 1.5)), draw(st.floats(1.5, 2.5)), dim, V=V), grid


def node_metric(spec, grid):
    return _mass_weights(grid) * np.exp(spec.exponent(grid.coordinates()))


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
        out = one_step(u, p, spec, tau)
        m = node_metric(spec, grid)
        drift = abs(np.sum(m * (out.values - u.values))) / np.sum(m)
        assert drift <= 1e-9
        h, cell_w = grid.spacing, _cell_weights(spec, grid)
        energies = [_energy_terms(v.values, h, cell_w, p)[0] for v in (out, u)]
        assert energies[0] <= energies[1] * (1.0 + 1e-12)

    @PROPERTY
    @given(wg=weighted_grid(), p=st.sampled_from([2.0, 3.0]), cosine=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_trajectory_energies_are_state_energies(self, wg, p, cosine, seed):
        # the flow records the energy its solve returned; it must be
        # the energy of the state, to the last bit
        spec, grid = wg
        if cosine:
            spec = WeightSpec(spec.beta, spec.q, spec.dim, spec.W,
                              PotentialExpr((CosineTerm(0.5, (1.5,) * grid.dim),)))
        u = GridFunction(grid, np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape))
        problem = EvolutionProblem(p, spec, u, 0.02, 0.01)
        traj = solve_evolution(problem)
        states = [step.state for step in evolve(problem)]
        assert len(traj.energies) == len(states) == 3
        # to the bit, by the flow's own evaluation: the quadratic form at p = 2
        h, cell_w = grid.spacing, _cell_weights(spec, grid)
        solve = _solve(h, p, node_metric(spec, grid), cell_w)
        values = ([_quadratic_energy(s.values, _hessian(solve), solve) for s in states] if p == 2.0
                  else [_energy_terms(s.values, h, cell_w, p)[0] for s in states])
        assert traj.energies == values

    @PROPERTY
    @given(k=st.integers(2, 1000), tau=st.floats(1e-4, 1e-1),
           short=st.one_of(st.none(), st.floats(1e-6, 1.0)),
           scales=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_start_reproduces_quadratics(self, k, tau, short, scales, seed):
        # states on the flow's times k tau, the next one whole or short
        a, b, c = np.random.default_rng(seed).standard_normal((3, 5)) * np.c_[scales]
        t = (k + 1) * tau if short is None else (k + short) * tau
        times = [(k - 2) * tau, (k - 1) * tau, k * tau]
        for degree in range(3):
            def poly(s):
                return sum(cf * s**i for i, cf in enumerate((a, b, c)[:degree + 1]))
            history = [(ti, poly(ti)) for ti in times[2 - degree:]]
            scale = max(np.abs(v).max() for _, v in history)
            # times differ by tau at size k tau: k ulps of round-off
            atol = 16 * k * np.finfo(float).eps * scale
            assert_allclose(_extrapolate(history, t), poly(t), rtol=0, atol=atol)
        (_, v0), (_, v1), (t2, v2) = history
        if short is None:
            assert_allclose(_extrapolate(history, t), 3 * v2 - 3 * v1 + v0, rtol=0, atol=atol)
        # one state is the constant start, in a new array, and two states
        # at the first two times the linear one, to the bit
        start = _extrapolate([(t2, v2)], t)
        assert np.array_equal(start, v2) and not np.shares_memory(start, v2)
        assert np.array_equal(_extrapolate([(0.0, v0), (tau, v1)], 2 * tau), 2 * v1 - v0)

    @PROPERTY
    @given(wg=weighted_grid(), p=st.floats(2.0, 4.0), cosine=st.booleans(),
           seed=st.integers(0, 2**32 - 1), gap=st.sampled_from([1e-4, 1e-2, 1.0]))
    def test_operator_is_monotone(self, wg, p, cosine, seed, gap):
        # <Au - Av, u - v> >= 0 in the node metric: E is convex
        spec, grid = wg
        if cosine:
            spec = WeightSpec(spec.beta, spec.q, spec.dim, spec.W,
                              PotentialExpr((CosineTerm(0.5, (1.5,) * grid.dim),)))
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.0, 1.0, grid.shape)
        v = u + gap * rng.uniform(-1.0, 1.0, grid.shape)
        du = apply_operator(GridFunction(grid, u), spec, p).values
        dv = apply_operator(GridFunction(grid, v), spec, p).values
        terms = node_metric(spec, grid) * (du - dv) * (u - v)
        assert np.sum(terms) >= -1e-12 * np.sum(np.abs(terms))

    @PROPERTY
    @given(wg=small_weight_grid(), tau=st.one_of(st.floats(1e-3, 1e-1), st.just(math.inf)),
           seed=st.integers(0, 2**32 - 1))
    def test_p2_step_is_the_dense_linear_solve(self, wg, tau, seed):
        # a p = 2 step solves (H + M/tau) v = (M/tau) u, and the stationary
        # problem (tau = inf) H v = M f over mean-zero v; H's columns come
        # from the staggered gradient of the unit vectors.  The system is
        # solved with M^(1/2) scaled out, so that its condition number stays
        # small, the constants' direction set to 1 when tau = inf
        spec, grid = wg
        h, cell_w = grid.spacing, pde._cell_weights(spec, grid)
        m = _node_metric(spec, grid).reshape(-1)
        rng = np.random.default_rng(seed)
        given_vals = rng.uniform(-1.0, 1.0, grid.shape)
        size = m.size
        dense = np.stack([_energy_terms(np.eye(size)[i].reshape(grid.shape), h, cell_w,
                                        2.0)[1].reshape(-1) for i in range(size)], axis=1)
        root = np.sqrt(m)
        scaled = dense / np.outer(root, root)
        if math.isinf(tau):
            f = given_vals - np.sum(m * given_vals.reshape(-1)) / np.sum(m)
            out = solve_stationary(GridFunction(grid, f), spec, 2.0).state.values
            b = m * f.reshape(-1)
            kernel = root / np.linalg.norm(root)
            scaled += np.outer(kernel, kernel)
        else:
            out = one_step(GridFunction(grid, given_vals), 2.0, spec, tau).values
            b = m * given_vals.reshape(-1) / tau
            scaled += np.diag(np.full(size, 1.0 / tau))
        exact = np.linalg.solve(scaled, b / root) / root
        # the step's true gradient, recomputed through the staggered pass
        g = _energy_terms(out, h, cell_w, 2.0)[1].reshape(-1) - b
        if not math.isinf(tau):
            g += m * out.reshape(-1) / tau
        assert math.sqrt(np.vdot(g, g / m)) <= pde._TOLERANCE
        # so the state is that far from the exact one in the metric norm, by
        # the smallest eigenvalue of the scaled system
        smallest = np.linalg.eigvalsh(scaled)[0]
        err = math.sqrt(np.sum(m * (out.reshape(-1) - exact) ** 2))
        assert err <= pde._TOLERANCE / smallest + 1e-12 * math.sqrt(np.sum(m * exact**2))

    @PROPERTY
    @given(shape=st.lists(st.integers(2, 12), min_size=1, max_size=3).map(tuple),
           h=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_p2_stencil_energy_is_the_staggered_one(self, shape, h, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(shape)
        cell_w = np.exp(rng.uniform(-8.0, 2.0, tuple(n - 1 for n in shape)))
        solve = _solve(h, 2.0, np.ones(shape), cell_w)
        stencil = _hessian(solve)
        value, grad, _ = _energy_terms(v, h, cell_w, 2.0)
        hv = reference_apply(*stencil, v)
        for e in [_quadratic_energy(v, stencil, solve), np.vdot(v, hv) / 2.0]:
            assert e == pytest.approx(value, rel=1e-12)
        assert_allclose(hv, grad, rtol=0, atol=1e-12 * np.abs(grad).max())

    @PROPERTY
    @given(shape=st.lists(st.integers(2, 9), min_size=1, max_size=3).map(tuple),
           p=st.floats(2.0, 4.0), seed=st.integers(0, 2**32 - 1))
    def test_buffered_kernels_equal_the_allocating_ones(self, shape, p, seed):
        # NaN in every scratch slot: a slot read before it is written shows
        rng = np.random.default_rng(seed)
        h = 0.3
        u, v = rng.standard_normal(shape), rng.standard_normal(shape)
        cell_w = np.exp(rng.uniform(-4.0, 2.0, tuple(n - 1 for n in shape)))
        solve = _solve(h, p, np.ones(shape), cell_w)
        stencil = _hessian(solve, *_energy_terms(u, h, cell_w, p)[2])
        for row in solve.rows:
            row[...] = np.nan
        flat, expected = v.reshape(-1), 0.0
        for dst, src, c in stencil[1]:  # the value-only pass, on fresh arrays
            d = flat[src] - flat[dst]
            expected -= float(np.vdot(c * d, d))
        assert _quadratic_energy(v, stencil, solve) == expected / 2.0

    @pytest.mark.parametrize("shape", [(9,), (7, 6)])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_hessian_matches_gradient_differences(self, shape, p):
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal(shape), rng.standard_normal(shape)
        cell_w = rng.uniform(0.5, 2.0, tuple(n - 1 for n in shape))
        diag, neighbours = _hessian(_solve(0.3, p, np.ones(shape), cell_w),
                                    *_energy_terms(u, 0.3, cell_w, p)[2])
        # the forward half of {-1, 0, 1}^d, or of the 2d + 1 point stencil at p = 2
        assert len(neighbours) == ((3 ** len(shape) - 1) // 2 if p > 2.0 else len(shape))
        e = 1e-6
        fd = (_energy_terms(u + e * v, 0.3, cell_w, p)[1]
              - _energy_terms(u - e * v, 0.3, cell_w, p)[1]) / (2 * e)
        assert_allclose(reference_apply(diag, neighbours, v), fd, rtol=0,
                        atol=1e-5 * np.abs(fd).max())
        assert np.all(diag > 0.0)
        # the Jacobi preconditioner is the true diagonal (H e_i)_i
        exact = np.zeros(shape)
        for i in np.ndindex(shape):
            unit = np.zeros(shape)
            unit[i] = e
            exact[i] = (_energy_terms(u + unit, 0.3, cell_w, p)[1][i]
                        - _energy_terms(u - unit, 0.3, cell_w, p)[1][i]) / (2 * e)
        assert_allclose(diag, exact, rtol=1e-4)

    @PROPERTY
    @given(dim=st.sampled_from([1, 2]), n=st.sampled_from([3, 5, 9, 15, 21]),
           p=st.floats(2.0, 5.0), seed=st.integers(0, 2**32 - 1))
    def test_stencil_is_symmetric_semidefinite_and_kills_constants(self, dim, n, p, seed):
        rng = np.random.default_rng(seed)
        h = 1.0 / (n - 1)
        u = rng.standard_normal((n,) * dim)
        cell_w = rng.uniform(0.1, 2.0, (n - 1,) * dim)
        centre, neighbours = _hessian(_solve(h, p, np.ones(u.shape), cell_w),
                                      *_energy_terms(u, h, cell_w, p)[2])
        scale = np.abs(centre).max()
        shifts = []
        for dst, src, c in neighbours:
            # only the forward half is stored, one positive flat shift each,
            # and none of it reaches past the grid: a node is coupled only to
            # nodes at most one apart along every axis, never around an edge
            k = src.start
            assert k > 0 and (dst.start, dst.stop, src.stop) == (0, n**dim - k, n**dim)
            assert c.shape == (n**dim - k,)
            i = np.flatnonzero(c)
            gap = np.subtract(np.unravel_index(i + k, (n,) * dim), np.unravel_index(i, (n,) * dim))
            assert np.all(np.abs(gap) <= 1)
            shifts.append(k)
        assert len(set(shifts)) == len(shifts)
        # the operator is symmetric
        x, y = rng.standard_normal((2,) + (n,) * dim)
        assert np.vdot(x, reference_apply(centre, neighbours, y)) == pytest.approx(
            np.vdot(reference_apply(centre, neighbours, x), y), rel=1e-12,
            abs=1e-13 * scale * np.linalg.norm(x) * np.linalg.norm(y))
        ones = np.ones((n,) * dim)
        assert np.abs(reference_apply(centre, neighbours, ones)).max() <= 1e-13 * scale
        v = rng.standard_normal((n,) * dim)
        assert np.vdot(v, reference_apply(centre, neighbours, v)) >= -1e-13 * scale * np.vdot(v, v)


# ---------------------------------------------------------------------------
# the CG kernel: the stencil product's order and the stopping norm
# ---------------------------------------------------------------------------


def reference_apply(centre, neighbours, v):
    """The flat stencil times v, node by node: the centre's product, then the
    backward products in reverse offset order, then the forward ones."""
    c0, v = centre.reshape(-1).tolist(), v.reshape(-1).tolist()
    out = []
    for i in range(len(v)):
        total = c0[i] * v[i]
        for _, src, c in reversed(neighbours):
            if i >= src.start:
                total += c[i - src.start] * v[i - src.start]
        for _, src, c in neighbours:
            if i + src.start < len(v):
                total += c[i] * v[i + src.start]
        out.append(total)
    return np.array(out).reshape(centre.shape)


class TestCGKernel:
    @pytest.mark.parametrize("shape, p", [((31,), 2.0), ((21, 21), 2.0), ((15, 15), 3.0)],
                             ids=["1d", "2d", "2d-p3"])
    @pytest.mark.parametrize("buffers", ["none", "workspace", "nan"])
    def test_apply_is_the_reference_loop_bit_for_bit(self, shape, p, buffers):
        # _product into fresh arrays, into a workspace's rows, and into rows
        # of NaN, which a slot read before it is written shows
        rng = np.random.default_rng(7)
        h = 0.3
        u, v = rng.standard_normal((2,) + shape)
        cell_w = np.exp(rng.uniform(-8.0, 8.0, tuple(n - 1 for n in shape)))
        centre, neighbours = _hessian(_solve(h, p, np.ones(shape), cell_w),
                                      *_energy_terms(u, h, cell_w, p)[2])
        if buffers == "none":
            out, tmp = np.empty(shape), np.empty(v.size)
        else:
            work = _workspace(shape)
            if buffers == "nan":
                work[...] = np.nan
            out, tmp = work[1], work.reshape(len(work), -1)[5]
        flat_v, flat_out = v.reshape(-1), out.reshape(-1)
        pairs = [(c, flat_v[dst], flat_v[src], flat_out[dst], flat_out[src], tmp[dst])
                 for dst, src, c in neighbours]
        assert pde._product(centre, v, out, pairs) is out
        assert out.tobytes() == reference_apply(centre, neighbours, v).tobytes()

    @PROPERTY
    @given(dim=st.sampled_from([1, 2]), half_n=st.integers(2, 20), p=st.sampled_from([2.0, 3.0]),
           tau=st.sampled_from([math.inf, 1e-3, 0.1, 10.0]), seed=st.integers(0, 2**32 - 1))
    def test_stopping_norm_is_the_residuals_metric_norm(self, dim, half_n, p, tau, seed):
        # cell weights spanning e^+-36; at some nodes the weight is clamped at
        # the smallest float, so their metric is subnormal, the cells they
        # touch sit at the bottom of the range, and the residual is exactly 0
        rng = np.random.default_rng(seed)
        n = 2 * half_n + 1
        g = build_grid(dim, 6.0, n)
        h, cells = g.spacing, (n - 1,) * dim
        clamped = rng.random(g.shape) < 0.2
        log_w = rng.uniform(-36.0, 36.0, cells)
        for corner in itertools.product((0, 1), repeat=dim):
            log_w[clamped[tuple(slice(c, c + n - 1) for c in corner)]] = -36.0
        cell_w = h**dim * np.exp(log_w)
        node_w = np.where(clamped, np.finfo(float).tiny, np.exp(rng.uniform(-36.0, 36.0, g.shape)))
        metric = _mass_weights(g) * node_w
        solve = _solve(h, p, metric, cell_w)
        if p == 2.0:
            system, ratio = _prepare(_hessian(solve), tau, solve)[2:]
        else:  # a Newton system, as _minimize forms it for CG
            shift = _prepare(None, tau, solve)[0]
            centre, neighbours = _hessian(solve, *_energy_terms(
                rng.standard_normal(g.shape), h, cell_w, p)[2])
            system = (np.add(centre, shift, solve.rows[0]), neighbours)
            ratio = np.divide(system[0], metric, solve.rows[7])
        start = rng.standard_normal(g.shape)
        product = reference_apply(*system, start)
        rhs = product + np.where(clamped, 0.0, rng.standard_normal(g.shape) * np.sqrt(metric))
        r = rhs - product
        assert not r[clamped].any()
        expected = math.sqrt(math.fsum((r * r / metric).ravel()))
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            x, it, norm = _pcg(system, rhs, ratio, 0.0, 0, solve, start.copy())
        assert it == 0 and np.array_equal(x, start)
        assert math.isfinite(norm) and norm == pytest.approx(expected, rel=1e-14)

"""Weighted p-Laplacian energy, operator, and implicit-Euler gradient flow.

The flow discretizes du/dt = div(w |grad u|^(p-2) grad u)/w (or its plain-
Lebesgue dualization, without the 1/w) by proximal steps, each minimizing
(1/(2 tau)) ||v - u||^2 + E(v): unconditionally stable, energy-lowering and
mean-preserving, since constants annihilate the operator exactly.

E is staggered.  Differences (u[i+1] - u[i])/h live on the cell edges; a cell
adds (1/p) h^d w(centre) (|grad u|^2)^(p/2), where |grad u|^2 sums over the
axes the mean squared difference on the cell's 2^(d-1) edges along that axis.
For p = 2 that is the 3-point stencil in 1d and the 5-point one in 2d, and
its kernel is the constants alone.  Node sums (the metric, the source
pairing) use trapezoid mass times w at the nodes.  For p > 2 every
minimization is one damped Newton loop; each iterate's edge differences are
formed once, for its energy, gradient and Hessian.  Each Newton system's
Hessian is symmetric and is assembled as the centre and forward half of a
neighbour stencil (one node array per offset o in {-1, 0, 1}^d with o >= 0
lexicographically; -o shares it) and applied flat: on the raveled node arrays
a forward offset is one positive shift, so a CG apply is two contiguous
products per neighbour, one into each end, each formed at the start of an
aligned temporary.  CG is preconditioned by the stencil's exact diagonal,
and its stopping norm is read off the preconditioned residual it forms
anyway, through the diagonal's ratio to the metric, so each CG iteration
divides once.  A flow's Newton system in 1d is tridiagonal (one forward
neighbour) and, with its positive shift M/tau, positive definite, so it is
solved directly, by one O(n) LDL^T factorization, and not by CG; a 2d system
and a stationary one (no shift, constants in the kernel) go to CG.
At p = 2 the problem is linear: each minimization is the one system
(H + M/tau) v = (M/tau) u + M f, solved by a single CG warm-started at the
step's start, and the energy is the quadratic form <v, Hv>/2, formed by one
value-only pass over the flat stencil.  H depends on the weight alone and
is assembled once per flow.  At every p, what depends only on the metric
and tau is prepared once per flow and step length: the shift M/tau, whether
it is positive at every node (a 1d Newton system is factored only then),
and at p = 2 the diagonal of H + M/tau, which CG preconditions by, and its
ratio to the metric, which CG's stopping norm reads.  A horizon that is no
whole number of steps ends on a shorter last step, which gets a system of
its own; a flow takes at least one step.  A stationary solve prepares its
system (tau = inf, no shift) the same way.  Every system CG solves is
formed by _shifted, and every solve stops by one rule in _minimize: the two
places that a V-cycle preconditioner, a stopping norm that counts the far
field and a round-off floor would change.  Each solve works in one scratch
array, whose rows start on 64-byte boundaries and hold the prepared
diagonal and ratio too; CG continues its start in place, so a warm-started
CG allocates nothing, and neither does a step's weighted mean.  What a
solve holds fixed is one record, its _Solve, built once per solve: h, p,
the metric, its sum and the cell weights; the stencil's plan (its offsets,
flat slices and p > 2 corner gathers); and that array's rows.  Each CG
call forms the row views its products read once.  The staggered passes'
index tuples depend on the dimension alone and are built once per
dimension.  Each step of a flow starts from the quadratic through its last
three states, extrapolated in time.  A flow is streamed: evolve yields
each state, read-only, as it is reached, and keeps only the three its next
start needs; solve_evolution keeps only the last.
"""

from __future__ import annotations

import collections
import itertools
import math
from collections.abc import Iterator
from functools import cache, reduce

import numpy as np

from ._record import Record
from .grid import Grid, GridFunction, integrate, tensor_rule, trapezoid_weights
from .weights import WeightSpec, eval_weight

__all__ = [
    "EvolutionProblem",
    "Step",
    "Trajectory",
    "ProxConvergenceError",
    "IntegrabilityGateError",
    "TailReport",
    "apply_operator",
    "evolve",
    "solve_evolution",
    "check_lebesgue_compatibility",
    "StationaryResult",
    "solve_stationary",
]


# a solve stops when the gradient's metric norm (at p = 2, CG's recursive
# residual's) is at most _TOLERANCE, and fails once _MAX_ITERATIONS solver
# iterations are spent: CG iterations, and one per direct solve
_TOLERANCE = 1e-8
_MAX_ITERATIONS = 10_000
# Newton's backtracking line search (p > 2 only): step shrink factor,
# Armijo sufficient-decrease constant, and the round-off allowance, this
# times |objective| + |trial objective|
_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4
_ROUNDOFF = 4.0 * np.finfo(float).eps
# a stationary source's weighted mean may be at most this times max|f|
_COMPATIBILITY_TOL = 1e-6


def _mass_weights(grid: Grid) -> np.ndarray:
    return tensor_rule(grid.shape, grid.spacing, trapezoid_weights)


def _node_metric(spec: WeightSpec, grid: Grid) -> np.ndarray:
    """Trapezoid mass times the weight at the nodes."""
    return _mass_weights(grid) * eval_weight(spec, grid.coordinates())


class EvolutionProblem(Record):
    p: float
    spec: WeightSpec
    u0: GridFunction
    horizon: float
    step: float
    dualization: str = "weighted"

    def __post_init__(self) -> None:
        if self.p < 2.0:
            raise ValueError(f"the degenerate flow needs p >= 2, got {self.p}")
        if self.spec.dim != self.u0.grid.dim:
            raise ValueError("weight and initial state dimensions differ")
        if self.horizon <= 0.0 or self.step <= 0.0:
            raise ValueError("horizon and step must be positive")
        if not math.isfinite(self.horizon / self.step):
            raise ValueError(f"horizon/step = {self.horizon:g}/{self.step:g} steps is beyond "
                             f"float range")
        if self.dualization not in ("weighted", "lebesgue"):
            raise ValueError(f"unknown dualization {self.dualization!r}")
        if self.dualization == "weighted" and self.spec.beta <= 0.0:
            raise ValueError("weighted dualization needs beta > 0 (integrable weight)")
        if self.dualization == "lebesgue" and self.p <= 2.0:
            raise ValueError("lebesgue dualization is defined for p > 2 only")


class ProxConvergenceError(RuntimeError):
    """The inner CG or Newton solve failed; carries the last iterate."""

    def __init__(self, message: str, iterate: GridFunction, residual: float):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


class IntegrabilityGateError(RuntimeError):
    """The reciprocal-power integrability gate failed; carries the report."""

    def __init__(self, message: str, report: "TailReport"):
        super().__init__(message)
        self.report = report


class Step(Record):
    """One time of a flow: its state (read-only), energy and weighted mean, and
    the solver iterations (CG iterations, one per direct solve) of the solve
    that reached it (0 at t = 0)."""

    t: float
    state: GridFunction
    energy: float
    mean: float
    iterations: int


class Trajectory(Record):
    """A flow's times, energies and means at each of them, the solver
    iterations of each step's solve (one fewer: none at t = 0), and its last
    state; solve_evolution builds it once, when the flow has run."""

    times: list[float]
    energies: list[float]
    means: list[float]
    step_iterations: list[int]
    state: GridFunction


# ---------------------------------------------------------------------------
# staggered energy and operator
# ---------------------------------------------------------------------------


def _cell_weights(spec: WeightSpec, grid: Grid) -> np.ndarray:
    """h^d times the weight at the cell centres."""
    x = grid.axis()
    mid = 0.5 * (x[:-1] + x[1:])
    centres = np.meshgrid(*[mid] * grid.dim, indexing="ij", sparse=True)
    return grid.spacing**grid.dim * eval_weight(spec, centres)


@cache
def _axis_ends(dim: int) -> tuple:
    """Per axis a, the index of an array without its last and the index of
    it without its first slice along a (of any array with more than a axes)."""
    return tuple(((slice(None),) * a + (slice(None, -1),), (slice(None),) * a + (slice(1, None),))
                 for a in range(dim))


def _edge_differences(vals: np.ndarray, h: float) -> list[np.ndarray]:
    """(u[i+1] - u[i])/h along each axis, on that axis's edges."""
    return [np.subtract(vals[hi], vals[lo]) / h for lo, hi in _axis_ends(vals.ndim)]


def _spread(x: np.ndarray, axis: int, op=np.add) -> np.ndarray:
    """y[i] = op(x[i - 1], x[i]) along `axis`, x being zero beyond its ends:
    one slot longer than x, without a padded copy."""
    y = np.zeros(x.shape[:axis] + (x.shape[axis] + 1,) + x.shape[axis + 1:])
    lo, hi = _axis_ends(x.ndim)[axis]
    lo, hi = y[lo], y[hi]
    op(lo, x, out=lo)
    hi += x
    return y


def _edge_differences_transpose(edges: list[np.ndarray], h: float) -> np.ndarray:
    """Exact adjoint of _edge_differences: minus the difference of the edge
    values, zero beyond the ends."""
    return reduce(np.add, [_spread(e, a, np.subtract) for a, e in enumerate(edges)]) / h


def _to_cells(edge: np.ndarray, axis: int) -> np.ndarray:
    """Mean over a cell's edges along `axis`: pairs along every other axis."""
    for b, (lo, hi) in enumerate(_axis_ends(edge.ndim)):
        if b != axis:
            edge = 0.5 * (edge[lo] + edge[hi])
    return edge


def _to_edges(cell: np.ndarray, axis: int) -> np.ndarray:
    """Exact adjoint of _to_cells."""
    for b in range(cell.ndim):
        if b != axis:
            cell = 0.5 * _spread(cell, b)
    return cell


def _energy_terms(vals: np.ndarray, h: float, cell_w: np.ndarray, p: float):
    """The discrete energy, its Euclidean gradient sum_a D_a^T(k_a D_a u) with
    edge coefficients k_a = A_a^T(cell_w |grad u|^(p-2)), and the edge
    differences and cell values |grad u|^2 that both are formed from."""
    diffs = _edge_differences(vals, h)
    s = reduce(np.add, [_to_cells(d * d, a) for a, d in enumerate(diffs)])  # |grad u|^2
    value = float((cell_w * s ** (p / 2.0)).sum()) / p
    coef = cell_w * s ** ((p - 2.0) / 2.0)
    grad = _edge_differences_transpose([_to_edges(coef, a) * d for a, d in enumerate(diffs)], h)
    return value, grad, (diffs, s)


def apply_operator(u: GridFunction, spec: WeightSpec, p: float) -> GridFunction:
    """Riesz representative of v -> int |grad u|^(p-2) <grad u, grad v> w dx
    in the weighted node inner product (discrete no-flux boundary)."""
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")
    grid = u.grid
    grad = _energy_terms(u.values, grid.spacing, _cell_weights(spec, grid), p)[1]
    return GridFunction(grid, grad / _node_metric(spec, grid))


# ---------------------------------------------------------------------------
# the Newton-CG solver core
# ---------------------------------------------------------------------------


class _Solve(Record):
    """What a solve's Newton-CG core holds fixed, built once per solve by
    _solve, so that a Newton system, a CG call, an evaluation and a step pay
    only for their arithmetic."""

    h: float  # the grid spacing
    p: float
    metric: np.ndarray  # node mass times the weight (trapezoid mass alone: Lebesgue)
    metric_total: float  # its sum
    cell_w: np.ndarray  # h^d times the weight at the cell centres
    arrays: int  # the stencil's node arrays, one per offset (see _hessian), centre first
    axes: tuple  # per axis, the index of its forward offset
    neighbours: tuple  # per forward neighbour: its flat (dst, src) slices and its index
    gather: tuple  # p > 2, per cell corner c: g's entry at c, as (axis, edges, sign) terms
    couplings: tuple  # p > 2, per corner c: its nodes, and (e, index of e - c) per e >= c
    rows: tuple  # the solve's workspace (see _workspace), in rows of the node shape
    flat: tuple  # its rows, raveled


def _solve(h: float, p: float, metric: np.ndarray, cell_w: np.ndarray) -> _Solve:
    """The record of a solve with spacing h and exponent p on nodes of the
    metric's shape, with its stencil's plan (the Hessian moves with the
    iterate exactly when p > 2: nonlinear) and its workspace."""
    shape, dim, nonlinear = metric.shape, metric.ndim, p > 2.0
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=dim)
               if o >= (0,) * dim and (nonlinear or sum(map(abs, o)) <= 1)]
    axes = tuple(offsets.index(tuple(int(b == a) for b in range(dim))) for a in range(dim))
    # flat, o is the positive shift k = sum_a o_a stride_a
    strides, size = [math.prod(shape[a + 1:]) for a in range(dim)], math.prod(shape)
    neighbours = tuple((slice(0, size - k), slice(k, size), i) for i, o in enumerate(offsets)
                       if (k := sum(x * t for x, t in zip(o, strides))))
    corners = list(itertools.product((0, 1), repeat=dim)) if nonlinear else []

    def at(corner):  # the cells' corner nodes, or edges, at `corner`
        return tuple(slice(c, c + m - 1) for c, m in zip(corner, shape))

    gather = tuple(tuple((a, at(c[:a] + (0,) + c[a + 1:]), 2 * c[a] - 1) for a in range(dim))
                   for c in corners)
    couplings = tuple((at(c), tuple((j, offsets.index(tuple(y - x for x, y in zip(c, e))))
                                    for j, e in enumerate(corners) if j >= i))
                      for i, c in enumerate(corners))
    work = _workspace(shape)
    return _Solve(h, p, metric, float(metric.sum()), cell_w, len(offsets), axes, neighbours,
                  gather, couplings, tuple(work), tuple(work.reshape(len(work), -1)))


def _hessian(solve: _Solve, diffs: list | None = None,
             s: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """The energy's Hessian at the iterate with edge differences diffs and
    |grad u|^2 = s, raised by 1e-6 of its weighted mean (by 1 if u is constant)
    to stay definite where the gradient vanishes, as the flat stencil that
    _product takes: its centre c_0 and, per offset o in {-1, 0, 1}^d with
    o > 0 in lexicographic order (in product order), the neighbour (dst,
    src, c_o[dst]) on the raveled node arrays, src = dst + o.  H is
    symmetric, so c_o also stands for the backward offset -o, whose
    coefficient at i + o is c_o[i]: (Hv)[i] = sum_o c_o[i] v[i + o] +
    c_o[i - o] v[i - o], the centre once.  Each c_o is assembled as a node
    array.  H is sum_a D_a^T diag(k_a) D_a with edge coefficients k_a =
    A_a^T(cell_w (s + eps)^((p-2)/2)), plus, for p > 2, per cell r g g^T
    with r = (p-2) cell_w (s + eps)^((p-4)/2) and g . v = sum_a of the
    cell's mean of diffs_a D_a v.  At p = 2 that term vanishes and the rest
    is cell_w's alone, so diffs and s are not needed.  h, p, cell_w and the
    offsets, slices and gathers are the solve's."""
    h, p, cell_w = solve.h, solve.p, solve.cell_w
    q, r = cell_w, None
    if p > 2.0:
        eps = 1e-6 * float((cell_w * s).sum() / cell_w.sum()) or 1.0
        q = cell_w * (s + eps) ** ((p - 2.0) / 2.0)
        r = (p - 2.0) * q / (s + eps)
    stencil = [np.zeros(solve.metric.shape) for _ in range(solve.arrays)]
    centre = stencil[0]
    for a, ((lo, hi), o) in enumerate(zip(_axis_ends(cell_w.ndim), solve.axes)):
        k = _to_edges(q, a) / h**2
        below, above, forward = centre[lo], centre[hi], stencil[o][lo]
        below += k
        above += k
        forward -= k
    if r is not None:
        r = r / (h * 2 ** (cell_w.ndim - 1)) ** 2
        # g's entry at corner c of each cell, times h 2^(d-1): the differences
        # on the cell's edges through c, signed by whether c is the edge's far end
        gamma = [reduce(np.add, [diffs[a][edges] * sign for a, edges, sign in corner])
                 for corner in solve.gather]
        for (nodes, targets), g in zip(solve.couplings, gamma):
            rg = r * g
            for e, o in targets:  # r g_c g_e at node c, forward offset e - c
                stencil[o][nodes] += rg * gamma[e]
    # c_o is zero wherever i + o leaves the grid, so the rows that wrap
    # around add nothing, in either direction
    return centre, [(dst, src, stencil[i].reshape(-1)[dst]) for dst, src, i in solve.neighbours]


def _workspace(shape: tuple[int, ...]) -> np.ndarray:
    """One solve's scratch node arrays, in rows: rows 0 and 7 hold the
    diagonal of the system being solved and its ratio to the metric, which
    CG's stopping norm reads (at p = 2 the prepared system's, for as long as
    its step length lasts, see _prepare; for p > 2 each Newton system's),
    _pcg takes rows 1-5 (its residual, preconditioned residual, direction,
    product and a temporary) and _minimize row 6 (the CG right-hand side); a
    Newton evaluation, _quadratic_energy, a projection, the flow's
    extrapolated start and its weighted mean reuse rows 1 and 2 between CG
    calls.

    Every row starts on a 64-byte boundary: a row's length is rounded up to a
    whole number of 8 doubles and the rows are cut from one flat buffer at its
    first aligned double.  numpy's multiply into a misaligned output can take
    about twice as long, and unpadded 101 x 101 rows (10,201 doubles) would
    start 8 bytes further off with each row.  Each row is contiguous, so
    work[k] and work.reshape(len(work), -1) are views."""
    size = math.prod(shape)
    stride = -(-size // 8) * 8
    buf = np.empty(8 * stride + 7)
    first = -(buf.ctypes.data // 8) % 8
    rows = buf[first:first + 8 * stride].reshape(8, stride)[:, :size]
    return rows.reshape((8,) + shape, copy=False)


def _product(centre: np.ndarray, v: np.ndarray, out: np.ndarray, pairs: list) -> np.ndarray:
    """The stencil times v, into out: centre * v plus two contiguous products
    per forward neighbour, one into each end of its pairs, added in.  pairs
    holds, per forward neighbour (dst, src, c), c and the views v[dst],
    v[src], out[dst], out[src] and tmp[dst] of flat v, out and tmp: each
    product is formed at the start of tmp, so on an aligned tmp every
    product is written to an aligned array.  The backward products go
    first, in reverse: that is the full stencil's product order, so each
    node sums its products in the order of the offsets in {-1, 0, 1}^d."""
    np.multiply(centre, v, out)
    for c, v_dst, _, _, out_src, t in reversed(pairs):
        out_src += np.multiply(c, v_dst, t)
    for c, _, v_src, out_dst, _, t in pairs:
        out_dst += np.multiply(c, v_src, t)
    return out


def _quadratic_energy(vals: np.ndarray, stencil: tuple, solve: _Solve) -> float:
    """The p = 2 energy <v, Hv>/2 from the Hessian stencil in flat form.  H
    kills the constants, so it couples each pair i, i + o by c_o[i] (v[i+o] -
    v[i]), taken once per forward neighbour: the energy is a sum of -c_o
    (v[i+o] - v[i])^2 / 2.  The differences and products are formed in rows
    1 and 2 of the solve's workspace."""
    v, value = vals.reshape(-1), 0.0
    dbuf, ebuf = solve.flat[1:3]
    for dst, src, c in stencil[1]:
        d = np.subtract(v[src], v[dst], dbuf[dst])
        value -= float(np.vdot(np.multiply(c, d, ebuf[dst]), d))
    return value / 2.0


def _pcg(stencil: tuple, rhs: np.ndarray, ratio: np.ndarray, target: float, budget: int,
         solve: _Solve, start: np.ndarray | None = None) -> tuple[np.ndarray, int, float]:
    """CG on a flat stencil whose centre is the system's whole diagonal,
    preconditioned by that diagonal (Jacobi), from start (default zero; its
    residual rhs - A start is formed by one product) until the residual's
    metric norm sqrt(sum r^2/metric) is at most target or the budget is
    spent; returns the solution, the iterations and that norm, the norm of
    CG's recursive residual.  ratio is the diagonal over the metric (see
    _prepare): the norm is formed as sqrt(<r, z ratio>) from the
    preconditioned residual z = r/diag that CG forms anyway, so each
    iteration divides once.  A residual too large for the norm makes it
    inf, not NaN, since r and z ratio share their signs.  A product d^T A d
    that is not positive and finite ends it early.  The solution is start
    itself, overwritten in place, or one new array; every other vector is
    one of rows 1-5 of the solve's workspace (see _workspace), so neither
    rhs, the diagonal nor ratio may be one of those.  Each product reads
    views of those rows formed once per call (see _product): the start's is
    taken of its copy in the direction's row, which the first direction
    then overwrites."""
    diag, neighbours = stencil
    diag, ratio = diag.reshape(-1), ratio.reshape(-1)
    r, z, d, ad, tmp = solve.flat[1:6]
    x = np.zeros(rhs.shape) if start is None else start
    flat_x = x.reshape(-1)
    pairs = [(c, d[dst], d[src], ad[dst], ad[src], tmp[dst]) for dst, src, c in neighbours]
    if start is None:
        np.copyto(r, rhs.reshape(-1))
    else:
        np.copyto(d, flat_x)
        np.subtract(rhs.reshape(-1), _product(diag, d, ad, pairs), r)
    # the first direction is the first preconditioned residual
    rz, it, pz = np.vdot(r, np.divide(r, diag, d)), 0, d
    while (rnorm := math.sqrt(np.vdot(r, np.multiply(pz, ratio, tmp)))) > target and it < budget:
        _product(diag, d, ad, pairs)
        dad = np.vdot(d, ad)
        if not 0.0 < dad < math.inf:
            break
        alpha = rz / dad
        flat_x += np.multiply(d, alpha, tmp)
        r -= np.multiply(ad, alpha, tmp)
        rz_old, it, pz = rz, it + 1, z
        rz = np.vdot(r, np.divide(r, diag, z))
        d *= rz / rz_old
        d += z
    return x, it, rnorm


def _tridiagonal_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """x with A x = rhs, for the symmetric tridiagonal A with diagonal diag and
    off-diagonal off (A[i, i+1] = A[i+1, i] = off[i]), by its LDL^T (Thomas)
    factorization in Python floats: O(n), and stable without pivoting when A
    is positive definite (Golub & Van Loan, Matrix Computations, 4.3).  None
    if a pivot is not positive: A is not definite as rounded."""
    d, e, x = diag.tolist(), off.tolist(), rhs.tolist()
    for i in range(1, len(d)):
        if not d[i - 1] > 0.0:
            return None
        ratio = e[i - 1] / d[i - 1]
        d[i] -= ratio * e[i - 1]
        x[i] -= ratio * x[i - 1]
        e[i - 1] = ratio
    if not d[-1] > 0.0:
        return None
    x[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        x[i] = x[i] / d[i] - e[i] * x[i + 1]
    return np.array(x)


def _shifted(stencil: tuple, shift: np.ndarray, solve: _Solve) -> tuple:
    """The system CG solves, the stencil with shift added to its centre, in
    row 0 of the solve's workspace, and that diagonal over the metric, which
    CG's stopping norm reads (see _pcg), in row 7: their one former, which a
    V-cycle preconditioner and a stopping norm that counts the far field
    would change."""
    centre = np.add(stencil[0], shift, solve.rows[0])
    return (centre, stencil[1]), np.divide(centre, solve.metric, solve.rows[7])


def _prepare(stencil: tuple | None, tau: float, solve: _Solve) -> tuple:
    """What every solve with step tau shares, as _minimize takes it: the
    shift M/tau (zero at tau = inf); whether it is positive at every node,
    which a direct solve of a 1d Newton system needs; and at p = 2, where
    stencil is H's (None for p > 2, whose Hessian moves with the iterate),
    the one system (H + M/tau) v = (M/tau) anchor + M source and its ratio,
    formed by _shifted in rows 0 and 7 of the solve's workspace (None for
    p > 2).  _shifted and the stop rule in _minimize are what a V-cycle
    preconditioner, a stopping norm that counts the far field and a
    round-off floor would change.
    Preparing the next system in the same workspace makes this one stale."""
    shift, ratio = solve.metric / tau, None
    if stencil is not None:
        stencil, ratio = _shifted(stencil, shift, solve)
    return shift, bool(np.all(shift > 0.0)), stencil, ratio


def _minimize(solve: _Solve, grid: Grid, anchor: np.ndarray, tau: float, system: tuple,
              start: np.ndarray, source: np.ndarray | None = None):
    """Minimize (1/(2 tau)) ||v - anchor||^2 + E(v) - <source, v> (norm and
    pairing in the metric; no pairing without a source) from start, which
    the solve may overwrite; returns the minimizer, the solver iterations
    (CG iterations, one per direct solve) and its energy.  E, the metric and
    the workspace are the solve's (see _solve); system is step tau's,
    prepared (see _prepare) in that workspace, which CG and every evaluation
    form their temporaries in; the iterates, gradients and CG solutions are
    the only new arrays.  grid is only for the iterate a failure carries.
    Without the proximal term (tau = inf) constants are free, so the start,
    the right-hand side and the minimizer are kept metric-mean-zero.  Both arms
    stop by one rule, converged: the norm (CG's at p = 2, the gradient's
    above) meets the tolerance, and the solve fails once the norm is not
    finite (the iterate has left float range) or the budget is spent.
    A stopping norm that counts the far field and a round-off floor would
    change this rule; a V-cycle preconditioner and that norm, _shifted.

    At p = 2 the objective is quadratic, so the minimizer solves one linear
    system, (H + M/tau) v = (M/tau) anchor + M source, with H the Hessian
    stencil: the same at every v, so the prepared one serves every solve
    with step tau in the same workspace.  One CG, warm-started at the start,
    solves it to a tenth of the tolerance; if CG ends early above the
    tolerance it is restarted from its iterate, and the solve fails once a
    CG call takes no iteration or leaves a norm that is not below the
    previous call's.  Only the energy of the minimizer is evaluated, by the
    value-only pass over the stencil.

    For p > 2, damped Newton.  A system with one forward neighbour (1d) and a
    positive shift (tau finite; see _prepare) is tridiagonal and positive
    definite: it is solved exactly by _tridiagonal_solve, which counts as one
    iteration.  Every other system goes to CG, as does one whose
    factorization meets a pivot that is not positive (the rounded matrix is
    not definite), and CG solves each to a tenth of the tolerance.  Steps
    backtrack on the true objective with a round-off allowance, since near
    the minimizer the decrease drops below one ulp.  The solve has stalled,
    and raises at once, if no step is found or a step lowers neither the
    objective nor the gradient norm.
    """
    p, metric, metric_total, project = solve.p, solve.metric, solve.metric_total, math.isinf(tau)
    v = start - np.vdot(metric, start) / metric_total if project else start
    shift, positive, stencil, ratio = system
    rows, spent = solve.rows, 0

    def failure(what: str, gnorm: float) -> ProxConvergenceError:
        return ProxConvergenceError(f"{what} (gradient norm {gnorm:.3e})",
                                    GridFunction(grid, v), gnorm)

    def exhausted(gnorm: float) -> ProxConvergenceError:
        return failure(f"{'CG' if p == 2.0 else 'Newton-CG'} did not reach tolerance "
                       f"{_TOLERANCE:g} in {spent} iterations", gnorm)

    def converged(norm: float) -> bool:
        if norm <= _TOLERANCE:
            return True
        if not math.isfinite(norm):
            raise failure(f"the iterate left float range at iteration {spent}", norm)
        if spent == _MAX_ITERATIONS:
            raise exhausted(norm)
        return False

    if p == 2.0:
        rhs = np.multiply(shift, anchor, rows[6])
        if source is not None:
            rhs += metric * source
        if project:
            rhs -= np.multiply(metric, rhs.sum() / metric_total, rows[1])
        previous = math.inf
        while True:
            v, its, rnorm = _pcg(stencil, rhs, ratio, 0.1 * _TOLERANCE,
                                 _MAX_ITERATIONS - spent, solve, v)
            spent += its
            if converged(rnorm):
                break
            if not its or not rnorm < previous:
                raise exhausted(rnorm)
            previous = rnorm
        if project:
            v -= np.vdot(metric, v) / metric_total
        return v, spent, _quadratic_energy(v, stencil, solve)

    pull = None if source is None else metric * source

    def evaluate(v: np.ndarray):
        """Objective, Euclidean gradient, the gradient's metric norm, and the
        energy terms of v (see _energy_terms)."""
        terms = _energy_terms(v, solve.h, solve.cell_w, p)
        d = np.subtract(v, anchor, rows[1])
        prox = np.multiply(shift, d, rows[2])
        obj = terms[0] + 0.5 * np.vdot(prox, d)
        g = terms[1] + prox
        if pull is not None:
            obj -= np.vdot(pull, v)
            g -= pull
        if project:
            g -= np.multiply(metric, g.sum() / metric_total, rows[1])
        return obj, g, math.sqrt(np.vdot(g, np.divide(g, metric, rows[1]))), terms

    obj, g, gnorm, terms = evaluate(v)
    while not converged(gnorm):
        stencil, ratio = _shifted(_hessian(solve, *terms[2]), shift, solve)
        (centre, neighbours), rhs = stencil, np.negative(g, rows[6])
        step = (_tridiagonal_solve(centre, neighbours[0][2], rhs)
                if positive and len(neighbours) == 1 else None)
        if step is not None:
            its = 1
        else:
            step, its, _ = _pcg(stencil, rhs, ratio, 0.1 * _TOLERANCE,
                                _MAX_ITERATIONS - spent, solve)
        spent += its
        if project:
            step -= np.vdot(metric, step) / metric_total
        alpha, slope = 1.0, np.vdot(g, step)
        for _ in range(60):
            trial = v + np.multiply(step, alpha, rows[1])
            trial_obj, trial_g, trial_gnorm, trial_terms = evaluate(trial)
            allowance = _ROUNDOFF * (abs(obj) + abs(trial_obj))
            if trial_obj <= obj + _SUFFICIENT_DECREASE * alpha * slope + allowance:
                break
            alpha *= _SHRINK
        else:
            raise failure(f"line search stalled at iteration {spent}", gnorm)
        if trial_gnorm >= gnorm and trial_obj >= obj:
            raise failure(f"line search stalled at iteration {spent}", gnorm)
        v, obj, g, gnorm, terms = trial, trial_obj, trial_g, trial_gnorm, trial_terms
    return v, spent, terms[0]


# ---------------------------------------------------------------------------
# the Lebesgue dualization's integrability gate, and the flow
# ---------------------------------------------------------------------------


class TailReport(Record):
    """Nested-box masses of w^(-1/(p-2)) and their increments.

    Divergence on the whole space shows up as tail increments that stop
    decaying: each shell of the box family contributes at least as much as
    the previous one.  (A plain refinement check cannot see this — on any
    fixed box the quadrature of a smooth integrand converges no matter how
    violently it grows.)
    """

    exponent: float
    radii: tuple[float, ...]
    masses: tuple[float, ...]
    increments: tuple[float, ...]
    passes: bool


def check_lebesgue_compatibility(spec: WeightSpec, grid: Grid, p: float) -> TailReport:
    """Gate for the Lebesgue-dualized flow: w^(-1/(p-2)) must be integrable.

    Integrates the reciprocal power over the nested boxes r in {R/4, R/2,
    3R/4, R}, each snapped down to whole cells; the gate passes when the
    shell increments strictly decay.  A grid of fewer than 9 nodes per axis
    is refused: its four boxes are not distinct, or the first is one node.
    """
    if p <= 2.0:
        raise ValueError("the gate applies to p > 2 only")
    if grid.nodes_per_axis < 9:
        raise ValueError(f"the integrability gate needs nodes_per_axis >= 9 to nest four "
                         f"distinct boxes, got {grid.nodes_per_axis}")
    s = -1.0 / (p - 2.0)
    logw = spec.exponent(grid.coordinates())
    vals = np.exp(np.minimum(s * logw, 700.0))  # cap just below overflow
    c = (grid.nodes_per_axis - 1) // 2
    masses = []
    radii = []
    for kq in (1, 2, 3, 4):
        k = (c * kq) // 4
        box = vals[(slice(c - k, c + k + 1),) * grid.dim]
        masses.append(integrate(box, grid.spacing, trapezoid_weights))
        radii.append(k * grid.spacing)
    increments = [b - a for a, b in zip(masses, masses[1:])]
    passes = all(b < a for a, b in zip(increments, increments[1:]))
    return TailReport(s, tuple(radii), tuple(masses), tuple(increments), passes)


def _extrapolate(history, t: float, tmp: np.ndarray | None = None) -> np.ndarray:
    """The polynomial through the (time, state) pairs of history, at time t:
    sum_i L_i(t) v_i with the Lagrange weights of the pairs' times, formed in
    one new array with each weighted state in tmp.  One pair gives its state,
    two the linear and three the quadratic extrapolation; on uniform steps
    that is 2 v_k - v_(k-1) and 3 v_k - 3 v_(k-1) + v_(k-2)."""
    times, out = [ti for ti, _ in history], None
    for i, (ti, v) in enumerate(history):
        weight = 1.0  # L_i(t), its factors multiplied in order
        for j, tj in enumerate(times):
            if j != i:
                weight *= (t - tj) / (ti - tj)
        if out is None:
            out = np.multiply(v, weight)
        else:
            out += np.multiply(v, weight, tmp)
    return out


def evolve(problem: EvolutionProblem) -> Iterator[Step]:
    """The implicit-Euler flow in either dualization, one Step per time, from
    t = 0 to the horizon.  The Lebesgue one (plain L^2 inner product, p > 2)
    first runs the integrability gate and raises IntegrabilityGateError, at
    the first next(), when w^(-1/(p-2)) fails it.

    Each yielded state is the solver's own array, made read-only, not a copy:
    the next steps extrapolate from it.  The state at t = 0 is a copy of u0.

    Each step's solve starts from the quadratic extrapolation of the last
    three states (fewer at the first steps), which cuts its solver work.  Not
    a cubic: where w is too small for the stopping norm to correct an iterate
    the start's error stays, and a cubic's grows there (the corner of the 2d
    OU flow from u0 = x reached 5.8e3 at T = 0.2, where the exact value is
    4.02; the quadratic start keeps it at the linear one's 3.61)."""
    grid, p = problem.u0.grid, problem.p
    if problem.dualization == "lebesgue":
        report = check_lebesgue_compatibility(problem.spec, grid, p)
        if not report.passes:
            pretty = ", ".join(f"{v:.3g}" for v in report.increments)
            raise IntegrabilityGateError(
                f"w^({report.exponent:g}) is not integrable: nested-box increments "
                f"grow ({pretty})",
                report,
            )
        metric = _mass_weights(grid)
    else:
        metric = _node_metric(problem.spec, grid)
    solve = _solve(grid.spacing, p, metric, _cell_weights(problem.spec, grid))
    tau, horizon = problem.step, problem.horizon
    n_steps = max(int(math.ceil(horizon / tau - 1e-12)), 1)  # at least one step
    whole = horizon / tau >= n_steps - 1e-12
    vals = problem.u0.values.copy()
    stencil = _hessian(solve) if p == 2.0 else None
    value = (_quadratic_energy(vals, stencil, solve) if p == 2.0
             else _energy_terms(vals, solve.h, solve.cell_w, p)[0])
    system = _prepare(stencil, tau, solve)
    history = collections.deque([(0.0, vals)], maxlen=3)
    t, iters = 0.0, 0
    for k in range(n_steps + 1):
        if k:  # the solve starts from the last three states extrapolated to t
            last = k == n_steps and not whole
            t, step = (horizon, horizon - (k - 1) * tau) if last else (k * tau, tau)
            if last:  # the shorter last step's own system
                system = _prepare(stencil, step, solve)
            vals, iters, value = _minimize(solve, grid, vals, step, system,
                                           start=_extrapolate(history, t, solve.rows[1]))
            history.append((t, vals))
        vals.flags.writeable = False
        mean = float(np.multiply(metric, vals, solve.rows[1]).sum()) / solve.metric_total
        yield Step(t, GridFunction(grid, vals), value, mean, iters)


@np.errstate(all="ignore")
def solve_evolution(problem: EvolutionProblem) -> Trajectory:
    """evolve, run to the horizon and folded into one Trajectory, built at the
    end: its times, energies, means and solves' solver iterations, and its last
    state, the only one kept, so a flow holds O(1) node arrays however many
    steps it takes.
    The gate (see evolve) raises here.  numpy's floating-point warnings are
    off: an iterate that leaves float range fails its solve (_minimize)."""
    times, energies, means, step_iterations = [], [], [], []
    state = problem.u0
    for k, step in enumerate(evolve(problem)):
        times.append(step.t)
        energies.append(step.energy)
        means.append(step.mean)
        if k:
            step_iterations.append(step.iterations)
        state = step.state
    return Trajectory(times, energies, means, step_iterations, state)


# ---------------------------------------------------------------------------
# stationary problem
# ---------------------------------------------------------------------------


class StationaryResult(Record):
    state: GridFunction
    residual: float
    iterations: int
    objective: float

    def to_json(self) -> dict:
        return {"residual": self.residual, "iterations": self.iterations,
                "objective": self.objective}


@np.errstate(all="ignore")
def solve_stationary(f: GridFunction, spec: WeightSpec, p: float) -> StationaryResult:
    """Minimize the source-perturbed energy over mean-zero grid functions.

    The natural (no-flux) boundary leaves constants in the operator's
    kernel, so the source must be compatible: its weighted mean has to
    vanish (within tolerance, relative to the source's size), and the
    solution is pinned down by the mean-zero constraint.  As in
    solve_evolution, numpy's floating-point warnings are off for the solve.
    """
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")
    grid = f.grid
    if spec.dim != grid.dim:
        raise ValueError("weight and source dimensions differ")
    metric = _node_metric(spec, grid)
    f_mean = float(np.sum(metric * f.values)) / float(np.sum(metric))
    scale = max(float(np.max(np.abs(f.values))), 1.0)
    if abs(f_mean) > _COMPATIBILITY_TOL * scale:
        raise ValueError(
            f"incompatible source: weighted mean {f_mean:.3e} exceeds "
            f"{_COMPATIBILITY_TOL:g} * max|f|"
        )
    source = f.values - f_mean
    solve = _solve(grid.spacing, p, metric, _cell_weights(spec, grid))
    system = _prepare(_hessian(solve) if p == 2.0 else None, math.inf, solve)
    out, iters, value = _minimize(solve, grid, np.zeros(grid.shape), math.inf, system,
                                  np.zeros(grid.shape), source)
    # the true residual, not the solver's own estimate of it
    grad = _energy_terms(out, solve.h, solve.cell_w, p)[1]
    res = math.sqrt(float(np.sum(metric * (grad / metric - source) ** 2)))
    obj = value - float(np.sum(metric * source * out))
    return StationaryResult(GridFunction(grid, out), res, iters, obj)

"""Tensor grids, quadrature, discrete calculus, and smoothing kernels.

Everything downstream works on uniform tensor grids over a symmetric box
[-R, R]^d with d in {1, 2}.  Functions are represented by their node
values; convolution extends them by zero outside the box.  The node count
per axis is kept odd so that the origin is always a node and composite
Simpson weights apply without special cases.  A field is a function of
per-axis coordinate arrays that broadcast together (Grid.coordinates, open;
Grid.mesh, dense), and squared_norm is the package's one |x|^2.

No code path depends on d, except that maximal_function batches its radii
in 1d only (bit for bit its per-radius loop, 2.5-5x faster at n = 301).  It
and maximal_at keep kernels of their own: a shared one was bit for bit the
same but made maximal_at 10-40% and the 2d maximal_function ~10% slower,
for 7 fewer lines.  axis_derivatives and gradient_magnitude are the
package's only discrete gradient and magnitude.  Every integral in the
package is a 1d rule (segment_weights, Simpson; or trapezoid_weights)
applied along each axis: tensor_rule gives its weights for a block of any
shape and integrate its integral, quadrature_rows the integrals of a batch
of grid functions, one row each, and this module is the only one that
builds them.  The two rules, tensor_rule, integrate and quadrature_rows are
the whole quadrature API; they take node arrays, not grid functions.  The
other tensor helpers are ball_slices (the node box of a ball) and the
summed-area table that maximal_function and maximal_at share,
whose box sums are differences along one axis at a time (maximal_function
reads them as shifted views of the table padded with its edge slices).
mollify sums only over the node box that a declared support lets be
nonzero, adding at each node the products a whole-grid sum adds, in its
order, so its values do not depend on the box.  The package's 1d-only steps
lie outside this module: the power-law extrapolation across an isolated
zero node in the Muckenhoupt integral (weights._ball_integral_power), and
the bump corpus (corpus.CorpusMember.on_grid), so verify-inequalities
(cli._cmd_verify) refuses dim != 1 too.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._record import Record

__all__ = [
    "Grid",
    "GridFunction",
    "build_grid",
    "sample_field",
    "squared_norm",
    "axis_derivatives",
    "discrete_gradient",
    "quadrature_rows",
    "segment_weights",
    "trapezoid_weights",
    "tensor_rule",
    "integrate",
    "ball_slices",
    "mollify",
    "maximal_function",
    "maximal_at",
    "bump_profile",
]


class Grid(Record):
    """Uniform tensor grid on [-R, R]^dim with an odd node count per axis."""

    dim: int
    half_width: float
    nodes_per_axis: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.half_width <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        n = self.nodes_per_axis
        if n < 3:
            raise ValueError(f"nodes_per_axis must be >= 3, got {n}")
        if n % 2 == 0:
            raise ValueError(f"nodes_per_axis must be odd, got {n}")
        h = self.spacing  # below the normal range, 1/h and h^d leave float range
        if not np.finfo(float).smallest_normal <= h < math.inf:
            raise ValueError(f"half_width: the node spacing {h!r} is not a positive normal float")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.nodes_per_axis - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes_per_axis,) * self.dim

    def axis(self) -> np.ndarray:
        """Node coordinates along one axis; symmetric, with 0.0 an exact node."""
        return np.linspace(-self.half_width, self.half_width, self.nodes_per_axis)

    def mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*[self.axis()] * self.dim, indexing="ij"))

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """The node coordinates, one open array per axis: (n, 1) and (1, n) in 2d."""
        return tuple(np.meshgrid(*[self.axis()] * self.dim, indexing="ij", sparse=True))

    def node_radii(self) -> np.ndarray:
        return np.sqrt(squared_norm(self.coordinates()))

    def index_of(self, coord: float) -> int:
        """Index of the node closest to a coordinate along one axis."""
        idx = int(round((coord + self.half_width) / self.spacing))
        if idx < 0 or idx >= self.nodes_per_axis:
            raise ValueError(f"coordinate {coord} outside the grid box")
        return idx


def build_grid(dim: int, half_width: float, nodes_per_axis: int) -> Grid:
    return Grid(dim, half_width, nodes_per_axis)


class GridFunction(Record):
    """Real node values on a grid, with an optional known support radius.

    When compact_support_radius is set the values must vanish at every node
    with Euclidean norm beyond that radius; the constructor enforces it.
    """

    grid: Grid
    values: np.ndarray
    compact_support_radius: float | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values is not self.values:  # a float array is kept as it is
            object.__setattr__(self, "values", values)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        r = self.compact_support_radius
        if r is not None:
            outside = self.grid.node_radii() > r
            if np.any(values[outside] != 0.0):
                raise ValueError(
                    f"values do not vanish outside radius {r}"
                )


def squared_norm(x: Sequence[np.ndarray]) -> np.ndarray:
    """|x|^2 of per-axis coordinate arrays, the squares added in axis order."""
    return reduce(np.add, [a * a for a in x])


def sample_field(
    grid: Grid,
    f,
    compact_support_radius: float | None = None,
) -> GridFunction:
    """Evaluate a field, a callable taking the coordinate arrays (one per
    axis), at the grid nodes."""
    vals = np.broadcast_to(np.asarray(f(*grid.mesh()), dtype=float), grid.shape).copy()
    return GridFunction(grid, vals, compact_support_radius)


# ---------------------------------------------------------------------------
# discrete gradient
# ---------------------------------------------------------------------------


def axis_derivatives(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Derivatives of node values along the trailing grid.dim axes, any
    leading axes a batch: central differences inside, 2nd-order one-sided
    at the boundary (the np.gradient edge_order=2 stencil)."""
    lead = values.ndim - grid.dim
    return [np.gradient(values, grid.spacing, edge_order=2, axis=lead + a)
            for a in range(grid.dim)]


def discrete_gradient(f: GridFunction) -> list[GridFunction]:
    """The axis derivatives of a grid function, one grid function each."""
    return [GridFunction(f.grid, d) for d in axis_derivatives(f.values, f.grid)]


def gradient_magnitude(derivatives: Sequence[np.ndarray]) -> np.ndarray:
    """The Euclidean norm of axis derivatives, node by node."""
    return np.sqrt(sum(d * d for d in derivatives))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def segment_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n >= 2 consecutive nodes, plus the
    trapezoid rule on the last cell when the cell count is odd."""
    if n < 2:
        raise ValueError("segment needs at least two nodes")
    m = n - 1 + n % 2  # the nodes Simpson covers: all, or all but the last
    w = np.zeros(n)
    w[0 : m - 1 : 2] += 1.0
    w[1:m:2] += 4.0
    w[2:m:2] += 1.0
    w *= h / 3.0
    if m < n:
        w[-2:] += h / 2.0
    return w


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def tensor_rule(shape: Sequence[int], h: float, rule) -> np.ndarray:
    """The weights of a 1d rule (segment_weights or trapezoid_weights)
    applied along each axis of a block of the given shape, spacing h."""
    return reduce(np.multiply.outer, [rule(n, h) for n in shape])


def integrate(values: np.ndarray, h: float, rule) -> float:
    """Integral of a block of node values, spacing h, by a 1d rule applied
    along each axis."""
    return float(np.sum(tensor_rule(values.shape, h, rule) * values))


def quadrature_rows(values: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Simpson integrals and a-posteriori error estimates of a batch of node
    arrays, shape (m,) + grid.shape, one per row.

    The estimate is |Simpson(h) - Simpson(2h)| when every other node forms
    a Simpson grid ((n - 1) % 4 == 0), otherwise |Simpson - trapezoid| on
    the full grid.  Each row is summed as one contiguous block, so row i is
    bit for bit the integral of values[i] alone (integrate's sum).
    """
    def integrals(rows: np.ndarray, h: float, rule) -> np.ndarray:
        weights = tensor_rule(rows.shape[1:], h, rule)
        return np.sum(weights * rows, axis=tuple(range(1, rows.ndim)))

    fine = integrals(values, grid.spacing, segment_weights)
    if (grid.nodes_per_axis - 1) % 4 == 0:
        every_other = values[(slice(None),) + (slice(None, None, 2),) * grid.dim]
        coarse = integrals(every_other, 2.0 * grid.spacing, segment_weights)
    else:
        coarse = integrals(values, grid.spacing, trapezoid_weights)
    return fine, np.abs(fine - coarse)


# ---------------------------------------------------------------------------
# box-ball quadrature
# ---------------------------------------------------------------------------


def ball_slices(grid: Grid, center: Sequence[float], radius: float) -> tuple[slice, ...] | str:
    """Per-axis node slices of the axis-aligned box ball center +- radius,
    snapped to the node lattice, or the reason it has none, a message."""
    if len(center) != grid.dim:
        raise ValueError("ball center dimension mismatch")
    if radius <= 0:
        raise ValueError("ball radius must be positive")
    h = grid.spacing
    lo = [int(round((c - radius + grid.half_width) / h)) for c in center]
    hi = [int(round((c + radius + grid.half_width) / h)) for c in center]
    if min(lo) < 0 or max(hi) > grid.nodes_per_axis - 1:
        return "escapes the grid box"
    if any(b - a < 2 for a, b in zip(lo, hi)):
        return "spans fewer than two grid cells"
    return tuple(slice(a, b + 1) for a, b in zip(lo, hi))


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def bump_profile(u: np.ndarray) -> np.ndarray:
    """The standard radial bump exp(-1/(1-u^2)) on |u|<1, zero elsewhere."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


def _mollifier_taps(grid: Grid, eps: float) -> np.ndarray:
    """The standard radial bump's taps on the grid offsets inside the closed
    ball of radius eps, shape (2K+1,) * dim, normalized so that the discrete
    convolution sum has unit mass: convolving a constant reproduces it
    exactly, and sup norms contract."""
    h = grid.spacing
    if eps < h:
        raise ValueError(f"eps {eps} below grid spacing {h}: kernel not resolvable")
    K = int(np.floor(eps / h + 1e-12))
    offsets = np.meshgrid(*[np.arange(-K, K + 1) * h] * grid.dim, indexing="ij", sparse=True)
    raw = bump_profile(np.sqrt(squared_norm(offsets)) / eps)
    return raw / raw.sum()


def mollify(f: GridFunction, eps: float) -> GridFunction:
    """Discrete convolution with the standard bump kernel at scale eps.

    The input is extended by zero outside the box; the support radius grows
    by at most eps and the sup norm does not increase.

    Only the node box that can be nonzero is summed: the nodes within
    ceil(support / h) + K of the centre along each axis (K the taps'
    half-width), clipped to the grid, or the whole grid when the support is
    not declared or not finite.  Only zeros reach a node outside the box,
    so it keeps the +0.0 it starts as, which is what a sum over the whole
    grid leaves there.  A node inside adds the same products as that sum,
    zeros included, one nonzero tap at a time in np.ndindex order, each
    product formed in one scratch array, so the order of every sum is
    unchanged and every value is the same bit for bit.
    """
    taps = _mollifier_taps(f.grid, eps)
    h, d, n = f.grid.spacing, f.grid.dim, f.grid.nodes_per_axis
    K = (taps.shape[0] - 1) // 2
    c = (n - 1) // 2  # the centre node
    csr = f.compact_support_radius
    reach = c
    if csr is not None and csr / h < c:  # inf and NaN keep the whole grid
        reach = min(max(math.ceil(csr / h), 0) + K, c)
    lo, m = c - reach, 2 * reach + 1  # the box: nodes lo .. lo + m - 1 per axis
    # the box's input, nodes lo - K .. lo + m + K - 1, zero beyond the grid
    a = max(lo - K, 0)
    padded = np.zeros((m + 2 * K,) * d)
    padded[(slice(K - lo + a, K + lo - a + m),) * d] = f.values[(slice(a, n - a),) * d]
    out = np.zeros_like(f.values)
    box = out[(slice(lo, lo + m),) * d]
    tmp = np.empty_like(box)
    for offset in np.ndindex(taps.shape):
        t = taps[offset]
        if t != 0.0:
            np.multiply(t, padded[tuple(slice(i, i + m) for i in offset)], out=tmp)
            box += tmp
    if csr is not None:
        csr = min(csr + eps, f.grid.half_width * np.sqrt(d))
    return GridFunction(f.grid, out, csr)


# ---------------------------------------------------------------------------
# maximal function
# ---------------------------------------------------------------------------


def _summed_area(f: GridFunction) -> np.ndarray:
    """Summed-area table of |f| with a zero border:
    S[i+1, j+1] = sum of |f|[:i+1, :j+1]."""
    S = np.abs(f.values)
    for a in range(f.grid.dim):
        S = np.cumsum(S, axis=a)
    return np.pad(S, (1, 0))


# radii x nodes that one pass of maximal_at, or of the 1d maximal_function,
# takes, so its temporaries stay small next to the grid
_MAXIMAL_AT_BLOCK = 8192


def maximal_function(f: GridFunction) -> GridFunction:
    """Centered maximal function over the radius lattice {h, 2h, ..., R}.

    Ball averages are plain node means over the window clipped to the box
    (in 2d the windows are axis-aligned boxes), so constants are reproduced
    exactly and sublinearity holds node-wise.

    The summed-area table P is padded with K = (n - 1) / 2 copies of its
    edge slices on each side, which clips every window to the box: along
    each axis the box of radius k around node i runs from P[K+i-k] to
    P[K+i+k+1], a shifted view.  In 1d a block of radii is one difference
    of two window views; otherwise each radius takes the differences along
    one axis at a time, the first axis first, as maximal_at does.
    """
    d = f.grid.dim
    n = f.grid.nodes_per_axis
    K = (n - 1) // 2  # radius lattice stops at the box half-width
    P = np.pad(_summed_area(f), K, mode="edge")
    idx = np.arange(n, dtype=float)  # the node counts are exact in floats

    def counts(k):
        """Nodes in the clipped window of radius k around each node."""
        c = np.minimum(idx, k)
        c += np.minimum(idx[::-1], k)
        c += 1.0
        return c

    best = np.zeros(f.grid.shape)
    if d == 1:
        # windows[j] = P[j : j + n]; reversed, row K + 1 + k is the lower end K - k
        windows = sliding_window_view(P, n)
        step = max(1, _MAXIMAL_AT_BLOCK // n)
        for start in range(1, K + 1, step):
            stop = min(start + step, K + 1)
            rows = slice(K + 1 + start, K + 1 + stop)  # radii down, nodes across
            means = windows[rows] - windows[::-1][rows]
            means /= counts(np.arange(start, stop, dtype=float)[:, None])
            np.maximum(best, np.max(means, axis=0), out=best)
    else:
        for k in range(1, K + 1):
            box = P[(slice(K - k, K + k + 1 + n),) * d]
            for a in range(d):
                lead = (slice(None),) * a
                box = box[lead + (slice(2 * k + 1, None),)] - box[lead + (slice(None, n),)]
            np.maximum(best, box / reduce(np.multiply.outer, [counts(k)] * d), out=best)
    return GridFunction(f.grid, best)


def maximal_at(f: GridFunction, nodes: np.ndarray) -> np.ndarray:
    """maximal_function(f) at the given nodes (flat C-order indices, any
    shape), for a block of radii at a time.

    The box means take the same operations in the same order as
    maximal_function's, so the values agree bit for bit: differences of the
    table along one axis at a time, the first axis innermost, then the
    division by the node count; in 2d (S[H0, H1] - S[L0, H1]) -
    (S[H0, L1] - S[L0, L1]) with H = hi + 1 and L = lo.
    """
    n = f.grid.nodes_per_axis
    at = np.unravel_index(np.ravel(nodes), f.grid.shape)
    S = _summed_area(f)

    def box(lo: list, hi: list, tail: tuple = ()) -> np.ndarray:
        a = len(lo) - len(tail) - 1
        if a < 0:
            return S[tail]
        return box(lo, hi, (hi[a] + 1,) + tail) - box(lo, hi, (lo[a],) + tail)

    radii = np.arange(1, (n - 1) // 2 + 1)[:, None]  # radii down, nodes across
    step = max(1, _MAXIMAL_AT_BLOCK // max(1, at[0].size))
    best = np.zeros(at[0].size)
    for start in range(0, len(radii), step):
        k = radii[start : start + step]
        lo = [np.maximum(i - k, 0) for i in at]
        hi = [np.minimum(i + k, n - 1) for i in at]
        means = box(lo, hi) / reduce(np.multiply, [h - l + 1 for l, h in zip(lo, hi)])
        np.maximum(best, np.max(means, axis=0), out=best)
    return best.reshape(np.shape(nodes))

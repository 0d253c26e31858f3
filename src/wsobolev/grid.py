"""Tensor grids, quadrature, discrete calculus, and smoothing kernels.

Everything downstream works on uniform tensor grids over a symmetric box
[-R, R]^d with d in {1, 2}.  Functions are represented by their node
values; convolution extends them by zero outside the box.  The node count
per axis is kept odd so that the origin is always a node and composite
Simpson weights apply without special cases.

No code path depends on d.  Every integral in the package is a 1d rule
(segment_weights, Simpson; or trapezoid_weights) applied along each axis:
tensor_rule gives its weights for a block of any shape and integrate its
integral, quadrature_rows the integrals of a batch of grid functions, one
row each, and this module is the only one that builds them.  The other
tensor helpers are lattice_points (odd tensor sample lattices), ball_slices
(the node box of a ball) and the summed-area table that maximal_function
and maximal_at share, whose box sums are differences along one axis at a
time.  The one 1d-only
step in the package is the power-law extrapolation across an isolated zero
node in the Muckenhoupt integral (weights._ball_integral_power).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "build_grid",
    "sample_field",
    "discrete_gradient",
    "quadrature",
    "quadrature_with_error",
    "quadrature_rows",
    "segment_weights",
    "trapezoid_weights",
    "tensor_rule",
    "integrate",
    "lattice_points",
    "ball_slices",
    "mollify",
    "maximal_function",
    "maximal_at",
    "bump_profile",
]


@dataclass(frozen=True)
class Grid:
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

    def points(self) -> np.ndarray:
        """All nodes as an array of shape grid.shape + (dim,)."""
        return np.stack(self.mesh(), axis=-1)

    def node_radii(self) -> np.ndarray:
        return np.sqrt(sum(m * m for m in self.mesh()))

    def index_of(self, coord: float) -> int:
        """Index of the node closest to a coordinate along one axis."""
        idx = int(round((coord + self.half_width) / self.spacing))
        if idx < 0 or idx >= self.nodes_per_axis:
            raise ValueError(f"coordinate {coord} outside the grid box")
        return idx


def build_grid(dim: int, half_width: float, nodes_per_axis: int) -> Grid:
    return Grid(dim, half_width, nodes_per_axis)


@dataclass
class GridFunction:
    """Real node values on a grid, with an optional known support radius.

    When compact_support_radius is set the values must vanish at every node
    with Euclidean norm beyond that radius; the constructor enforces it.
    """

    grid: Grid
    values: np.ndarray
    compact_support_radius: float | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )
        r = self.compact_support_radius
        if r is not None:
            outside = self.grid.node_radii() > r
            if np.any(self.values[outside] != 0.0):
                raise ValueError(
                    f"values do not vanish outside radius {r}"
                )

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy(), self.compact_support_radius)

    def _check_same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise ValueError("grid mismatch")

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        a, b = self.compact_support_radius, other.compact_support_radius
        radius = None if a is None or b is None else max(a, b)
        return GridFunction(self.grid, self.values - other.values, radius)


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


def discrete_gradient(f: GridFunction) -> list[GridFunction]:
    """Axis derivatives: central differences inside, 2nd-order one-sided at
    the boundary (the np.gradient edge_order=2 stencil)."""
    h = f.grid.spacing
    return [
        GridFunction(f.grid, np.gradient(f.values, h, edge_order=2, axis=a))
        for a in range(f.grid.dim)
    ]


def gradient_magnitude(grads: Sequence[GridFunction]) -> np.ndarray:
    sq = sum(g.values * g.values for g in grads)
    return np.sqrt(sq)


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


def _integrand(f: GridFunction, weight: GridFunction | None) -> np.ndarray:
    if weight is None:
        return f.values
    f._check_same_grid(weight)
    return f.values * weight.values


def quadrature(f: GridFunction, weight: GridFunction | None = None) -> float:
    """Composite Simpson integral of f (optionally times a weight field)."""
    return integrate(_integrand(f, weight), f.grid.spacing, segment_weights)


def quadrature_with_error(f: GridFunction, weight: GridFunction | None = None) -> tuple[float, float]:
    """Simpson integral plus an a-posteriori error estimate: quadrature_rows
    of a batch of one."""
    fine, err = quadrature_rows(_integrand(f, weight)[None], f.grid)
    return float(fine[0]), float(err[0])


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


def lattice_points(dim: int, half_width: float, n_target: int) -> np.ndarray:
    """Nodes of the tensor lattice on [-half_width, half_width]^dim with about
    n_target points, as an array of shape (m^dim, dim).  The per-axis count m
    is odd, so the origin is always a node."""
    m = math.ceil(n_target ** (1.0 / dim))
    m += 1 - m % 2
    return Grid(dim, half_width, m).points().reshape(-1, dim)


# ---------------------------------------------------------------------------
# box-ball quadrature
# ---------------------------------------------------------------------------


def ball_slices(grid: Grid, center: Sequence[float], radius: float) -> tuple[slice, ...] | None:
    """Per-axis node slices of the axis-aligned box ball center +- radius,
    snapped to the node lattice, or None if it escapes the grid box (or
    spans fewer than two cells along an axis)."""
    if len(center) != grid.dim:
        raise ValueError("ball center dimension mismatch")
    if radius <= 0:
        raise ValueError("ball radius must be positive")
    h = grid.spacing
    out = []
    for c in center:
        lo = int(round((c - radius + grid.half_width) / h))
        hi = int(round((c + radius + grid.half_width) / h))
        if lo < 0 or hi > grid.nodes_per_axis - 1 or hi - lo < 2:
            return None
        out.append(slice(lo, hi + 1))
    return tuple(out)


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
    offsets = np.meshgrid(*[np.arange(-K, K + 1) * h] * grid.dim, indexing="ij")
    raw = bump_profile(np.sqrt(sum(o * o for o in offsets)) / eps)
    return raw / raw.sum()


def mollify(f: GridFunction, eps: float) -> GridFunction:
    """Discrete convolution with the standard bump kernel at scale eps.

    The input is extended by zero outside the box; the support radius grows
    by at most eps and the sup norm does not increase.
    """
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


def maximal_function(f: GridFunction) -> GridFunction:
    """Centered maximal function over the radius lattice {h, 2h, ..., R}.

    Ball averages are plain node means over the window clipped to the box
    (in 2d the windows are axis-aligned boxes), so constants are reproduced
    exactly and sublinearity holds node-wise.
    """
    d = f.grid.dim
    n = f.grid.nodes_per_axis
    kmax = (n - 1) // 2  # radius lattice stops at the box half-width
    idx = np.arange(n)
    S = _summed_area(f)
    best = np.zeros(f.grid.shape)
    for k in range(1, kmax + 1):
        lo = np.maximum(idx - k, 0)
        hi = np.minimum(idx + k, n - 1)
        # box sums: along each axis in turn, the table at the box's upper
        # end minus the table just below its lower end
        box = S
        for a in range(d):
            box = box.take(hi + 1, axis=a) - box.take(lo, axis=a)
        avg = box / reduce(np.multiply.outer, [hi - lo + 1] * d)
        np.maximum(best, avg, out=best)
    return GridFunction(f.grid, best)


# radii x nodes that one pass of maximal_at takes, so its temporaries stay
# small next to the grid
_MAXIMAL_AT_BLOCK = 8192


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

"""Tensor grids, quadrature, discrete calculus, and smoothing kernels.

Everything downstream works on uniform tensor grids over a symmetric box
[-R, R]^d with d in {1, 2}.  Functions are represented by their node
values; fields are extended by zero outside the box wherever an operation
(convolution, shifted sampling) has to look past the boundary.  The node
count per axis is kept odd so that the origin is always a node and
composite Simpson weights apply without special cases.

No code path depends on d.  The tensor helpers carry every dimension
through one path: tensor_weights (a 1d quadrature rule applied along each
axis), lattice_points (odd tensor sample lattices), ball_slices and
block_integral (box-ball quadrature, shared by the weight diagnostics and
the inequality estimators), and d-dimensional summed-area tables in
maximal_function.  The one 1d-only step in the package is the power-law
extrapolation across an isolated zero node in the Muckenhoupt integral
(weights._ball_integral_power).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "Mollifier",
    "build_grid",
    "sample_field",
    "discrete_gradient",
    "quadrature",
    "quadrature_with_error",
    "segment_weights",
    "trapezoid_weights",
    "tensor_weights",
    "lattice_points",
    "ball_slices",
    "block_integral",
    "mollify",
    "maximal_function",
    "difference_quotient",
    "truncate",
    "bump_profile",
    "save_grid_function_csv",
    "save_grid_function_binary",
    "load_grid_function_binary",
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
        pts = self.points()
        return np.sqrt(np.sum(pts * pts, axis=-1))

    def refine(self) -> "Grid":
        """Grid with halved spacing; existing nodes are preserved."""
        return Grid(self.dim, self.half_width, 2 * self.nodes_per_axis - 1)

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

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _combined_radius(self, other: "GridFunction") -> float | None:
        a, b = self.compact_support_radius, other.compact_support_radius
        if a is None or b is None:
            return None
        return max(a, b)

    def _check_same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise ValueError("grid mismatch")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values + other.values, self._combined_radius(other))

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values, self._combined_radius(other))

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(scalar), self.compact_support_radius)

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values, self.compact_support_radius)


def sample_field(
    grid: Grid,
    f,
    compact_support_radius: float | None = None,
) -> GridFunction:
    """Evaluate a field at the grid nodes.

    Accepts a callable taking the coordinate arrays (one per axis) or a plain
    array of node values.
    """
    if callable(f):
        vals = np.asarray(f(*grid.mesh()), dtype=float)
        vals = np.broadcast_to(vals, grid.shape).copy()
    else:
        vals = np.asarray(f, dtype=float)
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


def simpson_weights(n: int, h: float) -> np.ndarray:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd node count >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def segment_weights(n: int, h: float) -> np.ndarray:
    """Quadrature weights for n consecutive nodes: Simpson when the cell
    count is even, otherwise Simpson on all but the last cell plus a
    trapezoid correction there."""
    if n < 2:
        raise ValueError("segment needs at least two nodes")
    if n == 2:
        return np.array([h / 2.0, h / 2.0])
    if (n - 1) % 2 == 0:
        return simpson_weights(n, h)
    w = np.zeros(n)
    w[:-1] = simpson_weights(n - 1, h)
    w[-2] += h / 2.0
    w[-1] += h / 2.0
    return w


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def tensor_weights(w1: np.ndarray, dim: int) -> np.ndarray:
    """The 1d weights applied along each of dim axes: w1 (x) w1 (x) ..."""
    return reduce(np.multiply.outer, [w1] * dim)


def _weighted_simpson(f: GridFunction, weight: GridFunction | None) -> tuple[np.ndarray, float]:
    """The node values of f times the weight, and their Simpson integral."""
    vals = f.values
    if weight is not None:
        f._check_same_grid(weight)
        vals = vals * weight.values
    g = f.grid
    rule = tensor_weights(simpson_weights(g.nodes_per_axis, g.spacing), g.dim)
    return vals, float(np.sum(rule * vals))


def quadrature(f: GridFunction, weight: GridFunction | None = None) -> float:
    """Composite Simpson integral of f (optionally times a weight field)."""
    return _weighted_simpson(f, weight)[1]


def _coarse_quadrature(grid: Grid, vals: np.ndarray) -> float | None:
    """Simpson on every other node, when that subgrid is itself Simpson-able."""
    n = grid.nodes_per_axis
    if (n - 1) % 4 != 0:
        return None
    w = tensor_weights(simpson_weights((n + 1) // 2, 2.0 * grid.spacing), grid.dim)
    return float(np.sum(w * vals[(slice(None, None, 2),) * grid.dim]))


def quadrature_with_error(f: GridFunction, weight: GridFunction | None = None) -> tuple[float, float]:
    """Simpson integral plus an a-posteriori error estimate.

    The estimate is |Simpson(h) - Simpson(2h)| when the coarse subgrid
    exists, otherwise |Simpson - trapezoid| on the full grid.
    """
    vals, fine = _weighted_simpson(f, weight)
    coarse = _coarse_quadrature(f.grid, vals)
    if coarse is None:
        g = f.grid
        tw = tensor_weights(trapezoid_weights(g.nodes_per_axis, g.spacing), g.dim)
        coarse = float(np.sum(tw * vals))
    return fine, abs(fine - coarse)


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


def block_integral(block: np.ndarray, h: float) -> float:
    """Integral of a block of node values (spacing h along every axis) with
    the segment rule contracted one axis at a time, the last axis by a
    plain weighted sum."""
    for n in block.shape[:-1]:
        block = segment_weights(n, h) @ block
    return float(np.sum(segment_weights(block.shape[0], h) * block))


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


@dataclass(frozen=True)
class Mollifier:
    """Discrete smoothing kernel built from the standard radial bump.

    Taps live on grid offsets inside the closed ball of radius eps and are
    normalized so that the discrete convolution sum has unit mass; convolving
    a constant therefore reproduces it exactly, and sup norms contract.
    """

    eps: float
    spacing: float
    dim: int
    taps: np.ndarray  # shape (2K+1,) * dim

    @staticmethod
    def build(grid: Grid, eps: float) -> "Mollifier":
        h = grid.spacing
        if eps < h:
            raise ValueError(f"eps {eps} below grid spacing {h}: kernel not resolvable")
        K = int(np.floor(eps / h + 1e-12))
        offsets = np.meshgrid(*[np.arange(-K, K + 1) * h] * grid.dim, indexing="ij")
        raw = bump_profile(np.sqrt(sum(o * o for o in offsets)) / eps)
        total = raw.sum()
        if total <= 0.0:
            raise ValueError("empty mollifier kernel")
        return Mollifier(eps=eps, spacing=h, dim=grid.dim, taps=raw / total)

    @property
    def mass(self) -> float:
        """Discrete kernel mass in the convolution's own sum; 1 by construction."""
        return float(self.taps.sum())


def mollify(f: GridFunction, eps: float) -> GridFunction:
    """Discrete convolution with the standard bump kernel at scale eps.

    The input is extended by zero outside the box; the support radius grows
    by at most eps and the sup norm does not increase.
    """
    taps = Mollifier.build(f.grid, eps).taps
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
    # summed-area table with a zero border: S[i+1, j+1] = sum of |f|[:i+1, :j+1]
    csum = np.abs(f.values)
    for a in range(d):
        csum = np.cumsum(csum, axis=a)
    S = np.zeros((n + 1,) * d)
    S[(slice(1, None),) * d] = csum
    corners = _cell_corners(d)
    best = np.zeros(f.grid.shape)
    for k in range(1, kmax + 1):
        lo = np.maximum(idx - k, 0)
        hi = np.minimum(idx + k, n - 1)
        # S at every box corner, gathered one axis at a time; the list ends
        # up in _cell_corners order with 0 = upper end, 1 = lower end
        ends = (hi + 1, lo)
        parts = [S]
        for a in reversed(range(d)):
            parts = [part.take(end, axis=a) for part in parts for end in ends]
        # inclusion-exclusion: a corner with an odd number of lower ends subtracts
        box = parts[0]
        for part, corner in zip(parts[1:], corners[1:]):
            box = box - part if sum(corner) % 2 else box + part
        avg = box / tensor_weights(hi - lo + 1, d)
        np.maximum(best, avg, out=best)
    return GridFunction(f.grid, best)


# ---------------------------------------------------------------------------
# shifted sampling and difference quotients
# ---------------------------------------------------------------------------


def _cell_corners(dim: int) -> list[tuple[int, ...]]:
    """The 0/1 corners of a cell, first axis varying fastest: (0, 0), (1, 0),
    (0, 1), (1, 1) in 2d.  Sums over corners run in this order, which fixes
    their rounding."""
    return [c[::-1] for c in itertools.product((0, 1), repeat=dim)]


def _sample_shifted(f: GridFunction, delta: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of f at (node - delta), zero outside the box."""
    g = f.grid
    h, R, n = g.spacing, g.half_width, g.nodes_per_axis
    coords = [(m - dm + R) / h for m, dm in zip(g.mesh(), delta)]  # fractional indices
    inside = np.logical_and.reduce([(c >= 0) & (c <= n - 1) for c in coords])
    coords = [np.clip(c, 0, n - 1) for c in coords]
    base = [np.clip(np.floor(c).astype(int), 0, n - 2) for c in coords]
    frac = [c - b for c, b in zip(coords, base)]
    terms = []
    for corner in _cell_corners(g.dim):
        term = f.values[tuple(b + up for b, up in zip(base, corner))]
        for up, fr in zip(corner, frac):
            term = term * (fr if up else 1 - fr)
        terms.append(term)
    return np.where(inside, reduce(np.add, terms), 0.0)


def difference_quotient(f: GridFunction, z, eps: float) -> GridFunction:
    """(f(x - eps*z) - f(x)) / eps with linear off-node interpolation.

    z must lie in the closed unit ball; f is treated as zero outside the box.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (f.grid.dim,):
        raise ValueError(f"direction must have {f.grid.dim} components")
    if np.linalg.norm(z) > 1.0 + 1e-12:
        raise ValueError("direction must lie in the closed unit ball")
    shifted = _sample_shifted(f, eps * z)
    csr = f.compact_support_radius
    if csr is not None:
        csr = min(csr + eps, f.grid.half_width * np.sqrt(f.grid.dim))
    return GridFunction(f.grid, (shifted - f.values) / eps, csr)


def truncate(f: GridFunction, level: float) -> GridFunction:
    """Clamp node values to [-level, level]."""
    if level <= 0:
        raise ValueError("truncation level must be positive")
    return GridFunction(
        f.grid, np.clip(f.values, -level, level), f.compact_support_radius
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_grid_function_csv(f: GridFunction, path: str | Path) -> None:
    """One row per node in C order: the node's coordinates, then its value."""
    g = f.grid
    coords = map("".join, itertools.product([f"{x:.12g}," for x in g.axis()], repeat=g.dim))
    rows = "".join(f"{c}{v:.12g}\n" for c, v in zip(coords, f.values.ravel().tolist()))
    with open(path, "w", newline="") as fh:
        fh.write(",".join("xy"[: g.dim]) + ",value\n" + rows)


def save_grid_function_binary(f: GridFunction, path: str | Path) -> None:
    """Row-major float64 dump prefixed with a one-line JSON header."""
    header = {
        "dim": f.grid.dim,
        "n": f.grid.nodes_per_axis,
        "R": f.grid.half_width,
    }
    if f.compact_support_radius is not None:
        header["support_radius"] = f.compact_support_radius
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_grid_function_binary(path: str | Path) -> GridFunction:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        grid = Grid(int(header["dim"]), float(header["R"]), int(header["n"]))
        raw = fh.read()
    vals = np.frombuffer(raw, dtype="<f8").reshape(grid.shape).copy()
    return GridFunction(grid, vals, header.get("support_radius"))

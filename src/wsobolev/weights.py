"""Weight catalog and diagnostic estimators.

The catalog weight is w(x) = exp(-beta*|x|^q - W(x) - V(x)) with q > 1 and
W, V built from a small term algebra (constants, powers of |x|, quadratic
forms, cosines).  The module evaluates w, its p-th root, and the logarithmic
drift grad(w)/w in closed form, fits the growth and dilation constants that
certify the weight's admissibility hypotheses, and estimates doubling and
Muckenhoupt characteristics of arbitrary positive grid weights by ball
quadrature.

Balls are axis-aligned boxes: in one dimension these are the usual
intervals, and in two dimensions the box shape keeps doubled-ball ratios
exact for flat weights (a Euclidean disk cannot be integrated to 1e-9 with
node quadrature).  Ball centers and radii snap to the node lattice.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .grid import Grid, GridFunction, ball_slices, integrate, lattice_points, segment_weights, \
    trapezoid_weights

__all__ = [
    "ConstantTerm",
    "PowerAbsTerm",
    "QuadraticTerm",
    "CosineTerm",
    "PotentialExpr",
    "WeightSpec",
    "eval_weight",
    "eval_weight_root",
    "eval_log_drift",
    "weight_on_grid",
    "root_on_grid",
    "DilationFit",
    "fit_growth_constants",
    "fit_dilation_bound",
    "AdmissibilityReport",
    "check_admissibility",
    "Ball",
    "DoublingReport",
    "estimate_doubling",
    "MuckenhouptReport",
    "estimate_muckenhoupt",
    "RegReport",
    "check_reciprocal_integrability",
]

_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)


# ---------------------------------------------------------------------------
# potential term algebra
# ---------------------------------------------------------------------------


def _radii(pts: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(pts * pts, axis=-1))


@dataclass(frozen=True)
class ConstantTerm:
    c: float

    def value(self, pts: np.ndarray) -> np.ndarray:
        return np.full(pts.shape[:-1], float(self.c))

    def grad(self, pts: np.ndarray) -> np.ndarray:
        return np.zeros(pts.shape)


@dataclass(frozen=True)
class PowerAbsTerm:
    """c * |x|^s with s >= 1; the gradient is taken to vanish at the origin.
    A gradient beyond float range is infinite where its coordinate is not
    zero, and zero where it is."""

    c: float
    s: float

    def __post_init__(self) -> None:
        if self.s < 1.0:
            raise ValueError(f"power term needs s >= 1, got {self.s}")

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self.c * _radii(pts) ** self.s

    def grad(self, pts: np.ndarray) -> np.ndarray:
        r = _radii(pts)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            scale = np.where(r > 0.0, self.c * self.s * r ** (self.s - 2.0), 0.0)
            return np.where(pts != 0.0, scale[..., None] * pts, 0.0)


@dataclass(frozen=True)
class QuadraticTerm:
    c: float

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self.c * np.sum(pts * pts, axis=-1)

    def grad(self, pts: np.ndarray) -> np.ndarray:
        # c * pts first: a zero coordinate then gives 0, not inf * 0 = NaN,
        # and doubling is exact, so finite values round as 2c * x would
        return 2.0 * (self.c * pts)


@dataclass(frozen=True)
class CosineTerm:
    """c * cos(<k, x>) for a wave vector k matching the dimension."""

    c: float
    k: tuple[float, ...]

    def value(self, pts: np.ndarray) -> np.ndarray:
        kv = np.asarray(self.k, dtype=float)
        return self.c * np.cos(np.tensordot(pts, kv, axes=([-1], [0])))

    def grad(self, pts: np.ndarray) -> np.ndarray:
        kv = np.asarray(self.k, dtype=float)
        phase = np.tensordot(pts, kv, axes=([-1], [0]))
        return (-self.c * np.sin(phase))[..., None] * kv


Term = ConstantTerm | PowerAbsTerm | QuadraticTerm | CosineTerm


@dataclass(frozen=True)
class PotentialExpr:
    """Sum of catalog terms; evaluates values and gradients in closed form."""

    terms: tuple[Term, ...] = ()

    def value(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[:-1])
        for t in self.terms:
            out = out + t.value(pts)
        return out

    def grad(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape)
        for t in self.terms:
            out = out + t.grad(pts)
        return out

    def grad_norm(self, pts: np.ndarray) -> np.ndarray:
        return _radii(self.grad(pts))

    def __neg__(self) -> "PotentialExpr":
        return PotentialExpr(tuple(replace(t, c=-t.c) for t in self.terms))

    @staticmethod
    def from_json(items: Sequence[dict], dim: int) -> "PotentialExpr":
        """Terms from their JSON objects.  A malformed term raises ValueError
        whose message starts with the term's path relative to the list,
        e.g. "[0].s: required field is missing"."""
        return PotentialExpr(tuple(_term_from_json(item, dim, f"[{i}]")
                                   for i, item in enumerate(items)))


# JSON kind -> term class and the JSON fields of its constructor arguments
_TERM_KINDS = {
    "constant": (ConstantTerm, ("c",)),
    "power_abs": (PowerAbsTerm, ("c", "s")),
    "quadratic_form": (QuadraticTerm, ("c",)),
    "cosine": (CosineTerm, ("c", "k")),
}


def is_finite_number(v) -> bool:
    """True for a JSON number (not a boolean) that is finite as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond float range
        return False


def json_number(obj: dict, key: str, path: str) -> float:
    """The finite number obj[key]; errors name the field by path."""
    if key not in obj:
        raise ValueError(f"{path}: required field is missing")
    val = obj[key]
    if not is_finite_number(val):
        raise ValueError(f"{path}: expected a finite number, got {val!r}")
    return float(val)


def _term_from_json(item, dim: int, path: str) -> Term:
    if not isinstance(item, dict):
        raise ValueError(f"{path}: expected an object, got {type(item).__name__}")
    kind = item.get("kind")
    if not isinstance(kind, str) or kind not in _TERM_KINDS:
        raise ValueError(f"{path}.kind: unknown kind {kind!r}")
    cls, keys = _TERM_KINDS[kind]
    args = []
    for key in keys:
        val = item.get(key)
        if key != "k" or key not in item:
            args.append(json_number(item, key, f"{path}.{key}"))
        elif isinstance(val, list) and len(val) == dim and all(map(is_finite_number, val)):
            args.append(tuple(float(v) for v in val))
        else:
            raise ValueError(f"{path}.k: expected a list of {dim} finite numbers, got {val!r}")
    try:
        return cls(*args)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# weight spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightSpec:
    """Parameters of the catalog weight exp(-beta*|x|^q - W - V)."""

    beta: float
    q: float
    dim: int
    W: PotentialExpr = field(default_factory=PotentialExpr)
    V: PotentialExpr = field(default_factory=PotentialExpr)

    def __post_init__(self) -> None:
        if self.q <= 1.0:
            raise ValueError(f"q must exceed 1, got {self.q}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")

    def exponent(self, pts: np.ndarray) -> np.ndarray:
        """log w(x) = -beta*|x|^q - W(x) - V(x).  A term beyond float range
        gives an infinite exponent, which eval_weight clamps like any other
        underflow; terms beyond it with opposite signs (inf - inf) raise
        ValueError at the first such point."""
        with np.errstate(over="ignore", invalid="ignore"):
            radial = PowerAbsTerm(-self.beta, self.q).value(pts)
            out = radial - self.W.value(pts) - self.V.value(pts)
        if np.isnan(out).any():
            x = tuple(float(c) for c in pts[np.isnan(out)][0])
            raise ValueError(f"log w is undefined (inf - inf) at x = {x}")
        return out

    @staticmethod
    def from_json(d: dict) -> "WeightSpec":
        """The spec of a JSON weight object.  A malformed object raises
        ValueError whose message starts with the field's path relative to
        the object, e.g. "beta: must be nonzero" or "W[0].s: ..."."""
        if not isinstance(d, dict):
            raise ValueError(f"expected an object, got {type(d).__name__}")
        for key in d:
            if key not in ("beta", "q", "dim", "W", "V"):
                raise ValueError(f"{key}: unknown field")
        beta = json_number(d, "beta", "beta")
        if beta == 0.0:
            raise ValueError("beta: must be nonzero")
        q = json_number(d, "q", "q")
        if q <= 1.0:
            raise ValueError(f"q: must be > 1, got {q:g}")
        if not math.isfinite(beta * q):
            raise ValueError(f"beta: beta * q must be finite, got {beta:g} * {q:g}")
        if "dim" not in d:
            raise ValueError("dim: required field is missing")
        dim = d["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ValueError(f"dim: expected an integer, got {dim!r}")
        if dim not in (1, 2):
            raise ValueError(f"dim: must be 1 or 2, got {dim}")

        def potential(key: str) -> PotentialExpr:
            items = d.get(key, [])
            if not isinstance(items, list):
                raise ValueError(f"{key}: expected a list of terms")
            try:
                return PotentialExpr.from_json(items, dim)
            except ValueError as err:
                raise ValueError(f"{key}{err}") from None

        return WeightSpec(beta=beta, q=q, dim=dim, W=potential("W"), V=potential("V"))


def eval_weight(spec: WeightSpec, pts: np.ndarray) -> np.ndarray:
    """Weight values at points of shape (..., dim).  Exponents below the
    representable range clamp to the smallest positive float."""
    return eval_weight_root(spec, pts, 1.0)


def eval_weight_root(spec: WeightSpec, pts: np.ndarray, p: float) -> np.ndarray:
    """p-th root of the weight, computed as exp(log(w)/p) for accuracy."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    pts = np.asarray(pts, dtype=float)
    return np.exp(np.maximum(spec.exponent(pts) / p, _LOG_TINY))


def eval_log_drift(spec: WeightSpec, pts: np.ndarray) -> np.ndarray:
    """Closed-form grad(w)/w = -beta*q*|x|^(q-1)*x/|x| - grad W - grad V.

    The radial factor is taken to vanish at the origin (the sign convention
    sign(0) = 0); for q > 1 this is also the continuous extension.  A radial
    factor beyond float range is infinite, and its zero coordinates stay zero.
    """
    pts = np.asarray(pts, dtype=float)
    return PowerAbsTerm(-spec.beta, spec.q).grad(pts) - spec.W.grad(pts) - spec.V.grad(pts)


def weight_on_grid(spec: WeightSpec, grid: Grid) -> GridFunction:
    if spec.dim != grid.dim:
        raise ValueError("weight and grid dimensions differ")
    return GridFunction(grid, eval_weight(spec, grid.points()))


def root_on_grid(spec: WeightSpec, grid: Grid, p: float) -> GridFunction:
    if spec.dim != grid.dim:
        raise ValueError("weight and grid dimensions differ")
    return GridFunction(grid, eval_weight_root(spec, grid.points(), p))


# ---------------------------------------------------------------------------
# admissibility diagnostics
# ---------------------------------------------------------------------------


# sample count and search lattices of the admissibility fits
_FIT_SAMPLES = 2001
_DELTA_STEP = 0.01
_DELTA_MAX = 10.0
_C1_STEP = 0.05
_C1_MAX = 8.0
_C2_CAP = 1e6


@dataclass(frozen=True)
class DilationFit:
    """Constants (c1, c2) with F(2x) <= c1*F(x) + c2 on the sample box."""

    ok: bool
    c1: float
    c2: float


def fit_dilation_bound(expr: PotentialExpr, pts: np.ndarray) -> DilationFit:
    """Fit the doubled-argument growth bound F(2x) <= c1*F(x) + c2 on pts.

    c1 runs over the lattice {1, 1+step, ...}; for each c1 the matching
    offset is the max sample residual of F(2x) - c1*F(x).  The smallest c1
    whose offset stays below the cap wins; the fit fails when no lattice
    point does.
    """
    c1s = np.arange(1.0, _C1_MAX + 0.5 * _C1_STEP, _C1_STEP)
    fallback = None
    # F beyond float range is infinite, as in WeightSpec.exponent; where F(2x)
    # and c1*F(x) are the same infinity the bound holds, so fmax skips the NaN
    with np.errstate(over="ignore", invalid="ignore"):
        fx = expr.value(pts)
        f2x = expr.value(2.0 * pts)
        for c1 in c1s:
            c2 = float(np.fmax.reduce(f2x - c1 * fx, axis=None))
            if c2 <= _C2_CAP:
                return DilationFit(ok=True, c1=float(c1), c2=c2)
            if fallback is None or c2 < fallback[1]:
                fallback = (float(c1), c2)
    return DilationFit(ok=False, c1=fallback[0], c2=fallback[1])


@dataclass(frozen=True)
class AdmissibilityReport:
    """Fitted constants behind the weight's admissibility hypotheses."""

    beta: float
    q: float
    dim: int
    delta: float
    gamma: float
    grad_bound_ok: bool
    drift_budget: float  # beta*q, the strict upper bound for delta
    osc_V: float
    dilation_W: DilationFit
    dilation_V: DilationFit
    reg_ok: bool
    diff_ok: bool
    admissible: bool
    sample_half_width: float
    n_samples: int


def fit_growth_constants(expr: PotentialExpr, q: float, pts: np.ndarray) -> tuple[float, float]:
    """Fit (delta, gamma) with |grad F(x)| <= delta*|x|^(q-1) + gamma on pts.

    delta runs over {0, step, 2*step, ...}; gamma(delta) is the max sample
    residual clipped at zero.  gamma is non-increasing in delta, also in
    floating point (delta*r, the subtraction and both maxima round
    monotonically), so the minimal gamma is gamma(delta_max) and the
    smallest delta attaining it is found by bisection over the lattice.  A
    gradient beyond float range is infinite; an undefined (NaN) one raises
    ValueError at the first such point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gnorm = expr.grad_norm(pts)
    if np.isnan(gnorm).any():
        x = tuple(float(c) for c in pts[np.isnan(gnorm)][0])
        raise ValueError(f"grad W is undefined (NaN) at x = {x}")
    rq = _radii(pts) ** (q - 1.0)
    deltas = np.arange(0.0, _DELTA_MAX + 0.5 * _DELTA_STEP, _DELTA_STEP)

    def gamma(i: int) -> float:
        return float(np.maximum(gnorm - deltas[i] * rq, 0.0).max())

    gmin = gamma(len(deltas) - 1)
    limit = gmin + 1e-12 * (1.0 + gmin)
    pick = bisect.bisect_left(range(len(deltas)), True, key=lambda i: gamma(i) <= limit)
    return float(deltas[pick]), gamma(pick)


def check_admissibility(spec: WeightSpec, half_width: float) -> AdmissibilityReport:
    """Fit every admissibility hypothesis of a catalog weight on a sample box.

    Requires beta > 0.  The smooth strictly positive catalog makes the
    regularity and differentiability hypotheses structural; they are recorded
    as booleans rather than re-derived.
    """
    if spec.beta <= 0.0:
        raise ValueError("admissibility requires beta > 0")
    pts = lattice_points(spec.dim, half_width, _FIT_SAMPLES)
    delta, gamma = fit_growth_constants(spec.W, spec.q, pts)
    budget = spec.beta * spec.q
    vvals = spec.V.value(pts)
    osc_v = float(vvals.max() - vvals.min())
    dil_w = fit_dilation_bound(-spec.W, pts)
    dil_v = fit_dilation_bound(-spec.V, pts)
    grad_ok = delta < budget and math.isfinite(gamma)
    admissible = bool(grad_ok and math.isfinite(osc_v) and dil_w.ok and dil_v.ok)
    return AdmissibilityReport(
        beta=spec.beta,
        q=spec.q,
        dim=spec.dim,
        delta=delta,
        gamma=gamma,
        grad_bound_ok=grad_ok,
        drift_budget=budget,
        osc_V=osc_v,
        dilation_W=dil_w,
        dilation_V=dil_v,
        reg_ok=True,
        diff_ok=True,
        admissible=admissible,
        sample_half_width=half_width,
        n_samples=_FIT_SAMPLES,
    )


# ---------------------------------------------------------------------------
# ball quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """Axis-aligned box ball: center (grid-aligned) and radius."""

    center: tuple[float, ...]
    radius: float

    @staticmethod
    def of(center, radius: float) -> "Ball":
        """A ball whose centre is a coordinate sequence or, in 1d, a bare
        number; the benchmark's oracle cases use the bare-number form."""
        c = np.atleast_1d(np.asarray(center, dtype=float))
        return Ball(tuple(float(v) for v in c), float(radius))


@dataclass(frozen=True)
class BallEntry:
    center: tuple[float, ...]
    radius: float
    value: float | None
    note: str = ""


def _largest_value(entries: Sequence[BallEntry]) -> float | None:
    return max((e.value for e in entries if e.value is not None), default=None)


@dataclass(frozen=True)
class DoublingReport:
    entries: tuple[BallEntry, ...]
    constant: float | None  # max ratio over balls whose double fits the box


def estimate_doubling(field: GridFunction, balls: Sequence[Ball]) -> DoublingReport:
    """Mass ratios of concentric doubled balls, integral(2B)/integral(B).

    Balls whose doubling escapes the box are reported with a warning note
    instead of a number; the returned constant is the max over valid balls.
    """
    entries: list[BallEntry] = []
    h = field.grid.spacing
    for ball in balls:
        inner = ball_slices(field.grid, ball.center, ball.radius)
        outer = ball_slices(field.grid, ball.center, 2.0 * ball.radius)
        if inner is None or outer is None:
            entries.append(
                BallEntry(ball.center, ball.radius, None, "doubled ball escapes the grid box")
            )
            continue
        denom = integrate(field.values[inner], h, segment_weights)
        if denom <= 0.0:
            entries.append(BallEntry(ball.center, ball.radius, None, "ball carries no mass"))
            continue
        ratio = integrate(field.values[outer], h, segment_weights) / denom
        entries.append(BallEntry(ball.center, ball.radius, ratio))
    return DoublingReport(tuple(entries), _largest_value(entries))


# --- Muckenhoupt -----------------------------------------------------------

# weight values at or below this count as zero nodes in the Muckenhoupt integral
_ZERO_WEIGHT = 1e-300


def _power_fit_integral(
    w: np.ndarray, idx0: int, lo: int, hi: int, h: float, s: float, halo: int
) -> tuple[float, float]:
    """Integrals of w^s over [x0 - halo*h, x0] and [x0, x0 + halo*h] by local
    power-law extrapolation around a zero node; exact for pure power data."""
    out = []
    for sgn in (-1, +1):
        i1 = idx0 + sgn * (halo // 2)
        i2 = idx0 + sgn * halo
        if i2 < lo or i2 > hi:
            raise ValueError(f"zero weight node {idx0} too close to the ball edge")
        w1, w2 = w[i1], w[i2]
        if w1 <= 0.0 or w2 <= 0.0:
            raise ValueError(f"weight vanishes on several nodes near node {idx0}")
        alpha = math.log(w2 / w1) / math.log(2.0)
        if alpha * s <= -1.0:
            raise ValueError(
                f"weight power near node {idx0} is not integrable at exponent {s:g}"
            )
        dist = halo * h
        amp = w2 / dist**alpha
        out.append(amp**s * dist ** (alpha * s + 1.0) / (alpha * s + 1.0))
    return out[0], out[1]


def _ball_integral_power(field: GridFunction, box: tuple[slice, ...], s: float) -> float:
    """Integral of w^s over a ball; w may vanish at isolated interior nodes,
    which are handled by power-law extrapolation (1d only)."""
    h = field.grid.spacing
    block = field.values[box]

    def node(offset) -> tuple[int, ...]:
        return tuple(sl.start + int(i) for sl, i in zip(box, offset))

    negative = np.argwhere(block < 0.0)
    if len(negative):
        bad = node(negative[0])
        x = tuple(float(field.grid.axis()[i]) for i in bad)
        raise ValueError(f"negative weight at node {bad} (x={x})")
    zeros = np.argwhere(block <= _ZERO_WEIGHT)
    if len(zeros) == 0:
        return integrate(block**s, h, segment_weights)
    # The extrapolation fits a power law along the line through the zero node,
    # which only 1d supports; in 2d a zero node inside a ball is an error.
    if field.grid.dim != 1:
        raise ValueError(f"weight vanishes at node {node(zeros[0])} inside a ball")
    if len(zeros) > 1:
        raise ValueError(f"weight vanishes at several nodes, e.g. node {node(zeros[1])[0]}")
    lo, hi = box[0].start, box[0].stop - 1
    w = field.values
    idx0 = node(zeros[0])[0]
    halo = 4
    left, right = _power_fit_integral(w, idx0, lo, hi, h, s, halo)
    total = left + right
    if idx0 - halo > lo:
        total += integrate(w[lo : idx0 - halo + 1] ** s, h, segment_weights)
    if idx0 + halo < hi:
        total += integrate(w[idx0 + halo : hi + 1] ** s, h, segment_weights)
    return total


@dataclass(frozen=True)
class MuckenhouptReport:
    p: float
    entries: tuple[BallEntry, ...]
    constant: float | None


def estimate_muckenhoupt(field: GridFunction, p: float,
                         balls: Sequence[Ball]) -> MuckenhouptReport:
    """Per-ball Muckenhoupt products (avg_B w) * (avg_B w^(-1/(p-1)))^(p-1).

    Jensen's inequality forces every product to be >= 1.  Negative weight
    nodes raise; isolated zero nodes are integrated by local power-law
    extrapolation when the reciprocal stays integrable, and raise otherwise.
    """
    if p <= 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    s = -1.0 / (p - 1.0)
    entries: list[BallEntry] = []
    h = field.grid.spacing
    for ball in balls:
        box = ball_slices(field.grid, ball.center, ball.radius)
        if box is None:
            entries.append(BallEntry(ball.center, ball.radius, None, "ball escapes the grid box"))
            continue
        # Average over the node-snapped segment actually integrated, not the
        # nominal (2r)^dim box, so constant weights score exactly 1 for any ball.
        vol = math.prod((sl.stop - 1 - sl.start) * h for sl in box)
        avg_w = _ball_integral_power(field, box, 1.0) / vol
        avg_rec = _ball_integral_power(field, box, s) / vol
        value = avg_w * avg_rec ** (p - 1.0)
        entries.append(BallEntry(ball.center, ball.radius, value))
    return MuckenhouptReport(p, tuple(entries), _largest_value(entries))


# --- local integrability of the reciprocal root ----------------------------

# fine/coarse quadrature ratio of a unit cell beyond which it counts as divergent
_DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class RegReport:
    ok: bool
    p: float
    worst_cell: tuple[float, ...] | None
    fine: float | None
    coarse: float | None
    ratio: float | None


def _unit_cell_bounds(grid: Grid) -> list[tuple[int, int]]:
    """Index ranges of unit-scale subcells, aligned to even node offsets."""
    h = grid.spacing
    m = max(2, 2 * int(round(0.5 / h)))  # nodes per unit cell, even cell count
    n = grid.nodes_per_axis
    bounds = []
    lo = 0
    while lo < n - 1:
        hi = min(lo + m, n - 1)
        if n - 1 - hi < m // 2:
            hi = n - 1
        bounds.append((lo, hi))
        lo = hi
    return bounds


def check_reciprocal_integrability(field: GridFunction, p: float) -> RegReport:
    """Check local integrability of w^(-1/(p-1)) cell by cell (boundedness of
    1/w for p = 1).

    Each unit-scale subcell's quadrature at full resolution is compared with
    the half-resolution value; growth beyond _DIVERGENCE_FACTOR, or a
    nonpositive node, marks the cell as divergent.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    g = field.grid
    w = field.values
    if np.any(w < 0.0):
        raise ValueError("weight field must be nonnegative")
    h = g.spacing
    axis = g.axis()
    half = (slice(None, None, 2),) * g.dim

    # mirror-image cells tie in exact arithmetic but not in the last bits, so
    # the worst cell has the largest ratio to 12 digits, then the smallest index
    worst = None
    for cell in itertools.product(_unit_cell_bounds(g), repeat=g.dim):
        block = w[tuple(slice(lo, hi + 1) for lo, hi in cell)]
        origin = tuple(float(axis[lo]) for lo, _ in cell)
        if np.any(block <= 0.0):
            return RegReport(False, p, origin, None, None, None)
        if p == 1.0:
            rec = 1.0 / block
            fine, coarse = float(rec.max()), float(rec[half].max())
        else:
            rec = block ** (-1.0 / (p - 1.0))
            fine = integrate(rec, h, trapezoid_weights)
            coarse = integrate(rec[half], 2 * h, trapezoid_weights)
        ratio = fine / coarse if coarse > 0 else math.inf
        key = float(f"{ratio:.12g}")
        if worst is None or key > worst[0]:
            worst = (key, origin, ratio, fine, coarse)
        if ratio > _DIVERGENCE_FACTOR:
            return RegReport(False, p, origin, fine, coarse, ratio)
    _, origin, ratio, fine, coarse = worst
    return RegReport(True, p, origin, fine, coarse, ratio)

"""Weight catalog and diagnostic estimators.

The catalog weight is w(x) = exp(-beta*|x|^q - W(x) - V(x)) with q > 1 and
W, V built from a small term algebra (constants, powers of |x|, quadratic
forms, cosines).  The module evaluates w, its p-th root, and the logarithmic
drift grad(w)/w in closed form at x given as coordinate arrays, one per axis,
that broadcast together (a gradient is one array per axis too).  It certifies
the weight's admissibility hypotheses for every x from the terms themselves
(growth constants of grad W, convexity of W, boundedness of V), and
estimates doubling and Muckenhoupt characteristics of arbitrary positive
grid weights by ball quadrature.

Balls are axis-aligned boxes: in one dimension these are the usual
intervals, and in two dimensions the box shape keeps doubled-ball ratios
exact for flat weights (a Euclidean disk cannot be integrated to 1e-9 with
node quadrature).  Ball centers and radii snap to the node lattice.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._record import Record
from .grid import Grid, GridFunction, ball_slices, integrate, segment_weights, squared_norm

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
    "AdmissibilityReport",
    "check_admissibility",
    "Ball",
    "DoublingReport",
    "estimate_doubling",
    "MuckenhouptReport",
    "estimate_muckenhoupt",
]

_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)
_LOG_HUGE = math.log(np.finfo(float).max)


# ---------------------------------------------------------------------------
# potential term algebra
# ---------------------------------------------------------------------------


def _shape(x: Sequence[np.ndarray]) -> tuple[int, ...]:
    """The shape that per-axis coordinate arrays broadcast to."""
    return np.broadcast_shapes(*(np.shape(a) for a in x))


def _axes(x: Sequence, dim: int) -> list[np.ndarray]:
    """x as float arrays, one per axis of a weight of dimension dim."""
    x = [np.asarray(a, dtype=float) for a in x]
    if len(x) != dim:
        raise ValueError("weight and grid dimensions differ")
    return x


class ConstantTerm(Record):
    c: float

    def value(self, x: Sequence[np.ndarray]) -> np.ndarray:
        return np.full(_shape(x), float(self.c))

    def grad(self, x: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [np.zeros(_shape(x)) for _ in x]


class PowerAbsTerm(Record):
    """c * |x|^s with s >= 1; the gradient is taken to vanish at the origin.
    A gradient beyond float range is infinite where its coordinate is not
    zero, and zero where it is."""

    c: float
    s: float

    def __post_init__(self) -> None:
        if self.s < 1.0:
            raise ValueError(f"power term needs s >= 1, got {self.s}")

    def value(self, x: Sequence[np.ndarray]) -> np.ndarray:
        return self.c * np.sqrt(squared_norm(x)) ** self.s

    def grad(self, x: Sequence[np.ndarray]) -> list[np.ndarray]:
        r = np.sqrt(squared_norm(x))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            scale = np.where(r > 0.0, self.c * self.s * r ** (self.s - 2.0), 0.0)
            return [np.where(a != 0.0, scale * a, 0.0) for a in x]


class QuadraticTerm(Record):
    c: float

    def value(self, x: Sequence[np.ndarray]) -> np.ndarray:
        return self.c * squared_norm(x)

    def grad(self, x: Sequence[np.ndarray]) -> list[np.ndarray]:
        # c * x first: a zero coordinate then gives 0, not inf * 0 = NaN,
        # and doubling is exact, so finite values round as 2c * x would
        return [2.0 * (self.c * a) for a in x]


class CosineTerm(Record):
    """c * cos(<k, x>), the products k_a * x_a added in axis order."""

    c: float
    k: tuple[float, ...]

    def _phase(self, x: Sequence[np.ndarray]) -> np.ndarray:
        return sum(k * a for k, a in zip(self.k, x, strict=True))

    def value(self, x: Sequence[np.ndarray]) -> np.ndarray:
        return self.c * np.cos(self._phase(x))

    def grad(self, x: Sequence[np.ndarray]) -> list[np.ndarray]:
        amplitude = -self.c * np.sin(self._phase(x))
        return [amplitude * k for k in self.k]


Term = ConstantTerm | PowerAbsTerm | QuadraticTerm | CosineTerm


class PotentialExpr(Record):
    """Sum of catalog terms; evaluates values and gradients in closed form."""

    terms: tuple[Term, ...] = ()

    def value(self, x: Sequence[np.ndarray]) -> np.ndarray:
        return sum((t.value(x) for t in self.terms), np.zeros(_shape(x)))

    def grad(self, x: Sequence[np.ndarray]) -> list[np.ndarray]:
        grads = [t.grad(x) for t in self.terms]
        return [sum((g[a] for g in grads), np.zeros(_shape(x))) for a in range(len(x))]

    def merged(self) -> tuple[dict[float, float], list[tuple[float, float]]]:
        """Like terms summed: the nonzero coefficient of each power of |x|
        (a quadratic form is power 2), and (|c|, |k|) of each cosine with c
        and k nonzero.  Constants and cosines with k = 0 are constant, and
        no bound reads them."""
        radial: dict[float, float] = {}
        cosines = []
        for t in self.terms:
            if isinstance(t, QuadraticTerm):
                t = PowerAbsTerm(t.c, 2.0)
            if isinstance(t, PowerAbsTerm):
                radial[t.s] = radial.get(t.s, 0.0) + t.c
            elif isinstance(t, CosineTerm) and t.c != 0.0 and any(t.k):
                cosines.append((abs(t.c), math.hypot(*t.k)))
        return {s: c for s, c in radial.items() if c != 0.0}, cosines

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


class WeightSpec(Record):
    """Parameters of the catalog weight exp(-beta*|x|^q - W - V)."""

    beta: float
    q: float
    dim: int
    W: PotentialExpr = PotentialExpr()  # shared: a record is immutable
    V: PotentialExpr = PotentialExpr()

    def __post_init__(self) -> None:
        if self.q <= 1.0:
            raise ValueError(f"q must exceed 1, got {self.q}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")

    def exponent(self, x: Sequence) -> np.ndarray:
        """log w(x) = -beta*|x|^q - W(x) - V(x).  A term beyond float range
        gives an infinite exponent, which eval_weight clamps like any other
        underflow; terms beyond it with opposite signs (inf - inf), or a
        cosine whose phase k·x is beyond it, raise ValueError at the first
        such point."""
        x = _axes(x, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            radial = PowerAbsTerm(-self.beta, self.q).value(x)
            out = radial - self.W.value(x) - self.V.value(x)
        if np.isnan(out).any():
            at = tuple(float(a[np.isnan(out)][0]) for a in np.broadcast_arrays(*x))
            cosines = [t for t in self.W.terms + self.V.terms if isinstance(t, CosineTerm)]
            if not all(math.isfinite(t._phase(at)) for t in cosines):
                raise ValueError(f"log w is undefined at x = {at}: a cosine phase k·x is beyond "
                                 "float range")
            raise ValueError(f"log w is undefined (inf - inf) at x = {at}")
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


def eval_weight(spec: WeightSpec, x: Sequence) -> np.ndarray:
    """Weight values at per-axis coordinates x.  Exponents below the
    representable range clamp to the smallest positive float."""
    return eval_weight_root(spec, x, 1.0)


def eval_weight_root(spec: WeightSpec, x: Sequence, p: float) -> np.ndarray:
    """p-th root of the weight, computed as exp(log(w)/p) for accuracy.  A
    root beyond float range (log w / p above log(float max)) raises
    ValueError naming the first such point."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    log_w = spec.exponent(x)
    scaled = log_w / p
    over = scaled > _LOG_HUGE
    if over.any():
        node = tuple(int(i) for i in np.argwhere(over)[0])
        at = tuple(float(a[node]) for a in np.broadcast_arrays(*x))
        raise ValueError(f"the weight overflows at node {node}, x = {at}: log w = "
                         f"{log_w[node]:.6g} exceeds p * log(float max) = "
                         f"{p * _LOG_HUGE:.6g} at p = {p:g}")
    return np.exp(np.maximum(scaled, _LOG_TINY))


def eval_log_drift(spec: WeightSpec, x: Sequence) -> list[np.ndarray]:
    """Closed-form grad(w)/w = -beta*q*|x|^(q-1)*x/|x| - grad W - grad V, per axis.

    The radial factor is taken to vanish at the origin (the sign convention
    sign(0) = 0); for q > 1 this is also the continuous extension.  A radial
    factor beyond float range is infinite, and its zero coordinates stay zero.
    """
    x = _axes(x, spec.dim)
    radial = PowerAbsTerm(-spec.beta, spec.q).grad(x)
    return [r - w - v for r, w, v in zip(radial, spec.W.grad(x), spec.V.grad(x))]


def weight_on_grid(spec: WeightSpec, grid: Grid) -> GridFunction:
    return GridFunction(grid, eval_weight(spec, grid.coordinates()))


def root_on_grid(spec: WeightSpec, grid: Grid, p: float) -> GridFunction:
    return GridFunction(grid, eval_weight_root(spec, grid.coordinates(), p))


# ---------------------------------------------------------------------------
# admissibility hypotheses
# ---------------------------------------------------------------------------


class AdmissibilityReport(Record):
    """The weight's admissibility hypotheses, certified for every x.  delta
    and gamma are None when |grad W| has no bound delta*|x|^(q-1) + gamma in
    float range, osc_V is None unless V_bounded, and a false W_convex or
    V_bounded means "not certified"."""

    beta: float
    q: float
    dim: int
    delta: float | None
    gamma: float | None
    grad_bound_ok: bool
    drift_budget: float  # beta*q, the strict upper bound for delta
    W_convex: bool
    V_bounded: bool
    osc_V: float | None
    admissible: bool

    def failure(self) -> str | None:
        """The first hypothesis the weight is not certified to meet, or None."""
        if self.delta is None:
            return "W has no growth bound |grad W| <= delta*|x|^(q-1) + gamma"
        if not self.grad_bound_ok:
            return (f"the growth bound |grad W| <= delta*|x|^(q-1) + gamma needs delta < "
                    f"beta*q = {self.drift_budget:g}, got delta = {self.delta:g}")
        if not self.W_convex:
            return "W is not certified convex and bounded below"
        if not self.V_bounded:
            return "V is not certified bounded"
        return None


def _growth_bound(radial: dict[float, float], cosines: list[tuple[float, float]],
                  q: float) -> tuple[float | None, float | None]:
    """(delta, gamma) with |grad W| <= delta*|x|^(q-1) + gamma for every x,
    from W's merged terms.

    A power c*|x|^s gives |c|*s*r^(s-1) <= |c|*s*(theta*r^(q-1) + 1 - theta)
    with theta = (s-1)/(q-1), by weighted AM-GM; a cosine gives |c|*|k|.  A
    power above q has no such bound, and a sum beyond float range none in
    floats: both give (None, None)."""
    if any(s > q for s in radial):
        return None, None
    delta = gamma = 0.0
    for s, c in radial.items():
        theta = (s - 1.0) / (q - 1.0)
        delta += abs(c) * s * theta
        gamma += abs(c) * s * (1.0 - theta)
    gamma += sum(c * k for c, k in cosines)
    if math.isfinite(delta) and math.isfinite(gamma):
        return delta, gamma
    return None, None


def check_admissibility(spec: WeightSpec) -> AdmissibilityReport:
    """Certify the admissibility hypotheses of a catalog weight from its
    terms, like terms merged first (PotentialExpr.merged).

    - Growth: _growth_bound's delta must stay below beta*q.
    - W is convex and bounded below when every power has c >= 0 and
      2*c2 >= sum |c|*|k|^2 over its cosines, c2 being the coefficient of
      |x|^2: the powers are convex and nonnegative, and the quadratic's
      Hessian 2*c2 outweighs the cosines', each at most |c|*|k|^2.
    - V is bounded when no power is left; then osc V <= 2 * sum |c| over its
      cosines.

    The dilation bounds F(2x) <= c1*F(x) + c2 for F = -W and F = -V follow
    with c1 = 1: a convex W has W(2x) >= 2W(x) - W(0), so
    -W(2x) <= -W(x) + W(0) - inf W, and -V(2x) <= -V(x) + osc V.

    The regularity hypotheses are structural, so they are not reported.  The
    exponent beta*|x|^q + W + V is a finite sum of continuous terms, so w is
    continuous and strictly positive, and w^(-1/(p-1)) is continuous, hence
    bounded on compact sets and in L^1_loc, for every p > 1; at p = 1, 1/w is
    locally bounded.  The terms are also locally Lipschitz, so w is weakly
    differentiable.  Requires beta > 0.
    """
    if spec.beta <= 0.0:
        raise ValueError("admissibility requires beta > 0")
    radial_w, cosines_w = spec.W.merged()
    delta, gamma = _growth_bound(radial_w, cosines_w, spec.q)
    budget = spec.beta * spec.q
    grad_ok = delta is not None and delta < budget
    w_convex = (all(c >= 0.0 for c in radial_w.values())
                and 2.0 * radial_w.get(2.0, 0.0) >= sum(c * k * k for c, k in cosines_w))
    radial_v, cosines_v = spec.V.merged()
    osc_v = 2.0 * sum(c for c, _ in cosines_v)
    v_bounded = not radial_v and math.isfinite(osc_v)
    return AdmissibilityReport(
        beta=spec.beta,
        q=spec.q,
        dim=spec.dim,
        delta=delta,
        gamma=gamma,
        grad_bound_ok=grad_ok,
        drift_budget=budget,
        W_convex=w_convex,
        V_bounded=v_bounded,
        osc_V=osc_v if v_bounded else None,
        admissible=grad_ok and w_convex and v_bounded,
    )


# ---------------------------------------------------------------------------
# ball quadrature
# ---------------------------------------------------------------------------


class Ball(Record):
    """Axis-aligned box ball: center (grid-aligned) and radius."""

    center: tuple[float, ...]
    radius: float

    @staticmethod
    def of(center, radius: float) -> "Ball":
        """A ball whose centre is a coordinate sequence or, in 1d, a bare
        number; the benchmark's oracle cases use the bare-number form."""
        c = np.atleast_1d(np.asarray(center, dtype=float))
        return Ball(tuple(float(v) for v in c), float(radius))


class BallEntry(Record):
    center: tuple[float, ...]
    radius: float
    value: float | None
    note: str = ""


def _largest_value(entries: Sequence[BallEntry]) -> float | None:
    return max((e.value for e in entries if e.value is not None), default=None)


class DoublingReport(Record):
    entries: tuple[BallEntry, ...]
    constant: float | None  # max ratio over balls whose double fits the box


def estimate_doubling(field: GridFunction, balls: Sequence[Ball]) -> DoublingReport:
    """Mass ratios of concentric doubled balls, integral(2B)/integral(B).

    A ball with no node box (ball_slices), or whose double has none, gets a
    note that says why instead of a number, naming the doubled ball first;
    the returned constant is the max over valid balls.
    """
    entries: list[BallEntry] = []
    h = field.grid.spacing
    for ball in balls:
        inner = ball_slices(field.grid, ball.center, ball.radius)
        outer = ball_slices(field.grid, ball.center, 2.0 * ball.radius)
        if isinstance(outer, str) or isinstance(inner, str):
            note = f"doubled ball {outer}" if isinstance(outer, str) else f"ball {inner}"
            entries.append(BallEntry(ball.center, ball.radius, None, note))
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
        w1, w2 = w[i1], w[i2]  # in the ball box, where idx0 is the one zero node
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
        with np.errstate(over="ignore"):  # an infinite value is refused when its report is written
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


class MuckenhouptReport(Record):
    p: float
    entries: tuple[BallEntry, ...]
    constant: float | None


def estimate_muckenhoupt(field: GridFunction, p: float,
                         balls: Sequence[Ball]) -> MuckenhouptReport:
    """Per-ball Muckenhoupt products (avg_B w) * (avg_B w^(-1/(p-1)))^(p-1).

    Jensen's inequality forces every product to be >= 1.  Negative weight
    nodes raise; isolated zero nodes are integrated by local power-law
    extrapolation when the reciprocal stays integrable, and raise otherwise.
    A ball whose integral of w^(-1/(p-1)) underflows to 0 raises too: its
    product would read 0.
    """
    if p <= 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    s = -1.0 / (p - 1.0)
    entries: list[BallEntry] = []
    h = field.grid.spacing
    for i, ball in enumerate(balls):
        box = ball_slices(field.grid, ball.center, ball.radius)
        if isinstance(box, str):
            entries.append(BallEntry(ball.center, ball.radius, None, f"ball {box}"))
            continue
        # Average over the node-snapped segment actually integrated, not the
        # nominal (2r)^dim box, so constant weights score exactly 1 for any ball.
        vol = math.prod((sl.stop - 1 - sl.start) * h for sl in box)
        avg_w = _ball_integral_power(field, box, 1.0) / vol
        avg_rec = _ball_integral_power(field, box, s) / vol
        if avg_rec == 0.0:
            raise ValueError(f"muckenhoupt.entries[{i}]: the integral of w^({s:g}) over the ball "
                             f"(center {ball.center}, radius {ball.radius:g}) underflows to 0, "
                             "so its product cannot be formed")
        value = avg_w * avg_rec ** (p - 1.0)
        entries.append(BallEntry(ball.center, ball.radius, value))
    return MuckenhouptReport(p, tuple(entries), _largest_value(entries))


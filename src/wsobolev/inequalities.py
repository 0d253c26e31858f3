"""Explicit constant chain and quadrature verification of the inequalities.

The chain starts from the radial bound (|x|^(q-1) moment against the pure
exponential weight), perturbs it by the W and V potentials, and ends in a
certified Poincaré constant for the full catalog weight.  Every constant is
an explicit formula in (beta, q, p, d) and the growth numbers that
weights.check_admissibility certifies from the weight's terms, at the L
that makes the last step's constant smallest; the verify_*
functions then test each inequality on grid functions, judging the
margin against an a-posteriori quadrature error estimate.

Verification runs over a batch: verify_batch takes functions stacked along
a leading axis, evaluates each weight once and integrates every row of a
stack in one quadrature_rows call.  verify_xq, verify_potential and
verify_poincare are the same computation on a batch of one, and each row of
a batch gets the bits it would get alone.

The certified Poincaré constant is astronomically conservative (it carries
an exp(2*osc) factor over a large ball), so the empirical best constant is
reported next to it wherever both make sense.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._record import Record
from .grid import Grid, GridFunction, axis_derivatives, gradient_magnitude, quadrature_rows
from .weights import PotentialExpr, PowerAbsTerm, WeightSpec, check_admissibility, weight_on_grid

__all__ = [
    "ConstantChain",
    "InequalityReport",
    "constants_xq",
    "constants_potential",
    "oscillation_over_ball",
    "poincare_bound",
    "build_constant_chain",
    "verify_batch",
    "verify_xq",
    "verify_potential",
    "verify_poincare",
    "empirical_poincare_ratio",
]


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def constants_xq(beta_coeff: float, q: float, d: int, eps: float) -> tuple[float, float]:
    """Minimal admissible constants (C, D) of the radial moment bound
    int |f||x|^(q-1) dmu <= C int |grad f| dmu + D int |f| dmu
    for mu = exp(-beta*|x|^q) dx."""
    if beta_coeff <= 0.0:
        raise ValueError("beta must be positive")
    if q <= 1.0:
        raise ValueError("q must exceed 1")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    C = 1.0 / (beta_coeff * q)
    try:
        growth = (1.0 + eps) ** (q - 1.0)
    except OverflowError:
        raise ValueError(f"(1 + eps)^(q - 1) leaves float range (eps = {eps:g}, "
                         f"q = {q:g})") from None
    return C, growth + (1.0 / eps + d - 1.0) * C


def constants_potential(
    p: float,
    q: float,
    beta_coeff: float,
    delta: float,
    gamma: float,
    osc_V: float,
    d: int,
    eps0: float,
    eps1: float = 1.0,
) -> tuple[float, float, float]:
    """Minimal (C', D') for the potential-perturbed moment bound against
    nu = exp(-beta*|x|^q - W - V) dx, given the growth numbers
    |grad W| <= delta*|x|^(q-1) + gamma and osc_V = sup V - inf V, followed
    by D' with the additive gamma replaced by C*gamma — the constant the
    perturbation argument actually propagates; both conventions are
    circulating, so the chain reports the two values.

    Requires delta < beta*q.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    C = 1.0 / (beta_coeff * q)
    if delta >= 1.0 / C:
        raise ValueError(
            f"delta = {delta:g} must stay below beta*q = {1.0 / C:g}; the constant blows up"
        )
    if eps0 <= 0.0 or eps1 <= 0.0:
        raise ValueError("eps0 and eps1 must be positive")
    lead = 1.0 / (1.0 - C * delta)
    try:
        amp = math.exp(2.0 * osc_V)
    except OverflowError:
        raise ValueError(f"exp(2 osc_V) leaves float range (osc_V = {osc_V:g})") from None
    try:
        tail = (eps0 * p) ** (-q / p)
    except OverflowError:
        raise ValueError(f"(eps0 p)^(-q/p) leaves float range (eps0 = {eps0:g}, p = {p:g}, "
                         f"q = {q:g})") from None
    c_prime = lead * eps0 * p * C * amp
    base = constants_xq(beta_coeff, q, d, eps1)[1] + tail * C * p / q
    return c_prime, lead * amp * (base + gamma), lead * amp * (base + C * gamma)


def _merged_terms(spec: WeightSpec) -> tuple[dict[float, float], list[tuple[float, float]]]:
    """The powers of beta*|x|^q, W and V merged (PotentialExpr.merged)."""
    return PotentialExpr((PowerAbsTerm(spec.beta, spec.q),) + spec.W.terms
                         + spec.V.terms).merged()


def oscillation_over_ball(spec: WeightSpec, radius: float, *,
                          merged: tuple | None = None) -> float:
    """Upper bound on the oscillation of log(weight) over the closed ball
    B(0, radius), exact for the pure radial weight.

    With the powers of beta*|x|^q, W and V merged (PotentialExpr.merged, or
    merged if given), a power c*|x|^s ranges over |c|*radius^s and a cosine
    over 2|c|.  A bound beyond float range is inf.
    """
    radial, cosines = _merged_terms(spec) if merged is None else merged
    total = 2.0 * sum(c for c, _ in cosines)
    for s, c in radial.items():
        try:
            total += abs(c) * radius**s
        except OverflowError:
            return math.inf
    return total


def poincare_bound(
    spec: WeightSpec,
    p: float,
    c_prime: float,
    d_prime: float,
    L: float,
    C4: float,
    *,
    merged: tuple | None = None,
) -> tuple[float | None, float, float]:
    """Certified Poincaré constant: (c, a_L, log c).

    a_L bounds the oscillation of log(weight) over B(0, L^(p-1)) (see
    oscillation_over_ball, which takes merged); the constant is
    c = 2^q (e^(2 a_L) C4 L^(p(p-1)) + C'/L) / (1 - D'/L), valid for L > D'.
    log c is computed in log space; c is None when it leaves float range,
    and a ValueError is raised when log c or the radius L^(p-1) leaves it too.
    """
    if L <= d_prime:
        raise ValueError(f"L = {L:g} must exceed D' = {d_prime:g}")
    if C4 <= 0.0:
        raise ValueError("C4 must be positive")
    q = spec.q
    try:
        radius = L ** (p - 1.0)
    except OverflowError:
        raise ValueError(f"the ball radius L^(p-1) leaves float range (L = {L:g}, "
                         f"p = {p:g})") from None
    a_L = oscillation_over_ball(spec, radius, merged=merged)
    log_lead = 2.0 * a_L + math.log(C4) + p * (p - 1.0) * math.log(L)
    log_c = (q * math.log(2.0) + float(np.logaddexp(log_lead, math.log(c_prime / L)))
             - math.log1p(-d_prime / L))
    if not math.isfinite(log_c):
        raise ValueError(f"log c leaves float range (a_L = {a_L:g})")
    # c keeps its direct formula, not exp(log_c), so finite reports keep every digit
    try:
        c = (
            2.0**q
            * (math.exp(2.0 * a_L) * C4 * L ** (p * (p - 1.0)) + c_prime / L)
            / (1.0 - d_prime / L)
        )
    except OverflowError:
        c = math.inf
    return (c if math.isfinite(c) else None), a_L, log_c


class ConstantChain(Record):
    """Certified constants with every input that produced them."""

    p: float
    q: float
    beta_coeff: float
    d: int
    delta: float
    gamma: float
    osc_V: float
    eps: float
    eps0: float
    eps1: float
    C: float
    D: float
    C_prime: float
    D_prime: float
    D_prime_gamma_scaled: float
    a_L: float
    L: float
    C4: float
    c: float | None  # None when c leaves float range; log_c carries it then
    log_c: float

    def to_json(self) -> dict:
        """The outputs, with the inputs nested under "inputs" (beta_coeff as
        "beta"); log_c only when c is None."""
        doc = {f: getattr(self, f) for f in self._fields}
        inputs = {key: doc.pop(key) for key in _CHAIN_INPUTS}
        inputs["beta"] = inputs.pop("beta_coeff")
        if self.c is not None:
            del doc["log_c"]
        return {"inputs": inputs, **doc}


_CHAIN_INPUTS = ("p", "q", "beta_coeff", "d", "delta", "gamma", "osc_V", "eps", "eps0", "eps1",
                 "C4")
_CHAIN_EPS = 1.0
_GOLDEN_STEPS = 40
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _smallest_poincare_bound(spec: WeightSpec, p: float, c_prime: float, d_prime: float,
                             C4: float) -> tuple[float, tuple[float | None, float, float]]:
    """(L, poincare_bound at L) for the L > D' that minimises log c.  In
    t = log L, log c is a log-sum-exp of convex functions (a_L sums positive
    powers of L) plus the convex barrier -log(1 - D' e^-t), so it is convex:
    the bracket runs up from log D' in steps of 1 until log c rises, and
    _GOLDEN_STEPS golden-section steps narrow it.  An L whose log c leaves
    float range counts as +inf; if every L does, poincare_bound raises.  The
    weight's terms are merged once, for every L."""
    if not math.isfinite(d_prime):
        raise ValueError(f"D' leaves float range (D' = {d_prime:g})")
    merged = _merged_terms(spec)

    def log_c(t: float) -> float:
        try:
            return poincare_bound(spec, p, c_prime, d_prime, math.exp(t), C4, merged=merged)[2]
        except (ValueError, OverflowError):
            return math.inf

    a = math.log(d_prime)
    f = log_c(a + 1.0)
    while (f_next := log_c(a + 2.0)) < f:
        a, f = a + 1.0, f_next
    b = a + 2.0
    x1, x2 = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    f1, f2 = log_c(x1), log_c(x2)
    for _ in range(_GOLDEN_STEPS):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            f1 = log_c(x1 := b - _INV_PHI * (b - a))
        else:
            a, x1, f1 = x1, x2, f2
            f2 = log_c(x2 := a + _INV_PHI * (b - a))
    # the better interior point, so L > D'
    L = math.exp(x1 if f1 <= f2 else x2)
    return L, poincare_bound(spec, p, c_prime, d_prime, L, C4, merged=merged)


def build_constant_chain(spec: WeightSpec, p: float, *, C4: float = 1.0,
                         eps0: float) -> ConstantChain:
    """Evaluate the whole constant chain down to the certified Poincaré
    constant, from the growth numbers (delta, gamma, osc_V) that
    check_admissibility certifies.  A weight it does not certify raises
    ValueError naming the first hypothesis that fails.  The moment bounds
    hold for every eps, eps1 > 0; the chain takes both as 1 (_CHAIN_EPS),
    and poincare_bound at the L > D' that gives the smallest c."""
    C, D = constants_xq(spec.beta, spec.q, spec.dim, _CHAIN_EPS)
    hyp = check_admissibility(spec)
    if not hyp.admissible:
        raise ValueError(f"the weight is not admissible: {hyp.failure()}")
    delta, gamma, osc_v = hyp.delta, hyp.gamma, hyp.osc_V
    c_prime, d_prime, d_prime_scaled = constants_potential(
        p, spec.q, spec.beta, delta, gamma, osc_v, spec.dim, eps0, _CHAIN_EPS
    )
    L, (c, a_L, log_c) = _smallest_poincare_bound(spec, p, c_prime, d_prime, C4)
    return ConstantChain(
        p=p,
        q=spec.q,
        beta_coeff=spec.beta,
        d=spec.dim,
        delta=delta,
        gamma=gamma,
        osc_V=osc_v,
        eps=_CHAIN_EPS,
        eps0=eps0,
        eps1=_CHAIN_EPS,
        C=C,
        D=D,
        C_prime=c_prime,
        D_prime=d_prime,
        D_prime_gamma_scaled=d_prime_scaled,
        a_L=a_L,
        L=L,
        C4=C4,
        c=c,
        log_c=log_c,
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class InequalityReport(Record):
    lhs: float
    rhs: float
    margin: float
    quadrature_error_estimate: float
    holds: bool

    @staticmethod
    def of(lhs: float, rhs: float, quad_error: float) -> "InequalityReport":
        margin = rhs - lhs
        return InequalityReport(lhs, rhs, margin, quad_error, margin >= -quad_error)


def verify_batch(
    grid: Grid,
    values: np.ndarray,
    spec: WeightSpec,
    p: float,
    C: float,
    D: float,
    C_prime: float,
    D_prime: float,
    c: float,
) -> tuple[list[InequalityReport], list[InequalityReport], list[InequalityReport]]:
    """The three inequalities on a batch of functions, values of shape
    (m,) + grid.shape, differentiated together by axis_derivatives.  Returns
    the radial moment, potential moment and Poincaré reports, one per row,
    each the report verify_xq, verify_potential and verify_poincare give for
    that row and its discrete_gradient alone.  The weight and the radial
    weight exp(-beta*|x|^q) are evaluated once each."""
    mag = gradient_magnitude(axis_derivatives(values, grid))
    radial = weight_on_grid(WeightSpec(spec.beta, spec.q, spec.dim), grid)
    nu = weight_on_grid(spec, grid)
    return (_moment_reports(values, mag, radial, spec.q, 1.0, C, D),
            _moment_reports(values, mag, nu, spec.q, p, C_prime, D_prime),
            _poincare_reports(values, mag, nu, p, c))


def _moment_reports(
    values: np.ndarray,
    mag: np.ndarray,
    nu: GridFunction,
    q: float,
    p: float,
    c_prime: float,
    d_prime: float,
) -> list[InequalityReport]:
    """int |f|^p |x|^(q-1) dnu <= c' int |grad f|^p dnu + d' int |f|^p dnu
    for each row f of values, with mag the rows' gradient magnitudes."""
    grid = nu.grid
    absfp = np.abs(values) ** p
    integrands = np.concatenate([absfp * grid.node_radii() ** (q - 1.0), mag**p, absfp])
    fine, err = quadrature_rows(integrands * nu.values, grid)
    (lhs, t1, t2), (e_lhs, e1, e2) = np.split(fine, 3), np.split(err, 3)
    with np.errstate(over="ignore"):  # an infinite rhs is refused when its report is written
        return _reports(lhs, c_prime * t1 + d_prime * t2, e_lhs + c_prime * e1 + d_prime * e2)


def _poincare_reports(
    values: np.ndarray, mag: np.ndarray, nu: GridFunction, p: float, c: float
) -> list[InequalityReport]:
    """int |f - mean|^p dnu <= c int |grad f|^p dnu for each row f of values,
    the mean taken against nu."""
    grid = nu.grid
    mass, e_mass = (float(row[0]) for row in quadrature_rows(nu.values[None], grid))
    if mass <= 0.0:
        raise ValueError("weight carries no mass on the grid")
    fine, err = quadrature_rows(np.concatenate([values, mag**p]) * nu.values, grid)
    (means, t1), (_, e1) = np.split(fine, 2), np.split(err, 2)
    means = (means / mass).reshape((-1,) + (1,) * grid.dim)
    lhs, e_lhs = quadrature_rows(np.abs(values - means) ** p * nu.values, grid)
    with np.errstate(over="ignore"):  # as in _moment_reports
        return _reports(lhs, c * t1, e_lhs + c * e1 + e_mass)


def _reports(lhs: np.ndarray, rhs: np.ndarray, quad_error: np.ndarray) -> list[InequalityReport]:
    return [InequalityReport.of(*row)
            for row in zip(lhs.tolist(), rhs.tolist(), quad_error.tolist())]


def verify_xq(
    f: GridFunction,
    grads: Sequence[GridFunction],
    beta_coeff: float,
    q: float,
    C: float,
    D: float,
) -> InequalityReport:
    """Check the radial moment bound against mu = exp(-beta*|x|^q) dx: the
    potential-moment bound with p = 1 and no potentials."""
    return verify_potential(f, grads, WeightSpec(beta_coeff, q, f.grid.dim), 1.0, C, D)


def verify_potential(
    f: GridFunction,
    grads: Sequence[GridFunction],
    spec: WeightSpec,
    p: float,
    c_prime: float,
    d_prime: float,
) -> InequalityReport:
    """Check the p-th power moment bound against the full catalog weight: a
    batch of one."""
    nu = weight_on_grid(spec, f.grid)
    mag = gradient_magnitude([g.values for g in grads])
    (rep,) = _moment_reports(f.values[None], mag[None], nu, spec.q, p, c_prime, d_prime)
    return rep


def verify_poincare(
    f: GridFunction,
    grads: Sequence[GridFunction],
    spec: WeightSpec,
    p: float,
    c: float,
) -> InequalityReport:
    """Check the Poincaré inequality (weighted mean subtracted) with a given
    constant c: a batch of one."""
    nu = weight_on_grid(spec, f.grid)
    mag = gradient_magnitude([g.values for g in grads])
    (rep,) = _poincare_reports(f.values[None], mag[None], nu, p, c)
    return rep


def empirical_poincare_ratio(
    f: GridFunction,
    grads: Sequence[GridFunction],
    spec: WeightSpec,
    p: float,
) -> float:
    """Ratio int|f - mean|^p dnu / int|grad f|^p dnu — the constant this f
    actually requires (best-possible c is the sup over f)."""
    rep = verify_poincare(f, grads, spec, p, c=1.0)
    if rep.rhs <= 0.0:
        raise ValueError("f has zero gradient norm")
    return rep.lhs / rep.rhs

"""Explicit constant chain and quadrature verification of the inequalities.

The chain starts from the radial bound (|x|^(q-1) moment against the pure
exponential weight), perturbs it by the W and V potentials, and ends in a
certified Poincaré constant for the full catalog weight.  Every constant is
an explicit formula in (beta, q, p, d) and the fitted growth numbers; the
verify_* functions then test each inequality on grid functions, judging the
margin against an a-posteriori quadrature error estimate.

The certified Poincaré constant is astronomically conservative (it carries
an exp(2*osc) factor over a large ball), so the empirical best constant is
reported next to it wherever both make sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    GridFunction,
    ball_slices,
    block_integral,
    discrete_gradient,
    gradient_magnitude,
    lattice_points,
    quadrature_with_error,
)
from .weights import Ball, FitLattice, WeightSpec, check_admissibility, weight_on_grid

__all__ = [
    "ConstantChain",
    "InequalityReport",
    "constants_xq",
    "constants_potential",
    "oscillation_over_ball",
    "poincare_bound",
    "build_constant_chain",
    "verify_xq",
    "verify_potential",
    "verify_poincare",
    "empirical_poincare_ratio",
    "estimate_sobolev_constant",
    "estimate_local_poincare",
    "batch_report_csv",
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
    D = (1.0 + eps) ** (q - 1.0) + (1.0 / eps + d - 1.0) * C
    return C, D


def constants_potential(
    p: float,
    q: float,
    beta_coeff: float,
    delta: float,
    gamma: float,
    osc_V: float,
    d: int,
    eps0: float | None = None,
    eps1: float = 1.0,
    scale_gamma_by_C: bool = False,
) -> tuple[float, float]:
    """Minimal (C', D') for the potential-perturbed moment bound against
    nu = exp(-beta*|x|^q - W - V) dx, given the fitted growth numbers
    |grad W| <= delta*|x|^(q-1) + gamma and osc_V = sup V - inf V.

    Requires delta < beta*q.  scale_gamma_by_C replaces the additive gamma
    by C*gamma — the constant the perturbation argument actually propagates;
    both conventions are circulating, so the chain reports the two values.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    C = 1.0 / (beta_coeff * q)
    if delta >= 1.0 / C:
        raise ValueError(
            f"delta = {delta:g} must stay below beta*q = {1.0 / C:g}; the constant blows up"
        )
    if eps0 is None:
        eps0 = 1.0 / p
    if eps0 <= 0.0 or eps1 <= 0.0:
        raise ValueError("eps0 and eps1 must be positive")
    lead = 1.0 / (1.0 - C * delta)
    try:
        amp = math.exp(2.0 * osc_V)
    except OverflowError:
        raise ValueError(f"exp(2 osc_V) leaves float range (osc_V = {osc_V:g})") from None
    c_prime = lead * eps0 * p * C * amp
    gamma_term = C * gamma if scale_gamma_by_C else gamma
    d_prime = lead * amp * (
        (1.0 + eps1) ** (q - 1.0)
        + (1.0 / eps1 + d - 1.0) * C
        + (eps0 * p) ** (-q / p) * C * p / q
        + gamma_term
    )
    return c_prime, d_prime


def oscillation_over_ball(spec: WeightSpec, radius: float, n_samples: int = 10_000) -> float:
    """Oscillation of log(weight) over the closed Euclidean ball B(0, radius).

    The radial part's extremes sit at the origin and on the axis boundary,
    both of which the sample lattice contains, so for pure radial weights the
    value is exact; W and V contributions are resolved by the dense lattice.
    """
    pts = lattice_points(spec.dim, radius, n_samples)
    pts = pts[np.sqrt(np.sum(pts * pts, axis=-1)) <= radius + 1e-12]
    vals = spec.exponent(pts)
    return float(vals.max() - vals.min())


def poincare_bound(
    spec: WeightSpec,
    p: float,
    c_prime: float,
    d_prime: float,
    L: float,
    C4: float,
) -> tuple[float | None, float, float]:
    """Certified Poincaré constant: (c, a_L, log c).

    a_L is the oscillation of log(weight) over B(0, L^(p-1)); the constant is
    c = 2^q (e^(2 a_L) C4 L^(p(p-1)) + C'/L) / (1 - D'/L), valid for L > D'.
    log c is computed in log space; c is None when it leaves float range.
    """
    if L <= d_prime:
        raise ValueError(f"L = {L:g} must exceed D' = {d_prime:g}")
    if C4 <= 0.0:
        raise ValueError("C4 must be positive")
    q = spec.q
    a_L = oscillation_over_ball(spec, L ** (p - 1.0))
    log_lead = 2.0 * a_L + math.log(C4) + p * (p - 1.0) * math.log(L)
    log_c = (q * math.log(2.0) + float(np.logaddexp(log_lead, math.log(c_prime / L)))
             - math.log1p(-d_prime / L))
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


@dataclass(frozen=True)
class ConstantChain:
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
        doc = {
            "inputs": {
                "p": self.p,
                "q": self.q,
                "beta": self.beta_coeff,
                "d": self.d,
                "delta": self.delta,
                "gamma": self.gamma,
                "osc_V": self.osc_V,
                "eps": self.eps,
                "eps0": self.eps0,
                "eps1": self.eps1,
                "L": self.L,
                "C4": self.C4,
            },
            "C": self.C,
            "D": self.D,
            "C_prime": self.C_prime,
            "D_prime": self.D_prime,
            "D_prime_gamma_scaled": self.D_prime_gamma_scaled,
            "a_L": self.a_L,
            "c": self.c,
        }
        if self.c is None:
            doc["log_c"] = self.log_c
        return doc


def build_constant_chain(
    spec: WeightSpec,
    p: float,
    L: float,
    C4: float,
    fit_half_width: float,
    eps: float = 1.0,
    eps0: float | None = None,
    eps1: float = 1.0,
    n_samples: int = 2001,
    lattice: FitLattice = FitLattice(),
) -> ConstantChain:
    """Evaluate the whole constant chain down to the certified Poincaré
    constant, from the growth numbers (delta, gamma, osc_V) that
    check_admissibility fits on the sample box."""
    if eps0 is None:
        eps0 = 1.0 / p
    C, D = constants_xq(spec.beta, spec.q, spec.dim, eps)
    fits = check_admissibility(spec, fit_half_width, n_samples, lattice)
    delta, gamma, osc_v = fits.delta, fits.gamma, fits.osc_V
    c_prime, d_prime = constants_potential(
        p, spec.q, spec.beta, delta, gamma, osc_v, spec.dim, eps0, eps1
    )
    _, d_prime_scaled = constants_potential(
        p, spec.q, spec.beta, delta, gamma, osc_v, spec.dim, eps0, eps1, scale_gamma_by_C=True
    )
    c, a_L, log_c = poincare_bound(spec, p, c_prime, d_prime, L, C4)
    return ConstantChain(
        p=p,
        q=spec.q,
        beta_coeff=spec.beta,
        d=spec.dim,
        delta=delta,
        gamma=gamma,
        osc_V=osc_v,
        eps=eps,
        eps0=eps0,
        eps1=eps1,
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


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    margin: float
    quadrature_error_estimate: float
    holds: bool

    @staticmethod
    def of(lhs: float, rhs: float, quad_error: float) -> "InequalityReport":
        margin = rhs - lhs
        return InequalityReport(lhs, rhs, margin, quad_error, margin >= -quad_error)


def batch_report_csv(rows: Sequence[tuple[str, InequalityReport]]) -> str:
    lines = ["corpus_id,lhs,rhs,margin,holds"]
    for name, rep in rows:
        lines.append(
            f"{name},{rep.lhs:.12g},{rep.rhs:.12g},{rep.margin:.12g},{str(rep.holds).lower()}"
        )
    return "\n".join(lines) + "\n"


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
    """Check the p-th power moment bound against the full catalog weight."""
    grid = f.grid
    nu = weight_on_grid(spec, grid)
    absfp = np.abs(f.values) ** p
    magp = gradient_magnitude(grads) ** p
    lhs, e_lhs = quadrature_with_error(
        GridFunction(grid, absfp * grid.node_radii() ** (spec.q - 1.0)), nu
    )
    t1, e1 = quadrature_with_error(GridFunction(grid, magp), nu)
    t2, e2 = quadrature_with_error(GridFunction(grid, absfp), nu)
    rhs = c_prime * t1 + d_prime * t2
    return InequalityReport.of(lhs, rhs, e_lhs + c_prime * e1 + d_prime * e2)


def verify_poincare(
    f: GridFunction,
    grads: Sequence[GridFunction],
    spec: WeightSpec,
    p: float,
    c: float,
) -> InequalityReport:
    """Check the Poincaré inequality (weighted mean subtracted) with a given
    constant c."""
    grid = f.grid
    nu = weight_on_grid(spec, grid)
    mass, e_mass = quadrature_with_error(GridFunction(grid, np.ones(grid.shape)), nu)
    if mass <= 0.0:
        raise ValueError("weight carries no mass on the grid")
    mean, _ = quadrature_with_error(f, nu)
    mean /= mass
    lhs, e_lhs = quadrature_with_error(
        GridFunction(grid, np.abs(f.values - mean) ** p), nu
    )
    t1, e1 = quadrature_with_error(GridFunction(grid, gradient_magnitude(grads) ** p), nu)
    rhs = c * t1
    return InequalityReport.of(lhs, rhs, e_lhs + c * e1 + e_mass)


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


# ---------------------------------------------------------------------------
# empirical ball estimators
# ---------------------------------------------------------------------------


def _require_supported_in_ball(f: GridFunction, ball: Ball, index: int) -> None:
    grid = f.grid
    pts = grid.points()
    center = np.asarray(ball.center)
    outside = np.max(np.abs(pts - center), axis=-1) > ball.radius + 1e-12
    if np.any(f.values[outside] != 0.0):
        raise ValueError(f"corpus function {index} does not vanish outside the ball")


@dataclass(frozen=True)
class SobolevEstimate:
    kappa: float
    p: float
    ball: Ball
    ratios: tuple[float, ...]
    constant: float | None


def estimate_sobolev_constant(
    corpus: Sequence[GridFunction],
    weight: GridFunction,
    p: float,
    kappa: float,
    ball: Ball,
) -> SobolevEstimate:
    """Empirical minimal constant in the ball Sobolev inequality: max over
    the corpus of the (kappa*p)-average of |f| over the (p)-average of the
    gradient, both weighted and normalized by the ball's weight mass, with
    the ball diameter scaling the gradient side."""
    if kappa <= 1.0:
        raise ValueError("kappa must exceed 1")
    grid = weight.grid
    h = grid.spacing
    box = ball_slices(grid, ball.center, ball.radius)
    if box is None:
        raise ValueError("ball escapes the grid box")
    w = weight.values[box]
    wmass = block_integral(w, h)
    if wmass <= 0.0:
        raise ValueError("weight carries no mass on the ball")
    diam = 2.0 * ball.radius
    ratios = []
    best: float | None = None
    for i, f in enumerate(corpus):
        f._check_same_grid(weight)
        _require_supported_in_ball(f, ball, i)
        mag = gradient_magnitude(discrete_gradient(f))
        num = block_integral(np.abs(f.values[box]) ** (kappa * p) * w, h)
        den = block_integral(mag[box] ** p * w, h)
        if den <= 0.0:
            continue
        ratio = (num / wmass) ** (1.0 / (kappa * p)) / (diam * (den / wmass) ** (1.0 / p))
        ratios.append(ratio)
        best = ratio if best is None else max(best, ratio)
    return SobolevEstimate(kappa, p, ball, tuple(ratios), best)


def estimate_local_poincare(
    corpus: Sequence[GridFunction],
    weight: GridFunction,
    p: float,
    balls: Sequence[Ball],
) -> dict:
    """Empirical local Poincaré constant: per ball, the max over the corpus
    of int_B |f - f_B|^p w over (diam B)^p int_B |grad f|^p w, with f_B the
    weighted ball mean.  A convenience for choosing the C4 input."""
    grid = weight.grid
    h = grid.spacing
    out = []
    overall: float | None = None
    for ball in balls:
        box = ball_slices(grid, ball.center, ball.radius)
        if box is None:
            out.append({"center": list(ball.center), "radius": ball.radius, "value": None})
            continue
        w = weight.values[box]
        wmass = block_integral(w, h)
        best: float | None = None
        for f in corpus:
            f._check_same_grid(weight)
            fb = f.values[box]
            fmean = block_integral(fb * w, h) / wmass
            num = block_integral(np.abs(fb - fmean) ** p * w, h)
            mag = gradient_magnitude(discrete_gradient(f))
            den = block_integral(mag[box] ** p * w, h)
            if den <= 0.0:
                continue
            val = num / ((2.0 * ball.radius) ** p * den)
            best = val if best is None else max(best, val)
        out.append({"center": list(ball.center), "radius": ball.radius, "value": best})
        if best is not None:
            overall = best if overall is None else max(overall, best)
    return {"p": p, "balls": out, "constant": overall}

"""Energy, Nehari functional, Nehari projection and equation residual.

All quantities refer to the standing-wave equation

    A u + mu u = |u|^{p-2} u,

where A is the relativistic kinetic multiplier (the limit at c = inf).  The energy is
I(u) = Q(u)/2 - ||u||_p^p / p with Q(u) the (A + mu)-weighted quadratic form,
and J(u) = Q(u) - ||u||_p^p is the Nehari functional whose zero set carries
the ground states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PhysParams,
    RealField,
    norm_l2,
    sample_dot,
    to_physical,
    to_spectral,
    weighted_power,
)
from .symbol import Multiplier


@dataclass(frozen=True)
class EnergyReport:
    """Scalar diagnostics of a candidate state."""

    Q: float
    lp: float
    I: float
    J: float
    residual: float
    identity_gap: float  # |I - (1/2 - 1/p) ||u||_p^p|, which is |J| / 2 by algebra


def _signed_pow(base: np.ndarray, q: float, values: np.ndarray) -> np.ndarray:
    # raises base, |u| or max(u, 0) in an array the caller owns, to q = p - 1 in (1, 3)
    # in place and gives it u's sign: p = 3, the paper's case, as base * u, and p = 2.5,
    # the 3D sweeps', as sqrt(base) * u (np.power(base, 1.5) took 9/10 of clamped_power)
    if q == 1.5:
        np.sqrt(base, out=base)
    elif q != 2.0:
        return np.copysign(np.power(base, q, out=base), values, out=base)
    base *= values
    return base


def odd_power(values: np.ndarray, p: float) -> np.ndarray:
    """|u|^{p-2} u for real exponents, i.e. sign(u) |u|^{p-1}."""
    return _signed_pow(np.abs(values), p - 1.0, values)


def clamped_power(values: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """max(u, 0)^{p-1}, +0.0 where u <= 0; the solver's positivity-constrained nonlinearity.

    out, an array of the shape of values, receives the result in place of a new array.
    """
    base = np.maximum(values, 0.0, out=out)  # +0.0 where u <= 0
    if p == 3.0:  # b * b is b * u, the bits odd_power takes, for u > 0
        return np.multiply(base, base, out=base)
    if p != 2.5:
        return np.power(base, p - 1.0, out=base)
    power = _signed_pow(base, 1.5, values)
    power += 0.0  # sqrt(b) * u: u < 0 gave -0.0
    return power


def lp_integral(u: RealField, p: float) -> float:
    """||u||_p^p as the pairing <|u|^{p-2} u, u>."""
    return float(sample_dot(u.grid, odd_power(u.values, p), u.values))


def energy(u: RealField, M: Multiplier, params: PhysParams) -> EnergyReport:
    """Full scalar report, the one sum of Q and ||u||_p^p, on u's own layout, whose
    table M must be; for the zero field the residual entry is set to 0."""
    if M.grid != u.grid:
        raise ValueError("grid mismatch")
    lp = lp_integral(u, params.p)  # before the spectrum exists: its power has temporaries
    F = to_spectral(u)
    D = M.table + params.mu
    Q = weighted_power(F, D)
    I = 0.5 * Q - lp / params.p
    J = Q - lp
    scale = norm_l2(u)
    res = 0.0
    if scale > 0.0:
        np.multiply(F.coeffs, D, out=F.coeffs)  # (A + mu) u_hat, in u_hat's buffer
        r = to_physical(F, work=F.coeffs).values  # F's buffer takes the partial transforms
        del D, F
        r -= odd_power(u.values, params.p)
        res = float(np.sqrt(sample_dot(u.grid, r, r))) / scale
    return EnergyReport(Q=Q, lp=lp, I=I, J=J, residual=res, identity_gap=0.5 * abs(J))


def nehari_project(u: RealField, M: Multiplier, params: PhysParams) -> tuple[float, RealField]:
    """Scalar rescaling t* u with J(t* u) = 0; t* = (Q / ||u||_p^p)^{1/(p-2)}, Q and
    ||u||_p^p from energy."""
    rep = energy(u, M, params)
    if rep.lp == 0.0:  # the zero field, or one whose p-th power underflows
        raise ValueError("Nehari projection is undefined for the zero field")
    t_star = float((rep.Q / rep.lp) ** (1.0 / (params.p - 2.0)))
    return t_star, RealField(u.grid, t_star * u.values)

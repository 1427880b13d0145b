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
    SpectralField,
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
    identity_gap: float


def _pos_pow(base: np.ndarray, q: float) -> np.ndarray:
    # raises base >= 0, an array the caller owns, to q = p - 1 in (1, 3) in place;
    # p = 3, the paper's case, squares
    if q == 2.0:
        np.multiply(base, base, out=base)
    else:
        np.power(base, q, out=base)
    return base


def odd_power(values: np.ndarray, p: float) -> np.ndarray:
    """|u|^{p-2} u for real exponents, i.e. sign(u) |u|^{p-1}."""
    power = _pos_pow(np.abs(values), p - 1.0)
    return np.copysign(power, values, out=power)


def clamped_power(values: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """max(u, 0)^{p-1}; the solver's positivity-constrained nonlinearity.

    out, an array of the shape of values, receives the result in place of a new array.
    """
    return _pos_pow(np.maximum(values, 0.0, out=out), p - 1.0)


def lp_integral(u: RealField, p: float) -> float:
    """||u||_p^p as the pairing <|u|^{p-2} u, u>."""
    return float(sample_dot(u.grid, odd_power(u.values, p), u.values))


def quadratic_form(u: RealField | SpectralField, M: Multiplier, params: PhysParams) -> float:
    """Q(u) = sum over the lattice of (a(xi) + mu) |u_hat|^2, Parseval-weighted."""
    if M.grid != u.grid:
        raise ValueError("grid mismatch")
    return weighted_power(u, M.table + params.mu)


def energy(u: RealField, M: Multiplier, params: PhysParams) -> EnergyReport:
    """Full scalar report; for the zero field the residual entry is set to 0."""
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
    gap = abs(I - (0.5 - 1.0 / params.p) * lp)
    return EnergyReport(Q=Q, lp=lp, I=I, J=J, residual=res, identity_gap=gap)


def nehari_project(u: RealField, M: Multiplier, params: PhysParams) -> tuple[float, RealField]:
    """Scalar rescaling t* u with J(t* u) = 0; t* = (Q / ||u||_p^p)^{1/(p-2)}."""
    lp = lp_integral(u, params.p)
    if lp == 0.0:  # the zero field, or one whose p-th power underflows
        raise ValueError("Nehari projection is undefined for the zero field")
    Q = quadratic_form(u, M, params)
    t_star = float((Q / lp) ** (1.0 / (params.p - 2.0)))
    return t_star, RealField(u.grid, t_star * u.values)

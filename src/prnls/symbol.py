"""The relativistic kinetic symbol, its gap to the quadratic limit, and multiplier tables.

The shifted relativistic symbol sqrt(c^2|xi|^2 + m^2 c^4) - m c^2 is always
evaluated through the algebraically equivalent quotient

    a_c(xi) = |xi|^2 / (sqrt(|xi|^2/c^2 + m^2) + m),

which loses no significant digits however large c gets; at c = inf it is the
limit symbol |xi|^2/(2m) to the bit.  The tests compare it with the subtraction
form wherever the subtraction is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Grid, PhysParams, RealField, to_spectral, weighted_power


def _root_term(xi_sq, params: PhysParams):
    """sqrt(xi_sq/c^2 + m^2) + m for float64 xi_sq: sqrt(m m) + m at 0.0, c = inf included."""
    with np.errstate(invalid="ignore"):  # inf/inf at xi_sq = c = inf
        return np.sqrt(xi_sq / (params.c * params.c) + params.m * params.m) + params.m


def _gap_over(xi_sq, params: PhysParams, d):
    """xi_sq^2 / (2 m c^2 d^2), the lead term times the ratio: the gap's and its bound's order."""
    with np.errstate(invalid="ignore"):
        lead = xi_sq / (2.0 * params.m * params.c * params.c)
    return lead * (xi_sq / (d * d))


def eval_relativistic_symbol(xi_sq, params: PhysParams):
    """a_c(|xi|^2) in the cancellation-free quotient form; works on scalars and arrays."""
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    return xi_sq / _root_term(xi_sq, params)


def symbol_gap(xi_sq, params: PhysParams):
    """The deficit a_limit - a_c, evaluated without cancellation.

    Identity: a_limit - a_c = |xi|^4 / (2 m c^2 (sqrt(|xi|^2/c^2 + m^2) + m)^2).
    Every factor is nonnegative, and the denominator dominates the one in
    symbol_gap_bound monotonically, so 0 <= gap <= bound holds in floating
    point with no tolerance.
    """
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    return _gap_over(xi_sq, params, _root_term(xi_sq, params))


def symbol_gap_bound(xi_sq, params: PhysParams):
    """Quantitative expansion remainder |xi|^4 / (8 m^3 c^2): symbol_gap with its
    denominator evaluated at xi = 0, so the sandwich is exact in floating point."""
    return _gap_over(np.asarray(xi_sq, dtype=np.float64), params, _root_term(0.0, params))


def sandwich_holds(xi_sq, params: PhysParams) -> bool:
    """Exact (tolerance-free) check of 0 <= a_limit - a_c <= |xi|^4/(8 m^3 c^2)."""
    g = np.asarray(symbol_gap(xi_sq, params))
    b = np.asarray(symbol_gap_bound(xi_sq, params))
    return bool(np.all(g >= 0.0) and np.all(g <= b))


@dataclass(frozen=True, eq=False)
class Multiplier:
    """A diagonal Fourier multiplier: symbol values on the grid's half spectrum."""

    grid: Grid
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.shape != self.grid.spectral_shape:
            raise ValueError("table shape does not match the grid's half spectrum")
        if not np.all(np.isfinite(t)) or np.any(t < 0.0):
            raise ValueError("multiplier table must be finite and nonnegative")
        object.__setattr__(self, "table", t)


def relativistic_multiplier(grid: Grid, params: PhysParams) -> Multiplier:
    return Multiplier(grid, eval_relativistic_symbol(grid.xi_sq, params))


def limit_multiplier(grid: Grid, params: PhysParams) -> Multiplier:
    return relativistic_multiplier(grid, replace(params, c=math.inf))


def multiplier_convergence_test(phi: RealField, c_list, params: PhysParams) -> list[float]:
    """L2 norms ||(A_c - A_limit) phi|| for each c, evaluated on the Fourier side.

    For smooth decaying phi the sequence decreases and e(2c)/e(c) -> 1/4.
    """
    F = to_spectral(phi)
    gaps = (symbol_gap(phi.grid.xi_sq, replace(params, c=float(c))) for c in c_list)
    return [math.sqrt(weighted_power(F, gap * gap)) for gap in gaps]

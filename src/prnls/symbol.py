"""The relativistic kinetic symbol, its quadratic-dispersion limit, and multiplier actions.

The shifted relativistic symbol sqrt(c^2|xi|^2 + m^2 c^4) - m c^2 is always
evaluated through the algebraically equivalent quotient

    a_c(xi) = |xi|^2 / (sqrt(|xi|^2/c^2 + m^2) + m),

which loses no significant digits however large c gets.  The tests compare it
with the subtraction form wherever the subtraction is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Grid,
    PhysParams,
    RealField,
    SpectralField,
    to_physical,
    to_spectral,
    weighted_power,
)

RELATIVISTIC = "relativistic"
LIMIT = "limit"
CUSTOM = "custom"


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def eval_relativistic_symbol(xi_sq, params: PhysParams):
    """a_c(|xi|^2) in the cancellation-free quotient form; works on scalars and arrays."""
    m, c = params.m, params.c
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # xi_sq/c^2 is 0 for c = inf
        denom = np.sqrt(xi_sq / (c * c) + m * m) + m
    out = xi_sq / denom
    return _scalar_or_array(out)


def eval_limit_symbol(xi_sq, params: PhysParams):
    """Quadratic dispersion |xi|^2 / (2m)."""
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    out = xi_sq / (2.0 * params.m)
    return _scalar_or_array(out)


def symbol_gap(xi_sq, params: PhysParams):
    """The deficit a_limit - a_c, evaluated without cancellation.

    Identity: a_limit - a_c = |xi|^4 / (2 m c^2 (sqrt(|xi|^2/c^2 + m^2) + m)^2).
    Every factor is nonnegative, and the denominator dominates the one in
    symbol_gap_bound monotonically, so 0 <= gap <= bound holds in floating
    point with no tolerance.
    """
    m, c = params.m, params.c
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    m2 = m * m
    with np.errstate(invalid="ignore"):
        lead = xi_sq / (2.0 * m * c * c)
        d = np.sqrt(xi_sq / (c * c) + m2) + m
    out = lead * (xi_sq / (d * d))
    return _scalar_or_array(out)


def symbol_gap_bound(xi_sq, params: PhysParams):
    """Quantitative expansion remainder |xi|^4 / (8 m^3 c^2).

    Shares its operation ordering with symbol_gap (denominator evaluated at
    xi = 0) so the sandwich is exact in floating point.
    """
    m, c = params.m, params.c
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    m2 = m * m
    with np.errstate(invalid="ignore"):
        lead = xi_sq / (2.0 * m * c * c)
    d0 = np.sqrt(m2) + m
    out = lead * (xi_sq / (d0 * d0))
    return _scalar_or_array(out)


def sandwich_holds(xi_sq, params: PhysParams) -> bool:
    """Exact (tolerance-free) check of 0 <= a_limit - a_c <= |xi|^4/(8 m^3 c^2)."""
    g = np.asarray(symbol_gap(xi_sq, params))
    b = np.asarray(symbol_gap_bound(xi_sq, params))
    return bool(np.all(g >= 0.0) and np.all(g <= b))


@dataclass(frozen=True, eq=False)
class Multiplier:
    """A diagonal Fourier multiplier: per-lattice-point symbol values on a grid."""

    kind: str
    params: PhysParams
    grid: Grid
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.shape != self.grid.shape:
            raise ValueError("table shape does not match grid")
        if not np.all(np.isfinite(t)) or np.any(t < 0.0):
            raise ValueError("multiplier table must be finite and nonnegative")
        if self.kind in (RELATIVISTIC, LIMIT) and t[(0,) * self.grid.n] != 0.0:
            raise ValueError("built-in symbols must vanish at xi = 0")
        object.__setattr__(self, "table", t)


def relativistic_multiplier(grid: Grid, params: PhysParams) -> Multiplier:
    return Multiplier(RELATIVISTIC, params, grid, eval_relativistic_symbol(grid.xi_sq, params))


def limit_multiplier(grid: Grid, params: PhysParams) -> Multiplier:
    return Multiplier(LIMIT, params, grid, eval_limit_symbol(grid.xi_sq, params))


def custom_multiplier(grid: Grid, params: PhysParams, table: np.ndarray) -> Multiplier:
    return Multiplier(CUSTOM, params, grid, table)


def apply_multiplier(M: Multiplier, f: RealField) -> RealField:
    """to_physical(table * to_spectral(f)); linear and self-adjoint in L2."""
    if not M.grid.same_layout(f.grid):
        raise ValueError("grid mismatch between multiplier and field")
    F = to_spectral(f)
    return to_physical(SpectralField(f.grid, M.table * F.coeffs))


def multiplier_convergence_test(phi: RealField, c_list, params: PhysParams) -> list[float]:
    """L2 norms ||(A_c - A_limit) phi|| for each c, evaluated on the Fourier side.

    For smooth decaying phi the sequence decreases and e(2c)/e(c) -> 1/4.
    """
    F = to_spectral(phi)
    gaps = (symbol_gap(phi.grid.xi_sq, replace(params, c=float(c))) for c in c_list)
    return [math.sqrt(weighted_power(F, gap * gap)) for gap in gaps]

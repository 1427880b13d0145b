"""Semi-analytic checks of the half-space extension on every lattice mode at once.

For a single Fourier mode with coefficient u_hat, the bounded solution of
(-c^2 Lap + m^2 c^4) U = 0 on the upper half space with trace u_hat is
U_hat(xi, y) = u_hat * exp(-y s), s = sqrt(|xi|^2 + m^2 c^2).  The y-integral
of the extension energy is then available in closed form, so the trace
inequality (energy of any extension dominates the H^{1/2}-type form of its
trace, with equality exactly at the harmonic extension) becomes a per-mode
identity.  No (n+1)-dimensional grid is ever built.
"""

from __future__ import annotations

import numpy as np

from .model import Grid, PhysParams, RealField, to_spectral


def _decay_rates(grid: Grid, params: PhysParams) -> np.ndarray:
    return np.sqrt(grid.xi_sq + (params.m * params.c) ** 2)


def lattice_mode_energies(grid: Grid, params: PhysParams) -> tuple[np.ndarray, np.ndarray]:
    """(extension energy, trace form) of a unit coefficient on every lattice mode.

    The extension energy of the mode decaying at rate s is
    (c^2 |xi|^2 + m^2 c^4 + c^2 s^2) / (2 s c); the trace form is
    sqrt(c^2 |xi|^2 + m^2 c^4).  Both scale with |u_hat|^2.
    """
    m, c = params.m, params.c
    s = _decay_rates(grid, params)
    ext = (c * c * grid.xi_sq + (m * c * c) ** 2 + c * c * s * s) / (2.0 * s * c)
    trace = np.sqrt(c * c * grid.xi_sq + (m * c * c) ** 2)
    return ext, trace


def lattice_perturbation_surplus(grid: Grid, delta: float, params: PhysParams) -> np.ndarray:
    """Extra energy of the same-trace competitor decaying at rate s + delta, per unit mode.

    Evaluated as the algebraically exact surplus (c / 2) * delta^2 / (s + delta),
    which keeps the strict ordering for delta > 0 intact in floating point.
    """
    s = _decay_rates(grid, params)
    if np.any(s + delta <= 0.0):
        raise ValueError("competitor must decay: need delta > -s on every mode")
    return 0.5 * params.c * delta * delta / (s + delta)


def neumann_consistency(u: RealField, params: PhysParams) -> float:
    """Max relative gap between c*s and sqrt(c^2 |xi|^2 + m^2 c^4) over the
    modes present in u (both express the normal-derivative symbol; the gap is
    pure floating-point noise)."""
    m, c = params.m, params.c
    mask = to_spectral(u).coeffs != 0.0
    if not np.any(mask):
        return 0.0
    lhs = c * _decay_rates(u.grid, params)[mask]
    rhs = np.sqrt(c * c * u.grid.xi_sq[mask] + (m * c * c) ** 2)
    return float(np.max(np.abs(lhs - rhs) / rhs))

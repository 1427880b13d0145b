"""Ground-state computation for any kinetic multiplier.

The workhorse is the Petviashvili fixed-point iteration

    u_{k+1} = M_k^gamma * (A + mu)^{-1} (u_k)_+^{p-1},
    M_k = <(A + mu) u_k, u_k> / <(u_k)_+^{p-1}, u_k>,

with the stabilizing exponent gamma = (p-1)/(p-2).  (A + mu)^{-1} is exact in
spectral space.  A preconditioned, Nehari-projected gradient descent is kept
as an independent fallback; the two must agree on the default configuration.

Converged states are gauge-fixed: translated (including a sub-grid Fourier
shift) so the maximum sits at the box center, then rescaled onto the Nehari
manifold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    Grid,
    PhysParams,
    RealField,
    SpectralField,
    _derivative_freqs,
    _re_dot,
    gaussian_field,
    norm_h1,
    to_physical,
    to_spectral,
    warn_if_poorly_truncated,
    weighted_power,
)
from .symbol import Multiplier
from .variational import EnergyReport, clamped_power, energy, lp_integral, nehari_project

BLOWUP_NORM = 1e12


class BlowUpError(RuntimeError):
    """The iterate left any plausible basin (L2 norm above 1e12)."""


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls; defaults match the desk-scale configuration."""

    tol_residual: float = 1e-9
    max_iter: int = 10000
    gamma: float | None = None          # None -> (p-1)/(p-2)
    init_width: float = 2.0
    init_field: RealField | None = None
    fallback_step: float = 0.5

    def __post_init__(self):
        if not (self.tol_residual > 0.0 and math.isfinite(self.tol_residual)):
            raise ValueError("tol_residual must be positive and finite")
        if not float(self.max_iter).is_integer():
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.gamma is not None and not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        if not self.fallback_step > 0.0:
            raise ValueError("fallback_step must be positive")

    def resolved_gamma(self, p: float) -> float:
        return self.gamma if self.gamma is not None else (p - 1.0) / (p - 2.0)


@dataclass(frozen=True)
class GroundState:
    """A converged (or best-effort) state plus its scalar diagnostics.

    stop_reason says why the iteration stopped: "converged" (the loop's residual
    test passed), "max_iter", "pairing_collapse" (the Petviashvili pairing
    <u_+^{p-1}, u> is not positive) or "nonfinite_candidate" (a projected-gradient
    candidate without a finite Nehari rescaling); None for a state not computed
    by a solver.  converged is the separate check of the final,
    gauge-fixed state against the tolerance.
    """

    field: RealField
    report: EnergyReport
    iterations: int
    converged: bool
    params: PhysParams
    stop_reason: str | None = None


def recenter(f: RealField) -> RealField:
    """Cyclic shift placing the (first, in row-major order) maximum at the box center.

    Degenerate plateaus are reported through a warning and resolved by the
    lexicographically smallest maximizer.
    """
    v = f.values
    peak = float(np.max(v))
    span = peak - float(np.min(v))
    if np.count_nonzero(v >= peak - 1e-12 * span) > 1:
        warnings.warn("degenerate maximum plateau; recentering on the first maximizer",
                      stacklevel=2)
    idx = np.unravel_index(int(np.argmax(v)), v.shape)
    shifts = tuple(f.grid.center_index - i for i in idx)
    if all(s == 0 for s in shifts):
        return f
    return RealField(f.grid, np.roll(v, shifts, axis=tuple(range(f.grid.n))))


def subgrid_recenter(f: RealField) -> RealField:
    """Fourier-shift the field so the centroid of (u_+)^2 lands exactly at the center.

    Integer recentering leaves a sub-cell offset whenever the true maximum
    falls between lattice points; the phase shift removes it with spectral
    accuracy (the Nyquist row is left unshifted).
    """
    w = np.maximum(f.values, 0.0) ** 2
    total = float(np.sum(w))
    if total == 0.0:
        return f
    x = f.grid.axis_coordinates()
    center = f.grid.center_coordinate
    deltas = []
    for axis in range(f.grid.n):
        shape = [1] * f.grid.n
        shape[axis] = f.grid.N
        deltas.append(center - float(np.sum(w * x.reshape(shape))) / total)
    if max(abs(d) for d in deltas) < 1e-14:
        return f
    phase = np.ones(f.grid.spectral_shape, dtype=np.complex128)
    for axis, d in enumerate(deltas):
        phase = phase * np.exp(-1j * d * _derivative_freqs(f.grid, axis))
    return to_physical(SpectralField(f.grid, phase * to_spectral(f).coeffs))


def radial_scatter(f: RealField) -> float:
    """Max spread of field values over lattice points at exactly equal radius.

    Points are grouped by the integer squared index-distance from the center,
    the thinnest nonempty radius bins the lattice admits, so an exactly radial
    function scores 0 and the result measures pure anisotropy.  Normalized by
    the global maximum modulus.
    """
    v = f.values
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return 0.0
    idx = np.arange(f.grid.N) - f.grid.center_index
    mesh = np.meshgrid(*([idx] * f.grid.n), indexing="ij")
    keys = sum(a * a for a in mesh).ravel()
    flat = v.ravel()
    top = np.full(int(keys.max()) + 1, -np.inf)
    bot = np.full(int(keys.max()) + 1, np.inf)
    np.maximum.at(top, keys, flat)
    np.minimum.at(bot, keys, flat)
    present = top > -np.inf
    return float(np.max(top[present] - bot[present])) / scale


def h1_distance(f: RealField, g: RealField) -> float:
    return norm_h1(RealField(f.grid, f.values - g.values))


def _finalize(values: np.ndarray, grid: Grid, M: Multiplier, params: PhysParams,
              cfg: SolverConfig, iterations: int, stop_reason: str) -> GroundState:
    f = recenter(RealField(grid, values))
    f = subgrid_recenter(f)
    f = recenter(f)
    try:
        _, f = nehari_project(f, M, params)
    except ValueError:
        pass  # zero field: leave as is, reported non-converged below
    report = energy(f, M, params)
    converged = math.isfinite(report.residual) and report.residual <= cfg.tol_residual
    if converged:
        warn_if_poorly_truncated(f)
    return GroundState(field=f, report=report, iterations=iterations,
                       converged=converged, params=params, stop_reason=stop_reason)


def _iterate(params: PhysParams, grid: Grid, M: Multiplier, cfg: SolverConfig,
             step) -> GroundState:
    """The loop both solvers share, on work buffers allocated once per solve.

    Each pass stops once the spectral residual ||(A + mu) u - u_+^{p-1}|| / ||u||
    is within half the tolerance, or after max_iter steps.  Otherwise
    step(u, U, nl, NL, D, q) overwrites the samples u and the spectrum U with
    the next iterate and returns None, or returns the reason to stop (that step
    still counts).  On entry nl = u_+^{p-1}, NL is its spectrum, D = A + mu,
    q = Q(u), and U holds scratch.  The buffers are released before the state
    is finalized.
    """
    if not M.grid.same_layout(grid):
        raise ValueError("multiplier grid does not match the solve grid")
    init = cfg.init_field if cfg.init_field is not None else gaussian_field(grid, cfg.init_width)
    if not init.grid.same_layout(grid):
        raise ValueError("init_field grid does not match the solve grid")
    D = M.table + params.mu
    sqrt_D = np.sqrt(D)
    u = nehari_project(init, M, params)[1].values  # a new array, the loop's own
    U = to_spectral(RealField(grid, u)).coeffs
    nl, NL = np.empty_like(u), np.empty_like(U)
    reason = "max_iter"
    for it in range(cfg.max_iter + 1):
        clamped_power(u, params.p, out=nl)
        to_spectral(RealField(grid, nl), out=NL)
        U *= sqrt_D
        q = weighted_power(SpectralField(grid, U))
        U *= sqrt_D
        U -= NL
        res_sq = weighted_power(SpectralField(grid, U))
        u_sq = grid.cell_volume * _re_dot(u, u)
        if u_sq > BLOWUP_NORM**2:
            raise BlowUpError(f"iterate norm exceeded {BLOWUP_NORM:.0e}")
        if u_sq > 0.0 and math.sqrt(res_sq / u_sq) <= 0.5 * cfg.tol_residual:
            reason = "converged"
            break
        if it == cfg.max_iter:
            break
        stop = step(u, U, nl, NL, D, q)
        if stop is not None:
            reason, it = stop, it + 1
            break
    del U, nl, NL, D, sqrt_D
    return _finalize(u, grid, M, params, cfg, it, reason)


def solve_ground_state(params: PhysParams, grid: Grid, M: Multiplier,
                       cfg: SolverConfig | None = None) -> GroundState:
    """Petviashvili iteration to the relative-residual target.

    Deterministic for a fixed configuration.  Raises BlowUpError when the
    iterate's norm passes 1e12 or it becomes non-finite; plain non-convergence
    is returned as converged=False with the last iterate and its stop_reason.
    """
    cfg = cfg or SolverConfig()
    gamma = cfg.resolved_gamma(params.p)

    def step(u, U, nl, NL, D, q):
        pairing = grid.cell_volume * _re_dot(nl, u)
        if pairing <= 0.0 or not math.isfinite(pairing):
            return "pairing_collapse"
        with np.errstate(over="ignore", invalid="ignore"):  # blow-up is caught below
            np.multiply(NL, (q / pairing) ** gamma, out=U)
            np.divide(U, D, out=U)
        if not np.all(np.isfinite(U)):
            raise BlowUpError("iterate became non-finite")
        to_physical(SpectralField(grid, U), out=u)
        return None

    return _iterate(params, grid, M, cfg, step)


def projected_gradient_solve(params: PhysParams, grid: Grid, M: Multiplier,
                             cfg: SolverConfig | None = None) -> GroundState:
    """Fallback: preconditioned descent on the energy, renormalized onto the
    Nehari manifold after every step.

    v <- project(v - tau * (v - (A + mu)^{-1} v_+^{p-1}))
    """
    cfg = cfg or SolverConfig()
    tau = cfg.fallback_step

    def step(v, V, nl, NL, D, q):
        w = to_physical(SpectralField(grid, NL / D)).values
        with np.errstate(over="ignore", invalid="ignore"):  # an oversized step is caught below
            cand = v - tau * (v - w)
            if not np.all(np.isfinite(cand)):
                return "nonfinite_candidate"
            cand_field = RealField(grid, cand)
            C = to_spectral(cand_field)
            qc = weighted_power(C, D)
            lp = lp_integral(cand_field, params.p)
        if not (lp > 0.0 and math.isfinite(qc) and math.isfinite(lp)):
            return "nonfinite_candidate"  # no finite Nehari rescaling
        t_star = (qc / lp) ** (1.0 / (params.p - 2.0))
        np.multiply(cand, t_star, out=v)
        np.multiply(C.coeffs, t_star, out=V)
        return None

    return _iterate(params, grid, M, cfg, step)

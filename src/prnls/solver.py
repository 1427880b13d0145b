"""Ground-state computation for the relativistic symbol at any c (c = inf is the limit).

The workhorse is the Petviashvili fixed-point iteration

    u_{k+1} = M_k^gamma * (A + mu)^{-1} (u_k)_+^{p-1},
    M_k = <(A + mu) u_k, u_k> / <(u_k)_+^{p-1}, u_k>,

with the stabilizing exponent gamma = (p-1)/(p-2).  (A + mu)^{-1} is exact in
spectral space.  solve_ground_state is the package's only solve loop.

Every returned state is gauge-fixed: a state on the even layout is centered by
its symmetry, and one Fourier shift puts the periodic centroid of u_+^2 of a
full-box state at the box center (an axis with no first moment stays put).
It is not rescaled: the iteration's normalization M_k -> 1 already puts a
converged state on the Nehari manifold.  A norm above 1e12 raises BlowUpError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ROOT_HALF,
    Grid,
    PhysParams,
    RealField,
    SpectralField,
    TWO_PI,
    _forward,
    _inverse,
    _max_abs,
    _parseval_root,
    _re_dot,
    derivative_freqs,
    fold_even,
    gaussian_field,
    norm_h1,
    shared_grid,
    sum_of_squares,
    to_physical,
    to_spectral,
    warn_if_poorly_truncated,
)
from .symbol import relativistic_multiplier
from .variational import EnergyReport, clamped_power, energy, nehari_project

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
    fallback_step: float = 0.5          # step of the projected-gradient reference in tests/

    def __post_init__(self):
        if not (self.tol_residual > 0.0 and math.isfinite(self.tol_residual)):
            raise ValueError("tol_residual must be positive and finite")
        if not float(self.max_iter).is_integer():
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.gamma is not None and not (self.gamma > 1.0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must exceed 1 and be finite")
        if not (self.init_width > 0.0 and math.isfinite(self.init_width)):
            raise ValueError("init_width must be positive and finite")
        if not self.fallback_step > 0.0:
            raise ValueError("fallback_step must be positive")

    def resolved_gamma(self, p: float) -> float:
        return self.gamma if self.gamma is not None else (p - 1.0) / (p - 2.0)


@dataclass(frozen=True)
class GroundState:
    """A converged (or best-effort) state plus its scalar diagnostics; field is on the
    layout its solve loop ran on (the even layout for a mirror-even start).

    stop_reason says why the iteration stopped: "converged" (the loop's residual
    test passed), "max_iter" or "pairing_collapse" (the Petviashvili pairing
    <u_+^{p-1}, u> is not positive); None for a state not computed by the solver.
    converged is the one verdict: the loop stopped as "converged" and the final,
    gauge-fixed state's equation residual is within the tolerance.
    """

    field: RealField
    report: EnergyReport
    iterations: int
    converged: bool
    params: PhysParams
    stop_reason: str | None = None


def center(f: RealField) -> RealField:
    """Fourier-shift the field so the periodic centroid of (u_+)^2 lands at the box center.

    Each axis's centroid is the circular mean of the marginal of (u_+)^2, so a
    state straddling the periodic seam needs no integer roll first; a 1-D phase per
    axis, multiplied in place, moves it with spectral accuracy (the Nyquist row is
    left unshifted).  An axis whose marginal has no first moment is not shifted.
    """
    if f.grid.even:  # mirror-even about the center: centered by its symmetry
        return f
    w = np.maximum(f.values, 0.0)  # the marginals sum w * w without forming it
    k = TWO_PI / f.grid.L
    wave = np.exp(1j * k * (f.grid.axis_coordinates() - f.grid.center_coordinate))
    deltas = []  # center minus centroid, in [-L/2, L/2)
    for axis in range(f.grid.n):
        marginal = np.einsum(w, range(f.grid.n), w, range(f.grid.n), [axis])
        moment = marginal @ wave
        no_moment = abs(moment) <= 1e-12 * marginal.sum()
        deltas.append(0.0 if no_moment else -float(np.angle(moment)) / k)
    if max(abs(d) for d in deltas) < 1e-14:
        return f
    del w  # the shift holds only the half spectrum and the shifted samples
    F = to_spectral(f).coeffs
    for axis, d in enumerate(deltas):
        F *= np.exp(-1j * d * derivative_freqs(f.grid, axis))
    return to_physical(SpectralField(f.grid, F), work=F)


def radial_scatter(f: RealField) -> float:
    """Max spread of field values over lattice points at exactly equal radius.

    Points are grouped by the integer squared index-distance from the center,
    the thinnest nonempty radius bins the lattice admits, so an exactly radial
    function scores 0 and the result measures pure anisotropy.  Normalized by
    the global maximum modulus.  On the even layout the bins hold the same values.
    """
    flat = f.values.ravel()
    scale = _max_abs(flat)
    if scale == 0.0:
        return 0.0
    keys = sum_of_squares([f.grid.offsets()] * f.grid.n).ravel()
    size = int(keys.max()) + 1
    top, bot = np.full(size, -np.inf), np.full(size, np.inf)
    np.maximum.at(top, keys, flat)
    np.minimum.at(bot, keys, flat)
    top -= bot  # -inf on the bins no point falls in
    return float(np.max(top)) / scale


def h1_distance(f: RealField, g: RealField) -> float:
    """||f - g||_{H^1}; the difference's samples are dropped once it is transformed."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    return norm_h1(to_spectral(RealField(f.grid, f.values - g.values)))


def _finalize(f: RealField, params: PhysParams, cfg: SolverConfig, iterations: int,
              stop_reason: str) -> GroundState:
    if not f.grid.even:  # a mirror-even state is centered by its symmetry
        f = center(f)
    report = energy(f, relativistic_multiplier(f.grid, params), params)
    converged = stop_reason == "converged" and report.residual <= cfg.tol_residual
    if converged:
        warn_if_poorly_truncated(f)
    return GroundState(field=f, report=report, iterations=iterations,
                       converged=converged, params=params, stop_reason=stop_reason)


def solve_ground_state(params: PhysParams, grid: Grid,
                       cfg: SolverConfig | None = None) -> GroundState:
    """Petviashvili iteration to the relative-residual target, on work buffers
    allocated once per solve.

    The one place that picks a state's layout: a cold start's Gaussian is built on
    the grid's even layout, init_field may be on grid or on that layout, and a full-box
    init_field exactly mirror-even about the box center on every axis is folded onto
    it.  The state keeps the layout its loop ran on: the even layout, or the full box
    for any other start.

    Each pass stops once the spectral residual ||(A + mu) u - u_+^{p-1}|| / ||u||
    is within half the tolerance, or after max_iter steps, or when the pairing
    <u_+^{p-1}, u> is not positive (that failed step still counts); each of the
    pass's four sums (||u||^2, the pairing, Q(u) and the residual) is one plain dot
    of half spectra, by Parseval.  The buffers
    are released before the state is finalized.  Deterministic for a fixed
    configuration, with the same bits under one or two OpenBLAS threads at 2D
    N <= 256 and 3D N <= 128 (model._dct1).  Raises BlowUpError when the iterate's
    norm passes 1e12 (checked first in each pass, before the power can overflow) or
    it becomes non-finite; plain non-convergence is returned as converged=False with
    the last iterate and its stop_reason.
    """
    cfg = cfg or SolverConfig()
    gamma = cfg.resolved_gamma(params.p)
    init, box = cfg.init_field, (grid.n, grid.L, grid.N)
    if init is None:  # a Gaussian is mirror-even
        init = gaussian_field(shared_grid(*box, True), cfg.init_width)
    elif (init.grid.n, init.grid.L, init.grid.N) != box:
        raise ValueError("init_field grid does not match the solve grid")
    elif not init.grid.even:
        init = fold_even(init) or init  # the layout follows the start; there is no option
    M = relativistic_multiplier(init.grid, params)
    layout, u = init.grid, nehari_project(init, M, params)[1].values  # the loop's own array
    del init  # a cold start's Gaussian is not kept through the loop
    # V is u's unnormalized half spectrum over g in Parseval-root form (_parseval_root):
    # _inverse of V with its ends restored is u.  Each sum of a pass is then one plain
    # dot times a constant, h^n sum(a b) = c sum(A B) for spectra so scaled, and the
    # tables carry g, so that neither g nor fourier_scale costs a pass over an array.
    g, c = layout.transform_gain, layout.root_dot_weight
    step = M.table  # g (A + mu), then 1 / (g (A + mu)) with the ends restored, in place
    del M
    step += params.mu
    step *= g
    sqrt_gD = np.sqrt(step)
    np.reciprocal(step, out=step)
    _parseval_root(step, layout, 1.0 / ROOT_HALF)
    V = _parseval_root(_forward(u, layout), layout)
    V *= 1.0 / g  # g is a power of two
    nl, NL = np.empty_like(u), np.empty_like(V)
    reason = "max_iter"
    for it in range(cfg.max_iter + 1):
        u_sq = c * g * g * _re_dot(V, V)  # h^n sum(u u), by Parseval
        if u_sq > BLOWUP_NORM**2:  # before the power, which would overflow first
            raise BlowUpError(f"iterate norm exceeded {BLOWUP_NORM:.0e}")
        clamped_power(u, params.p, out=nl)
        _parseval_root(_forward(nl, layout, out=NL, work=nl), layout)  # nl is refilled next pass
        pairing = c * g * _re_dot(NL, V)  # <u_+^{p-1}, u>
        V *= sqrt_gD
        q = c * g * _re_dot(V, V)  # Q(u)
        V *= sqrt_gD
        V -= NL  # (A + mu) u - u_+^{p-1}, in NL's scale
        res_sq = c * _re_dot(V, V)
        if u_sq > 0.0 and math.sqrt(res_sq / u_sq) <= 0.5 * cfg.tol_residual:
            reason = "converged"
            break
        if it == cfg.max_iter:
            break
        if pairing <= 0.0 or not math.isfinite(pairing):
            reason, it = "pairing_collapse", it + 1
            break
        with np.errstate(over="ignore", invalid="ignore"):  # blow-up is caught below
            np.multiply(NL, (q / pairing) ** gamma, out=V)
            V *= step
        if not np.all(np.isfinite(V)):
            raise BlowUpError("iterate became non-finite")
        _inverse(V, layout, out=u, work=NL)  # NL is refilled next pass
        _parseval_root(V, layout)
    del V, nl, NL, sqrt_gD, step
    return _finalize(RealField(layout, u), params, cfg, it, reason)

"""Brute-force radial oracle for the limit ground state.

The limit equation -(1/2m) Lap(u) + mu u = u^{p-1} reduces, for radial u, to

    u'' + (n-1)/r u' = 2m (mu u - u^{p-1}),    u'(0) = 0,

which is integrated by classic RK4 shooting.  Undershoot (the trajectory turns
back up while still positive) and overshoot (it crosses zero) bracket the
ground amplitude u(0); bisection pins it down.  Nothing here touches FFTs, so
the result is an independent check on the spectral solver.

The bisection result is computed from fewer RK4 steps than bisection takes.
Near the ground amplitude u*, a shot exits (crosses or turns) at the radius
r_end where |u0 - u*| ~ C exp(-rate * r_end), rate -> 2 sqrt(2 m mu), so the
exit radii of two shots on one side locate u* far faster than halving does.
The search is one bisection loop: a midpoint is shot only while no earlier shot
settles it (the ground state is unique, so every amplitude below a decaying
shot decays and every one above a crossing shot crosses), and that shot goes
where the exit radii say the root is, so most later midpoints are settled for
free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Grid, PhysParams, RealField

DECAYS = "decays"
CROSSES = "crosses_zero"
DIVERGES = "diverges"

#: fraction of u(0) below which the recorded shot is replaced by the
#: linearized far-field tail (bisection noise dominates the raw shot there)
SPLICE_LEVEL = 1e-4

#: outer radius of every shot, and the absolute tolerance of the search's amplitude
R_MAX = 30.0
TOL = 1e-10


@dataclass(frozen=True)
class ShotResult:
    kind: str
    r_end: float
    values: np.ndarray | None  # samples at r_i = i*dr up to r_end, when recorded


@dataclass(frozen=True)
class RadialProfile:
    """Accepted ground-state profile on a uniform radial mesh of [0, R_MAX]."""

    dr: float
    values: np.ndarray
    u0: float
    shots: int  # shots the amplitude search made, the recorded shot not counted

    def radii(self) -> np.ndarray:
        return self.dr * np.arange(len(self.values))


def shoot(u0: float, params: PhysParams, dr: float = 1e-3, record: bool = False) -> ShotResult:
    """Integrate one trajectory on [0, R_MAX] and classify it.

    The r = 0 singularity is crossed with the even-series step
    u(dr) = u0 + a dr^2, u'(dr) = 2 a dr, a = m (mu u0 - u0^{p-1}) / n.
    An energy monitor (the damped system's energy can only decrease) raises
    ValueError when dr is too large for the scheme.
    """
    if u0 <= 0.0:
        raise ValueError("u0 must be positive")
    m, mu, p, n = params.m, params.mu, params.p, params.n
    pm1 = p - 1.0
    n1 = float(n - 1)
    two_m = 2.0 * m
    steps = int(round(R_MAX / dr))
    big = 1e6 * (u0 + 1.0)

    us = [u0] if record else None

    a = m * (mu * u0 - u0**pm1) / n
    if abs(a) * dr * dr > 0.25 * u0:
        raise ValueError(f"dr = {dr} too large to resolve the core curvature")
    u = u0 + a * dr * dr
    v = 2.0 * a * dr
    r = dr
    if record:
        us.append(u)

    def done(kind: str, r_end: float) -> ShotResult:
        return ShotResult(kind, r_end, np.asarray(us) if record else None)

    if u <= 0.0:
        return done(CROSSES, r)
    if v >= 0.0:
        return done(DECAYS, r)

    half_dr, half_mu, isfinite = 0.5 * dr, 0.5 * mu, math.isfinite
    energy = 0.5 * v * v + two_m * (abs(u)**p / p - half_mu * u * u)
    for i in range(1, steps):
        # RK4 on (u, v = u'): each stage's u-slope is its own v (v, v2, v3, v4)
        k1v = two_m * (mu * u - (u**pm1 if u >= 0.0 else -((-u)**pm1))) - n1 * v / r
        rm = r + half_dr
        u2 = u + half_dr * v
        v2 = v + half_dr * k1v
        k2v = two_m * (mu * u2 - (u2**pm1 if u2 >= 0.0 else -((-u2)**pm1))) - n1 * v2 / rm
        u3 = u + half_dr * v2
        v3 = v + half_dr * k2v
        k3v = two_m * (mu * u3 - (u3**pm1 if u3 >= 0.0 else -((-u3)**pm1))) - n1 * v3 / rm
        rp = r + dr
        u4 = u + dr * v3
        v4 = v + dr * k3v
        k4v = two_m * (mu * u4 - (u4**pm1 if u4 >= 0.0 else -((-u4)**pm1))) - n1 * v4 / rp
        u += dr * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
        v += dr * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        r = (i + 1) * dr
        if record:
            us.append(u)
        if not (abs(u) <= big and isfinite(v)):  # u or v non-finite, or |u| > big
            return done(DIVERGES, r)
        # the damped flow can only lose energy; a gain means the step is too big
        e_new = 0.5 * v * v + two_m * (abs(u)**p / p - half_mu * u * u)
        if e_new > energy + 1e-8 * (1.0 + abs(energy)):
            raise ValueError(f"dr = {dr} too large: energy drift at r = {r:.3f}")
        energy = e_new
        if u <= 0.0:
            return done(CROSSES, r)
        if v >= 0.0:
            return done(DECAYS, r)
    # never crossed and never turned: treat as the undershoot side
    return done(DECAYS, R_MAX)


def default_bracket(params: PhysParams) -> tuple[float, float]:
    """(rest point, 10x rest point): guaranteed undershoot / overshoot pair."""
    rest = params.mu ** (1.0 / (params.p - 2.0))
    return rest, 10.0 * rest


def _bisect(classify, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Final interval of bisection on [lo, hi]: a midpoint that classify calls
    CROSSES becomes hi, any other becomes lo."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if classify(mid) == CROSSES:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _estimate(pts: list, a: float, b: float, rate0: float) -> float | None:
    """Root estimate from the last two (u0, r_end) shots (t1, r1), (t2, r2) on the side
    of the latest shot, ordered toward the root: the s of |u0 - s| = C exp(-rate0 r_end)
    through both, s = (t2 - q t1) / (1 - q) with q = exp(-rate0 (r2 - r1)) < 1, which
    cannot overflow.  None with fewer than two shots or an s outside (a, b)."""
    if len(pts) < 2:
        return None
    (t1, r1), (t2, r2) = pts[-2:]
    x = rate0 * (r2 - r1)
    s = (t2 - math.exp(-x) * t1) / -math.expm1(-x)
    return s if a < s < b else None


def _search(classify, lo: float, hi: float, tol: float, rate0: float) -> float:
    """The amplitude bisection on [lo, hi] returns, shooting only where it must.

    classify(u0) shoots and returns the ShotResult.  a is the largest amplitude
    shot so far that decays and b the smallest that crosses, so a midpoint
    outside (a, b) is settled without a shot.  A midpoint inside gets one shot,
    then is looked at again.  That shot goes to the end, on the side of the
    wider gap, of bisection's final interval around the root estimate when the
    estimate lies inside it by a quarter of its last move; else to the
    estimate; else to the midpoint.  After as many shots as bisection takes,
    only midpoints are shot, so the search takes at most twice its shots.
    Shots that ran to R_MAX carry no radius and are not used for estimates.
    """
    a, b = lo, hi
    sides = {DECAYS: [], CROSSES: []}
    last = x_prev = None
    budget = math.ceil(math.log2((hi - lo) / tol))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not a < mid < b:
            lo, hi = (mid, hi) if mid <= a else (lo, mid)
            continue
        x = None if last is None or budget <= 0 else _estimate(sides[last], a, b, rate0)
        t = mid if x is None else x
        if x is not None and x_prev is not None:
            margin = 0.25 * abs(x - x_prev)
            end_lo, end_hi = _bisect(lambda s: CROSSES if s > x else DECAYS, lo, hi, tol)
            if x - end_lo >= margin and end_hi - x >= margin:
                t = end_lo if x - a > b - x else end_hi
        x_prev = x
        if not a < t < b:
            t = mid
        budget -= 1
        res = classify(t)
        a, b = (a, t) if res.kind == CROSSES else (t, b)
        last, pts = res.kind, sides[res.kind]
        if res.r_end < R_MAX:
            if pts and res.r_end <= pts[-1][1]:
                pts.clear()  # the radius must grow toward the root
            pts.append((t, res.r_end))
    return 0.5 * (lo + hi)


def find_ground_u0(params: PhysParams, bracket: tuple[float, float],
                   dr: float = 1e-3) -> tuple[float, int]:
    """(u0, shots): the amplitude bisection on the undershoot/overshoot dichotomy
    returns, u(0) to TOL absolute, found from the shots' exit radii (module
    docstring), and the number of shots the search took."""
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    shots = 0

    def classify(u0: float) -> ShotResult:
        nonlocal shots
        shots += 1
        res = shoot(u0, params, dr)
        if res.kind == DIVERGES:
            raise RuntimeError(f"divergent shot at u0 = {u0}")
        return res

    s_lo = shoot(lo, params, dr)
    s_hi = shoot(hi, params, dr)
    shots += 2
    if s_lo.kind != DECAYS or s_hi.kind != CROSSES:
        raise ValueError(f"invalid bracket: endpoints classify as ({s_lo.kind}, {s_hi.kind})")
    rate0 = 2.0 * math.sqrt(2.0 * params.m * params.mu)
    return _search(classify, lo, hi, TOL, rate0), shots


def ground_profile(params: PhysParams) -> RadialProfile:
    """Accepted profile on [0, 30] at step 1e-3: the shot from find_ground_u0's
    amplitude on default_bracket, spliced onto the linearized far-field tail.

    Below SPLICE_LEVEL * u(0) the raw shot is dominated by the remaining
    bisection uncertainty, so from that radius outward the profile follows the
    decaying solution of the linearized equation,
    u ~ (r_s/r)^{(n-1)/2} exp(-kappa (r - r_s)), kappa = sqrt(2 m mu).
    """
    dr = 1e-3
    u0, shots = find_ground_u0(params, default_bracket(params), dr)
    shot = shoot(u0, params, dr, record=True)
    us = shot.values
    threshold = SPLICE_LEVEL * u0
    below = np.nonzero(us <= threshold)[0]
    if len(below) == 0:
        raise RuntimeError(f"shot never reached the splice level by r = {R_MAX:g}")
    i_s = int(below[0])
    r_s = i_s * dr
    u_s = float(us[i_s])
    kappa = math.sqrt(2.0 * params.m * params.mu)
    steps = int(round(R_MAX / dr))
    values = np.empty(steps + 1)
    values[: i_s + 1] = us[: i_s + 1]
    r_tail = dr * np.arange(i_s + 1, steps + 1)
    values[i_s + 1:] = u_s * (r_s / r_tail) ** (0.5 * (params.n - 1)) \
        * np.exp(-kappa * (r_tail - r_s))
    return RadialProfile(dr=dr, values=values, u0=u0, shots=shots)


def profile_to_field(prof: RadialProfile, grid: Grid) -> RealField:
    """Lift a radial profile onto a grid by linear interpolation in radius."""
    r = np.sqrt(grid.radius_sq())
    vals = np.interp(r.ravel(), prof.radii(), prof.values, right=0.0)
    return RealField(grid, vals.reshape(grid.shape))


def compare_profiles(gs, prof: RadialProfile) -> float:
    """Sup-norm mismatch between a grid state and the radial profile, relative
    to the profile maximum.  Each lattice point is its own radius bin."""
    field = gs.field if hasattr(gs, "field") else gs
    lifted = profile_to_field(prof, field.grid)
    peak = float(np.max(prof.values))
    return float(np.max(np.abs(field.values - lifted.values))) / peak

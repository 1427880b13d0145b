
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import prnls as P
import prnls.solver as solver
from conftest import full_box, interpolate_to, peak_fields
from prnls.model import _grid_cache, fold_even, sample_dot, warn_if_poorly_truncated
from prnls.solver import SolverConfig
from prnls.sweep import make_record
from prnls.variational import clamped_power


def projected_gradient_solve(params, grid, M, cfg=None):
    """Reference solver, independent of the package's solve loop: preconditioned
    descent on the energy, renormalized onto the Nehari manifold after every step,

        v <- project(v - tau * (v - (A + mu)^{-1} v_+^{p-1})),    tau = cfg.fallback_step,

    until the equation residual is within half the tolerance.  Plain and allocating,
    built on the public transforms, projection and energy; no gauge fixing (the
    default start is centered and radial, so the iterates stay so).
    """
    cfg = cfg or SolverConfig()
    D = M.table + params.mu
    init = cfg.init_field if cfg.init_field is not None else P.gaussian_field(grid, cfg.init_width)
    v = P.nehari_project(init, M, params)[1]
    for it in range(cfg.max_iter + 1):
        report = P.energy(v, M, params)
        if report.residual <= 0.5 * cfg.tol_residual or it == cfg.max_iter:
            break
        nl = P.to_spectral(P.RealField(grid, clamped_power(v.values, params.p)))
        w = P.to_physical(P.SpectralField(grid, nl.coeffs / D)).values
        step = P.RealField(grid, v.values - cfg.fallback_step * (v.values - w))
        v = P.nehari_project(step, M, params)[1]
    reason = "converged" if report.residual <= 0.5 * cfg.tol_residual else "max_iter"
    converged = report.residual <= cfg.tol_residual
    if converged:
        warn_if_poorly_truncated(v)  # the box check every converged package state gets
    return P.GroundState(field=v, report=report, iterations=it, converged=converged,
                         params=params, stop_reason=reason)


@pytest.fixture(scope="module")
def deep_state(grid, params_inf):
    with pytest.warns(P.model.BoundaryDecayWarning):  # as the limit state's 2.8e-10
        return P.solve_ground_state(params_inf, grid, SolverConfig(tol_residual=1e-12))


@pytest.fixture
def finite_powers(monkeypatch):
    """solver.clamped_power asserting that every iterate it is given is finite: no
    non-finite iterate gets past the loop's one blow-up check.  The list counts the calls."""
    power, calls = solver.clamped_power, []

    def checked(u, p, out):
        assert np.all(np.isfinite(u))
        calls.append(p)
        return power(u, p, out=out)

    monkeypatch.setattr(solver, "clamped_power", checked)
    return calls


@pytest.fixture(scope="module")
def pg_state(grid, params_inf, limit_mult):
    with pytest.warns(P.model.BoundaryDecayWarning):  # as the limit state's 2.8e-10
        return projected_gradient_solve(params_inf, grid, limit_mult)


class TestSolve:
    def test_limit_state_converges(self, limit_state):
        assert limit_state.converged and limit_state.stop_reason == "converged"
        assert limit_state.report.residual <= 1e-9

    def test_positivity(self, limit_state, state_c1):
        for v in (limit_state.field.values, state_c1.values):
            assert np.min(v) >= -1e-10 * np.max(v)

    def test_maximum_at_center(self, limit_state):
        f = full_box(limit_state.field)
        idx = np.unravel_index(np.argmax(f.values), f.grid.shape)
        assert idx == (f.grid.N // 2,) * f.grid.n

    def test_energy_increases_with_c(self, sweep_result):
        energies = [r.I for r in sweep_result.all_records()]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_matches_radial_oracle(self, limit_state, oracle_profile):
        assert P.compare_profiles(limit_state, oracle_profile) <= 1e-3

    def test_reinit_with_converged_state_stays_put(self, grid, params_inf, limit_state):
        with pytest.warns(P.model.BoundaryDecayWarning):  # as the limit state's 2.8e-10
            again = P.solve_ground_state(params_inf, grid,
                                         SolverConfig(init_field=limit_state.field))
        assert again.converged and again.iterations <= 2
        assert P.h1_distance(again.field, limit_state.field) <= 1e-8

    def test_one_step_fixed_point_consistency(self, grid, deep_state, params_inf):
        # a tolerance below the deep state's residual forces exactly one step
        cfg = SolverConfig(init_field=deep_state.field, tol_residual=1e-14, max_iter=1)
        stepped = P.solve_ground_state(params_inf, grid, cfg)
        assert stepped.iterations == 1
        assert P.h1_distance(stepped.field, deep_state.field) <= 1e-10

    def test_radial_symmetry_from_radial_init(self, limit_state, state_c1):
        assert P.radial_scatter(limit_state.field) <= 1e-6
        assert P.radial_scatter(state_c1) <= 1e-6

    def test_symmetry_recovery_from_asymmetric_init(self, asym_state):
        assert asym_state.converged
        assert P.radial_scatter(asym_state.field) <= 1e-3

    def test_even_layout_agrees_with_the_full_box(self, grid, params_inf, limit_state):
        # the limit state's Gaussian start is mirror-even, so its loop ran on the even
        # layout, which the state keeps; rolled by one cell it is not, and the loop runs
        # on the full box, the state then shifted back by _finalize's centering
        start = P.gaussian_field(grid, 2.0)
        rolled = P.RealField(grid, np.roll(start.values, 1, axis=0))
        assert fold_even(start) is not None and fold_even(rolled) is None
        with pytest.warns(P.model.BoundaryDecayWarning):  # as the limit state's 2.8e-10
            full = P.solve_ground_state(params_inf, grid, SolverConfig(init_field=rolled))
        assert full.field.grid == grid and limit_state.field.grid.even
        assert full.converged and full.iterations == limit_state.iterations
        assert full.report.I == pytest.approx(limit_state.report.I, rel=1e-12)
        assert P.h1_distance(full.field, full_box(limit_state.field)) <= 1e-8

    def test_cold_start_builds_only_even_tables(self, monkeypatch):
        # the loop and _finalize's energy both take the table of the state's even
        # layout, which the state keeps
        g, pp = P.make_grid(2, 16.0, 64), P.PhysParams(m=1.0, mu=1.0, c=4.0, p=3.0, n=2)
        grids, build = [], solver.relativistic_multiplier

        def recording(grid, params):
            grids.append(grid)
            return build(grid, params)

        monkeypatch.setattr(solver, "relativistic_multiplier", recording)
        gs = P.solve_ground_state(pp, g, SolverConfig(max_iter=3))
        assert len(grids) == 2 and all(grid is gs.field.grid for grid in grids)
        assert gs.field.grid == P.make_grid(g.n, g.L, g.N, True)
        assert gs.report == P.energy(gs.field, P.relativistic_multiplier(gs.field.grid, pp), pp)

    def test_cold_start_agrees_with_warm_start(self, grid, make_params, sweep_field):
        pp = make_params(c=4.0)
        with pytest.warns(P.model.BoundaryDecayWarning):  # as the sweep's c = 4, 3.3e-10
            cold = P.solve_ground_state(pp, grid)
        assert P.h1_distance(cold.field, sweep_field(4.0)) <= 1e-6

    def test_resolution_doubling_preserves_energy(self, params_inf, limit_state):
        fine_grid = P.make_grid(2, 32.0, 512)
        with pytest.warns(P.model.BoundaryDecayWarning):  # the box, not N, sets the decay
            fine = P.solve_ground_state(params_inf, fine_grid)
        coarse_I = limit_state.report.I
        assert abs(fine.report.I - coarse_I) <= 1e-6 * abs(coarse_I)

    def test_interpolated_residual_stays_small(self, params_inf, limit_state):
        fine_grid = P.make_grid(2, 32.0, 512)
        M = P.limit_multiplier(fine_grid, params_inf)
        lifted = interpolate_to(limit_state.field, 512)
        fine_res = P.energy(lifted, M, params_inf).residual
        assert fine_res <= 10.0 * limit_state.report.residual

    def test_blowup_raises(self, grid, params_inf, finite_powers):
        # the non-finite guard: gamma = 60 from a narrow start overflows the step factor,
        # and the next pass's norm check, NaN or inf, raises before the power
        cfg = SolverConfig(gamma=60.0, init_width=0.3, max_iter=50)
        with pytest.raises(P.BlowUpError, match="^iterate became non-finite$"):
            P.solve_ground_state(params_inf, grid, cfg)
        assert finite_powers

    def test_blowup_norm_guard(self, grid, params_inf, finite_powers):
        # a sign-changing start pairs less than it weighs (Q(u) > <u_+^{p-1}, u>), so
        # gamma = 60 inflates the first step by a large but finite factor
        base = P.gaussian_field(grid, 2.0).values
        init = P.RealField(grid, base - 0.5 * P.gaussian_field(grid, 4.0).values)
        cfg = SolverConfig(init_field=init, gamma=60.0, max_iter=5)
        with pytest.raises(P.BlowUpError, match=r"^iterate norm exceeded 1e\+12$"):
            P.solve_ground_state(params_inf, grid, cfg)
        assert finite_powers

    @pytest.mark.parametrize("c", [4.0, math.inf])
    def test_blowup_caught_before_the_power_overflows(self, make_params, c, finite_powers):
        # gamma = 60 from the default start: the iterate's norm passes 1e12 at a
        # size whose square overflows, so the guard must come before the power
        grid = P.make_grid(2, 32.0, 64)
        params = make_params(c=c)
        with pytest.raises(P.BlowUpError, match=r"^iterate norm exceeded 1e\+12$"):
            P.solve_ground_state(params, grid, SolverConfig(gamma=60.0))
        assert finite_powers

    def test_nan_norm_caught_before_the_power(self, params_inf, finite_powers, monkeypatch):
        # a full-box start of period L/2 along x has exact zeros at the odd x frequencies,
        # where the overflowed step factor gives 0 * inf = NaN: the next norm is NaN,
        # which fails u_sq <= 1e24 as an inf does
        g = P.make_grid(2, 32.0, 64)
        x = g.axis_coordinates()
        bumps = sum(np.exp(-((x[:, None] - cx) ** 2 + (x[None, :] - 13.0) ** 2) / 0.25)
                    for cx in (4.0, 20.0))
        dots, dot = [], solver._re_dot
        monkeypatch.setattr(solver, "_re_dot", lambda a, b: dots.append(dot(a, b)) or dots[-1])
        cfg = SolverConfig(init_field=P.RealField(g, bumps), gamma=60.0, max_iter=50)
        with pytest.raises(P.BlowUpError, match="^iterate became non-finite$"):
            P.solve_ground_state(params_inf, g, cfg)
        assert math.isnan(dots[-1]) and finite_powers

    def test_nonconvergence_reported_not_raised(self, grid, params_inf):
        gs = P.solve_ground_state(params_inf, grid, SolverConfig(max_iter=3))
        assert not gs.converged
        assert gs.iterations == 3
        assert gs.stop_reason == "max_iter"

    def test_negative_start_reports_pairing_collapse(self, grid, params_inf):
        # u < 0 everywhere has no positive part: the pairing <u_+^{p-1}, u> is 0
        init = P.RealField(grid, P.gaussian_field(grid, 2.0).values - 2.0)
        gs = P.solve_ground_state(params_inf, grid, SolverConfig(init_field=init))
        assert (gs.stop_reason, gs.iterations, gs.converged) == ("pairing_collapse", 1, False)

    def test_converged_verdict_implies_converged_stop(self, finite_powers):
        # random controls: a solve returns or raises BlowUpError, only a loop that
        # passed its own test yields a converged state, and the power sees finite iterates
        rng = np.random.default_rng(7)
        reasons = set()
        for _ in range(40):
            pp = P.PhysParams(m=1.0, mu=1.0, c=float(rng.choice([1.0, 4.0, math.inf])),
                              p=float(rng.uniform(2.2, 4.0)), n=2)
            cfg = SolverConfig(gamma=float(np.exp(rng.uniform(0.1, 6.4))),
                               init_width=float(rng.uniform(0.2, 4.0)),
                               max_iter=int(rng.integers(1, 300)))
            try:
                gs = P.solve_ground_state(pp, P.make_grid(2, 32.0, 16), cfg)
            except P.BlowUpError:
                continue
            reasons.add(gs.stop_reason)
            assert gs.converged == (gs.stop_reason == "converged"
                                    and gs.report.residual <= cfg.tol_residual)
        assert reasons == {"converged", "max_iter", "pairing_collapse"}

    def test_stop_reason_defaults_to_none(self, limit_state):
        gs = P.GroundState(field=limit_state.field, report=limit_state.report,
                           iterations=0, converged=True, params=limit_state.params)
        assert gs.stop_reason is None

    def test_3d_c1_loop_converges_but_state_fails(self):
        # the sweep-3d c = 1 solve: the loop's clamped residual passes, while the
        # finalized state's residual (odd power, negative lobes) misses the tolerance
        pp = P.PhysParams(m=1.0, mu=1.0, c=1.0, p=2.5, n=3)
        g = P.make_grid(3, 32.0, 64)
        gs = P.solve_ground_state(pp, g)
        assert (gs.stop_reason, gs.iterations, gs.converged) == ("converged", 120, False)
        assert gs.report.residual > 1e-9

    def test_grid_mismatch_rejected(self, grid, params_inf):
        # init_field may be on grid or on its even layout, not on another box's
        for other in (P.make_grid(2, 32.0, 128), P.make_grid(2, 32.0, 128, True)):
            init = P.gaussian_field(other, 2.0)
            with pytest.raises(ValueError, match="^init_field grid does not match the solve grid$"):
                P.solve_ground_state(params_inf, grid, SolverConfig(init_field=init))
        # a state's dimension is its grid's: p = 3.5 is supercritical in 3D
        pp = P.PhysParams(m=1.0, mu=1.0, c=math.inf, p=3.5, n=2)
        with pytest.raises(ValueError, match="^params n = 2 does not match the grid's n = 3$"):
            P.solve_ground_state(pp, P.make_grid(3, 16.0, 32))
        with pytest.raises(ValueError, match="^params n = 3 does not match the grid's n = 2$"):
            P.solve_ground_state(P.PhysParams(m=1.0, mu=1.0, c=math.inf, p=2.5, n=3), grid)

    def test_mirror_even_start_is_folded_once(self, params_inf, monkeypatch):
        # a full-box Gaussian start is folded onto the even layout, where a cold start
        # builds its Gaussian: the two solves and their states are the same bits
        g, folds = P.make_grid(2, 16.0, 64), []
        monkeypatch.setattr(solver, "fold_even", lambda f: folds.append(f) or fold_even(f))
        cold = P.solve_ground_state(params_inf, g, SolverConfig(max_iter=5))
        assert folds == []
        folded = P.solve_ground_state(params_inf, g, SolverConfig(
            max_iter=5, init_field=P.gaussian_field(g, 2.0)))
        assert len(folds) == 1
        assert cold.field.grid == folded.field.grid == P.make_grid(2, 16.0, 64, True)
        assert np.array_equal(cold.field.values, folded.field.values)
        assert cold.report == folded.report

    def test_3d_smoke(self):
        pp = P.PhysParams(m=1.0, mu=1.0, c=4.0, p=2.5, n=3)
        g = P.make_grid(3, 16.0, 32)
        with pytest.warns(P.model.BoundaryDecayWarning, match="7.24e-05"):  # L = 16 is small
            gs = P.solve_ground_state(pp, g)
        assert gs.converged
        assert np.min(gs.field.values) >= -1e-10 * np.max(gs.field.values)


class TestLoopSums:
    """The loop's four sums per pass, each one plain dot of spectra in Parseval-root
    form times a constant, against sample_dot and weighted_power of the iterate the
    pass saw: on the even layout and on the full box, in 2D at N = 256 and in 3D at
    N = 64.  No perfbench workload runs the full-box loop."""

    @pytest.mark.parametrize("even", [True, False], ids=["even", "full"])
    @pytest.mark.parametrize("n, N", [(2, 256), (3, 64)])
    def test_dots_are_the_weighted_sums(self, n, N, even, monkeypatch):
        pp = P.PhysParams(m=1.0, mu=1.0, c=4.0, p=3.0 if n == 2 else 2.5, n=n)
        g = P.make_grid(n, 32.0, N)
        start = P.gaussian_field(g, 2.0).values
        init = P.RealField(g, start if even else np.roll(start, 1, axis=0))
        iterates, dots = [], []
        power, dot = solver.clamped_power, solver._re_dot
        monkeypatch.setattr(solver, "clamped_power",
                            lambda u, p, out: iterates.append(u.copy()) or power(u, p, out=out))
        monkeypatch.setattr(solver, "_re_dot", lambda a, b: dots.append(dot(a, b)) or dots[-1])
        gs = P.solve_ground_state(pp, g, SolverConfig(init_field=init, max_iter=1))
        layout = gs.field.grid
        assert layout.even == even and len(iterates) == 2 and len(dots) == 8
        gain, c = layout.transform_gain, layout.root_dot_weight
        D = P.relativistic_multiplier(layout, pp).table + pp.mu
        for u, (u_dot, pairing_dot, q_dot, res_dot) in zip(iterates, np.reshape(dots, (2, 4))):
            nl = clamped_power(u, pp.p)
            U = P.to_spectral(P.RealField(layout, u))
            R = U.coeffs * D - P.to_spectral(P.RealField(layout, nl)).coeffs
            want = {"u_sq": (c * gain * gain * u_dot, sample_dot(layout, u, u),
                             P.weighted_power(U)),
                    "pairing": (c * gain * pairing_dot, sample_dot(layout, nl, u)),
                    "q": (c * gain * q_dot, P.weighted_power(U, D)),
                    "res_sq": (c * res_dot, P.weighted_power(P.SpectralField(layout, R)))}
            for name, (got, *refs) in want.items():
                for ref in refs:
                    assert got == pytest.approx(ref, rel=1e-13), name


class TestMemory:
    """tracemalloc peaks in real fields (8 N^n bytes), measured above the inputs by
    conftest.peak_fields, in 2D at N = 256 and in 3D at N = 64."""

    #: measured peaks (2D, 3D) of the steps a sweep runs on each state after its
    #: solve loop; each is gated at its measured value plus MARGIN.  energy,
    #: make_record and radial_scatter take a state on the even layout, which its loop
    #: ran on and the state keeps; they measured 1.28 / 0.69, 2.10 / 0.82 and
    #: 2.34 / 1.08 while the state was full-box and the first two folded it, and
    #: 2.04 / 0.97 and 2.87 / 1.10 while they also built the even layout.  The
    #: off-center entries are the full box's figures.  Before they worked in place
    #: the same steps measured 4.15 / 4.22 (energy), 5.35 / 6.03 (make_record) and
    #: 4.34 / 5.00 (radial_scatter) on the full box; energy measured 3.00 / 3.00
    #: while odd_power allocated its sign.  radial_scatter's 2D figures hold two bin
    #: tables of 2 (N/2)^2 + 1 entries, 0.5 field each, on either layout; they
    #: measured 1.59 (make_record 1.59) and 2.34 off center while it copied the
    #: occupied bins of both tables out to subtract them.  center, the Fourier shift
    #: of an off-center state, measured 5.17 / 5.22 while it built a full-size phase
    #: table and multiplied out of place.
    #: energy and make_record measured 0.55 / 0.55 in 3D while the even grid held a
    #: full-size mirror_weight table (0.14 field), which sample_dot and weighted_power
    #: multiplied into a temporary; 2D's peaks are set elsewhere and did not move.
    MEASURED = {"energy": (1.02, 0.43), "make_record": (1.27, 0.42),
                "energy_off_center": (2.77, 2.67), "make_record_off_center": (3.02, 3.06),
                "radial_scatter": (1.27, 0.21), "radial_scatter_off_center": (2.01, 1.08),
                "center": (2.15, 2.16)}
    #: measured loop peaks (2D, 3D) of a cold start, whose Gaussian is built on the
    #: even layout, where the loop runs and the state stays: the loop sets the whole
    #: solve's peak.  2D measured 2.55 while the even grid held its 129-square
    #: cosine_matrix (0.25 field) in place of the two cosine_halves (0.13).  They
    #: measured 2.55 / 2.00 while the Gaussian was built on the full box and folded,
    #: when _finalize's centering of the mirrored state set the whole solve's
    #: peak at 3.30 / 2.28; 2.79 / 2.06 while the state was mirrored
    #: into a second full-box grid, whose xi_sq table is 0.5 field in 2D.  With hfft
    #: transforms, which copied and padded their input, the loop set 2D's peak at 3.81.
    #: Re-measured when the loop's sums became plain dots of its spectra: 2.42 / 1.24,
    #: unchanged, as the loop holds the same four buffers and two tables; in 2D its
    #: peak is the first buffer the forward radix-2 step allocates, one even-layout
    #: array above them, since the work array it is handed is its input.
    #: 2.42 / 1.24 while the even grid held a full-size mirror_weight table.  3D
    #: measured 1.10 while each forward DCT-I allocated a work array; its products now
    #: go to the power's buffer, which is free once its transform starts.
    EVEN_LOOP = (2.17, 0.98)
    MARGIN = 0.25
    #: what an even Grid holds once built (2D, 3D): its xi_sq table and its cosine
    #: matrices, the pair (E, O) in 2D; 0.636 / 0.279 while it also held a full-size
    #: mirror_weight table.  A byte count, not a peak: gated at GRID_MARGIN, well
    #: below that table (0.25 / 0.14 field).
    EVEN_GRID = (0.382, 0.141)
    GRID_MARGIN = 0.02

    @staticmethod
    def setting(n, N, c=math.inf):
        return P.PhysParams(m=1.0, mu=1.0, c=c, p=3.0 if n == 2 else 2.5, n=n), P.make_grid(n, 32.0, N)

    def loop_peaks(self, n, N, monkeypatch):
        """Peaks of a 5- and a 60-iteration cold start, each read as the loop hands
        its state to _finalize, then the peaks of the whole solves.  Each solve builds
        its own even layout: the second does not find the first one's."""
        pp, g = self.setting(n, N)
        at_handoff = []
        finalize = solver._finalize

        def probe(*args):
            at_handoff.append(tracemalloc.get_traced_memory()[1] / (8 * g.N**g.n))
            return finalize(*args)

        monkeypatch.setattr(solver, "_finalize", probe)
        whole = []
        for max_iter in (5, 60):
            cfg = SolverConfig(tol_residual=1e-14, max_iter=max_iter)
            _grid_cache.cache_clear()
            gs, peak = peak_fields(g, P.solve_ground_state, pp, g, cfg)
            assert gs.iterations == max_iter  # the tolerance is out of reach
            whole.append(peak)
        return at_handoff + whole

    @pytest.mark.parametrize("n, N", [(2, 256), (3, 64)])
    def test_peak_is_flat_in_iterations_and_bounded(self, n, N):
        # A whole solve on the full box, _finalize included, from a Gaussian rolled
        # one cell off the mirror symmetry, so that the loop runs on the full box and
        # _finalize shifts the state back to the center.  Measured: 5.28 (2D) and
        # 5.19 (3D), set in the loop, whose sums are plain dots of its spectra; 5.28
        # and 5.22 while they were sample_dot and weighted_power, with center
        # shifting in place; 6.17 and 6.22,
        # set in center, while it built a full-size phase table; the loop alone
        # measured 6.66 and 6.74 before the cold start's Gaussian was dropped after
        # the projection and energy's residual formed in place; 7.66 and 7.74 with
        # four tables alive through the loop; 7.16 and 7.22 while the caller built
        # the table; 7.0 and 8.2 while the inverse transform allocated a complex
        # temporary per leading axis, 11.6 before the loop ran on work buffers, and
        # 11.1 when the buffers stay alive through _finalize.
        pp, g = self.setting(n, N)
        rolled = P.RealField(g, np.roll(P.gaussian_field(g, 2.0).values, 1, axis=0))
        peaks = []
        for max_iter in (5, 60):
            cfg = SolverConfig(tol_residual=1e-14, max_iter=max_iter, init_field=rolled)
            gs, peak = peak_fields(g, P.solve_ground_state, pp, g, cfg)
            assert gs.iterations == max_iter  # the tolerance is out of reach
            peaks.append(peak)
        short, long = peaks
        assert long == pytest.approx(short, abs=0.05)
        assert long <= 6.0

    @pytest.mark.parametrize("n, N", [(2, 256), (3, 64)])
    def test_even_loop_peak(self, n, N, monkeypatch):
        # the full-box loop measures 5.28 / 5.19 above, so this gate also shows that
        # a cold start's loop ran on the even layout
        short, long, short_solve, long_solve = self.loop_peaks(n, N, monkeypatch)
        assert long == pytest.approx(short, abs=0.05)
        assert max(long, short_solve, long_solve) <= self.EVEN_LOOP[n - 2] + self.MARGIN

    @pytest.mark.parametrize("n, N", [(2, 256), (3, 64)])
    def test_even_grid_holds_only_its_tables(self, n, N):
        P.Grid(n, 32.0, N, True)  # warm-up: first calls into numpy may keep caches of their own
        tracemalloc.start()
        try:
            g = P.Grid(n, 32.0, N, True)
            held = tracemalloc.get_traced_memory()[0] / (8 * N**n)
        finally:
            tracemalloc.stop()
        assert g.even and held <= self.EVEN_GRID[n - 2] + self.GRID_MARGIN

    @pytest.mark.parametrize("step", sorted(MEASURED))
    @pytest.mark.parametrize("n, N", [(2, 256), (3, 64)])
    def test_post_loop_step_peak(self, step, n, N):
        pp, g = self.setting(n, N, c=4.0)
        even = P.make_grid(n, g.L, N, True)
        u = P.gaussian_field(even, 2.0)
        M = P.relativistic_multiplier(even, pp)
        gs = P.GroundState(field=u, report=P.energy(u, M, pp), iterations=0,
                           converged=False, params=pp)
        reference = P.gaussian_field(even, 2.5)
        roll = lambda width: np.roll(P.gaussian_field(g, width).values, 1, axis=0)  # noqa: E731
        off_center, reference_off = P.RealField(g, roll(2.0)), P.RealField(g, roll(2.5))
        gs_off = dataclasses.replace(gs, field=off_center)
        calls = {"energy": (P.energy, u, M, pp),
                 "make_record": (make_record, pp.c, gs, reference),
                 "energy_off_center": (P.energy, off_center, P.relativistic_multiplier(g, pp), pp),
                 "make_record_off_center": (make_record, pp.c, gs_off, reference_off),
                 "radial_scatter": (P.radial_scatter, u),
                 "radial_scatter_off_center": (P.radial_scatter, off_center),
                 "center": (P.center, off_center)}
        _, peak = peak_fields(g, *calls[step])
        assert peak <= self.MEASURED[step][n - 2] + self.MARGIN


def test_h1_distance_rejects_other_grids(grid):
    f = P.gaussian_field(grid, 2.0)
    # the even layout of the same box too: no layout is implied
    others = (P.make_grid(2, 40.0, 256), P.make_grid(2, 32.0, 128), P.make_grid(2, 32.0, 256, True))
    for other in others:
        with pytest.raises(ValueError, match="^grid mismatch$"):
            P.h1_distance(f, P.gaussian_field(other, 2.0))
    assert P.h1_distance(f, f) == 0.0


class TestProjectedGradient:
    def test_agrees_with_petviashvili(self, pg_state, limit_state):
        assert pg_state.converged
        assert P.h1_distance(pg_state.field, full_box(limit_state.field)) <= 1e-6

    def test_oversized_step_reports_nonconvergence(self, grid, params_inf, limit_mult):
        cfg = SolverConfig(fallback_step=10.0, max_iter=60)
        gs = projected_gradient_solve(params_inf, grid, limit_mult, cfg)
        assert not gs.converged
        assert gs.stop_reason == "max_iter"

    def test_matches_oracle(self, pg_state, oracle_profile):
        assert P.compare_profiles(pg_state, oracle_profile) <= 1e-3

    def test_nonconvergence_reported_not_raised(self, grid, params_inf, limit_mult):
        gs = projected_gradient_solve(params_inf, grid, limit_mult, SolverConfig(max_iter=3))
        assert not gs.converged
        assert gs.iterations == 3
        assert gs.stop_reason == "max_iter"


class TestRecenter:
    def test_shifted_gaussian_comes_back(self, grid):
        base = P.gaussian_field(grid, 2.0)
        shifted = P.RealField(grid, np.roll(base.values, (13, -7), axis=(0, 1)))
        assert np.max(np.abs(P.center(shifted).values - base.values)) <= 1e-15

    def test_seam_straddling_gaussian_comes_back(self, grid):
        # a half-box roll puts the peak on the periodic seam, in the four corners
        base = P.gaussian_field(grid, 2.0)
        half = grid.N // 2
        shifted = P.RealField(grid, np.roll(base.values, (half, half), axis=(0, 1)))
        assert np.max(np.abs(P.center(shifted).values - base.values)) <= 1e-15

    def test_centered_field_unchanged(self, grid):
        base = P.gaussian_field(grid, 2.0)
        assert np.array_equal(P.center(base).values, base.values)

    def test_even_layout_field_returned_as_is(self, grid):
        # a GroundState's field is usually on the even layout, centered by its symmetry
        f = P.gaussian_field(P.make_grid(grid.n, grid.L, grid.N, True), 2.0)
        assert P.center(f) is f

    def test_norms_preserved(self, grid):
        rng = np.random.default_rng(21)
        f = P.RealField(grid, rng.standard_normal(grid.shape))
        assert P.norm_l2(P.center(f)) == pytest.approx(P.norm_l2(f), rel=1e-15)

    def test_axis_without_first_moment_left_alone(self, grid):
        # unit Gaussians at center +- 8 along axis 0: the marginal's first Fourier
        # moment cancels to round-off, so that axis has no centroid to move to
        x = grid.axis_coordinates() - grid.center_coordinate
        g = np.exp(-0.5 * x**2)
        pair = np.exp(-0.5 * (x - 8.0) ** 2) + np.exp(-0.5 * (x + 8.0) ** 2)
        f = P.RealField(grid, pair[:, None] * g[None, :])
        assert np.array_equal(P.center(f).values, f.values)

    def test_constant_field_unchanged_without_warning(self, grid):
        const = P.RealField(grid, np.ones(grid.shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = P.center(const)
        assert np.array_equal(out.values, const.values)

    def test_subgrid_recenter_kills_subcell_offset(self, grid):
        # gaussian centered 0.3 cells off the lattice
        off = 0.3 * grid.h
        d = grid.axis_coordinates() - grid.center_coordinate - off
        r2 = d[:, None] ** 2 + (grid.axis_coordinates() - grid.center_coordinate)[None, :] ** 2
        f = P.RealField(grid, np.exp(-r2 / 8.0))
        out = P.center(f)
        w = out.values**2
        x = grid.axis_coordinates()
        centroid = float(np.sum(w * x[:, None]) / np.sum(w))
        assert abs(centroid - grid.center_coordinate) <= 1e-10
        assert P.norm_l2(out) == pytest.approx(P.norm_l2(f), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_subgrid_recenter_matches_full_complex_shift(self, n):
        # reference: the same phase shift applied with the full complex transform
        g = P.make_grid(n, 16.0, 32)
        offsets = np.array([0.3, -0.2, 0.45][:n]) * g.h
        coords = np.meshgrid(*([g.axis_coordinates()] * n), indexing="ij")
        r2 = sum((a - g.center_coordinate - o) ** 2 for a, o in zip(coords, offsets))
        f = P.RealField(g, np.exp(-r2 / 4.0))
        w = f.values**2
        deltas = [g.center_coordinate - float(np.sum(w * a)) / float(np.sum(w)) for a in coords]
        kd = 2.0 * np.pi * np.fft.fftfreq(g.N, d=g.h)
        kd[g.N // 2] = 0.0
        phase = 1.0
        for axis, d in enumerate(deltas):
            shape = [1] * n
            shape[axis] = g.N
            phase = phase * np.exp(-1j * d * kd).reshape(shape)
        expect = np.fft.ifftn(phase * np.fft.fftn(f.values)).real
        out = P.center(f)
        assert np.max(np.abs(out.values - expect)) <= 1e-13 * np.max(np.abs(expect))


class TestRadialScatter:
    def test_exactly_radial_field_scores_zero(self, grid):
        f = P.gaussian_field(grid, 2.0)
        assert P.radial_scatter(f) <= 1e-15

    def test_detects_anisotropy(self, grid):
        r2 = grid.radius_sq()
        x = grid.axis_coordinates() - grid.center_coordinate
        aniso = np.exp(-r2 / 8.0) * (1.0 + 0.01 * (x[:, None] ** 2 - x[None, :] ** 2) / 8.0)
        assert P.radial_scatter(P.RealField(grid, aniso)) >= 1e-4

    def test_zero_field(self, grid):
        assert P.radial_scatter(P.RealField(grid, np.zeros(grid.shape))) == 0.0


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_residual=0.0)
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(tol_residual=math.inf)  # every solve would pass its loop test at once
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(gamma=1.0)
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(gamma=math.inf)  # the step factor M^gamma collapses the iterate to 0
        with pytest.raises(ValueError):
            SolverConfig(fallback_step=0.0)
        with pytest.raises(ValueError, match="integer"):
            SolverConfig(max_iter=2.5)
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(init_width=math.inf)  # an infinitely wide Gaussian is the constant 1
        with pytest.raises(ValueError, match="^max_iter must be an integer, got True$"):
            SolverConfig(max_iter=True)  # ran one iteration
        for name in ("tol_residual", "gamma", "init_width", "fallback_step"):
            for bad in (True, "1"):
                with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
                    SolverConfig(**{name: bad})
        with pytest.raises(ValueError, match="^tol_residual must be positive and finite$"):
            SolverConfig(tol_residual=10**400)  # an int past float range is inf

    def test_integral_float_max_iter_accepted(self):
        cfg = SolverConfig(max_iter=5.0)
        assert cfg.max_iter == 5 and isinstance(cfg.max_iter, int)
        assert SolverConfig(max_iter=10**400).max_iter == 10**400  # no float() to overflow

    def test_default_gamma_formula(self):
        assert SolverConfig().resolved_gamma(3.0) == pytest.approx(2.0)
        assert SolverConfig(gamma=1.5).resolved_gamma(3.0) == 1.5


import numpy as np
import pytest

import prnls as P
from prnls.solver import SolverConfig
from prnls.variational import residual


@pytest.fixture(scope="module")
def deep_state(grid, params_inf, limit_mult):
    return P.solve_ground_state(params_inf, grid, limit_mult,
                                SolverConfig(tol_residual=1e-12))


@pytest.fixture(scope="module")
def pg_state(grid, params_inf, limit_mult):
    return P.projected_gradient_solve(params_inf, grid, limit_mult)


class TestSolve:
    def test_limit_state_converges(self, limit_state):
        assert limit_state.converged
        assert limit_state.report.residual <= 1e-9

    def test_positivity(self, limit_state, state_c1):
        for gs in (limit_state, state_c1):
            v = gs.field.values
            assert np.min(v) >= -1e-10 * np.max(v)

    def test_maximum_at_center(self, limit_state):
        g = limit_state.field.grid
        idx = np.unravel_index(np.argmax(limit_state.field.values), g.shape)
        assert idx == (g.center_index,) * g.n

    def test_energy_increases_with_c(self, sweep_result):
        energies = [r.I for r in sweep_result.all_records()]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_matches_radial_oracle(self, limit_state, oracle_profile):
        assert P.compare_profiles(limit_state, oracle_profile) <= 1e-3

    def test_reinit_with_converged_state_stays_put(self, grid, params_inf, limit_mult,
                                                   limit_state):
        again = P.solve_ground_state(params_inf, grid, limit_mult,
                                     SolverConfig(init_field=limit_state.field))
        assert again.converged and again.iterations <= 2
        assert P.h1_distance(again.field, limit_state.field) <= 1e-8

    def test_one_step_fixed_point_consistency(self, grid, deep_state, limit_mult, params_inf):
        # a tolerance below the deep state's residual forces exactly one step
        cfg = SolverConfig(init_field=deep_state.field, tol_residual=1e-14, max_iter=1)
        stepped = P.solve_ground_state(params_inf, grid, limit_mult, cfg)
        assert stepped.iterations == 1
        assert P.h1_distance(stepped.field, deep_state.field) <= 1e-10

    def test_radial_symmetry_from_radial_init(self, limit_state, state_c1):
        assert P.radial_scatter(limit_state.field) <= 1e-6
        assert P.radial_scatter(state_c1.field) <= 1e-6

    def test_symmetry_recovery_from_asymmetric_init(self, asym_state):
        assert asym_state.converged
        assert P.radial_scatter(asym_state.field) <= 1e-3

    def test_cold_start_agrees_with_warm_start(self, grid, make_params, sweep_result):
        pp = make_params(c=4.0)
        cold = P.solve_ground_state(pp, grid, P.relativistic_multiplier(grid, pp))
        warm = sweep_result.states[2]
        assert warm.params.c == 4.0
        assert P.h1_distance(cold.field, warm.field) <= 1e-6

    def test_resolution_doubling_preserves_energy(self, params_inf, limit_state):
        fine_grid = P.make_grid(2, 32.0, 512)
        fine = P.solve_ground_state(params_inf, fine_grid,
                                    P.limit_multiplier(fine_grid, params_inf))
        coarse_I = limit_state.report.I
        assert abs(fine.report.I - coarse_I) <= 1e-6 * abs(coarse_I)

    def test_interpolated_residual_stays_small(self, params_inf, limit_state):
        fine_grid = P.make_grid(2, 32.0, 512)
        M = P.limit_multiplier(fine_grid, params_inf)
        lifted = P.interpolate_to(limit_state.field, 512)
        fine_res = residual(lifted, M, params_inf)
        assert fine_res <= 10.0 * limit_state.report.residual

    def test_blowup_raises(self, grid, params_inf, limit_mult):
        cfg = SolverConfig(gamma=60.0, init_width=0.3, max_iter=50)
        with pytest.raises(P.BlowUpError):
            P.solve_ground_state(params_inf, grid, limit_mult, cfg)

    def test_nonconvergence_reported_not_raised(self, grid, params_inf, limit_mult):
        gs = P.solve_ground_state(params_inf, grid, limit_mult, SolverConfig(max_iter=3))
        assert not gs.converged
        assert gs.iterations == 3

    def test_grid_mismatch_rejected(self, params_inf, limit_mult):
        other = P.make_grid(2, 32.0, 128)
        with pytest.raises(ValueError):
            P.solve_ground_state(params_inf, other, limit_mult)

    def test_3d_smoke(self):
        pp = P.PhysParams(m=1.0, mu=1.0, c=4.0, p=2.5, n=3)
        g = P.make_grid(3, 16.0, 32)
        gs = P.solve_ground_state(pp, g, P.relativistic_multiplier(g, pp))
        assert gs.converged
        assert np.min(gs.field.values) >= -1e-10 * np.max(gs.field.values)


class TestProjectedGradient:
    def test_agrees_with_petviashvili(self, pg_state, limit_state):
        assert pg_state.converged
        assert P.h1_distance(pg_state.field, limit_state.field) <= 1e-6

    def test_oversized_step_reports_nonconvergence(self, grid, params_inf, limit_mult):
        cfg = SolverConfig(fallback_step=10.0, max_iter=60)
        gs = P.projected_gradient_solve(params_inf, grid, limit_mult, cfg)
        assert not gs.converged

    def test_matches_oracle(self, pg_state, oracle_profile):
        assert P.compare_profiles(pg_state, oracle_profile) <= 1e-3

    def test_nonconvergence_reported_not_raised(self, grid, params_inf, limit_mult):
        gs = P.projected_gradient_solve(params_inf, grid, limit_mult, SolverConfig(max_iter=3))
        assert not gs.converged
        assert gs.iterations == 3


class TestRecenter:
    def test_shifted_gaussian_comes_back(self, grid):
        base = P.gaussian_field(grid, 2.0)
        shifted = P.RealField(grid, np.roll(base.values, (13, -7), axis=(0, 1)))
        assert np.array_equal(P.recenter(shifted).values, base.values)

    def test_centered_field_unchanged(self, grid):
        base = P.gaussian_field(grid, 2.0)
        assert np.array_equal(P.recenter(base).values, base.values)

    def test_norms_preserved(self, grid):
        rng = np.random.default_rng(21)
        f = P.RealField(grid, rng.standard_normal(grid.shape))
        assert P.norm_l2(P.recenter(f)) == pytest.approx(P.norm_l2(f), rel=1e-15)

    def test_constant_field_warns_and_breaks_ties_lexicographically(self, grid):
        const = P.RealField(grid, np.ones(grid.shape))
        with pytest.warns(UserWarning, match="plateau"):
            out = P.recenter(const)
        assert np.array_equal(out.values, const.values)

    def test_subgrid_recenter_kills_subcell_offset(self, grid):
        # gaussian centered 0.3 cells off the lattice
        off = 0.3 * grid.h
        d = grid.axis_coordinates() - grid.center_coordinate - off
        r2 = d[:, None] ** 2 + (grid.axis_coordinates() - grid.center_coordinate)[None, :] ** 2
        f = P.RealField(grid, np.exp(-r2 / 8.0))
        out = P.subgrid_recenter(f)
        w = out.values**2
        x = grid.axis_coordinates()
        centroid = float(np.sum(w * x[:, None]) / np.sum(w))
        assert abs(centroid - grid.center_coordinate) <= 1e-10
        assert P.norm_l2(out) == pytest.approx(P.norm_l2(f), rel=1e-12)


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
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(gamma=1.0)
        with pytest.raises(ValueError):
            SolverConfig(fallback_step=0.0)

    def test_default_gamma_formula(self):
        assert SolverConfig().resolved_gamma(3.0) == pytest.approx(2.0)
        assert SolverConfig(gamma=1.5).resolved_gamma(3.0) == 1.5

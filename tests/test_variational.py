import numpy as np
import pytest

import prnls as P
from prnls.model import fold_even, sample_dot
from prnls.variational import lp_integral, quadratic_form


def cos_mode(grid):
    x = grid.axis_coordinates()
    return P.RealField(grid, np.cos(2 * np.pi * x / grid.L)[:, None] * np.ones((1, grid.N)))


def random_bump(grid, seed, width=3.0):
    rng = np.random.default_rng(seed)
    return P.RealField(grid, np.abs(rng.standard_normal(grid.shape)) *
                       P.gaussian_field(grid, width).values)


class TestQuadraticForm:
    def test_zero_field(self, grid, limit_mult, params_inf):
        z = P.RealField(grid, np.zeros(grid.shape))
        assert quadratic_form(z, limit_mult, params_inf) == 0.0

    def test_cos_mode_closed_form(self, grid, make_params):
        pp = make_params(c=2.0)
        M = P.relativistic_multiplier(grid, pp)
        f = cos_mode(grid)
        a = P.eval_relativistic_symbol((2 * np.pi / grid.L) ** 2, pp)
        expect = (a + pp.mu) * grid.L**2 / 2
        assert quadratic_form(f, M, pp) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_quadratic_homogeneity(self, grid, limit_mult, params_inf, seed):
        rng = np.random.default_rng(seed)
        f = P.RealField(grid, rng.standard_normal(grid.shape))
        t = float(rng.uniform(0.3, 3.0))
        q1 = quadratic_form(f, limit_mult, params_inf)
        qt = quadratic_form(P.RealField(grid, t * f.values), limit_mult, params_inf)
        assert qt == pytest.approx(t * t * q1, rel=1e-12)

    def test_bounded_below_by_mass_term(self, grid, limit_mult, params_inf):
        f = random_bump(grid, 7)
        assert quadratic_form(f, limit_mult, params_inf) >= params_inf.mu * P.norm_l2(f) ** 2


class TestEnergy:
    def test_zero_field(self, grid, limit_mult, params_inf):
        rep = P.energy(P.RealField(grid, np.zeros(grid.shape)), limit_mult, params_inf)
        assert rep.I == 0.0 and rep.J == 0.0 and rep.residual == 0.0

    def test_cos_cube_integral_closed_form(self, grid, params_inf):
        # mean of |cos|^3 over a period is 4/(3 pi)
        f = cos_mode(grid)
        expect = grid.L**2 * 4.0 / (3.0 * np.pi)
        assert lp_integral(f, 3.0) == pytest.approx(expect, rel=1e-8)

    def test_identities_hold_by_construction(self, grid, limit_mult, params_inf):
        f = random_bump(grid, 8)
        rep = P.energy(f, limit_mult, params_inf)
        assert rep.I == pytest.approx(0.5 * rep.Q - rep.lp / 3.0, rel=1e-14)
        assert rep.J == pytest.approx(rep.Q - rep.lp, rel=1e-14)

    def test_residual_matches_allocating_formula(self, grid, limit_mult, params_inf):
        # energy forms the residual in place; the bits are those of the plain formula
        # summed by the package's one physical-space sum
        f = random_bump(grid, 9)
        D = limit_mult.table + params_inf.mu
        lhs = P.to_physical(P.SpectralField(grid, D * P.to_spectral(f).coeffs)).values
        r = lhs - np.sign(f.values) * np.abs(f.values) ** 2.0
        expect = float(np.sqrt(sample_dot(grid, r, r))) / P.norm_l2(f)
        assert P.energy(f, limit_mult, params_inf).residual == expect

    def test_grid_mismatch_rejected(self, limit_mult, params_inf):
        other = P.make_grid(2, 40.0, 256)
        with pytest.raises(ValueError, match="^grid mismatch$"):
            P.energy(P.gaussian_field(other, 2.0), limit_mult, params_inf)

    def test_converged_state_on_nehari_manifold(self, limit_state):
        rep = limit_state.report
        assert abs(rep.J) <= 1e-8 * rep.Q
        assert rep.identity_gap <= 1e-8 * abs(rep.I)


class TestNehariProjection:
    def test_formula_matches_components(self, grid, limit_mult, params_inf):
        f = random_bump(grid, 9)
        q = quadratic_form(f, limit_mult, params_inf)
        lp = lp_integral(f, params_inf.p)
        t, proj = P.nehari_project(f, limit_mult, params_inf)
        assert t == pytest.approx((q / lp) ** (1.0 / (params_inf.p - 2.0)), rel=1e-14)
        assert np.array_equal(proj.values, t * f.values)

    def test_projected_state_has_zero_nehari_value(self, grid, limit_mult, params_inf):
        f = random_bump(grid, 10)
        _, proj = P.nehari_project(f, limit_mult, params_inf)
        rep = P.energy(proj, limit_mult, params_inf)
        assert abs(rep.J) <= 1e-12 * rep.Q

    def test_fixed_point_and_idempotence(self, grid, limit_mult, params_inf):
        f = random_bump(grid, 11)
        _, once = P.nehari_project(f, limit_mult, params_inf)
        t2, twice = P.nehari_project(once, limit_mult, params_inf)
        assert t2 == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(twice.values - once.values)) <= 1e-12 * np.max(once.values)

    def test_zero_field_rejected(self, grid, limit_mult, params_inf):
        with pytest.raises(ValueError):
            P.nehari_project(P.RealField(grid, np.zeros(grid.shape)), limit_mult, params_inf)

    def test_underflowing_power_rejected(self, grid, limit_mult, params_inf):
        # ||u||_2 is about 1e-120, but |u|^3 underflows to 0 everywhere
        tiny = P.RealField(grid, 1e-120 * P.gaussian_field(grid, 2.0).values)
        assert P.norm_l2(tiny) > 0.0
        with pytest.raises(ValueError, match="^Nehari projection is undefined"):
            P.nehari_project(tiny, limit_mult, params_inf)


class TestResidual:
    def test_generic_field_not_a_solution(self, grid, limit_mult, params_inf):
        f = P.gaussian_field(grid, 2.0)
        assert P.energy(f, limit_mult, params_inf).residual > 1e-3

    def test_converged_state_below_tolerance(self, limit_state):
        assert limit_state.report.residual <= 1e-9


class TestEvenLayout:
    """Every sum of energy, norm_l2 and lp_integral on a folded state against the full box."""

    @pytest.fixture(params=[2, 3], ids=["2d", "3d"])
    def state_c4(self, request, sweep_field):
        if request.param == 2:
            return sweep_field(4.0), P.PhysParams(m=1.0, mu=1.0, c=4.0, p=3.0, n=2)
        pp = P.PhysParams(m=1.0, mu=1.0, c=4.0, p=2.5, n=3)
        with pytest.warns(P.model.BoundaryDecayWarning):  # a small box suffices for the sums
            return P.solve_ground_state(pp, P.make_grid(3, 16.0, 32)).field, pp

    def test_sums_match_the_full_box(self, state_c4):
        full, pp = state_c4
        folded = fold_even(full)
        assert folded is not None and folded.grid.even
        assert P.norm_l2(folded) == pytest.approx(P.norm_l2(full), rel=1e-13)
        assert lp_integral(folded, pp.p) == pytest.approx(lp_integral(full, pp.p), rel=1e-13)
        want = P.energy(full, P.relativistic_multiplier(full.grid, pp), pp)
        got = P.energy(folded, P.relativistic_multiplier(folded.grid, pp), pp)
        for name in ("Q", "lp", "I"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-13), name
        assert abs(got.J - want.J) <= 1e-13 * want.Q  # J = Q - lp is round-off here
        assert want.residual <= 1e-9
        assert got.residual == pytest.approx(want.residual, rel=0, abs=1e-15)


def nehari_level(f, M, params):
    """I(t* f) on the Nehari manifold; the Rayleigh quotient of f times (1/2 - 1/p)."""
    return P.energy(P.nehari_project(f, M, params)[1], M, params).I


class TestRayleighQuotient:
    """The scale-invariant Rayleigh quotient Q^{p/(p-2)} / (||u||_p^p)^{2/(p-2)} equals
    the Nehari level I(t* u) / (1/2 - 1/p), so each check is made on the level."""

    def test_scale_invariance(self, grid, limit_mult, params_inf):
        f = random_bump(grid, 12)
        a = nehari_level(f, limit_mult, params_inf)
        b = nehari_level(P.RealField(grid, 2.0 * f.values), limit_mult, params_inf)
        assert b == pytest.approx(a, rel=1e-12)

    def test_equals_scaled_energy_at_ground_state(self, limit_state, limit_mult, params_inf):
        level = nehari_level(limit_state.field, limit_mult, params_inf)
        assert level == pytest.approx(limit_state.report.I, rel=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_ground_state_minimizes(self, grid, limit_mult, params_inf, limit_state, seed):
        i_gs = limit_state.report.I
        cand = random_bump(grid, 600 + seed)
        assert nehari_level(cand, limit_mult, params_inf) >= i_gs - 1e-10 * i_gs

    def test_perturbations_of_ground_state_not_lower(self, grid, limit_mult, params_inf,
                                                     limit_state):
        i_gs = limit_state.report.I
        rng = np.random.default_rng(77)
        for _ in range(3):
            noise = rng.standard_normal(grid.shape) * P.gaussian_field(grid, 4.0).values
            cand = P.RealField(grid, limit_state.field.values * (1.0 + 0.02 * noise))
            assert nehari_level(cand, limit_mult, params_inf) >= i_gs - 1e-10 * i_gs

    def test_ordered_in_c_for_fixed_field(self, grid, make_params):
        f = random_bump(grid, 13)
        vals = []
        for c in (1.0, 4.0, 32.0):
            pp = make_params(c=c)
            vals.append(nehari_level(f, P.relativistic_multiplier(grid, pp), pp))
        assert vals[0] <= vals[1] <= vals[2]

    def test_zero_field_rejected(self, grid, limit_mult, params_inf):
        with pytest.raises(ValueError):
            nehari_level(P.RealField(grid, np.zeros(grid.shape)), limit_mult, params_inf)

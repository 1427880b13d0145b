import numpy as np
import pytest

import prnls as P
from conftest import even_bump, full_box, unfold_even
from prnls.model import fold_even, sample_dot
from prnls.variational import clamped_power, lp_integral


def cos_mode(grid):
    x = grid.axis_coordinates()
    return P.RealField(grid, np.cos(2 * np.pi * x / grid.L)[:, None] * np.ones((1, grid.N)))


def random_bump(grid, seed, width=3.0):
    rng = np.random.default_rng(seed)
    return P.RealField(grid, np.abs(rng.standard_normal(grid.shape)) *
                       P.gaussian_field(grid, width).values)


class TestQuadraticForm:
    """Q, the (A + mu)-weighted quadratic form, as energy reports it."""

    def test_zero_field(self, grid, limit_mult, params_inf):
        z = P.RealField(grid, np.zeros(grid.shape))
        assert P.energy(z, limit_mult, params_inf).Q == 0.0

    def test_cos_mode_closed_form(self, grid, make_params):
        pp = make_params(c=2.0)
        M = P.relativistic_multiplier(grid, pp)
        f = cos_mode(grid)
        a = P.eval_relativistic_symbol((2 * np.pi / grid.L) ** 2, pp)
        expect = (a + pp.mu) * grid.L**2 / 2
        assert P.energy(f, M, pp).Q == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_quadratic_homogeneity(self, grid, limit_mult, params_inf, seed):
        rng = np.random.default_rng(seed)
        f = P.RealField(grid, rng.standard_normal(grid.shape))
        t = float(rng.uniform(0.3, 3.0))
        q1 = P.energy(f, limit_mult, params_inf).Q
        qt = P.energy(P.RealField(grid, t * f.values), limit_mult, params_inf).Q
        assert qt == pytest.approx(t * t * q1, rel=1e-12)

    def test_bounded_below_by_mass_term(self, grid, limit_mult, params_inf):
        f = random_bump(grid, 7)
        assert P.energy(f, limit_mult, params_inf).Q >= params_inf.mu * P.norm_l2(f) ** 2


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
        assert rep.identity_gap == 0.5 * abs(rep.J)  # one formula: the gap is |J| / 2

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
        rep = P.energy(f, limit_mult, params_inf)
        t, proj = P.nehari_project(f, limit_mult, params_inf)
        assert t == (rep.Q / rep.lp) ** (1.0 / (params_inf.p - 2.0))  # energy's Q and lp
        assert rep.lp == lp_integral(f, params_inf.p)
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
    """Every sum of energy, norm_l2 and lp_integral on a state on the even layout
    against the same state unfolded to the full box."""

    @pytest.fixture(params=[2, 3], ids=["2d", "3d"])
    def state_c4(self, request, sweep_field):
        if request.param == 2:
            return sweep_field(4.0), P.PhysParams(m=1.0, mu=1.0, c=4.0, p=3.0, n=2)
        pp = P.PhysParams(m=1.0, mu=1.0, c=4.0, p=2.5, n=3)
        with pytest.warns(P.model.BoundaryDecayWarning):  # a small box suffices for the sums
            return P.solve_ground_state(pp, P.make_grid(3, 16.0, 32)).field, pp

    def test_sums_match_the_full_box(self, state_c4):
        folded, pp = state_c4
        assert folded.grid.even
        full = full_box(folded)
        assert P.norm_l2(folded) == pytest.approx(P.norm_l2(full), rel=1e-13)
        assert lp_integral(folded, pp.p) == pytest.approx(lp_integral(full, pp.p), rel=1e-13)
        got = P.energy(folded, P.relativistic_multiplier(folded.grid, pp), pp)
        want = P.energy(full, P.relativistic_multiplier(full.grid, pp), pp)
        for name in ("Q", "lp", "I"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-13), name
        assert abs(got.J - want.J) <= 1e-13 * want.Q  # J = Q - lp is round-off here
        assert want.residual <= 1e-9
        assert got.residual == pytest.approx(want.residual, rel=0, abs=1e-15)

    @pytest.fixture(params=[(2, 64), (3, 32)], ids=["2d", "3d"])
    def setting(self, request):
        n, N = request.param
        g = P.make_grid(n, 16.0, N)
        pp = P.PhysParams(m=1.0, mu=1.0, c=4.0, p=3.0 if n == 2 else 2.5, n=n)
        return g, pp, P.relativistic_multiplier(g, pp)

    def test_even_state_folds_to_the_full_box_values(self, setting):
        g, pp, M = setting
        u = even_bump(g, 5)
        folded = fold_even(u)
        M_even = P.relativistic_multiplier(folded.grid, pp)
        got, (t_got, proj_got) = P.energy(folded, M_even, pp), P.nehari_project(folded, M_even, pp)
        want, (t_want, proj_want) = P.energy(u, M, pp), P.nehari_project(u, M, pp)
        for name in ("Q", "lp", "I", "residual"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-13), name
        for name in ("J", "identity_gap"):  # differences of the terms above
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-13 * want.Q, name
        assert t_got == pytest.approx(t_want, rel=1e-13)
        for rep, t in ((got, t_got), (want, t_want)):  # t* is energy's, on either layout
            assert t == (rep.Q / rep.lp) ** (1.0 / (pp.p - 2.0))
        assert proj_got.grid == folded.grid and proj_want.grid == g
        np.testing.assert_allclose(unfold_even(proj_got, g).values, proj_want.values,
                                   rtol=1e-13, atol=0)
        with pytest.raises(ValueError, match="^grid mismatch$"):  # no layout is implied
            P.energy(folded, M, pp)

    def test_state_rolled_off_the_center_stays_on_the_full_box(self, setting):
        g, pp, M = setting
        u = P.RealField(g, np.roll(even_bump(g, 6).values, 1, axis=0))
        assert fold_even(u) is None
        got, (t_got, proj_got) = P.energy(u, M, pp), P.nehari_project(u, M, pp)
        assert got.Q == P.weighted_power(u, M.table + pp.mu)  # the full-box sum
        assert got.lp == lp_integral(u, pp.p)
        assert proj_got.grid == g
        assert np.array_equal(proj_got.values, t_got * u.values)


class TestClampedPower:
    #: the signed powers clamped_power once took for each p, before a final += 0.0 turned
    #: the -0.0 of u < 0 into +0.0: b * u, sqrt(b) * u and copysign(b^{p-1}, u), b = max(u, 0)
    SIGNED = {3.0: lambda b, u: b * u, 2.5: lambda b, u: np.sqrt(b) * u,
              2.7: lambda b, u: np.copysign(np.power(b, 2.7 - 1.0), u)}

    @pytest.mark.parametrize("p", sorted(SIGNED))
    def test_bits_of_the_signed_power_with_positive_zeros(self, p):
        rng = np.random.default_rng(3)
        u = np.concatenate([rng.standard_normal(4093), [0.0, -0.0, -5e-324, 5e-324, -1e150]])
        want = self.SIGNED[p](np.maximum(u, 0.0), u) + 0.0
        out = np.empty_like(u)
        got = clamped_power(u, p, out=out)
        assert got is out
        np.testing.assert_array_equal(got, want)
        assert not np.signbit(got).any()  # +0.0 on u <= 0, -0.0 included
        assert np.array_equal(clamped_power(u, p), got)


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
        level = nehari_level(full_box(limit_state.field), limit_mult, params_inf)
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
            cand = P.RealField(grid, full_box(limit_state.field).values * (1.0 + 0.02 * noise))
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

import math

import numpy as np
import pytest

import prnls as P


def eval_relativistic_symbol_naive(xi_sq, params):
    """Subtraction form sqrt(c^2 |xi|^2 + m^2 c^4) - m c^2; the cancellation-prone
    reference the quotient form is checked against."""
    m, c = params.m, params.c
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    out = np.sqrt(c * c * xi_sq + (m * c * c) ** 2) - m * c * c
    return float(out) if out.ndim == 0 else out


def apply_multiplier(M, f):
    """to_physical(table * to_spectral(f)); linear and self-adjoint in L2."""
    return P.to_physical(P.SpectralField(f.grid, M.table * P.to_spectral(f).coeffs))


class TestSymbolValues:
    def test_vanishes_at_origin(self, make_params):
        pp = make_params(c=3.0)
        assert P.eval_relativistic_symbol(0.0, pp) == 0.0
        assert P.eval_relativistic_symbol(0.0, make_params(c=math.inf)) == 0.0

    def test_hand_value_unit_params(self, make_params):
        # sqrt(3 + 1) - 1 = 1 and 3 / (sqrt(3 + 1) + 1) = 1
        pp = make_params(c=1.0)
        assert P.eval_relativistic_symbol(3.0, pp) == pytest.approx(1.0, rel=1e-15)
        assert eval_relativistic_symbol_naive(3.0, pp) == pytest.approx(1.0, rel=1e-15)

    def test_huge_c_no_cancellation(self, make_params):
        pp = make_params(c=1e8)
        val = P.eval_relativistic_symbol(1.0, pp)
        assert 0.5 - 1.0 / 8e16 <= val <= 0.5

    def test_limit_symbol_arithmetic(self, make_params):
        assert P.eval_relativistic_symbol(2.0, make_params(c=math.inf, m=1.0)) == 1.0
        assert P.eval_relativistic_symbol(8.0, make_params(c=math.inf, m=2.0)) == 2.0

    def test_infinite_c_equals_limit(self, grid, make_params):
        # xi^2 / (sqrt(xi^2/inf + m^2) + m) = xi^2 / (2m) to the bit: sqrt(m*m) is m
        for m in (0.3, 1.0, 1.7, 2.0, 1e3):
            a = P.eval_relativistic_symbol(grid.xi_sq, make_params(c=math.inf, m=m))
            assert np.array_equal(a, grid.xi_sq / (2.0 * m)), m

    def test_strictly_increasing_in_xi(self, make_params):
        pp = make_params(c=2.0)
        xs = np.linspace(0.0, 100.0, 64)
        vals = P.eval_relativistic_symbol(xs, pp)
        assert np.all(np.diff(vals) > 0)

    def test_monotone_in_c_on_lattice(self, grid, make_params):
        prev = P.eval_relativistic_symbol(grid.xi_sq, make_params(c=1.0))
        for c in (2.0, 4.0, 16.0, 1e4):
            cur = P.eval_relativistic_symbol(grid.xi_sq, make_params(c=c))
            assert np.all(prev <= cur)
            prev = cur

    def test_naive_agrees_where_subtraction_is_safe(self, make_params):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(200):
            m = rng.uniform(0.5, 2.0)
            c = rng.uniform(1.0, 10.0)
            xi_sq = rng.uniform(1e-3, 1e3)
            pp = P.PhysParams(m=m, mu=0.1, c=c, p=3.0, n=2)
            stable = P.eval_relativistic_symbol(xi_sq, pp)
            if m * c * c / stable > 1e6:  # subtraction loses > 6 digits: skip
                continue
            naive = eval_relativistic_symbol_naive(xi_sq, pp)
            assert abs(naive - stable) <= 1e-9 * stable
            checked += 1
        assert checked > 100


class TestGap:
    def test_zero_mode(self, make_params):
        pp = make_params(c=1.0)
        assert P.symbol_gap(0.0, pp) == 0.0
        assert P.symbol_gap_bound(0.0, pp) == 0.0

    def test_hand_value(self, make_params):
        pp = make_params(c=1.0)
        gap = P.symbol_gap(1.0, pp)
        assert gap == pytest.approx(1.5 - math.sqrt(2.0), rel=1e-14)
        assert gap <= P.symbol_gap_bound(1.0, pp) == pytest.approx(0.125, rel=1e-15)

    def test_matches_direct_difference(self, grid, make_params):
        pp = make_params(c=1.0)
        direct = grid.xi_sq / (2.0 * pp.m) - P.eval_relativistic_symbol(grid.xi_sq, pp)
        stable = P.symbol_gap(grid.xi_sq, pp)
        assert np.max(np.abs(direct - stable)) <= 1e-12 * np.max(stable)

    @pytest.mark.parametrize("c", [1.0, 10.0, 1e4, 1e8])
    def test_sandwich_exact_on_lattice(self, grid, make_params, c):
        assert P.sandwich_holds(grid.xi_sq, make_params(c=c))

    @pytest.mark.parametrize("xi_sq", [0.5, 1.0, 2.0])
    def test_doubling_c_quarters_the_gap(self, make_params, xi_sq):
        for c in (8.0, 16.0, 32.0, 64.0):
            ratio = P.symbol_gap(xi_sq, make_params(c=c)) / P.symbol_gap(xi_sq, make_params(c=2 * c))
            assert 3.9 <= ratio <= 4.1


class TestMultiplier:
    def test_builtin_tables_vanish_at_origin(self, grid, make_params):
        for M in (P.relativistic_multiplier(grid, make_params(c=2.0)),
                  P.limit_multiplier(grid, make_params(c=2.0))):
            assert M.table[0, 0] == 0.0
            assert np.all(M.table >= 0.0)
            assert np.all(np.isfinite(M.table))

    def test_rejects_bad_tables(self, grid):
        P.Multiplier(grid, np.ones(grid.spectral_shape))
        with pytest.raises(ValueError, match="nonnegative"):
            P.Multiplier(grid, -np.ones(grid.spectral_shape))
        with pytest.raises(ValueError, match="finite"):
            P.Multiplier(grid, np.full(grid.spectral_shape, np.inf))
        with pytest.raises(ValueError, match="half spectrum"):
            P.Multiplier(grid, np.ones(grid.shape))

    def test_zero_field_maps_to_zero(self, grid, limit_mult):
        out = apply_multiplier(limit_mult, P.RealField(grid, np.zeros(grid.shape)))
        assert np.all(out.values == 0.0)

    def test_cos_mode_is_eigenfunction(self, grid, make_params):
        pp = make_params(c=2.0)
        M = P.relativistic_multiplier(grid, pp)
        x = grid.axis_coordinates()
        vals = np.cos(2 * np.pi * x / grid.L)[:, None] * np.ones((1, grid.N))
        f = P.RealField(grid, vals)
        eig = P.eval_relativistic_symbol((2 * np.pi / grid.L) ** 2, pp)
        out = apply_multiplier(M, f)
        assert np.max(np.abs(out.values - eig * vals)) <= 1e-12

    def test_limit_multiplier_on_gaussian_is_half_laplacian(self, grid, limit_mult):
        f = P.gaussian_field(grid, 1.0)
        out = apply_multiplier(limit_mult, f)
        r2 = grid.radius_sq()
        exact = 0.5 * (2.0 - r2) * np.exp(-r2 / 2.0)
        interior = r2 <= 64.0
        assert np.max(np.abs(out.values[interior] - exact[interior])) <= 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_self_adjoint(self, grid, make_params, seed):
        rng = np.random.default_rng(500 + seed)
        M = P.relativistic_multiplier(grid, make_params(c=3.0))
        f = P.RealField(grid, rng.standard_normal(grid.shape))
        g2 = P.RealField(grid, rng.standard_normal(grid.shape))
        a = grid.cell_volume * np.sum(apply_multiplier(M, f).values * g2.values)
        b = grid.cell_volume * np.sum(f.values * apply_multiplier(M, g2).values)
        assert abs(a - b) <= 1e-11 * max(abs(a), 1.0)

    def test_grid_mismatch_rejected(self, grid, limit_mult, params_inf):
        # a table of one resolution refuses a field of another on the same box
        other = P.make_grid(2, 32.0, 128)
        with pytest.raises(ValueError, match="mismatch"):
            P.energy(P.RealField(other, np.zeros(other.shape)), limit_mult, params_inf)


class TestMultiplierConvergence:
    def test_gaussian_sequence_decreases(self, grid, params_inf):
        phi = P.gaussian_field(grid, 1.0)
        es = P.multiplier_convergence_test(phi, [1, 2, 4, 8, 16], params_inf)
        assert all(b < a for a, b in zip(es, es[1:]))

    def test_quartic_rate(self, grid, params_inf):
        phi = P.gaussian_field(grid, 1.0)
        es = P.multiplier_convergence_test(phi, [8, 16], params_inf)
        assert 0.2 <= es[1] / es[0] <= 0.3

    def test_zero_input_gives_zeros(self, grid, params_inf):
        zero = P.RealField(grid, np.zeros(grid.shape))
        assert P.multiplier_convergence_test(zero, [1, 2, 4], params_inf) == [0.0, 0.0, 0.0]

    def test_matches_literal_operator_difference(self, grid, make_params, params_inf):
        phi = P.gaussian_field(grid, 1.0)
        (e4,) = P.multiplier_convergence_test(phi, [4], params_inf)
        pp = make_params(c=4.0)
        diff = (apply_multiplier(P.relativistic_multiplier(grid, pp), phi).values
                - apply_multiplier(P.limit_multiplier(grid, pp), phi).values)
        literal = P.norm_l2(P.RealField(grid, diff))
        assert e4 == pytest.approx(literal, rel=1e-12)

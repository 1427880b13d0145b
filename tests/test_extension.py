
import math

import numpy as np
import pytest

import prnls as P
from prnls.extension import (
    extension_energy_total,
    hhalf_form_total,
    lattice_mode_energies,
    lattice_perturbation_surplus,
)

DELTAS = np.logspace(-6.0, 3.0, 19)
MODE_111 = (1, 1, 1)


@pytest.fixture(scope="module")
def unit_grid():
    """L = 2*pi makes every lattice frequency an integer: mode (1, 1, 1) has |xi|^2 = 3."""
    return P.make_grid(3, 2.0 * math.pi, 16)


def params3(c=1.0, m=1.0):
    return P.PhysParams(m=m, mu=1.0, c=c, p=2.5, n=3)


class TestModeEnergy:
    def test_zero_mode_closed_form(self, unit_grid):
        pp = params3(c=3.0, m=1.5)
        ext, trace = lattice_mode_energies(unit_grid, pp)
        expect = pp.m * pp.c**2  # m c^2 |u_hat|^2 at xi = 0
        assert ext[0, 0, 0] == pytest.approx(expect, rel=1e-14)
        assert trace[0, 0, 0] == pytest.approx(expect, rel=1e-14)

    def test_hand_value(self, unit_grid):
        # m = c = 1, |xi|^2 = 3: decay rate s = 2 and energy (3 + 1 + 4) / 4 = 2
        ext, trace = lattice_mode_energies(unit_grid, params3())
        assert unit_grid.xi_sq[MODE_111] == pytest.approx(3.0, rel=1e-14)
        assert ext[MODE_111] == pytest.approx(2.0, rel=1e-14)
        assert trace[MODE_111] == pytest.approx(2.0, rel=1e-14)

    def test_decay_at_least_mc(self, unit_grid):
        # every mode decays at rate s >= m c, with equality at xi = 0, so the
        # admissible competitors are exactly delta > -m c
        pp = params3(c=5.0, m=0.7)
        mc = pp.m * pp.c
        assert np.all(lattice_perturbation_surplus(unit_grid, -mc * (1.0 - 1e-12), pp) > 0.0)
        with pytest.raises(ValueError, match="decay"):
            lattice_perturbation_surplus(unit_grid, -mc, pp)

    @pytest.mark.parametrize("c", [1.0, 8.0, 32.0])
    def test_equality_on_every_lattice_mode(self, grid, make_params, c):
        pp = make_params(c=c)
        ext, trace = lattice_mode_energies(grid, pp)
        assert np.max(np.abs(ext - trace) / trace) <= 1e-12


class TestPerturbedModeEnergy:
    def test_delta_zero_is_equality(self, unit_grid):
        assert np.all(lattice_perturbation_surplus(unit_grid, 0.0, params3()) == 0.0)

    def test_hand_value(self, unit_grid):
        # m = c = 1, |xi|^2 = 3, delta = 1: (3 + 1 + 9) / 6 = 13/6
        pp = params3()
        ext, _ = lattice_mode_energies(unit_grid, pp)
        surplus = lattice_perturbation_surplus(unit_grid, 1.0, pp)
        assert ext[MODE_111] + surplus[MODE_111] == pytest.approx(13.0 / 6.0, rel=1e-14)

    def test_matches_literal_closed_form(self, unit_grid):
        pp = params3(c=2.0, m=1.3)
        c, m, xi_sq = pp.c, pp.m, unit_grid.xi_sq
        ext, _ = lattice_mode_energies(unit_grid, pp)
        for delta in (1e-3, 0.5, 7.0):
            s = np.sqrt(xi_sq + (m * c) ** 2) + delta
            literal = (c**2 * xi_sq + (m * c**2) ** 2 + c**2 * s * s) / (2.0 * s * c)
            perturbed = ext + lattice_perturbation_surplus(unit_grid, delta, pp)
            np.testing.assert_allclose(perturbed, literal, rtol=1e-13)

    def test_strictly_larger_for_positive_delta(self, unit_grid):
        pp = params3()
        ext, _ = lattice_mode_energies(unit_grid, pp)
        for delta in DELTAS:
            assert np.all(ext + lattice_perturbation_surplus(unit_grid, float(delta), pp) > ext)

    @pytest.mark.parametrize("c", [1.0, 32.0])
    def test_strict_surplus_on_whole_lattice(self, grid, make_params, c):
        pp = make_params(c=c)
        for delta in DELTAS:
            assert np.all(lattice_perturbation_surplus(grid, float(delta), pp) > 0.0)

    def test_grows_without_bound(self, unit_grid):
        pp = params3()
        ext, _ = lattice_mode_energies(unit_grid, pp)
        vals = [ext[MODE_111] + lattice_perturbation_surplus(unit_grid, d, pp)[MODE_111]
                for d in (1e2, 1e4, 1e6)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 1e5

    def test_nondecaying_competitor_rejected(self, unit_grid):
        # delta = -2 stops mode (1, 1, 1), whose decay rate is 2
        with pytest.raises(ValueError, match="decay"):
            lattice_perturbation_surplus(unit_grid, -2.0, params3())


class TestNeumannConsistency:
    def test_random_field(self, grid, make_params):
        rng = np.random.default_rng(31)
        f = P.RealField(grid, rng.standard_normal(grid.shape))
        assert P.neumann_consistency(f, make_params(c=1.0)) <= 1e-14

    def test_zero_field(self, grid, make_params):
        z = P.RealField(grid, np.zeros(grid.shape))
        assert P.neumann_consistency(z, make_params(c=1.0)) == 0.0

    def test_huge_c_stays_stable(self, grid, make_params):
        rng = np.random.default_rng(32)
        f = P.RealField(grid, rng.standard_normal(grid.shape))
        assert P.neumann_consistency(f, make_params(c=1e8)) <= 1e-12


class TestWholeFieldEquivalence:
    def test_ground_state_extension_energy_equals_trace_form(self, state_c1, make_params):
        pp = make_params(c=1.0)
        a = extension_energy_total(state_c1.field, pp)
        b = hhalf_form_total(state_c1.field, pp)
        assert abs(a - b) <= 1e-10 * b

import math

import numpy as np
import pytest

import prnls as P
from conftest import interpolate_to
from prnls.model import derivative_freqs


def spectral_gradient(f):
    """Gradient components via the Fourier multiplier i*xi (Nyquist entries zeroed)."""
    F = P.to_spectral(f)
    return [P.to_physical(P.SpectralField(f.grid, 1j * derivative_freqs(f.grid, axis) * F.coeffs))
            for axis in range(f.grid.n)]


def full_xi_sq(grid):
    """|xi|^2 on the full lattice, in the layout of np.fft.fftn."""
    freqs = 2.0 * math.pi * np.fft.fftfreq(grid.N, d=grid.h)
    mesh = np.meshgrid(*([freqs] * grid.n), indexing="ij")
    return sum(a * a for a in mesh)


def full_weighted_power(f, weight_of):
    """Reference for weighted_power: the full complex transform, weight_of(|xi|^2)
    on the full lattice, every mode counted once."""
    F = f.grid.fourier_scale * np.fft.fftn(f.values)
    return f.grid.spectral_weight * np.sum(weight_of(full_xi_sq(f.grid)) * np.abs(F) ** 2)


def band_limited_field(grid, seed, damp=8.0):
    """Random smooth real field: white noise with a Gaussian spectral damp."""
    rng = np.random.default_rng(seed)
    f = P.RealField(grid, rng.standard_normal(grid.shape))
    F = P.to_spectral(f)
    return P.to_physical(P.SpectralField(grid, F.coeffs * np.exp(-grid.xi_sq / damp)))


class TestParams:
    def test_defaults_valid(self, make_params):
        make_params(c=1.0)
        make_params(c=math.inf)

    @pytest.mark.parametrize("bad", [
        dict(m=0.0), dict(mu=-1.0), dict(c=0.5), dict(p=2.0), dict(p=4.0),
        dict(n=1), dict(mu=2.0, c=1.0),  # mu > m c^2
    ])
    def test_rejects(self, make_params, bad):
        with pytest.raises(ValueError):
            make_params(**{"c": 1.0, **bad})

    def test_mu_equal_mc2_allowed(self, make_params):
        # the default desk configuration has mu = m c^2 at c = 1
        make_params(c=1.0, mu=1.0, m=1.0)

    def test_subcritical_range_depends_on_n(self, make_params):
        make_params(c=2.0, n=3, p=2.5)
        with pytest.raises(ValueError):
            make_params(c=2.0, n=3, p=3.5)


class TestGrid:
    def test_default_grid(self):
        g = P.make_grid(2, 32.0, 256)
        assert g.h == 0.125
        assert np.isclose(np.max(g.xi_sq), 2.0 * (math.pi * 256 / 32.0) ** 2)
        assert g.shape == (256, 256)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            P.make_grid(2, 32.0, 255)

    def test_rejects_small_or_bad(self):
        with pytest.raises(ValueError):
            P.make_grid(2, 32.0, 8)
        with pytest.raises(ValueError):
            P.make_grid(4, 32.0, 64)
        with pytest.raises(ValueError):
            P.make_grid(2, -1.0, 64)

    def test_3d_grid(self):
        g = P.make_grid(3, 16.0, 64)
        assert g.h == 0.25
        assert g.xi_sq.shape == g.spectral_shape == (64, 64, 33)

    def test_frequency_lattice_symmetric_but_nyquist(self):
        g = P.make_grid(2, 32.0, 64)
        col = g.xi_sq[:, 0]  # squared frequencies of the leading axis, in fft order
        # the Nyquist entry N/2 sits alone, every other index j pairs with N - j
        assert np.isclose(col[32], (math.pi * 64 / 32.0) ** 2)
        assert np.allclose(col[1:], col[1:][::-1])
        assert np.isclose(g.xi_sq[0, -1], col[32])  # the half axis ends at the Nyquist frequency


class TestTransforms:
    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip(self, grid, seed):
        rng = np.random.default_rng(seed)
        f = P.RealField(grid, rng.standard_normal(grid.shape))
        back = P.to_physical(P.to_spectral(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", range(5))
    def test_parseval(self, grid, seed):
        rng = np.random.default_rng(100 + seed)
        f = P.RealField(grid, rng.standard_normal(grid.shape))
        F = P.to_spectral(f)
        phys = grid.cell_volume * np.sum(f.values**2)
        spectral = P.weighted_power(F)
        assert abs(phys - spectral) <= 1e-12 * phys

    def test_constant_is_dc_mode(self, grid):
        F = P.to_spectral(P.RealField(grid, np.ones(grid.shape)))
        mags = np.abs(F.coeffs)
        assert mags[0, 0] > 0
        assert np.max(np.delete(mags.ravel(), 0)) <= 1e-12 * mags[0, 0]

    def test_cos_mode_two_conjugate_coefficients(self, grid):
        x = grid.axis_coordinates()
        f = P.RealField(grid, np.cos(2 * np.pi * x / grid.L)[:, None] * np.ones((1, grid.N)))
        C = P.to_spectral(f).coeffs
        mags = np.abs(C)
        peak = np.max(mags)
        nonzero = np.argwhere(mags > 1e-12 * peak)
        assert len(nonzero) == 2
        assert {tuple(i) for i in nonzero} == {(1, 0), (grid.N - 1, 0)}
        assert np.isclose(C[1, 0], np.conj(C[grid.N - 1, 0]))

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError):
            P.RealField(grid, np.zeros((grid.N, grid.N + 1)))
        with pytest.raises(ValueError):
            P.RealField(grid, np.full(grid.shape, np.nan))
        with pytest.raises(ValueError):
            P.SpectralField(grid, np.zeros((4, 4), dtype=complex))
        with pytest.raises(ValueError, match="half spectrum"):
            P.SpectralField(grid, np.zeros(grid.shape, dtype=complex))


class TestNorms:
    def test_cos_l2(self, grid):
        x = grid.axis_coordinates()
        f = P.RealField(grid, np.cos(2 * np.pi * x / grid.L)[:, None] * np.ones((1, grid.N)))
        assert np.isclose(P.norm_l2(f) ** 2, grid.L**2 / 2, rtol=1e-12)

    def test_cos_h1(self, grid):
        x = grid.axis_coordinates()
        f = P.RealField(grid, np.cos(2 * np.pi * x / grid.L)[:, None] * np.ones((1, grid.N)))
        expect = (1.0 + (2 * np.pi / grid.L) ** 2) * grid.L**2 / 2
        assert np.isclose(P.norm_h1(f) ** 2, expect, rtol=1e-12)

    def test_zero_field_all_norms_zero(self, grid):
        z = P.RealField(grid, np.zeros(grid.shape))
        assert P.norm_l2(z) == 0.0
        assert P.norm_h1(z) == 0.0
        assert P.norm_hhalf(z) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_hhalf_below_h1(self, grid, seed):
        rng = np.random.default_rng(200 + seed)
        f = P.RealField(grid, rng.standard_normal(grid.shape))
        assert P.norm_hhalf(f) <= P.norm_h1(f)

    @pytest.mark.parametrize("seed", range(3))
    def test_h1_splits_into_l2_plus_gradient(self, grid, seed):
        f = band_limited_field(grid, 300 + seed)
        grads = spectral_gradient(f)
        rhs = P.norm_l2(f) ** 2 + sum(P.norm_l2(gi) ** 2 for gi in grads)
        lhs = P.norm_h1(f) ** 2
        assert abs(lhs - rhs) <= 1e-10 * lhs


class TestInterpolation:
    def test_refinement_matches_at_shared_points(self, grid):
        f = P.gaussian_field(grid, 2.0)
        fine = interpolate_to(f, 512)
        assert np.max(np.abs(fine.values[::2, ::2] - f.values)) <= 1e-11

    def test_rejects_coarsening(self, grid):
        with pytest.raises(ValueError):
            interpolate_to(P.gaussian_field(grid, 2.0), 128)


class TestHalfSpectrum:
    """The real-to-complex layout against the full complex transform."""

    @pytest.fixture(params=[2, 3], ids=["2d", "3d"])
    def noise(self, request):
        # white noise: every mode is populated, the Nyquist ones included
        n = request.param
        g = P.make_grid(n, 16.0, 64 if n == 2 else 32)
        return P.RealField(g, np.random.default_rng(700 + n).standard_normal(g.shape))

    @pytest.mark.parametrize("weight", ["one", "h1", "relativistic"])
    def test_weighted_power_matches_full_transform(self, noise, weight):
        params = P.PhysParams(m=1.0, mu=1.0, c=2.0, p=2.5, n=noise.grid.n)
        weight_of = {
            "one": np.ones_like,
            "h1": lambda xi_sq: 1.0 + xi_sq,
            "relativistic": lambda xi_sq: P.eval_relativistic_symbol(xi_sq, params),
        }[weight]
        got = P.weighted_power(noise, weight_of(noise.grid.xi_sq))
        assert got == pytest.approx(full_weighted_power(noise, weight_of), rel=1e-13)

    def test_roundtrip(self, noise):
        back = P.to_physical(P.to_spectral(noise))
        assert np.max(np.abs(back.values - noise.values)) <= 1e-14 * np.max(np.abs(noise.values))

    def test_coefficients_are_the_stored_half_of_the_full_transform(self, noise):
        full = noise.grid.fourier_scale * np.fft.fftn(noise.values)
        half = P.to_spectral(noise).coeffs
        np.testing.assert_allclose(half, full[..., : noise.grid.N // 2 + 1],
                                   rtol=0, atol=1e-13 * np.max(np.abs(full)))

    def test_inverse_is_irfftn_to_the_bit(self, noise):
        g = noise.grid
        F = P.to_spectral(noise)
        kept = F.coeffs.copy()
        ref = np.fft.irfftn(F.coeffs, s=g.shape, axes=tuple(range(g.n))) / g.fourier_scale
        out, work = np.empty(g.shape), np.empty(g.spectral_shape, dtype=np.complex128)
        got = P.to_physical(F, out=out, work=work)
        assert got.values is out
        assert np.array_equal(got.values, ref) and np.array_equal(P.to_physical(F).values, ref)
        assert np.array_equal(F.coeffs, kept)  # work, not the spectrum, holds the partial transforms

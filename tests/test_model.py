import dataclasses
import math

import numpy as np
import pytest

import prnls as P
from conftest import interpolate_to, peak_fields, unfold_even
from prnls.model import (RADIX2_MIN_POINTS, _dct1, boundary_max_ratio, cosine_halves,
                         cosine_matrix, derivative_freqs, fold_even, sample_dot, shared_grid,
                         sum_of_squares)


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

    def test_compares_and_hashes_by_layout(self):
        a, b = P.make_grid(2, 32, 256), P.make_grid(2, 32.0, 256)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != P.make_grid(2, 32.0, 128)

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


    @pytest.mark.parametrize("n", [2, 3])
    def test_lattice_tables_equal_the_meshgrid_sums(self, n):
        # sum_of_squares broadcasts; a meshgrid summed in axis order is the reference
        g = P.make_grid(n, 16.0, 32)
        freqs = 2.0 * math.pi * np.fft.fftfreq(g.N, d=g.h)
        half = 2.0 * math.pi * np.fft.rfftfreq(g.N, d=g.h)
        d = g.axis_coordinates() - g.center_coordinate
        idx = np.arange(g.N) - g.N // 2
        for axes, table in [([freqs] * (n - 1) + [half], g.xi_sq),
                            ([d] * n, g.radius_sq()), ([idx] * n, sum_of_squares([idx] * n))]:
            expect = sum(a * a for a in np.meshgrid(*axes, indexing="ij"))
            assert table.dtype == expect.dtype and np.array_equal(table, expect)


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


def reflection(v):
    """v mirrored about index N/2 on every axis: index j goes to N - j (mod N)."""
    axes = tuple(range(v.ndim))
    return np.roll(np.flip(v, axes), 1, axes)


def dct1_hfft(x):
    """Reference DCT-I: the DFT of the mirror-even extension of x's N/2 + 1 samples per
    axis at its N/2 + 1 nonnegative frequencies, by a length-N hfft of each axis in turn,
    independent of the cosine-matrix products the package computes it with."""
    for axis, size in enumerate(x.shape):
        x = np.fft.hfft(x, n=2 * size - 2, axis=axis)[(slice(None),) * axis + (slice(size),)]
    return x


class TestCosineTransform:
    """The even layout's transforms: one cosine-matrix product per axis, after one
    radix-2 step on axes of 129 points or more."""

    def test_matrix_is_its_own_inverse_up_to_N(self):
        assert P.make_grid(2, 16.0, 64).cosine_matrix is None
        C = dataclasses.replace(P.make_grid(2, 16.0, 64), even=True).cosine_matrix
        assert C.shape == (33, 33)
        np.testing.assert_allclose(C @ C, 64.0 * np.eye(33), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("N", [16, 64, 256])
    def test_halves_are_the_even_and_odd_rows_folded(self, N):
        C, (E, O) = cosine_matrix(N), cosine_halves(N)
        K, h = N // 2, N // 4
        assert E.shape == (h + 1, h + 1) and O.shape == (h, h)
        np.testing.assert_array_equal(E, cosine_matrix(K))
        # C's rows of one parity are even (odd) about column K/2: the folds sum (differ)
        fold = np.zeros((K + 1, h + 1))
        fold[np.arange(h + 1), np.arange(h + 1)] = 1.0
        fold[np.arange(K, h - 1, -1), np.arange(h + 1)] += 1.0
        np.testing.assert_allclose(E @ fold.T, C[0::2], rtol=0, atol=1e-13)
        np.testing.assert_allclose(O, C[1::2, :h], rtol=0, atol=1e-13)
        np.testing.assert_allclose(C[1::2, h], 0.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(C[1::2, K:h:-1], -O, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("N, split", [(128, False), (256, True), (512, True)])
    def test_grid_holds_the_matrices_of_its_axis_length(self, N, split):
        g = shared_grid(2, 16.0, N, True)
        assert (g.cosine_halves is not None, g.cosine_matrix is None) == (split, split)
        assert (N // 2 + 1 >= RADIX2_MIN_POINTS) == split
        assert P.make_grid(2, 16.0, N).cosine_halves is None

    @pytest.mark.parametrize("n, N", [(2, 16), (2, 128), (2, 256), (2, 512), (3, 16), (3, 64),
                                      (3, 128)])
    def test_agrees_with_the_hfft_reference_and_round_trips(self, n, N):
        g = dataclasses.replace(P.make_grid(n, 16.0, N), even=True)
        f = P.RealField(g, np.random.default_rng(900 + N).standard_normal(g.shape))
        spectrum, samples = np.empty(g.spectral_shape), np.empty(g.shape)
        assert P.to_spectral(f, out=spectrum).coeffs is spectrum
        expect = g.fourier_scale * dct1_hfft(f.values)
        assert np.max(np.abs(spectrum - expect)) <= 1e-13 * np.max(np.abs(expect))
        assert P.to_physical(P.SpectralField(g, spectrum), out=samples).values is samples
        expect = dct1_hfft(spectrum) / (g.fourier_scale * g.N**g.n)
        assert np.max(np.abs(samples - expect)) <= 1e-13 * np.max(np.abs(expect))
        assert np.max(np.abs(samples - f.values)) <= 1e-13 * np.max(np.abs(f.values))
        for work in (np.empty(g.spectral_shape), np.empty(g.spectral_shape, complex)):
            via_work = P.to_physical(P.SpectralField(g, spectrum), work=work).values
            np.testing.assert_array_equal(via_work, samples)  # the partial products' buffer
        own = spectrum.copy()  # energy's residual: the input's buffer takes the partial products
        np.testing.assert_array_equal(P.to_physical(P.SpectralField(g, own), work=own).values,
                                      samples)

    @pytest.mark.parametrize("n, N", [(2, 16), (2, 64), (3, 16), (3, 32)])
    def test_radix2_step_agrees_with_the_hfft_reference_on_short_axes(self, n, N):
        # the grid takes the step only from 129 points; the product is the same at any N,
        # and an odd n ends its alternation of buffers in out as an even n does
        x = np.random.default_rng(910 + N).standard_normal((N // 2 + 1,) * n)
        out, work = np.empty_like(x), np.empty_like(x)
        got = _dct1(x, cosine_halves(N), out, work)
        assert got is out
        expect = dct1_hfft(x)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
        np.testing.assert_array_equal(_dct1(x, cosine_halves(N)), got)
        own = x.copy()
        np.testing.assert_array_equal(_dct1(own, cosine_halves(N), work=own), got)


class TestEvenLayout:
    """The solve loop's mirror-even layout against the full box it stands for."""

    @pytest.fixture(params=[2, 3], ids=["2d", "3d"])
    def even_noise(self, request):
        # white noise mirrored to the full box: every even mode is populated
        n = request.param
        g = P.make_grid(n, 16.0, 64 if n == 2 else 32)
        half = dataclasses.replace(g, even=True)
        rng = np.random.default_rng(800 + n)
        return unfold_even(P.RealField(half, rng.standard_normal(half.shape)), g)

    @pytest.mark.parametrize("n, N", [(2, 64), (3, 32)])
    def test_gaussian_is_exactly_mirror_even_for_any_L(self, n, N):
        # h = 10.3 / N is not dyadic: offsets taken as h i - h N/2 broke the symmetry
        g = P.make_grid(n, 10.3, N)
        v = P.gaussian_field(g, 1.0).values
        assert np.array_equal(v, reflection(v))
        assert fold_even(P.gaussian_field(g, 1.0)) is not None

    @pytest.mark.parametrize("n, N", [(2, 64), (3, 32)])
    def test_even_layout_tables_are_the_folded_full_ones(self, n, N):
        # a cold start's Gaussian is built on the even layout: the same bits as the fold
        g = P.make_grid(n, 10.3, N)
        even = shared_grid(n, g.L, N, True)
        assert np.array_equal(even.offsets(), np.arange(N // 2 + 1))
        assert np.array_equal(g.offsets(), np.arange(N) - N // 2)
        for full, half in [(g.radius_sq(), even.radius_sq()),
                           (P.gaussian_field(g, 1.3).values, P.gaussian_field(even, 1.3).values)]:
            assert np.array_equal(fold_even(P.RealField(g, full)).values, half)

    def test_boundary_ratio_reads_the_seam_on_either_layout(self, even_noise):
        # the seam is the offset-N/2 faces: index 0 on the full box, -1 on the even layout
        g, v = even_noise.grid, even_noise.values
        odd = P.RealField(g, np.random.default_rng(5).standard_normal(g.shape))
        for f in (even_noise, odd):
            a = np.abs(f.values)
            seam = max(float(np.max(np.take(a, 0, axis=ax))) for ax in range(g.n))
            assert boundary_max_ratio(f) == seam / float(np.max(a))
        assert boundary_max_ratio(fold_even(even_noise)) == boundary_max_ratio(even_noise)
        peaked = v.copy()
        peaked[(0,) * g.n] = -10.0 * np.max(np.abs(v))  # the seam holds the largest |v|
        assert boundary_max_ratio(P.RealField(g, peaked)) == 1.0
        assert boundary_max_ratio(P.RealField(g, np.zeros(g.shape))) == 0.0

    def test_boundary_ratio_forms_no_field_sized_copy(self, grid):
        f = P.RealField(grid, np.random.default_rng(6).standard_normal(grid.shape))
        _, peak = peak_fields(grid, boundary_max_ratio, f)
        assert peak < 0.1  # measured 0.008 (2D, N = 256); 1.01 while it formed |f|

    def test_fold_needs_exact_evenness(self, even_noise):
        g, v = even_noise.grid, even_noise.values
        assert np.array_equal(v, reflection(v))
        assert fold_even(P.RealField(g, np.roll(v, 1, axis=0))) is None
        nudged = v.copy()
        nudged[(1,) * g.n] = np.nextafter(nudged[(1,) * g.n], np.inf)
        assert fold_even(P.RealField(g, nudged)) is None

    def test_unfold_inverts_fold(self, even_noise):
        folded = fold_even(even_noise)
        g = even_noise.grid
        assert folded.grid.even and folded.grid != g and folded.grid.shape == (g.N // 2 + 1,) * g.n
        back = unfold_even(folded, g)
        assert back.grid == g and np.array_equal(back.values, even_noise.values)

    def test_folds_share_one_layout_per_box(self, even_noise):
        g = even_noise.grid
        mirrored = P.RealField(P.make_grid(g.n, g.L, g.N), 2.0 * even_noise.values)
        assert fold_even(mirrored).grid is fold_even(even_noise).grid

    def test_symbol_table_is_the_full_table_at_nonnegative_frequencies(self, even_noise):
        g = even_noise.grid
        params = P.PhysParams(m=1.0, mu=1.0, c=2.0, p=2.5, n=g.n)
        full = P.relativistic_multiplier(g, params).table
        even = P.relativistic_multiplier(dataclasses.replace(g, even=True), params).table
        assert np.array_equal(even, full[(slice(g.N // 2 + 1),) * g.n])

    @pytest.mark.parametrize("weight", ["one", "h1"])
    def test_sums_match_the_full_box(self, even_noise, weight):
        g = even_noise.grid
        folded = fold_even(even_noise)
        weight_of = {"one": lambda xi_sq: None, "h1": lambda xi_sq: 1.0 + xi_sq}[weight]
        got = P.weighted_power(folded, weight_of(folded.grid.xi_sq))
        assert got == pytest.approx(P.weighted_power(even_noise, weight_of(g.xi_sq)), rel=1e-13)
        v = even_noise.values
        assert (sample_dot(folded.grid, folded.values, folded.values)
                == pytest.approx(g.cell_volume * np.sum(v * v), rel=1e-13))
        assert P.norm_l2(folded) == pytest.approx(P.norm_l2(even_noise), rel=1e-13)
        assert sample_dot(g, v, v) == g.cell_volume * np.einsum("i,i->", v.ravel(), v.ravel())

    def test_coefficients_are_the_full_ones_about_the_center(self, even_noise):
        # about index N/2 the full coefficients carry the sign (-1)^(k_1 + ... + k_n)
        g = even_noise.grid
        keep = (slice(g.N // 2 + 1),) * g.n
        k = sum(np.arange(g.N // 2 + 1).reshape([-1 if b == a else 1 for b in range(g.n)])
                for a in range(g.n))
        full = P.to_spectral(even_noise).coeffs[keep] * (-1.0) ** k
        even = P.to_spectral(fold_even(even_noise)).coeffs
        assert even.dtype == np.float64
        np.testing.assert_allclose(even, full.real, rtol=0, atol=1e-13 * np.max(np.abs(full)))

    def test_roundtrip_into_buffers(self, even_noise):
        folded = fold_even(even_noise)
        g = folded.grid
        F = P.to_spectral(folded, out=np.empty(g.spectral_shape))
        back = P.to_physical(F, out=np.empty(g.shape))
        assert np.max(np.abs(back.values - folded.values)) <= 1e-14 * np.max(np.abs(folded.values))

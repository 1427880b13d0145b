"""Periodic-box discretization, spectral transforms, and the norms used everywhere else.

The continuum problem lives on R^n; here it is truncated to a periodic box
[0, L)^n sampled on N points per axis.  All operators downstream are diagonal
in the discrete Fourier basis, so the box + FFT combination gives spectral
accuracy as long as the fields decay well inside the box (checked, with a
warning otherwise).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi
#: 1/sqrt(2), the factor _parseval_root puts on the two ends of a Parseval-weighted axis
ROOT_HALF = math.sqrt(0.5)

#: fields whose boundary values exceed this fraction of their maximum trigger
#: a truncation warning
BOUNDARY_DECAY_TOL = 1e-10


class BoundaryDecayWarning(UserWarning):
    """The box is too small for the field to decay below tolerance at the seam."""


@dataclass(frozen=True)
class PhysParams:
    """Model parameters: mass m, frequency shift mu, light speed c, power p, dimension n.

    The admissible range is m, mu > 0, c >= 1, 2 < p < 2n/(n-1) and mu <= m*c^2.
    c = inf is allowed and selects the nonrelativistic regime exactly.
    """

    m: float
    mu: float
    c: float
    p: float
    n: int

    def __post_init__(self):
        if not (self.m > 0.0 and math.isfinite(self.m)):
            raise ValueError("m must be positive and finite")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")
        if not self.c >= 1.0:
            raise ValueError("c must be >= 1")
        if self.n < 2 or int(self.n) != self.n:
            raise ValueError("n must be an integer >= 2")
        p_max = 2.0 * self.n / (self.n - 1.0)
        if not (2.0 < self.p < p_max):
            raise ValueError(f"p must lie in (2, {p_max}) for n = {self.n}")
        # mu <= m c^2 keeps the shifted kinetic symbol plus mu comparable to the
        # free one; equality (e.g. m = mu = c = 1) is fine since the discrete
        # quadratic form only needs mu > 0.
        if self.mu > self.m * self.c * self.c:  # c**2 raises OverflowError above ~1.3e154
            raise ValueError("mu must not exceed m*c^2")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^n with N points (a power of two) per axis.

    xi_sq holds |xi|^2 on the half spectrum of real-to-complex transforms
    (spectral_shape).  Grids compare and hash by (n, L, N, even).

    even is the solve loop's layout of a field mirror-even about the center
    (fold_even): N/2 + 1 samples per axis at offsets 0..N/2, a real spectrum at
    xi = 2 pi k / L, k = 0..N/2, and cosine, the matrices of one axis's DCT-I,
    C[k, j] = w_j cos(pi jk / (N/2)), w = (1, 2, ..., 2, 1), with C C = N I: C itself,
    stored column-major so that C^T is row-major for the last axis's product, on axes
    of fewer than RADIX2_MIN_POINTS points, and on longer ones the pair (E, O) of C's
    even rows and odd rows after one radix-2 step (_dct1); None on the full box.
    Each entry of an even-layout axis stands for w of the box's points, so its sums
    weigh every axis by w (parseval_axes).  The transforms, sums, symbol tables,
    offsets and seam follow it; axis_coordinates and center_coordinate do not.
    """

    n: int
    L: float
    N: int
    even: bool = False
    h: float = field(init=False, repr=False, compare=False)
    xi_sq: np.ndarray = field(init=False, repr=False, compare=False)
    cosine: np.ndarray | tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("n must be 2 or 3")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError("L must be positive and finite")
        if self.N < 16 or (self.N & (self.N - 1)) != 0:
            raise ValueError("N must be a power of two >= 16")
        object.__setattr__(self, "h", self.L / self.N)
        freqs = TWO_PI * np.fft.fftfreq(self.N, d=self.h)
        half = TWO_PI * np.fft.rfftfreq(self.N, d=self.h)
        axes = [half] * self.n if self.even else [freqs] * (self.n - 1) + [half]
        object.__setattr__(self, "xi_sq", sum_of_squares(axes))
        if self.even:
            split = self.N // 2 + 1 >= RADIX2_MIN_POINTS
            C = cosine_halves(self.N) if split else np.asfortranarray(cosine_matrix(self.N))
            object.__setattr__(self, "cosine", C)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N // 2 + 1 if self.even else self.N,) * self.n

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of the half spectrum: the last axis (each, if even) keeps N//2 + 1 frequencies."""
        return self.shape if self.even else (self.N,) * (self.n - 1) + (self.N // 2 + 1,)

    @property
    def cell_volume(self) -> float:
        """Quadrature weight h^n for physical-space integrals."""
        return self.h**self.n

    @property
    def spectral_weight(self) -> float:
        """Quadrature weight (2*pi/L)^n for Fourier-space integrals."""
        return (TWO_PI / self.L) ** self.n

    @property
    def fourier_scale(self) -> float:
        """Scale turning the raw DFT into the continuum-normalized transform."""
        return self.h**self.n * (TWO_PI) ** (-self.n / 2.0)

    @property
    def transform_gain(self) -> int:
        """g with _inverse(_forward(x)) == g x: N^n on the even layout, whose DCT-I is
        its own inverse up to N per axis, and 1 on the full box, whose irfftn divides."""
        return self.N**self.n if self.even else 1

    @property
    def parseval_axes(self) -> tuple[int, ...]:
        """Axes whose half-spectrum sums weigh inner entries 2 and the two ends 1: every
        axis on the even layout (its samples weigh so too), the last on the full box."""
        return tuple(range(self.n)) if self.even else (self.n - 1,)

    @property
    def root_dot_weight(self) -> float:
        """c with h^n sum over the box of a * b == c Re sum(conj(A) B), for A and B the
        unnormalized spectra (_forward) of a and b in Parseval-root form
        (_parseval_root): 2^k h^n / N^n, k the number of parseval_axes."""
        return 2.0 ** len(self.parseval_axes) * self.cell_volume / self.N**self.n

    @property
    def center_coordinate(self) -> float:
        return self.h * (self.N // 2)

    def axis_coordinates(self) -> np.ndarray:
        return self.h * np.arange(self.N)

    def offsets(self) -> np.ndarray:
        """One axis's sample offsets from the box center, in cells: -N/2..N/2-1 on the
        full box, 0..N/2 on the even layout."""
        return np.arange(self.N // 2 + 1) if self.even else np.arange(self.N) - self.N // 2

    def radius_sq(self) -> np.ndarray:
        """Squared distance of every sample from the box center; h (i - N/2) is exactly
        antisymmetric for every h, so the even layout's are the full box's, bit for bit."""
        return sum_of_squares([self.h * self.offsets()] * self.n)


#: axis length (N/2 + 1 points) from which the even layout's DCT-I takes one radix-2
#: step before its products; shorter axes keep the single product, measured faster
#: there (_dct1)
RADIX2_MIN_POINTS = 129


def cosine_matrix(N: int) -> np.ndarray:
    """The (N/2+1)-square DCT-I C[k, j] = w_j cos(pi jk / (N/2)), w = (1, 2, ..., 2, 1)."""
    edge = np.r_[1.0, np.full(N // 2 - 1, 2.0), 1.0]
    jk = np.outer(*[np.arange(N // 2 + 1)] * 2) % N  # argument < 2 pi
    return edge * np.cos(TWO_PI / N * jk)


def cosine_halves(N: int) -> tuple[np.ndarray, np.ndarray]:
    """cosine_matrix(N)'s rows split by parity, each folded onto half the samples:
    E = cosine_matrix(N / 2), the (N/4+1)-square even rows, and the (N/4)-square odd
    rows O[q, j] = w_j cos(pi j (2q + 1) / (N/2)), w = (1, 2, ..., 2)."""
    K = N // 2
    edge = np.r_[1.0, np.full(K // 2 - 1, 2.0)]
    jq = np.outer(np.arange(1, K, 2), np.arange(K // 2)) % N  # argument < 2 pi
    return cosine_matrix(K), edge * np.cos(TWO_PI / N * jq)


def sum_of_squares(axes) -> np.ndarray:
    """sum_a x_a^2 on the lattice of the 1D coordinate vectors axes (axis a runs along
    axes[a]), summed in axis order by broadcasting: one full-size array, not one per axis."""
    total = 0
    for a, x in enumerate(axes):
        total = total + (x * x).reshape([-1 if b == a else 1 for b in range(len(axes))])
    return total


#: shared_grid(n, L, N, even=False): one Grid per box and layout, shared by all its users
shared_grid = lru_cache(maxsize=8)(Grid)


def make_grid(n: int, L: float, N: int) -> Grid:
    """Build a periodic grid; rejects n outside {2, 3} and non-power-of-two N."""
    return Grid(n=n, L=float(L), N=int(N))


@dataclass(frozen=True, eq=False)
class RealField:
    """Real samples of a function on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Continuum-normalized Fourier coefficients of a real field on the half spectrum.

    The modes with a negative last-axis frequency are the complex conjugates
    of stored ones and are left out (real-to-complex layout, spectral_shape).
    In the even layout they are real: the field's, about the box center.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64 if self.grid.even else np.complex128)
        if c.shape != self.grid.spectral_shape:
            raise ValueError(f"coeffs shape {c.shape} does not match the half spectrum "
                             f"{self.grid.spectral_shape}")
        object.__setattr__(self, "coeffs", c)


def to_spectral(f: RealField, out: np.ndarray | None = None) -> SpectralField:
    """Forward real-to-complex transform, normalized so that the discrete Parseval identity

        norm_l2(f)**2 == weighted_power(to_spectral(f))

    holds exactly (up to roundoff).  out, an array of spectral_shape, receives
    the coefficients in place of a new array."""
    coeffs = _forward(f.values, f.grid, out)
    coeffs *= f.grid.fourier_scale
    return SpectralField(f.grid, coeffs)


def to_physical(F: SpectralField, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> RealField:
    """Inverse complex-to-real transform back to real samples; out, a real array of
    the grid's shape, receives them, and work, an array of spectral_shape (complex
    on the full box, real on the even layout) whose contents are overwritten, holds
    the partial transforms, each in place of a new array (_inverse)."""
    values = _inverse(F.coeffs, F.grid, out, work)
    values /= F.grid.fourier_scale * F.grid.transform_gain
    return RealField(F.grid, values)


def _forward(x: np.ndarray, grid: Grid, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """The unnormalized forward transform of samples x on grid into out (allocated
    when None): a DCT-I per axis on the even layout (_dct1), whose partial products
    go to work as in _inverse (x itself when x is free), rfftn on the full box, which
    takes no work.  to_spectral scales it by fourier_scale; the solve loop calls it on
    its own buffers."""
    if grid.even:
        return _dct1(x, grid.cosine, out, work)
    return np.fft.rfftn(x, out=out)


def _inverse(X: np.ndarray, grid: Grid, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """The unnormalized inverse of _forward, times grid.transform_gain, from the half
    spectrum X into out; work, an array of spectral_shape whose contents are
    overwritten, holds the partial transforms.  Each is allocated when None; X is
    only read, unless it is work.

    On the full box the leading axes are inverted one at a time into work, in
    irfftn's own order, and the last axis by irfft into out: the same steps irfftn
    takes, so the same bits, without its complex temporary per leading axis."""
    if grid.even:
        return _dct1(X, grid.cosine, out, work)
    if work is None:
        work = np.empty(grid.spectral_shape, dtype=np.complex128)
    src = X
    for axis in range(grid.n - 1):
        np.fft.ifftn(src, axes=(axis,), out=work)
        src = work
    return np.fft.irfft(work, n=grid.N, axis=-1, out=out)


def _parseval_root(F: np.ndarray, grid: Grid, factor: float = ROOT_HALF) -> np.ndarray:
    """F, a half spectrum on grid, with the zero- and Nyquist-frequency ends of each of
    grid.parseval_axes multiplied by factor in place.

    Sums weigh the inner entries of such an axis 2 and its two ends 1, so after the
    default 1/sqrt(2) every weighted sum over the half spectrum is 2^k times a plain
    one (k weighted axes; Grid.root_dot_weight), as after 1/2 on one operand
    (_weighted_dot).  A factor of sqrt(2) undoes 1/sqrt(2), up to roundoff.  Each end
    is its own slice: one slice taking both, with a step of N/2, took 14.5 against
    5.2 us on the last axis at 33^3 (inner loops of 2 entries; one core, numpy 2.4.6)."""
    for axis in grid.parseval_axes:
        lead = (slice(None),) * axis
        F[lead + (0,)] *= factor
        F[lead + (-1,)] *= factor
    return F


def _dct1(x: np.ndarray, C: np.ndarray | tuple[np.ndarray, np.ndarray],
          out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """DCT-I on every axis into out, with work (real, or a complex array's real part)
    for the partial products; each is allocated when None.  work may be x itself: for
    an odd n it then takes the products, and for an even n, whose first axis writes
    work while x is still read, a new array takes them.

    C is the grid's cosine: a matrix or a pair.  A matrix, stored column-major, is
    applied as one GEMM per axis, into work and out in turn: each leading axis by
    the last, then the last axis as x C^T into out, a plain batched product as C^T is
    row-major (as C x with a transposed operand and output it took 90 us at 33^3,
    twice a leading axis's 48 us, and the transform 189 us in place of 140).  A pair
    (E, O) takes one radix-2 step on each axis first (_dct1_radix2): (N/4+1)^2 +
    (N/4)^2 multiply-adds per column in place of (N/2+1)^2.  Per transform, with one
    BLAS thread (2 cores, numpy 2.4.6), the step took 133 against 195 us at 129^2 (2D,
    N = 256) and 0.87 against 1.34 ms at 257^2, and lost at 65^2 (44 against 23 us),
    33^3 (260 against 140 us) and 65^3 (3.5 against 2.2 ms): hence RADIX2_MIN_POINTS.
    OpenBLAS gives the same bits under one and two threads at every size here but
    257^2, whose 129-square products it threads.
    """
    out = np.empty_like(x) if out is None else out
    last = x.ndim - 1
    if work is None or (last % 2 == 1 and np.may_share_memory(x, work)):
        work = np.empty_like(x)
    work = work.real
    if isinstance(C, tuple):
        return _dct1_radix2(x, *C, out, work)
    for axis in range(last):  # GEMM rows: that axis; columns: the last
        y = out if (last - axis) % 2 == 0 else work
        x = np.matmul(C, x, out=y, axes=[(0, 1), (axis, -1), (axis, -1)])
    return np.matmul(x, C.T, out=out)  # C.T row-major: one plain batched product


def _dct1_radix2(x: np.ndarray, E: np.ndarray, O: np.ndarray, out: np.ndarray,
                 work: np.ndarray) -> np.ndarray:
    """_dct1 with one radix-2 step per axis.  With K = N/2 and the samples x_0..x_K of
    an axis, y_(2q) = E s and y_(2q+1) = O d for s_j = x_j + x_(K-j), j <= K/2, and
    d_j = x_j - x_(K-j), j < K/2, since cos(pi (K - j) k / K) = (-1)^k cos(pi jk / K).

    Each axis in turn is copied to the front as x_0..x_(K/2), x_K..x_(K/2+1), so that
    the butterfly, which stacks s over d, reads forward slices; the two products then
    write the even and odd rows of the other buffer, row-strided views that BLAS takes
    as they are (interleaving along the last, contiguous axis would not be).  Moving
    the last axis to the front each time restores the axis order after n steps; the
    writes alternate between out and work and end in out."""
    h, K = O.shape[0], 2 * O.shape[0]
    a, b = (work, out) if x.ndim % 2 == 0 else (out, work)
    last_first = (x.ndim - 1, *range(x.ndim - 1))  # numpy 2.4's moveaxis leaks ~100 B a call
    for _ in range(x.ndim):
        moved = x.transpose(last_first)
        np.copyto(a[:h + 1], moved[:h + 1])
        np.copyto(a[h + 1:], moved[K:h:-1])
        np.add(a[:h], a[h + 1:], out=b[:h])
        np.add(a[h], a[h], out=b[h])
        np.subtract(a[:h], a[h + 1:], out=b[h + 1:])
        # each operand as a matrix, its leading axis by the others: a view, as a
        # leading-axis slice keeps its trailing axes evenly strided
        np.matmul(E, b[:h + 1].reshape(h + 1, -1), out=a[0::2].reshape(h + 1, -1))
        np.matmul(O, b[h + 1:].reshape(h, -1), out=a[1::2].reshape(h, -1))
        x, a, b = a, b, a
    return x


def fold_even(f: RealField) -> RealField | None:
    """f on the even layout of its grid, when f is exactly mirror-even about index N/2
    on every axis (u[N/2 + j] == u[N/2 - j]); None otherwise."""
    v, N, half = f.values, f.grid.N, f.grid.N // 2
    for axis in range(f.grid.n):
        lead = (slice(None),) * axis
        if not np.array_equal(v[lead + (slice(1, half),)], v[lead + (slice(N - 1, half, -1),)]):
            return None
    layout = shared_grid(f.grid.n, f.grid.L, N, True)
    return RealField(layout, v[(slice(half, None, -1),) * f.grid.n].copy())


def norm_l2(f: RealField) -> float:
    return math.sqrt(sample_dot(f.grid, f.values, f.values))


def _re_dot(a: np.ndarray, b: np.ndarray) -> np.float64:
    """Re sum(conj(a) * b) for real or complex arrays, in one pass over their float64 views.

    einsum rather than a BLAS dot: a threaded BLAS dot spins a second core for no
    gain at these sizes, and its last bits change with the number of threads.
    """
    x, y = (np.ascontiguousarray(v).view(np.float64).ravel() for v in (a, b))
    return np.einsum("i,i->", x, y)


def _weighted_dot(grid: Grid, wa: np.ndarray, b: np.ndarray) -> np.float64:
    """Re sum(w conj(wa) b), w = (1, 2, ..., 2, 1) on each of grid.parseval_axes multiplied
    out, to the bit: wa's axis ends halved in place, times 2^k (exact) in a plain dot."""
    return 2.0 ** len(grid.parseval_axes) * _re_dot(_parseval_root(wa, grid, 0.5), b)


def sample_dot(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.float64:
    """h^n * sum over the box of a * b, samples in grid's layout (a may be b; neither
    changes): every physical-space integral, as weighted_power is every spectral one."""
    return grid.cell_volume * (_weighted_dot(grid, a.copy(), b) if grid.even else _re_dot(a, b))


def weighted_power(f: RealField | SpectralField, weight=None) -> float:
    """(2*pi/L)^n * sum(weight * |f_hat|^2) over the full lattice, weight 1 if omitted:
    every Sobolev norm and quadratic form.  f is a spectrum at hand, or real samples
    transformed first; weight is a real table on the half spectrum.

    Each entry of the half spectrum stands for the modes it holds on the full lattice:
    along each of grid.parseval_axes, 2 on the inner entries and 1 on the two ends
    (on the full box, inner columns also stand for their conjugate partners).  The sum
    is one dot product, Re <weight * f_hat, f_hat> with those weights (_weighted_dot).
    """
    F = (f if isinstance(f, SpectralField) else to_spectral(f)).coeffs
    wF = F.copy() if weight is None else weight * F
    return float(f.grid.spectral_weight * _weighted_dot(f.grid, wF, F))


def norm_h1(f: RealField | SpectralField) -> float:
    """Sobolev norm with weight (1 + |xi|^2) on the spectral side."""
    return math.sqrt(weighted_power(f, 1.0 + f.grid.xi_sq))


def norm_hhalf(f: RealField | SpectralField) -> float:
    """Sobolev norm with weight sqrt(1 + |xi|^2) on the spectral side."""
    return math.sqrt(weighted_power(f, np.sqrt(1.0 + f.grid.xi_sq)))


def grad_norm_sq(f: RealField | SpectralField) -> float:
    """|| grad f ||_{L2}^2 evaluated spectrally (weight |xi|^2)."""
    return weighted_power(f, f.grid.xi_sq)


def derivative_freqs(grid: Grid, axis: int) -> np.ndarray:
    """Angular frequencies of one axis of the half spectrum, shaped to broadcast along it.

    The last axis holds only the nonnegative frequencies.  The Nyquist entry has
    no well-defined odd derivative on a real grid; the standard convention zeroes it.
    """
    last = axis == grid.n - 1
    kd = TWO_PI * (np.fft.rfftfreq if last else np.fft.fftfreq)(grid.N, d=grid.h)
    kd[grid.N // 2] = 0.0
    shape = [1] * grid.n
    shape[axis] = kd.size
    return kd.reshape(shape)


def gaussian_field(grid: Grid, width: float = 1.0) -> RealField:
    """Centered Gaussian exp(-r^2 / (2 width^2)), on either layout."""
    if width <= 0:
        raise ValueError("width must be positive")
    return RealField(grid, np.exp(-grid.radius_sq() / (2.0 * width * width)))


def _max_abs(v: np.ndarray) -> float:
    return max(float(np.max(v)), -float(np.min(v)))  # max |v| without forming |v|


def boundary_max_ratio(f: RealField) -> float:
    """max |f| over the periodic seam, the faces at offset N/2 (index 0 on the full box,
    -1 on the even layout), relative to max |f|."""
    peak = _max_abs(f.values)
    if peak == 0.0:
        return 0.0
    seam = -1 if f.grid.even else 0
    return max(_max_abs(np.take(f.values, seam, axis=ax)) for ax in range(f.grid.n)) / peak


def warn_if_poorly_truncated(f: RealField) -> float:
    ratio = boundary_max_ratio(f)
    if ratio > BOUNDARY_DECAY_TOL:
        warnings.warn(
            f"field boundary values are {ratio:.2e} of the maximum; "
            "increase L for the stated accuracy",
            BoundaryDecayWarning,
            stacklevel=2,
        )
    return ratio

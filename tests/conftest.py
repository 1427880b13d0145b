import math
import time
import tracemalloc

import numpy as np
import pytest

import prnls as P
from prnls.snapshot import params_from_header
from prnls.sweep import RunConfig, run_sweep

DEFAULTS = dict(m=1.0, mu=1.0, p=3.0, n=2)


def interpolate_to(f, N_new):
    """Spectral (zero-padding) interpolation onto a finer grid with N_new points per axis.

    The coarse Nyquist modes are dropped. Coefficient values are N-independent in
    this normalization, so padding is an exact embedding for band-limited fields.
    A field on the even layout is unfolded first.
    """
    f = full_box(f)
    g = f.grid
    if N_new < g.N:
        raise ValueError("N_new must not be smaller than the source N")
    fine = P.make_grid(g.n, g.L, N_new)
    half = g.N // 2
    low = np.arange(half)
    high = np.arange(half + 1, g.N)  # negative frequencies, Nyquist left out
    src = [np.concatenate([low, high])] * (g.n - 1) + [low]
    dst = [np.concatenate([low, high + (N_new - g.N)])] * (g.n - 1) + [low]
    padded = np.zeros(fine.spectral_shape, dtype=np.complex128)
    padded[np.ix_(*dst)] = P.to_spectral(f).coeffs[np.ix_(*src)]
    return P.to_physical(P.SpectralField(fine, padded))


def unfold_even(f, grid):
    """The field on grid, the full box of f's even layout, whose nonnegative offsets f holds."""
    offset = np.abs(np.arange(grid.N) - grid.N // 2)
    return P.RealField(grid, f.values[np.ix_(*[offset] * grid.n)])


def full_box(f):
    """f on the full box of its grid: unfolded when f is on the even layout."""
    g = f.grid
    return unfold_even(f, P.make_grid(g.n, g.L, g.N)) if g.even else f


def peak_fields(grid, fn, *args, **kwargs):
    """(fn(*args, **kwargs), the call's tracemalloc peak in real fields of grid).

    A field is 8 N^n bytes.  Only what the call allocates counts: its inputs,
    built before it, sit below the peak.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / (8 * grid.N**grid.n)


def even_bump(grid, seed):
    """A positive random bump mirrored about the box center: exactly mirror-even, not radial."""
    half = P.make_grid(grid.n, grid.L, grid.N, True)
    noise = 1.0 + np.abs(np.random.default_rng(seed).standard_normal(half.shape))
    mirrored = unfold_even(P.RealField(half, noise), grid).values
    return P.RealField(grid, mirrored * P.gaussian_field(grid, grid.L / 8.0).values)


@pytest.fixture(scope="session")
def grid():
    return P.make_grid(2, 32.0, 256)


@pytest.fixture(scope="session")
def make_params():
    def _make(c=1.0, **over):
        kw = dict(DEFAULTS)
        kw.update(over)
        return P.PhysParams(c=c, **kw)
    return _make


@pytest.fixture(scope="session")
def params_inf(make_params):
    return make_params(c=math.inf)


@pytest.fixture(scope="session")
def limit_mult(grid, params_inf):
    return P.limit_multiplier(grid, params_inf)


@pytest.fixture(scope="session")
def sweep_dir(tmp_path_factory):
    """Where the default sweep writes its table and snapshots."""
    return tmp_path_factory.mktemp("default_sweep")


@pytest.fixture(scope="session")
def sweep_outcome(sweep_dir):
    """Full default sweep, computed once; (result, wall time in seconds, the
    BoundaryDecayWarnings of its seven states, the limit state's first)."""
    t0 = time.perf_counter()
    with pytest.warns(P.model.BoundaryDecayWarning) as flagged:
        result = run_sweep(RunConfig(output_dir=str(sweep_dir)))
    return result, time.perf_counter() - t0, flagged.list


@pytest.fixture(scope="session")
def sweep_result(sweep_outcome):
    return sweep_outcome[0]


@pytest.fixture(scope="session")
def limit_state(sweep_result):
    return sweep_result.limit_state


@pytest.fixture(scope="session")
def sweep_field(sweep_outcome, sweep_dir):
    """sweep_field(c): the default sweep's state at c, read back from its snapshot."""
    def _load(c):
        field, head = P.load_field(sweep_dir / f"state_c{c:g}.f64")
        assert params_from_header(head).c == c
        return field
    return _load


@pytest.fixture(scope="session")
def state_c1(sweep_field):
    """The default sweep's c = 1 field."""
    return sweep_field(1.0)


@pytest.fixture(scope="session")
def oracle_profile(params_inf):
    return P.ground_profile(params_inf)


@pytest.fixture(scope="session")
def asym_state(grid, params_inf):
    """Converged limit state started from a 5%-asymmetric initial guess."""
    import numpy as np

    base = P.gaussian_field(grid, 2.0)
    x = grid.axis_coordinates() - grid.center_coordinate
    skew = (1.0 + 0.05 * np.sin(2 * np.pi * (x[:, None] + 0.37) / grid.L)
            + 0.05 * x[:, None] * x[None, :] / grid.L**2)
    init = P.RealField(grid, base.values * skew)
    with pytest.warns(P.model.BoundaryDecayWarning):  # as the limit state's 2.8e-10
        return P.solve_ground_state(params_inf, grid, P.SolverConfig(init_field=init))

"""Pseudo-spectral ground states of the pseudo-relativistic nonlinear
Schrodinger equation, their nonrelativistic limit, and the verification
harness around both."""

from .model import (
    Grid,
    PhysParams,
    RealField,
    SpectralField,
    gaussian_field,
    grad_norm_sq,
    make_grid,
    norm_h1,
    norm_hhalf,
    norm_l2,
    to_physical,
    to_spectral,
    weighted_power,
)
from .radial_oracle import (
    RadialProfile,
    compare_profiles,
    find_ground_u0,
    ground_profile,
    profile_to_field,
    shoot,
)
from .extension import neumann_consistency
from .snapshot import load_field, save_field
from .solver import (
    BlowUpError,
    GroundState,
    SolverConfig,
    center,
    h1_distance,
    radial_scatter,
    solve_ground_state,
)
from .sweep import (
    RunConfig,
    SweepRecord,
    SweepResult,
    check_uniform_bounds,
    emit,
    run_sweep,
)
from .symbol import (
    Multiplier,
    eval_relativistic_symbol,
    limit_multiplier,
    multiplier_convergence_test,
    relativistic_multiplier,
    sandwich_holds,
    symbol_gap,
    symbol_gap_bound,
)
from .variational import (
    EnergyReport,
    energy,
    nehari_project,
)

__version__ = "0.1.0"

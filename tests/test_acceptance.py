"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines inline.
All tolerances are fixed: the state and lattice checks take the CLI's
constants from prnls.cli, the others are written here.  The shared sweep
fixture uses the default configuration n=2, m=mu=1, p=3, L=32, N=256,
c in {1,2,4,8,16,32}.
"""

import math

import numpy as np
import pytest

import prnls as P
from prnls.cli import (
    IDENTITY_REL_TOL,
    J_REL_TOL,
    LATTICE_TOL,
    POSITIVITY_TOL,
    SCATTER_TOL,
    format_figure,
)
from prnls.extension import lattice_mode_energies, lattice_perturbation_surplus
from prnls.sweep import RunConfig, check_uniform_bounds, records_to_csv, run_sweep


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_nonrelativistic_limit(sweep_outcome, limit_state):
    result, duration, _ = sweep_outcome
    errs = [r.err_h1 for r in result.records]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    h1_limit = P.norm_h1(limit_state.field)
    final_small = errs[-1] <= 1e-2 * h1_limit
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
    tail_ratios = ratios[-2:]  # c = 8 -> 16 and 16 -> 32
    rate_ok = all(0.2 <= q <= 0.35 for q in tail_ratios)
    fast = duration <= 300.0
    _verdict(1, "nonrelativistic-limit",
             decreasing and final_small and rate_ok and fast,
             f"errs={['%.3e' % e for e in errs]}, tail ratios={['%.3f' % q for q in tail_ratios]}, "
             f"err/||u_inf||_H1={errs[-1] / h1_limit:.2e}, {duration:.1f}s")


def test_criterion_02_nehari_energy_identity(sweep_result):
    worst_j, worst_gap = 0.0, 0.0
    for rep in sweep_result.reports:
        worst_j = max(worst_j, abs(rep.J) / rep.Q)
        worst_gap = max(worst_gap, rep.identity_gap / abs(rep.I))
    ok = worst_j <= J_REL_TOL and worst_gap <= IDENTITY_REL_TOL
    _verdict(2, "nehari-energy-identity", ok,
             f"max |J|/Q={format_figure(worst_j)}, max identity gap={format_figure(worst_gap)}")


def test_criterion_03_uniform_lp_bounds(sweep_result):
    lps = [r.lp for r in sweep_result.records]
    ratio = max(lps) / min(lps)
    hh_limit = sweep_result.limit_record.hhalf
    hh_ok = all(r.hhalf <= 2.0 * hh_limit for r in sweep_result.records)
    ok = ratio <= 2.0 and hh_ok
    _verdict(3, "uniform-Lp-bounds", ok,
             f"lp max/min={ratio:.4f}, max hhalf/limit={max(r.hhalf for r in sweep_result.records) / hh_limit:.4f}")


def test_criterion_04_h1_bound(sweep_result):
    params = sweep_result.limit_state.params
    bounds = check_uniform_bounds(sweep_result.all_records(), params.m, params.mu)
    # slack relative to 2m ||u||_p^p; a row that did not converge has none and fails
    rel = {c: r for c, _, r in bounds.slacks}
    lim_rel, rel32 = rel.get(math.inf, math.nan), rel.get(32.0, math.nan)
    lim_ok = abs(lim_rel) <= 1e-6
    c32_ok = rel32 >= -0.05
    _verdict(4, "H1-bound", lim_ok and c32_ok,
             f"limit slack rel={format_figure(lim_rel)}, c=32 slack rel={rel32:.2e}")


def test_criterion_05_trace_inequality(grid, make_params):
    deltas = np.logspace(-6.0, 3.0, 19)
    worst_gap = 0.0
    strict = True
    for c in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        pp = make_params(c=c)
        ext, trace = lattice_mode_energies(grid, pp)
        worst_gap = max(worst_gap, float(np.max(np.abs(ext - trace) / trace)))
        for d in deltas:
            surplus = lattice_perturbation_surplus(grid, float(d), pp)
            strict &= bool(np.all(ext + surplus > ext))
    ok = worst_gap <= LATTICE_TOL and strict
    _verdict(5, "trace-inequality", ok,
             f"max equality gap={worst_gap:.2e}, strict competitors={strict}")


def test_criterion_06_symbol_sandwich(grid, make_params):
    ok = all(P.sandwich_holds(grid.xi_sq, make_params(c=c))
             for c in (1.0, 10.0, 1e4, 1e8))
    _verdict(6, "symbol-sandwich", ok, "exact on the full lattice, c in {1,10,1e4,1e8}")


def test_criterion_07_symbol_convergence(grid, params_inf):
    phi = P.gaussian_field(grid, 1.0)
    es = P.multiplier_convergence_test(phi, [1, 2, 4, 8, 16, 32], params_inf)
    decreasing = all(b < a for a, b in zip(es, es[1:]))
    tail_ratios = [es[-2] / es[-3], es[-1] / es[-2]]  # from c = 8 upward
    rate_ok = all(0.2 <= q <= 0.3 for q in tail_ratios)
    _verdict(7, "symbol-convergence", decreasing and rate_ok,
             f"ratios={['%.4f' % q for q in tail_ratios]}")


def test_criterion_08_oracle_equivalence(limit_state, oracle_profile):
    mismatch = P.compare_profiles(limit_state, oracle_profile)
    profile_ok = mismatch <= 1e-3

    closure = []
    for m2, mu2 in ((2.0, 2.0), (1.0, 4.0)):
        pp2 = P.PhysParams(m=m2, mu=mu2, c=math.inf, p=3.0, n=2)
        prof2 = P.ground_profile(pp2)
        alpha = mu2  # mu^{1/(p-2)} with p = 3
        half = len(prof2.values) // 2
        mapped = alpha * oracle_profile.values[::2][: half + 1]
        closure.append(float(np.max(np.abs(mapped - prof2.values[: half + 1])) / prof2.u0))
    closure_ok = all(cl <= 1e-6 for cl in closure)
    _verdict(8, "oracle-equivalence", profile_ok and closure_ok,
             f"sup mismatch={mismatch:.2e}, scaling closures={['%.1e' % cl for cl in closure]}")


def test_criterion_09_sign_and_symmetry(sweep_result, asym_state):
    rows = sweep_result.all_records()
    pos_ok = all(r.min_over_max >= -POSITIVITY_TOL for r in rows)
    worst_scatter = max(r.radial_scatter for r in rows)
    scat_ok = worst_scatter <= SCATTER_TOL
    recovery = P.radial_scatter(asym_state.field)
    rec_ok = asym_state.converged and recovery <= 1e-3
    _verdict(9, "sign-and-symmetry", pos_ok and scat_ok and rec_ok,
             f"max scatter={worst_scatter:.2e}, asym recovery scatter={recovery:.2e}")


def test_criterion_10_determinism(sweep_result):
    with pytest.warns(P.model.BoundaryDecayWarning):  # the seven of sweep_outcome
        rerun = run_sweep(RunConfig())
    a = records_to_csv(sweep_result.all_records())
    b = records_to_csv(rerun.all_records())
    _verdict(10, "determinism", a == b,
             f"byte-identical CSV over {len(rerun.all_records())} rows")

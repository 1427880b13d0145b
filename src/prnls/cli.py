"""Command-line front end.

Commands (all take an optional --config JSON file, see README for the keys):

    solve --c <real|inf>   compute one ground state (inf selects the limit state)
    sweep                  run the full c-sweep and its checks
    extension-check        per-mode trace-identity and competitor checks
    oracle                 radial shooting profile of the limit state

Exit status is 0 only when every check of the invoked command passes.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .extension import (
    lattice_mode_energies,
    lattice_perturbation_surplus,
    neumann_consistency,
)
from .model import RealField, make_grid
from .radial_oracle import ground_profile
from .snapshot import csv_text, write_text
from .solver import BlowUpError, solve_ground_state
from .sweep import (
    RunConfig,
    check_uniform_bounds,
    load_run_config,
    make_record,
    run_sweep,
    save_state,
)

# The check tolerances, shared with the acceptance suite.
J_REL_TOL = 1e-8          # |J| / Q at a computed state
IDENTITY_REL_TOL = 1e-8   # |I - (1/2 - 1/p) ||u||_p^p| / |I|
POSITIVITY_TOL = 1e-10    # -min u / max u
SCATTER_TOL = 1e-6        # radial_scatter
LATTICE_TOL = 1e-12       # per-mode extension identities and Neumann consistency
DECAY_TOL = 1e-8          # oracle tail u(r_max) / u(0)
ROUNDOFF_LEVEL = 1e-12    # figures below it are round-off and print as "<1e-12"


def format_figure(x: float, spec: str = ".2e") -> str:
    """x in the given format, or <1e-12 for a figure at round-off level, whose
    digits move with summation order."""
    return f"<{ROUNDOFF_LEVEL:g}" if abs(x) < ROUNDOFF_LEVEL else format(x, spec)


def _load_config(path: str | None) -> RunConfig:
    return load_run_config(path) if path else RunConfig()


def _state_checks(record, report) -> list[tuple[str, bool]]:
    """The per-state checks: the record's verdicts, and the report's Nehari identity J = 0."""
    nonzero = report.Q > 0.0  # a collapsed state meets J = 0 vacuously
    return [
        ("converged", record.converged),
        ("nehari-zero", nonzero and abs(report.J) <= J_REL_TOL * report.Q
         and 0.5 * abs(report.J) <= IDENTITY_REL_TOL * abs(report.I)),  # the energy identity
        ("positivity", record.min_over_max >= -POSITIVITY_TOL),
        ("radial-symmetry", record.radial_scatter <= SCATTER_TOL),
    ]


def _report_checks(label: str, checks) -> bool:
    ok = all(flag for _, flag in checks)
    for name, flag in checks:
        print(f"  [{'ok' if flag else 'FAIL'}] {label}: {name}")
    return ok


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    params = cfg.params_at(float(args.c))
    c = params.c
    grid = make_grid(cfg.n, cfg.L, cfg.N)
    gs = solve_ground_state(params, grid, cfg.solver)
    r = gs.report
    print(f"c = {c:g}: I = {r.I:.12g}, |u|_p^p = {r.lp:.12g}, "
          f"residual = {r.residual:.3e}, iterations = {gs.iterations}")
    if cfg.output_dir:
        snap, side = save_state(cfg.output_dir, gs)
        print(f"wrote {snap} and {side}")
    return 0 if _report_checks(f"c={c:g}", _state_checks(make_record(c, gs, gs.field), r)) else 1


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    result = run_sweep(cfg)
    rows = result.all_records()
    print("c, I, |u|_p^p, err_H1, residual, iterations")
    for r in rows:
        print(f"  {r.c:g}, {r.I:.9g}, {r.lp:.9g}, {r.err_h1:.6e}, "
              f"{r.residual:.3e}, {r.iterations}")
    ok = True
    for rec, report in zip(rows, result.reports):
        ok &= _report_checks(f"c={rec.c:g}", _state_checks(rec, report))

    errs = [r.err_h1 for r in result.records]
    if any(b >= a for a, b in zip(errs, errs[1:])):
        print("  [finding] err(c) is not strictly decreasing along the schedule")
    final_is_min = errs[-1] == min(errs)
    print(f"  [{'ok' if final_is_min else 'FAIL'}] err at the largest c is the minimum")
    ok &= final_is_min

    try:
        bounds = check_uniform_bounds(rows, cfg.m, cfg.mu)
    except ValueError as exc:  # too few converged rows: a failed check, not a bad config
        print(f"  [FAIL] uniform bounds: {exc}")
        return 1
    print(f"  L^p ratio max/min = {bounds.lp_ratio:.6g}, sup I = {bounds.sup_energy:.9g}")
    for c, slack, rel in bounds.slacks:
        print(f"  slack(c={c:g}) = {format_figure(slack, '.6e')} "
              f"({format_figure(rel, '+.3e')} relative)")
    return 0 if ok else 1


def cmd_extension_check(args) -> int:
    cfg = _load_config(args.config)
    grid = make_grid(cfg.n, cfg.L, cfg.N)
    deltas = np.logspace(-6.0, 3.0, 19)
    ok = True
    c = cfg.c_schedule[-1]  # the largest; the mode energies add up 2 (c^2 |xi|^2 + (m c^2)^2)
    top = c * c * float(np.max(grid.xi_sq)) + (cfg.m * c * c) * (cfg.m * c * c)
    if not math.isfinite(2.0 * top):
        raise ValueError(f"c_schedule value {c:g} is too large: the mode energies overflow float64")
    probe = RealField(grid, np.random.default_rng(0).standard_normal(grid.shape))
    for i, c in enumerate(cfg.c_schedule):
        params = cfg.params_at(c)
        ext, trace = lattice_mode_energies(grid, params)
        rel_gap = np.abs(ext - trace) / trace
        equality = bool(np.max(rel_gap) <= LATTICE_TOL)
        strict = all(bool(np.all(lattice_perturbation_surplus(grid, d, params) > 0.0))
                     for d in deltas)
        neumann = neumann_consistency(probe, params)
        print(f"  c = {c:g}: max equality gap {np.max(rel_gap):.3e}, "
              f"neumann gap {neumann:.3e}, strict competitors: {strict}")
        ok &= equality and strict and neumann <= LATTICE_TOL
        if i == 0 and cfg.output_dir:
            # one row per half-spectrum mode: the others are conjugates with equal values
            cols = [np.asarray(a).ravel().tolist() for a in (grid.xi_sq, ext, trace, rel_gap)]
            text = csv_text(("index", "xi_sq", "extension_energy", "trace_form", "rel_gap"),
                            zip(range(len(cols[0])), *cols))
            print(f"wrote {write_text(Path(cfg.output_dir) / f'extension_c{c:g}.csv', text)}")
    print(f"  [{'ok' if ok else 'FAIL'}] extension checks")
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    cfg = _load_config(args.config)
    prof = ground_profile(cfg.params_at(math.inf))
    print(f"ground amplitude u(0) = {prof.u0:.12g} ({prof.shots} shots)")
    monotone = bool(np.all(np.diff(prof.values) < 0.0))
    positive = bool(np.all(prof.values > 0.0))
    tail = float(prof.values[-1] / prof.u0)
    print(f"  tail value u(r_max)/u(0) = {tail:.3e}")
    out = Path(cfg.output_dir) if cfg.output_dir else Path(".")
    text = csv_text(("r", "u"), zip(prof.radii().tolist(), prof.values.tolist()))
    print(f"wrote {write_text(out / 'oracle_profile.csv', text)}")
    ok = monotone and positive and tail <= DECAY_TOL
    print(f"  [{'ok' if ok else 'FAIL'}] profile positive, decreasing, decayed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="prnls", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute one ground state")
    p_solve.add_argument("--c", required=True, help="light speed (a real >= 1, or 'inf')")
    p_solve.add_argument("--config", help="JSON configuration file")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run the c-sweep experiment")
    p_sweep.add_argument("--config", help="JSON configuration file")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ext = sub.add_parser("extension-check", help="per-mode extension identities")
    p_ext.add_argument("--config", help="JSON configuration file")
    p_ext.set_defaults(func=cmd_extension_check)

    p_orc = sub.add_parser("oracle", help="radial shooting profile of the limit state")
    p_orc.add_argument("--config", help="JSON configuration file")
    p_orc.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BlowUpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, BlowUpError) else 2  # a diverged solve is a failed run


if __name__ == "__main__":
    sys.exit(main())

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
from .solver import radial_scatter, solve_ground_state
from .sweep import (
    RunConfig,
    _write_atomic,
    check_uniform_bounds,
    load_run_config,
    run_sweep,
    save_state,
)
from .symbol import limit_multiplier, relativistic_multiplier

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


def _state_checks(gs) -> list[tuple[str, bool]]:
    r = gs.report
    v = gs.field.values
    peak = float(np.max(v))
    checks = [
        ("converged", gs.converged),
        ("nehari-zero", abs(r.J) <= J_REL_TOL * abs(r.Q)),
        ("energy-identity", r.identity_gap <= IDENTITY_REL_TOL * abs(r.I)),
        ("positivity", peak > 0.0 and float(np.min(v)) >= -POSITIVITY_TOL * peak),
        ("radial-symmetry", radial_scatter(gs.field) <= SCATTER_TOL),
    ]
    return checks


def _report_checks(label: str, checks) -> bool:
    ok = all(flag for _, flag in checks)
    for name, flag in checks:
        print(f"  [{'ok' if flag else 'FAIL'}] {label}: {name}")
    return ok


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    c = float(args.c)
    grid = make_grid(cfg.n, cfg.L, cfg.N)
    if math.isinf(c):
        params = cfg.limit_params
        mult = limit_multiplier(grid, params)
    else:
        params = cfg.params_at(c)
        mult = relativistic_multiplier(grid, params)
    gs = solve_ground_state(params, grid, mult, cfg.solver)
    r = gs.report
    print(f"c = {c:g}: I = {r.I:.12g}, |u|_p^p = {r.lp:.12g}, "
          f"residual = {r.residual:.3e}, iterations = {gs.iterations}")
    if cfg.output_dir:
        snap, side = save_state(cfg.output_dir, gs, c)
        print(f"wrote {snap} and {side}")
    return 0 if _report_checks(f"c={c:g}", _state_checks(gs)) else 1


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    result = run_sweep(cfg)
    rows = result.all_records()
    print("c, I, |u|_p^p, err_H1, residual, iterations")
    for r in rows:
        print(f"  {r.c:g}, {r.I:.9g}, {r.lp:.9g}, {r.err_h1:.6e}, "
              f"{r.residual:.3e}, {r.iterations}")
    ok = True
    for rec, gs in zip(result.records, result.states):
        ok &= _report_checks(f"c={rec.c:g}", _state_checks(gs))
    ok &= _report_checks("c=inf", _state_checks(result.limit_state))

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
    for i, c in enumerate(cfg.c_schedule):
        params = cfg.params_at(c)
        ext, trace = lattice_mode_energies(grid, params)
        rel_gap = np.abs(ext - trace) / trace
        equality = bool(np.max(rel_gap) <= LATTICE_TOL)
        strict = all(bool(np.all(lattice_perturbation_surplus(grid, d, params) > 0.0))
                     for d in deltas)
        rng = np.random.default_rng(0)
        probe = RealField(grid, rng.standard_normal(grid.shape))
        neumann = neumann_consistency(probe, params)
        print(f"  c = {c:g}: max equality gap {np.max(rel_gap):.3e}, "
              f"neumann gap {neumann:.3e}, strict competitors: {strict}")
        ok &= equality and strict and neumann <= LATTICE_TOL
        if i == 0 and cfg.output_dir:
            out = Path(cfg.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            # one row per half-spectrum mode: the others are conjugates with equal values
            lines = ["index,xi_sq,extension_energy,trace_form,rel_gap"]
            xi = grid.xi_sq.ravel()
            e = np.asarray(ext).ravel()
            t = np.asarray(trace).ravel()
            g = rel_gap.ravel()
            for j in range(xi.size):
                lines.append(f"{j},{xi[j]!r},{e[j]!r},{t[j]!r},{g[j]!r}")
            path = _write_atomic(out / f"extension_c{c:g}.csv", "\n".join(lines) + "\n")
            print(f"wrote {path}")
    print(f"  [{'ok' if ok else 'FAIL'}] extension checks")
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    cfg = _load_config(args.config)
    params = cfg.limit_params
    prof = ground_profile(params)
    print(f"ground amplitude u(0) = {prof.u0:.12g} ({prof.shots} shots)")
    monotone = bool(np.all(np.diff(prof.values) < 0.0))
    positive = bool(np.all(prof.values > 0.0))
    tail = float(prof.values[-1] / prof.u0)
    print(f"  tail value u(r_max)/u(0) = {tail:.3e}")
    out = Path(cfg.output_dir) if cfg.output_dir else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    r = prof.radii()
    lines = ["r,u"] + [f"{r[i]!r},{prof.values[i]!r}" for i in range(len(r))]
    path = _write_atomic(out / "oracle_profile.csv", "\n".join(lines) + "\n")
    print(f"wrote {path}")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

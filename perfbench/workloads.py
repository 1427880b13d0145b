"""The three benchmark workloads: their pinned inputs, one pass each, and its checks.

Every setting is written out here instead of taken from ``RunConfig()``
defaults, so moving a package default cannot change a workload unnoticed.
Each pass counts its operations (one per solve, per certified state, per
check) and fails an operation on a converged=False solve or on a result that
differs from the stored seed-0 reference at the CLI's printed precision.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
from pathlib import Path

import numpy as np

import prnls.cli as cli
import prnls.extension as extension
import prnls.radial_oracle as radial_oracle
import prnls.snapshot as snapshot
import prnls.solver as solver
import prnls.sweep as sweep
import prnls.symbol as symbol
import prnls.variational as variational
from prnls.model import PhysParams, RealField, make_grid

SOLVER = {"tol_residual": 1e-9, "max_iter": 10000, "gamma": None,
          "init_width": 2.0, "fallback_step": 0.5}
CONFIG_2D = {"params": {"m": 1.0, "mu": 1.0, "p": 3.0, "n": 2},
             "grid": {"L": 32.0, "N": 256},
             "c_schedule": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
             "solver": SOLVER}
CONFIG_3D = {"params": {"m": 1.0, "mu": 1.0, "p": 2.5, "n": 3},
             "grid": {"L": 32.0, "N": 64},
             "c_schedule": [1.0, 4.0],
             "solver": SOLVER}
SMOKE_N = 32

#: seed-0 results as `prnls sweep` prints them: c -> (I, |u|_p^p, err_H1, iterations)
REFERENCE_2D = {
    "1": ("2.39305249", "14.3583149", "3.826281e+00", 93),
    "2": ("3.3683669", "20.2102014", "1.263696e+00", 60),
    "4": ("3.73411597", "22.4046958", "3.512518e-01", 48),
    "8": ("3.83890238", "23.0334143", "9.117036e-02", 43),
    "16": ("3.86619222", "23.1971533", "2.304560e-02", 39),
    "32": ("3.87309029", "23.2385418", "5.778203e-03", 36),
    "inf": ("3.87539658", "23.2523795", "0.000000e+00", 49),
}
#: the c = 1 solve stops after 120 iterations at residual 2.2e-8 > 1e-9, so it
#: is a failed operation and its values carry no reference
REFERENCE_3D = {
    "1": (None, None, None, 120),
    "4": ("27.7678393", "277.678393", "8.681057e-01", 73),
    "inf": ("28.8014577", "288.014577", "0.000000e+00", 72),
}
#: shooting amplitudes u(0) as `prnls oracle` prints them, per (m, mu)
REFERENCE_U0 = {(1.0, 1.0): "2.39195640322", (2.0, 2.0): "4.783912807",
                (1.0, 4.0): "9.56782561403"}
SIG_DIGITS = (9, 9, 7)  # {:.9g}, {:.9g}, {:.6e}

# acceptance tolerances, as in the CLI and the acceptance suite
J_REL_TOL = IDENTITY_REL_TOL = NEHARI_SCALE_TOL = 1e-8
POSITIVITY_TOL = 1e-10
SCATTER_TOL = 1e-6
ORACLE_TOL = 1e-3
CLOSURE_TOL = 1e-6
LATTICE_TOL = 1e-12
SANDWICH_C = (1.0, 10.0, 1e4, 1e8)
DELTAS = np.logspace(-6.0, 3.0, 19)


@dataclasses.dataclass
class Row:
    """One solve as the CLI reports it."""

    label: str
    I: float
    lp: float
    err_h1: float
    iterations: int
    converged: bool


@dataclasses.dataclass
class Outcome:
    """What one pass did and how its checks came out."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = dataclasses.field(default_factory=list)

    def op(self, ok: bool, what: str, wrong: bool = True) -> None:
        """Count one operation; a failure that is a wrong answer also marks the run incorrect."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if wrong:
                self.wrong.append(what)


def matches(value: float, printed: str, sig: int) -> bool:
    """value agrees with a printed reference to within one unit of its last digit."""
    ref = float(printed)
    if ref == 0.0:
        return value == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - (sig - 1))
    return abs(value - ref) <= unit * (1.0 + 1e-9)


def check_rows(out: Outcome, rows: list[Row], reference: dict, check_values: bool,
               check_iterations: bool) -> None:
    """One operation per reference solve: converged, values and (seed 0) iterations."""
    by_label = {r.label: r for r in rows}
    for label, (*printed, iterations) in reference.items():
        row = by_label.get(label)
        if row is None:
            out.op(False, f"c={label}: missing row")
            continue
        wrong = check_values and row.converged and not all(
            p is None or matches(v, p, s)
            for v, p, s in zip((row.I, row.lp, row.err_h1), printed, SIG_DIGITS))
        drift = check_iterations and row.iterations != iterations
        out.op(row.converged and not wrong and not drift, f"c={label}: values", wrong=wrong)


def _row(r: sweep.SweepRecord) -> Row:
    return Row(f"{r.c:g}", r.I, r.lp, r.err_h1, r.iterations, r.converged)


def _run_config(raw: dict, N: int, output_dir: Path, init_width: float | None = None):
    raw = json.loads(json.dumps(raw))
    raw["grid"]["N"] = N
    if init_width is not None:
        raw["solver"]["init_width"] = init_width
    raw["output_dir"] = str(output_dir)
    return raw


def _write_config(raw: dict, path: Path) -> Path:
    path.write_text(json.dumps(raw, indent=2) + "\n", encoding="ascii")
    return path


class Workload:
    """Pinned configuration; ``smoke`` shrinks the grid to N = 32 and drops reference values."""

    name: str
    config: dict

    def __init__(self, smoke: bool):
        self.N = SMOKE_N if smoke else self.config["grid"]["N"]
        self.check_values = not smoke


class Sweep2D(Workload):
    """`prnls sweep` through prnls.cli.main on the paper's 2D configuration."""

    name = "sweep-2d"
    config = CONFIG_2D

    def setup(self, seed: int, tmp: Path):
        width = None if seed == 0 else float(np.random.default_rng(seed).uniform(1.5, 2.5))
        raw = _run_config(self.config, self.N, tmp / "out", width)
        return {"config": _write_config(raw, tmp / "config.json"), "seed": seed}

    def run_pass(self, st) -> Outcome:
        out = Outcome()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["sweep", "--config", str(st["config"])])
        out.op(code == 0, f"prnls sweep exit code {code}")
        check_rows(out, parse_cli_sweep(buf.getvalue()), REFERENCE_2D, self.check_values,
                   self.check_values and st["seed"] == 0)
        return out


ROW_RE = re.compile(r"^\s+(\S+), (\S+), (\S+), (\S+), \S+, (\d+)$")
CONVERGED_RE = re.compile(r"\[(ok|FAIL)\] c=(\S+): converged$")


def parse_cli_sweep(text: str) -> list[Row]:
    """Rows of the table `prnls sweep` prints, with the converged flags of its check lines."""
    flags = {m.group(2): m.group(1) == "ok"
             for m in map(CONVERGED_RE.search, text.splitlines()) if m}
    rows = []
    for line in text.splitlines():
        m = ROW_RE.match(line)
        if m:
            label = m.group(1)
            rows.append(Row(label, float(m.group(2)), float(m.group(3)), float(m.group(4)),
                            int(m.group(5)), flags.get(label, False)))
    return rows


class Sweep3D(Workload):
    """run_sweep on the 3D configuration (the CLI would stop at its uniform-bound check)."""

    name = "sweep-3d"
    config = CONFIG_3D

    def setup(self, seed: int, tmp: Path):
        raw = _run_config(self.config, self.N, tmp / "out")
        cfg = sweep.run_config_from_dict(raw)
        if seed != 0:
            init = perturbed_gaussian(make_grid(cfg.n, cfg.L, cfg.N), SOLVER["init_width"], seed)
            cfg = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, init_field=init))
        return {"cfg": cfg, "seed": seed}

    def run_pass(self, st) -> Outcome:
        out = Outcome()
        result = sweep.run_sweep(st["cfg"])
        check_rows(out, [_row(r) for r in result.all_records()], REFERENCE_3D,
                   self.check_values, self.check_values and st["seed"] == 0)
        return out


def perturbed_gaussian(grid, width: float, seed: int) -> RealField:
    """Gaussian times 1 + 0.05 g, g a random sum of cosine modes even about the box center.

    The perturbation is even so that the start stays centered: an off-center
    5% start makes the 3D limit state miss its tolerance and the c = 1 solve
    run to max_iter.
    """
    rng = np.random.default_rng(seed)
    d = 2.0 * math.pi * (grid.axis_coordinates() - grid.center_coordinate) / grid.L
    g = np.zeros(grid.shape)
    for _ in range(6):
        k = rng.integers(0, 3, size=grid.n)
        term = rng.uniform(-1.0, 1.0)
        for axis in range(grid.n):
            shape = [1] * grid.n
            shape[axis] = grid.N
            term = term * np.cos(k[axis] * d).reshape(shape)
        g = g + term
    g /= np.max(np.abs(g))
    base = np.exp(-grid.radius_sq() / (2.0 * width * width))
    return RealField(grid, base * (1.0 + 0.05 * g))


class Certify2D(Workload):
    """No solving: certify the seven sweep-2d snapshots written during set-up."""

    name = "certify-2d"
    config = CONFIG_2D

    def setup(self, seed: int, tmp: Path):
        raw = _run_config(self.config, self.N, tmp / "snapshots")
        cfg = sweep.run_config_from_dict(raw)
        sweep.run_sweep(cfg)
        grid = make_grid(cfg.n, cfg.L, cfg.N)
        probe = RealField(grid, np.random.default_rng(seed).standard_normal(grid.shape))
        return {"cfg": cfg, "snapshots": tmp / "snapshots", "neumann_probe": probe, "tmp": tmp}

    def run_pass(self, st) -> Outcome:
        out = Outcome()
        cfg, snaps = st["cfg"], st["snapshots"]
        labels = [f"{c:g}" for c in cfg.c_schedule] + ["inf"]
        loaded = {}
        for label in labels:
            field, head = snapshot.load_field(snaps / f"state_c{label}.f64")
            side = json.loads((snaps / f"state_c{label}.json").read_text(encoding="ascii"))
            loaded[label] = (field, snapshot.params_from_header(head), side)
        limit_field = loaded["inf"][0]
        states, records = [], []
        for label in labels:
            field, params, side = loaded[label]
            grid = field.grid
            mult = (symbol.limit_multiplier(grid, params) if math.isinf(params.c)
                    else symbol.relativistic_multiplier(grid, params))
            rep = variational.energy(field, mult, params)
            t_star, _ = variational.nehari_project(field, mult, params)
            gs = solver.GroundState(field=field, report=rep, iterations=side["iterations"],
                                    converged=side["converged"], params=params)
            rec = sweep.make_record(params.c, gs, limit_field)
            out.op(abs(rep.J) <= J_REL_TOL * abs(rep.Q)
                   and rep.identity_gap <= IDENTITY_REL_TOL * abs(rep.I)
                   and abs(t_star - 1.0) <= NEHARI_SCALE_TOL
                   and rec.min_over_max >= -POSITIVITY_TOL
                   and rec.radial_scatter <= SCATTER_TOL, f"c={label}: state checks")
            states.append(gs)
            records.append(rec)
        check_rows(out, [_row(r) for r in records], REFERENCE_2D, self.check_values,
                   self.check_values)
        table = st["tmp"] / "table"
        table.mkdir(exist_ok=True)
        (csv,) = sweep.emit(records, table, formats=("csv",))
        out.op(csv.read_bytes() == (snaps / "sweep.csv").read_bytes(),
               "recomputed table differs from sweep.csv")
        check_oracle(out, states[-1], self.check_values)
        extension_checks(out, limit_field.grid, [cfg.params_at(c) for c in cfg.c_schedule],
                         st["neumann_probe"])
        for c in SANDWICH_C:
            out.op(symbol.sandwich_holds(limit_field.grid.xi_sq, cfg.params_at(c)),
                   f"symbol sandwich at c={c:g}")
        return out


def check_oracle(out: Outcome, limit_state, check_values: bool) -> None:
    """Shooting oracle at (m, mu) = (1,1), (2,2), (1,4): agreement and scaling closure."""
    p, n = limit_state.params.p, limit_state.params.n
    profiles = {}
    for m, mu in REFERENCE_U0:
        prof = radial_oracle.ground_profile(PhysParams(m=m, mu=mu, c=math.inf, p=p, n=n))
        out.op(not check_values or matches(prof.u0, REFERENCE_U0[m, mu], 12),
               f"oracle u(0) at (m, mu) = ({m:g}, {mu:g})")
        profiles[m, mu] = prof
    base = profiles[1.0, 1.0]
    out.op(radial_oracle.compare_profiles(limit_state, base) <= ORACLE_TOL,
           "limit state differs from the oracle profile")
    for key in ((2.0, 2.0), (1.0, 4.0)):
        prof = profiles[key]
        half = len(prof.values) // 2
        mapped = key[1] * base.values[::2][: half + 1]  # mu^{1/(p-2)} U(2x) for p = 3
        closure = float(np.max(np.abs(mapped - prof.values[: half + 1]))) / prof.u0
        out.op(closure <= CLOSURE_TOL, f"scaling closure at {key}")


def extension_checks(out: Outcome, grid, schedule_params, neumann_probe: RealField) -> None:
    """Per-mode trace equality, strict competitors and Neumann consistency per scheduled c."""
    for params in schedule_params:
        ext, trace = extension.lattice_mode_energies(grid, params)
        gap = float(np.max(np.abs(ext - trace) / trace))
        strict = all(bool(np.all(extension.lattice_perturbation_surplus(grid, float(d), params) > 0.0))
                     for d in DELTAS)
        neumann = extension.neumann_consistency(neumann_probe, params)
        out.op(gap <= LATTICE_TOL and strict and neumann <= LATTICE_TOL,
               f"extension identities at c={params.c:g}")


WORKLOADS = {w.name: w for w in (Sweep2D, Sweep3D, Certify2D)}

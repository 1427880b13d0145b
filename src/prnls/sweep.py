"""Experiment driver: the light-speed sweep and its reports.

Runs the ground-state solve over an increasing schedule of c values plus the
limit state, warm-starting each solve from the previous one.  Each state is
recorded (H^1 distance to the limit state, norms, diagnostics) and written as
soon as it is solved, so no finite-c field outlives the next solve; the
convergence table and the uniform-bound diagnostics are built from the
records.  Output is plot-ready CSV/JSON plus raw field snapshots; identical
configurations produce byte-identical CSV.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import (PhysParams, RealField, checked_number, grad_norm_sq, make_grid, norm_hhalf,
                    norm_l2, to_spectral)
from .snapshot import _entry, csv_text, json_text, save_field, write_text
from .solver import GroundState, SolverConfig, h1_distance, radial_scatter, solve_ground_state
from .variational import EnergyReport


@dataclass(frozen=True)
class SweepRecord:
    """One row of the convergence table (c = inf for the limit state)."""

    c: float
    I: float
    lp: float
    l2_sq: float
    grad_sq: float
    hhalf: float
    err_h1: float
    residual: float
    iterations: int
    radial_scatter: float
    min_over_max: float
    converged: bool


RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(SweepRecord))


@dataclass(frozen=True)
class RunConfig:
    """Sweep configuration: physics (without c), grid, schedule, solver, output."""

    m: float = 1.0
    mu: float = 1.0
    p: float = 3.0
    n: int = 2
    L: float = 32.0
    N: int = 256
    c_schedule: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    solver: SolverConfig = field(default_factory=SolverConfig)
    output_dir: str | None = None

    def __post_init__(self):
        grid = make_grid(self.n, self.L, self.N)
        for name in ("n", "L", "N"):  # as the grid holds them: ints n and N, a float L
            object.__setattr__(self, name, getattr(grid, name))
        params = self.params_at(math.inf)
        for name in ("m", "mu", "p"):  # as PhysParams holds them: floats
            object.__setattr__(self, name, getattr(params, name))
        sched = tuple(checked_number(f"c_schedule entry {i}", c)
                      for i, c in enumerate(self.c_schedule))
        if not sched:
            raise ValueError("c_schedule must not be empty")
        if not all(math.isfinite(c) for c in sched):
            raise ValueError("c_schedule must be finite; the limit state c = inf is always solved")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("c_schedule must be strictly increasing")
        labels = [_label(c) for c in sched]
        clash = sorted({label for label in labels if labels.count(label) > 1})
        if clash:
            raise ValueError(f"c_schedule values share the snapshot labels {clash}; "
                             "they must differ in 6 significant digits")
        object.__setattr__(self, "c_schedule", sched)
        for c in sched:
            self.params_at(c)  # validates c >= 1 and mu <= m c^2

    def params_at(self, c: float) -> PhysParams:
        return PhysParams(m=self.m, mu=self.mu, c=c, p=self.p, n=self.n)


def _label(c: float) -> str:
    """Snapshot file label of a light speed: state_c<label>.f64."""
    return f"{c:g}"


#: the JSON kind (snapshot._entry) of every configuration key, by section
_CONFIG_KINDS = {
    "top-level": {"params": "object", "grid": "object", "solver": "object",
                  "c_schedule": "array", "output_dir": "string|null"},
    "params": dict.fromkeys(("m", "mu", "p", "n"), "number"),
    "grid": dict.fromkeys(("L", "N"), "number"),
    "solver": {f.name: "number|null" if f.name == "gamma" else "number"
               for f in dataclasses.fields(SolverConfig) if f.name != "init_field"},
}


def run_config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from the parsed configuration file.

    All keys are optional: a missing one keeps its RunConfig or SolverConfig
    default.  Unknown keys and values of the wrong JSON kind are rejected
    with a ValueError that names the key.
    """
    raw = _entry("the", {"configuration": raw}, "configuration", "object")
    for name, kinds in _CONFIG_KINDS.items():  # the top level first: its sections are objects
        section = raw if name == "top-level" else raw.get(name, {})
        unknown = set(section) - set(kinds)
        if unknown:
            raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
        for key in section:
            _entry(name, section, key, kinds[key])
    schedule = dict(enumerate(raw.get("c_schedule", [])))
    for i in schedule:
        _entry("c_schedule entry", schedule, i, "number")
    top = {k: raw[k] for k in ("c_schedule", "output_dir") if k in raw}
    return RunConfig(**raw.get("params", {}), **raw.get("grid", {}), **top,
                     solver=SolverConfig(**raw.get("solver", {})))


def load_run_config(path: str | Path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return run_config_from_dict(json.load(fh))


@dataclass(frozen=True)
class SweepResult:
    records: tuple[SweepRecord, ...]       # one per c, schedule order
    limit_record: SweepRecord
    reports: tuple[EnergyReport, ...]      # one per row of all_records(), the limit last
    limit_state: GroundState               # the err_H1 reference

    def all_records(self) -> tuple[SweepRecord, ...]:
        return self.records + (self.limit_record,)


def make_record(c: float, gs: GroundState, reference: RealField) -> SweepRecord:
    """gs's row, on the layout of gs's state, which reference must share."""
    u = gs.field
    v = u.values
    peak = float(np.max(v))
    F = to_spectral(u)
    grad_sq, hhalf = grad_norm_sq(F), norm_hhalf(F)
    del F  # released before the steps below allocate their own field-sized arrays
    return SweepRecord(
        c=float(c),
        I=float(gs.report.I),
        lp=float(gs.report.lp),
        l2_sq=float(norm_l2(u) ** 2),
        grad_sq=grad_sq,
        hhalf=hhalf,
        err_h1=float(h1_distance(u, reference)),
        residual=float(gs.report.residual),
        iterations=int(gs.iterations),
        radial_scatter=float(radial_scatter(u)),
        min_over_max=float(np.min(v) / peak) if peak > 0.0 else -math.inf,
        converged=bool(gs.converged),
    )


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Solve the limit state, then every c in the schedule (warm-started).

    Each state is recorded against the limit state, and snapshotted when
    cfg.output_dir is set, as soon as it is solved; the sweep holds only the
    limit state and the warm start.  Non-converged solves flag their row and
    the sweep continues.  The table (sweep.csv, sweep.json) is written last,
    and an earlier run's table in cfg.output_dir is deleted before the first
    solve: a sweep that raises part-way (BlowUpError) leaves the snapshots of
    the states it solved and no table, so a directory that holds a table holds
    a finished run.
    """
    out = None if cfg.output_dir is None else Path(cfg.output_dir)
    if out is not None:
        for fmt in ("csv", "json"):
            (out / f"sweep.{fmt}").unlink(missing_ok=True)
    grid = make_grid(cfg.n, cfg.L, cfg.N)
    limit_gs = solve_ground_state(cfg.params_at(math.inf), grid, cfg.solver)
    limit_record = make_record(math.inf, limit_gs, limit_gs.field)
    if out is not None:
        save_state(out, limit_gs)
    records, reports = [], []
    scfg = cfg.solver
    for c in cfg.c_schedule:
        gs = solve_ground_state(cfg.params_at(c), grid, scfg)
        records.append(make_record(c, gs, limit_gs.field))
        reports.append(gs.report)
        if out is not None:
            save_state(out, gs)
        scfg = dataclasses.replace(cfg.solver, init_field=gs.field)  # warm start
    result = SweepResult(records=tuple(records), limit_record=limit_record,
                         reports=(*reports, limit_gs.report), limit_state=limit_gs)
    if out is not None:
        emit(result.all_records(), out)
    return result


def save_state(out_dir: str | Path, gs: GroundState) -> tuple[Path, Path]:
    """Snapshot file plus a JSON side-car with the scalar diagnostics, labelled by gs's c."""
    out = Path(out_dir)
    c = gs.params.c
    label = _label(c)
    snap = save_field(out / f"state_c{label}.f64", gs.field, gs.params)
    payload = {
        "c": float(c),
        "params": dataclasses.asdict(gs.params),
        "iterations": gs.iterations,
        "stop_reason": gs.stop_reason,
        "converged": gs.converged,
        "report": dataclasses.asdict(gs.report),
    }
    side = write_text(out / f"state_c{label}.json",
                      json_text(payload, indent=2, sort_keys=True) + "\n")
    return snap, side


@dataclass(frozen=True)
class BoundsReport:
    """Observed counterparts of the uniform estimates across the sweep."""

    lp_ratio: float
    sup_energy: float
    #: per row: (c, 2m*lp - (grad_sq + 2*m*mu*l2_sq), same over 2m*lp)
    slacks: tuple[tuple[float, float, float], ...]


def check_uniform_bounds(records, m: float, mu: float) -> BoundsReport:
    """Evaluate the sweep against the uniform L^p / H^1 estimates.

    Needs at least two converged finite-c rows.  The slack column is
    2m ||u||_p^p - (||grad u||^2 + 2 m mu ||u||^2); it vanishes identically at
    the limit state and stays within an O(c^-2) margin below zero at finite c.
    """
    rows = [r for r in records if r.converged]
    finite = [r for r in rows if math.isfinite(r.c)]
    if len(finite) < 2:
        raise ValueError("need at least two converged finite-c records")
    lp_vals = [r.lp for r in finite]
    slacks = []
    for r in rows:
        slack = 2.0 * m * r.lp - (r.grad_sq + 2.0 * m * mu * r.l2_sq)
        slacks.append((r.c, slack, slack / (2.0 * m * r.lp)))
    return BoundsReport(
        lp_ratio=max(lp_vals) / min(lp_vals),
        sup_energy=max(r.I for r in rows),
        slacks=tuple(slacks),
    )


def records_to_csv(records) -> str:
    return csv_text(RECORD_FIELDS, (dataclasses.astuple(r) for r in records))


def records_to_json(records) -> str:
    return json_text([dataclasses.asdict(r) for r in records], indent=2) + "\n"


def emit(records, out_dir: str | Path, formats=("csv", "json")) -> list[Path]:
    """Write the table in the requested formats; returns the paths written."""
    texts = {"csv": records_to_csv, "json": records_to_json}
    written = []
    for fmt in formats:
        if fmt not in texts:
            raise ValueError(f"unknown format {fmt!r}")
        written.append(write_text(Path(out_dir) / f"sweep.{fmt}", texts[fmt](records)))
    return written

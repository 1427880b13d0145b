"""Per-layer metrics from the spans of one traced pass.

Counts (transforms, iterations, shots, megabytes written) are per pass.
Times are medians over calls.  Every figure comes from what the pass itself
did: a layer the pass never calls reports 0.
"""

from __future__ import annotations

import statistics

from tracing import END, EXTRA, LAYER, LAYERS, NAME, PARENT, START, descendants_of, \
    durations, nesting_violations, self_times

PER_CALL_MS = {
    "model.to_spectral_ms": ("model.to_spectral",),
    "model.to_physical_ms": ("model.to_physical",),
    "symbol.multiplier_ms": ("symbol.relativistic_multiplier", "symbol.limit_multiplier"),
    "variational.clamped_power_ms": ("variational.clamped_power",),
    "variational.energy_ms": ("variational.energy",),
    "variational.nehari_project_ms": ("variational.nehari_project",),
    "solver.finalize_ms": ("solver._finalize",),
    "solver.radial_scatter_ms": ("solver.radial_scatter",),
    "radial_oracle.ms_per_shot": ("radial_oracle.shoot",),
    "sweep.make_record_ms": ("sweep.make_record",),
    "sweep.emit_ms": ("sweep.emit",),
    "snapshot.save_ms": ("snapshot.save_field",),
    "snapshot.load_ms": ("snapshot.load_field",),
}
#: self time of each layer as a share of the traced pass
SHARE = {f"self.{layer}": layer for layer in LAYERS}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _per_call_ms(spans, names) -> float:
    return 1e3 * _median([t for name in names for t in durations(spans, name)])


def _iteration_ms(spans) -> float:
    """Median time of one iteration of the solve loop.

    The loop of ``solve_ground_state`` runs inline, so an iteration is taken
    from the start of one loop-level ``clamped_power`` call to the start of
    the next within the same solve.
    """
    solves = {i for i, s in enumerate(spans) if s[NAME] == "solver.solve_ground_state"}
    starts: dict[int, list[float]] = {}
    for s in spans:
        if s[NAME] == "variational.clamped_power" and s[PARENT] in solves:
            starts.setdefault(s[PARENT], []).append(s[START])
    return 1e3 * _median([b - a for t in starts.values() for a, b in zip(t, t[1:])])


def _cli_overhead(spans) -> float:
    """Median over cli.main calls of their wall time minus their run_sweep time."""
    mains = {i: s[END] - s[START] for i, s in enumerate(spans) if s[NAME] == "cli.main"}
    for s in spans:
        if s[NAME] != "sweep.run_sweep":
            continue
        p = s[PARENT]
        while p >= 0 and p not in mains:
            p = spans[p][PARENT]
        if p >= 0:
            mains[p] -= s[END] - s[START]
    return _median(list(mains.values()))


def _top_level_total(spans, layer: str) -> float:
    """Inclusive time of the spans of one layer not nested in another span of that layer."""
    return sum(s[END] - s[START] for s in spans
               if s[LAYER] == layer and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer))


def pass_metrics(spans, start: float, end: float) -> dict:
    """Every per-layer metric of a traced pass that ran from ``start`` to ``end``."""
    pass_s = end - start
    fft = [s for s in spans if s[LAYER] == "fft"]
    solves = [s for s in spans if s[NAME] == "solver.solve_ground_state"]
    iterations = sum(s[EXTRA][0] for s in solves)
    solve_time = sum(s[END] - s[START] for s in solves)
    records, record_ffts = descendants_of(spans, "sweep.make_record", "fft")
    out = {name: _per_call_ms(spans, names) for name, names in PER_CALL_MS.items()}
    out.update({
        "model.fft_calls": len(fft),
        "model.fft_s": sum(s[END] - s[START] for s in fft),
        "model.fft_gb_computed": sum(s[EXTRA] for s in fft) / 1e9,
        "solver.iterations": iterations,
        "solver.solve_s": _median([s[END] - s[START] for s in solves]),
        "solver.ms_per_iter": (1e3 * (solve_time - sum(durations(spans, "solver._finalize")))
                               / iterations if iterations else 0.0),
        "solver.step_ms": _iteration_ms(spans),
        "solver.converged_ratio": (sum(s[EXTRA][1] for s in solves) / len(solves)
                                   if solves else 0.0),
        "radial_oracle.profile_s": _median(durations(spans, "radial_oracle.ground_profile")),
        "radial_oracle.shots": len(durations(spans, "radial_oracle.shoot")),
        "extension.lattice_s": _top_level_total(spans, "extension"),
        "sweep.make_record_fft_calls": record_ffts / records if records else 0.0,
        "snapshot.mb_written": sum(s[EXTRA] for s in spans
                                   if s[NAME] == "snapshot.save_field") / 1e6,
        "cli.overhead_s": _cli_overhead(spans),
    })
    selfs = self_times(spans, pass_s)
    out.update({metric: selfs[layer] / pass_s for metric, layer in SHARE.items()})
    out["trace.self_sum_ratio"] = sum(selfs.values()) / pass_s
    out["trace.nesting_violations"] = nesting_violations(spans, start, end)
    out["trace.spans"] = len(spans)
    out["trace.pass_s"] = pass_s
    return out

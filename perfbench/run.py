"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sweep-2d --seed 0 --seconds 25 --trace 0

Run from a checkout that holds ``src/prnls``: the package is imported from
that source tree, and the run exits with status 2 when it is missing.  Set-up
time is the median of at least fifteen fresh-interpreter imports plus the
median of five input preparations.  Passes then repeat, one after another from
a single caller, until they have taken ``--seconds`` in all; one import is
timed after each pass.  With ``--trace 1`` one more pass then runs under the
span tracer, and the per-layer metrics are printed instead of the end-to-end
ones; the spans are written to ``.perfbench/traces/``.  Metric names and units
come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORTS = 15
SETUPS = 5
SELF_SUM_TOL = 1e-9

# numpy's FFT is single-threaded; keep any threaded library on one core as well
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="N = 32 on every workload and no reference values (for the smoke test)")
    return ap.parse_args(argv)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing prnls from the checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import prnls"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # kilobytes on Linux


def measure(wl, args, tmp: Path) -> tuple[dict, list, list[str]]:
    """Set up, run passes for the time budget, and return (metrics, outcomes, notes)."""
    import layers
    from tracing import Tracer, wrapper_cost_s

    prepare_s = []
    st = None
    for i in range(SETUPS):
        where = tmp / f"setup{i}"
        where.mkdir()
        t0 = time.perf_counter()
        prepared = wl.setup(args.seed, where)
        prepare_s.append(time.perf_counter() - t0)
        st = st or prepared

    # import time drifts by tens of percent within seconds on a shared host, so
    # its samples are spread over the run: one after each pass, the rest at the end
    outcomes, untraced, imports = [], [], []
    while not untraced or sum(untraced) < args.seconds:
        t0 = time.perf_counter()
        outcomes.append(wl.run_pass(st))
        untraced.append(time.perf_counter() - t0)
        imports.append(import_seconds())
    imports += [import_seconds() for _ in range(IMPORTS - len(imports))]
    setup_s = statistics.median(imports) + statistics.median(prepare_s)
    wall = statistics.median(untraced)
    notes = [f"setup_s {setup_s:.4f} s: import median {statistics.median(imports):.4f} s "
             f"of {len(imports)}, preparation median {statistics.median(prepare_s):.4f} s "
             f"of {SETUPS}",
             f"{len(untraced)} untraced passes, wall_s median {wall:.4f} s, "
             f"min {min(untraced):.4f} s, max {max(untraced):.4f} s"]
    if not args.trace:
        metrics = {"setup_s": setup_s, "wall_s": wall,
                   "peak_rss_mb": peak_rss_mb()}
        return metrics, outcomes, notes

    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        outcomes.append(wl.run_pass(st))
        t1 = time.perf_counter()
    metrics = layers.pass_metrics(tracer.spans, t0, t1)
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{wl.name}-seed{args.seed}.json").write_text(json.dumps(tracer.dump()))
    metrics["trace.untraced_s"] = wall
    metrics["trace.overhead_s"] = len(tracer.spans) * wrapper_cost_s()
    notes.append(f"traced pass {t1 - t0:.4f} s, {t1 - t0 - wall:+.4f} s from the untraced median")
    if abs(metrics["trace.self_sum_ratio"] - 1.0) > SELF_SUM_TOL:
        outcomes[-1].wrong.append("per-layer self times do not sum to the traced pass time")
    if metrics["trace.nesting_violations"]:
        outcomes[-1].wrong.append("trace spans overlap or leave their parent")
    return metrics, outcomes, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "prnls" / "__init__.py").is_file():
        print(f"error: no prnls source tree at {ROOT / 'src' / 'prnls'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import prnls
    if Path(prnls.__file__).resolve().parent != ROOT / "src" / "prnls":
        print(f"error: prnls was imported from {prnls.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.smoke)

    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch))
    try:
        metrics, outcomes, notes = measure(wl, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [m["name"] for m in declared if metrics.get(m["name"]) is None]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    wrong = sorted({w for o in outcomes for w in o.wrong})
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for line in notes + [f"wrong: {w}" for w in wrong]:
        print(f"# {wl.name} seed {args.seed}: {line}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over seeds and summarize each metric's median and quartile spread.

    python3 perfbench/baseline.py --seeds 0-9 [--trace] [--write perfbench/baseline.json]

Runs ``perfbench/run.py`` once per seed on every workload of BENCHMARK.json,
one run after another, with its ``run_seconds``.  The spread of a metric is the distance
between the first and third quartile of its values over the seeds, as a share
of their median; it should stay below a third of the metric's bound.  With
``--write`` the summary goes into the given file under each workload and the
mode (end_to_end, or per_layer with ``--trace``), keeping the other mode's
entries, together with the machine facts (CPU,
cache sizes, versions, thread environment) and each workload's working set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: float64 samples per field array of each workload's grid
GRID_POINTS = {"sweep-2d": 256**2, "sweep-3d": 64**3, "certify-2d": 256**2}


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            out[f"L{level}"] = (index / "size").read_text().strip()
    return out


def machine_facts() -> dict:
    import numpy

    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu_model": model, "caches_per_core": cache_sizes(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "thread_env": {v: os.environ.get(v, "unset; run.py sets 1") for v in THREAD_VARS},
            "working_set_bytes_per_field": {
                w: {"real": 8 * n, "complex": 16 * n} for w, n in GRID_POINTS.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--write", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace) for seed in args.seeds]
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        summary[workload] = {"seeds": args.seeds, "correct": all(r["correct"] for r in runs),
                             "attempted": sum(r["attempted"] for r in runs),
                             "failed": sum(r["failed"] for r in runs), "metrics": metrics}
        print(f"{workload}: correct={summary[workload]['correct']} "
              f"failed {summary[workload]['failed']}/{summary[workload]['attempted']}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] is None or s["spread"] < bound / 3 else "  WIDE"
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:32s} median {s['median']:.6g}  spread {spread}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}")
            if bound is not None:
                print("    " + " ".join(f"{v:.4g}" for v in s["values"]))
        sys.stdout.flush()
    if args.write:
        old = json.loads(args.write.read_text(encoding="utf-8")) if args.write.exists() else {}
        mode = "per_layer" if args.trace else "end_to_end"
        runs = {w: {**old.get("workloads", {}).get(w, {}), mode: entry}
                for w, entry in summary.items()}
        args.write.write_text(json.dumps({"machine": machine_facts(),
                                          "run_seconds": spec["run_seconds"], "workloads": runs},
                                         indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

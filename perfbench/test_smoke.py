"""Smoke test of the benchmark's own code: every workload and the trace at N = 32.

    python -m pytest perfbench

At N = 32 the states are under-resolved, so the physics checks may fail; these
tests check that each run completes and prints a well-formed result with
every declared metric, and that the trace accounts for the whole traced pass.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import pass_metrics  # noqa: E402
from tracing import nesting_violations, self_times  # noqa: E402
from workloads import matches, parse_cli_sweep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        assert abs(result["metrics"]["trace.self_sum_ratio"]["value"] - 1.0) <= 1e-9
        assert result["metrics"]["trace.nesting_violations"]["value"] == 0
        shares = [v["value"] for k, v in result["metrics"].items() if k.startswith("self.")]
        assert abs(sum(shares) - 1.0) <= 1e-9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "sweep-2d", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_matches_one_unit_of_the_last_printed_digit():
    assert matches(5.7782024e-3, "5.778203e-03", 7)
    assert not matches(5.7782015e-3, "5.778203e-03", 7)
    assert matches(3.368366905, "3.3683669", 9)
    assert not matches(3.36836692, "3.3683669", 9)
    assert matches(0.0, "0.000000e+00", 7) and not matches(1e-300, "0.000000e+00", 7)


def test_parse_cli_sweep_reads_rows_and_converged_flags():
    text = ("c, I, |u|_p^p, err_H1, residual, iterations\n"
            "  1, 2.39305249, 14.3583149, 3.826281e+00, 4.497e-10, 93\n"
            "  inf, 3.87539658, 23.2523795, 0.000000e+00, 4.724e-10, 49\n"
            "  [ok] c=1: converged\n"
            "  [FAIL] c=inf: converged\n"
            "  slack(c=1) = -1.2e-01 (-4.0e-03 relative)\n")
    rows = parse_cli_sweep(text)
    assert [(r.label, r.iterations, r.converged) for r in rows] == [("1", 93, True),
                                                                   ("inf", 49, False)]
    assert rows[0].I == 2.39305249 and rows[1].err_h1 == 0.0


def test_self_times_telescope_to_the_pass_time():
    # name, layer, start, end, parent, extra: a solver call holding two transforms
    spans = [["solver.s", "solver", 1.0, 5.0, -1, None],
             ["fft.fftn", "fft", 1.5, 2.0, 0, None],
             ["fft.ifftn", "fft", 3.0, 4.5, 0, None],
             ["model.m", "model", 6.0, 7.0, -1, None]]
    selfs = self_times(spans, total=8.0)
    assert selfs["solver"] == 2.0 and selfs["fft"] == 2.0 and selfs["model"] == 1.0
    assert selfs["bench"] == 3.0 and sum(selfs.values()) == 8.0
    assert nesting_violations(spans, 0.0, 8.0) == 0
    assert nesting_violations(spans, 0.0, 6.5) == 1  # model.m outlasts the pass
    overlapping = spans[:2] + [["fft.ifftn", "fft", 1.8, 4.9, 0, None]]
    assert nesting_violations(overlapping, 0.0, 8.0) == 1


def test_solve_loop_iterations_come_from_loop_level_clamped_power_calls():
    # a solve with three loop-level nonlinearity calls, one nested in nehari_project
    spans = [["solver.solve_ground_state", "solver", 0.0, 1.0, -1, (2, True)],
             ["variational.nehari_project", "variational", 0.00, 0.05, 0, None],
             ["variational.clamped_power", "variational", 0.01, 0.02, 1, None],
             ["variational.clamped_power", "variational", 0.10, 0.11, 0, None],
             ["variational.clamped_power", "variational", 0.30, 0.31, 0, None],
             ["variational.clamped_power", "variational", 0.60, 0.61, 0, None]]
    metrics = pass_metrics(spans, 0.0, 1.0)
    assert abs(metrics["solver.step_ms"] - 250.0) < 1e-9  # median of 200 and 300 ms
    assert metrics["solver.iterations"] == 2 and metrics["radial_oracle.shots"] == 0
    assert metrics["radial_oracle.profile_s"] == 0.0 and metrics["snapshot.load_ms"] == 0.0

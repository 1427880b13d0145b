"""One pass of each benchmark workload at the smoke grid (N = 32), in-process.

perfbench/workloads.py calls the package by its public names, keyword arguments,
config keys and result fields; this runs those calls, so a change to any of them
fails here instead of in the benchmark.  At N = 32 the states are under-resolved,
so only the operation counts are checked, not the physics.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


#: operations one pass attempts: sweep-2d counts the exit code and seven rows,
#: sweep-3d three rows, certify-2d the state, oracle, extension and symbol checks
ATTEMPTED = {"sweep-2d": 8, "sweep-3d": 3, "certify-2d": 31}


@pytest.mark.parametrize("name", sorted(ATTEMPTED))
def test_one_smoke_pass(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](smoke=True)
    assert workload.N == workloads.SMOKE_N == 32
    out = workload.run_pass(workload.setup(1, tmp_path))
    assert out.attempted == ATTEMPTED[name]
    assert 0 <= out.failed <= out.attempted

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import prnls
from prnls.cli import main


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = {"grid": {"N": 128}, "c_schedule": [4, 8], "output_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_solve_command(tiny_config, tmp_path, capsys):
    assert main(["solve", "--c", "4", "--config", str(tiny_config)]) == 0
    out = capsys.readouterr().out
    assert "residual" in out and "[ok]" in out
    assert (tmp_path / "out" / "state_c4.f64").exists()
    assert (tmp_path / "out" / "state_c4.json").exists()


needs_openblas = pytest.mark.skipif(
    "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower(),
    reason="OPENBLAS_NUM_THREADS needs OpenBLAS")


def run_cli_under_blas_threads(threads, args, cwd):
    """prnls.cli with args in a fresh interpreter under OPENBLAS_NUM_THREADS=threads."""
    src = os.path.dirname(os.path.dirname(prnls.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "prnls.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True).stdout


@needs_openblas
def test_solve_output_does_not_depend_on_blas_threads(tmp_path):
    outputs = [run_cli_under_blas_threads(t, ["solve", "--c", "inf"], tmp_path) for t in "12"]
    assert "iterations = " in outputs[0] and outputs[0].count("[ok]") == 5
    assert outputs[1] == outputs[0]


@needs_openblas
def test_sweep_files_do_not_depend_on_blas_threads(tmp_path):
    # the 2D N = 256 sweep's transforms take the radix-2 step, whose half-size products
    # give the same bits under one BLAS thread or two; the single 129-square product
    # of each axis did not
    files = []
    for threads in "12":
        out = tmp_path / threads
        path = tmp_path / f"cfg{threads}.json"
        path.write_text(json.dumps({"params": {"n": 2}, "grid": {"L": 32.0, "N": 256},
                                    "output_dir": str(out)}))
        run_cli_under_blas_threads(threads, ["sweep", "--config", str(path)], tmp_path)
        files.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert "sweep.csv" in files[0] and len(files[0]) == 16  # table, JSON, 7 snapshots + headers
    assert files[1] == files[0]


def test_invalid_c_reports_error(tiny_config, capsys):
    assert main(["solve", "--c", "0.5", "--config", str(tiny_config)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("schedule, reason", [
    ([1, math.inf], "must be finite"),
    ([32, 32.00001], "snapshot labels"),
])
def test_unsafe_schedule_rejected(tmp_path, capsys, schedule, reason):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"c_schedule": schedule, "output_dir": str(tmp_path / "out")}))
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: c_schedule") and reason in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw, key", [
    ({"c_schedule": 4}, "c_schedule"),
    ({"params": [1]}, "params"),
    ({"grid": "N=64"}, "grid"),
    ({"solver": None}, "solver"),
    ([1], "configuration"),
    ({"output_dir": 5}, "output_dir"),
    ({"c_schedule": [1, None]}, "wrong type"),
    ({"solver": {"tol_residual": None}}, "wrong type"),
])
def test_config_type_error_exits_2(tmp_path, capsys, raw, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("raw, key", [
    ({"solver": {"max_iter": True}}, "max_iter"),
    ({"grid": {"L": "32"}}, "L"),
    ({"params": {"p": False}}, "p"),
    ({"params": {"n": "2"}}, "n"),
    ({"solver": {"gamma": "2"}}, "gamma"),
    ({"c_schedule": [1, True]}, "c_schedule"),
    ({"c_schedule": ["4"]}, "c_schedule"),
    ({"solver": {"max_iter": 2.5}}, "max_iter"),
])
def test_non_numbers_rejected(tmp_path, capsys, raw, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(raw, output_dir=str(tmp_path / "out"))))
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ")
    assert not (tmp_path / "out").exists()


def test_solve_limit_state(tiny_config):
    assert main(["solve", "--c", "inf", "--config", str(tiny_config)]) == 0


def test_minus_infinite_c_rejected(tiny_config, tmp_path, capsys):
    # c = inf is one more value of c, so -inf fails c >= 1 like any other value
    assert main(["solve", "--c=-inf", "--config", str(tiny_config)]) == 2
    assert capsys.readouterr().err == "error: c must be >= 1\n"
    assert not (tmp_path / "out").exists()


def test_blowup_is_a_failed_run_not_a_rejected_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"N": 64}, "solver": {"gamma": 60}}))
    assert main(["solve", "--c", "4", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: iterate norm exceeded 1e+12\n"


@pytest.mark.parametrize("solver", [
    {"gamma": 3},                            # stalls: the loop stops at max_iter
    {"gamma": 30, "init_width": 1.0},        # the p-th power underflows to 0
    {"gamma": 600, "init_width": 0.3},       # collapses to the zero field
])
def test_unconverged_limit_solve_fails_its_check(tmp_path, capsys, solver):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"N": 64}, "solver": dict(solver, max_iter=200)}))
    assert main(["solve", "--c", "inf", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] c=inf: converged" in captured.out
    if solver["gamma"] == 600:  # Q = J = I = 0: the identities hold only vacuously
        assert "[FAIL] c=inf: nehari-zero" in captured.out
        assert "[FAIL] c=inf: energy-identity" in captured.out
    assert captured.err == ""


@pytest.mark.filterwarnings("ignore::prnls.model.BoundaryDecayWarning")  # as at c = inf
def test_huge_finite_c_solves_as_the_limit(tiny_config, tmp_path, capsys):
    # m c^2 is a product: c**2 overflows above ~1.3e154, while c * c is inf
    assert main(["solve", "--c", "1e300", "--config", str(tiny_config)]) == 0
    assert main(["solve", "--c", "inf", "--config", str(tiny_config)]) == 0
    capsys.readouterr()
    huge, limit = ((tmp_path / "out" / f"state_c{label}.f64").read_bytes().split(b"\n", 1)[1]
                   for label in ("1e+300", "inf"))
    assert huge == limit


@pytest.mark.parametrize("schedule", [[1e100], [4, 1e300]])
def test_extension_check_rejects_overflowing_c(tmp_path, capsys, schedule):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"N": 64}, "c_schedule": schedule,
                                "output_dir": str(tmp_path / "out")}))
    assert main(["extension-check", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: c_schedule value ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("width", [-1.0, math.nan, math.inf])
def test_init_width_validated(tmp_path, capsys, width):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"solver": {"init_width": width}}))  # JSON Infinity for inf
    assert main(["solve", "--c", "4", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: init_width must be positive and finite\n"


def test_infinite_gamma_rejected(tmp_path, capsys):
    # were it accepted, M^gamma would collapse the iterate to u = 0 and fail four checks
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"N": 64}, "solver": {"gamma": math.inf}}))  # Infinity
    assert main(["solve", "--c", "inf", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: gamma must exceed 1 and be finite\n"


def test_sweep_command(tiny_config, tmp_path, capsys):
    assert main(["sweep", "--config", str(tiny_config)]) == 0
    out = capsys.readouterr().out
    assert "err at the largest c is the minimum" in out
    assert "slack(c=inf) = <1e-12 (<1e-12 relative)" in out  # round-off figures
    assert "slack(c=4) = -6.12367" in out
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_with_too_few_converged_rows_fails_its_check(tmp_path, capsys):
    # a valid configuration whose solves stop early: a failed check (exit 1),
    # not a rejected configuration (exit 2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"solver": {"max_iter": 3}, "c_schedule": [1, 2],
                                "grid": {"N": 64}}))
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert ("[FAIL] uniform bounds: need at least two converged finite-c records"
            in captured.out)
    assert "error:" not in captured.err


def test_extension_check_command(tiny_config, tmp_path, capsys):
    assert main(["extension-check", "--config", str(tiny_config)]) == 0
    assert (tmp_path / "out" / "extension_c4.csv").exists()
    assert "[ok] extension checks" in capsys.readouterr().out


def test_oracle_command(tiny_config, tmp_path, capsys):
    assert main(["oracle", "--config", str(tiny_config)]) == 0
    assert (tmp_path / "out" / "oracle_profile.csv").exists()
    out = capsys.readouterr().out
    assert re.search(r"ground amplitude u\(0\) = 2\.39195640322 \(\d+ shots\)", out)


def test_defaults_need_no_config_file(tmp_path, monkeypatch, capsys):
    # cheap command only; solve/sweep with the default N=256 grid are exercised
    # through the fixtures elsewhere
    monkeypatch.chdir(tmp_path)
    assert main(["oracle"]) == 0
    assert (tmp_path / "oracle_profile.csv").exists()
    capsys.readouterr()


def _reject(name):
    raise ValueError(f"{name} is not JSON")


def test_run_files_are_strict_json_and_numeric_csv(tmp_path, capsys):
    # every file of the four commands: JSON, snapshot header lines included, parses
    # without NaN/Infinity, and every CSV cell after the header is a plain number
    # (or a converged flag).  Three iterations keep the solves short; their
    # unconverged states fail the checks (exit 1) but still write their files.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"N": 64}, "c_schedule": [4, 8],
                               "solver": {"max_iter": 3}, "output_dir": str(tmp_path / "out")}))
    for command, code in ((["solve", "--c", "inf"], 1), (["sweep"], 1),
                          (["extension-check"], 0), (["oracle"], 0)):
        assert main(command + ["--config", str(cfg)]) == code
    capsys.readouterr()
    out = tmp_path / "out"
    assert {"sweep.csv", "sweep.json", "state_cinf.f64", "state_cinf.json",
            "extension_c4.csv", "oracle_profile.csv"} <= {p.name for p in out.iterdir()}
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject)
    for path in out.glob("*.f64"):
        json.loads(path.read_bytes().split(b"\n", 1)[0], parse_constant=_reject)
    for path in out.glob("*.csv"):
        header, *rows = path.read_text().splitlines()
        columns = header.split(",")
        assert rows
        for row in rows:
            for name, cell in zip(columns, row.split(","), strict=True):
                if not (name == "converged" and cell in ("true", "false")):
                    float(cell)

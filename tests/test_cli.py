import json
import math

import pytest

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


def test_sweep_command(tiny_config, tmp_path, capsys):
    assert main(["sweep", "--config", str(tiny_config)]) == 0
    out = capsys.readouterr().out
    assert "err at the largest c is the minimum" in out
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_extension_check_command(tiny_config, tmp_path, capsys):
    assert main(["extension-check", "--config", str(tiny_config)]) == 0
    assert (tmp_path / "out" / "extension_c4.csv").exists()
    assert "[ok] extension checks" in capsys.readouterr().out


def test_oracle_command(tiny_config, tmp_path, capsys):
    assert main(["oracle", "--config", str(tiny_config)]) == 0
    assert (tmp_path / "out" / "oracle_profile.csv").exists()
    assert "ground amplitude" in capsys.readouterr().out


def test_defaults_need_no_config_file(tmp_path, monkeypatch, capsys):
    # cheap command only; solve/sweep with the default N=256 grid are exercised
    # through the fixtures elsewhere
    monkeypatch.chdir(tmp_path)
    assert main(["oracle"]) == 0
    assert (tmp_path / "oracle_profile.csv").exists()
    capsys.readouterr()

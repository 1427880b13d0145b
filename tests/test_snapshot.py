import json
import math

import numpy as np
import pytest

import prnls as P
from prnls.snapshot import csv_text, json_text, params_from_header


def test_roundtrip_bitexact(tmp_path, grid, params_inf):
    rng = np.random.default_rng(11)
    f = P.RealField(grid, rng.standard_normal(grid.shape))
    path = P.save_field(tmp_path / "f.f64", f, params_inf)
    back, head = P.load_field(path)
    assert np.array_equal(back.values, f.values)
    assert head["n"] == 2 and head["N"] == 256 and head["L"] == 32.0
    restored = params_from_header(head)
    assert restored == params_inf


def test_header_is_one_json_line(tmp_path, grid):
    path = P.save_field(tmp_path / "g.f64", P.gaussian_field(grid, 1.0))
    with open(path, "rb") as fh:
        first = fh.readline()
    head = json.loads(first)
    assert head["params"] is None
    assert math.isfinite(head["L"])


def test_truncated_payload_rejected(tmp_path, grid):
    path = P.save_field(tmp_path / "h.f64", P.gaussian_field(grid, 1.0))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload"):
        P.load_field(path)


def test_no_tmp_left_behind(tmp_path, grid):
    P.save_field(tmp_path / "k.f64", P.gaussian_field(grid, 1.0))
    assert [p.name for p in tmp_path.iterdir()] == ["k.f64"]


def test_json_text_is_strict_at_any_depth():
    obj = {"a": [1.0, math.inf, {"b": -math.inf}], "c": (math.nan, 2)}
    assert json_text(obj) == '{"a": [1.0, "inf", {"b": "-inf"}], "c": ["nan", 2]}'


def test_csv_cells_are_plain_numbers():
    rows = [(True, 3, np.float64(0.5), -math.inf), (False, np.int64(2), 1, 0.1)]
    assert csv_text(("a", "b", "c", "d"), rows) == "a,b,c,d\ntrue,3,0.5,-inf\nfalse,2.0,1,0.1\n"


def test_older_infinity_header_loads():
    head = json.loads('{"params": {"c": Infinity, "m": 1.0, "mu": 1.0, "n": 2, "p": 3.0}}')
    assert params_from_header(head).c == math.inf

import json
import math
import re

import numpy as np
import pytest

import prnls as P
from conftest import peak_fields, unfold_even
from prnls.model import fold_even, shared_grid
from prnls.snapshot import csv_text, json_text, params_from_header


def rewrite_header(path, **changes):
    """Replace keys of a snapshot's header (None deletes one), keeping its payload."""
    head, payload = path.read_bytes().split(b"\n", 1)
    head = json.loads(head)
    for key, value in changes.items():
        if value is None:
            del head[key]
        else:
            head[key] = value
    path.write_bytes(json.dumps(head, sort_keys=True).encode("ascii") + b"\n" + payload)


def test_roundtrip_bitexact(tmp_path, grid, params_inf):
    rng = np.random.default_rng(11)
    f = P.RealField(grid, rng.standard_normal(grid.shape))
    path = P.save_field(tmp_path / "f.f64", f, params_inf)
    back, head = P.load_field(path)
    assert np.array_equal(back.values, f.values)
    assert head["n"] == 2 and head["N"] == 256 and head["L"] == 32.0
    restored = params_from_header(head)
    assert restored == params_inf


def test_snapshots_of_one_box_share_its_grid(tmp_path, grid, params_inf):
    # a certification holds every state of a sweep at once: one xi_sq table, not one per file
    f = P.gaussian_field(grid, 2.0)
    a, _ = P.load_field(P.save_field(tmp_path / "a.f64", f, params_inf))
    b, _ = P.load_field(P.save_field(tmp_path / "b.f64", f, params_inf))
    assert a.grid is b.grid and a.grid == grid


def test_header_is_one_json_line(tmp_path, grid, params_inf):
    path = P.save_field(tmp_path / "g.f64", P.gaussian_field(grid, 1.0), params_inf)
    with open(path, "rb") as fh:
        first = fh.readline()
    head = json.loads(first)
    assert params_from_header(head) == params_inf
    assert math.isfinite(head["L"])


def test_truncated_payload_rejected(tmp_path, grid, params_inf):
    path = P.save_field(tmp_path / "h.f64", P.gaussian_field(grid, 1.0), params_inf)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload"):
        P.load_field(path)


def test_no_tmp_left_behind(tmp_path, grid, params_inf):
    P.save_field(tmp_path / "k.f64", P.gaussian_field(grid, 1.0), params_inf)
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


def test_payload_is_written_without_a_copy(tmp_path):
    # the samples go to the file from their own buffer: the parent's tobytes() and
    # header + payload concatenation peaked at 2 fields
    grid = P.make_grid(3, 32.0, 64)
    params = P.PhysParams(m=1.0, mu=1.0, c=math.inf, p=2.5, n=3)
    f = P.gaussian_field(grid, 2.0)
    path, peak = peak_fields(grid, P.save_field, tmp_path / "big.f64", f, params)
    assert peak < 0.1
    assert np.array_equal(P.load_field(path)[0].values, f.values)


def test_non_c_ordered_samples_written_row_major(tmp_path, grid, params_inf):
    values = np.random.default_rng(3).standard_normal(grid.shape)
    path = P.save_field(tmp_path / "t.f64", P.RealField(grid, values.T), params_inf)
    assert np.array_equal(P.load_field(path)[0].values, values.T)


@pytest.fixture
def even_state(grid):
    """A mirror-even, non-radial state on the even layout of grid."""
    half = shared_grid(grid.n, grid.L, grid.N, True)
    noise = np.random.default_rng(12).standard_normal(half.shape)
    return P.RealField(half, noise * P.gaussian_field(half, 4.0).values)


def test_even_state_reloads_on_its_layout(tmp_path, grid, params_inf, even_state):
    path = P.save_field(tmp_path / "e.f64", even_state, params_inf)
    back, head = P.load_field(path)
    assert head["even"] is True and back.grid is even_state.grid
    assert np.array_equal(back.values, even_state.values)
    assert path.stat().st_size - len(path.read_bytes().split(b"\n", 1)[0]) - 1 == 129**2 * 8
    full, full_head = P.load_field(P.save_field(tmp_path / "f.f64", unfold_even(even_state, grid),
                                                params_inf))
    assert full_head["even"] is False and full.grid == grid
    assert np.array_equal(unfold_even(back, grid).values, full.values)
    assert np.array_equal(fold_even(full).values, back.values)


def test_header_without_layout_loads_as_full_box(tmp_path, grid, params_inf):
    f = P.gaussian_field(grid, 2.0)
    path = P.save_field(tmp_path / "old.f64", f, params_inf)
    rewrite_header(path, even=None)
    back, head = P.load_field(path)
    assert "even" not in head and back.grid == grid and not back.grid.even
    assert np.array_equal(back.values, f.values)


@pytest.mark.parametrize("key, value", [("N", 64.7), ("N", "64"), ("n", 2.0), ("n", True),
                                        ("even", "no"), ("even", 1), ("L", True), ("L", "32"),
                                        ("N", None), ("params.n", 2.0)])
def test_header_grid_values_of_the_wrong_json_type_rejected(tmp_path, grid, params_inf, key,
                                                            value):
    # 64.7 loaded as N = 64, and "64" and 2.0 loaded too, while the loader converted them;
    # true loaded as L = 1.0, "32" as 32.0, a params n of 2.0 as PhysParams(n=2.0), and a
    # header without "N" raised KeyError: 'N'
    path = P.save_field(tmp_path / "bad.f64", P.gaussian_field(grid, 2.0), params_inf)
    if key == "params.n":
        head = json.loads(path.read_bytes().split(b"\n", 1)[0])
        rewrite_header(path, params={**head["params"], "n": value})
        expect = "header params 'n' is 2.0, not a JSON integer$"
    else:
        rewrite_header(path, **{key: value})
        expect = f"header has no '{key}'$" if value is None else f"header '{key}' is "
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {expect}"):
        P.load_field(path)


@pytest.mark.parametrize("layout", ["even", "full"])
def test_payload_of_the_other_layout_rejected(tmp_path, grid, params_inf, even_state, layout):
    f = even_state if layout == "even" else unfold_even(even_state, grid)
    path = P.save_field(tmp_path / "x.f64", f, params_inf)
    rewrite_header(path, even=layout != "even")
    other = 256**2 * 8 if layout == "even" else 129**2 * 8
    with pytest.raises(ValueError, match=f"payload has {f.values.size * 8} bytes, expected {other}$"):
        P.load_field(path)

"""Run files: every file the package writes goes through this module, atomically
(tmp file, then os.replace).  JSON is strict, CSV cells are plain numbers.

Field snapshots are one JSON header line, then raw little-endian float64 samples
in the field's own layout: (N/2 + 1)^n samples of a mirror-even state on the even
layout, N^n on the full box.  The header records the grid (n, L, N, even) and the
physical parameters, so a snapshot is self-describing and loadable by any module;
a header without "even" is a full-box snapshot.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np

from .model import PhysParams, RealField, shared_grid


def _write_atomic(path: str | Path, *chunks) -> Path:
    """Write the chunks (bytes, or C-contiguous arrays from their own buffers) in turn."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)
    return path


def write_text(path: str | Path, text: str) -> Path:
    """Write ASCII text atomically; returns the path."""
    return _write_atomic(path, text.encode("ascii"))


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def csv_text(columns, rows) -> str:
    """Header line, then one line per row; a cell is true/false, an int, or repr(float)."""
    lines = [",".join(columns)] + [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _strict(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def json_text(obj, indent: int | None = None, sort_keys: bool = False) -> str:
    """Strict JSON of obj, non-finite floats written as "inf", "-inf" or "nan"."""
    return json.dumps(_strict(obj), indent=indent, sort_keys=sort_keys, allow_nan=False)


def save_field(path: str | Path, f: RealField, params: PhysParams) -> Path:
    """Write atomically: header line + row-major '<f8' payload, from the samples' buffer."""
    g = f.grid
    head = {"n": g.n, "L": g.L, "N": g.N, "even": g.even, "params": dataclasses.asdict(params)}
    head = json_text(head, sort_keys=True) + "\n"
    return _write_atomic(path, head.encode("ascii"), np.ascontiguousarray(f.values, "<f8"))


#: the Python types of a JSON kind as json.loads returns them: true is no number here
_JSON_KINDS = {"integer": (int,), "number": (int, float), "boolean": (bool,)}


def _entry(path: Path, where: str, table: dict, key: str, kind: str):
    """table[key], which must be present and a JSON value of kind: 64.7, 2.0, "64", true
    and "no" are no JSON integer, true and "32" no number; else a ValueError naming path."""
    if key not in table:
        raise ValueError(f"{path}: {where} has no {key!r}")
    value = table[key]
    if type(value) not in _JSON_KINDS[kind]:
        raise ValueError(f"{path}: {where} {key!r} is {value!r}, not a JSON {kind}")
    return value


def load_field(path: str | Path) -> tuple[RealField, dict]:
    """Read a snapshot back; returns the field and the parsed header."""
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    head = json.loads(header_line.decode("ascii"))
    n, L, N = (_entry(path, "header", head, key, kind)
               for key, kind in (("n", "integer"), ("L", "number"), ("N", "integer")))
    even = _entry(path, "header", head, "even", "boolean") if "even" in head else False
    if "params" in head:
        _entry(path, "header params", head["params"], "n", "integer")
    # one grid per box and layout, not per file; a header without "even" is the full box's
    grid = shared_grid(n, float(L), N, even)
    expected = math.prod(grid.shape) * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape).copy()
    return RealField(grid, values), head


def params_from_header(head: dict) -> PhysParams:
    """The header's parameters; c is "inf" in the limit header (Infinity in older files)."""
    raw = head["params"]
    return PhysParams(m=raw["m"], mu=raw["mu"], c=float(raw["c"]), p=raw["p"], n=raw["n"])

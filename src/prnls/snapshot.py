"""Run files: every file the package writes goes through this module, atomically
(tmp file, then os.replace).  JSON is strict, CSV cells are plain numbers.

Field snapshots are one JSON header line, then raw little-endian float64 samples.
The header records the grid (n, L, N) and, when given, the physical parameters,
so a snapshot is self-describing and loadable by any module.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np

from .model import PhysParams, RealField, make_grid


def _write_atomic(path: str | Path, data: bytes) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
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


def _header(f: RealField, params: PhysParams | None) -> dict:
    head: dict = {"n": f.grid.n, "L": f.grid.L, "N": f.grid.N}
    head["params"] = dataclasses.asdict(params) if params is not None else None
    return head


def save_field(path: str | Path, f: RealField, params: PhysParams | None = None) -> Path:
    """Write atomically: header line + row-major '<f8' payload."""
    head = json_text(_header(f, params), sort_keys=True) + "\n"
    return _write_atomic(path, head.encode("ascii") + np.asarray(f.values, "<f8").tobytes())


def load_field(path: str | Path) -> tuple[RealField, dict]:
    """Read a snapshot back; returns the field and the parsed header."""
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    head = json.loads(header_line.decode("ascii"))
    grid = make_grid(head["n"], head["L"], head["N"])
    expected = grid.N**grid.n * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape).copy()
    return RealField(grid, values), head


def params_from_header(head: dict) -> PhysParams | None:
    """The header's parameters; c is "inf" in the limit header (Infinity in older files)."""
    raw = head.get("params")
    if raw is None:
        return None
    return PhysParams(m=raw["m"], mu=raw["mu"], c=float(raw["c"]), p=raw["p"], n=raw["n"])

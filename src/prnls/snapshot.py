"""Field snapshot files: one JSON header line, then raw little-endian float64 samples.

The header records the grid (n, L, N) and, when given, the physical parameters,
so a snapshot is self-describing and loadable by any module.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from .model import PhysParams, RealField, make_grid


def _header(f: RealField, params: PhysParams | None) -> dict:
    head: dict = {"n": f.grid.n, "L": f.grid.L, "N": f.grid.N}
    head["params"] = dataclasses.asdict(params) if params is not None else None
    return head


def save_field(path: str | Path, f: RealField, params: PhysParams | None = None) -> Path:
    """Write atomically: header line + row-major '<f8' payload."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(_header(f, params), sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    os.replace(tmp, path)
    return path


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
    raw = head.get("params")
    if raw is None:
        return None
    return PhysParams(m=raw["m"], mu=raw["mu"], c=raw["c"], p=raw["p"], n=raw["n"])

"""In-memory span tracer that swaps timing wrappers into the prnls namespaces.

Every public function defined in a ``prnls`` submodule (plus
``solver._finalize``, the only place that separates a solve's finalize phase)
is replaced, in every ``prnls`` module namespace that binds it, by a wrapper
that records a span.  The n-dimensional ``numpy.fft`` transforms are wrapped
the same way and form the ``fft`` layer.  ``restore`` puts every original
binding back.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

import numpy.fft

#: layers in report order; "bench" is traced-pass time outside every span
LAYERS = ("bench", "cli", "sweep", "solver", "model", "symbol", "variational",
          "snapshot", "radial_oracle", "extension", "fft")
FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn")
PRIVATE_TRACED = {("prnls.solver", "_finalize")}

NAME, LAYER, START, END, PARENT, EXTRA = range(6)


def _fft_bytes(args, result) -> int:
    """Bytes a transform reads plus bytes it writes, computed from array sizes."""
    return int(numpy.asarray(args[0]).nbytes + result.nbytes)


def _file_bytes(args, result) -> int:
    return os.path.getsize(result)


def _solve_outcome(args, result) -> tuple[int, bool]:
    return result.iterations, result.converged


EXTRAS = {"fft": _fft_bytes, "snapshot.save_field": _file_bytes,
          "solver.solve_ground_state": _solve_outcome}


class Tracer:
    """Records spans [name, layer, start, end, parent index, extra] while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, name: str):
        extra = EXTRAS.get(name) or EXTRAS.get(layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "prnls" or k.startswith("prnls."))]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, value in sorted(vars(mod).items()):
                if not inspect.isfunction(value) or not value.__module__.startswith("prnls."):
                    continue
                key = (value.__module__, value.__name__)
                if value.__name__.startswith("_") and key not in PRIVATE_TRACED:
                    continue
                if id(value) not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrappers[id(value)] = self._wrap(value, layer, f"{layer}.{value.__name__}")
                self._set(mod, attr, wrappers[id(value)])
        for fname in FFT_FUNCS:
            self._set(numpy.fft, fname, self._wrap(getattr(numpy.fft, fname), "fft", f"fft.{fname}"))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self) -> list[list]:
        """Spans as [name, start, end, parent] rows, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT]] for s in self.spans]


def durations(spans, name: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def _child_sums(spans) -> list[float]:
    sums = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            sums[s[PARENT]] += s[END] - s[START]
    return sums


def self_times(spans, total: float) -> dict[str, float]:
    """Self time per layer, with 'bench' taking the part of ``total`` no span covers.

    A span's self time is its duration minus its children's durations; the
    top-level spans are the children of the traced pass, which lasted ``total``.
    The self times therefore add up to ``total`` for any spans.
    """
    child = _child_sums(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    out["bench"] = total - sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    for s, c in zip(spans, child):
        out[s[LAYER]] += (s[END] - s[START]) - c
    return out


def nesting_violations(spans, start: float, end: float) -> int:
    """Spans that leave their parent's interval, or the pass from ``start`` to ``end``
    for top-level spans, or that begin before their previous sibling ended.

    Self times add up to the pass time for any set of spans, so this is the
    check that catches spans which overlap, as calls from another thread would.
    """
    bad = 0
    last_end: dict[int, float] = {}
    for s in spans:
        p = s[PARENT]
        lo, hi = (start, end) if p < 0 else (spans[p][START], spans[p][END])
        bad += not (lo <= s[START] <= s[END] <= hi) or s[START] < last_end.get(p, lo)
        last_end[p] = s[END]
    return bad


def wrapper_cost_s() -> float:
    """Median over seven batches of the cost of one traced call over a plain one,
    from 20,000 calls of a wrapped no-op per batch."""

    def noop():
        return None

    calls, costs = 20000, []
    for _ in range(7):
        traced = Tracer()._wrap(noop, "bench", "bench.noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


def descendants_of(spans, name: str, layer: str) -> tuple[int, int]:
    """(number of spans called ``name``, spans of ``layer`` below them)."""
    roots = {i for i, s in enumerate(spans) if s[NAME] == name}
    below = 0
    for s in spans:
        if s[LAYER] != layer:
            continue
        p = s[PARENT]
        while p >= 0 and p not in roots:
            p = spans[p][PARENT]
        below += p >= 0
    return len(roots), below

"""Spans around the public functions of the rotdicke layers, kept in memory.

:func:`install` wraps every public function of the traced modules (the names
in each module's ``__all__`` that the module defines itself) and rebinds the
wrapper at every module attribute that held the original, so a caller finds
the wrapper wherever it looks the name up: ``rotdicke.quantum.chebyshev_step``
as used by ``evolve``, and ``rotdicke.cli.run_protocol`` next to
``rotdicke.experiments.run_protocol``.  ``rotdicke.model`` is not traced: it
evaluates closed-form overlays and initial-state labels in microseconds.

A span is a dict with ``name`` (``<layer>.<function>``), ``start`` and
``end`` (``perf_counter_ns``), ``parent`` (index of the enclosing span or
None) and ``run`` (the run id), plus the counts some boundaries annotate.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "io", "experiments", "meanfield", "quantum")


def _operator_bytes(ops) -> int:
    total = 0
    for value in vars(ops).values():
        if hasattr(value, "indptr"):  # CSR matrix: the three arrays it stores
            total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
        elif hasattr(value, "nbytes"):
            total += value.nbytes
    return total


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counts recorded at the boundary where the work happens, from the call's
# arguments and result.
ANNOTATIONS = {
    "quantum.build_operators": lambda a, k, r: {"dim": r.dim, "operator_bytes": _operator_bytes(r)},
    "quantum.spectral_bounds": lambda a, k, r: {"span": r[1] - r[0]},
    "quantum.chebyshev_step": lambda a, k, r: {"order": k.get("order"), "dim": r.amplitudes.size},
    "experiments.resolve_n_max": lambda a, k, r: {
        "n_max": r, "adaptive": _arg(a, k, 0, "spec").params.n_max is None
    },
    "meanfield.integrate": lambda a, k, r: {"t_end": _arg(a, k, 2, "t_end")},
}


class Recorder:
    """Collects the spans of one process; single-threaded, like the CLI."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        annotate = ANNOTATIONS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": time.perf_counter_ns(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result

        return traced


def install(run_id: str) -> Recorder:
    """Wrap the public functions of every traced layer; return the recorder."""
    recorder = Recorder(run_id)
    modules = [importlib.import_module("rotdicke")]
    modules += [importlib.import_module(f"rotdicke.{layer}") for layer in LAYERS]
    for layer, module in zip(LAYERS, modules[1:]):
        for public in module.__all__:
            fn = getattr(module, public)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapper = recorder.wrap(f"{layer}.{public}", fn)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapper)
    return recorder


def durations(spans: list[dict]) -> list[float]:
    """Duration of each span in seconds."""
    return [(s["end"] - s["start"]) * 1e-9 for s in spans]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover, in seconds.

    ``spans`` are the spans of one process, in recording order, so that
    ``parent`` indexes this list.  Spans of one process nest: the children
    of a span cover disjoint parts of it and their durations add up.
    """
    own = durations(spans)
    out = list(own)
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            out[span["parent"]] -= own[i]
    return out

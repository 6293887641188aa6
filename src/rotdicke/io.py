"""Serialization: CSV/JSON emission, JSON loaders, and state snapshots.

CSV output is RFC-4180 style: comma delimiter, ``.`` decimal point, a
mandatory header row, LF line endings, one record per row.  Numbers are
written with 17 significant digits by default so a reparse reproduces the
doubles exactly; byte output is deterministic for identical inputs.

Trajectories emit ``t`` plus one column per observable.  One-dimensional
sweeps emit the axis value, then ``<observable>_final`` and
``<observable>_timeavg`` columns, then ``error``.  Two-dimensional sweeps
emit long format, lexicographically sorted by (lambda, delta_phi), plus the
``lambda_c_rot``/``lambda_c_dyn`` overlay columns and the ``region`` tag.
Spectra emit their header and rows as they are, empty where a branch does
not exist.

JSON output wraps the result together with the fully resolved run
configuration for provenance: ``{"config": ..., "result": ...}``.  The
result is derived from the dataclass fields, in field order, after a
``kind`` tag (see ``RESULT_KINDS``): arrays become lists, complex numbers
``[re, im]`` pairs and tuples lists.  :func:`load_result_json` rebuilds the
result from the fields' type annotations, so every field round-trips
exactly.

Quantum state snapshots are text: header lines ``j=``, ``n_max=``,
``ordering=m-major,n-minor``, ``dim=``, then one ``re im`` pair per
amplitude in basis order.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import typing

import numpy as np

from .experiments import Spectrum, SweepResult
from .meanfield import Trajectory
from .quantum import QuantumState

__all__ = [
    "emit",
    "emit_table",
    "load_result_json",
    "save_state",
    "load_state",
]

STATE_ORDERING_TAG = "m-major,n-minor"

# JSON ``kind`` tag of each result type.
RESULT_KINDS = {"trajectory": Trajectory, "sweep": SweepResult, "spectrum": Spectrum}


def _fmt(value, precision: int) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.{precision}g}"
    if value is None:
        return ""
    return str(value)


def _encode(value):
    """JSON-ready form of a dataclass, walked field by field in field order."""
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _decode(tp, value):
    """Inverse of :func:`_encode`, driven by the type annotation ``tp``."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return tp(**{f.name: _decode(hints[f.name], value[f.name]) for f in dataclasses.fields(tp)})
    if tp is np.ndarray:
        return np.array(value)
    if tp is complex:
        return complex(*value)
    args = typing.get_args(tp)
    origin = typing.get_origin(tp)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        return tuple(_decode(a, v) for a, v in zip(args, value))
    if origin is dict:
        return {k: _decode(args[1], v) for k, v in value.items()}
    return value  # scalars, strings and None


def _trajectory_rows(traj: Trajectory) -> tuple[list[str], list[list]]:
    names = list(traj.observables) if traj.observables else [
        k for k in traj.data if k not in ("q1", "p1", "q2", "p2")
    ]
    columns = [traj.times] + [traj.data[name] for name in names]
    return ["t"] + names, np.array(columns, dtype=float).T.tolist()


def _sweep_rows(result: SweepResult) -> tuple[list[str], list[list]]:
    axis_names = [name for name, _ in result.axes]
    obs = list(result.spec.observables)
    header = list(axis_names)
    for name in obs:
        header += [f"{name}_final", f"{name}_timeavg"]
    two_d = len(result.axes) == 2
    if two_d:
        header += ["lambda_c_rot", "lambda_c_dyn", "region"]
    header.append("error")
    n_minor = len(result.axes[-1][1])
    rows = []
    for i, cell in enumerate(result.cells):
        row: list = [float(c) for c in cell.coords]
        for name in obs:
            if cell.error is None:
                row += [cell.final[name], cell.average[name]]
            else:
                row += [None, None]
        if two_d:
            k = i % n_minor
            row += [
                float(result.overlays["lambda_c_rot"][k]),
                float(result.overlays["lambda_c_dyn"][k]),
                cell.region,
            ]
        row.append(cell.error)
        rows.append(row)
    return header, rows


def emit_table(result) -> tuple[list[str], list[list]]:
    """Header and rows of the CSV representation of a result."""
    if isinstance(result, Trajectory):
        return _trajectory_rows(result)
    if isinstance(result, SweepResult):
        return _sweep_rows(result)
    if isinstance(result, Spectrum):
        return list(result.header), [list(row) for row in result.rows]
    raise TypeError(f"cannot emit {type(result).__name__}")


def emit(result, fmt: str, path, precision: int = 17, config: dict | None = None) -> None:
    """Write a trajectory, sweep or spectrum result to ``path`` as CSV or JSON."""
    if fmt == "csv":
        header, rows = emit_table(result)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v, precision) for v in row])
    elif fmt == "json":
        kind = next((k for k, cls in RESULT_KINDS.items() if type(result) is cls), None)
        if kind is None:
            raise TypeError(f"cannot emit {type(result).__name__}")
        payload = {"config": config, "result": {"kind": kind, **_encode(result)}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")


def load_result_json(path):
    """Reconstruct the result object written by :func:`emit` in JSON format."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    d = payload["result"]
    cls = RESULT_KINDS.get(d["kind"])
    if cls is None:
        raise ValueError(f"unknown result kind {d['kind']!r}")
    return _decode(cls, d)


def save_state(path, state: QuantumState, precision: int = 17) -> None:
    """Write a quantum state snapshot (text, documented in the module docstring)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"j={state.j:.{precision}g}\n")
        fh.write(f"n_max={state.n_max}\n")
        fh.write(f"ordering={STATE_ORDERING_TAG}\n")
        fh.write(f"dim={state.amplitudes.size}\n")
        for z in state.amplitudes:
            fh.write(f"{z.real:.{precision}g} {z.imag:.{precision}g}\n")


def load_state(path) -> QuantumState:
    """Read a snapshot written by :func:`save_state`."""
    with open(path, encoding="utf-8") as fh:
        header = {}
        for _ in range(4):
            key, _, value = fh.readline().strip().partition("=")
            header[key] = value
        if header.get("ordering") != STATE_ORDERING_TAG:
            raise ValueError(f"unsupported ordering {header.get('ordering')!r}")
        dim = int(header["dim"])
        amplitudes = np.empty(dim, dtype=complex)
        for i in range(dim):
            re_part, im_part = fh.readline().split()
            amplitudes[i] = complex(float(re_part), float(im_part))
    return QuantumState(amplitudes, float(header["j"]), int(header["n_max"]))

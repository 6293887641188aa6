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

JSON output wraps the result together with the fully resolved run
configuration for provenance and round-trips exactly.

Quantum state snapshots are text: header lines ``j=``, ``n_max=``,
``ordering=m-major,n-minor``, ``dim=``, then one ``re im`` pair per
amplitude in basis order.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .meanfield import Trajectory
from .model import ModelParams
from .experiments import ProtocolSpec, SweepCell, SweepResult
from .quantum import QuantumState

__all__ = [
    "emit",
    "emit_table",
    "load_result_json",
    "save_state",
    "load_state",
]

STATE_ORDERING_TAG = "m-major,n-minor"


def _fmt(value, precision: int) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.{precision}g}"
    if value is None:
        return ""
    return str(value)


def _params_to_dict(params: ModelParams) -> dict:
    return {
        "lam": params.lam,
        "omega0": params.omega0,
        "omega": params.omega,
        "j": params.j,
        "delta_phi": params.delta_phi,
        "n_max": params.n_max,
    }


def _params_from_dict(d: dict) -> ModelParams:
    return ModelParams(
        lam=d["lam"],
        omega0=d["omega0"],
        omega=d["omega"],
        j=d["j"],
        delta_phi=d["delta_phi"],
        n_max=d["n_max"],
    )


def _spec_to_dict(spec: ProtocolSpec) -> dict:
    return {
        "params": _params_to_dict(spec.params),
        "engine": spec.engine,
        "initial": spec.initial,
        "epsilon": spec.epsilon,
        "alpha": [spec.alpha.real, spec.alpha.imag],
        "zeta": [spec.zeta.real, spec.zeta.imag],
        "driven": spec.driven,
        "n_revolutions": spec.n_revolutions,
        "sample_count": spec.sample_count,
        "observables": list(spec.observables),
        "rtol": spec.rtol,
    }


def _spec_from_dict(d: dict) -> ProtocolSpec:
    return ProtocolSpec(
        params=_params_from_dict(d["params"]),
        engine=d["engine"],
        initial=d["initial"],
        epsilon=d["epsilon"],
        alpha=complex(*d["alpha"]),
        zeta=complex(*d["zeta"]),
        driven=d["driven"],
        n_revolutions=d["n_revolutions"],
        sample_count=d["sample_count"],
        observables=tuple(d["observables"]),
        rtol=d["rtol"],
    )


def _trajectory_rows(traj: Trajectory) -> tuple[list[str], list[list]]:
    names = list(traj.observables) if traj.observables else [
        k for k in traj.data if k not in ("q1", "p1", "q2", "p2")
    ]
    header = ["t"] + names
    rows = []
    for i, t in enumerate(traj.times):
        rows.append([float(t)] + [float(traj.data[name][i]) for name in names])
    return header, rows


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
    raise TypeError(f"cannot emit {type(result).__name__}")


def _result_to_dict(result) -> dict:
    if isinstance(result, Trajectory):
        return {
            "kind": "trajectory",
            "params": _params_to_dict(result.params),
            "engine": result.engine,
            "driven": result.driven,
            "observables": list(result.observables),
            "times": [float(t) for t in result.times],
            "data": {k: [float(v) for v in col] for k, col in result.data.items()},
        }
    if isinstance(result, SweepResult):
        return {
            "kind": "sweep",
            "axes": [[name, [float(v) for v in values]] for name, values in result.axes],
            "cells": [
                {
                    "coords": list(cell.coords),
                    "final": cell.final,
                    "average": cell.average,
                    "region": cell.region,
                    "error": cell.error,
                }
                for cell in result.cells
            ],
            "overlays": {
                k: [float(v) for v in values] for k, values in result.overlays.items()
            },
            "spec": _spec_to_dict(result.spec),
        }
    raise TypeError(f"cannot emit {type(result).__name__}")


def emit(result, fmt: str, path, precision: int = 17, config: dict | None = None) -> None:
    """Write a trajectory or sweep result to ``path`` as CSV or JSON."""
    if fmt == "csv":
        header, rows = emit_table(result)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v, precision) for v in row])
    elif fmt == "json":
        payload = {"config": config, "result": _result_to_dict(result)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")


def emit_columns(
    path,
    fmt: str,
    header: list[str],
    rows: list[list],
    precision: int = 17,
    config: dict | None = None,
    kind: str = "table",
) -> None:
    """Write a plain header/rows table (used by the spectrum subcommand)."""
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v, precision) for v in row])
    elif fmt == "json":
        payload = {
            "config": config,
            "result": {"kind": kind, "header": header, "rows": rows},
        }
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
    if d["kind"] == "trajectory":
        return Trajectory(
            params=_params_from_dict(d["params"]),
            engine=d["engine"],
            driven=d["driven"],
            times=np.array(d["times"]),
            data={k: np.array(col) for k, col in d["data"].items()},
            observables=tuple(d["observables"]),
        )
    if d["kind"] == "sweep":
        cells = tuple(
            SweepCell(
                coords=tuple(c["coords"]),
                final=c["final"],
                average=c["average"],
                region=c["region"],
                error=c["error"],
            )
            for c in d["cells"]
        )
        return SweepResult(
            axes=tuple((name, np.array(values)) for name, values in d["axes"]),
            cells=cells,
            spec=_spec_from_dict(d["spec"]),
            overlays={k: np.array(v) for k, v in d["overlays"].items()},
        )
    raise ValueError(f"unknown result kind {d['kind']!r}")


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

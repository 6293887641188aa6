"""Serialization: CSV/JSON emission and the JSON loader.

CSV output is RFC-4180 style: comma delimiter, ``.`` decimal point, a
mandatory header row, LF line endings, one record per row.  Numbers are
written with 17 significant digits by default so a reparse reproduces the
doubles exactly; byte output is deterministic for identical inputs.  Every
table goes through one writer, ``CHUNK`` rows per write and one
``%``-template per row: float columns by ``%.<precision>g``, all other
cells as text, empty for None and quoted as Python 3.11's ``csv.writer``
quotes them (see :func:`_text`).

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
exactly.  The layout is that of ``json.dump(payload, fh, indent=1)``, byte
for byte, but float arrays are written ``CHUNK`` values at a time, so no
whole-file string or per-value object list is ever held.

Every writer rewrites an existing output in place: the path is opened
without truncation, so its inode, mode, owner and links stay, a symlink is
written through, and a read-only file is refused.  A regular file is first
cut to one byte, never to zero, because ext4 forces the writeback of a file
truncated to zero length when it is closed, and the next truncation of that
file then waits tens of milliseconds on it.  When the write ends, finished
or failed, the file is cut at the last byte written, so no old tail
survives.  Nothing is ``fsync``-ed: a power loss just after a run can lose
its output, and rerunning the command, whose bytes are deterministic,
writes it again.  ``precision``, the significant digits of CSV floats, is
an integer in [1, 17] (:func:`check_precision`), and :func:`emit`'s format
is csv or json (:func:`check_format`); both are checked before any file is
opened.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import numbers
import os
import stat
import typing

import numpy as np

from .experiments import Spectrum, SweepResult
from .trajectory import CHUNK, Trajectory

__all__ = [
    "check_format",
    "check_precision",
    "emit",
    "load_result_json",
]

# JSON ``kind`` tag of each result type.
RESULT_KINDS = {"trajectory": Trajectory, "sweep": SweepResult, "spectrum": Spectrum}

_FORMATS = ("csv", "json")


def check_format(fmt) -> None:
    """ValueError unless ``fmt`` names an output format, csv or json."""
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got {fmt!r}")


def check_precision(precision) -> None:
    """ValueError unless ``precision`` is an integer (not a bool) in [1, 17]."""
    if isinstance(precision, bool) or not isinstance(precision, numbers.Integral) or not 1 <= precision <= 17:
        raise ValueError(f"precision must be in [1, 17], got {precision}")


@contextlib.contextmanager
def _rewrite(path, newline=None):
    """A UTF-8 text file opened to write ``path`` without truncating it to zero length.

    A regular file is cut to one byte on open, which the first write
    replaces, and cut at the current position on exit, whether the write
    finished or raised (see the module docstring).  Devices and FIFOs are
    written as ``open`` writes them.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as fh:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        if regular and info.st_size > 1:
            os.ftruncate(fd, 1)
        try:
            yield fh
        finally:
            if regular:
                fh.truncate()


def _encode(value):
    """JSON-ready form of a dataclass, walked field by field in field order.

    ndarrays are left as they are, for :func:`_write_json` to stream.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _write_json(fh, value, level: int = 0) -> None:
    """Write ``value`` to ``fh`` exactly as ``json.dump(value, fh, indent=1)``.

    A one-dimensional float64 ndarray is written as the JSON list of its
    values, ``CHUNK`` values per write; every other ndarray as its
    ``tolist()``.  Keys and scalars go through ``json.dumps``.
    """
    if isinstance(value, np.ndarray) and not (value.ndim == 1 and value.dtype == np.float64 and value.size):
        value = value.tolist()
    if not isinstance(value, (dict, list, tuple, np.ndarray)) or not len(value):
        fh.write(json.dumps(value))
        return
    pad = "\n" + " " * (level + 1)
    if isinstance(value, np.ndarray):
        fh.write("[")
        for start in range(0, value.size, CHUNK):
            # The chunk as json spells a list, brackets dropped, indented by its separator.
            items = json.dumps(value[start : start + CHUNK].tolist(), separators=("," + pad, ": "))
            fh.write(("," if start else "") + pad + items[1:-1])
    elif isinstance(value, dict):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            # json.dump turns int, float, bool and None keys into their JSON spelling.
            name = key if isinstance(key, str) else json.dumps(key)
            fh.write(("," if i else "") + pad + json.dumps(name) + ": ")
            _write_json(fh, item, level + 1)
    else:
        fh.write("[")
        for i, item in enumerate(value):
            fh.write(("," if i else "") + pad)
            _write_json(fh, item, level + 1)
    fh.write("\n" + " " * level + ("}" if isinstance(value, dict) else "]"))


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


def _write_rows(fh, template: str, columns: list[np.ndarray]) -> None:
    """Write ``template % row`` for each row of ``columns``, ``CHUNK`` rows per write."""
    for start in range(0, len(columns[0]), CHUNK):
        rows = zip(*[c[start : start + CHUNK].tolist() for c in columns])
        fh.write("".join(map(template.__mod__, rows)))


def _table(result) -> tuple[list[str], list]:
    """Header and columns of the CSV table of a result.

    A column is a float64 ndarray, or a list of values (floats, None and
    text) that :func:`emit` spells as text cells.
    """
    if isinstance(result, Trajectory):
        names = list(result.observables) or [k for k in result.data if k not in ("q1", "p1", "q2", "p2")]
        columns = [result.times] + [result.data[name] for name in names]
        return ["t"] + names, [np.asarray(c, dtype=float) for c in columns]
    if isinstance(result, SweepResult):
        cells = result.cells
        header = [name for name, _ in result.axes]
        columns = [np.array([c.coords[k] for c in cells], dtype=float) for k in range(len(header))]
        for name in result.spec.observables:
            header += [f"{name}_final", f"{name}_timeavg"]
            columns += [
                [c.final[name] if c.error is None else None for c in cells],
                [c.average[name] if c.error is None else None for c in cells],
            ]
        if len(result.axes) == 2:
            # Overlays run along the minor (velocity) axis: one copy per major value.
            n_major = len(result.axes[0][1])
            for name, values in result.overlays.items():
                header.append(name)
                columns.append(np.tile(np.asarray(values, dtype=float), n_major))
            header.append("region")
            columns.append([c.region for c in cells])
        return header + ["error"], columns + [[c.error for c in cells]]
    if isinstance(result, Spectrum):
        header = list(result.header)
        return header, [[row[k] for row in result.rows] for k in range(len(header))]
    raise TypeError(f"cannot emit {type(result).__name__}")


def _text(value, precision: int, lone: bool = False) -> str:
    r"""``value`` as one CSV text cell, quoted as Python 3.11's
    ``csv.writer(lineterminator="\n")`` quotes it: in double quotes, inner
    quotes doubled, when it holds ``,``, ``"`` or ``\n``; a bare ``\r``
    stays unquoted.  An empty cell of a one-column table (``lone``) is
    ``""``, as csv.writer spells a record of one empty field.
    """
    text = "" if value is None else f"{value:.{precision}g}" if isinstance(value, float) else str(value)
    if "," in text or '"' in text or "\n" in text or (lone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit(result, fmt: str, path, precision: int = 17, config: dict | None = None) -> None:
    """Write a trajectory, sweep or spectrum result to ``path`` as CSV or JSON."""
    check_precision(precision)
    check_format(fmt)
    if fmt == "csv":
        header, columns = _table(result)
        lone = len(header) == 1
        columns = [
            c if isinstance(c, np.ndarray) else np.array([_text(v, precision, lone) for v in c], dtype=object)
            for c in columns
        ]
        # One %-template per row: floats by %g, text cells as they are.
        template = ",".join(f"%.{precision}g" if c.dtype == np.float64 else "%s" for c in columns) + "\n"
        with _rewrite(path, newline="") as fh:
            fh.write(",".join(_text(name, precision, lone) for name in header) + "\n")
            _write_rows(fh, template, columns)
    else:
        kind = next((k for k, cls in RESULT_KINDS.items() if type(result) is cls), None)
        if kind is None:
            raise TypeError(f"cannot emit {type(result).__name__}")
        payload = {"config": config, "result": {"kind": kind, **_encode(result)}}
        with _rewrite(path) as fh:
            _write_json(fh, payload)
            fh.write("\n")


def load_result_json(path):
    """Reconstruct the result object written by :func:`emit` in JSON format."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    d = payload["result"]
    cls = RESULT_KINDS.get(d["kind"])
    if cls is None:
        raise ValueError(f"unknown result kind {d['kind']!r}")
    return _decode(cls, d)


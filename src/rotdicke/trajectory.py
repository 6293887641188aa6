"""The run contract that both engines fill: a :class:`Trajectory` of
observables on a uniform sample grid.

:func:`sample_grid` gives the sample times of a run of either engine, and
:func:`check_grid` is the library's one rule for sweep axes and stored
sample times (1-D, nonempty, finite, strictly increasing).
``OBSERVABLES`` defines each observable once: its mean-field form on the
sampled coordinate arrays and its quantum expectation value, or None where
only the mean field reports it.  ``meanfield.integrate`` and
``quantum.evolve`` fill their columns from it, and
:func:`check_observables` holds the rule on the names a run may ask for.
A trajectory's time average is :func:`time_average` over its samples.

``CHUNK`` is the number of samples handled per pass wherever a run walks
its whole sample grid: the grid check here, the dense output, boundary
check and observable columns of ``meanfield.integrate``, and every CSV and
JSON write in ``io``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

# ModelParams is bound at module level: io.load_result_json resolves the
# field annotations of Trajectory in this namespace.
from .model import ModelParams, check_count, check_positive

__all__ = ["Trajectory", "time_average"]

# Large enough to amortise the per-chunk calls, small enough that a chunk's
# scratch stays far below the size of the arrays being filled or written.
CHUNK = 4096


def _same(a, b) -> bool:
    """a == b, with ndarrays (also inside tuples and dicts) compared by value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return a == b


def eq_by_value(self, other) -> bool:
    """Field-by-field dataclass equality for results that hold ndarrays.

    The generated ``__eq__`` compares field tuples, which raises on an
    ndarray of more than one element.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def check_grid(name: str, values) -> np.ndarray:
    """``values`` as a float array; ValueError unless a nonempty 1-D grid of finite,
    strictly increasing points.  Checked CHUNK pairs at a time (no whole-grid
    temporaries); a NaN fails a comparison, and finite ends bound the rest."""
    t = np.asarray(values, dtype=float)
    pairs = (t[start:start + CHUNK + 1] for start in range(0, t.size - 1, CHUNK))
    if not (t.ndim == 1 and t.size and math.isfinite(t[0]) and math.isfinite(t[-1])
            and all(np.all(p[1:] > p[:-1]) for p in pairs)):
        raise ValueError(f"{name} must be a nonempty 1-D grid of finite, strictly increasing points")
    return t


def sample_grid(t_end: float, sample_count: int) -> np.ndarray:
    """The sample times of a run of either engine: ``sample_count`` uniform
    times from 0 to ``t_end``, both included."""
    check_positive("t_end", t_end)
    check_count("sample_count", sample_count, 2)
    return np.linspace(0.0, t_end, sample_count)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled time series produced by either engine.

    ``data`` maps column names to arrays aligned with ``times``; the
    mean-field engine always includes the phase-space coordinates
    q1, p1, q2, p2 next to whatever observables were attached.
    """

    params: ModelParams
    engine: str  # "meanfield" | "quantum"
    driven: bool
    times: np.ndarray
    data: dict[str, np.ndarray]
    observables: tuple[str, ...] = ()

    __eq__ = eq_by_value

    def __post_init__(self) -> None:
        t = check_grid("times", self.times)
        if t[0] != 0.0:
            raise ValueError(f"first sample must be at t=0, got {t[0]}")
        for name, col in self.data.items():
            if len(col) != t.size:
                raise ValueError(f"column {name!r} has {len(col)} samples, expected {t.size}")
        missing = [name for name in self.observables if name not in self.data]
        if missing:
            raise ValueError(f"observables {missing} have no column in data")

    def final(self, name: str) -> float:
        return float(self.data[name][-1])

    def average(self, name: str) -> float:
        return time_average(self.times, self.data[name])


def time_average(times, values) -> float:
    """Time average over the sample grid, (1/(t_f - t_0)) * integral v dt.

    Trapezoidal quadrature on the given samples; exact for linear data.
    """
    t = check_grid("times", times)
    if t.size < 2:
        raise ValueError("time average needs at least 2 samples")
    return float(np.trapezoid(values, t) / (t[-1] - t[0]))


def _meanfield_photon(q1, p1, q2, p2, j):
    """(q2^2 + p2^2)/(2j), the scaled photon number |alpha|^2/j."""
    return (q2**2 + p2**2) / (2.0 * j)


def _meanfield_parity(q1, p1, q2, p2, j):
    """exp(-2|alpha|^2) ((1-|zeta|^2)/(1+|zeta|^2))^(2j), written in phase space."""
    return np.exp(-(q2**2 + p2**2)) * (1.0 - (q1**2 + p1**2) / (2.0 * j)) ** int(round(2.0 * j))


def _meanfield_scaled_parity(q1, p1, q2, p2, j):
    """Parity with every coordinate rescaled by sqrt(j):
    exp(-(q2^2+p2^2)/j) (1 - (q1^2+p1^2)/(2j^2))^(2j).

    The base must be nonnegative; a base in [-1e-12, 0) is floating residue
    on the edge q1^2 + p1^2 = 2j^2 and counts as 0.
    """
    base = 1.0 - (q1**2 + p1**2) / (2.0 * j * j)
    if np.any(base < -1e-12):
        raise ValueError("q1^2+p1^2 exceeded 2j^2 along the trajectory; scaled parity undefined")
    base = np.maximum(base, 0.0)
    return np.exp(-(q2**2 + p2**2) / j) * base ** int(round(2.0 * j))


def _quantum_photon(ops, state) -> float:
    return state.expectation(ops.adag_a) / ops.j


def _quantum_parity(ops, state) -> float:
    return state.expectation(ops.parity)


class _Observable(NamedTuple):
    meanfield: Callable  # (q1, p1, q2, p2, j) -> value, elementwise on arrays
    quantum: Callable | None  # (OperatorSet, QuantumState) -> float; None: mean-field only


# Every observable, defined once.  The names, and which engine reports which,
# are read from here by check_observables.  The
# quantum values of a^dag a and of the parity are invariant under the frame
# rotation, so the co-rotating-frame expectation is the laboratory one.
OBSERVABLES = {
    "mean_photon_scaled": _Observable(_meanfield_photon, _quantum_photon),
    "parity": _Observable(_meanfield_parity, _quantum_parity),
    "scaled_parity": _Observable(_meanfield_scaled_parity, None),
}


def check_observables(names, engine: str) -> None:
    """The rule on observable names of ProtocolSpec and of both engines: at
    least one, each reported by ``engine``, none repeated."""
    reported = [name for name, row in OBSERVABLES.items() if engine == "meanfield" or row.quantum]
    unsupported = sorted(set(names) - set(reported))
    repeated = sorted({name for name in names if names.count(name) > 1})
    if unsupported:
        raise ValueError(f"unsupported {engine} observables: {unsupported}, not in {reported}")
    if not names:
        raise ValueError("at least one observable is required")
    if repeated:
        raise ValueError(f"repeated observables: {repeated}")

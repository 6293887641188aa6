"""Thermodynamic-limit engine: mean-field equations of motion, and the
observable table of both engines.

The flow lives on (q1, p1, q2, p2) with the spin sector confined to
q1^2 + p1^2 < 4j.  The drive enters through phi(t) = delta_phi * t; an
undriven evolution is the same flow with the drive velocity forced to zero
(the physical ``delta_phi`` of the parameters is then only used by callers
to fix the final time).

The coherent-state labels map onto phase space as

    zeta  = (q1 + i p1) / sqrt(4j - (q1^2 + p1^2)),
    alpha = (q2 + i p2) / sqrt(2).

:func:`integrate` steps the flow with Dormand-Prince 8(5,3) (DOP853) on
plain Python floats, one run at a time: on a 4-vector the per-call cost of
array operations outweighs the arithmetic.  Single runs and every sweep
cell go through this one integrator.  Its loop only steps, in straight-line
float code, and keeps the stages of each step that holds samples in one
flat ``array('d')``; one tableau-driven pass after the loop builds their
dense output.  Both skip the tableau entries that are exactly 0.0 and add
the rest left to right, with no ``sum()``, whose rounding of floats
changed in Python 3.12 (it is compensated from then on).

The interpolant, :func:`integrate`'s boundary check and the observable
columns of ``experiments.run_protocol`` are evaluated ``CHUNK`` samples at
a time into preallocated arrays, with the operations and order of a
whole-grid pass, so the bits do not depend on where the chunks fall.

``_OBSERVABLES`` defines each observable once: its mean-field form on the
sampled coordinate arrays and its quantum expectation value, or None where
only the mean field reports it.
"""

from __future__ import annotations

import bisect
import cmath
import math
import struct
from array import array
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .model import ModelParams, PhasePoint

__all__ = [
    "IntegrationError",
    "Trajectory",
    "eom_rhs",
    "hp_rhs",
    "integrate",
    "classical_hamiltonian",
    "jacobi_integral",
    "time_average",
    "point_from_coherent",
    "coherent_from_point",
]

# rtol 1e-10 leaves up to ~5e-8 relative energy drift over t=50 on energetic
# trajectories; 1e-12 keeps it below 1e-9.
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-12

# Relative distance to the sphere boundary 4j treated as "on the boundary";
# the square-root derivative diverges there.  During stepping the guard acts
# by step rejection (NaN derivatives), so trial evaluations that overshoot
# the domain are retried with a smaller step instead of killing the run.
_BOUNDARY_GUARD = 1e-12
_NANS = (math.nan,) * 4

# DOP853 step control: the next step is the last one times
# _SAFETY * err**(-1/8) (the error estimate has order 7), kept within
# [_MIN_FACTOR, _MAX_FACTOR] times the last.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = -1.0 / 8.0

# Samples handled per pass wherever a run walks its whole sample grid: the
# dense-output evaluation, the boundary check and the observable columns
# here, and every CSV, JSON and snapshot write in ``io``.  Large enough to
# amortise the per-chunk calls, small enough that a chunk's scratch stays
# far below the size of the arrays being filled or written.
CHUNK = 4096


class IntegrationError(RuntimeError):
    """Mean-field integration failure, carrying the time it occurred at."""

    def __init__(self, t: float, message: str):
        super().__init__(f"{message} (t={t!r})")
        self.t = t


def _same(a, b) -> bool:
    """a == b, with ndarrays (also inside tuples and dicts) compared by value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return a == b


def _eq_by_value(self, other) -> bool:
    """Field-by-field dataclass equality for results that hold ndarrays.

    The generated ``__eq__`` compares field tuples, which raises on an
    ndarray of more than one element.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


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

    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("times must be a nonempty 1-D array")
        if t[0] != 0.0:
            raise ValueError(f"first sample must be at t=0, got {t[0]}")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("sample times must be strictly increasing")
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
# are read from here by _check_observables and the CLI.  The
# quantum values of a^dag a and of the parity are invariant under the frame
# rotation, so the co-rotating-frame expectation is the laboratory one.
_OBSERVABLES = {
    "mean_photon_scaled": _Observable(_meanfield_photon, _quantum_photon),
    "parity": _Observable(_meanfield_parity, _quantum_parity),
    "scaled_parity": _Observable(_meanfield_scaled_parity, None),
}


def _check_observables(names, engine: str) -> None:
    """ProtocolSpec's and quantum.evolve's rule on observable names: at least
    one, each reported by ``engine``, none repeated."""
    reported = [name for name, row in _OBSERVABLES.items() if engine == "meanfield" or row.quantum]
    unsupported = sorted(set(names) - set(reported))
    repeated = sorted({name for name in names if names.count(name) > 1})
    if unsupported:
        raise ValueError(f"unsupported {engine} observables: {unsupported}, not in {reported}")
    if not names:
        raise ValueError("at least one observable is required")
    if repeated:
        raise ValueError(f"repeated observables: {repeated}")


def _flow(params: ModelParams, drive: float):
    """Right-hand side f(t, q1, p1, q2, p2) -> (dq1, dp1, dq2, dp2) on floats.

    ``drive`` is the rotation velocity (0 for the undriven flow).  Within
    _BOUNDARY_GUARD of the sphere the derivatives are NaN, which the stepper
    treats as a rejected step.
    """
    omega0 = params.omega0
    omega = params.omega
    two_lam = 2.0 * params.lam
    four_j = 4.0 * params.j
    guard = _BOUNDARY_GUARD * four_j
    # Local names: a run calls f some 10^4-10^5 times.
    cos = math.cos
    sin = math.sin
    sqrt = math.sqrt

    def f(t, q1, p1, q2, p2):
        rem = four_j - (q1 * q1 + p1 * p1)
        if rem < guard:
            return _NANS
        phi = drive * t
        cos_phi = cos(phi)
        sin_phi = sin(phi)
        proj = cos_phi * q1 + sin_phi * p1
        root = sqrt(rem / four_j)
        denom = sqrt(four_j * rem)
        g = two_lam * q2
        return (
            omega0 * p1 - g * proj * p1 / denom + g * root * sin_phi,
            -omega0 * q1 + g * proj * q1 / denom - g * root * cos_phi,
            omega * p2,
            -omega * q2 - two_lam * root * proj,
        )

    return f


def eom_rhs(point: PhasePoint, t: float, params: ModelParams) -> np.ndarray:
    """Time derivative (dq1, dp1, dq2, dp2) of the driven mean-field flow."""
    r2 = point.q1**2 + point.p1**2
    four_j = 4.0 * params.j
    if four_j - r2 < _BOUNDARY_GUARD * four_j:
        raise ValueError(
            f"q1^2+p1^2 = {r2} is on or outside the sphere of radius^2 4j = {four_j}; "
            "the square-root derivative diverges there"
        )
    f = _flow(params, params.delta_phi)
    return np.array(f(t, point.q1, point.p1, point.q2, point.p2))


def hp_rhs(
    alpha: complex, beta: complex, t: float, params: ModelParams
) -> tuple[complex, complex]:
    """Displacement-parameter flow (dalpha/dt, dbeta/dt) of the bosonized model.

    Equivalent to :func:`eom_rhs` under beta = (q1 + i p1)/sqrt(2),
    alpha = (q2 + i p2)/sqrt(2); kept as an independent oracle for it.
    """
    two_j = 2.0 * params.j
    bb = (beta * beta.conjugate()).real
    if bb >= two_j:
        raise ValueError(f"|beta|^2 = {bb} must be below 2j = {two_j}")
    phi = params.delta_phi * t
    e_plus = cmath.exp(1j * phi)
    e_minus = cmath.exp(-1j * phi)
    root = math.sqrt((two_j - bb) / two_j)
    mix = beta.conjugate() * e_plus + beta * e_minus
    re_alpha2 = alpha + alpha.conjugate()
    d_alpha = -1j * (params.omega * alpha + params.lam * root * mix)
    d_beta = -1j * (
        params.omega0 * beta
        + params.lam * root * re_alpha2 * e_plus
        - 0.5
        * params.lam
        * re_alpha2
        * mix
        * beta
        / (math.sqrt(two_j) * math.sqrt(two_j - bb))
    )
    return d_alpha, d_beta


def classical_hamiltonian(
    point: PhasePoint, t: float, params: ModelParams, driven: bool = True
) -> float:
    """Classical Hamiltonian; a constant of motion when the drive is off."""
    four_j = 4.0 * params.j
    r2 = point.q1**2 + point.p1**2
    if r2 > four_j:
        raise ValueError(f"q1^2+p1^2 = {r2} exceeds 4j = {four_j}")
    phi = (params.delta_phi * t) if driven else 0.0
    proj = math.cos(phi) * point.q1 + math.sin(phi) * point.p1
    return (
        0.5 * params.omega0 * (r2 - 2.0 * params.j)
        + 0.5 * params.omega * (point.q2**2 + point.p2**2)
        + 2.0 * params.lam * math.sqrt((four_j - r2) / four_j) * proj * point.q2
    )


def jacobi_integral(point: PhasePoint, t: float, params: ModelParams) -> float:
    """Jacobi integral of the driven flow, its constant of motion.

    In the frame co-rotating with phi(t) = delta_phi * t the driven flow is
    autonomous; its energy is H_cl(t) + delta_phi * ((q1^2 + p1^2)/2 - j).
    """
    r2 = point.q1**2 + point.p1**2
    return classical_hamiltonian(point, t, params, driven=True) + params.delta_phi * (
        0.5 * r2 - params.j
    )


def integrate(
    start: PhasePoint,
    params: ModelParams,
    t_end: float,
    sample_count: int = 1000,
    tol: float = DEFAULT_RTOL,
    driven: bool = True,
) -> Trajectory:
    """Integrate the mean-field flow and sample it on a uniform grid.

    Steps adaptively with the Dormand-Prince 8(5,3) pair (DOP853, relative
    tolerance ``tol``) and reads the ``sample_count`` uniform times, t=0 and
    ``t_end`` included, off the method's 7th-order dense output.  Raises
    :class:`IntegrationError` when step control fails, which in practice
    flags an approach to the q1^2+p1^2 -> 4j boundary.
    """
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count}")
    y0 = (start.q1, start.p1, start.q2, start.p2)
    if not all(map(math.isfinite, y0)):
        raise ValueError(f"start must be finite, got (q1, p1, q2, p2) = {y0}")
    four_j = 4.0 * params.j
    r2 = start.q1**2 + start.p1**2
    if r2 >= four_j:
        raise ValueError(
            f"start violates q1^2+p1^2 < 4j: {r2} >= {four_j}"
        )
    drive = params.delta_phi if driven else 0.0
    t_grid = np.linspace(0.0, t_end, sample_count)
    q1, p1, q2, p2 = _dop853(_flow(params, drive), y0, t_grid, tol, DEFAULT_ATOL)
    for start in range(0, sample_count, CHUNK):
        part = slice(start, start + CHUNK)
        # NaN counts as a violation: a dense-output stage can cross the guard.
        bad = np.nonzero(~(q1[part] ** 2 + p1[part] ** 2 <= four_j))[0]
        if bad.size:
            raise IntegrationError(
                float(t_grid[start + bad[0]]),
                "sampled point violates q1^2+p1^2 <= 4j; step control failed",
            )
    return Trajectory(
        params=params,
        engine="meanfield",
        driven=driven,
        times=t_grid,
        data={"q1": q1, "p1": p1, "q2": q2, "p2": p2},
    )


def _rms(values) -> float:
    # Added left to right: sum() of floats is compensated from Python 3.12 on.
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total) / math.sqrt(len(values))


def _initial_step(f, y, fy, t_end, rtol, atol) -> float:
    """First step size (Hairer, Norsett & Wanner, Solving ODEs I, II.4)."""
    scale = [atol + abs(c) * rtol for c in y]
    d0 = _rms([c / s for c, s in zip(y, scale)])
    d1 = _rms([c / s for c, s in zip(fy, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = f(h0, *[c + h0 * d for c, d in zip(y, fy)])
    d2 = _rms([(b - a) / s for a, b, s in zip(fy, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, t_end)


def _tableau_sum(row, k):
    """sum(a_i k_i) over the a_i of ``row`` that are not exactly 0.0, added
    left to right as the straight-line step adds them; the k_i are arrays."""
    total = None
    for a, stage in zip(row, k):
        if a != 0.0:
            total = a * stage if total is None else total + a * stage
    return total


def _dense_table(f, packed):
    """t, h, then y and F0..F6 per component (34 columns) for every step
    recorded in ``packed``: the 7th-order interpolants of Hairer, Norsett &
    Wanner, Solving ODEs I, II.6.  Stages 13-15 and F0..F6 are computed
    elementwise across the steps, with the bits of a step-by-step pass."""
    rows = np.frombuffer(packed).reshape(-1, 46).T
    t, h, y, new = rows[0], rows[1], rows[2:6], rows[6:10]
    # Stage s as a (component, step) array; stages 1-4 are not recorded.
    k = [rows[10:14], None, None, None, None, *rows[14:].reshape(8, 4, -1)]
    for s in range(13, 16):
        # f at t + c_s h and y + (sum a_s,i k_i) h, on Python floats as in the loop.
        args = (t + _C[s] * h).tolist(), *(y + _tableau_sum(_A[s], k) * h).tolist()
        k.append(np.array(list(map(f, *args))).T)
    delta = new - y
    coeffs = np.stack([
        y, delta, h * k[0] - delta, 2.0 * delta - h * (k[12] + k[0]),
        *(h * _tableau_sum(row, k) for row in _D),
    ])  # (coefficient, component, step)
    return np.column_stack([t, h, coeffs.transpose(2, 1, 0).reshape(len(t), 32)])


def _dop853(f, y, t_grid, rtol, atol):
    """Sample (q1, p1, q2, p2)' = f(t, q1, p1, q2, p2) on ``t_grid``.

    Starts from ``y`` at t_grid[0] = 0; the grid must increase.
    Dormand-Prince 8(5,3) on Python floats (Hairer, Norsett & Wanner,
    Solving ODEs I, II.5 and II.10), with the step control of the DOP853
    code: safety 0.9, step factors 0.2-10, the blended 5th/3rd-order error
    norm, a minimum step of 10 ulp of t, and a NaN right-hand side taken
    as a rejected step.  Returns one array per component.

    The grid is read through ``memoryview(t_grid)``, whose items are Python
    floats, so ``bisect`` finds the samples a step covers without a copy of
    the grid.  The loop only steps: an accepted step that holds grid times
    appends 46 doubles to one flat ``array('d')`` and records the index one
    past its last sample.  After the loop, :func:`_dense_table` turns the
    records into interpolants, and the grid is evaluated ``CHUNK`` samples
    at a time into the four output arrays: ``np.searchsorted`` over the
    recorded ends gives each sample its step, and the Horner scheme runs
    one coefficient at a time.

    A step is straight-line float code.  The tableau is unpacked into
    locals once per call, stage s is held as k<s>_1..k<s>_4 (one local per
    component), and the entries that are exactly 0.0 are skipped.  Every
    other combination is summed left to right in tableau order, as
    y + (sum a k) h, y + h (sum b k) and (sum e k) / scale, so the bits are
    those of summing each full tableau row in a loop.
    """
    # The tableau as locals named by place: a<s>_<i> is _A[s][i], and row 12
    # holds the weights b<i>.  Entries unpacked into _ are exactly 0.0; c0 and
    # c12 are not needed, since stages 0 and 12 are f at t and at t + h.
    # Rows 13-15 and _D belong to the dense output, built by _dense_table.
    _, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, *_ = _C
    (
        _,
        (a1_0,),
        (a2_0, a2_1),
        (a3_0, _, a3_2),
        (a4_0, _, a4_2, a4_3),
        (a5_0, _, _, a5_3, a5_4),
        (a6_0, _, _, a6_3, a6_4, a6_5),
        (a7_0, _, _, a7_3, a7_4, a7_5, a7_6),
        (a8_0, _, _, a8_3, a8_4, a8_5, a8_6, a8_7),
        (a9_0, _, _, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
        (a10_0, _, _, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
        (a11_0, _, _, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
        (b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11),
        *_,
    ) = _A
    e5_0, _, _, _, _, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, _ = _E5
    e3_0, _, _, _, _, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, _ = _E3
    grid = memoryview(t_grid)  # items are Python floats; bisect reads it in place
    t_end = grid[-1]
    t = 0.0
    q1, p1, q2, p2 = y
    k0_1, k0_2, k0_3, k0_4 = f(t, q1, p1, q2, p2)
    h_abs = _initial_step(f, y, (k0_1, k0_2, k0_3, k0_4), t_end, rtol, atol)
    # One record per step holding samples, packed by one struct call
    # (array.extend converts a tuple item by item, ~8x slower per step).
    dense = array("d")
    pack = struct.Struct("46d").pack
    ends = []  # per such step, the index one past its last sample
    next_sample = 0
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise IntegrationError(
                    t,
                    "integration failed (required step fell below 10 ulp of t); "
                    "step rejection this hard flags an approach to the "
                    "q1^2+p1^2 -> 4j boundary",
                )
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            k1_1, k1_2, k1_3, k1_4 = f(
                t + c1 * h,
                q1 + a1_0 * k0_1 * h,
                p1 + a1_0 * k0_2 * h,
                q2 + a1_0 * k0_3 * h,
                p2 + a1_0 * k0_4 * h,
            )
            k2_1, k2_2, k2_3, k2_4 = f(
                t + c2 * h,
                q1 + (a2_0 * k0_1 + a2_1 * k1_1) * h,
                p1 + (a2_0 * k0_2 + a2_1 * k1_2) * h,
                q2 + (a2_0 * k0_3 + a2_1 * k1_3) * h,
                p2 + (a2_0 * k0_4 + a2_1 * k1_4) * h,
            )
            k3_1, k3_2, k3_3, k3_4 = f(
                t + c3 * h,
                q1 + (a3_0 * k0_1 + a3_2 * k2_1) * h,
                p1 + (a3_0 * k0_2 + a3_2 * k2_2) * h,
                q2 + (a3_0 * k0_3 + a3_2 * k2_3) * h,
                p2 + (a3_0 * k0_4 + a3_2 * k2_4) * h,
            )
            k4_1, k4_2, k4_3, k4_4 = f(
                t + c4 * h,
                q1 + (a4_0 * k0_1 + a4_2 * k2_1 + a4_3 * k3_1) * h,
                p1 + (a4_0 * k0_2 + a4_2 * k2_2 + a4_3 * k3_2) * h,
                q2 + (a4_0 * k0_3 + a4_2 * k2_3 + a4_3 * k3_3) * h,
                p2 + (a4_0 * k0_4 + a4_2 * k2_4 + a4_3 * k3_4) * h,
            )
            k5_1, k5_2, k5_3, k5_4 = f(
                t + c5 * h,
                q1 + (a5_0 * k0_1 + a5_3 * k3_1 + a5_4 * k4_1) * h,
                p1 + (a5_0 * k0_2 + a5_3 * k3_2 + a5_4 * k4_2) * h,
                q2 + (a5_0 * k0_3 + a5_3 * k3_3 + a5_4 * k4_3) * h,
                p2 + (a5_0 * k0_4 + a5_3 * k3_4 + a5_4 * k4_4) * h,
            )
            k6_1, k6_2, k6_3, k6_4 = f(
                t + c6 * h,
                q1 + (a6_0 * k0_1 + a6_3 * k3_1 + a6_4 * k4_1 + a6_5 * k5_1) * h,
                p1 + (a6_0 * k0_2 + a6_3 * k3_2 + a6_4 * k4_2 + a6_5 * k5_2) * h,
                q2 + (a6_0 * k0_3 + a6_3 * k3_3 + a6_4 * k4_3 + a6_5 * k5_3) * h,
                p2 + (a6_0 * k0_4 + a6_3 * k3_4 + a6_4 * k4_4 + a6_5 * k5_4) * h,
            )
            k7_1, k7_2, k7_3, k7_4 = f(
                t + c7 * h,
                q1 + (a7_0 * k0_1 + a7_3 * k3_1 + a7_4 * k4_1 + a7_5 * k5_1 + a7_6 * k6_1) * h,
                p1 + (a7_0 * k0_2 + a7_3 * k3_2 + a7_4 * k4_2 + a7_5 * k5_2 + a7_6 * k6_2) * h,
                q2 + (a7_0 * k0_3 + a7_3 * k3_3 + a7_4 * k4_3 + a7_5 * k5_3 + a7_6 * k6_3) * h,
                p2 + (a7_0 * k0_4 + a7_3 * k3_4 + a7_4 * k4_4 + a7_5 * k5_4 + a7_6 * k6_4) * h,
            )
            k8_1, k8_2, k8_3, k8_4 = f(
                t + c8 * h,
                q1 + (a8_0 * k0_1 + a8_3 * k3_1 + a8_4 * k4_1 + a8_5 * k5_1 + a8_6 * k6_1
                     + a8_7 * k7_1) * h,
                p1 + (a8_0 * k0_2 + a8_3 * k3_2 + a8_4 * k4_2 + a8_5 * k5_2 + a8_6 * k6_2
                     + a8_7 * k7_2) * h,
                q2 + (a8_0 * k0_3 + a8_3 * k3_3 + a8_4 * k4_3 + a8_5 * k5_3 + a8_6 * k6_3
                     + a8_7 * k7_3) * h,
                p2 + (a8_0 * k0_4 + a8_3 * k3_4 + a8_4 * k4_4 + a8_5 * k5_4 + a8_6 * k6_4
                     + a8_7 * k7_4) * h,
            )
            k9_1, k9_2, k9_3, k9_4 = f(
                t + c9 * h,
                q1 + (a9_0 * k0_1 + a9_3 * k3_1 + a9_4 * k4_1 + a9_5 * k5_1 + a9_6 * k6_1
                     + a9_7 * k7_1 + a9_8 * k8_1) * h,
                p1 + (a9_0 * k0_2 + a9_3 * k3_2 + a9_4 * k4_2 + a9_5 * k5_2 + a9_6 * k6_2
                     + a9_7 * k7_2 + a9_8 * k8_2) * h,
                q2 + (a9_0 * k0_3 + a9_3 * k3_3 + a9_4 * k4_3 + a9_5 * k5_3 + a9_6 * k6_3
                     + a9_7 * k7_3 + a9_8 * k8_3) * h,
                p2 + (a9_0 * k0_4 + a9_3 * k3_4 + a9_4 * k4_4 + a9_5 * k5_4 + a9_6 * k6_4
                     + a9_7 * k7_4 + a9_8 * k8_4) * h,
            )
            k10_1, k10_2, k10_3, k10_4 = f(
                t + c10 * h,
                q1 + (a10_0 * k0_1 + a10_3 * k3_1 + a10_4 * k4_1 + a10_5 * k5_1 + a10_6 * k6_1
                     + a10_7 * k7_1 + a10_8 * k8_1 + a10_9 * k9_1) * h,
                p1 + (a10_0 * k0_2 + a10_3 * k3_2 + a10_4 * k4_2 + a10_5 * k5_2 + a10_6 * k6_2
                     + a10_7 * k7_2 + a10_8 * k8_2 + a10_9 * k9_2) * h,
                q2 + (a10_0 * k0_3 + a10_3 * k3_3 + a10_4 * k4_3 + a10_5 * k5_3 + a10_6 * k6_3
                     + a10_7 * k7_3 + a10_8 * k8_3 + a10_9 * k9_3) * h,
                p2 + (a10_0 * k0_4 + a10_3 * k3_4 + a10_4 * k4_4 + a10_5 * k5_4 + a10_6 * k6_4
                     + a10_7 * k7_4 + a10_8 * k8_4 + a10_9 * k9_4) * h,
            )
            k11_1, k11_2, k11_3, k11_4 = f(
                t + c11 * h,
                q1 + (a11_0 * k0_1 + a11_3 * k3_1 + a11_4 * k4_1 + a11_5 * k5_1 + a11_6 * k6_1
                     + a11_7 * k7_1 + a11_8 * k8_1 + a11_9 * k9_1 + a11_10 * k10_1) * h,
                p1 + (a11_0 * k0_2 + a11_3 * k3_2 + a11_4 * k4_2 + a11_5 * k5_2 + a11_6 * k6_2
                     + a11_7 * k7_2 + a11_8 * k8_2 + a11_9 * k9_2 + a11_10 * k10_2) * h,
                q2 + (a11_0 * k0_3 + a11_3 * k3_3 + a11_4 * k4_3 + a11_5 * k5_3 + a11_6 * k6_3
                     + a11_7 * k7_3 + a11_8 * k8_3 + a11_9 * k9_3 + a11_10 * k10_3) * h,
                p2 + (a11_0 * k0_4 + a11_3 * k3_4 + a11_4 * k4_4 + a11_5 * k5_4 + a11_6 * k6_4
                     + a11_7 * k7_4 + a11_8 * k8_4 + a11_9 * k9_4 + a11_10 * k10_4) * h,
            )
            n1 = q1 + h * (b0 * k0_1 + b5 * k5_1 + b6 * k6_1 + b7 * k7_1 + b8 * k8_1 + b9 * k9_1
                          + b10 * k10_1 + b11 * k11_1)
            n2 = p1 + h * (b0 * k0_2 + b5 * k5_2 + b6 * k6_2 + b7 * k7_2 + b8 * k8_2 + b9 * k9_2
                          + b10 * k10_2 + b11 * k11_2)
            n3 = q2 + h * (b0 * k0_3 + b5 * k5_3 + b6 * k6_3 + b7 * k7_3 + b8 * k8_3 + b9 * k9_3
                          + b10 * k10_3 + b11 * k11_3)
            n4 = p2 + h * (b0 * k0_4 + b5 * k5_4 + b6 * k6_4 + b7 * k7_4 + b8 * k8_4 + b9 * k9_4
                          + b10 * k10_4 + b11 * k11_4)
            k12_1, k12_2, k12_3, k12_4 = f(t + h, n1, n2, n3, n4)
            scale = atol + max(abs(q1), abs(n1)) * rtol
            x5 = (e5_0 * k0_1 + e5_5 * k5_1 + e5_6 * k6_1 + e5_7 * k7_1 + e5_8 * k8_1 + e5_9 * k9_1
                 + e5_10 * k10_1 + e5_11 * k11_1) / scale
            x3 = (e3_0 * k0_1 + e3_5 * k5_1 + e3_6 * k6_1 + e3_7 * k7_1 + e3_8 * k8_1 + e3_9 * k9_1
                 + e3_10 * k10_1 + e3_11 * k11_1) / scale
            err5 = x5 * x5
            err3 = x3 * x3
            scale = atol + max(abs(p1), abs(n2)) * rtol
            x5 = (e5_0 * k0_2 + e5_5 * k5_2 + e5_6 * k6_2 + e5_7 * k7_2 + e5_8 * k8_2 + e5_9 * k9_2
                 + e5_10 * k10_2 + e5_11 * k11_2) / scale
            x3 = (e3_0 * k0_2 + e3_5 * k5_2 + e3_6 * k6_2 + e3_7 * k7_2 + e3_8 * k8_2 + e3_9 * k9_2
                 + e3_10 * k10_2 + e3_11 * k11_2) / scale
            err5 += x5 * x5
            err3 += x3 * x3
            scale = atol + max(abs(q2), abs(n3)) * rtol
            x5 = (e5_0 * k0_3 + e5_5 * k5_3 + e5_6 * k6_3 + e5_7 * k7_3 + e5_8 * k8_3 + e5_9 * k9_3
                 + e5_10 * k10_3 + e5_11 * k11_3) / scale
            x3 = (e3_0 * k0_3 + e3_5 * k5_3 + e3_6 * k6_3 + e3_7 * k7_3 + e3_8 * k8_3 + e3_9 * k9_3
                 + e3_10 * k10_3 + e3_11 * k11_3) / scale
            err5 += x5 * x5
            err3 += x3 * x3
            scale = atol + max(abs(p2), abs(n4)) * rtol
            x5 = (e5_0 * k0_4 + e5_5 * k5_4 + e5_6 * k6_4 + e5_7 * k7_4 + e5_8 * k8_4 + e5_9 * k9_4
                 + e5_10 * k10_4 + e5_11 * k11_4) / scale
            x3 = (e3_0 * k0_4 + e3_5 * k5_4 + e3_6 * k6_4 + e3_7 * k7_4 + e3_8 * k8_4 + e3_9 * k9_4
                 + e3_10 * k10_4 + e3_11 * k11_4) / scale
            err5 += x5 * x5
            err3 += x3 * x3
            if k12_1 != k12_1:
                # f is NaN at the new point (past the boundary guard).  Both
                # error sums weight that stage by 0.0, so reject it here.
                err = math.nan
            elif err5 == 0.0 and err3 == 0.0:
                err = 0.0
            else:  # RMS over the four components
                err = h * err5 / math.sqrt((err5 + 0.01 * err3) * 4.0)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # max() keeps MIN_FACTOR for a NaN error: the step is rejected.
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_EXPONENT)
            rejected = True
        if grid[next_sample] <= t_new:
            # t, h, y, the new y, then stages 0 and 5-12: rows 13-15 of _A
            # and every row of _D weight stages 1-4 by exactly 0.0.
            dense.frombytes(pack(
                t, h, q1, p1, q2, p2, n1, n2, n3, n4,
                k0_1, k0_2, k0_3, k0_4, k5_1, k5_2, k5_3, k5_4, k6_1, k6_2, k6_3, k6_4,
                k7_1, k7_2, k7_3, k7_4, k8_1, k8_2, k8_3, k8_4, k9_1, k9_2, k9_3, k9_4,
                k10_1, k10_2, k10_3, k10_4, k11_1, k11_2, k11_3, k11_4,
                k12_1, k12_2, k12_3, k12_4,
            ))
            next_sample = bisect.bisect_right(grid, t_new, next_sample)
            ends.append(next_sample)
        t, q1, p1, q2, p2 = t_new, n1, n2, n3, n4
        k0_1, k0_2, k0_3, k0_4 = k12_1, k12_2, k12_3, k12_4
    table = _dense_table(f, dense)
    ends = np.array(ends)
    out = [np.empty(len(grid)) for _ in range(4)]
    for start in range(0, len(grid), CHUNK):
        stop = min(start + CHUNK, len(grid))
        seg = np.searchsorted(ends, np.arange(start, stop), side="right")
        x = (t_grid[start:stop] - table[seg, 0]) / table[seg, 1]
        x1 = 1.0 - x
        for base, column in zip(range(2, 34, 8), out):
            # y + x (F0 + (1-x) (F1 + x (F2 + ... + x F6))), innermost first.
            yc = column[start:stop]
            np.multiply(table[seg, base + 7], x, out=yc)
            for i, row in enumerate(range(base + 6, base, -1), start=1):
                yc += table[seg, row]
                yc *= x1 if i % 2 else x
            yc += table[seg, base]
    return out


def time_average(times, values) -> float:
    """Time average over the sample grid, (1/(t_f - t_0)) * integral v dt.

    Trapezoidal quadrature on the given samples; exact for linear data.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < 2:
        raise ValueError("time average needs at least 2 samples")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("sample times must be strictly increasing")
    return float(np.trapezoid(v, t) / (t[-1] - t[0]))


def point_from_coherent(alpha: complex, zeta: complex, j: float, t: float = 0.0) -> PhasePoint:
    """Phase-space point labelled by the coherent-state pair (alpha, zeta)."""
    alpha = complex(alpha)
    zeta = complex(zeta)
    s = abs(zeta) ** 2
    scale = 2.0 * math.sqrt(j / (1.0 + s))
    return PhasePoint(
        q1=scale * zeta.real,
        p1=scale * zeta.imag,
        q2=math.sqrt(2.0) * alpha.real,
        p2=math.sqrt(2.0) * alpha.imag,
        t=t,
    )


def coherent_from_point(point: PhasePoint, j: float) -> tuple[complex, complex]:
    """Inverse of :func:`point_from_coherent`."""
    r2 = point.q1**2 + point.p1**2
    four_j = 4.0 * j
    if r2 >= four_j:
        raise ValueError(f"q1^2+p1^2 = {r2} must be below 4j = {four_j}")
    zeta = complex(point.q1, point.p1) / math.sqrt(four_j - r2)
    alpha = complex(point.q2, point.p2) / math.sqrt(2.0)
    return alpha, zeta


# Dormand-Prince 8(5,3) tableau, as published with the DOP853 code (Hairer,
# Norsett & Wanner).  Row s of _A holds a_s0..a_s,s-1; rows 1-11 are the
# stages, row 12 the weights _B, rows 13-15 the extra stages of the dense
# output, whose coefficients beyond the first three are _D.  _E5 and _E3
# weight the 13 stages (the last is f at the new point) into the 5th- and
# 3rd-order error estimates.  _dop853 unpacks rows 1-12, _E5 and _E3 into
# locals; _dense_table reads rows 13-15 and _D as they are.
_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1,
    0.2, 0.777777777777777777777777777778,
)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
    (
        5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
        4.45031289275240888144113950566, 1.89151789931450038304281599044,
        -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
        -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
        4.47106157277725905176885569043e-2,
    ),
    (
        5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
        2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
        -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
        8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3,
    ),
    (
        3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
        2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
        -5.49237485713909884646569340306e-2, 0.0, 0.0, -1.08347328697249322858509316994e-4,
        3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
        1.41312443674632500278074618366e-1,
    ),
    (
        -4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
        -4.69762141536116384314449447206, 7.68342119606259904184240953878,
        4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0,
        -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
        -9.15095847217987001081870187138,
    ),
)
_B = _A[12]
_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0,
)
# The 3rd-order estimate is _B less these weights at stages 0, 8 and 11.
_E3 = list(_B) + [0.0]
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E3 = tuple(_E3)
_D = (
    (
        -0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
        0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
        0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
        -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
        0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
        0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
        -0.44360363875948939664310572000e+1,
    ),
    (
        0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
        0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
        -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
        0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
        -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
        -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
        0.35816841486394083752465898540e+2,
    ),
    (
        0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
        -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
        0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
        0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
        0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
        -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
        0.11992291136182789328035130030e+2,
    ),
    (
        -0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
        -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
        0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
        -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
        0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
        0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
        -0.14972683625798562581422125276e+3,
    ),
)

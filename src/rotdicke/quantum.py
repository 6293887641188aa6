"""Exact finite-size engine on the truncated Fock x Dicke product basis.

Basis ordering is m-major, n-minor: the amplitude of |n>|j,m> sits at flat
index (m+j)*(n_max+1) + n, with m = -j..j and n = 0..n_max.  Operators are
real symmetric and never stored as matrices: a^dag a and the parity are
diagonals, and a Hamiltonian is its diagonal plus the tridiagonal factors
of its coupling term (see :class:`Hamiltonian`).  Every product H v runs
through one stencil method (:meth:`_Stencil.product`) on a ghost-padded
copy of the grid: (k, n) sits at flat index (k+1)*(n_max+2) + n, behind a
zero row above and below and a zero column after each row, so each
neighbour is a fixed shift (+-1 along the Fock axis, +-(n_max+2) along the
spin axis) and H v is eight ufunc calls on contiguous 1-D slices of the
interior rows, in O(dim).  The slices are views bound once: the stencil's
own at its construction, a vector's by the caller.  Only :class:`_Stencil`
computes a position on this grid.

Propagation approximates exp(-i H dt) by a Chebyshev expansion of the
spectrally rescaled Hamiltonian with Bessel-function coefficients
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), within Gershgorin
bounds on the spectrum; the Bessel values come from Miller's backward
recurrence (:func:`_bessel_j`).  A step (:func:`chebyshev_step`) pads psi
once, rotates the terms through three padded vectors whose views it binds
once, and runs every term and the sum over the interior rows alone, so the
ghost rows are never written.  H is the co-rotating-frame Hamiltonian

    H_rot = (omega0 + delta_phi) J_z + omega a^dag a
            + (lam/sqrt(2j)) (a + a^dag)(J_+ + J_-)

at the ``delta_phi`` of the parameters, the undriven one at 0; only
:func:`rotdicke.experiments.run_protocol` knows undriven comparison runs
and names the field a failed run comes from.  Its expectation values of
a^dag a and of the parity Pi = exp(i pi N) coincide with the
laboratory-frame ones (both commute with J_z).
:func:`evolve` records them into a :class:`rotdicke.trajectory.Trajectory`
through the quantum entries of the observable table in
:mod:`rotdicke.trajectory`, which also holds their mean-field forms.

The ground state is the lowest eigenvector of the undriven Hamiltonian in
the even-parity sector, found by Lanczos on the matrix-free operator from
the deterministic Perron start (-1)^k (:func:`ground_state`).  The Ritz
pairs of its tridiagonal matrix come from Laguerre's iteration inside a
Sturm-sequence bracket and from inverse iteration, in O(k) Python
arithmetic (:func:`_ritz_pair`).  Nothing here imports scipy or
numpy.random, or calls a LAPACK eigensolver.  :func:`initial_state` builds
a run's start, ground or coherent, growing an open n_max until it fits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ModelParams,
    check_count,
    check_label,
    check_spin,
    initial_state_params,
)
from .trajectory import OBSERVABLES, Trajectory, check_observables, sample_grid

__all__ = [
    "PropagationError",
    "QuantumState",
    "Hamiltonian",
    "OperatorSet",
    "checked_dim",
    "build_operators",
    "spectral_bounds",
    "chebyshev_order",
    "chebyshev_coefficients",
    "chebyshev_step",
    "evolve",
    "coherent_state",
    "ground_state",
    "initial_state",
]

DEFAULT_DIM_CAP = 200_000
TRUNCATION_TOL = 1e-10
N_MAX_FLOOR = 100
TOP_ROW_TOL = 1e-12

# Largest Chebyshev expansion order (stencil products per step); see
# chebyshev_order for the work bound it comes from.
_CHEBYSHEV_ORDER_CAP = 10**7

# Per-step norm drift above this aborts propagation (insufficient order or
# bad spectral bounds); drift is checked, never silently renormalized away.
_NORM_DRIFT_TOL = 1e-8

# ground_state's Lanczos iteration (_lowest_eigenvector): iteration cap,
# Ritz-pair check interval, rows by which the Krylov block grows, relative
# residual and relative breakdown thresholds.
_LANCZOS_MAX_ITER = 1000
_LANCZOS_CHECK = 10
_LANCZOS_CHUNK = 50
_LANCZOS_RTOL = 1e-13
_LANCZOS_BREAKDOWN = 1e-12

# _bessel_j divides its running values by this (an exact power of two)
# whenever one exceeds it.
_BESSEL_RESCALE = 2.0**500


class PropagationError(RuntimeError):
    """Chebyshev propagation failure (norm drift beyond tolerance)."""


@dataclass(frozen=True)
class QuantumState:
    """Complex amplitude vector over the truncated product basis."""

    amplitudes: np.ndarray
    j: float
    n_max: int

    def __post_init__(self) -> None:
        check_spin(self.j)
        check_count("n_max", self.n_max, 0)
        dim = (self.n_max + 1) * int(round(2 * self.j + 1))
        if self.amplitudes.shape != (dim,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, expected ({dim},)"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def expectation(self, op) -> float:
        """<psi|op|psi> for a :class:`Hamiltonian` or a diagonal given as a 1-D array."""
        psi = self.amplitudes
        applied = op * psi if isinstance(op, np.ndarray) else op.apply(psi)
        return float(np.real(np.vdot(psi, applied)))

    def overlap(self, other: "QuantumState") -> complex:
        return complex(np.vdot(other.amplitudes, self.amplitudes))


class Hamiltonian:
    """Real symmetric H = diag(d) + c (J_+ + J_-) (x) (a + a^dag), applied matrix-free.

    Stored in O(dim) numbers: the diagonal ``d`` over the product basis, the
    off-diagonals of the two tridiagonal factors (``spin_offdiag[k]`` =
    <m+1|J_+|m> at m = k - j, ``field_offdiag[n-1]`` = <n-1|a|n> = sqrt(n))
    and the scalar coupling ``c``.  There is no dense form: every product
    goes through :meth:`_Stencil.product`.  ``h.apply(v)`` pads v, binds its
    views and unpads the one product (for one-off products such as <H>);
    repeated products (the Chebyshev recurrence, Lanczos) build one stencil,
    bind their vectors' views once and stay on the padded grid.
    """

    def __init__(
        self,
        diagonal: np.ndarray,
        spin_offdiag: np.ndarray,
        field_offdiag: np.ndarray,
        coupling: float,
    ):
        self.diagonal = diagonal
        self.spin_offdiag = spin_offdiag
        self.field_offdiag = field_offdiag
        self.coupling = float(coupling)
        self.grid = (spin_offdiag.size + 1, field_offdiag.size + 1)

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored arrays."""
        return self.diagonal.nbytes + self.spin_offdiag.nbytes + self.field_offdiag.nbytes

    def apply(self, v: np.ndarray) -> np.ndarray:
        """H v, in the dtype of ``v`` (at least float)."""
        stencil = _Stencil(self, np.result_type(v, float))
        views = stencil.views(stencil.pad(v))
        return stencil.unpad(stencil.product(*views, np.empty_like(views[0])))

    def row_radii(self) -> np.ndarray:
        """Gershgorin radii: the off-diagonal absolute row sums of H."""
        spin = np.zeros(self.grid[0])
        spin[:-1] += self.spin_offdiag
        spin[1:] += self.spin_offdiag
        field = np.zeros(self.grid[1])
        field[:-1] += self.field_offdiag
        field[1:] += self.field_offdiag
        return abs(self.coupling) * np.outer(spin, field).ravel()


class _Stencil:
    """factor * (H - shift) as one stencil on the ghost-padded grid, in one dtype.

    Point (k, n) of the (2j+1) x (n_max+1) grid sits at flat index
    (k+1)*w + n, w = n_max + 2, of a padded vector of length (2j+3)*w.  The
    row above the grid, the row below it and the last column of every row
    are ghosts holding zeros, so every neighbour is a fixed shift (+-1 along
    the Fock axis, +-w along the spin axis) and a product is eight ufunc
    calls on contiguous 1-D slices of the interior rows.  The factors are
    held over those rows in the vector's dtype, so no call casts:

    * ``diagonal``: factor * (d - shift), zero in the ghost column;
    * ``field_up``: the bond sqrt(n+1) from (k, n) to (k, n+1), zero at
      n = n_max and in the ghost column; ``field_down`` is the same bonds
      one point earlier, the bond from each point's lower neighbour;
    * ``spin_up``: the bond factor * c * <m+1|J_+|m> from row k to row k+1,
      zero on the last row; ``spin_down`` is the same bonds one row
      earlier, behind the ghost row's zeros.

    :meth:`product` is the one product, and the only way H touches a
    vector.  It takes a vector's interior rows and their shifts by +1 and -1
    as views the caller binds once (see :meth:`views`), and writes the
    interior rows of the result; the factors, the field part's three views
    and the scratch are bound once, here.  Each sum is added in the order of
    the products on the unpadded grid, so a padded product carries the same
    bits.  :meth:`pad`, :meth:`unpad`, :meth:`views` and :meth:`slots` hold
    every padded position.  A stencil is per-call scratch; nothing keeps it.
    """

    def __init__(self, h: Hamiltonian, dtype, shift: float = 0.0, factor: float = 1.0):
        rows, cols = h.grid
        self.grid = h.grid
        self.width = width = cols + 1
        self.size = (rows + 2) * width
        self.dtype = dtype
        diagonal = np.zeros((rows, width), dtype)
        diagonal[:, :cols] = ((h.diagonal - shift) * factor).reshape(h.grid)
        field = np.zeros(rows * width + 1, dtype)
        field[1:].reshape(rows, width)[:, : cols - 1] = h.field_offdiag
        spin = np.zeros((rows + 1, width), dtype)
        spin[1:rows, :cols] = ((h.coupling * factor) * h.spin_offdiag)[:, None]
        # The field part (a + a^dag) v, zero on the ghost rows, seen over the
        # interior rows and one row below and above them; and one product's
        # worth of scratch.
        field_part = np.zeros(self.size, dtype)
        self._bound = (
            field[1:],
            field[:-1],
            diagonal.ravel(),
            spin.ravel()[width:],
            spin.ravel()[:-width],
            field_part[width : self.size - width],
            field_part[2 * width :],
            field_part[: self.size - 2 * width],
            np.empty(rows * width, dtype),
        )

    def zeros(self) -> np.ndarray:
        """A padded vector of zeros."""
        return np.zeros(self.size, self.dtype)

    def views(self, padded: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The interior rows of a padded vector and their shifts by +1 and -1, as views."""
        w, size = self.width, self.size
        return padded[w : size - w], padded[w + 1 : size - w + 1], padded[w - 1 : size - w - 1]

    def _grid_view(self, rows: np.ndarray) -> np.ndarray:
        """The grid points of interior rows, as a (2j+1, n_max+1) view."""
        return rows.reshape(-1, self.width)[:, :-1]

    def pad(self, v: np.ndarray) -> np.ndarray:
        """``v`` (over the unpadded basis) on the padded grid."""
        padded = self.zeros()
        self._grid_view(self.views(padded)[0])[...] = v.reshape(self.grid)
        return padded

    def slots(self, indices: np.ndarray) -> np.ndarray:
        """Padded-grid positions of basis indices: i = k*(n_max+1) + n sits at i + k + w."""
        return indices + indices // self.grid[1] + self.width

    def unpad(self, rows: np.ndarray) -> np.ndarray:
        """The grid points of the interior rows ``rows`` in basis order, as a new vector."""
        return self._grid_view(rows).flatten()

    def product(self, v: np.ndarray, above: np.ndarray, below: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` = factor * (H - shift) v over the interior rows.

        ``v``, ``above`` and ``below`` are the :meth:`views` of one padded
        vector, whose ghosts must be finite (they meet only zero factors);
        ``out`` is interior-length and must not alias them.
        """
        field_up, field_down, diagonal, spin_up, spin_down, inner, inner_above, inner_below, scratch = self._bound
        multiply, add = np.multiply, np.add
        # (a + a^dag) along the Fock axis ...
        multiply(above, field_up, inner)
        multiply(below, field_down, scratch)
        add(inner, scratch, inner)
        # ... then the diagonal and (J_+ + J_-), scaled by the coupling, along the spin axis.
        multiply(diagonal, v, out)
        multiply(spin_up, inner_above, scratch)
        add(out, scratch, out)
        multiply(spin_down, inner_below, scratch)
        add(out, scratch, out)
        return out


@dataclass(frozen=True)
class OperatorSet:
    """Operators on the truncated basis for one parameter set.

    ``adag_a`` and ``parity`` are diagonal and stored as 1-D arrays of
    their diagonals; ``h_dicke`` (undriven, for :func:`ground_state`) and
    ``h_rot`` (co-rotating frame, the one that propagates) are matrix-free
    :class:`Hamiltonian` objects that share their two tridiagonal factors.
    Nothing is O(dim^2).
    """

    j: float
    n_max: int
    dim: int
    adag_a: np.ndarray
    parity: np.ndarray
    h_dicke: Hamiltonian
    h_rot: Hamiltonian


def checked_dim(two_j: int, n_max: int) -> int:
    """Basis dimension (n_max+1)(2j+1); ValueError when it exceeds ``DEFAULT_DIM_CAP``."""
    dim = (two_j + 1) * (n_max + 1)
    if dim > DEFAULT_DIM_CAP:
        raise ValueError(
            f"basis dimension (n_max+1)(2j+1) = {dim} exceeds the cap {DEFAULT_DIM_CAP}"
        )
    return dim


def build_operators(params: ModelParams) -> OperatorSet:
    """Build the operators for ``params`` (n_max must be set)."""
    if params.n_max is None:
        raise ValueError("params.n_max must be set to build operators")
    j = params.j
    n_max = params.n_max
    two_j = params.two_j
    dim_spin = two_j + 1
    dim_field = n_max + 1
    dim = checked_dim(two_j, n_max)

    n_vals = np.arange(dim_field, dtype=float)
    m_vals = np.arange(dim_spin, dtype=float) - j

    # a |n> = sqrt(n) |n-1>; J_+ |j,m> = sqrt((j-m)(j+m+1)) |j,m+1>.
    field_offdiag = np.sqrt(n_vals[1:])
    spin_offdiag = np.sqrt((j - m_vals[:-1]) * (j + m_vals[:-1] + 1.0))
    coupling = params.lam / math.sqrt(2.0 * j)

    ones_spin = np.ones(dim_spin)
    ones_field = np.ones(dim_field)
    adag_a = np.kron(ones_spin, n_vals)
    jz = np.kron(m_vals, ones_field)
    ntot = adag_a + jz + j
    parity = np.where(np.round(ntot).astype(int) % 2 == 0, 1.0, -1.0)

    h_dicke = Hamiltonian(
        params.omega0 * jz + params.omega * adag_a, spin_offdiag, field_offdiag, coupling
    )
    h_rot = Hamiltonian(
        (params.omega0 + params.delta_phi) * jz + params.omega * adag_a,
        spin_offdiag,
        field_offdiag,
        coupling,
    )
    return OperatorSet(
        j=j,
        n_max=n_max,
        dim=dim,
        adag_a=adag_a,
        parity=parity,
        h_dicke=h_dicke,
        h_rot=h_rot,
    )


def spectral_bounds(h: Hamiltonian) -> tuple[float, float]:
    """Gershgorin bounds (E_min, E_max) enclosing the spectrum of ``h``.

    min(d_i - r_i) and max(d_i + r_i) over the diagonal d and the
    off-diagonal absolute row sums r, in O(dim); exact when the coupling is
    zero.
    """
    radii = h.row_radii()
    return float(np.min(h.diagonal - radii)), float(np.max(h.diagonal + radii))


def chebyshev_order(dt: float, e_min: float, e_max: float) -> int:
    """Expansion order M = ceil(e * dt * (E_max - E_min)/4) + 20.

    The Bessel tail J_k decays superexponentially past k ~ dt*(E_max-E_min)/2;
    the margin buys close-to-machine-precision truncation.

    M is capped at ``_CHEBYSHEV_ORDER_CAP`` = 10^7 by a work bound of 10^7
    stencil products per step.  Each product costs microseconds whatever
    the basis (3 us on the smallest, dim 4, on a 2-core x86 machine), so a
    step at the cap takes half a minute or more, and its coefficient table
    holds 10^7 complex values (160 MB).  Past the cap (an extreme frequency
    such as omega = 1e200 spreads the spectrum over ~omega*n_max) a
    ValueError names dt and the spectral span.
    """
    span = e_max - e_min
    if span < 0.0:
        raise ValueError("E_max must be >= E_min")
    terms = math.e * abs(dt) * span / 4.0
    if not terms <= _CHEBYSHEV_ORDER_CAP - 20:
        raise ValueError(
            f"Chebyshev order for dt = {dt:.6g} over the spectral span E_max - E_min = "
            f"{span:.6g} exceeds the cap of {_CHEBYSHEV_ORDER_CAP} terms per step"
        )
    return int(math.ceil(terms)) + 20


def _bessel_j(x: float, order: int) -> np.ndarray:
    """J_0(x)..J_order(x) by Miller's backward recurrence.

    J_(k-1) = (2k/x) J_k - J_(k+1) is run downward from J_(N+1) = 0, J_N = 1
    at an N far enough above both ``order`` and |x| that the error of this
    arbitrary start has shrunk below rounding by the time the recurrence
    reaches them.  The values are rescaled by powers of two against overflow
    and normalised by J_0 + 2 sum_k J_2k = 1 (Gautschi, SIAM Rev. 9, 24
    (1967); Abramowitz & Stegun 9.12).  J_k(0) = delta_k0 exactly, and
    J_k(-x) = (-1)^k J_k(x).
    """
    out = np.zeros(order + 1)
    ax = abs(x)
    if ax < 1e-150:
        # The recurrence's growth 2k/x would overflow; the leading series
        # term (x/2)^k/k! is exact to rounding here (and 0 at x = 0).
        term = 1.0
        for k in range(order + 1):
            out[k] = term
            term *= 0.5 * ax / (k + 1)
    else:
        top = max(order, math.ceil(ax))
        upper, current, norm = 0.0, 1.0, 0.0
        for k in range(top + math.isqrt(160 * top) + 10, 0, -1):
            if k <= order:
                out[k] = current
            if k % 2 == 0:
                norm += 2.0 * current
            upper, current = current, 2.0 * k / ax * current - upper
            if abs(current) > _BESSEL_RESCALE:
                upper /= _BESSEL_RESCALE
                current /= _BESSEL_RESCALE
                norm /= _BESSEL_RESCALE
                out[k:] /= _BESSEL_RESCALE
        out[0] = current
        out /= norm + current
    if x < 0.0:
        out[1::2] *= -1.0
    return out


def chebyshev_coefficients(dt: float, e_min: float, e_max: float, order: int) -> np.ndarray:
    """Coefficients a_k of exp(-i H dt) = sum_k a_k T_k(h_rescaled), k = 0..order.

    a_k = (-i)^k exp(-i dt (E_max+E_min)/2) (2 - delta_k0) J_k(dt (E_max-E_min)/2),
    with the Bessel values from :func:`_bessel_j`.
    """
    if e_max <= e_min:
        raise ValueError("requires E_max > E_min")
    check_count("order", order, 0)
    k = np.arange(order + 1)
    phase = np.exp(-1j * dt * 0.5 * (e_max + e_min))
    weight = np.where(k == 0, 1.0, 2.0)
    return (-1j) ** k * phase * weight * _bessel_j(dt * 0.5 * (e_max - e_min), order)


def chebyshev_step(
    ops: OperatorSet,
    psi: QuantumState,
    dt: float,
    bounds: tuple[float, float] | None = None,
    order: int | None = None,
    coefficients: np.ndarray | None = None,
) -> QuantumState:
    """One step psi -> exp(-i H dt) psi via the Chebyshev three-term recurrence.

    H is the co-rotating Hamiltonian ``ops.h_rot``.
    The result is never renormalized; a norm drift beyond 1e-8, or a NaN
    one (a step that overflows), raises :class:`PropagationError` instead.
    """
    h = ops.h_rot
    if bounds is None:
        bounds = spectral_bounds(h)
    e_min, e_max = bounds
    if order is None:
        order = chebyshev_order(dt, e_min, e_max)
    if coefficients is None:
        coefficients = chebyshev_coefficients(dt, e_min, e_max, order)

    # The recurrence T_k = 2 h T_(k-1) - T_(k-2) with h = (H - center)/half_span
    # applies 2h each term, so the centre and span are folded into one
    # stencil; T_1 = h T_0 is half of its first product.  The terms rotate
    # through three padded vectors, psi padded into the first; their views,
    # the stencil's product and the loop's ufuncs are bound once (at a few
    # thousand elements a lookup per call shows).  Every term is written
    # over the interior rows only, so the ghost rows stay zero, and the sum
    # is kept over the interior rows and unpadded once.  A scalar leads the
    # products c_0 T_0 and c_1 T_1 and trails c_k T_k for k >= 2: numpy's
    # complex multiply is not bitwise commutative, and this order is the one
    # the outputs were written with.
    center = 0.5 * (e_max + e_min)
    half_span = 0.5 * (e_max - e_min)
    doubled = _Stencil(h, complex, center, 2.0 / half_span)
    coefficients = coefficients.tolist()

    prev = doubled.views(doubled.pad(psi.amplitudes))
    out = np.multiply(coefficients[0], prev[0])
    if order >= 1:
        cur = doubled.views(doubled.zeros())
        spare = doubled.views(doubled.zeros())
        term = doubled.product(*prev, cur[0])
        np.multiply(term, 0.5, term)
        np.multiply(coefficients[1], term, spare[0])
        np.add(out, spare[0], out)
        product, multiply, add, subtract = doubled.product, np.multiply, np.add, np.subtract
        for k in range(2, order + 1):
            term = product(*cur, spare[0])
            subtract(term, prev[0], term)
            multiply(term, coefficients[k], prev[0])
            add(out, prev[0], out)
            prev, cur, spare = cur, spare, prev
    out = doubled.unpad(out)

    in_norm = psi.norm()
    drift = abs(float(np.linalg.norm(out)) - in_norm)
    if not drift <= _NORM_DRIFT_TOL:
        raise PropagationError(
            f"norm drift {drift:.3e} after one Chebyshev step; "
            "insufficient order or bad spectral bounds"
        )
    return QuantumState(out, psi.j, psi.n_max)


def evolve(
    psi0: QuantumState,
    params: ModelParams,
    t_end: float,
    sample_count: int = 1000,
    observables: tuple[str, ...] = ("mean_photon_scaled", "parity"),
) -> Trajectory:
    """Propagate ``psi0``, one :func:`chebyshev_step` per sample interval, and
    record expectation values at ``sample_count`` uniform times from 0 to
    ``t_end``, the grid of :func:`rotdicke.trajectory.sample_grid` that
    both engines sample.  H is ``h_rot`` at ``params.delta_phi``; the
    trajectory is ``driven`` unless that is 0.

    ``observables`` are the names with a quantum evaluator in the observable
    table of :mod:`rotdicke.trajectory`: ``mean_photon_scaled`` (<a^dag a>/j)
    and ``parity`` (<Pi>).
    """
    t = sample_grid(t_end, sample_count)
    check_observables(observables, "quantum")
    ops = build_operators(params)
    if psi0.j != ops.j or psi0.n_max != ops.n_max:
        raise ValueError("state and operator basis descriptors disagree")

    bounds = spectral_bounds(ops.h_rot)
    dt = float(t[1] - t[0])
    order = chebyshev_order(dt, *bounds)
    coeffs = chebyshev_coefficients(dt, *bounds, order)

    columns: dict[str, list[float]] = {name: [] for name in observables}
    psi = psi0
    for step in range(sample_count):
        if step:
            psi = chebyshev_step(ops, psi, dt, bounds=bounds, order=order, coefficients=coeffs)
        for name, column in columns.items():
            column.append(OBSERVABLES[name].quantum(ops, psi))

    return Trajectory(
        params=params,
        engine="quantum",
        driven=params.delta_phi != 0.0,
        times=t,
        data={name: np.array(col) for name, col in columns.items()},
        observables=tuple(observables),
    )


def _log_factorial(values: np.ndarray) -> np.ndarray:
    """log(v!) elementwise for whole-number floats."""
    return np.array([math.lgamma(v + 1.0) for v in values.tolist()])


def coherent_state(alpha: complex, zeta: complex, j: float, n_max: int) -> QuantumState:
    """Product coherent state |alpha>|zeta> on the truncated basis.

    Amplitudes kappa_{n,m} = [e^(-|alpha|^2/2) alpha^n / sqrt(n!)]
    * [zeta^(m+j) sqrt(C(2j, m+j)) / (1+|zeta|^2)^j], renormalized after
    truncation.  The pre-normalization truncation loss 1 - sum |kappa|^2
    must stay below ``TRUNCATION_TOL`` or a larger n_max is demanded.
    """
    state, loss = _coherent_start(alpha, zeta, j, n_max)
    if loss >= TRUNCATION_TOL:
        raise ValueError(
            f"truncation loss {loss:.3e} >= {TRUNCATION_TOL:.1e} at n_max={n_max}; "
            f"increase n_max (|alpha|^2 = {abs(alpha)**2:.3g})"
        )
    return state


def _coherent_start(alpha: complex, zeta: complex, j: float, n_max: int) -> tuple[QuantumState, float]:
    """:func:`coherent_state` without its check, and the loss it checks.

    A start that the truncation loses whole (loss 1) stays all zeros.
    """
    # Checked as given: a real label's error message spells it as a real number.
    check_label("alpha", alpha)
    check_label("zeta", zeta)
    alpha, zeta = complex(alpha), complex(zeta)
    two_j = int(round(2 * j))

    n = np.arange(n_max + 1, dtype=float)
    if alpha == 0:
        field = np.zeros(n_max + 1, dtype=complex)
        field[0] = 1.0
    else:
        log_mag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * _log_factorial(n)
        field = np.exp(log_mag + 1j * n * cmath.phase(alpha))

    k = np.arange(two_j + 1, dtype=float)
    if zeta == 0:
        spin = np.zeros(two_j + 1, dtype=complex)
        spin[0] = 1.0
    else:
        log_binom = math.lgamma(two_j + 1.0) - _log_factorial(k) - _log_factorial(two_j - k)
        log_mag = k * math.log(abs(zeta)) + 0.5 * log_binom - j * math.log1p(abs(zeta) ** 2)
        spin = np.exp(log_mag + 1j * k * cmath.phase(zeta))

    amplitudes = np.kron(spin, field)
    total = float(np.sum(np.abs(amplitudes) ** 2))
    return QuantumState(amplitudes / math.sqrt(total or 1.0), j, n_max), max(1.0 - total, 0.0)


def _top_row_weight(state: QuantumState) -> float:
    """Weight of ``state`` on the top Fock row n = n_max, summed over m."""
    return float(np.sum(np.abs(state.amplitudes[state.n_max :: state.n_max + 1]) ** 2))


def _trace_sums(alphas: list, squares: list, x: float) -> tuple[float, float] | None:
    """tr (T - x)^-1 and tr (T - x)^-2 when T - x is positive definite, else None.

    T is the symmetric tridiagonal matrix with diagonal ``alphas`` and
    squared off-diagonals ``squares[1:]`` (``squares[0]`` is 0).  The pivots
    q_i = alpha_i - x - beta_(i-1)^2 / q_(i-1) of T - x = L D L^T are a Sturm
    sequence: all are positive iff x lies below the lowest eigenvalue.  The
    sums are then -(log det(T - x))' and -(log det(T - x))'', carried through
    the same recurrence as q_i'/q_i and q_i''/q_i.  O(k) in the size k of T.
    """
    pivot, ratio, curvature = 1.0, 0.0, 0.0
    first = second = 0.0
    for alpha, square in zip(alphas, squares):
        c = square / pivot
        slope = c * ratio - 1.0
        bend = c * (curvature - 2.0 * ratio * ratio)
        pivot = alpha - x - c
        if not pivot > 0.0:
            return None
        ratio = slope / pivot
        curvature = bend / pivot
        first -= ratio
        second += ratio * ratio - curvature
    return first, second


def _lowest_eigenvalue(
    alphas: np.ndarray, betas: np.ndarray, upper: float = math.inf
) -> tuple[float, float]:
    """Lowest eigenvalue theta of the symmetric tridiagonal T and a shift just below it.

    T has diagonal ``alphas`` and off-diagonal ``betas``; ``upper`` is any
    known upper bound on theta.  Laguerre's iteration on det(T - x) inside a
    bracket [lo, hi] kept by the Sturm test of :func:`_trace_sums` (Li &
    Zeng, SIAM J. Sci. Comput. 15, 1145 (1994)).  lo starts at the
    Gershgorin lower bound and hi at min(``upper``, min alpha_i).  The first
    probe lies one tolerance below hi, where a converged Lanczos run leaves
    theta; after it, midpoints until one passes the test.  From any x below
    theta the Laguerre step lands in (x, theta], so the iterates rise to
    theta monotonically, cubically for a simple theta.  A step that lands at
    or above hi, or a point that fails the test (only rounding puts a step
    there: it carries an error of a few ulp * ||T||), is followed by a probe
    4, 16, 64, ... tolerances below hi, or at the midpoint when that is
    higher.  The iteration stops on a step below the tolerance, or on one
    taken within four tolerances of hi.  The tolerance is 4 ulp of the
    Gershgorin bound on ||T||.  Returns (theta, shift): T - shift is
    positive definite and theta - shift is within the tolerance.
    """
    n = alphas.size
    radii = np.zeros(n)
    radii[:-1] += np.abs(betas)
    radii[1:] += np.abs(betas)
    lower = float(np.min(alphas - radii))
    # 2^-50 is 4 ulp of 1; a zero T (its one eigenvalue 0) takes any tolerance.
    tol = 2.0**-50 * max(abs(lower), float(np.max(alphas + radii))) or 1.0
    values = alphas.tolist()
    squares = [0.0] + (betas * betas).tolist()
    lo, hi = lower - tol, min(upper, min(values))
    x, backoff = hi - tol, math.inf
    while hi - lo > tol:
        sums = _trace_sums(values, squares, x)
        if sums is not None:
            first, second = sums
            step = n / (first + math.sqrt(max((n - 1) * (n * second - first * first), 0.0)))
            if step <= tol or hi - x <= 4.0 * tol:
                return min(x + step, hi), x
            lo, backoff = x, tol
            x += step
            if x < hi:
                continue
        hi = min(hi, x)
        backoff *= 4.0
        x = max(hi - backoff, 0.5 * (lo + hi))
    return hi, lo


def _ritz_pair(
    alphas: np.ndarray, betas: np.ndarray, upper: float = math.inf
) -> tuple[float, np.ndarray]:
    """Lowest eigenpair (theta, s) of the symmetric tridiagonal T, with ||s|| = 1.

    theta comes from :func:`_lowest_eigenvalue` and s from two steps of
    inverse iteration with T - shift = L D L^T, positive definite and as
    close to singular as the Sturm test resolves.  The start is the Perron
    sign pattern of T: conjugated by it, T has no positive off-diagonal
    entry, so within its block the lowest eigenvector has this sign pattern
    wherever it is nonzero, and the start's overlap with it is
    sum_i |s_i| >= 1.  Each step damps every other eigenvector by
    ~ulp * ||T|| / gap.
    """
    theta, shift = _lowest_eigenvalue(alphas, betas, upper)
    values = alphas.tolist()
    pivots = [values[0] - shift]
    multipliers = []
    for alpha, beta in zip(values[1:], betas.tolist()):
        multipliers.append(beta / pivots[-1])
        pivots.append(alpha - shift - beta * beta / pivots[-1])
    vec = [1.0] + np.cumprod(np.where(betas < 0.0, 1.0, -1.0)).tolist()
    for _ in range(2):
        for i, mult in enumerate(multipliers):
            vec[i + 1] -= mult * vec[i]
        vec[-1] /= pivots[-1]
        for i in range(len(multipliers) - 1, -1, -1):
            vec[i] = vec[i] / pivots[i] - multipliers[i] * vec[i + 1]
        norm = math.hypot(*vec)
        vec = [v / norm for v in vec]
    return theta, np.array(vec)


def _lowest_eigenvector(h: Hamiltonian, sector: np.ndarray) -> np.ndarray:
    """Lowest eigenvector of ``h`` restricted to the invariant index set ``sector``.

    Lanczos with full reorthogonalisation (Golub & Van Loan, *Matrix
    Computations*, 4th ed., sec. 10.1) from the Perron start (-1)^k, k the
    spin index, the Krylov vectors kept as the rows of one block over the
    sector alone, grown ``_LANCZOS_CHUNK`` rows at a time.  With a coupling
    c >= 0 every off-diagonal entry of ``h`` is >= 0, so diag((-1)^k) ``h``
    diag((-1)^k) has none above 0, and the lowest eigenvector has the sign
    pattern (-1)^k wherever it is nonzero: the start can never be orthogonal
    to it.  The products come from one real :class:`_Stencil`, on a padded
    vector that is zero off the sector, through views and sector
    :meth:`_Stencil.slots` bound once per solve.  Every ``_LANCZOS_CHECK``
    iterations the lowest Ritz pair of the tridiagonal matrix T is taken by
    :func:`_ritz_pair`, warm-started from the previous check's value (an
    upper bound, by Cauchy interlacing); no LAPACK call is made.  The run
    stops when the residual estimate |beta_k s_k| falls to
    ``_LANCZOS_RTOL`` times the largest eigenvalue magnitude of T, on a
    breakdown beta_k <= ``_LANCZOS_BREAKDOWN`` * max |alpha_i| (the Krylov
    space is invariant) or when it spans the sector.  Returns the
    normalised Ritz vector over the sector.
    """
    size = sector.size
    limit = min(size, _LANCZOS_MAX_ITER)
    basis = np.empty((min(limit, _LANCZOS_CHUNK), size))
    alphas = np.empty(limit)
    betas = np.empty(limit)
    spin = sector // h.grid[1]
    basis[0] = (1.0 - 2.0 * (spin % 2)) / math.sqrt(size)
    stencil = _Stencil(h, float)
    slots = stencil.slots(sector)
    full, image = stencil.zeros(), stencil.zeros()
    views, rows = stencil.views(full), stencil.views(image)[0]
    alpha_max = 0.0
    theta = math.inf
    for k in range(limit):
        full[slots] = basis[k]
        stencil.product(*views, rows)
        w = image[slots]
        alphas[k] = basis[k] @ w
        alpha_max = max(alpha_max, abs(alphas[k]))
        block = basis[: k + 1]
        for _ in range(2):
            w -= (block @ w) @ block
        betas[k] = beta = float(np.linalg.norm(w))
        exhausted = beta <= _LANCZOS_BREAKDOWN * alpha_max or k + 1 == size
        if exhausted or (k + 1) % _LANCZOS_CHECK == 0 or k + 1 == limit:
            theta, ritz = _ritz_pair(alphas[: k + 1], betas[:k], theta)
            residual = beta * abs(ritz[-1])
            # The scale max(|theta|, top eigenvalue of T) is at most
            # max |alpha_i| + 2 max beta_i; the top eigenvalue is found only
            # when that bound does not already fail the test.
            bound = alpha_max + 2.0 * float(np.max(betas[:k], initial=0.0))
            if exhausted or (
                residual <= _LANCZOS_RTOL * bound
                and residual
                <= _LANCZOS_RTOL
                * max(abs(theta), -_lowest_eigenvalue(-alphas[: k + 1], betas[:k])[0])
            ):
                vec = ritz @ block
                return vec / np.linalg.norm(vec)
        if k + 1 < limit:
            if k + 1 == len(basis):
                grown = np.empty((min(limit, k + 1 + _LANCZOS_CHUNK), size))
                grown[: k + 1] = basis
                basis = grown
            basis[k + 1] = w / beta
    raise RuntimeError(
        f"ground-state eigensolve failed: Lanczos residual {residual:.3e} after {limit} iterations"
    )


def ground_state(params: ModelParams, ops: OperatorSet | None = None) -> QuantumState:
    """Ground state of the undriven Hamiltonian on the truncated basis.

    The lowest eigenvector of ``h_dicke`` in the even-parity sector, where
    the finite-size ground state lies, from Lanczos on the matrix-free
    operator (:func:`_lowest_eigenvector`).  It is parity-definite,
    <Pi> = +1, also above the critical coupling, where the lowest even and
    odd levels are split only by an exponentially small gap.  The global
    phase is deterministic: the largest-magnitude amplitude is made real
    positive.  A Gershgorin bound on |E| whose square overflows (an extreme
    frequency) is a ValueError, as the Lanczos norms would overflow.
    """
    if ops is None:
        ops = build_operators(params)
    e_min, e_max = spectral_bounds(ops.h_dicke)
    scale = max(-e_min, e_max)
    if not math.isfinite(scale * scale):
        raise ValueError(f"ground state: the Gershgorin bound |E| <= {scale:.3g} squared overflows")
    # The even checkerboard k + n = N even: (a + a^dag)(J_+ + J_-) moves
    # (k, n) by (+-1, +-1), so H maps it onto itself.
    sector = np.flatnonzero(ops.parity > 0.0)
    sector_vec = _lowest_eigenvector(ops.h_dicke, sector)
    top = int(np.argmax(np.abs(sector_vec)))
    if sector_vec[top] < 0.0:
        sector_vec = -sector_vec
    vec = np.zeros(ops.dim, dtype=complex)
    vec[sector] = sector_vec
    return QuantumState(vec, ops.j, ops.n_max)


def initial_state(params: ModelParams, labels: tuple[complex, complex] | None) -> QuantumState:
    """The start of a quantum run at the n_max it fixes: the ground state
    when ``labels`` is None, else the coherent state of ``labels`` = (alpha, zeta).

    A fixed ``params.n_max`` is taken as given: a ground state unchecked, a
    coherent start through the truncation check of :func:`coherent_state`.
    Left open, n_max grows by x1.5 from ``N_MAX_FLOOR`` until a ground
    state's top Fock row weighs under ``TOP_ROW_TOL``, or a coherent start's
    loss is under ``TRUNCATION_TOL``, and stops with the ValueError of
    :func:`checked_dim` before the dimension passes its cap.  An open ground
    state first runs that ladder on its stationary-Dicke coherent
    counterpart, with no eigensolve, and fails with that ladder's ValueError
    when its photon number cannot fit.
    """
    fixed = params.n_max is not None
    if labels is None and not fixed:
        initial_state(params, initial_state_params("stationary_dicke", params))
    n_max = params.n_max if fixed else N_MAX_FLOOR
    while True:
        checked_dim(params.two_j, n_max)
        if labels is None:
            state = ground_state(replace(params, n_max=n_max))
            if fixed or _top_row_weight(state) < TOP_ROW_TOL:
                return state
        elif fixed:
            return coherent_state(*labels, params.j, n_max)
        else:
            state, loss = _coherent_start(*labels, params.j, n_max)
            if loss < TRUNCATION_TOL:
                return state
        n_max = int(math.ceil(n_max * 1.5))

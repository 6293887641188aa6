"""Driving protocols and sweeps.

A protocol picks an engine (mean-field or finite-size), one of the
initial-state preparations, and whether the rotation is switched on at
t=0.  The final time is always t_f = n_revolutions * 2 pi / delta_phi;
undriven comparison runs keep the same t_f, using delta_phi only to fix it.
Sweeps repeat a protocol over parameter grids, recording final-time and
time-averaged observables per cell; a failed cell is tagged with its error
instead of aborting the grid.  The coupling sweep, the velocity sweep and
the phase diagram share one grid loop over the product of their axes, last
axis fastest; the phase diagram adds only the region tags and overlays.
The excitation spectrum tabulates the closed-form energy branches and
critical lines over a coupling grid.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import meanfield, quantum
from .meanfield import _OBSERVABLES, CHUNK, Trajectory, _check_observables
from .model import (
    ModelParams,
    critical_coupling,
    dynamical_critical_fit,
    excitation_energy_np,
    excitation_energy_srp,
    rotated_critical_coupling,
)

__all__ = [
    "ENGINES",
    "INITIAL_KINDS",
    "OBSERVABLES",
    "NONZERO_THRESHOLD",
    "ProtocolSpec",
    "SweepCell",
    "SweepResult",
    "Spectrum",
    "run_protocol",
    "sweep_lambda",
    "sweep_velocity",
    "phase_diagram",
    "spectrum",
    "resolve_n_max",
]

ENGINES = ("meanfield", "quantum")
INITIAL_KINDS = (
    "stationary_dicke",
    "stationary_circle",
    "fock",
    "nearly_fock",
    "ground_state",
    "explicit",
)
OBSERVABLES = tuple(_OBSERVABLES)

# Time-averaged scaled photon number above this counts as a macroscopic
# ("nonzero") phase-diagram region; separates integrator noise from
# super-radiant values at desk scale.
NONZERO_THRESHOLD = 1e-3

N_MAX_FLOOR = 100


@dataclass(frozen=True)
class ProtocolSpec:
    """Full description of one run; every sweep cell derives from one."""

    params: ModelParams
    engine: str = "meanfield"
    initial: str = "stationary_dicke"
    epsilon: float | None = None
    alpha: complex = 0j
    zeta: complex = 0j
    driven: bool = True
    n_revolutions: int = 1
    sample_count: int = 1000
    observables: tuple[str, ...] = ("mean_photon_scaled", "parity")
    rtol: float = meanfield.DEFAULT_RTOL

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.initial not in INITIAL_KINDS:
            raise ValueError(
                f"initial must be one of {INITIAL_KINDS}, got {self.initial!r}"
            )
        if self.initial == "nearly_fock" and self.epsilon is None:
            raise ValueError("initial=nearly_fock requires epsilon")
        if self.epsilon is not None and not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        # Checked here, not left to coherent_state: resolve_n_max reads its
        # ValueError as truncation loss and would grow n_max to the cap.
        for name, label in (("alpha", self.alpha), ("zeta", self.zeta)):
            if not cmath.isfinite(complex(label)):
                raise ValueError(f"{name} must be finite, got {label}")
        if self.initial == "ground_state" and self.engine != "quantum":
            raise ValueError(
                "initial=ground_state requires the quantum engine; the "
                "thermodynamic-limit counterpart is stationary_dicke"
            )
        if not self.params.delta_phi > 0.0:
            raise ValueError(
                "delta_phi must be positive: it defines t_f = n_R*2pi/delta_phi "
                "(undriven runs use it for t_f only)"
            )
        if not self.n_revolutions >= 1:
            raise ValueError(f"n_revolutions must be >= 1, got {self.n_revolutions}")
        if not self.sample_count >= 2:
            raise ValueError(f"sample_count must be >= 2, got {self.sample_count}")
        if not (self.rtol > 0.0 and math.isfinite(self.rtol)):
            raise ValueError(f"rtol must be positive and finite, got {self.rtol}")
        _check_observables(self.observables, self.engine)

    @property
    def t_final(self) -> float:
        return self.n_revolutions * 2.0 * math.pi / self.params.delta_phi

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.sample_count)


@dataclass(frozen=True)
class SweepCell:
    """Per-grid-point record: final-time and time-averaged observables."""

    coords: tuple[float, ...]
    final: dict[str, float] = field(default_factory=dict)
    average: dict[str, float] = field(default_factory=dict)
    region: str | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    """Grid of protocol outcomes plus the provenance spec.

    ``axes`` holds (name, values) pairs; cells are stored in lexicographic
    order of the axis indices (last axis fastest).  ``overlays`` carries
    reference curves evaluated on the velocity axis for phase diagrams.
    """

    axes: tuple[tuple[str, np.ndarray], ...]
    cells: tuple[SweepCell, ...]
    spec: ProtocolSpec
    overlays: dict[str, np.ndarray] = field(default_factory=dict)

    __eq__ = meanfield._eq_by_value

    def __post_init__(self) -> None:
        expected = 1
        for _, values in self.axes:
            expected *= len(values)
        if len(self.cells) != expected:
            raise ValueError(
                f"cell count {len(self.cells)} != product of axis lengths {expected}"
            )

    def values(self, observable: str, kind: str = "average") -> np.ndarray:
        """Grid of one observable, NaN where a cell failed.

        ``kind`` is ``"average"`` (time average) or ``"final"`` (final time).
        """
        if kind not in ("average", "final"):
            raise ValueError(f"kind must be 'average' or 'final', got {kind!r}")
        shape = tuple(len(values) for _, values in self.axes)
        out = np.full(shape, np.nan)
        flat = out.reshape(-1)
        for i, cell in enumerate(self.cells):
            if cell.error is None:
                flat[i] = getattr(cell, kind)[observable]
        return out


@dataclass(frozen=True)
class Spectrum:
    """Excitation-energy branches and critical lines, one row per coupling.

    A branch is None where it does not exist (normal phase above lambda_c,
    super-radiant phase below it).
    """

    header: tuple[str, ...]
    rows: tuple[tuple[float | None, ...], ...]


def _initial_labels(spec: ProtocolSpec) -> tuple[complex, complex]:
    if spec.initial == "explicit":
        return complex(spec.alpha), complex(spec.zeta)
    alpha, zeta = quantum.initial_state_params(spec.initial, spec.params, spec.epsilon)
    return complex(alpha), complex(zeta)


def resolve_n_max(
    spec: ProtocolSpec, solved: list[quantum.QuantumState] | None = None
) -> int:
    """Boson truncation for a quantum run when the parameters leave it open.

    Grown by x1.5 from the floor of 100 until the initial state carries less
    than 1e-10 truncation loss; for the ground state the occupation of the
    top Fock row stands in for the loss, and the ground state solved at the
    returned n_max is appended to ``solved`` when a list is given, so that
    the caller does not solve it again.  Growth stops with the ValueError
    of :func:`quantum.checked_dim` before the basis dimension would exceed
    ``quantum.DEFAULT_DIM_CAP``.
    """
    if spec.params.n_max is not None:
        return spec.params.n_max
    n_max = N_MAX_FLOOR
    if spec.initial == "ground_state":
        while True:
            params = replace(spec.params, n_max=n_max)
            state = quantum.ground_state(params)
            block = state.amplitudes.reshape(spec.params.two_j + 1, n_max + 1)
            top_row = float(np.sum(np.abs(block[:, -1]) ** 2))
            if top_row < 1e-12:
                if solved is not None:
                    solved.append(state)
                return n_max
            n_max = int(math.ceil(n_max * 1.5))
    alpha, zeta = _initial_labels(spec)
    while True:
        quantum.checked_dim(spec.params.two_j, n_max)
        try:
            quantum.coherent_state(alpha, zeta, spec.params.j, n_max)
            return n_max
        except ValueError:
            n_max = int(math.ceil(n_max * 1.5))


def run_protocol(spec: ProtocolSpec) -> Trajectory:
    """Prepare the initial state, evolve it, and attach the observables."""
    if spec.engine == "meanfield":
        alpha, zeta = _initial_labels(spec)
        start = meanfield.point_from_coherent(alpha, zeta, spec.params.j)
        traj = meanfield.integrate(
            start,
            spec.params,
            spec.t_final,
            sample_count=spec.sample_count,
            tol=spec.rtol,
            driven=spec.driven,
        )
        data = dict(traj.data)
        coords = [data[name] for name in ("q1", "p1", "q2", "p2")]
        for name in spec.observables:
            observable = _OBSERVABLES[name].meanfield
            column = np.empty(spec.sample_count)
            for start in range(0, spec.sample_count, CHUNK):
                part = slice(start, start + CHUNK)
                column[part] = observable(*(c[part] for c in coords), spec.params.j)
            data[name] = column
        return replace(traj, data=data, observables=spec.observables)

    solved: list[quantum.QuantumState] = []
    params = replace(spec.params, n_max=resolve_n_max(spec, solved))
    ops = quantum.build_operators(params)
    if spec.initial == "ground_state":
        psi0 = solved[0] if solved else quantum.ground_state(params, ops=ops)
    else:
        alpha, zeta = _initial_labels(spec)
        psi0 = quantum.coherent_state(alpha, zeta, params.j, params.n_max)
    return quantum.evolve(
        psi0,
        params,
        spec.time_grid(),
        observables=spec.observables,
        driven=spec.driven,
        ops=ops,
    )


def _run_cell(spec: ProtocolSpec, coords: tuple[float, ...]) -> SweepCell:
    try:
        traj = run_protocol(spec)
    except (ValueError, RuntimeError) as exc:
        return SweepCell(coords=coords, error=str(exc))
    final = {name: traj.final(name) for name in spec.observables}
    average = {name: traj.average(name) for name in spec.observables}
    return SweepCell(coords=coords, final=final, average=average)


def _validated_axis(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} values must form a nonempty 1-D grid")
    if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
        raise ValueError(f"{name} values must be strictly increasing")
    if name == "delta_phi" and arr[0] <= 0.0:
        raise ValueError("delta_phi values must be positive")
    return arr


# Sweep axis name of each swept ModelParams field.
_AXIS_NAMES = {"lam": "lambda", "delta_phi": "delta_phi"}


def _sweep(spec: ProtocolSpec, **grids) -> SweepResult:
    """Run the protocol on every point of the product of the ``grids``.

    Each keyword names the swept ModelParams field; cells run in
    lexicographic order, last axis fastest.
    """
    axes = tuple((_AXIS_NAMES[key], _validated_axis(_AXIS_NAMES[key], v)) for key, v in grids.items())
    cells = []
    for point in itertools.product(*(values.tolist() for _, values in axes)):
        params = replace(spec.params, **dict(zip(grids, point)))
        cells.append(_run_cell(replace(spec, params=params), point))
    return SweepResult(axes=axes, cells=tuple(cells), spec=spec)


def sweep_lambda(spec: ProtocolSpec, lambda_values) -> SweepResult:
    """Repeat the protocol across couplings."""
    return _sweep(spec, lam=lambda_values)


def sweep_velocity(spec: ProtocolSpec, delta_phi_values) -> SweepResult:
    """Repeat the protocol across driving velocities (all positive).

    delta_phi = 0 is not a sweep point: t_f = n_R*2pi/delta_phi diverges
    there, the undriven branch covers it.
    """
    return _sweep(spec, delta_phi=delta_phi_values)


def phase_diagram(spec: ProtocolSpec, lambda_values, delta_phi_values) -> SweepResult:
    """2-D grid over (lambda, delta_phi) with critical-line overlays.

    Cells run in lexicographic order (lambda major, delta_phi minor).  Each
    cell is classified against NONZERO_THRESHOLD on the time-averaged scaled
    photon number; the overlays carry the rotated critical coupling and the
    empirical dynamical fit per velocity for downstream plotting.
    """
    result = _sweep(spec, lam=lambda_values, delta_phi=delta_phi_values)
    cells = []
    for cell in result.cells:
        if cell.error is None and "mean_photon_scaled" in cell.average:
            photons = cell.average["mean_photon_scaled"]
            cell = replace(cell, region="nonzero" if photons > NONZERO_THRESHOLD else "zero")
        cells.append(cell)
    dphi_values = result.axes[1][1]
    overlays = {
        "lambda_c_rot": np.array(
            [rotated_critical_coupling(spec.params.omega, spec.params.omega0, d) for d in dphi_values]
        ),
        "lambda_c_dyn": np.array([dynamical_critical_fit(d) for d in dphi_values]),
    }
    return replace(result, cells=tuple(cells), overlays=overlays)


def spectrum(omega: float, omega0: float, delta_phi: float, lambda_values) -> Spectrum:
    """Normal- and super-radiant-phase excitation energies over couplings.

    Every row repeats the equilibrium critical coupling, the rotated one at
    ``delta_phi`` and the empirical dynamical fit at ``delta_phi``.
    """
    lam_c = critical_coupling(omega, omega0)
    lam_c_rot = rotated_critical_coupling(omega, omega0, delta_phi)
    lam_c_dyn = dynamical_critical_fit(delta_phi)
    rows = []
    for lam in _validated_axis("lambda", lambda_values):
        lam = float(lam)
        eps_np = excitation_energy_np(omega, omega0, lam) if lam <= lam_c else None
        eps_srp = excitation_energy_srp(omega, omega0, lam) if lam >= lam_c else None
        rows.append((lam, eps_np, eps_srp, lam_c, lam_c_rot, lam_c_dyn))
    return Spectrum(
        header=("lambda", "eps_np", "eps_srp", "lambda_c", "lambda_c_rot", "lambda_c_dyn"),
        rows=tuple(rows),
    )

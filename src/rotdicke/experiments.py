"""Driving protocols and sweeps.

A protocol picks an engine (mean-field or finite-size), one of the
initial-state preparations, and whether the rotation is switched on at
t=0.  It only picks the start: the labels come from
:func:`rotdicke.model.initial_state_params`, a quantum start and its n_max
from :func:`rotdicke.quantum.initial_state`.  The final time is always
t_f = n_revolutions * 2 pi / delta_phi.  The engines evolve at the
delta_phi of their parameters; :func:`run_protocol` alone runs an undriven
comparison (same start and t_f, delta_phi = 0) and names the field a failed
run comes from.
Sweeps repeat a protocol over parameter grids, recording final-time and
time-averaged observables per cell; a failed cell is tagged with its error
instead of aborting the grid.  The coupling sweep, the velocity sweep and
the phase diagram share one grid loop over the product of their axes, last
axis fastest; the phase diagram adds only the region tags and overlays.
The excitation spectrum tabulates the closed-form energy branches and
critical lines over a coupling grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import meanfield, quantum, trajectory
from .model import (
    ModelParams,
    check_count,
    check_label,
    check_positive,
    critical_coupling,
    dynamical_critical_fit,
    excitation_energy_np,
    excitation_energy_srp,
    initial_state_params,
    naming_extreme_field,
    point_from_coherent,
    rotated_critical_coupling,
)
from .trajectory import Trajectory, check_grid, check_observables, eq_by_value

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
OBSERVABLES = tuple(trajectory.OBSERVABLES)

# Time-averaged scaled photon number above this counts as a macroscopic
# ("nonzero") phase-diagram region; separates integrator noise from
# super-radiant values at desk scale.
NONZERO_THRESHOLD = 1e-3


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
        if self.epsilon is not None:
            check_positive("epsilon", self.epsilon)
        # Both engines' starts refuse these labels only inside a run; checked
        # here, a label the run would refuse fails when the spec is built.
        check_label("alpha", self.alpha)
        check_label("zeta", self.zeta)
        if self.initial == "ground_state" and self.engine != "quantum":
            raise ValueError(
                "initial=ground_state requires the quantum engine; the "
                "thermodynamic-limit counterpart is stationary_dicke"
            )
        if not self.params.delta_phi > 0.0:
            raise ValueError(
                "delta_phi must be positive: it defines t_f = n_R*2pi/delta_phi "
                "and the stationary_circle labels, in undriven runs too"
            )
        check_count("n_revolutions", self.n_revolutions, 1)
        check_count("sample_count", self.sample_count, 2)
        check_positive("rtol", self.rtol)
        check_observables(self.observables, self.engine)

    @property
    def t_final(self) -> float:
        return self.n_revolutions * 2.0 * math.pi / self.params.delta_phi


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

    __eq__ = eq_by_value

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

        ``kind`` is ``"average"`` (time average) or ``"final"`` (final time);
        ``observable`` must be one of ``spec.observables``.
        """
        if kind not in ("average", "final"):
            raise ValueError(f"kind must be 'average' or 'final', got {kind!r}")
        if observable not in self.spec.observables:
            raise ValueError(f"observable {observable!r} is not in spec.observables {self.spec.observables}")
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
        return spec.alpha, spec.zeta
    return initial_state_params(spec.initial, spec.params, spec.epsilon)


def resolve_n_max(spec: ProtocolSpec, solved: list[quantum.QuantumState] | None = None) -> int:
    """Boson truncation of a quantum run: the n_max at which :func:`quantum.initial_state` builds its start.

    The start, built for a fixed n_max too, is appended to ``solved`` when given.
    """
    labels = None if spec.initial == "ground_state" else _initial_labels(spec)
    state = quantum.initial_state(spec.params, labels)
    if solved is not None:
        solved.append(state)
    return state.n_max


def run_protocol(spec: ProtocolSpec) -> Trajectory:
    """Prepare the initial state and run it through the spec's engine.

    The start (for a quantum run, the one :func:`resolve_n_max` built) and
    t_f come from ``spec.params``.  An undriven run evolves at delta_phi = 0
    and gets its delta_phi back, with ``driven`` False.  A ValueError names
    an extreme field of ``spec.params`` (:func:`naming_extreme_field`).
    """
    params = spec.params if spec.driven else replace(spec.params, delta_phi=0.0)
    try:
        if spec.engine == "meanfield":
            start = point_from_coherent(*_initial_labels(spec), spec.params.j)
            traj = meanfield.integrate(
                start, params, spec.t_final, spec.sample_count, tol=spec.rtol, observables=spec.observables
            )
        else:
            solved: list[quantum.QuantumState] = []
            params = replace(params, n_max=resolve_n_max(spec, solved))
            traj = quantum.evolve(solved[0], params, spec.t_final, spec.sample_count, observables=spec.observables)
    except ValueError as exc:
        raise naming_extreme_field(exc, spec.params) from None
    if spec.driven:
        return traj
    return replace(traj, params=replace(traj.params, delta_phi=spec.params.delta_phi))


def _run_cell(spec: ProtocolSpec, coords: tuple[float, ...]) -> SweepCell:
    try:
        traj = run_protocol(spec)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        return SweepCell(coords=coords, error=str(exc))
    final = {name: traj.final(name) for name in spec.observables}
    average = {name: traj.average(name) for name in spec.observables}
    return SweepCell(coords=coords, final=final, average=average)


def _validated_axis(name: str, values) -> np.ndarray:
    arr = check_grid(f"{name} values", values)
    if name == "delta_phi" and arr[0] <= 0.0:
        raise ValueError("delta_phi values must be positive")
    return arr


# Sweep axis name of each swept ModelParams field.
AXIS_NAMES = {"lam": "lambda", "delta_phi": "delta_phi"}


def _sweep(spec: ProtocolSpec, **grids) -> SweepResult:
    """Run the protocol on every point of the product of the ``grids``.

    Each keyword names the swept ModelParams field; cells run in
    lexicographic order, last axis fastest.
    """
    axes = tuple((AXIS_NAMES[key], _validated_axis(AXIS_NAMES[key], v)) for key, v in grids.items())
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

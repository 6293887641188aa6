"""Simulator for the rotationally driven Dicke model.

Two engines evolve the same protocols: a thermodynamic-limit mean-field
integrator (:mod:`rotdicke.meanfield`) and an exact finite-size Chebyshev
propagator on the truncated Fock x Dicke basis (:mod:`rotdicke.quantum`).
Both end a run in the same shape, a :class:`Trajectory` of observables on a
uniform sample grid, defined with the observable table in
:mod:`rotdicke.trajectory`.
Closed-form critical lines and fixed points live in :mod:`rotdicke.model`,
protocol and sweep drivers in :mod:`rotdicke.experiments`, serialization in
:mod:`rotdicke.io`, and the command line in :mod:`rotdicke.cli`.
"""

from .model import (
    FixedPoint,
    ModelParams,
    PhasePoint,
    coherent_from_point,
    critical_coupling,
    critical_velocity,
    dynamical_critical_fit,
    excitation_energy_np,
    excitation_energy_srp,
    fixed_points,
    initial_state_params,
    point_from_coherent,
    rotated_critical_coupling,
    stationary_photon_scaled,
)
from .trajectory import Trajectory, time_average
from .meanfield import (
    IntegrationError,
    classical_hamiltonian,
    eom_rhs,
    hp_rhs,
    integrate,
    jacobi_integral,
)
from .quantum import (
    OperatorSet,
    PropagationError,
    QuantumState,
    build_operators,
    chebyshev_coefficients,
    chebyshev_order,
    chebyshev_step,
    coherent_state,
    evolve,
    ground_state,
    initial_state,
    spectral_bounds,
)
from .experiments import (
    NONZERO_THRESHOLD,
    ProtocolSpec,
    Spectrum,
    SweepCell,
    SweepResult,
    phase_diagram,
    run_protocol,
    spectrum,
    sweep_lambda,
    sweep_velocity,
)
from .io import emit, load_result_json

__version__ = "0.1.0"

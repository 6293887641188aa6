"""Simulator for the rotationally driven Dicke model.

Two engines evolve the same protocols: a thermodynamic-limit mean-field
integrator (:mod:`rotdicke.meanfield`) and an exact finite-size Chebyshev
propagator on the truncated Fock x Dicke basis (:mod:`rotdicke.quantum`).
Closed-form critical lines and fixed points live in :mod:`rotdicke.model`,
protocol and sweep drivers in :mod:`rotdicke.experiments`, serialization in
:mod:`rotdicke.io`, and the command line in :mod:`rotdicke.cli`.
"""

from .model import (
    FixedPoint,
    ModelParams,
    PhasePoint,
    critical_coupling,
    critical_velocity,
    dynamical_critical_fit,
    excitation_energy_np,
    excitation_energy_srp,
    fixed_points,
    rotated_critical_coupling,
    stationary_photon_scaled,
)
from .meanfield import (
    IntegrationError,
    Trajectory,
    classical_hamiltonian,
    coherent_from_point,
    eom_rhs,
    hp_rhs,
    integrate,
    jacobi_integral,
    point_from_coherent,
    time_average,
)
from .quantum import (
    OperatorSet,
    PropagationError,
    QuantumState,
    basis_state,
    build_operators,
    chebyshev_coefficients,
    chebyshev_order,
    chebyshev_step,
    coherent_state,
    evolve,
    ground_state,
    initial_state_params,
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
from .io import emit, load_result_json, load_state, save_state

__version__ = "0.1.0"

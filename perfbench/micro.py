"""Layer-alone timings: one public rotdicke call each, at fixed sizes.

Reported as per-layer metrics of the traced run only.  Each timing is the
median of a few repeats; ``quantum.matvec_us.d<dim>`` is computed as one
Chebyshev step's time divided by its order (one matvec per order).
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

from rotdicke import experiments, io, meanfield, quantum
from rotdicke.experiments import ProtocolSpec
from rotdicke.meanfield import Trajectory
from rotdicke.model import ModelParams, PhasePoint

import workloads

REPEATS = 3
STEP_REPEATS = 5
QUANTUM_LAMBDA = 1.3
# dim: (j, n_max).  909, 2227 and 4275 are the finite-size rungs, 1313 its
# ground-state run; 1313 and 2121 are the sizes build, bounds and one step
# are reported at.
QUANTUM_SIZES = {909: (4.0, 100), 1313: (6.0, 100), 2121: (10.0, 100), 2227: (8.0, 130), 4275: (12.0, 170)}
FULL_SIZES = (1313, 2121)
STEP_DT = 2.0 * math.pi / (workloads.FS_SAMPLES - 1)  # the finite-size step
EMIT_ROWS = 200_000
EOM_CALLS, EOM_BATCHES = 200, 15


def _timed(call, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def quantum_metrics() -> dict[str, float]:
    out = {}
    for dim, (j, n_max) in QUANTUM_SIZES.items():
        params = ModelParams(lam=QUANTUM_LAMBDA, j=j, delta_phi=1.0, n_max=n_max)
        full = dim in FULL_SIZES
        build_s, ops = _timed(lambda: quantum.build_operators(params), REPEATS if full else 1)
        bounds_s, bounds = _timed(lambda: quantum.spectral_bounds(ops.h_rot), REPEATS if full else 1)
        order = quantum.chebyshev_order(STEP_DT, *bounds)
        coefficients = quantum.chebyshev_coefficients(STEP_DT, *bounds, order)
        alpha, zeta = quantum.initial_state_params("stationary_dicke", params)
        psi = quantum.coherent_state(alpha, zeta, j, n_max)
        step_s, _ = _timed(
            lambda: quantum.chebyshev_step(
                ops, psi, STEP_DT, bounds=bounds, order=order, coefficients=coefficients
            ),
            STEP_REPEATS,
        )
        out[f"quantum.matvec_us.d{dim}"] = step_s / order * 1e6
        if full:
            out[f"quantum.build_operators_s.d{dim}"] = build_s
            out[f"quantum.spectral_bounds_s.d{dim}"] = bounds_s
            out[f"quantum.chebyshev_step_s.d{dim}"] = step_s
        if dim == 1313:
            out["quantum.ground_state_s.d1313"], _ = _timed(lambda: quantum.ground_state(params, ops=ops))
    spec = ProtocolSpec(
        params=ModelParams(lam=QUANTUM_LAMBDA, j=float(workloads.FS_GROUND_J), delta_phi=1.0),
        engine="quantum",
        initial="ground_state",
    )
    out["experiments.resolve_n_max_s"], _ = _timed(lambda: experiments.resolve_n_max(spec))
    return out


def meanfield_metrics() -> dict[str, float]:
    params = ModelParams(lam=workloads.TIO_LAMBDA, j=workloads.TIO_J, delta_phi=1.0)
    alpha, zeta = quantum.initial_state_params("stationary_circle", params)
    start = meanfield.point_from_coherent(alpha, zeta, params.j)
    point = PhasePoint(start.q1, start.p1, start.q2, start.p2)
    per_call = []
    for _ in range(EOM_BATCHES):
        begin = time.perf_counter()
        for _ in range(EOM_CALLS):
            meanfield.eom_rhs(point, 0.5, params)
        per_call.append((time.perf_counter() - begin) / EOM_CALLS)
    integrate_s, _ = _timed(lambda: meanfield.integrate(start, params, 2.0 * math.pi))
    cell = ProtocolSpec(
        params=ModelParams(lam=1.0, j=6.0, delta_phi=1.0),
        engine="meanfield",
        initial="nearly_fock",
        epsilon=3.0,
        n_revolutions=workloads.PD_REVOLUTIONS,
        sample_count=workloads.PD_SAMPLES,
        rtol=workloads.PD_RTOL,
    )
    cell_s, _ = _timed(lambda: experiments.phase_diagram(cell, [1.0], [1.0]))
    return {
        "meanfield.eom_rhs_us": statistics.median(per_call) * 1e6,
        "meanfield.integrate_1rev_s": integrate_s,
        "experiments.sweep_cell_s": cell_s,
    }


def io_metrics(out_dir: str) -> dict[str, float]:
    t = np.linspace(0.0, 40.0 * math.pi, EMIT_ROWS)
    columns = ("q1", "p1", "q2", "p2") + workloads.TIO_OBSERVABLES
    data = {name: np.sin((k + 1) * 0.37 * t) / (k + 2) for k, name in enumerate(columns)}
    traj = Trajectory(
        params=ModelParams(lam=1.0, j=1.0, delta_phi=1.0),
        engine="meanfield",
        driven=True,
        times=t,
        data=data,
        observables=workloads.TIO_OBSERVABLES,
    )
    out = {}
    for fmt in ("csv", "json"):
        path = os.path.join(out_dir, f"emit_200k.{fmt}")
        out[f"io.emit_{fmt}_200k_s"], _ = _timed(lambda: io.emit(traj, fmt, path), 1)
        os.remove(path)
    return out


def all_metrics(out_dir: str) -> dict[str, float]:
    return {**quantum_metrics(), **meanfield_metrics(), **io_metrics(out_dir)}

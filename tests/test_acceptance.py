"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import math

import numpy as np
import scipy.linalg

from rotdicke import (
    ModelParams,
    PhasePoint,
    ProtocolSpec,
    QuantumState,
    basis_state,
    build_operators,
    chebyshev_step,
    classical_hamiltonian,
    coherent_state,
    critical_coupling,
    eom_rhs,
    evolve,
    fixed_points,
    ground_state,
    hp_rhs,
    integrate,
    run_protocol,
    spectral_bounds,
    sweep_lambda,
    sweep_velocity,
)

from closed_forms import mean_photon_scaled


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_c01_critical_point_closure():
    from rotdicke import excitation_energy_np, excitation_energy_srp

    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        omega = rng.uniform(0.1, 4.0)
        omega0 = rng.uniform(0.1, 4.0)
        lam_c = critical_coupling(omega, omega0)
        worst = max(
            worst,
            abs(excitation_energy_np(omega, omega0, lam_c)),
            abs(excitation_energy_srp(omega, omega0, lam_c)),
        )
    report(1, "critical-point closure", worst <= 1e-12, f"max |gap at lambda_c| = {worst:.2e} (tol 1e-12)")


def test_c02_propagator_oracle():
    rng = np.random.default_rng(102)
    params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0, n_max=8)
    ops = build_operators(params)
    bounds = spectral_bounds(ops.h_rot)
    worst = 0.0
    for dt in (0.01, 0.1, 1.0):
        u = scipy.linalg.expm(-1j * ops.h_rot.to_dense() * dt)
        for _ in range(20):
            v = rng.normal(size=ops.dim) + 1j * rng.normal(size=ops.dim)
            v /= np.linalg.norm(v)
            psi = QuantumState(v, params.j, params.n_max)
            out = chebyshev_step(ops, psi, dt, bounds=bounds)
            worst = max(worst, float(np.max(np.abs(out.amplitudes - u @ v))))
    report(2, "Chebyshev vs dense exponential", worst < 1e-10, f"max amplitude error = {worst:.2e} (tol 1e-10)")


def test_c03_frame_change_oracle():
    params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0, n_max=6)
    ops = build_operators(params)
    rng = np.random.default_rng(103)
    v = rng.normal(size=ops.dim) + 1j * rng.normal(size=ops.dim)
    v /= np.linalg.norm(v)
    psi0 = QuantumState(v, params.j, params.n_max)
    grid = np.linspace(0.0, 2 * math.pi, 41)
    rot = evolve(psi0, params, grid, observables=("mean_photon_scaled",), ops=ops)

    jp = np.zeros((params.two_j + 1, params.two_j + 1))
    m_vals = np.arange(params.two_j + 1) - params.j
    for k in range(params.two_j):
        jp[k + 1, k] = math.sqrt((params.j - m_vals[k]) * (params.j + m_vals[k] + 1))
    a_small = np.diag(np.sqrt(np.arange(1, params.n_max + 1)), k=1)
    x_small = a_small + a_small.T
    jz = np.repeat(m_vals, params.n_max + 1)
    diag = np.diag(params.omega0 * jz + params.omega * ops.adag_a)

    psi = psi0.amplitudes.copy()
    direct = [float(np.real(np.vdot(psi, ops.adag_a * psi))) / params.j]
    n_sub = round((grid[1] - grid[0]) / 1e-3)
    dt = (grid[1] - grid[0]) / n_sub
    for k in range(len(grid) - 1):
        for s in range(n_sub):
            t_mid = grid[k] + (s + 0.5) * dt
            phase = np.exp(1j * params.delta_phi * t_mid)
            h_lab = diag + (params.lam / math.sqrt(2 * params.j)) * np.kron(
                phase * jp + np.conj(phase) * jp.T, x_small
            )
            psi = scipy.linalg.expm(-1j * h_lab * dt) @ psi
        direct.append(float(np.real(np.vdot(psi, ops.adag_a * psi))) / params.j)
    err = float(np.max(np.abs(np.array(direct) - rot.data["mean_photon_scaled"])))
    report(3, "co-rotating frame vs time-ordered lab frame", err < 1e-6, f"max <a^dag a> deviation = {err:.2e} (tol 1e-6, dt=1e-3)")


def test_c04_parity_conservation():
    worst = 0.0
    for lam in (0.3, 1.0):
        params = ModelParams(lam=lam, j=10.0, delta_phi=1.0, n_max=100)
        ops = build_operators(params)
        grid = np.linspace(0.0, 3 * 2 * math.pi, 121)
        for label, psi0 in (
            ("fock", basis_state(params.j, params.n_max)),
            ("ground state", ground_state(params, ops=ops)),
        ):
            traj = evolve(psi0, params, grid, observables=("parity",), ops=ops)
            col = traj.data["parity"]
            worst = max(worst, float(np.max(np.abs(col - col[0]))))
            if label == "fock":
                worst = max(worst, float(np.max(np.abs(col - 1.0))))
    report(4, "parity conservation (j=10, 3 revolutions)", worst < 1e-10, f"max <Pi> drift = {worst:.2e} (tol 1e-10)")


def test_c05_stationary_circle_criticality():
    closed = mean_photon_scaled(
        fixed_points(ModelParams(lam=1.0, j=1.0, delta_phi=0.0))[1].point, 1.0
    )
    closed_err = abs(closed - 1.875)
    spec = ProtocolSpec(
        params=ModelParams(lam=1.0, j=1.0, delta_phi=1.0),
        engine="meanfield",
        initial="stationary_circle",
        driven=True,
        n_revolutions=150,
        sample_count=3000,
        observables=("mean_photon_scaled",),
        rtol=1e-9,
    )
    result = sweep_velocity(spec, [2.5, 3.5])
    cells = {cell.coords[0]: cell for cell in result.cells}
    a25 = cells[2.5].average["mean_photon_scaled"]
    a35 = cells[3.5].average["mean_photon_scaled"]
    ok = a25 > 0.05 and a35 < 1e-3 and closed_err <= 1e-6
    report(
        5,
        "stationary-circle critical velocity",
        ok,
        f"avg(2.5)={a25:.4f} (>0.05), avg(3.5)={a35:.2e} (<1e-3), "
        f"|closed form - 1.875| = {closed_err:.2e} (tol 1e-6)",
    )


def test_c06_rotated_critical_coupling_from_dynamics():
    averages = {}
    for lam in (0.65, 0.85):
        spec = ProtocolSpec(
            params=ModelParams(lam=lam, j=1.0, delta_phi=1.0),
            engine="meanfield",
            initial="nearly_fock",
            epsilon=3.0,
            driven=True,
            n_revolutions=150,
            sample_count=3000,
            observables=("mean_photon_scaled",),
            rtol=1e-9,
        )
        averages[lam] = run_protocol(spec).average("mean_photon_scaled")
    ok = averages[0.65] < 1e-3 and averages[0.85] > 0.05
    report(
        6,
        "nearly-Fock brackets rotated critical coupling",
        ok,
        f"avg(0.65)={averages[0.65]:.2e} (<1e-3), avg(0.85)={averages[0.85]:.3f} (>0.05)",
    )


def test_c07_reentrant_minimum():
    spec = ProtocolSpec(
        params=ModelParams(lam=0.7, j=1.0, delta_phi=1.0),
        engine="meanfield",
        initial="stationary_dicke",
        driven=True,
        n_revolutions=150,
        sample_count=3000,
        observables=("mean_photon_scaled",),
        rtol=1e-9,
    )
    values = np.round(np.arange(70, 101) * 0.01, 10)
    result = sweep_lambda(spec, values)
    curve = result.values("mean_photon_scaled")
    assert not np.any(np.isnan(curve)), "sweep produced failed cells"
    minima = [
        (curve[i], values[i])
        for i in range(1, len(values) - 1)
        if curve[i] < curve[i - 1] and curve[i] < curve[i + 1]
    ]
    ok = bool(minima)
    location = None
    if minima:
        _, location = min(minima)
        ok = 0.77 <= location <= 0.87
    report(
        7,
        "reentrant minimum of the time-averaged photon number",
        ok,
        f"deepest local minimum at lambda = {location} (window [0.77, 0.87], grid step 0.01)",
    )


def test_c08_overlap_reproduction():
    state = coherent_state(1e-3, 1e-3, 10.0, 100)
    overlap = abs(state.overlap(basis_state(10.0, 100)))
    err = abs(overlap - 0.99999)
    report(8, "nearly-Fock / Fock overlap", err <= 1e-5, f"|<alpha,zeta|0,-j>| = {overlap:.6f} (0.99999 +/- 1e-5)")


def test_c09_meanfield_holstein_primakoff_equivalence():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        j = float(rng.choice([0.5, 1.0, 2.0, 6.0]))
        params = ModelParams(
            lam=float(rng.uniform(0, 2)),
            omega0=float(rng.uniform(0.5, 2)),
            omega=float(rng.uniform(0.5, 2)),
            j=j,
            delta_phi=float(rng.uniform(0, 3)),
        )
        r = math.sqrt(4 * j) * 0.9 * math.sqrt(rng.uniform(0.01, 1.0))
        th = rng.uniform(0, 2 * math.pi)
        pt = PhasePoint(r * math.cos(th), r * math.sin(th), rng.normal(0, 1.5), rng.normal(0, 1.5))
        t = float(rng.uniform(0, 10))
        deriv = eom_rhs(pt, t, params)
        d_alpha, d_beta = hp_rhs(
            complex(pt.q2, pt.p2) / math.sqrt(2), complex(pt.q1, pt.p1) / math.sqrt(2), t, params
        )
        mapped = np.array(
            [
                math.sqrt(2) * d_beta.real,
                math.sqrt(2) * d_beta.imag,
                math.sqrt(2) * d_alpha.real,
                math.sqrt(2) * d_alpha.imag,
            ]
        )
        scale = max(1.0, float(np.max(np.abs(deriv))))
        worst = max(worst, float(np.max(np.abs(deriv - mapped))) / scale)
    report(9, "mean-field vs Holstein-Primakoff flow", worst < 1e-12, f"max relative deviation = {worst:.2e} (tol 1e-12, 100 points)")


def test_c10_finite_size_convergence():
    sample_count = 600
    mf_spec = ProtocolSpec(
        params=ModelParams(lam=1.3, j=12.0, delta_phi=1.0),
        engine="meanfield",
        initial="stationary_dicke",
        driven=True,
        n_revolutions=1,
        sample_count=sample_count,
        observables=("mean_photon_scaled",),
    )
    mf = run_protocol(mf_spec).average("mean_photon_scaled")
    gaps = {}
    for j, n_max in ((4, 100), (8, 130), (12, 170)):
        spec = ProtocolSpec(
            params=ModelParams(lam=1.3, j=float(j), delta_phi=1.0, n_max=n_max),
            engine="quantum",
            initial="stationary_dicke",
            driven=True,
            n_revolutions=1,
            sample_count=sample_count,
            observables=("mean_photon_scaled",),
        )
        gaps[j] = abs(run_protocol(spec).average("mean_photon_scaled") - mf)
    ok = gaps[4] > gaps[8] > gaps[12] and gaps[12] < 0.1
    report(
        10,
        "finite-size convergence to the thermodynamic limit",
        ok,
        f"gaps j=4: {gaps[4]:.4f}, j=8: {gaps[8]:.4f}, j=12: {gaps[12]:.4f} "
        "(monotone decreasing, final < 0.1)",
    )


def test_c11_ground_state_coherent_equivalence():
    base = dict(
        params=ModelParams(lam=1.3, j=6.0, delta_phi=1.0, n_max=100),
        engine="quantum",
        driven=True,
        n_revolutions=1,
        sample_count=201,
        observables=("mean_photon_scaled",),
    )
    gs = run_protocol(ProtocolSpec(initial="ground_state", **base))
    cs = run_protocol(ProtocolSpec(initial="stationary_dicke", **base))
    diff = float(np.max(np.abs(gs.data["mean_photon_scaled"] - cs.data["mean_photon_scaled"])))
    report(11, "ground state vs stationary coherent state", diff < 0.05, f"max trajectory deviation = {diff:.4f} (tol 0.05)")


def test_c12_undriven_energy_conservation():
    rng = np.random.default_rng(112)
    worst = 0.0
    for _ in range(10):
        params = ModelParams(lam=float(rng.uniform(0.2, 1.5)), j=1.0, delta_phi=1.0)
        r = math.sqrt(4.0) * 0.8 * math.sqrt(rng.uniform(0.01, 1.0))
        th = rng.uniform(0, 2 * math.pi)
        start = PhasePoint(r * math.cos(th), r * math.sin(th), rng.normal(0, 1), rng.normal(0, 1))
        traj = integrate(start, params, 50.0, sample_count=200, driven=False)
        energies = np.array(
            [
                classical_hamiltonian(
                    PhasePoint(
                        traj.data["q1"][i], traj.data["p1"][i], traj.data["q2"][i], traj.data["p2"][i]
                    ),
                    t,
                    params,
                    driven=False,
                )
                for i, t in enumerate(traj.times)
            ]
        )
        worst = max(worst, float(np.max(np.abs(energies - energies[0])) / abs(energies[0])))
    report(12, "undriven energy conservation", worst < 1e-8, f"max relative H_cl drift over t=50 = {worst:.2e} (tol 1e-8)")

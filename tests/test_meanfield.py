"""Mean-field flow, integration quality, and phase-space observables."""

import bisect
import inspect
import itertools
import linecache
import math
import re
import traceback
import tracemalloc
import types
from dataclasses import astuple, replace

import numpy as np
import pytest

from rotdicke import (
    IntegrationError,
    ModelParams,
    PhasePoint,
    ProtocolSpec,
    classical_hamiltonian,
    coherent_from_point,
    eom_rhs,
    fixed_points,
    hp_rhs,
    integrate,
    jacobi_integral,
    point_from_coherent,
    rotated_critical_coupling,
    run_protocol,
    stationary_photon_scaled,
    sweep_lambda,
    time_average,
)
from rotdicke import build_operators, coherent_state, evolve, meanfield, trajectory
from rotdicke.model import check_count, check_positive

from closed_forms import mean_photon_scaled, parity_meanfield, scaled_parity_meanfield


def random_domain_point(rng, j, fill=0.9):
    r = math.sqrt(4 * j) * fill * math.sqrt(rng.uniform(0.01, 1.0))
    th = rng.uniform(0, 2 * math.pi)
    return PhasePoint(
        r * math.cos(th), r * math.sin(th), rng.normal(0, 1.5), rng.normal(0, 1.5)
    )


def dot(coeffs, values):
    """sum(a * v) over a full tableau row, added left to right from 0.0."""
    total = 0.0
    for a, v in zip(coeffs, values):
        total += a * v
    return total


def reference_dop853(constants, y, t_grid, rtol, atol, record):
    """DOP853 driven by the tableau: every row summed in full, zeros included.

    Same scheme, step control and dense output as ``meanfield._dop853``,
    which writes the same arithmetic out as straight-line code; the two must
    agree bit for bit.  Every stage, the dense output's too, is the scalar
    right-hand side with these ``constants``.  Sets ``record["rejected"]``
    to the number of rejected steps and ``record["stages"]`` to the (q1, p1)
    of every stage 1-11 evaluated, in order.
    """
    A, C, B, E5, E3, D = (meanfield._A, meanfield._C, meanfield._B, meanfield._E5,
                          meanfield._E3, meanfield._D)
    f = meanfield._generated("_scalar_flow")(*constants)
    record["stages"] = []

    def stage(s, t, h, y, K):
        point = [y[c] + dot(A[s], [k[c] for k in K]) * h for c in range(4)]
        if s < 12:
            record["stages"].append((point[0], point[1]))
        return f(t + C[s] * h, *point)

    grid = t_grid.tolist()
    t_end = grid[-1]
    t = 0.0
    fy = f(t, *y)
    h_abs = meanfield._initial_step(f, y, fy, t_end, rtol, atol)
    dense, counts, next_sample, rejected_steps = [], [], 0, 0
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                record["rejected"] = rejected_steps
                raise IntegrationError(t, "step fell below 10 ulp: 4j boundary")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            K = [fy]
            for s in range(1, 12):
                K.append(stage(s, t, h, y, K))
            new = tuple(y[c] + h * dot(B, [k[c] for k in K]) for c in range(4))
            K.append(f(t + h, *new))
            e5 = e3 = 0.0
            for c in range(4):
                scale = atol + max(abs(y[c]), abs(new[c])) * rtol
                x5 = dot(E5, [k[c] for k in K]) / scale
                x3 = dot(E3, [k[c] for k in K]) / scale
                e5 += x5 * x5
                e3 += x3 * x3
            err = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * 4.0)
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** (-1 / 8))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** (-1 / 8))
            rejected = True
            rejected_steps += 1
        if grid[next_sample] <= t_new:
            for s in range(13, 16):
                K.append(stage(s, t, h, y, K))
            dense += (t, h)
            for c in range(4):
                delta = new[c] - y[c]
                dense += (y[c], delta, h * fy[c] - delta, 2.0 * delta - h * (K[12][c] + fy[c]))
                dense += [h * dot(d, [k[c] for k in K]) for d in D]
            end = bisect.bisect_right(grid, t_new, next_sample)
            counts.append(end - next_sample)
            next_sample = end
        t, y, fy = t_new, new, K[12]
    record["rejected"] = rejected_steps
    table = np.array(dense).reshape(len(counts), -1).T
    seg = np.repeat(np.arange(len(counts)), counts)
    x = (t_grid - table[0][seg]) / table[1][seg]
    out = []
    for base in range(2, 34, 8):
        yc = table[base + 7][seg] * x
        for i, row in enumerate(range(base + 6, base, -1), start=1):
            yc += table[row][seg]
            yc *= (1.0 - x) if i % 2 else x
        yc += table[base][seg]
        out.append(yc)
    return out


class TestEomRhs:
    def test_origin_is_stationary(self):
        params = ModelParams(lam=1.3, j=2.0, delta_phi=2.0)
        for t in (0.0, 0.7, 5.0):
            assert eom_rhs(PhasePoint(0, 0, 0, 0), t, params) == pytest.approx(
                np.zeros(4), abs=1e-15
            )

    def test_c2_derivative_is_circle_tangent(self):
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0)
        amp = math.sqrt(2 * params.j * (1 - 2.0 / 4.0))  # Omega = 2
        for t in (0.0, 0.3, 2.1):
            c2 = fixed_points(params, t)[1]
            deriv = eom_rhs(c2.point, t, params)
            phi = params.delta_phi * t
            expected = np.array(
                [
                    amp * params.delta_phi * math.sin(phi),
                    -amp * params.delta_phi * math.cos(phi),
                    0.0,
                    0.0,
                ]
            )
            assert deriv == pytest.approx(expected, abs=1e-12)

    def test_term_by_term_oracle(self):
        # Independent hand evaluation of each flow term at
        # (q1,p1,q2,p2)=(1,0,1,0), t=0, omega=omega0=lam=j=1, undriven:
        # dq1 = 0, dq2 = 0,
        # dp1 = -1 + 2*1*1*1/sqrt(4*3) - 2*sqrt(3/4)*1 = -1 + 1/sqrt(3) - sqrt(3),
        # dp2 = -1 - 2*sqrt(3/4)*1 = -1 - sqrt(3).
        params = ModelParams(lam=1.0, j=1.0, delta_phi=0.0)
        deriv = eom_rhs(PhasePoint(1.0, 0.0, 1.0, 0.0), 0.0, params)
        expected = np.array(
            [0.0, -1.0 + 1.0 / math.sqrt(3.0) - math.sqrt(3.0), 0.0, -1.0 - math.sqrt(3.0)]
        )
        assert deriv == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_undriven_reduction(self):
        rng = np.random.default_rng(3)
        driven = ModelParams(lam=0.8, j=1.0, delta_phi=2.0)
        undriven = ModelParams(lam=0.8, j=1.0, delta_phi=0.0)
        pt = random_domain_point(rng, 1.0)
        # At t=0 the drive phase vanishes, so the flows coincide.
        assert eom_rhs(pt, 0.0, driven) == pytest.approx(eom_rhs(pt, 0.0, undriven))

    def test_boundary_rejected(self):
        params = ModelParams(lam=1.0, j=1.0)
        with pytest.raises(ValueError, match="sphere"):
            eom_rhs(PhasePoint(2.0, 0.0, 0.0, 0.0), 0.0, params)


class TestHolsteinPrimakoffEquivalence:
    def test_origin_stationary(self):
        params = ModelParams(lam=1.0, j=3.0, delta_phi=1.0)
        da, db = hp_rhs(0j, 0j, 0.3, params)
        assert da == 0 and db == 0

    def test_matches_eom_on_random_points(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            j = float(rng.choice([0.5, 1.0, 2.0, 6.0]))
            params = ModelParams(
                lam=float(rng.uniform(0, 2)),
                omega0=float(rng.uniform(0.5, 2)),
                omega=float(rng.uniform(0.5, 2)),
                j=j,
                delta_phi=float(rng.uniform(0, 3)),
            )
            pt = random_domain_point(rng, j)
            t = float(rng.uniform(0, 10))
            deriv = eom_rhs(pt, t, params)
            beta = complex(pt.q1, pt.p1) / math.sqrt(2)
            alpha = complex(pt.q2, pt.p2) / math.sqrt(2)
            d_alpha, d_beta = hp_rhs(alpha, beta, t, params)
            mapped = np.array(
                [
                    math.sqrt(2) * d_beta.real,
                    math.sqrt(2) * d_beta.imag,
                    math.sqrt(2) * d_alpha.real,
                    math.sqrt(2) * d_alpha.imag,
                ]
            )
            scale = max(1.0, float(np.max(np.abs(deriv))))
            assert np.max(np.abs(deriv - mapped)) / scale < 1e-12

    def test_c2_image_is_circle_tangent(self):
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0)
        t = 0.8
        c2 = fixed_points(params, t)[1].point
        beta = complex(c2.q1, c2.p1) / math.sqrt(2)
        alpha = complex(c2.q2, c2.p2) / math.sqrt(2)
        d_alpha, d_beta = hp_rhs(alpha, beta, t, params)
        amp = math.sqrt(2 * (1 - 2.0 / 4.0))
        phi = params.delta_phi * t
        assert math.sqrt(2) * d_beta.real == pytest.approx(amp * math.sin(phi), abs=1e-12)
        assert math.sqrt(2) * d_beta.imag == pytest.approx(-amp * math.cos(phi), abs=1e-12)
        assert abs(d_alpha) == pytest.approx(0.0, abs=1e-12)

    def test_domain_guard(self):
        params = ModelParams(lam=1.0, j=0.5)
        with pytest.raises(ValueError, match="2j"):
            hp_rhs(0j, complex(1.1, 0.0), 0.0, params)


class TestIntegrate:
    def test_stationary_at_origin(self):
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0)
        traj = integrate(PhasePoint(0, 0, 0, 0), params, 10.0, sample_count=50)
        for name in ("q1", "p1", "q2", "p2"):
            assert np.max(np.abs(traj.data[name])) < 1e-12

    def test_fixed_circle_photon_number_constant(self):
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0)
        c2 = fixed_points(params, 0.0)[1]
        t_end = 3 * 2 * math.pi / params.delta_phi
        traj = integrate(c2.point, params, t_end, sample_count=400)
        photon = (traj.data["q2"] ** 2 + traj.data["p2"] ** 2) / (2 * params.j)
        closed = stationary_photon_scaled(1.0, 1.0, 1.0, 1.0)
        assert np.max(np.abs(photon - closed)) < 1e-6

    def test_undriven_from_shifted_circle_oscillates(self):
        # Start on the driven fixed circle but evolve without the drive: the
        # point is no longer stationary and the photon number oscillates.
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0)
        c2 = fixed_points(params, 0.0)[1]
        traj = integrate(c2.point, replace(params, delta_phi=0.0), 2 * math.pi, sample_count=300)
        photon = (traj.data["q2"] ** 2 + traj.data["p2"] ** 2) / (2 * params.j)
        assert np.max(photon) - np.min(photon) > 0.1

    def test_energy_conservation_undriven(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = ModelParams(lam=float(rng.uniform(0.2, 1.5)), j=1.0, delta_phi=0.0)
            start = random_domain_point(rng, 1.0, fill=0.8)
            traj = integrate(start, params, 50.0, sample_count=200)
            energies = np.array(
                [
                    classical_hamiltonian(
                        PhasePoint(
                            traj.data["q1"][i],
                            traj.data["p1"][i],
                            traj.data["q2"][i],
                            traj.data["p2"][i],
                        ),
                        t,
                        params,
                    )
                    for i, t in enumerate(traj.times)
                ]
            )
            drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
            assert drift < 1e-8

    def test_jacobi_integral_conserved_driven(self):
        # The driven flow is autonomous in the co-rotating frame, so the
        # Jacobi integral is conserved while H_cl(t) itself swings by O(1).
        rng = np.random.default_rng(113)
        for _ in range(10):
            params = ModelParams(
                lam=float(rng.uniform(0.2, 1.5)), j=1.0, delta_phi=float(rng.uniform(0.5, 3.0))
            )
            start = random_domain_point(rng, 1.0, fill=0.8)
            traj = integrate(start, params, 50.0, sample_count=200, tol=1e-12)
            points = [
                PhasePoint(*(traj.data[k][i] for k in ("q1", "p1", "q2", "p2")))
                for i in range(traj.times.size)
            ]
            energies = np.array([jacobi_integral(p, t, params) for p, t in zip(points, traj.times)])
            drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
            assert drift < 1e-8

    def test_domain_preserved_along_samples(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            params = ModelParams(lam=float(rng.uniform(0.5, 1.3)), j=1.0, delta_phi=1.0)
            start = random_domain_point(rng, 1.0, fill=0.95)
            traj = integrate(start, params, 30.0, sample_count=300)
            r2 = traj.data["q1"] ** 2 + traj.data["p1"] ** 2
            assert np.all(r2 <= 4 * params.j)

    def test_stability_bifurcation(self):
        lam_c = rotated_critical_coupling(1.0, 1.0, 1.0)
        deviations = {}
        for factor in (0.9, 1.1):
            params = ModelParams(lam=lam_c * factor, j=1.0, delta_phi=1.0)
            traj = integrate(PhasePoint(1e-4, 0, 0, 0), params, 50.0, sample_count=800)
            deviations[factor] = float(
                np.max(
                    np.sqrt(
                        traj.data["q1"] ** 2
                        + traj.data["p1"] ** 2
                        + traj.data["q2"] ** 2
                        + traj.data["p2"] ** 2
                    )
                )
            )
        assert deviations[0.9] < 1e-2
        assert deviations[1.1] > 1e-2

    def test_grid_includes_endpoints(self):
        params = ModelParams(lam=0.4, j=1.0)
        traj = integrate(PhasePoint(0.1, 0, 0, 0), params, 7.0, sample_count=11)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 7.0
        assert np.allclose(np.diff(traj.times), 0.7)

    def test_start_outside_domain_rejected(self):
        params = ModelParams(lam=1.0, j=0.5)
        with pytest.raises(ValueError, match="4j"):
            integrate(PhasePoint(1.5, 0, 0, 0), params, 1.0)

    def test_start_within_the_guard_fails_as_eom_rhs_does(self):
        # zeta = 1e7 at j = 6 maps 2.4e-13 inside the sphere, within the
        # boundary guard, where the flow is NaN: integrate once reported it
        # as "no first step: the flow's rates at the start overflow".
        params = ModelParams(lam=1.0, j=6.0, delta_phi=1.0)
        start = point_from_coherent(0j, 1e7, params.j)
        rem = 4 * params.j - (start.q1 * start.q1 + start.p1 * start.p1)
        assert 0.0 < rem < meanfield._BOUNDARY_GUARD * 4 * params.j
        with pytest.raises(ValueError, match="sphere") as expected:
            eom_rhs(start, 0.0, params)
        for params in (params, replace(params, delta_phi=0.0)):
            with pytest.raises(ValueError) as raised:
                integrate(start, params, 1.0, sample_count=3)
            assert str(raised.value) == str(expected.value)

    def test_failure_carries_time(self):
        # Inward flow starting a hair inside the sphere: step control
        # collapses at the boundary and the failure must carry its time and
        # flag the boundary, not silently clip.
        params = ModelParams(lam=3.0, j=0.5, delta_phi=1.0)
        r = math.sqrt(4 * params.j - 1e-6)
        start = PhasePoint(0.0, -r, 1.0, 0.0)  # d(4j - r^2)/dt < 0 at t=0
        with pytest.raises(IntegrationError, match="boundary") as excinfo:
            integrate(start, params, 5.0, sample_count=50, tol=1e-6)
        assert excinfo.value.t >= 0.0


@pytest.mark.parametrize("engine", ["meanfield", "quantum"])
def test_both_engines_reject_a_bad_run_alike(engine):
    # Both engines build their sample grid through one helper, so a bad
    # t_end or sample_count fails with the message of the model's own rule.
    params = ModelParams(lam=1.0, j=0.5, delta_phi=1.0, n_max=4)
    if engine == "meanfield":
        def run(t_end, sample_count):
            integrate(PhasePoint(0.1, 0, 0, 0), params, t_end, sample_count)
    else:
        def run(t_end, sample_count):
            evolve(coherent_state(0, 0, 0.5, 4), params, t_end, sample_count)
    cases = [(t_end, 2, lambda v=t_end: check_positive("t_end", v)) for t_end in (0.0, -1.0, math.nan, math.inf)]
    cases += [(1.0, n, lambda v=n: check_count("sample_count", v, 2)) for n in (1, 2.5, True)]
    for t_end, sample_count, rule in cases:
        with pytest.raises(ValueError) as expected:
            rule()
        with pytest.raises(ValueError) as raised:
            run(t_end, sample_count)
        assert str(raised.value) == str(expected.value), (t_end, sample_count)


class TestDop853:
    def test_tableau_equals_scipy(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert np.array_equal(meanfield._C, ref.C)
        assert len(meanfield._A) == ref.N_STAGES_EXTENDED
        for s, row in enumerate(meanfield._A):
            assert np.array_equal(np.asarray(row, dtype=float), ref.A[s, :s])
            assert not np.any(ref.A[s, s:])
        assert np.array_equal(meanfield._B, ref.B)
        assert np.array_equal(meanfield._E3, ref.E3)
        assert np.array_equal(meanfield._E5, ref.E5)
        assert np.array_equal(meanfield._D, ref.D)

    def test_matches_scipy_dop853(self, monkeypatch):
        # Same tableau and step control: the same right-hand-side evaluations,
        # so the same accepted and rejected steps, and samples within 1e-9.
        # Ours are f at t = 0, the first-step probe, 12 per step attempt in
        # the loop and one per lane of the array form: the dense-output
        # stages cost what scipy's per-step evaluations of them cost.
        from scipy.integrate import solve_ivp

        generated = meanfield._generated
        rng = np.random.default_rng(12)
        for k in range(8):
            j = float(rng.choice([0.5, 1.0, 3.0]))
            params = ModelParams(
                lam=float(rng.uniform(0.2, 1.5)), j=j, delta_phi=float(rng.uniform(0.3, 2.0))
            )
            start = random_domain_point(rng, j)
            if k % 2:
                params = replace(params, delta_phi=0.0)
            flow = generated("_scalar_flow")(*meanfield._constants(params, params.delta_phi))
            lanes, attempts = [], []

            def counted_array_flow(*constants):
                array = generated("_array_flow")(*constants)

                def counted_array(t, *y):
                    lanes.append(t.size)
                    return array(t, *y)

                return counted_array

            def counted_steps(*args):
                dense, ends, accepted, rejected = generated("_steps")(*args)
                attempts.append(accepted + rejected)
                return dense, ends, accepted, rejected

            counted = {"_array_flow": counted_array_flow, "_steps": counted_steps}
            monkeypatch.setattr(meanfield, "_generated", lambda name: counted.get(name) or generated(name))
            traj = integrate(start, params, 2 * math.pi, sample_count=200)
            monkeypatch.undo()
            ref = solve_ivp(
                lambda t, y: flow(t, *y),
                (0.0, 2 * math.pi),
                [start.q1, start.p1, start.q2, start.p2],
                method="DOP853",
                rtol=1e-12,
                atol=1e-12,
                t_eval=traj.times,
            )
            assert 2 + 12 * attempts[0] + sum(lanes) == ref.nfev
            ours = np.array([traj.data[name] for name in ("q1", "p1", "q2", "p2")])
            assert np.max(np.abs(ours - ref.y)) < 1e-9

    def test_array_form_bit_identical_to_flow(self):
        # Random domain points, lanes just inside and just outside the
        # boundary guard, lanes past the sphere and NaN coordinates: every
        # lane of the array form has the bits of the scalar f on that lane,
        # NaN included.
        rng = np.random.default_rng(7)
        for j, lam, drive in ((0.5, 1.7, 0.6), (1.0, 0.0, 1.3), (3.0, 0.9, 0.0)):
            constants = meanfield._constants(ModelParams(lam=lam, j=j, delta_phi=1.0), drive)
            f = meanfield._generated("_scalar_flow")(*constants)
            guard = meanfield._BOUNDARY_GUARD * 4 * j
            lanes = [astuple(random_domain_point(rng, j, fill=0.99))[:4] for _ in range(200)]
            for rem in (2 * guard, 1.01 * guard, guard, 0.99 * guard, 0.0, -1.0):
                th = rng.uniform(0, 2 * math.pi)
                r = math.sqrt(4 * j - rem)
                lanes.append((r * math.cos(th), r * math.sin(th), 0.7, -0.2))
            for index in range(4):
                lane = [0.3, -0.4, 0.5, 0.1]
                lane[index] = math.nan
                lanes.append(tuple(lane))
            t = rng.uniform(0.0, 50.0, len(lanes))
            y = np.array(lanes).T
            expected = np.array([f(*args) for args in zip(t.tolist(), *y.tolist())]).T
            got = meanfield._generated("_array_flow")(*constants)(t, *y)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            near = got[:, -10:-4]  # the lanes around the guard take both sides
            assert np.isfinite(near).all(axis=0).any() and np.isnan(near).all(axis=0).any()

    def test_uncoupled_flow_is_closed_form_rotation(self):
        # At lambda = 0 both sectors rotate rigidly, drive or no drive.
        params = ModelParams(lam=0.0, omega0=1.3, omega=0.7, j=2.0, delta_phi=1.0)
        start = PhasePoint(0.8, -1.1, 1.5, 0.4)
        for params in (params, replace(params, delta_phi=0.0)):
            traj = integrate(start, params, 20.0, sample_count=301)
            for q, p, w in (("q1", "p1", params.omega0), ("q2", "p2", params.omega)):
                cos, sin = np.cos(w * traj.times), np.sin(w * traj.times)
                q0, p0 = getattr(start, q), getattr(start, p)
                assert np.max(np.abs(traj.data[q] - (q0 * cos + p0 * sin))) < 1e-9
                assert np.max(np.abs(traj.data[p] - (p0 * cos - q0 * sin))) < 1e-9

    def test_sweep_cell_bit_identical_to_single_run(self):
        spec = ProtocolSpec(
            params=ModelParams(lam=0.5, j=1.0, delta_phi=1.0),
            initial="nearly_fock",
            epsilon=3.0,
            n_revolutions=2,
            sample_count=300,
            rtol=1e-9,
        )
        lambdas = (0.4, 0.9, 1.3)
        result = sweep_lambda(spec, lambdas)
        for lam, cell in zip(lambdas, result.cells):
            traj = run_protocol(replace(spec, params=replace(spec.params, lam=lam)))
            assert cell.final == {name: traj.final(name) for name in spec.observables}
            assert cell.average == {name: traj.average(name) for name in spec.observables}

    @staticmethod
    def integrate_both(monkeypatch, *args, **kwargs):
        """integrate() as is and with reference_dop853 in place of _dop853:
        both results (or the errors they raised) and the reference's record."""

        def run():
            try:
                return integrate(*args, **kwargs)
            except IntegrationError as exc:
                return exc

        ours = run()
        record = {}
        with monkeypatch.context() as patch:
            patch.setattr(meanfield, "_dop853", lambda *a: reference_dop853(*a, record))
            ref = run()
        return ours, ref, record

    @staticmethod
    def assert_same_bits(ours, ref):
        for name in ("q1", "p1", "q2", "p2"):
            assert ours.data[name].tobytes() == ref.data[name].tobytes(), name

    def test_bit_identical_to_tableau_loop(self, monkeypatch):
        # Every rtol with every sample count, driven and undriven, from
        # random starts over a few periods.
        rng = np.random.default_rng(2024)
        grid = itertools.product((1e-6, 1e-9, 1e-12), (2, 17, 1200), (True, False))
        for rtol, count, driven in itertools.chain(grid, [(1e-9, 300, True)] * 4):
            j = float(rng.choice([0.5, 1.0, 3.0]))
            params = ModelParams(
                lam=float(rng.uniform(0.0, 1.8)), j=j, delta_phi=float(rng.uniform(0.3, 3.0))
            )
            start = random_domain_point(rng, j, fill=0.95)
            t_end = float(rng.uniform(1.0, 15.0))
            if not driven:
                params = replace(params, delta_phi=0.0)
            ours, ref, _ = self.integrate_both(
                monkeypatch, start, params, t_end, sample_count=count, tol=rtol
            )
            self.assert_same_bits(ours, ref)

    def test_rejected_steps_bit_identical(self, monkeypatch):
        # A start 1.9e-4 inside q1^2+p1^2 = 4j.  Driven, one trial step has
        # finite stages but an end point past the boundary guard, so only
        # f at t + h is NaN; both error sums weight it by 0.0, and the step
        # must still be rejected.
        params = ModelParams(lam=1.7937745040710111, j=0.5, delta_phi=0.636331583157467)
        start = PhasePoint(0.0025490479612444296, -1.414145207989694, -0.6499561948012956,
                           -0.9771454371346897)
        for params in (params, replace(params, delta_phi=0.0)):
            ours, ref, record = self.integrate_both(
                monkeypatch, start, params, 4.0, sample_count=60, tol=1e-6
            )
            assert record["rejected"] > 0
            self.assert_same_bits(ours, ref)

    @pytest.mark.parametrize(
        "lam, delta_phi, start, t_end, count, guard_per_4j, within",
        [
            # Stages strictly inside the guard are past the sphere (rem < 0).
            (0.5425480476702815, 1.4945955910881326,
             (0.07062116758014915, -1.4124452861720562, 0.20211439504395987, 0.6941719367070082),
             4.0, 60, "0x1.3f115f8p-28", False),
            # One stage strictly inside the guard is within the sphere
            # (0 <= rem < guard), where only the guard makes it NaN.
            (1.9432891648091648, 1.761410453947885,
             (0.07932734751010073, -1.4119862016257347, -0.9543310628425734, 1.2262087701743356),
             1.2356809107694537, 40, "0x1.126696338p-20", True),
        ],
        ids=["past-the-sphere", "within-the-sphere"],
    )
    def test_intermediate_stages_at_the_guard_bit_identical(
        self, monkeypatch, lam, delta_phi, start, t_end, count, guard_per_4j, within
    ):
        # The loop evaluates stages 1-11 inline, each with its own copy of
        # f's boundary guard.  With the guard moved onto the exact rem =
        # 4j - (q1^2 + p1^2) of one intermediate stage (at j = 1/2 the guard
        # is 2 * _BOUNDARY_GUARD exactly, and rem is exact near the sphere),
        # that stage sits on the guard, where f is finite, while other
        # intermediate stages fall strictly inside it, where f is NaN and
        # the step is rejected.
        params = ModelParams(lam=lam, j=0.5, delta_phi=delta_phi)
        monkeypatch.setattr(meanfield, "_BOUNDARY_GUARD", float.fromhex(guard_per_4j))
        guard = meanfield._BOUNDARY_GUARD * 4 * params.j
        ours, ref, record = self.integrate_both(
            monkeypatch, PhasePoint(*start), params, t_end, sample_count=count, tol=1e-6
        )
        assert record["rejected"] > 0
        rems = [4 * params.j - (q1 * q1 + p1 * p1) for q1, p1 in record["stages"]]
        inside = [rem for rem in rems if rem < guard]
        assert guard in rems and inside
        if within:
            assert max(inside) >= 0.0
        self.assert_same_bits(ours, ref)

    def test_failure_time_identical(self, monkeypatch):
        params = ModelParams(lam=3.0, j=0.5, delta_phi=1.0)
        start = PhasePoint(0.0, -math.sqrt(4 * params.j - 1e-6), 1.0, 0.0)
        ours, ref, _ = self.integrate_both(monkeypatch, start, params, 5.0, 50, tol=1e-6)
        assert isinstance(ours, IntegrationError) and isinstance(ref, IntegrationError)
        assert ours.t == ref.t

    def test_chunk_edges_bit_identical(self, monkeypatch):
        # The dense output is evaluated CHUNK samples at a time: grids that
        # end just short of, on and just past a chunk edge, and a third
        # chunk of one sample, against the reference's whole-grid pass.
        params = ModelParams(lam=1.1, j=1.0, delta_phi=0.8)
        start = PhasePoint(0.6, -0.3, 0.9, -0.4)
        chunk = meanfield.CHUNK
        for count in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            for drive in (params.delta_phi, 0.0):
                ours, ref, _ = self.integrate_both(
                    monkeypatch, start, replace(params, delta_phi=drive), 6.0, sample_count=count, tol=1e-9
                )
                self.assert_same_bits(ours, ref)

    def test_boundary_failure_in_a_later_chunk(self, monkeypatch):
        # Poison samples past the first chunk: the error carries the time of
        # the first violating sample, as the whole-grid check gave it, with
        # NaN counted as a violation.
        chunk = meanfield.CHUNK
        real = meanfield._dop853
        params = ModelParams(lam=0.9, j=1.0, delta_phi=1.3)
        start = PhasePoint(0.4, -0.7, 0.5, 0.2)
        for poison in ((chunk + 5, math.nan), (2 * chunk, 2.5), (chunk + 7, -2.01)):

            def poisoned(*args):
                q1, p1, q2, p2 = real(*args)
                q1[poison[0]] = poison[1]
                q1[2 * chunk + 3] = 10.0
                return q1, p1, q2, p2

            monkeypatch.setattr(meanfield, "_dop853", poisoned)
            with pytest.raises(IntegrationError, match="4j") as excinfo:
                integrate(start, params, 8.0, 3 * chunk)
            monkeypatch.undo()
            times = np.linspace(0.0, 8.0, 3 * chunk)
            assert excinfo.value.t == times[poison[0]]

    def test_stepping_calls_no_sum(self, monkeypatch):
        # sum() of floats is compensated from Python 3.12 on, so a sum() on
        # the stepping path would give other bits there than on 3.10/3.11.
        def no_sum(*args):
            raise AssertionError("sum() called on the stepping path")

        monkeypatch.setattr(meanfield, "sum", no_sum, raising=False)
        params = ModelParams(lam=0.9, j=1.0, delta_phi=1.3)
        for params in (params, replace(params, delta_phi=0.0)):
            traj = integrate(PhasePoint(0.4, -0.7, 0.5, 0.2), params, 8.0, 100)
            assert np.all(np.isfinite(traj.data["q1"]))

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_bad_t_end(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            integrate(PhasePoint(0.1, 0, 0, 0), ModelParams(lam=1.0, j=1.0), t_end)

    def test_rejects_non_integer_sample_count(self):
        # A float count once reached np.linspace as a TypeError.
        with pytest.raises(ValueError, match="sample_count must be an integer"):
            integrate(PhasePoint(0.1, 0, 0, 0), ModelParams(lam=1.0, j=1.0), 1.0, sample_count=2.5)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_start(self, index, bad):
        coords = [0.1, 0.2, 0.3, 0.4]
        coords[index] = bad
        with pytest.raises(ValueError, match="finite"):
            integrate(PhasePoint(*coords), ModelParams(lam=1.0, j=1.0), 1.0)

    @pytest.mark.parametrize("t0", [0.4, 1.5, -1.0, math.nan])
    def test_rejects_start_off_time_zero(self, t0):
        # The drive phase starts at 0, so c2 built for t0 = 0.4 was once
        # integrated from the wrong phase: at j = lam = delta_phi = 1 its
        # photon number swung by 0.54 over a revolution instead of staying
        # constant.
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0)
        start = fixed_points(params, t0)[1].point if math.isfinite(t0) else PhasePoint(0.1, 0, 0, 0, t0)
        with pytest.raises(ValueError, match=rf"start\.t must be 0 .*got {t0}"):
            integrate(start, params, 2 * math.pi)


class TestGeneratedSteps:
    """The step loop ``meanfield._steps`` and the scalar right-hand side,
    generated from the tableau and one text of the flow."""

    def test_pinned_text(self):
        source = meanfield._steps_source()
        steps = meanfield._generated("_steps")
        assert source.endswith(inspect.getsource(steps))
        for name in ("_scalar_flow", "_array_flow"):
            assert inspect.getsource(meanfield._generated(name)) in source
        stage_1 = (
            "            ts = t + 0.05260015195876773 * h\n"
            "            y1 = q1 + (0.05260015195876773 * k0_1) * h\n"
            "            y2 = p1 + (0.05260015195876773 * k0_2) * h\n"
            "            y3 = q2 + (0.05260015195876773 * k0_3) * h\n"
            "            y4 = p2 + (0.05260015195876773 * k0_4) * h\n"
            "            rem = four_j - (y1 * y1 + y2 * y2)\n"
            "            if rem < guard:\n"
            "                k1_1 = k1_2 = k1_3 = k1_4 = nan\n"
            "            else:\n"
            "                phi = drive * ts\n"
            "                cos_phi = cos(phi)\n"
            "                sin_phi = sin(phi)\n"
            "                proj = cos_phi * y1 + sin_phi * y2\n"
            "                root = sqrt(rem / four_j)\n"
            "                denom = sqrt(four_j * rem)\n"
            "                g = two_lam * y3\n"
            "                g_proj = g * proj\n"
            "                g_root = g * root\n"
            "                k1_1 = omega0 * y2 - g_proj * y2 / denom + g_root * sin_phi\n"
            "                k1_2 = neg_omega0 * y1 + g_proj * y1 / denom - g_root * cos_phi\n"
            "                k1_3 = omega * y4\n"
            "                k1_4 = neg_omega * y3 - two_lam * root * proj\n"
            "            ts = t + 0.0789002279381516 * h\n"
        )
        error_5_of_q1 = (
            "            x5 = (0.01312004499419488 * k0_1 + -1.2251564463762044 * k5_1"
            " + -0.4957589496572502 * k6_1 + 1.6643771824549864 * k7_1"
            " + -0.35032884874997366 * k8_1 + 0.3341791187130175 * k9_1"
            " + 0.08192320648511571 * k10_1 + -0.022355307863886294 * k11_1) / scale\n"
        )
        assert stage_1 in source
        assert error_5_of_q1 in source
        # Both forms of f carry stage 1's lines of the right-hand side, with
        # its names renamed to f's: the float form behind the guard test, the
        # array form without it.
        renames = {"ts": "t", "y1": "q1", "y2": "p1", "y3": "q2", "y4": "p2",
                   "k1_1": "dq1", "k1_2": "dp1", "k1_3": "dq2", "k1_4": "dp2"}
        stage = [re.sub(r"\w+", lambda m: renames.get(m[0], m[0]), line.strip())
                 for line in stage_1.splitlines()[5:-1]]

        def rhs(name):
            lines = [line.strip() for line in inspect.getsource(meanfield._generated(name)).splitlines()]
            first = lines.index(stage[0])
            return lines[first:lines.index(stage[-1], first) + 1]

        guard = ["if rem < guard:", "dq1 = dp1 = dq2 = dp2 = nan", "else:"]
        assert stage[1:4] == guard and len(stage) == 17
        assert rhs("_scalar_flow") == stage
        assert rhs("_array_flow") == stage[:1] + stage[4:]

    def test_runs_in_module_globals(self):
        # Monkeypatching a name of the module (as test_stepping_calls_no_sum
        # does with sum) must reach the generated code.
        for name in ("_steps", "_scalar_flow", "_array_flow"):
            assert meanfield._generated(name).__globals__ is vars(meanfield)

    def test_traceback_shows_generated_line(self, monkeypatch):
        self._assert_traceback_shows_generated_line(monkeypatch)

    def test_generated_source_survives_a_cache_clear(self, monkeypatch):
        # linecache.clearcache() once dropped the generated loop's lines for
        # good on Python 3.10-3.12: inspect.getsource raised OSError and
        # tracebacks through _steps showed no source line.
        linecache.clearcache()
        self._assert_traceback_shows_generated_line(monkeypatch)
        assert inspect.getsource(meanfield._generated("_steps")).startswith("def _steps(")

    @staticmethod
    def _assert_traceback_shows_generated_line(monkeypatch):
        calls = itertools.count(1)

        def cos(x):
            # Calls 1 and 2 are f at t = 0 and the initial-step probe; the
            # 4th is the first attempt's stage 2, inline in _steps.
            if next(calls) == 4:
                raise ZeroDivisionError("raised by cos")
            return math.cos(x)

        monkeypatch.setattr(meanfield, "math", types.SimpleNamespace(**{**vars(math), "cos": cos}))
        constants = meanfield._constants(ModelParams(lam=0.9, j=1.0, delta_phi=1.3), 1.3)
        with pytest.raises(ZeroDivisionError) as excinfo:
            meanfield._dop853(constants, (0.4, -0.7, 0.5, 0.2), np.linspace(0.0, 1.0, 5), 1e-9, 1e-12)
        frames = [frame for frame in traceback.extract_tb(excinfo.tb) if frame.name == "_steps"]
        assert len(frames) == 1
        assert frames[0].filename == "<rotdicke.meanfield._steps>"
        assert frames[0].line == "cos_phi = cos(phi)"
        # The stage's time is bound a fixed number of lines above its cos.
        stage_time = linecache.getline(frames[0].filename, frames[0].lineno - 10)
        assert stage_time.strip() == f"ts = t + {meanfield._C[2]!r} * h"


def table_value(name, point, j):
    """The observable table's mean-field value at one phase-space point."""
    coords = (np.array([c]) for c in (point.q1, point.p1, point.q2, point.p2))
    return float(trajectory.OBSERVABLES[name].meanfield(*coords, j)[0])


class TestObservables:
    def test_mean_photon_scaled(self):
        c2 = fixed_points(ModelParams(lam=1.0, j=1.0, delta_phi=0.0))[1]
        for point, j, expected in (
            (PhasePoint(0, 0, 0, 0), 3.0, 0.0),
            (PhasePoint(0, 0, 1.0, 2.0), 1.0, 2.5),
            (c2.point, 1.0, 1.875),
        ):
            value = table_value("mean_photon_scaled", point, j)
            assert value == mean_photon_scaled(point, j)
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_parity_vacuum(self):
        for j in (0.5, 5.0):
            assert table_value("parity", point_from_coherent(0j, 0j, j), j) == 1.0
            assert parity_meanfield(0j, 0j, j) == 1.0

    def test_parity_field_factor(self):
        for alpha, j in ((1.0 + 0j, 2.0), (0.6 - 0.8j, 1.5)):
            value = table_value("parity", point_from_coherent(alpha, 0j, j), j)
            assert value == pytest.approx(math.exp(-2.0), rel=1e-14)
            assert parity_meanfield(alpha, 0j, j) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_parity_equatorial_spin(self):
        # |zeta| = 1 puts the spin on the equator, where q1^2+p1^2 = 2j: the
        # base is 0 up to the rounding of point_from_coherent.
        for zeta, j in ((1.0 + 0j, 1.0), (0.6 + 0.8j, 2.0), (-1.0 + 0j, 0.5)):
            assert table_value("parity", point_from_coherent(0j, zeta, j), j) == pytest.approx(
                0.0, abs=1e-15
            )
            assert parity_meanfield(0j, zeta, j) == pytest.approx(0.0, abs=1e-15)

    def test_parity_generic_cross_check(self):
        # The table in phase space against the closed form in (alpha, zeta).
        for alpha, zeta, j in (
            (0.3 + 0.4j, -0.5 + 0.2j, 3.0),
            (1.1 - 0.2j, 0.7j, 1.5),
            (-0.2j, 2.5 + 1.0j, 4.0),
        ):
            value = table_value("parity", point_from_coherent(alpha, zeta, j), j)
            assert value == pytest.approx(parity_meanfield(alpha, zeta, j), rel=1e-13)

    def test_scaled_parity_origin_and_edge(self):
        assert table_value("scaled_parity", PhasePoint(0, 0, 0, 0), 4.0) == 1.0
        # On the edge q1^2+p1^2 = 2j^2 the base rounds to -2.2e-16: floating
        # residue inside [-1e-12, 0), counted as 0, also inside a trajectory.
        j = 2.0
        q1 = np.array([1.0, math.sqrt(2 * j * j), 0.5])
        assert 1.0 - q1[1] ** 2 / (2 * j * j) < 0.0
        zeros = np.zeros(3)
        values = trajectory.OBSERVABLES["scaled_parity"].meanfield(q1, zeros, zeros, zeros, j)
        assert values[1] == 0.0
        for k in (0, 2):
            expected = scaled_parity_meanfield(PhasePoint(q1[k], 0.0, 0.0, 0.0), j)
            assert values[k] == pytest.approx(expected, rel=1e-15)

    def test_scaled_parity_generic_dual_evaluation(self):
        for pt, j in (
            (PhasePoint(1.2, -0.7, 0.4, 0.9), 3.0),
            (PhasePoint(-0.3, 0.5, -1.1, 0.2), 1.5),
        ):
            expected = scaled_parity_meanfield(pt, j)
            assert table_value("scaled_parity", pt, j) == pytest.approx(expected, rel=1e-15)

    def test_scaled_parity_domain_error(self):
        j = 2.0
        # A base of -1.5e-12, just beyond the floating residue the edge allows.
        beyond = math.sqrt(2 * j * j * (1 + 1.5e-12))
        for q1, j in ((1.9, 1.0), (beyond, j)):
            with pytest.raises(ValueError, match="2j\\^2"):
                table_value("scaled_parity", PhasePoint(q1, 0, 0, 0), j)

    def test_scaled_parity_domain_error_in_a_later_chunk(self):
        # integrate fills the observable columns CHUNK samples at a time;
        # an offending sample past the first chunk still raises.
        chunk = meanfield.CHUNK
        spec = ProtocolSpec(
            params=ModelParams(lam=1.3, j=1.0, delta_phi=0.3),
            initial="nearly_fock",
            epsilon=3.0,
            sample_count=3 * chunk,
            observables=("parity",),
        )
        traj = run_protocol(spec)
        r2 = traj.data["q1"] ** 2 + traj.data["p1"] ** 2
        first = np.nonzero(1.0 - r2 / 2.0 < -1e-12)[0][0]
        assert chunk < first < 2 * chunk
        with pytest.raises(ValueError, match="2j\\^2"):
            run_protocol(replace(spec, observables=("parity", "scaled_parity")))

    def test_integrate_columns_are_the_table_on_its_coordinates(self):
        # integrate evaluates its columns CHUNK samples at a time; each is
        # bit-equal to the table row evaluated once on the whole returned
        # coordinate arrays.  At j = 2 the domain 4j of the flow lies inside
        # the 2j^2 of the scaled parity.
        names = tuple(trajectory.OBSERVABLES)
        params = ModelParams(lam=1.0, j=2.0, delta_phi=1.0)
        samples = 3 * meanfield.CHUNK + 1
        traj = integrate(PhasePoint(1.2, -0.7, 0.5, 0.2), params, 8.0, samples, observables=names)
        assert traj.observables == names
        assert list(traj.data) == ["q1", "p1", "q2", "p2", *names]
        coords = [traj.data[name] for name in ("q1", "p1", "q2", "p2")]
        for name in names:
            whole = trajectory.OBSERVABLES[name].meanfield(*coords, params.j)
            assert traj.data[name].tobytes() == whole.tobytes(), name

    def test_quantum_entries_match_meanfield_on_coherent_states(self):
        # <O> in |alpha>|zeta> equals the mean-field value at the point the
        # pair labels, for every observable both engines report.
        n_max = 60
        for alpha, zeta, j in ((0.3 + 0.4j, -0.5 + 0.2j, 3.0), (1.1 - 0.2j, 0.7j, 1.5), (0j, 0.4, 0.5)):
            ops = build_operators(ModelParams(lam=0.5, j=j, n_max=n_max))
            state = coherent_state(alpha, zeta, j, n_max)
            point = point_from_coherent(alpha, zeta, j)
            names = [name for name, entry in trajectory.OBSERVABLES.items() if entry.quantum]
            assert names == ["mean_photon_scaled", "parity"]
            for name in names:
                quantum = trajectory.OBSERVABLES[name].quantum(ops, state)
                assert abs(quantum - table_value(name, point, j)) < 1e-10, (name, alpha, zeta, j)


class TestSampleMemory:
    """A run holds its output arrays plus scratch of a few CHUNK samples.

    One revolution at 100k samples: tracemalloc slows every float the
    stepping loop makes, and the whole-grid temporaries this bound rules out
    scale with the samples, not the steps.
    """

    @staticmethod
    def traced_peak_ratio(run):
        run()  # first call: imports and caches
        tracemalloc.start()
        try:
            traj = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = traj.times.nbytes + sum(column.nbytes for column in traj.data.values())
        return peak / returned

    def test_integrate_peak(self):
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0)
        start = PhasePoint(0.4, -0.7, 0.5, 0.2)
        ratio = self.traced_peak_ratio(lambda: integrate(start, params, 2 * math.pi, 100_000))
        assert ratio <= 1.5, f"integrate peaked at {ratio:.2f}x the bytes it returned"

    def test_run_protocol_peak(self):
        spec = ProtocolSpec(
            params=ModelParams(lam=1.0, j=1.0, delta_phi=1.0),
            initial="stationary_circle",
            sample_count=100_000,
            observables=("mean_photon_scaled", "parity", "scaled_parity"),
        )
        ratio = self.traced_peak_ratio(lambda: run_protocol(spec))
        assert ratio <= 1.5, f"run_protocol peaked at {ratio:.2f}x the bytes it returned"


class TestTimeAverage:
    def test_constant(self):
        t = np.linspace(0, 5, 20)
        assert time_average(t, np.full(20, 2.5)) == pytest.approx(2.5)

    def test_sine_over_period(self):
        t = np.linspace(0, 2 * math.pi, 4001)
        assert abs(time_average(t, np.sin(t))) < 1e-6

    def test_linear_ramp_exact(self):
        t = np.linspace(0, 1, 7)
        assert time_average(t, t) == pytest.approx(0.5, rel=1e-15)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            time_average([0.0], [1.0])


class TestTrajectoryInvariants:
    def test_times_must_start_at_zero_and_increase(self):
        from rotdicke import Trajectory

        params = ModelParams(lam=1.0, j=1.0)
        with pytest.raises(ValueError, match="t=0"):
            Trajectory(params, "meanfield", True, np.array([1.0, 2.0]), {})
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(params, "meanfield", True, np.array([0.0, 2.0, 1.0]), {})
        with pytest.raises(ValueError, match="samples"):
            Trajectory(
                params, "meanfield", True, np.array([0.0, 1.0]), {"q1": np.zeros(3)}
            )

    @pytest.mark.parametrize("times", [[0.0, math.inf], [0.0, 1.0, math.inf]])
    def test_infinite_last_time_rejected(self, times):
        # An infinite last sample is larger than the one before it.
        from rotdicke import Trajectory

        params = ModelParams(lam=1.0, j=1.0)
        with pytest.raises(ValueError, match="times must be .*finite"):
            Trajectory(params, "meanfield", True, np.array(times), {})

    def test_times_checked_across_chunk_edges(self):
        from rotdicke import Trajectory

        params = ModelParams(lam=1.0, j=1.0)
        chunk = meanfield.CHUNK
        good = np.linspace(0.0, 1.0, 2 * chunk + 2)
        Trajectory(params, "meanfield", True, good, {})
        for index in (1, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1):
            for bad in (math.nan, good[index - 1]):  # NaN, then a repeated time
                times = good.copy()
                times[index] = bad
                with pytest.raises(ValueError, match="increasing"):
                    Trajectory(params, "meanfield", True, times, {})

    def test_times_check_traced_peak(self):
        # Whole-grid temporaries (np.diff and a bool array) cost 0.9 MB at
        # 100k samples, and a mean-field run_protocol builds its Trajectory
        # twice.
        from rotdicke import Trajectory

        params = ModelParams(lam=1.0, j=1.0)
        times = np.linspace(0.0, 1.0, 100_000)
        Trajectory(params, "meanfield", True, times, {})
        tracemalloc.start()
        try:
            Trajectory(params, "meanfield", True, times, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, f"Trajectory construction peaked at {peak} bytes"

    def test_equality_compares_arrays_by_value(self):
        from rotdicke import Trajectory

        def make(times=(0.0, 1.0), q1=(0.5, 0.25), lam=1.0):
            return Trajectory(
                ModelParams(lam=lam), "meanfield", True, np.array(times), {"q1": np.array(q1)}
            )

        assert make() == make()
        assert Trajectory(ModelParams(lam=1.0), "meanfield", True, np.array([0.0, 1.0]), {}) == (
            Trajectory(ModelParams(lam=1.0), "meanfield", True, np.array([0.0, 1.0]), {})
        )
        assert make() != make(times=(0.0, 2.0))
        assert make() != make(q1=(0.5, 0.125))
        assert make() != make(lam=1.5)
        assert make() != replace(make(), data={"p1": np.array([0.5, 0.25])})
        assert make() != make(times=(0.0, 1.0, 2.0), q1=(0.5, 0.25, 0.0))
        assert make() != "not a trajectory"


class TestCoherentPointMaps:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            j = float(rng.choice([0.5, 1.0, 4.0]))
            pt = random_domain_point(rng, j)
            alpha, zeta = coherent_from_point(pt, j)
            back = point_from_coherent(alpha, zeta, j)
            assert back.q1 == pytest.approx(pt.q1, abs=1e-12)
            assert back.p1 == pytest.approx(pt.p1, abs=1e-12)
            assert back.q2 == pytest.approx(pt.q2, abs=1e-12)
            assert back.p2 == pytest.approx(pt.p2, abs=1e-12)

    def test_point_on_the_sphere_has_no_labels(self):
        with pytest.raises(ValueError, match="must be below 4j"):
            coherent_from_point(PhasePoint(q1=2.0, p1=0.0, q2=0.0, p2=0.0), 1.0)

    def test_energy_rejects_a_point_outside_the_sphere(self):
        params = ModelParams(lam=1.0, j=1.0, delta_phi=1.0)
        with pytest.raises(ValueError, match="exceeds 4j"):
            classical_hamiltonian(PhasePoint(q1=3.0, p1=0.0, q2=0.0, p2=0.0), 0.0, params)

    def test_stationary_labels_map_to_fixed_point(self):
        from rotdicke import initial_state_params

        params = ModelParams(lam=1.0, j=1.0, delta_phi=0.0)
        alpha, zeta = initial_state_params("stationary_dicke", params)
        pt = point_from_coherent(alpha, zeta, params.j)
        c2 = fixed_points(params)[1].point
        assert pt.q1 == pytest.approx(c2.q1, rel=1e-12)
        assert pt.q2 == pytest.approx(c2.q2, rel=1e-12)
        assert pt.p1 == 0.0 and pt.p2 == 0.0

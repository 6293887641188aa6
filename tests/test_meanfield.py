"""Mean-field flow, integration quality, and phase-space observables."""

import bisect
import itertools
import math
import tracemalloc
from dataclasses import replace

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
from rotdicke import build_operators, coherent_state, meanfield

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


def reference_dop853(f, y, t_grid, rtol, atol, rejections):
    """DOP853 driven by the tableau: every row summed in full, zeros included.

    Same scheme, step control and dense output as ``meanfield._dop853``,
    which writes the same arithmetic out as straight-line code; the two must
    agree bit for bit.  Appends the number of rejected steps to
    ``rejections``.
    """
    A, C, B, E5, E3, D = (meanfield._A, meanfield._C, meanfield._B, meanfield._E5,
                          meanfield._E3, meanfield._D)

    def stage(s, t, h, y, K):
        return f(t + C[s] * h, *[y[c] + dot(A[s], [k[c] for k in K]) * h for c in range(4)])

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
                rejections.append(rejected_steps)
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
    rejections.append(rejected_steps)
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
        traj = integrate(c2.point, params, 2 * math.pi, sample_count=300, driven=False)
        photon = (traj.data["q2"] ** 2 + traj.data["p2"] ** 2) / (2 * params.j)
        assert np.max(photon) - np.min(photon) > 0.1

    def test_energy_conservation_undriven(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = ModelParams(lam=float(rng.uniform(0.2, 1.5)), j=1.0, delta_phi=1.0)
            start = random_domain_point(rng, 1.0, fill=0.8)
            traj = integrate(start, params, 50.0, sample_count=200, driven=False)
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
                        driven=False,
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
            traj = integrate(start, params, 50.0, sample_count=200, tol=1e-12, driven=True)
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
        # Same tableau and step control: the same right-hand-side calls, so
        # the same accepted and rejected steps, and samples within 1e-9.
        from scipy.integrate import solve_ivp

        rng = np.random.default_rng(12)
        for k in range(8):
            j = float(rng.choice([0.5, 1.0, 3.0]))
            params = ModelParams(
                lam=float(rng.uniform(0.2, 1.5)), j=j, delta_phi=float(rng.uniform(0.3, 2.0))
            )
            start = random_domain_point(rng, j)
            driven = k % 2 == 0
            flow = meanfield._flow(params, params.delta_phi if driven else 0.0)
            calls = []

            def counted(*args):
                calls.append(args)
                return flow(*args)

            monkeypatch.setattr(meanfield, "_flow", lambda p, d: counted)
            traj = integrate(start, params, 2 * math.pi, sample_count=200, driven=driven)
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
            assert len(calls) == ref.nfev
            ours = np.array([traj.data[name] for name in ("q1", "p1", "q2", "p2")])
            assert np.max(np.abs(ours - ref.y)) < 1e-9

    def test_uncoupled_flow_is_closed_form_rotation(self):
        # At lambda = 0 both sectors rotate rigidly, drive or no drive.
        params = ModelParams(lam=0.0, omega0=1.3, omega=0.7, j=2.0, delta_phi=1.0)
        start = PhasePoint(0.8, -1.1, 1.5, 0.4)
        for driven in (True, False):
            traj = integrate(start, params, 20.0, sample_count=301, driven=driven)
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
        both results (or the errors they raised) and the reference's
        rejected-step count."""

        def run():
            try:
                return integrate(*args, **kwargs)
            except IntegrationError as exc:
                return exc

        ours = run()
        rejections = []
        with monkeypatch.context() as patch:
            patch.setattr(meanfield, "_dop853", lambda *a: reference_dop853(*a, rejections))
            ref = run()
        return ours, ref, rejections[0]

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
            ours, ref, _ = self.integrate_both(
                monkeypatch, start, params, t_end, sample_count=count, tol=rtol, driven=driven
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
        for driven in (True, False):
            ours, ref, rejected = self.integrate_both(
                monkeypatch, start, params, 4.0, sample_count=60, tol=1e-6, driven=driven
            )
            assert rejected > 0
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
            for driven in (True, False):
                ours, ref, _ = self.integrate_both(
                    monkeypatch, start, params, 6.0, sample_count=count, tol=1e-9, driven=driven
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
        for driven in (True, False):
            traj = integrate(PhasePoint(0.4, -0.7, 0.5, 0.2), params, 8.0, 100, driven=driven)
            assert np.all(np.isfinite(traj.data["q1"]))

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_bad_t_end(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            integrate(PhasePoint(0.1, 0, 0, 0), ModelParams(lam=1.0, j=1.0), t_end)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_start(self, index, bad):
        coords = [0.1, 0.2, 0.3, 0.4]
        coords[index] = bad
        with pytest.raises(ValueError, match="finite"):
            integrate(PhasePoint(*coords), ModelParams(lam=1.0, j=1.0), 1.0)


def table_value(name, point, j):
    """The observable table's mean-field value at one phase-space point."""
    coords = (np.array([c]) for c in (point.q1, point.p1, point.q2, point.p2))
    return float(meanfield._OBSERVABLES[name].meanfield(*coords, j)[0])


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
        values = meanfield._OBSERVABLES["scaled_parity"].meanfield(q1, zeros, zeros, zeros, j)
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
        # run_protocol fills the observable columns CHUNK samples at a time;
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

    def test_quantum_entries_match_meanfield_on_coherent_states(self):
        # <O> in |alpha>|zeta> equals the mean-field value at the point the
        # pair labels, for every observable both engines report.
        n_max = 60
        for alpha, zeta, j in ((0.3 + 0.4j, -0.5 + 0.2j, 3.0), (1.1 - 0.2j, 0.7j, 1.5), (0j, 0.4, 0.5)):
            ops = build_operators(ModelParams(lam=0.5, j=j, n_max=n_max))
            state = coherent_state(alpha, zeta, j, n_max)
            point = point_from_coherent(alpha, zeta, j)
            names = [name for name, entry in meanfield._OBSERVABLES.items() if entry.quantum]
            assert names == ["mean_photon_scaled", "parity"]
            for name in names:
                quantum = meanfield._OBSERVABLES[name].quantum(ops, state)
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

    def test_stationary_labels_map_to_fixed_point(self):
        from rotdicke import initial_state_params

        params = ModelParams(lam=1.0, j=1.0, delta_phi=0.0)
        alpha, zeta = initial_state_params("stationary_dicke", params)
        pt = point_from_coherent(alpha, zeta, params.j)
        c2 = fixed_points(params)[1].point
        assert pt.q1 == pytest.approx(c2.q1, rel=1e-12)
        assert pt.q2 == pytest.approx(c2.q2, rel=1e-12)
        assert pt.p1 == 0.0 and pt.p2 == 0.0

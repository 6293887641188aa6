"""Closed-form critical lines, excitation energies, and fixed points."""

import math

import mpmath
import numpy as np
import pytest

from rotdicke import (
    ModelParams,
    PhasePoint,
    critical_coupling,
    critical_velocity,
    dynamical_critical_fit,
    eom_rhs,
    excitation_energy_np,
    excitation_energy_srp,
    fixed_points,
    rotated_critical_coupling,
    stationary_photon_scaled,
)


class TestCriticalCoupling:
    def test_resonant(self):
        assert critical_coupling(1.0, 1.0) == 0.5

    def test_vanishing_splitting_limit(self):
        assert critical_coupling(1.0, 1e-30) == pytest.approx(0.0, abs=1e-14)

    def test_direct_evaluation(self):
        assert critical_coupling(4.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            critical_coupling(-1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            critical_coupling(1.0, 0.0)


class TestRotatedCriticalCoupling:
    def test_reduces_to_undriven(self):
        assert rotated_critical_coupling(1.0, 1.0, 0.0) == critical_coupling(1.0, 1.0)

    def test_direct_evaluation(self):
        assert rotated_critical_coupling(1.0, 1.0, 1.0) == pytest.approx(
            math.sqrt(2.0) / 2.0, rel=1e-15
        )

    def test_consistency_with_critical_velocity(self):
        assert rotated_critical_coupling(1.0, 1.0, 3.0) == pytest.approx(1.0, rel=1e-15)

    def test_negative_product_rejected(self):
        with pytest.raises(ValueError, match="no real critical coupling"):
            rotated_critical_coupling(1.0, 1.0, -2.0)

    def test_inverse_of_critical_velocity(self):
        # The two critical-line forms invert each other.
        rng = np.random.default_rng(1)
        for _ in range(50):
            omega = rng.uniform(0.2, 3.0)
            omega0 = rng.uniform(0.2, 3.0)
            dphi = rng.uniform(0.0, 5.0)
            lam_c = rotated_critical_coupling(omega, omega0, dphi)
            assert critical_velocity(omega, omega0, lam_c) == pytest.approx(
                dphi, abs=1e-12
            )


class TestCriticalVelocity:
    def test_unit_parameters_value(self):
        assert critical_velocity(1.0, 1.0, 1.0) == pytest.approx(3.0, rel=1e-15)

    def test_zero_at_critical_coupling(self):
        assert critical_velocity(1.0, 1.0, 0.5) == 0.0

    def test_direct_evaluation(self):
        assert critical_velocity(2.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_may_be_negative(self):
        assert critical_velocity(1.0, 1.0, 0.3) < 0.0


def _linearized_gap(params: ModelParams, around: PhasePoint) -> float:
    """Oscillation frequency of the linearized undriven flow (finite differences).

    Independent oracle: the lower normal-mode frequency equals the excitation
    energy branch at these parameters.
    """
    h = 1e-6
    y0 = around.as_array()
    jac = np.zeros((4, 4))
    for k in range(4):
        dy = np.zeros(4)
        dy[k] = h
        plus = eom_rhs(PhasePoint(*(y0 + dy)), 0.0, params)
        minus = eom_rhs(PhasePoint(*(y0 - dy)), 0.0, params)
        jac[:, k] = (plus - minus) / (2 * h)
    freqs = np.abs(np.linalg.eigvals(jac).imag)
    return float(np.min(freqs[freqs > 1e-8]))


class TestExcitationEnergies:
    def test_np_uncoupled_gap(self):
        assert excitation_energy_np(1.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert excitation_energy_np(2.0, 3.0, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_np_gap_closes_at_critical(self):
        assert excitation_energy_np(1.0, 1.0, 0.5) == 0.0

    def test_np_against_linearization(self):
        params = ModelParams(lam=0.3, omega0=1.0, omega=1.0, j=1.0, delta_phi=0.0)
        closed = excitation_energy_np(1.0, 1.0, 0.3)
        oracle = _linearized_gap(params, PhasePoint(0.0, 0.0, 0.0, 0.0))
        assert closed == pytest.approx(oracle, rel=1e-7)

    def test_np_domain_error_names_bound(self):
        with pytest.raises(ValueError, match="lam <= sqrt"):
            excitation_energy_np(1.0, 1.0, 0.6)

    def test_srp_zero_at_critical(self):
        assert excitation_energy_srp(1.0, 1.0, 0.5) == 0.0

    def test_srp_value_high_precision(self):
        # Oracle: the same closed form evaluated at 50 digits.
        with mpmath.workdps(50):
            lam, omega, omega0 = map(mpmath.mpf, ("1", "1", "1"))
            f = (16 * lam**4 / omega**2 - omega**2) ** 2 + 4 * omega**2 * omega0**2
            eps = mpmath.sqrt(
                (16 * lam**4 / omega**2 + omega**2 - mpmath.sqrt(f)) / 2
            )
            expected = float(eps)
        assert excitation_energy_srp(1.0, 1.0, 1.0) == pytest.approx(
            expected, rel=1e-14
        )
        assert excitation_energy_srp(1.0, 1.0, 1.0) == pytest.approx(
            0.9662437708928436, rel=1e-12
        )

    def test_srp_against_linearization_about_c2(self):
        params = ModelParams(lam=1.0, omega0=1.0, omega=1.0, j=1.0, delta_phi=0.0)
        c2 = fixed_points(params, 0.0)[1]
        closed = excitation_energy_srp(1.0, 1.0, 1.0)
        oracle = _linearized_gap(params, c2.point)
        assert closed == pytest.approx(oracle, rel=1e-5)

    def test_srp_large_coupling_asymptotics(self):
        # The lower branch rises monotonically and saturates at omega from
        # below (the 16 lam^4 terms cancel between S' and sqrt(f); expanding
        # gives eps_- -> omega - omega^3 omega0^2/(32 lam^4)).
        values = [excitation_energy_srp(1.0, 1.0, lam) for lam in (1.0, 3.0, 10.0, 30.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0
        assert 1.0 - values[-1] == pytest.approx(1.0 / (32 * 30.0**4), rel=1e-3)

    def test_srp_domain_error(self):
        with pytest.raises(ValueError, match="lam >= sqrt"):
            excitation_energy_srp(1.0, 1.0, 0.4)

    def test_both_branches_close_at_critical_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            omega = rng.uniform(0.1, 4.0)
            omega0 = rng.uniform(0.1, 4.0)
            lam_c = critical_coupling(omega, omega0)
            assert abs(excitation_energy_np(omega, omega0, lam_c)) <= 1e-12
            assert abs(excitation_energy_srp(omega, omega0, lam_c)) <= 1e-12


class TestFixedPoints:
    def test_subcritical_only_origin_real(self):
        params = ModelParams(lam=0.3, j=2.0, delta_phi=0.0)
        c1, c2, c3 = fixed_points(params)
        assert c1.stable and c1.real
        assert c1.point.as_array() == pytest.approx(np.zeros(4))
        assert not c2.real and not c3.real
        assert math.isnan(c2.point.q1)

    def test_supercritical_coordinates(self):
        params = ModelParams(lam=1.0, j=1.0, delta_phi=0.0)
        c1, c2, c3 = fixed_points(params, t=0.0)
        assert not c1.stable
        assert c2.stable and c2.real
        # amplitude sqrt(2j*3/4), field sqrt(j*15/16)*2
        assert c2.point.q1 == pytest.approx(-math.sqrt(1.5), rel=1e-12)
        assert c2.point.p1 == pytest.approx(0.0, abs=1e-15)
        assert c2.point.q2 == pytest.approx(2 * math.sqrt(15.0 / 16.0), rel=1e-12)
        assert c2.point.p2 == 0.0

    def test_rotation_by_quarter_period(self):
        params = ModelParams(lam=1.0, j=1.0, delta_phi=2.0)
        t_quarter = (math.pi / 2) / params.delta_phi
        c2 = fixed_points(params, t=t_quarter)[1]
        amp = math.sqrt(2 * (1 - 3.0 / 4.0))  # Omega = 3 here
        assert c2.point.q1 == pytest.approx(0.0, abs=1e-12)
        assert c2.point.p1 == pytest.approx(-amp, rel=1e-12)

    def test_c3_is_sign_flipped_c2(self):
        params = ModelParams(lam=0.9, j=3.0, delta_phi=0.7)
        _, c2, c3 = fixed_points(params, t=0.4)
        assert c3.point.q1 == pytest.approx(-c2.point.q1)
        assert c3.point.p1 == pytest.approx(-c2.point.p1)
        assert c3.point.q2 == pytest.approx(-c2.point.q2)
        assert c2.point.p2 == 0.0 and c3.point.p2 == 0.0

    def test_stability_flips_at_rotated_critical_coupling(self):
        omega = omega0 = 1.0
        for dphi in (0.0, 1.0, 2.5):
            lam_c = rotated_critical_coupling(omega, omega0, dphi)
            below = fixed_points(ModelParams(lam=lam_c * (1 - 1e-6), j=1.0, delta_phi=dphi))
            above = fixed_points(ModelParams(lam=lam_c * (1 + 1e-6), j=1.0, delta_phi=dphi))
            assert below[0].stable and not above[0].stable
            assert not below[1].real and above[1].real
            assert above[1].stable

    def test_boundary_convention(self):
        # Exactly on the critical line: c1 unstable, c2/c3 real but marginal.
        lam_c = rotated_critical_coupling(1.0, 1.0, 1.0)
        c1, c2, c3 = fixed_points(ModelParams(lam=lam_c, j=1.0, delta_phi=1.0))
        assert not c1.stable
        assert c2.real and not c2.stable
        assert c3.real and not c3.stable


class TestDynamicalFit:
    def test_reduces_to_equilibrium_critical_coupling(self):
        assert dynamical_critical_fit(0.0) == 0.5

    def test_value_at_unit_velocity(self):
        assert dynamical_critical_fit(1.0) == pytest.approx(0.827, abs=5e-3)

    def test_direct_evaluation(self):
        assert dynamical_critical_fit(16.0) == pytest.approx(0.5 + 0.327 * 8.0, rel=1e-15)

    def test_negative_velocity_rejected(self):
        with pytest.raises(ValueError):
            dynamical_critical_fit(-0.1)


class TestStationaryPhotonClosedForm:
    def test_value_at_unit_coupling(self):
        assert stationary_photon_scaled(1.0, 1.0, 1.0, 0.0) == pytest.approx(1.875)

    def test_zero_below_threshold(self):
        assert stationary_photon_scaled(1.0, 1.0, 0.45, 0.0) == 0.0
        assert stationary_photon_scaled(1.0, 1.0, 0.85, 3.0) == 0.0

    def test_matches_fixed_point_photon_number(self):
        from closed_forms import mean_photon_scaled

        params = ModelParams(lam=1.2, j=5.0, delta_phi=0.8)
        c2 = fixed_points(params)[1]
        assert mean_photon_scaled(c2.point, params.j) == pytest.approx(
            stationary_photon_scaled(1.0, 1.0, 1.2, 0.8), rel=1e-12
        )


class TestModelParams:
    def test_rejects_non_half_integer_j(self):
        with pytest.raises(ValueError, match="half-integer"):
            ModelParams(lam=1.0, j=0.75)

    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(ValueError):
            ModelParams(lam=1.0, omega=0.0)
        with pytest.raises(ValueError):
            ModelParams(lam=1.0, omega0=-1.0)

    def test_rejects_negative_coupling_and_bad_n_max(self):
        with pytest.raises(ValueError):
            ModelParams(lam=-0.1)
        with pytest.raises(ValueError):
            ModelParams(lam=1.0, n_max=0)

    @pytest.mark.parametrize("name", ["lam", "omega0", "omega", "j", "delta_phi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must"):
            ModelParams(**{"lam": 1.0, name: value})

    def test_half_integer_spins_accepted(self):
        assert ModelParams(lam=1.0, j=0.5).two_j == 1
        assert ModelParams(lam=1.0, j=2.5).two_j == 5

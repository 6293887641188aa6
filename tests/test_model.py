"""Closed-form critical lines, excitation energies, and fixed points."""

import inspect
import math
import sys

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
    initial_state_params,
    rotated_critical_coupling,
    stationary_photon_scaled,
)

# Each public closed form with valid arguments, by name.
CLOSED_FORMS = {
    critical_coupling: {"omega": 1.0, "omega0": 1.0},
    rotated_critical_coupling: {"omega": 1.0, "omega0": 1.0, "delta_phi": 1.0},
    critical_velocity: {"omega": 1.0, "omega0": 1.0, "lam": 1.0},
    excitation_energy_np: {"omega": 1.0, "omega0": 1.0, "lam": 0.3},
    excitation_energy_srp: {"omega": 1.0, "omega0": 1.0, "lam": 1.0},
    dynamical_critical_fit: {"delta_phi": 1.0},
    stationary_photon_scaled: {"omega": 1.0, "omega0": 1.0, "lam": 1.0, "delta_phi": 1.0},
}


@pytest.mark.parametrize(
    "form, arg",
    [(form, arg) for form, args in CLOSED_FORMS.items() for arg in args],
    ids=lambda x: getattr(x, "__name__", x),
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_closed_forms_reject_non_finite(form, arg, value):
    # critical_coupling(nan, 1) and rotated_critical_coupling(1, 1, nan) once
    # returned NaN: the sign tests let NaN through.
    with pytest.raises(ValueError, match=rf"^{arg} must be [a-z ]*finite, got {value}"):
        form(**{**CLOSED_FORMS[form], arg: value})


# Frequencies from 1e-200 to 1e200: the float expressions of the closed
# forms over- or underflow out there (omega*omega is 0 at omega = 1e-200).
EXTREMES = [1e-200, 1e-160, 1e-20, 1.0, 1e20, 1e160, 1e200]


def _mp_references(omega, omega0, lam, delta_phi):
    """Each closed form in its textbook, unsimplified form, at 1200 digits.

    The differences S - D and S' - sqrt(f) cancel all but ~1e-800 of their
    terms at these extremes; 1200 digits leave hundreds to spare.  A branch
    that does not exist at ``lam`` maps to None.
    """
    with mpmath.workdps(1200):
        w, w0, lam, dphi = map(mpmath.mpf, (omega, omega0, lam, delta_phi))
        lam_c = mpmath.sqrt(w * w0) / 2
        s = w**2 + w0**2
        d = mpmath.sqrt((w0**2 - w**2) ** 2 + 16 * lam**2 * w * w0)
        a = 16 * lam**4 / w**2
        f = (a - w**2) ** 2 + 4 * w**2 * w0**2
        big_omega = w * (w0 + dphi)
        photons = 0
        if lam > 0 and lam >= mpmath.sqrt(big_omega) / 2:
            photons = (2 * lam / w) ** 2 * (1 - (big_omega / (4 * lam**2)) ** 2) / 2
        return {
            critical_coupling: lam_c,
            rotated_critical_coupling: mpmath.sqrt(big_omega) / 2,
            critical_velocity: 4 * lam**2 / w - w0,
            excitation_energy_np: mpmath.sqrt((s - d) / 2) if lam <= lam_c else None,
            excitation_energy_srp: mpmath.sqrt((a + w**2 - mpmath.sqrt(f)) / 2) if lam >= lam_c else None,
            stationary_photon_scaled: photons,
        }


@pytest.mark.parametrize("omega0", EXTREMES)
@pytest.mark.parametrize("omega", EXTREMES)
def test_closed_forms_at_extreme_frequencies(omega, omega0):
    # Each form is within 1e-12 of the reference, or, where the reference
    # lies outside the normal float range, a ValueError naming an argument.
    # --omega 1e-200 once divided by zero, 1e-160 gave eps_srp = 0 for
    # 1e-160 and 1e200 gave eps_np = NaN for 1.
    lam_c = math.sqrt(omega) * math.sqrt(omega0) / 2.0
    for lam in (0.0, 0.25, 0.5 * lam_c, 2.0 * lam_c):
        args = {"omega": omega, "omega0": omega0, "lam": lam, "delta_phi": 1.0}
        for form, reference in _mp_references(**args).items():
            if reference is None:
                continue
            kwargs = {name: args[name] for name in inspect.signature(form).parameters}
            if reference != 0 and not sys.float_info.min <= abs(reference) <= sys.float_info.max:
                with pytest.raises(ValueError, match=r"^(omega|omega0|lam|delta_phi) = .* outside the float range"):
                    form(**kwargs)
                continue
            value = form(**kwargs)
            assert abs(value - reference) <= 1e-12 * abs(reference), (form.__name__, args, value)
        params = ModelParams(lam=lam, omega=omega, omega0=omega0, delta_phi=1.0, j=6.0)
        for kind, references in _mp_labels(params).items():
            if any(r != 0 and not sys.float_info.min <= abs(r) <= sys.float_info.max for r in references):
                with pytest.raises(ValueError, match=r"^(omega|omega0|lam|delta_phi|j) = .* outside the float range"):
                    initial_state_params(kind, params)
                continue
            labels = initial_state_params(kind, params)
            for value, reference in zip(labels, references):
                assert abs(value - reference) <= 1e-12 * abs(reference), (kind, args, labels)


def _mp_labels(params):
    """(alpha, zeta) of both stationary starts from their textbook forms, at 1200 digits."""
    out = {}
    with mpmath.workdps(1200):
        w, w0, lam, j = map(mpmath.mpf, (params.omega, params.omega0, params.lam, params.j))
        for kind, dphi in (("stationary_dicke", 0), ("stationary_circle", mpmath.mpf(params.delta_phi))):
            big_omega = w * (w0 + dphi)
            out[kind] = (0, 0)
            if lam > 0 and lam >= mpmath.sqrt(big_omega) / 2:
                ratio = big_omega / (4 * lam**2)
                alpha = (2 * lam / w) * mpmath.sqrt(j * (1 - ratio**2) / 2)
                out[kind] = (alpha, -mpmath.sqrt((4 * lam**2 - big_omega) / (4 * lam**2 + big_omega)))
    return out


def test_stationary_labels_outside_the_float_range_name_an_argument():
    # alpha ~ 2 lam/omega = 2e400 overflows; the float code once returned (inf, nan).
    with pytest.raises(ValueError, match=r"^lam = 1e\+200 puts the stationary_dicke labels outside the float range$"):
        initial_state_params("stationary_dicke", ModelParams(lam=1e200, omega=1e-200))


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -400.0, 0.0])
def test_nearly_fock_labels_need_a_positive_finite_epsilon(epsilon):
    # 10^-nan once gave (nan, nan) and 10^400 a bare OverflowError; ProtocolSpec checks by the same rule.
    with pytest.raises(ValueError, match=r"^epsilon must be positive and finite, got "):
        initial_state_params("nearly_fock", ModelParams(lam=1.0), epsilon)


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
    y0 = np.array([around.q1, around.p1, around.q2, around.p2])
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
        assert (c1.point.q1, c1.point.p1, c1.point.q2, c1.point.p2) == (0.0, 0.0, 0.0, 0.0)
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

    @pytest.mark.parametrize("n_max", [20.5, True, "3", 4.0])
    def test_rejects_non_integer_n_max(self, n_max):
        # n_max=20.5 once built, then aborted sweep_lambda with a TypeError
        # that _run_cell does not catch; n_max=True ran as n_max = 1.
        with pytest.raises(ValueError, match="n_max must be an integer"):
            ModelParams(lam=1.0, n_max=n_max)

    def test_half_integer_spins_accepted(self):
        assert ModelParams(lam=1.0, j=0.5).two_j == 1
        assert ModelParams(lam=1.0, j=2.5).two_j == 5

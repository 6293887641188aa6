"""The rotated critical coupling and the reentrant minimum away from delta_phi = 1.

Criteria c06 and c07 of the acceptance suite place both at delta_phi = 1;
these tests repeat them at other drive velocities with the same protocol
(j = 1, 150 revolutions, 3000 samples, rtol 1e-9).  Margins measured when
the windows were fixed are given next to each case.
"""

import numpy as np
import pytest

from rotdicke import (
    ModelParams,
    ProtocolSpec,
    dynamical_critical_fit,
    rotated_critical_coupling,
    run_protocol,
    sweep_lambda,
)


def protocol(lam, delta_phi, initial, epsilon=None):
    return ProtocolSpec(
        params=ModelParams(lam=lam, j=1.0, delta_phi=delta_phi),
        engine="meanfield",
        initial=initial,
        epsilon=epsilon,
        driven=True,
        n_revolutions=150,
        sample_count=3000,
        observables=("mean_photon_scaled",),
        rtol=1e-9,
    )


@pytest.mark.parametrize(
    "delta_phi, below, above",
    [
        (0.5, 0.58, 0.67),  # lambda_c,rot = 0.612: averages 1.4e-6 and 0.092
        (2.0, 0.82, 0.95),  # lambda_c,rot = 0.866: averages 8.4e-7 and 0.152
        (3.0, 0.95, 1.10),  # lambda_c,rot = 1: averages 7.5e-7 and 0.225
    ],
)
def test_nearly_fock_brackets_rotated_critical_coupling(delta_phi, below, above):
    # lambda_c,rot = sqrt(omega (omega0 + delta_phi))/2; the couplings lie
    # 5% below and ~10% above it.  A nearly-Fock start stays at the empty
    # cavity below it and fills it above it.
    assert below < rotated_critical_coupling(1.0, 1.0, delta_phi) < above
    low = run_protocol(protocol(below, delta_phi, "nearly_fock", 3.0)).average("mean_photon_scaled")
    high = run_protocol(protocol(above, delta_phi, "nearly_fock", 3.0)).average("mean_photon_scaled")
    assert low < 1e-3, (delta_phi, below, low)
    assert high > 0.05, (delta_phi, above, high)


@pytest.mark.parametrize(
    "delta_phi, first, last",
    [
        # Minima at 0.88 (0.837), 0.96 (0.896) and 1.05 (0.528); fit 1.0499.
        (2.0, 0.87, 1.20),
        # Minima at 1.02 (1.223), 1.04 (1.283), 1.12 (1.339) and 1.24 (0.846); fit 1.2454.
        (3.0, 1.00, 1.35),
    ],
)
def test_reentrant_minimum_follows_dynamical_fit(delta_phi, first, last):
    # c07's stationary-Dicke sweep on a 0.01 grid from lambda_c,rot up:
    # the deepest local minimum of the time-averaged photon number is the
    # one dynamical_critical_fit tracks.
    values = np.round(np.arange(round(first * 100), round(last * 100) + 1) * 0.01, 10)
    curve = sweep_lambda(protocol(1.0, delta_phi, "stationary_dicke"), values).values("mean_photon_scaled")
    assert not np.any(np.isnan(curve)), "sweep produced failed cells"
    minima = [
        (curve[i], values[i])
        for i in range(1, len(values) - 1)
        if curve[i] < curve[i - 1] and curve[i] < curve[i + 1]
    ]
    assert minima, delta_phi
    _, location = min(minima)
    fit = dynamical_critical_fit(delta_phi)
    assert abs(location - fit) <= 0.02, (delta_phi, location, fit)

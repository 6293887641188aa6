"""Closed-form mean-field observables at one phase-space point, on Python floats.

Independent references for the observable table of ``rotdicke.meanfield``,
which evaluates the same expressions on arrays.
"""

import math


def mean_photon_scaled(point, j: float) -> float:
    """Scaled mean photon number (q2^2 + p2^2)/(2j)."""
    return (point.q2**2 + point.p2**2) / (2.0 * j)


def parity_meanfield(alpha: complex, zeta: complex, j: float) -> float:
    """Parity expectation in the product coherent state |alpha>|zeta>:
    exp(-2|alpha|^2) * ((1-|zeta|^2)/(1+|zeta|^2))^(2j)."""
    zz = abs(zeta) ** 2
    return math.exp(-2.0 * abs(alpha) ** 2) * ((1.0 - zz) / (1.0 + zz)) ** int(round(2.0 * j))


def scaled_parity_meanfield(point, j: float) -> float:
    """Parity with all phase-space coordinates rescaled by sqrt(j):
    exp(-(q2^2+p2^2)/j) * (1 - (q1^2+p1^2)/(2 j^2))^(2j)."""
    base = 1.0 - (point.q1**2 + point.p1**2) / (2.0 * j * j)
    return math.exp(-(point.q2**2 + point.p2**2) / j) * base ** int(round(2.0 * j))

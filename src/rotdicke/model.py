"""Model parameters, critical lines, excitation energies and mean-field fixed points.

Conventions (hbar = 1):
- ``omega0`` is the atomic level splitting, ``omega`` the field frequency,
  ``lam`` the atom-field coupling, ``j = N/2`` the pseudo-spin length and
  ``delta_phi`` the velocity of the rotation applied around the z axis,
  phi(t) = delta_phi * t.  ``delta_phi = 0`` is the undriven model.
- The equilibrium critical coupling is sqrt(omega*omega0)/2; under rotation
  it shifts to sqrt(omega*(omega0 + delta_phi))/2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "ModelParams",
    "PhasePoint",
    "FixedPoint",
    "critical_coupling",
    "rotated_critical_coupling",
    "critical_velocity",
    "excitation_energy_np",
    "excitation_energy_srp",
    "fixed_points",
    "dynamical_critical_fit",
    "stationary_photon_scaled",
]

# Width of the knife-edge window around the critical point: couplings with
# |4 lam^2 - Omega| below this relative size are classified as critical.
# Needed so the gap functions return exactly 0 at lam = fl(sqrt(Omega)/2);
# without it, sqrt of an O(eps) residual would report a spurious ~1e-8 gap.
_CRIT_WINDOW = 32.0 * sys.float_info.epsilon


def check_spin(j: float) -> None:
    """ValueError unless ``j`` is a positive half-integer (2j an integer to within 1e-9)."""
    two_j = 2.0 * j
    if not (0.0 < j < math.inf and abs(two_j - round(two_j)) <= 1e-9):
        raise ValueError(f"j must be a positive half-integer (2j a positive integer), got {j}")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of one run.

    ``n_max`` (boson truncation) is only consumed by the finite-size engine;
    ``None`` requests the adaptive default there.
    """

    lam: float
    omega0: float = 1.0
    omega: float = 1.0
    j: float = 6.0
    delta_phi: float = 0.0
    n_max: int | None = None

    def __post_init__(self) -> None:
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not self.omega0 > 0.0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not self.lam >= 0.0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        check_spin(self.j)
        if self.n_max is not None and not self.n_max >= 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        for name in ("lam", "omega0", "omega", "delta_phi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def two_j(self) -> int:
        return int(round(2.0 * self.j))


@dataclass(frozen=True)
class PhasePoint:
    """Classical phase-space point.

    (q1, p1) is the spin-sector canonical pair, (q2, p2) the field-sector
    pair, both on the sqrt(j) scale; sector 1 lives inside the sphere
    q1^2 + p1^2 <= 4j.
    """

    q1: float
    p1: float
    q2: float
    p2: float
    t: float = 0.0

    def as_array(self):
        import numpy as np

        return np.array([self.q1, self.p1, self.q2, self.p2], dtype=float)


@dataclass(frozen=True)
class FixedPoint:
    """One of the three mean-field fixed points (c1, c2, c3) at a given time.

    ``real`` is False when the c2/c3 coordinates are not real at this
    coupling (lam below the rotated critical coupling); the coordinates are
    then NaN.  ``stable`` follows the analytic conditions with a
    left-closed/right-open convention: exactly on the critical line c1 is
    unstable and c2/c3 are real but marginal (stable=False).
    """

    label: str
    point: PhasePoint
    real: bool
    stable: bool


def critical_coupling(omega: float, omega0: float) -> float:
    """Equilibrium critical coupling sqrt(omega*omega0)/2."""
    if omega <= 0.0 or omega0 <= 0.0:
        raise ValueError(
            f"frequencies must be positive, got omega={omega}, omega0={omega0}"
        )
    return math.sqrt(omega * omega0) / 2.0


def rotated_critical_coupling(omega: float, omega0: float, delta_phi: float) -> float:
    """Critical coupling of the rotated model, sqrt(omega*(omega0+delta_phi))/2.

    Reduces to :func:`critical_coupling` at delta_phi = 0.
    """
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    prod = omega * (omega0 + delta_phi)
    if prod < 0.0:
        raise ValueError(
            "no real critical coupling: omega*(omega0+delta_phi) = "
            f"{prod} is negative"
        )
    return math.sqrt(prod) / 2.0


def critical_velocity(omega: float, omega0: float, lam: float) -> float:
    """Critical driving velocity 4*lam^2/omega - omega0.

    May be negative, in which case every nonnegative velocity leaves the
    system normal at this coupling.
    """
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    return 4.0 * lam * lam / omega - omega0


def _supercriticality(omega: float, omega0: float, lam: float) -> float:
    """4*lam^2 - omega*omega0, clamped to 0 inside the knife-edge window."""
    u = 4.0 * lam * lam - omega * omega0
    scale = 4.0 * lam * lam + omega * omega0
    if abs(u) <= _CRIT_WINDOW * scale:
        return 0.0
    return u


def excitation_energy_np(omega: float, omega0: float, lam: float) -> float:
    """Lower excitation energy in the normal phase (lam <= sqrt(omega*omega0)/2).

    Evaluated through the cancellation-free quotient form

        eps^2 = 2*omega*omega0*(omega*omega0 - 4 lam^2) / (S + D),
        S = omega^2 + omega0^2,  D = sqrt((omega0^2-omega^2)^2 + 16 lam^2 omega omega0),

    algebraically identical to sqrt((S - D)/2) but exact at the critical
    point, where the gap closes.
    """
    if omega <= 0.0 or omega0 <= 0.0:
        raise ValueError(
            f"frequencies must be positive, got omega={omega}, omega0={omega0}"
        )
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    u = _supercriticality(omega, omega0, lam)
    if u > 0.0:
        raise ValueError(
            "normal-phase branch requires lam <= sqrt(omega*omega0)/2 = "
            f"{critical_coupling(omega, omega0)!r}, got lam={lam!r}"
        )
    if u == 0.0:
        return 0.0
    s = omega * omega * 1.0 + omega0 * omega0
    d = math.sqrt(
        (omega0 * omega0 - omega * omega) ** 2 + 16.0 * lam * lam * omega * omega0
    )
    eps2 = 2.0 * omega * omega0 * (-u) / (s + d)
    return math.sqrt(eps2)


def excitation_energy_srp(omega: float, omega0: float, lam: float) -> float:
    """Lower excitation energy in the super-radiant phase (lam >= sqrt(omega*omega0)/2).

    Quotient form of (1/sqrt(2)) * sqrt(16 lam^4/omega^2 + omega^2 - sqrt(f))
    with f = (16 lam^4/omega^2 - omega^2)^2 + 4 omega^2 omega0^2:

        eps^2 = 2*(4 lam^2 - omega*omega0)*(4 lam^2 + omega*omega0) / (S' + sqrt(f)),
        S' = 16 lam^4/omega^2 + omega^2.
    """
    if omega <= 0.0 or omega0 <= 0.0:
        raise ValueError(
            f"frequencies must be positive, got omega={omega}, omega0={omega0}"
        )
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    u = _supercriticality(omega, omega0, lam)
    if u < 0.0:
        raise ValueError(
            "super-radiant branch requires lam >= sqrt(omega*omega0)/2 = "
            f"{critical_coupling(omega, omega0)!r}, got lam={lam!r}"
        )
    if u == 0.0:
        return 0.0
    a = 16.0 * lam**4 / (omega * omega)
    s = a + omega * omega
    f = (a - omega * omega) ** 2 + 4.0 * omega * omega * omega0 * omega0
    eps2 = 2.0 * u * (4.0 * lam * lam + omega * omega0) / (s + math.sqrt(f))
    return math.sqrt(eps2)


def fixed_points(params: ModelParams, t: float = 0.0) -> tuple[FixedPoint, FixedPoint, FixedPoint]:
    """The three fixed points of the driven mean-field flow at time ``t``.

    c1 is the origin, stable strictly below the rotated critical coupling.
    c2/c3 are the two branches of the rotating fixed circle; their (q1, p1)
    coordinates rotate with phi(t) = delta_phi * t and c3 = -c2 in
    (q1, p1, q2).  Below the rotated critical coupling they are not real.
    """
    lam = params.lam
    lam_c = rotated_critical_coupling(params.omega, params.omega0, params.delta_phi)
    phi = params.delta_phi * t
    c1 = FixedPoint(
        label="c1",
        point=PhasePoint(0.0, 0.0, 0.0, 0.0, t),
        real=True,
        stable=lam < lam_c,
    )
    if lam >= lam_c and lam > 0.0:
        big_omega = params.omega * (params.omega0 + params.delta_phi)
        ratio = big_omega / (4.0 * lam * lam)
        # Clamp O(eps) negatives exactly on the critical line.
        amp = math.sqrt(2.0 * params.j * max(1.0 - ratio, 0.0))
        q2 = (2.0 * lam / params.omega) * math.sqrt(
            params.j * max(1.0 - ratio * ratio, 0.0)
        )
        cos_phi, sin_phi = math.cos(phi), math.sin(phi)
        stable = lam > lam_c
        c2 = FixedPoint(
            label="c2",
            point=PhasePoint(-amp * cos_phi, -amp * sin_phi, q2, 0.0, t),
            real=True,
            stable=stable,
        )
        c3 = FixedPoint(
            label="c3",
            point=PhasePoint(amp * cos_phi, amp * sin_phi, -q2, 0.0, t),
            real=True,
            stable=stable,
        )
    else:
        nan = float("nan")
        c2 = FixedPoint("c2", PhasePoint(nan, nan, nan, nan, t), real=False, stable=False)
        c3 = FixedPoint("c3", PhasePoint(nan, nan, nan, nan, t), real=False, stable=False)
    return c1, c2, c3


def dynamical_critical_fit(delta_phi: float) -> float:
    """Empirical dynamical critical coupling 0.5 + 0.327*delta_phi^(3/4).

    A fit to the reentrant boundary of the non-equilibrium phase diagram at
    omega = omega0 = 1; a reference overlay only, it gates nothing.
    """
    if delta_phi < 0.0:
        raise ValueError(f"delta_phi must be nonnegative, got {delta_phi}")
    return 0.5 + 0.327 * delta_phi**0.75


def stationary_photon_scaled(
    omega: float, omega0: float, lam: float, delta_phi: float = 0.0
) -> float:
    """Scaled mean photon number on the stationary circle (thermodynamic limit).

    (1/2)(2 lam/omega)^2 [1 - (Omega/(4 lam^2))^2] with
    Omega = omega*(omega0+delta_phi) above the rotated critical coupling,
    0 below it.
    """
    lam_c = rotated_critical_coupling(omega, omega0, delta_phi)
    if lam < lam_c or lam == 0.0:
        return 0.0
    ratio = omega * (omega0 + delta_phi) / (4.0 * lam * lam)
    return 0.5 * (2.0 * lam / omega) ** 2 * max(1.0 - ratio * ratio, 0.0)

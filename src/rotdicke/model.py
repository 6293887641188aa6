"""Model parameters, critical lines, excitation energies, fixed points and start labels.

Conventions (hbar = 1):
- ``omega0`` is the atomic level splitting, ``omega`` the field frequency,
  ``lam`` the atom-field coupling, ``j = N/2`` the pseudo-spin length and
  ``delta_phi`` the velocity of the rotation applied around the z axis,
  phi(t) = delta_phi * t.  ``delta_phi = 0`` is the undriven model.
- The equilibrium critical coupling is sqrt(omega*omega0)/2; under rotation
  it shifts to sqrt(omega*(omega0 + delta_phi))/2.  Above it one closed form
  (:func:`_stationary`) gives the stationary starts' labels, c2/c3 and <n>/j.

Each scalar argument rule is spelled once: check_finite, check_label,
check_positive, check_nonnegative, check_count, check_spin.  Errors lead
with the argument's name.
The closed forms run on floats where no step can over- or underflow and on
wide-exponent Decimals elsewhere (:func:`_closed_form`).
"""

from __future__ import annotations

import cmath
import math
import numbers
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
    "initial_state_params",
    "point_from_coherent",
    "coherent_from_point",
]

# Width of the knife-edge window around the critical point: couplings with
# |4 lam^2 - Omega| below this relative size are classified as critical.
# Needed so the gap functions return exactly 0 at lam = fl(sqrt(Omega)/2);
# without it, sqrt of an O(eps) residual would report a spurious ~1e-8 gap.
_CRIT_WINDOW = 32.0 * sys.float_info.epsilon

# With every nonzero argument inside [2^-60, 2^60], no step of a closed form
# below leaves the normal float range; outside it one may over- or underflow
# (omega = 1e-200 makes omega*omega 0), so _closed_form evaluates the same
# expression on Decimals with exponents up to +-10^6, which these inputs
# cannot leave.
_FLOAT_RANGE = (2.0**-60, 2.0**60)


def check_finite(name: str, value: complex) -> None:
    """ValueError unless ``value``, real or complex, is finite."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def check_label(name: str, value: complex) -> None:
    """ValueError unless the coherent-state label ``value`` and |value|^2 are finite."""
    check_finite(name, value)
    if not math.isfinite(value.real * value.real + value.imag * value.imag):
        raise ValueError(f"|{name}|^2 overflows the float range at {name} = {value:.6g}")


def check_positive(name: str, value: float) -> None:
    """ValueError unless ``value`` is finite and > 0."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_nonnegative(name: str, value: float) -> None:
    """ValueError unless ``value`` is finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def check_count(name: str, value: int, minimum: int) -> None:
    """ValueError unless ``value`` is an int or numpy integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


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
        check_positive("omega", self.omega)
        check_positive("omega0", self.omega0)
        check_nonnegative("lam", self.lam)
        check_spin(self.j)
        check_finite("delta_phi", self.delta_phi)
        if self.n_max is not None:
            check_count("n_max", self.n_max, 1)

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


def point_from_coherent(alpha: complex, zeta: complex, j: float) -> PhasePoint:
    """Phase-space point at t = 0 labelled by the coherent-state pair (alpha, zeta).

    The labels map onto phase space as

        zeta  = (q1 + i p1) / sqrt(4j - (q1^2 + p1^2)),
        alpha = (q2 + i p2) / sqrt(2).
    """
    # Checked as given: a real label's error message spells it as a real number.
    check_label("alpha", alpha)
    check_label("zeta", zeta)
    alpha, zeta = complex(alpha), complex(zeta)
    s = abs(zeta) ** 2
    scale = 2.0 * math.sqrt(j / (1.0 + s))
    return PhasePoint(
        q1=scale * zeta.real,
        p1=scale * zeta.imag,
        q2=math.sqrt(2.0) * alpha.real,
        p2=math.sqrt(2.0) * alpha.imag,
    )


def coherent_from_point(point: PhasePoint, j: float) -> tuple[complex, complex]:
    """Inverse of :func:`point_from_coherent`."""
    r2 = point.q1**2 + point.p1**2
    four_j = 4.0 * j
    if r2 >= four_j:
        raise ValueError(f"q1^2+p1^2 = {r2} must be below 4j = {four_j}")
    zeta = complex(point.q1, point.p1) / math.sqrt(four_j - r2)
    alpha = complex(point.q2, point.p2) / math.sqrt(2.0)
    return alpha, zeta


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


def _closed_form(name: str, formula, **args: float):
    """``formula(sqrt, **args)`` as a float or a tuple of floats, or a ValueError.

    With every nonzero argument inside ``_FLOAT_RANGE`` the expression runs
    on floats with :func:`math.sqrt`, so its bits stay those of the plain
    float code.  Otherwise it runs on 40-digit Decimals with
    ``Decimal.sqrt`` and is rounded once per value; a value outside the
    normal float range is a ValueError naming the argument farthest from 1.
    ``formula`` may return 0.0 or None (off its branch) from either path.
    """
    low, high = _FLOAT_RANGE
    if all(v == 0.0 or low <= abs(v) <= high for v in args.values()):
        return formula(math.sqrt, **{key: float(v) for key, v in args.items()})
    import decimal  # only arguments outside _FLOAT_RANGE load it

    with decimal.localcontext(decimal.Context(prec=40, Emin=-(10**6), Emax=10**6)):
        wide = formula(decimal.Decimal.sqrt, **{key: decimal.Decimal(v) for key, v in args.items()})
    parts = wide if isinstance(wide, tuple) else (wide,)
    values = tuple(None if part is None else float(part) for part in parts)
    if any(part and not sys.float_info.min <= abs(value) < math.inf for part, value in zip(parts, values)):
        key = _farthest_from_one(args)
        raise ValueError(f"{key} = {args[key]!r} puts {name} outside the float range")
    return values if isinstance(wide, tuple) else values[0]


def _farthest_from_one(args: dict[str, float]) -> str:
    """The name of the argument whose binary exponent lies farthest from 1's."""
    return max(args, key=lambda k: abs(math.frexp(args[k])[1]))


def naming_extreme_field(exc: ValueError, params: ModelParams) -> ValueError:
    """``exc``, ending ``(set by omega = 1e+200)`` when a frequency, the
    coupling or j of ``params`` lies outside ``_FLOAT_RANGE``.

    Of those outside it, the one farthest from 1 is named, as
    :func:`_closed_form` names it.  With none outside, or when ``exc``
    already leads with a field (``lam = 1e+308 puts ...``, as
    :func:`_closed_form` writes it), ``exc`` is returned as it is.
    """
    low, high = _FLOAT_RANGE
    args = {name: getattr(params, name) for name in ("omega", "omega0", "lam", "delta_phi", "j")}
    extreme = {name: value for name, value in args.items() if value and not low <= abs(value) <= high}
    if not extreme or str(exc).startswith(tuple(f"{name} = " for name in args)):
        return exc
    key = _farthest_from_one(extreme)
    return ValueError(f"{exc} (set by {key} = {extreme[key]!r})")


def critical_coupling(omega: float, omega0: float) -> float:
    """Equilibrium critical coupling sqrt(omega*omega0)/2, the rotated one at delta_phi = 0."""
    return rotated_critical_coupling(omega, omega0, 0.0)


def rotated_critical_coupling(omega: float, omega0: float, delta_phi: float) -> float:
    """Critical coupling of the rotated model, sqrt(omega*(omega0+delta_phi))/2."""
    check_positive("omega", omega)
    check_positive("omega0", omega0)
    check_finite("delta_phi", delta_phi)
    return _closed_form(
        "rotated_critical_coupling", _rotated, omega=omega, omega0=omega0, delta_phi=delta_phi
    )


def _rotated(sqrt, omega, omega0, delta_phi):
    prod = omega * (omega0 + delta_phi)
    if prod < 0:
        raise ValueError(
            "no real critical coupling: omega*(omega0+delta_phi) = "
            f"{float(prod)} is negative"
        )
    return sqrt(prod) / 2


def critical_velocity(omega: float, omega0: float, lam: float) -> float:
    """Critical driving velocity 4*lam^2/omega - omega0.

    May be negative, in which case every nonnegative velocity leaves the
    system normal at this coupling.
    """
    check_positive("omega", omega)
    check_positive("omega0", omega0)
    check_nonnegative("lam", lam)
    return _closed_form(
        "critical_velocity",
        lambda sqrt, omega, omega0, lam: 4 * lam * lam / omega - omega0,
        omega=omega,
        omega0=omega0,
        lam=lam,
    )


def _supercriticality(omega, omega0, lam):
    """4*lam^2 - omega*omega0, clamped to 0 inside the knife-edge window."""
    u = 4 * lam * lam - omega * omega0
    scale = 4 * lam * lam + omega * omega0
    if abs(u) <= type(scale)(_CRIT_WINDOW) * scale:
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
    check_nonnegative("lam", lam)
    lam_c = critical_coupling(omega, omega0)  # also checks omega and omega0
    eps = _closed_form("excitation_energy_np", _eps_np, omega=omega, omega0=omega0, lam=lam)
    if eps is None:
        raise ValueError(
            "normal-phase branch requires lam <= sqrt(omega*omega0)/2 = "
            f"{lam_c!r}, got lam={lam!r}"
        )
    return eps


def _eps_np(sqrt, omega, omega0, lam):
    u = _supercriticality(omega, omega0, lam)
    if u > 0:
        return None
    if u == 0:
        return 0.0
    s = omega * omega + omega0 * omega0
    d = sqrt((omega0 * omega0 - omega * omega) ** 2 + 16 * lam * lam * omega * omega0)
    return sqrt(2 * omega * omega0 * (-u) / (s + d))


def excitation_energy_srp(omega: float, omega0: float, lam: float) -> float:
    """Lower excitation energy in the super-radiant phase (lam >= sqrt(omega*omega0)/2).

    Quotient form of (1/sqrt(2)) * sqrt(16 lam^4/omega^2 + omega^2 - sqrt(f))
    with f = (16 lam^4/omega^2 - omega^2)^2 + 4 omega^2 omega0^2:

        eps^2 = 2*(4 lam^2 - omega*omega0)*(4 lam^2 + omega*omega0) / (S' + sqrt(f)),
        S' = 16 lam^4/omega^2 + omega^2.
    """
    check_nonnegative("lam", lam)
    lam_c = critical_coupling(omega, omega0)  # also checks omega and omega0
    eps = _closed_form("excitation_energy_srp", _eps_srp, omega=omega, omega0=omega0, lam=lam)
    if eps is None:
        raise ValueError(
            "super-radiant branch requires lam >= sqrt(omega*omega0)/2 = "
            f"{lam_c!r}, got lam={lam!r}"
        )
    return eps


def _eps_srp(sqrt, omega, omega0, lam):
    u = _supercriticality(omega, omega0, lam)
    if u < 0:
        return None
    if u == 0:
        return 0.0
    a = 16 * lam**4 / (omega * omega)
    s = a + omega * omega
    f = (a - omega * omega) ** 2 + 4 * omega * omega * omega0 * omega0
    return sqrt(2 * u * (4 * lam * lam + omega * omega0) / (s + sqrt(f)))


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
        # c2 is the stationary circle's coherent start, turned by phi.
        start = point_from_coherent(*initial_state_params("stationary_circle", params), params.j)
        radius, q2 = start.q1, start.q2
        cos_phi, sin_phi = math.cos(phi), math.sin(phi)
        stable = lam > lam_c
        c2 = FixedPoint(
            label="c2",
            point=PhasePoint(radius * cos_phi, radius * sin_phi, q2, 0.0, t),
            real=True,
            stable=stable,
        )
        c3 = FixedPoint(
            label="c3",
            point=PhasePoint(-radius * cos_phi, -radius * sin_phi, -q2, 0.0, t),
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

    A fit, at omega = omega0 = 1, to the coupling of the deepest reentrant
    minimum of the time-averaged photon number from a stationary-Dicke
    start (at delta_phi = 2 and 3 the minimum lies at 1.05 and 1.24, the
    fit at 1.050 and 1.245).  At delta_phi = 0.5 that minimum is ambiguous:
    two minima, at 0.61 and 0.68, differ by about 1% in depth, and the fit
    gives 0.694.  Quantum runs at delta_phi = 1 show the minimum from
    j = 48 on: none near 0.82 at j = 6, 12 or 24; at j = 48 at 0.81, 0.019
    deep, and at j = 96 at 0.82, 0.050 deep (the fit gives 0.827).  Their
    gap to the mean field at 0.82 is 0.133, 0.093, 0.058 and 0.030 at
    j = 12, 24, 48 and 96.  A reference overlay only, it gates nothing.
    """
    check_nonnegative("delta_phi", delta_phi)
    return 0.5 + 0.327 * delta_phi**0.75


def stationary_photon_scaled(
    omega: float, omega0: float, lam: float, delta_phi: float = 0.0
) -> float:
    """Scaled mean photon number on the stationary circle (thermodynamic limit).

    (1/2)(2 lam/omega)^2 [1 - (Omega/(4 lam^2))^2] with
    Omega = omega*(omega0+delta_phi) above the rotated critical coupling,
    0 below it: |alpha|^2/j of the stationary circle's coherent start.
    """
    check_nonnegative("lam", lam)
    lam_c = rotated_critical_coupling(omega, omega0, delta_phi)
    if lam < lam_c or lam == 0.0:
        return 0.0
    return _closed_form(
        "stationary_photon_scaled",
        lambda sqrt, **args: _stationary(sqrt, **args, j=1)[0] ** 2,
        omega=omega, omega0=omega0, lam=lam, delta_phi=delta_phi,
    )


def initial_state_params(
    kind: str, params: ModelParams, epsilon: float | None = None
) -> tuple[float, float]:
    """Coherent-state labels (alpha, zeta) for the named preparation.

    ``stationary_dicke`` and ``stationary_circle`` are the stationary states
    (c2 at t = 0) of the undriven and of the rotated model, (0, 0) below its
    critical coupling.  ``fock`` is (0, 0), ``nearly_fock`` (10^-epsilon, 10^-epsilon).
    """
    if kind == "fock":
        return 0.0, 0.0
    if kind == "nearly_fock":
        if epsilon is None:
            raise ValueError("nearly_fock requires epsilon")
        check_positive("epsilon", epsilon)
        return 10.0**-epsilon, 10.0**-epsilon
    if kind not in ("stationary_dicke", "stationary_circle"):
        raise ValueError(f"unknown initial-state kind {kind!r}")
    delta_phi = params.delta_phi if kind == "stationary_circle" else 0.0
    if params.lam == 0.0 or params.lam < rotated_critical_coupling(params.omega, params.omega0, delta_phi):
        return 0.0, 0.0
    return _closed_form(
        f"the {kind} labels", _stationary,
        omega=params.omega, omega0=params.omega0, lam=params.lam, delta_phi=delta_phi, j=params.j,
    )


def _stationary(sqrt, omega, omega0, lam, delta_phi, j):
    """(alpha, zeta) of the stationary state, Omega = omega*(omega0+delta_phi), lam >= sqrt(Omega)/2."""
    big_omega = omega * (omega0 + delta_phi)
    ratio = big_omega / (4 * lam * lam)
    # Clamp O(eps) negatives exactly on the critical line.
    alpha = (2 * lam / omega) * sqrt(j * max(1 - ratio * ratio, 0) / 2)
    zeta = -sqrt(max(4 * lam * lam - big_omega, 0) / (4 * lam * lam + big_omega))
    return alpha, zeta

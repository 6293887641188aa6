"""Thermodynamic-limit engine: mean-field equations of motion.

The flow lives on (q1, p1, q2, p2) with the spin sector confined to
q1^2 + p1^2 < 4j; ``model.point_from_coherent`` maps the coherent-state
labels there.  The drive enters through phi(t) = delta_phi * t at the
``delta_phi`` of the parameters, 0 for the undriven flow; only
:func:`rotdicke.experiments.run_protocol` knows undriven comparison runs
and names the field a failed run comes from.

:func:`integrate` steps the flow with Dormand-Prince 8(5,3) (DOP853) on
plain Python floats, one run at a time: on a 4-vector the per-call cost of
array operations outweighs the arithmetic.  Single runs and every sweep
cell go through this one integrator.  Its step loop is straight-line float
code generated from the tableau on first use, with the right-hand side
written out inline in every stage, and keeps the stages of each step that
holds samples in one flat ``array('d')``; one pass after the loop
builds their dense output as whole-array operations across those steps
(stages 13-15 through an array form of the right-hand side, generated from
the same lines as the float form).  Every tableau sum skips the entries
that are exactly 0.0 and adds the rest left to right, with no ``sum()``,
whose rounding of floats changed in Python 3.12 (it is compensated from
then on).

:func:`integrate` returns a :class:`rotdicke.trajectory.Trajectory` on the
grid of ``trajectory.sample_grid``, with the mean-field column of each
observable asked for, from ``trajectory.OBSERVABLES``.  The interpolant,
the boundary check and the observable columns are evaluated
``trajectory.CHUNK`` samples at a time into preallocated arrays, with the
operations and order of a whole-grid pass, so the bits do not depend on
where the chunks fall.
"""

from __future__ import annotations

import bisect  # bisect, struct and array: used by the generated _steps
import cmath
import linecache
import math
import struct
from array import array

import numpy as np

# point_from_coherent is re-exported: perfbench/micro.py reads it here until
# the benchmark change of ROADMAP item 2 edits micro.py.
from .model import ModelParams, PhasePoint, point_from_coherent
from .trajectory import CHUNK, OBSERVABLES, Trajectory, check_observables, sample_grid

__all__ = [
    "IntegrationError",
    "eom_rhs",
    "hp_rhs",
    "integrate",
    "classical_hamiltonian",
    "jacobi_integral",
]

# rtol 1e-10 leaves up to ~5e-8 relative energy drift over t=50 on energetic
# trajectories; 1e-12 keeps it below 1e-9.
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-12

# Relative distance to the sphere boundary 4j treated as "on the boundary";
# the square-root derivative diverges there.  During stepping the guard acts
# by step rejection (NaN derivatives), so trial evaluations that overshoot
# the domain are retried with a smaller step instead of killing the run.
_BOUNDARY_GUARD = 1e-12

# DOP853 step control: the next step is the last one times
# _SAFETY * err**(-1/8) (the error estimate has order 7), kept within
# [_MIN_FACTOR, _MAX_FACTOR] times the last.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = -1.0 / 8.0


class IntegrationError(RuntimeError):
    """Mean-field integration failure, carrying the time it occurred at."""

    def __init__(self, t: float, message: str):
        super().__init__(f"{message} (t={t!r})")
        self.t = t


def _constants(params: ModelParams, drive: float) -> tuple:
    """The flow's constants (omega0, omega, 2 lam, 4j, guard, drive), in the
    order the generated ``_scalar_flow``, ``_array_flow`` and ``_steps`` take
    them.  ``drive`` is the rotation velocity (0 for the undriven flow)."""
    four_j = 4.0 * params.j
    return (params.omega0, params.omega, 2.0 * params.lam, four_j, _BOUNDARY_GUARD * four_j, drive)


def _check_off_the_boundary(point: PhasePoint, j: float) -> None:
    """ValueError where the flow is NaN: ``point`` within _BOUNDARY_GUARD of
    the sphere q1^2 + p1^2 = 4j or past it, by the flow's own test."""
    four_j = 4.0 * j
    r2 = point.q1 * point.q1 + point.p1 * point.p1
    if four_j - r2 < _BOUNDARY_GUARD * four_j:
        raise ValueError(
            f"q1^2+p1^2 = {r2} is on or outside the sphere of radius^2 4j = {four_j} "
            f"(to within a relative {_BOUNDARY_GUARD:g}); the square-root derivative diverges there"
        )


def eom_rhs(point: PhasePoint, t: float, params: ModelParams) -> np.ndarray:
    """Time derivative (dq1, dp1, dq2, dp2) of the driven mean-field flow."""
    _check_off_the_boundary(point, params.j)
    f = _generated("_scalar_flow")(*_constants(params, params.delta_phi))
    return np.array(f(t, point.q1, point.p1, point.q2, point.p2))


def hp_rhs(
    alpha: complex, beta: complex, t: float, params: ModelParams
) -> tuple[complex, complex]:
    """Displacement-parameter flow (dalpha/dt, dbeta/dt) of the bosonized model.

    Equivalent to :func:`eom_rhs` under beta = (q1 + i p1)/sqrt(2),
    alpha = (q2 + i p2)/sqrt(2); kept as an independent oracle for it.
    """
    two_j = 2.0 * params.j
    bb = (beta * beta.conjugate()).real
    if bb >= two_j:
        raise ValueError(f"|beta|^2 = {bb} must be below 2j = {two_j}")
    phi = params.delta_phi * t
    e_plus = cmath.exp(1j * phi)
    e_minus = cmath.exp(-1j * phi)
    root = math.sqrt((two_j - bb) / two_j)
    mix = beta.conjugate() * e_plus + beta * e_minus
    re_alpha2 = alpha + alpha.conjugate()
    d_alpha = -1j * (params.omega * alpha + params.lam * root * mix)
    d_beta = -1j * (
        params.omega0 * beta
        + params.lam * root * re_alpha2 * e_plus
        - 0.5
        * params.lam
        * re_alpha2
        * mix
        * beta
        / (math.sqrt(two_j) * math.sqrt(two_j - bb))
    )
    return d_alpha, d_beta


def classical_hamiltonian(point: PhasePoint, t: float, params: ModelParams) -> float:
    """Classical Hamiltonian H_cl(t); a constant of motion when delta_phi = 0."""
    four_j = 4.0 * params.j
    r2 = point.q1**2 + point.p1**2
    if r2 > four_j:
        raise ValueError(f"q1^2+p1^2 = {r2} exceeds 4j = {four_j}")
    phi = params.delta_phi * t
    proj = math.cos(phi) * point.q1 + math.sin(phi) * point.p1
    return (
        0.5 * params.omega0 * (r2 - 2.0 * params.j)
        + 0.5 * params.omega * (point.q2**2 + point.p2**2)
        + 2.0 * params.lam * math.sqrt((four_j - r2) / four_j) * proj * point.q2
    )


def jacobi_integral(point: PhasePoint, t: float, params: ModelParams) -> float:
    """Jacobi integral of the driven flow, its constant of motion.

    In the frame co-rotating with phi(t) = delta_phi * t the driven flow is
    autonomous; its energy is H_cl(t) + delta_phi * ((q1^2 + p1^2)/2 - j).
    """
    r2 = point.q1**2 + point.p1**2
    return classical_hamiltonian(point, t, params) + params.delta_phi * (
        0.5 * r2 - params.j
    )


def integrate(
    start: PhasePoint,
    params: ModelParams,
    t_end: float,
    sample_count: int = 1000,
    tol: float = DEFAULT_RTOL,
    observables: tuple[str, ...] = (),
) -> Trajectory:
    """Integrate the mean-field flow and sample it on a uniform grid.

    Steps adaptively with the Dormand-Prince 8(5,3) pair (DOP853, relative
    tolerance ``tol``) and reads the ``sample_count`` uniform times, t=0 and
    ``t_end`` included, off the method's 7th-order dense output.  The drive
    (``driven`` unless ``params.delta_phi`` is 0) has phase 0 at the start,
    so ``start.t`` must be 0: a point built for another time would be
    integrated from the wrong phase.  A start where the flow is NaN, within
    the boundary guard, fails as in :func:`eom_rhs`.
    Raises :class:`IntegrationError` when step control fails, which in
    practice flags an approach to the q1^2+p1^2 -> 4j boundary.  The
    trajectory holds q1, p1, q2, p2 and the mean-field column of each of
    the ``observables``.
    """
    t_grid = sample_grid(t_end, sample_count)
    if observables:
        check_observables(observables, "meanfield")
    if start.t != 0.0:
        raise ValueError(f"start.t must be 0 (the drive phase starts at 0), got {start.t}")
    y0 = (start.q1, start.p1, start.q2, start.p2)
    if not all(map(math.isfinite, y0)):
        raise ValueError(f"start must be finite, got (q1, p1, q2, p2) = {y0}")
    _check_off_the_boundary(start, params.j)
    q1, p1, q2, p2 = _dop853(_constants(params, params.delta_phi), y0, t_grid, tol, DEFAULT_ATOL)
    four_j = 4.0 * params.j
    for start in range(0, sample_count, CHUNK):
        part = slice(start, start + CHUNK)
        # NaN counts as a violation: a dense-output stage can cross the guard.
        bad = np.nonzero(~(q1[part] ** 2 + p1[part] ** 2 <= four_j))[0]
        if bad.size:
            raise IntegrationError(
                float(t_grid[start + bad[0]]),
                "sampled point violates q1^2+p1^2 <= 4j; step control failed",
            )
    data = {"q1": q1, "p1": p1, "q2": q2, "p2": p2}
    for name in observables:
        observable = OBSERVABLES[name].meanfield
        data[name] = column = np.empty(sample_count)
        for start in range(0, sample_count, CHUNK):
            part = slice(start, start + CHUNK)
            column[part] = observable(q1[part], p1[part], q2[part], p2[part], params.j)
    return Trajectory(
        params=params,
        engine="meanfield",
        driven=params.delta_phi != 0.0,
        times=t_grid,
        data=data,
        observables=tuple(observables),
    )


def _rms(values) -> float:
    # Added left to right: sum() of floats is compensated from Python 3.12 on.
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total) / math.sqrt(len(values))


def _initial_step(f, y, fy, t_end, rtol, atol) -> float:
    """First step size (Hairer, Norsett & Wanner, Solving ODEs I, II.4)."""
    scale = [atol + abs(c) * rtol for c in y]
    d0 = _rms([c / s for c, s in zip(y, scale)])
    d1 = _rms([c / s for c, s in zip(fy, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    if not h0 > 0.0:
        # d1 overflowed: rates beyond the float range leave no step to take.
        raise IntegrationError(0.0, "no first step: the flow's rates at the start overflow")
    f1 = f(h0, *[c + h0 * d for c, d in zip(y, fy)])
    d2 = _rms([(b - a) / s for a, b, s in zip(fy, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, t_end)


def _tableau_sum(row, k):
    """sum(a_i k_i) over the a_i of ``row`` that are not exactly 0.0, added
    left to right as the straight-line step adds them; the k_i are arrays."""
    total = None
    for a, stage in zip(row, k):
        if a != 0.0:
            total = a * stage if total is None else total + a * stage
    return total


def _dense_table(f, packed):
    """t, h, then y and F0..F6 per component (34 columns) for every step
    recorded in ``packed``: the 7th-order interpolants of Hairer, Norsett &
    Wanner, Solving ODEs I, II.6.

    Everything is computed elementwise across the steps, with the bits of a
    step-by-step pass.  Each of stages 13-15 is one call over all recorded
    steps of ``f``, the generated ``_array_flow`` bound to the run's
    constants.  The four _D rows are summed side by side, as one
    (row, component, step) array that gains one stage at a time, left to
    right, over the stages where _D is nonzero: each row adds the terms it
    would add alone.  Each component's 8 interpolant columns are then
    gathered once per chunk of samples by :func:`_dop853`.
    """
    rows = np.frombuffer(packed).reshape(-1, _RECORD_WIDTH).T
    t, h, y, new = rows[0], rows[1], rows[2:6], rows[6:10]
    # Stage s as a (component, step) array; the others are not recorded.
    k = [None] * 13
    for s, stage in zip(_RECORDED_STAGES, rows[10:].reshape(len(_RECORDED_STAGES), 4, -1)):
        k[s] = stage
    for s in range(13, 16):
        # f at t + c_s h and y + (sum a_s,i k_i) h.
        k.append(f(t + _C[s] * h, *(y + _tableau_sum(_A[s], k) * h)))
    d_sums = None
    for s, weights in _D_COLUMNS:
        if d_sums is None:
            d_sums = weights * k[s]
        else:
            d_sums += weights * k[s]
    d_sums *= h
    delta = new - y
    coeffs = np.stack([
        y, delta, h * k[0] - delta, 2.0 * delta - h * (k[12] + k[0]), *d_sums,
    ])  # (coefficient, component, step)
    return np.column_stack([t, h, coeffs.transpose(2, 1, 0).reshape(len(t), 32)])


def _dop853(constants, y, t_grid, rtol, atol):
    """Sample the flow with these :func:`_constants` on ``t_grid``.

    Starts from ``y`` at t_grid[0] = 0; the grid must increase.
    Dormand-Prince 8(5,3) on Python floats (Hairer, Norsett & Wanner,
    Solving ODEs I, II.5 and II.10), with the step control of the DOP853
    code: safety 0.9, step factors 0.2-10, the blended 5th/3rd-order error
    norm, a minimum step of 10 ulp of t, and a NaN right-hand side taken
    as a rejected step.  Returns one array per component.

    Everything that evaluates the flow is generated from the tableau and
    the lines of :func:`_rhs_lines` by :func:`_steps_source`, compiled on
    first use, and bound here to the constants: ``_scalar_flow`` gives the
    first stage and the first-step probe, the step loop ``_steps``
    evaluates the right-hand side inline, records the steps that hold grid
    times and counts the accepted and rejected step attempts, and
    ``_array_flow`` gives the dense output's extra stages.

    The grid is read through ``memoryview(t_grid)``, whose items are Python
    floats, so ``bisect`` finds the samples a step covers without a copy of
    the grid.  :func:`_dense_table` turns the records into interpolants, and
    the grid is evaluated ``CHUNK`` samples at a time
    into the four output arrays: ``np.searchsorted`` over the recorded ends
    gives each sample its step, each component's 8 interpolant columns are
    gathered for the chunk with one index, and the Horner scheme runs one
    coefficient at a time.  Gathering whole 34-column rows instead would
    hold four times the scratch per chunk.
    """
    grid = memoryview(t_grid)  # items are Python floats; bisect reads it in place
    f = _generated("_scalar_flow")(*constants)
    k0 = f(0.0, *y)
    h_abs = _initial_step(f, y, k0, grid[-1], rtol, atol)
    # The attempt counts are not reported yet: no stats channel takes them.
    dense, ends, accepted, rejected = _generated("_steps")(
        *constants, y, k0, h_abs, grid, rtol, atol
    )
    table = _dense_table(_generated("_array_flow")(*constants), dense)
    del dense  # the records are in table now; free them before the outputs are filled
    ends = np.array(ends)
    out = [np.empty(len(grid)) for _ in range(4)]
    for start in range(0, len(grid), CHUNK):
        stop = min(start + CHUNK, len(grid))
        seg = np.searchsorted(ends, np.arange(start, stop), side="right")
        x = (t_grid[start:stop] - table[seg, 0]) / table[seg, 1]
        x1 = 1.0 - x
        for base, column in zip(range(2, 34, 8), out):
            # y + x (F0 + (1-x) (F1 + x (F2 + ... + x F6))), innermost first,
            # from one gather of the component's 8 columns.
            coeff = table[seg, base:base + 8]
            yc = column[start:stop]
            np.multiply(coeff[:, 7], x, out=yc)
            for i in range(1, 7):
                yc += coeff[:, 7 - i]
                yc *= x1 if i % 2 else x
            yc += coeff[:, 0]
    return out


# Dormand-Prince 8(5,3) tableau, as published with the DOP853 code (Hairer,
# Norsett & Wanner).  Row s of _A holds a_s0..a_s,s-1; rows 1-11 are the
# stages, row 12 the weights _B, rows 13-15 the extra stages of the dense
# output, whose coefficients beyond the first three are _D.  _E5 and _E3
# weight the 13 stages (the last is f at the new point) into the 5th- and
# 3rd-order error estimates.  The step loop _steps is generated from rows
# 1-12, _E5 and _E3 below; _dense_table reads rows 13-15 and _D as they are.
_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1,
    0.2, 0.777777777777777777777777777778,
)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
    (
        5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
        4.45031289275240888144113950566, 1.89151789931450038304281599044,
        -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
        -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
        4.47106157277725905176885569043e-2,
    ),
    (
        5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
        2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
        -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
        8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3,
    ),
    (
        3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
        2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
        -5.49237485713909884646569340306e-2, 0.0, 0.0, -1.08347328697249322858509316994e-4,
        3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
        1.41312443674632500278074618366e-1,
    ),
    (
        -4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
        -4.69762141536116384314449447206, 7.68342119606259904184240953878,
        4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0,
        -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
        -9.15095847217987001081870187138,
    ),
)
_B = _A[12]
_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0,
)
# The 3rd-order estimate is _B less these weights at stages 0, 8 and 11.
_E3 = list(_B) + [0.0]
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E3 = tuple(_E3)
_D = (
    (
        -0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
        0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
        0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
        -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
        0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
        0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
        -0.44360363875948939664310572000e+1,
    ),
    (
        0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
        0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
        -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
        0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
        -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
        -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
        0.35816841486394083752465898540e+2,
    ),
    (
        0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
        -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
        0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
        0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
        0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
        -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
        0.11992291136182789328035130030e+2,
    ),
    (
        -0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
        -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
        0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
        -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
        0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
        0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
        -0.14972683625798562581422125276e+3,
    ),
)

# _dense_table sums the four _D rows side by side over the stages where any
# row is nonzero.  That adds each row's terms as a sum of its own nonzero
# entries would only if every row is nonzero on exactly those stages.
_D_STAGES = [s for s in range(len(_D[0])) if any(row[s] != 0.0 for row in _D)]
if any(row[s] == 0.0 for row in _D for s in _D_STAGES):
    raise RuntimeError("the rows of _D must share their zero entries")
# Per such stage s: s and the four rows' weights as a (row, 1, 1) array.
_D_COLUMNS = [(s, np.array([row[s] for row in _D])[:, None, None]) for s in _D_STAGES]

# A step records t, h, y, the new y and the stages up to 12 that _D weights.
# _dense_table also reads stages 0 and 12 and those that rows 13-15 weight.
_RECORDED_STAGES = [s for s in _D_STAGES if s <= 12]
_UNRECORDED = [s for s in range(13) if s not in _RECORDED_STAGES]
if {0, 12} & set(_UNRECORDED) or any(row[s] != 0.0 for row in _A[13:] for s in _UNRECORDED):
    raise RuntimeError("the dense output needs stages that a step does not record")
_RECORD_WIDTH = 10 + 4 * len(_RECORDED_STAGES)

# The generated code: the right-hand side on floats and on arrays, which
# _dop853 and eom_rhs bind to a run's constants, and the step loop of
# _dop853, with the lines of one step attempt in {step}.
_GENERATED_TEMPLATE = '''\
def _scalar_flow(omega0, omega, two_lam, four_j, guard, drive):
    """The right-hand side f(t, q1, p1, q2, p2) -> (dq1, dp1, dq2, dp2)
    with these constants, NaN within the boundary guard.  Generated by
    meanfield._steps_source."""
{bindings}

    def f(t, q1, p1, q2, p2):
{rhs}
        return dq1, dp1, dq2, dp2

    return f


def _array_flow(omega0, omega, two_lam, four_j, guard, drive):
    """The right-hand side on float64 arrays, one lane per element, as a
    (component, lane) array with the bits of _scalar_flow's f on every lane:
    numpy rounds + - * / and sqrt as Python does, and cos and sin are math's
    lane by lane.  Generated by meanfield._steps_source."""
{array_bindings}

    def f(t, q1, p1, q2, p2):
        # Lanes within the guard may take sqrt of a negative or divide by 0;
        # they are overwritten with NaN, as the scalar f returns NaN there.
        with np.errstate(all="ignore"):
{array_rhs}
            out = np.array((dq1, dp1, dq2, dp2))
            out[:, rem < guard] = nan
        return out

    return f


def _steps(omega0, omega, two_lam, four_j, guard, drive, y, k0, h_abs, grid, rtol, atol):
    """Step from y at t = 0, where the right-hand side is k0, to grid[-1];
    return the packed records of the steps that hold grid times, per such
    step the index one past its last sample, and the numbers of accepted
    and rejected step attempts.  Generated by meanfield._steps_source."""
{bindings}
    t_end = grid[-1]
    t = 0.0
    q1, p1, q2, p2 = y
    k0_1, k0_2, k0_3, k0_4 = k0
    # One record per step holding samples, packed by one struct call
    # (array.extend converts a tuple item by item, ~8x slower per step).
    dense = array("d")
    pack = struct.Struct("{width}d").pack
    ends = []
    next_sample = 0
    accepted = 0
    rejected_attempts = 0
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise IntegrationError(
                    t,
                    "integration failed (required step fell below 10 ulp of t); "
                    "step rejection this hard flags an approach to the "
                    "q1^2+p1^2 -> 4j boundary",
                )
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
{step}
            if k12_1 != k12_1:
                # f is NaN at the new point (past the boundary guard).  Both
                # error sums weight that stage by 0.0, so reject it here.
                err = math.nan
            elif err5 == 0.0 and err3 == 0.0:
                err = 0.0
            else:  # RMS over the four components
                err = h * err5 / math.sqrt((err5 + 0.01 * err3) * 4.0)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                accepted += 1
                break
            # max() keeps MIN_FACTOR for a NaN error: the step is rejected.
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_EXPONENT)
            rejected = True
            rejected_attempts += 1
        if grid[next_sample] <= t_new:
            dense.frombytes(pack(t, h, q1, p1, q2, p2, n1, n2, n3, n4, {stages}))
            next_sample = bisect.bisect_right(grid, t_new, next_sample)
            ends.append(next_sample)
        t, q1, p1, q2, p2 = t_new, n1, n2, n3, n4
        k0_1, k0_2, k0_3, k0_4 = k12_1, k12_2, k12_3, k12_4
    return dense, ends, accepted, rejected_attempts
'''


def _bindings(cos, sin, sqrt):
    """The locals that the lines of _rhs_lines read besides the constants,
    bound once per call of a generated function; cos, sin and sqrt as given."""
    return [f"cos = {cos}", f"sin = {sin}", f"sqrt = {sqrt}", "nan = math.nan",
            "neg_omega0 = -omega0", "neg_omega = -omega"]


def _lanewise(scalar):
    """``scalar`` (math.cos or math.sin) on each lane of a 1-D float64 array,
    read as Python floats through a memoryview: numpy's cos and sin are not
    bit-equal to libm's."""
    return lambda x: np.fromiter(map(scalar, memoryview(x)), float, x.size)


def _rhs_lines(t, point, out):
    """The right-hand side as source lines, written once for the scalar f,
    the array f and every stage of the step loop: at the time ``t`` and the
    point ``point`` (four local names), into the four names ``out``.  Returns
    the line binding rem = 4j - (q1^2 + p1^2), which the boundary guard
    tests, and the body lines after it.  The bits are those of writing each
    component out in full: g * proj * x and g * root * x associate to the
    left, so g * proj and g * root can be taken once, and -omega0 * q1
    already is (-omega0) * q1."""
    q1, p1, q2, p2 = point
    d1, d2, d3, d4 = out
    return f"rem = four_j - ({q1} * {q1} + {p1} * {p1})", [
        f"phi = drive * {t}",
        "cos_phi = cos(phi)",
        "sin_phi = sin(phi)",
        f"proj = cos_phi * {q1} + sin_phi * {p1}",
        "root = sqrt(rem / four_j)",
        "denom = sqrt(four_j * rem)",
        f"g = two_lam * {q2}",
        "g_proj = g * proj",
        "g_root = g * root",
        f"{d1} = omega0 * {p1} - g_proj * {p1} / denom + g_root * sin_phi",
        f"{d2} = neg_omega0 * {q1} + g_proj * {q1} / denom - g_root * cos_phi",
        f"{d3} = omega * {p2}",
        f"{d4} = neg_omega * {q2} - two_lam * root * proj",
    ]


def _guarded_rhs_lines(t, point, out):
    """:func:`_rhs_lines` on floats: the body runs only outside the
    boundary guard, and within it all four ``out`` are NaN."""
    rem, body = _rhs_lines(t, point, out)
    return [rem, "if rem < guard:", f"    {' = '.join(out)} = nan", "else:",
            *("    " + line for line in body)]


def _combination(row, c):
    """sum(a_i k_i) for component c as source text, as :func:`_tableau_sum`
    adds it; ``repr`` spells each a_i exactly."""
    return " + ".join(f"{a!r} * k{i}_{c}" for i, a in enumerate(row) if a != 0.0)


def _steps_source() -> str:
    """Source text of the generated ``_scalar_flow``, ``_array_flow`` and
    ``_steps``, all three evaluating the right-hand side from the lines of
    :func:`_rhs_lines`: the two float forms behind its guard test, the
    array form in full with the guarded lanes set to NaN after it.

    Stage s of a step attempt is held as k<s>_1..k<s>_4, one local per
    component.  Stages 1-11 bind their time ts = t + c_s h and their point
    y1..y4 = y + (sum a k) h, then evaluate the right-hand side there
    inline.  The new point n1..n4 is y + h (sum b k), stage 12 is the
    right-hand side there at t + h, and each component adds its
    (sum e k) / scale to both error estimates; the larger of |y| and |n|
    in the scale is picked as max() picks it, NaN order included.
    """
    names = ("q1", "p1", "q2", "p2")
    stage_point = ("y1", "y2", "y3", "y4")
    step = []
    for s in range(1, 12):
        step.append(f"ts = t + {_C[s]!r} * h")
        step += [
            f"{x} = {y} + ({_combination(_A[s], c)}) * h"
            for c, (x, y) in enumerate(zip(stage_point, names), 1)
        ]
        step += _guarded_rhs_lines("ts", stage_point, [f"k{s}_{c}" for c in range(1, 5)])
    step += [f"n{c} = {y} + h * ({_combination(_B, c)})" for c, y in enumerate(names, 1)]
    step.append("ts = t + h")
    step += _guarded_rhs_lines("ts", ("n1", "n2", "n3", "n4"), ("k12_1", "k12_2", "k12_3", "k12_4"))
    for c, y in enumerate(names, 1):
        add = "=" if c == 1 else "+="
        step += [
            f"y_abs = abs({y})",
            f"n_abs = abs(n{c})",
            "scale = atol + (n_abs if n_abs > y_abs else y_abs) * rtol",
            f"x5 = ({_combination(_E5, c)}) / scale",
            f"x3 = ({_combination(_E3, c)}) / scale",
            f"err5 {add} x5 * x5",
            f"err3 {add} x3 * x3",
        ]
    rhs = ("t", names, ("dq1", "dp1", "dq2", "dp2"))
    rem, body = _rhs_lines(*rhs)

    def indent(depth, lines):
        return "\n".join(" " * depth + line for line in lines)

    return _GENERATED_TEMPLATE.format(
        bindings=indent(4, _bindings("math.cos", "math.sin", "math.sqrt")),
        rhs=indent(8, _guarded_rhs_lines(*rhs)),
        array_bindings=indent(4, _bindings("_lanewise(math.cos)", "_lanewise(math.sin)", "np.sqrt")),
        array_rhs=indent(12, [rem, *body]),
        width=_RECORD_WIDTH,
        step=indent(12, step),
        stages=", ".join(f"k{s}_{c}" for s in _RECORDED_STAGES for c in range(1, 5)),
    )


_STEPS_FILENAME = "<rotdicke.meanfield._steps>"
_steps_entry = None  # the linecache entry of the generated source, once generated


def _generated(name: str):
    """The generated function ``name``: ``_scalar_flow``, ``_array_flow``
    or ``_steps``.

    The source of all three is written by :func:`_steps_source` and
    compiled on the first call, so a process that never integrates never
    pays for it.  It is compiled into this module's namespace, so the
    generated code reads the module's globals as hand-written code would,
    and registered with linecache, so tracebacks, profiles and
    inspect.getsource show its lines; again at each call, since
    linecache.clearcache() drops the entry before Python 3.13.
    """
    global _steps_entry
    if _steps_entry is None:
        source = _steps_source()
        _steps_entry = (len(source), None, source.splitlines(True), _STEPS_FILENAME)
        exec(compile(source, _STEPS_FILENAME, "exec"), globals())
    linecache.cache.setdefault(_STEPS_FILENAME, _steps_entry)
    return globals()[name]

"""Property tests: JSON and CSV round trips, byte identity of the streaming
writers, the configuration echo, the coherent-state phase-space maps, and
the invariants of quantum propagation.

Every value is built directly from strategies; only the propagation tests
run an engine, on small bases.
"""

import csv
import io
import itertools
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotdicke import io as rio
from rotdicke.cli import parse_config
from rotdicke.experiments import (
    ENGINES,
    INITIAL_KINDS,
    OBSERVABLES,
    ProtocolSpec,
    Spectrum,
    SweepCell,
    SweepResult,
)
from rotdicke.meanfield import Trajectory, coherent_from_point, point_from_coherent
from rotdicke.model import ModelParams
from rotdicke.quantum import QuantumState, build_operators, chebyshev_step, evolve

SETTINGS = settings(max_examples=30, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-9, max_value=1e9)
half_integers = st.integers(min_value=1, max_value=60).map(lambda k: k / 2)
complexes = st.complex_numbers(allow_nan=False, allow_infinity=False)
COORDINATES = ("q1", "p1", "q2", "p2")


def model_params(delta_phi=finite):
    return st.builds(
        ModelParams,
        lam=st.floats(min_value=0.0, max_value=1e9),
        omega0=positive,
        omega=positive,
        j=half_integers,
        delta_phi=delta_phi,
        n_max=st.none() | st.integers(min_value=1, max_value=10_000),
    )


@st.composite
def protocol_specs(draw):
    engine = draw(st.sampled_from(ENGINES))
    kinds = [k for k in INITIAL_KINDS if engine == "quantum" or k != "ground_state"]
    initial = draw(st.sampled_from(kinds))
    allowed = [o for o in OBSERVABLES if engine == "meanfield" or o != "scaled_parity"]
    epsilon = positive if initial == "nearly_fock" else st.none() | positive
    return ProtocolSpec(
        params=draw(model_params(delta_phi=positive)),
        engine=engine,
        initial=initial,
        epsilon=draw(epsilon),
        alpha=draw(complexes),
        zeta=draw(complexes),
        driven=draw(st.booleans()),
        n_revolutions=draw(st.integers(min_value=1, max_value=10_000)),
        sample_count=draw(st.integers(min_value=2, max_value=10**7)),
        observables=tuple(draw(st.lists(st.sampled_from(allowed), min_size=1, unique=True))),
        rtol=draw(st.floats(min_value=1e-16, max_value=1.0)),
    )


def observable_dicts():
    return st.dictionaries(st.sampled_from(OBSERVABLES), finite)


sweep_cells = st.builds(
    SweepCell,
    coords=st.lists(finite, min_size=1, max_size=2).map(tuple),
    final=observable_dicts(),
    average=observable_dicts(),
    region=st.sampled_from([None, "zero", "nonzero"]),
    error=st.none() | st.text(),
)


@st.composite
def trajectories(draw):
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), max_size=15))
    times = np.concatenate(([0.0], np.cumsum(steps)))
    observables = tuple(draw(st.lists(st.sampled_from(OBSERVABLES), min_size=1, unique=True)))
    names = observables + tuple(draw(st.lists(st.sampled_from(COORDINATES), unique=True)))
    column = st.lists(finite, min_size=times.size, max_size=times.size).map(np.array)
    return Trajectory(
        params=draw(model_params()),
        engine=draw(st.sampled_from(ENGINES)),
        driven=draw(st.booleans()),
        times=times,
        data={name: draw(column) for name in names},
        observables=observables,
    )


@st.composite
def spectra(draw):
    header = tuple(draw(st.lists(st.text(), min_size=1, max_size=6)))
    row = st.tuples(*[st.none() | finite for _ in header])
    return Spectrum(header=header, rows=tuple(draw(st.lists(row, max_size=8))))


def assert_same(a, b):
    """Field-by-field equality, exact, with arrays compared elementwise."""
    assert type(a) is type(b)
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, dict):
            assert x.keys() == y.keys()
            for key in x:
                assert np.array_equal(x[key], y[key]), (f.name, key)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y) and y.dtype == x.dtype, f.name
        else:
            assert x == y, f.name


def json_round_trip(value):
    return rio._decode(type(value), json.loads(json.dumps(rio._encode(value), indent=1)))


def emit_and_load(result):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.json"
        rio.emit(result, "json", path)
        return rio.load_result_json(path)


@SETTINGS
@given(model_params())
def test_model_params_json_round_trip(params):
    assert json_round_trip(params) == params


@SETTINGS
@given(protocol_specs())
def test_protocol_spec_json_round_trip(spec):
    assert json_round_trip(spec) == spec


@SETTINGS
@given(sweep_cells)
def test_sweep_cell_json_round_trip(cell):
    assert json_round_trip(cell) == cell


@SETTINGS
@given(trajectories())
def test_trajectory_json_round_trip(traj):
    assert_same(emit_and_load(traj), traj)


@SETTINGS
@given(spectra())
def test_spectrum_json_round_trip(result):
    assert emit_and_load(result) == result


@SETTINGS
@given(trajectories())
def test_csv_17_digits_reparse_exactly(traj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.csv"
        rio.emit(traj, "csv", path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
    assert header == ["t", *traj.observables]
    parsed = np.array(rows, dtype=float).T
    assert np.array_equal(parsed[0], traj.times)
    for name, column in zip(traj.observables, parsed[1:]):
        assert np.array_equal(column, traj.data[name])


# Floats whose spellings differ between repr, json and %g, or that sit at
# the ends of the double range.
SPECIAL_FLOATS = (
    math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1.7976931348623157e308
)
any_float = st.floats() | st.sampled_from(SPECIAL_FLOATS)
# Lengths on either side of the chunk seams of the streaming writers.
CHUNK_LENGTHS = (0, 1, rio.CHUNK - 1, rio.CHUNK, rio.CHUNK + 1)


@st.composite
def float_arrays(draw, lengths=CHUNK_LENGTHS):
    """A float64 array of a seam-straddling length with special values sprinkled in."""
    n = draw(st.sampled_from(lengths))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    for _ in range(draw(st.integers(min_value=0, max_value=6)) if n else 0):
        values[draw(st.sampled_from([0, n - 1, min(rio.CHUNK, n - 1), draw(st.integers(0, n - 1))]))] = draw(any_float)
    return values


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | any_float
    | st.text()
    | st.sampled_from(['a"b', "c\\d", "\u00e9\u2028\U0001f600", "\x00\n\t"])
)
json_keys = (
    st.text() | st.sampled_from(['"', "\\", "\u00fc"]) | st.integers() | st.booleans() | st.none() | any_float
)


def json_containers(inner):
    """Lists, tuples and dicts of ``inner``.  A named function, because
    hypothesis reads the source of ``extend`` to check that it uses its
    argument, and cannot see it in a lambda split over several lines."""
    return (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(json_keys, inner, max_size=4)
    )


json_payloads = st.recursive(json_scalars | float_arrays(), json_containers, max_leaves=12)


def assert_same_text(got, want):
    """Exact equality, reported at the first difference: pytest's own diff of
    two long strings takes minutes."""
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        raise AssertionError(
            f"texts differ at {i} (lengths {len(got)}, {len(want)}): "
            f"got {got[max(0, i - 40) : i + 40]!r}, want {want[max(0, i - 40) : i + 40]!r}"
        )


@SETTINGS
@given(json_payloads, float_arrays())
def test_json_writer_matches_json_dumps(nested, array):
    payload = {"array": array, "nested": nested}
    buf = io.StringIO()
    rio._write_json(buf, payload)
    assert_same_text(buf.getvalue(), json.dumps(payload, indent=1, default=np.ndarray.tolist))


@SETTINGS
@given(trajectories() | spectra())
def test_emit_json_matches_json_dump_of_encoded_result(result):
    kind = "trajectory" if isinstance(result, Trajectory) else "spectrum"
    payload = {"config": {"format": "json"}, "result": {"kind": kind, **rio._encode(result)}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.json"
        rio.emit(result, "json", path, config={"format": "json"})
        assert_same_text(path.read_text(encoding="utf-8"), json.dumps(payload, indent=1) + "\n")


def per_value_csv(header, columns, precision):
    """Trajectory CSV as written one csv.writer row and one format call per value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in np.array(columns, dtype=float).T.tolist():
        writer.writerow(["nan" if math.isnan(v) else f"{v:.{precision}g}" for v in row])
    return buf.getvalue()


@st.composite
def special_trajectories(draw):
    """Trajectories of 1 to 3 observables holding special values, 1 row or seam-straddling."""
    n = draw(st.sampled_from((1, 2, rio.CHUNK, rio.CHUNK + 1)))
    times = np.arange(n) * draw(st.floats(min_value=5e-324, max_value=1e300))
    names = OBSERVABLES[: draw(st.integers(min_value=1, max_value=len(OBSERVABLES)))]
    data = {name: draw(float_arrays(lengths=(n,))) for name in names}
    return Trajectory(ModelParams(lam=1.0), "meanfield", True, times, data, names)


@SETTINGS
@given(traj=special_trajectories(), precision=st.integers(min_value=1, max_value=17))
def test_trajectory_csv_matches_per_value_rows(traj, precision):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.csv"
        rio.emit(traj, "csv", path, precision=precision)
        text = path.read_bytes().decode("utf-8")
    columns = [traj.times] + [traj.data[name] for name in traj.observables]
    assert_same_text(text, per_value_csv(["t", *traj.observables], columns, precision))


def emit_csv(result, precision):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.csv"
        rio.emit(result, "csv", path, precision=precision)
        return path.read_bytes().decode("utf-8")


def per_value_table_csv(header, rows, precision):
    """Sweep or spectrum CSV as written one csv.writer row and one format call per value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.{precision}g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


# emit quotes text as Python 3.11's csv.writer does, which leaves a bare
# "\r" unquoted; "\r" is drawn only where the reference writer agrees, and
# test_bare_carriage_return_stays_unquoted pins it everywhere.
CR_UNQUOTED = per_value_table_csv(["\r"], [], 17) == "\r\n"
CSV_TEXT = st.text(alphabet=st.sampled_from(["a", "Z", ",", '"', "\n", "%"] + ["\r"] * CR_UNQUOTED), max_size=6)


def seam_indices(n):
    """Indices worth a special value: the ends, the chunk seam, and any other."""
    return st.sampled_from([0, n - 1, min(rio.CHUNK, n - 1)]) | st.integers(min_value=0, max_value=n - 1)


def scaled_normals(rng, shape):
    return rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)


@st.composite
def sweep_results(draw):
    """1-D and 2-D sweeps, some seam-crossing, with failed cells whose error
    text needs quoting, holds "%" or is empty, and regions None or set."""
    shape = draw(st.sampled_from([(1,), (3,), (rio.CHUNK + 1,), (1, 1), (2, 3), (rio.CHUNK // 3 + 1, 3)]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    names = ("lambda", "delta_phi") if len(shape) == 2 else (draw(st.sampled_from(["lambda", "delta_phi"])),)
    axes = tuple((name, np.cumsum(rng.uniform(0.1, 1.0, n))) for name, n in zip(names, shape))
    observables = tuple(draw(st.lists(st.sampled_from(OBSERVABLES), min_size=1, unique=True)))
    size = math.prod(shape)
    values = scaled_normals(rng, (size, 2 * len(observables)))
    values[draw(seam_indices(size)), 0] = draw(any_float)
    errors = draw(st.dictionaries(seam_indices(size), CSV_TEXT, max_size=4))
    regions = [(None, "zero", "nonzero")[k] for k in rng.integers(0, 3, size)] if len(shape) == 2 else [None] * size
    cells = []
    for i, (coords, row) in enumerate(zip(itertools.product(*(v.tolist() for _, v in axes)), values.tolist())):
        if i in errors:
            cells.append(SweepCell(coords=coords, region=regions[i], error=errors[i]))
        else:
            final = dict(zip(observables, row[: len(observables)]))
            average = dict(zip(observables, row[len(observables) :]))
            cells.append(SweepCell(coords=coords, final=final, average=average, region=regions[i]))
    overlays = {}
    if len(shape) == 2:
        overlays = {name: scaled_normals(rng, shape[1]) for name in ("lambda_c_rot", "lambda_c_dyn")}
    spec = ProtocolSpec(ModelParams(lam=1.0, delta_phi=1.0), observables=observables)
    return SweepResult(axes=axes, cells=tuple(cells), spec=spec, overlays=overlays)


@SETTINGS
@given(result=sweep_results(), precision=st.integers(min_value=1, max_value=17))
def test_sweep_csv_matches_per_value_rows(result, precision):
    header = [name for name, _ in result.axes]
    for name in result.spec.observables:
        header += [f"{name}_final", f"{name}_timeavg"]
    two_d = len(result.axes) == 2
    if two_d:
        header += ["lambda_c_rot", "lambda_c_dyn", "region"]
    n_minor = len(result.axes[-1][1])
    rows = []
    for i, cell in enumerate(result.cells):
        row = list(cell.coords)
        for name in result.spec.observables:
            row += [None, None] if cell.error is not None else [cell.final[name], cell.average[name]]
        if two_d:
            row += [float(result.overlays[name][i % n_minor]) for name in ("lambda_c_rot", "lambda_c_dyn")]
            row.append(cell.region)
        rows.append(row + [cell.error])
    assert_same_text(emit_csv(result, precision), per_value_table_csv(header + ["error"], rows, precision))


@st.composite
def text_spectra(draw):
    """Spectra with text headers, None branches, 0 to seam-crossing rows."""
    header = tuple(draw(st.lists(CSV_TEXT, min_size=1, max_size=4)))
    n = draw(st.sampled_from((0, 1, 5, rio.CHUNK + 1)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    missing = (rng.random((n, len(header))) < 0.3).tolist()
    values = scaled_normals(rng, (n, len(header))).tolist()
    rows = tuple(tuple(None if m else v for v, m in zip(*pair)) for pair in zip(values, missing))
    return Spectrum(header=header, rows=rows)


@SETTINGS
@given(result=text_spectra(), precision=st.integers(min_value=1, max_value=17))
def test_spectrum_csv_matches_per_value_rows(result, precision):
    assert_same_text(emit_csv(result, precision), per_value_table_csv(result.header, result.rows, precision))


def test_bare_carriage_return_stays_unquoted():
    result = Spectrum(header=("a\rb", "c,d"), rows=(("x\ry", None), ('"', 1.5)))
    assert emit_csv(result, 3) == 'a\rb,"c,d"\nx\ry,\n"""",1.5\n'


@SETTINGS
@given(real=float_arrays(lengths=(2, rio.CHUNK + 2)), precision=st.integers(min_value=1, max_value=17))
def test_state_snapshot_matches_per_amplitude_lines(real, precision):
    amplitudes = np.empty(real.size, dtype=complex)
    amplitudes.real, amplitudes.imag = real, real[::-1]
    state = QuantumState(amplitudes, 0.5, amplitudes.size // 2 - 1)
    expected = f"j=0.5\nn_max={state.n_max}\nordering=m-major,n-minor\ndim={amplitudes.size}\n" + "".join(
        f"{z.real:.{precision}g} {z.imag:.{precision}g}\n" for z in amplitudes
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.txt"
        rio.save_state(path, state, precision=precision)
        assert_same_text(path.read_bytes().decode("utf-8"), expected)


@st.composite
def trajectory_overrides(draw):
    engine = draw(st.sampled_from(ENGINES))
    allowed = [o for o in OBSERVABLES if engine == "meanfield" or o != "scaled_parity"]
    observables = draw(st.lists(st.sampled_from(allowed), min_size=1, unique=True))
    n_max = draw(st.none() | st.integers(min_value=1, max_value=10_000))
    values = {
        "engine": engine,
        "initial": draw(st.sampled_from(INITIAL_KINDS)),
        "lambda": draw(st.floats(min_value=0.0, max_value=1e9)),
        "omega": draw(positive),
        "omega0": draw(positive),
        "delta_phi": draw(positive),
        "j": draw(half_integers),
        "n_max": "" if n_max is None else n_max,
        "epsilon": draw(positive),
        "alpha_re": draw(finite),
        "alpha_im": draw(finite),
        "zeta_re": draw(finite),
        "zeta_im": draw(finite),
        "driven": draw(st.sampled_from(["true", "false", "True"])),
        "n_revolutions": draw(st.integers(min_value=1, max_value=10_000)),
        "sample_count": draw(st.integers(min_value=2, max_value=10**7)),
        "observables": ",".join(observables),
        "rtol": draw(positive),
        "format": draw(st.sampled_from(["csv", "json"])),
        "precision": draw(st.integers(min_value=1, max_value=17)),
    }
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    required = {"engine", "initial", "lambda"}
    return {k: str(v) for k, v in values.items() if k in required or k in keys}


@SETTINGS
@given(trajectory_overrides())
def test_config_echo_reparses_to_same_values(overrides):
    config = parse_config("trajectory", overrides=overrides)
    with tempfile.TemporaryDirectory() as tmp:
        echo = Path(tmp) / "echo.cfg"
        echo.write_text("\n".join(config.echo_lines()) + "\n", encoding="utf-8")
        reparsed = parse_config("trajectory", str(echo))
    assert reparsed.values == config.values


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny  # smallest normal float


@SETTINGS
@given(
    alpha=st.complex_numbers(max_magnitude=1e6, allow_nan=False),
    zeta=st.complex_numbers(max_magnitude=100.0, allow_nan=False),
    j=half_integers,
)
def test_coherent_point_maps_invert(alpha, zeta, j):
    # Every finite zeta lands inside the open disk q1^2 + p1^2 < 4j; the way
    # back loses ~(1 + |zeta|^2) ulp to the cancellation in 4j - q1^2 - p1^2,
    # and subnormal inputs keep only an absolute accuracy.
    point = point_from_coherent(alpha, zeta, j)
    assert point.q1**2 + point.p1**2 < 4.0 * j
    back_alpha, back_zeta = coherent_from_point(point, j)
    assert abs(back_alpha - alpha) <= 4 * EPS * abs(alpha) + TINY
    assert abs(back_zeta - zeta) <= 8 * EPS * (1.0 + abs(zeta) ** 2) * abs(zeta) + TINY


@st.composite
def small_quantum_runs(draw):
    """A random state on a small basis, parameters, a step and a step count."""
    rate = st.floats(min_value=0.2, max_value=2.0)
    params = ModelParams(
        lam=draw(st.floats(min_value=0.0, max_value=2.0)),
        omega0=draw(rate),
        omega=draw(rate),
        j=draw(st.integers(min_value=1, max_value=6).map(lambda k: k / 2)),
        delta_phi=draw(rate),
        n_max=draw(st.integers(min_value=1, max_value=12)),
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    dim = (params.n_max + 1) * (params.two_j + 1)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = QuantumState(v / np.linalg.norm(v), params.j, params.n_max)
    return params, psi, draw(st.floats(min_value=0.01, max_value=1.0)), draw(st.integers(1, 6))


@pytest.mark.parametrize("driven", [True, False])
@settings(max_examples=25, deadline=None)
@given(run=small_quantum_runs())
def test_evolve_conserves_norm_and_parity(driven, run):
    # Both Hamiltonians commute with the parity, and the propagator is
    # unitary: one Chebyshev step keeps the norm to rounding, and a mixed-
    # parity state keeps its <Pi> along the whole trajectory.
    params, psi, dt, steps = run
    ops = build_operators(params)
    state = psi
    for _ in range(steps):
        after = chebyshev_step(ops, state, dt, driven=driven)
        assert abs(after.norm() - state.norm()) <= 1e-12
        state = after
    grid = dt * np.arange(steps + 1)
    parity = evolve(psi, params, grid, observables=("parity",), driven=driven, ops=ops).data["parity"]
    assert np.max(np.abs(parity - parity[0])) <= 1e-10

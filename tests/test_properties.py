"""Property tests: JSON and CSV round trips, byte identity of the streaming
writers, the configuration echo, the CLI's agreement with the library's
rules, the argument rules of the closed forms, the coherent-state
phase-space maps, and the invariants of quantum propagation.

Every value is built directly from strategies; only the propagation tests
run an engine, on small bases.
"""

import csv
import io
import itertools
import json
import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotdicke import io as rio
from rotdicke.cli import ConfigError, parse_config
from rotdicke.experiments import (
    ENGINES,
    INITIAL_KINDS,
    OBSERVABLES,
    ProtocolSpec,
    Spectrum,
    SweepCell,
    SweepResult,
)
from rotdicke.model import (
    ModelParams,
    coherent_from_point,
    critical_coupling,
    critical_velocity,
    dynamical_critical_fit,
    excitation_energy_np,
    excitation_energy_srp,
    point_from_coherent,
    rotated_critical_coupling,
    stationary_photon_scaled,
)
from rotdicke.quantum import QuantumState, build_operators, chebyshev_step, evolve
from rotdicke.trajectory import Trajectory

# hypothesis draws the inputs here, so a RuntimeWarning stays a warning
# (pytest's default) instead of the error that pyproject.toml makes it:
# an unseeded draw must not turn the gate flaky.
pytestmark = pytest.mark.filterwarnings("default::RuntimeWarning")

SETTINGS = settings(max_examples=30, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-9, max_value=1e9)
half_integers = st.integers(min_value=1, max_value=60).map(lambda k: k / 2)
# Coherent-state labels whose |label|^2 stays finite (model.check_label).
labels = st.complex_numbers(max_magnitude=1e150)
label_parts = st.floats(min_value=-1e150, max_value=1e150)
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
        alpha=draw(labels),
        zeta=draw(labels),
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
    return rio._decode(
        type(value), json.loads(json.dumps(rio._encode(value), indent=1, default=np.ndarray.tolist))
    )


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
        assert_same_text(
            path.read_text(encoding="utf-8"), json.dumps(payload, indent=1, default=np.ndarray.tolist) + "\n"
        )


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


@st.composite
def trajectory_overrides(draw):
    engine = draw(st.sampled_from(ENGINES))
    allowed = [o for o in OBSERVABLES if engine == "meanfield" or o != "scaled_parity"]
    observables = draw(st.lists(st.sampled_from(allowed), min_size=1, unique=True))
    initials = [i for i in INITIAL_KINDS if engine == "quantum" or i != "ground_state"]
    n_max = draw(st.none() | st.integers(min_value=1, max_value=10_000))
    values = {
        "engine": engine,
        "initial": draw(st.sampled_from(initials)),
        "lambda": draw(st.floats(min_value=0.0, max_value=1e9)),
        "omega": draw(positive),
        "omega0": draw(positive),
        "delta_phi": draw(positive),
        "j": draw(half_integers),
        "n_max": "" if n_max is None else n_max,
        "epsilon": draw(positive),
        "alpha_re": draw(label_parts),
        "alpha_im": draw(label_parts),
        "zeta_re": draw(label_parts),
        "zeta_im": draw(label_parts),
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


_REAL = st.floats(min_value=-2.0, max_value=2.0) | st.sampled_from([0.0, -math.inf, math.inf, math.nan])
_COUNT = st.integers(min_value=-2, max_value=12)
_LABEL_PART = (label_parts, label_parts | st.sampled_from([1e160, -math.inf, math.inf, math.nan]))

# Each library-checked trajectory key: its in-range values, and values in
# range or out of it (negative, zero, non-finite, non-integer, unknown,
# empty or repeated; a label part whose square overflows).  Engine, initial
# and observables drawn in range still break the cross rules: ground_state
# with meanfield, scaled_parity with quantum.
TRAJECTORY_KEYS = {
    "engine": (st.sampled_from(ENGINES), st.sampled_from([*ENGINES, "classical"])),
    "initial": (st.sampled_from(INITIAL_KINDS), st.sampled_from([*INITIAL_KINDS, "vacuum"])),
    "lambda": (st.floats(min_value=0.0, max_value=2.0), _REAL),
    "omega": (positive, _REAL),
    "omega0": (positive, _REAL),
    "delta_phi": (positive, _REAL),
    "j": (half_integers, st.integers(min_value=-2, max_value=10).map(lambda k: k / 4) | _REAL),
    "n_max": (st.none() | st.integers(min_value=1, max_value=10_000), st.none() | _COUNT),
    "epsilon": (positive, _REAL),
    "alpha_re": _LABEL_PART,
    "alpha_im": _LABEL_PART,
    "zeta_re": _LABEL_PART,
    "zeta_im": _LABEL_PART,
    "n_revolutions": (st.integers(min_value=1, max_value=1000), _COUNT | _COUNT.map(lambda k: k + 0.5)),
    "sample_count": (st.integers(min_value=2, max_value=1000), _COUNT | _COUNT.map(lambda k: k + 0.5)),
    "observables": (
        st.lists(st.sampled_from(OBSERVABLES), min_size=1, unique=True),
        st.lists(st.sampled_from([*OBSERVABLES, "photons"]), max_size=3),
    ),
    "rtol": (positive, _REAL),
}


@st.composite
def trajectory_values(draw):
    """Every library-checked trajectory value; at most two drawn out of range."""
    free = draw(st.sets(st.sampled_from(sorted(TRAJECTORY_KEYS)), max_size=2))
    return {key: draw(TRAJECTORY_KEYS[key][key in free]) for key in TRAJECTORY_KEYS}


def as_flag_text(value):
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(value)
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=200, deadline=None)
@given(trajectory_values())
def test_cli_accepts_exactly_what_the_library_accepts(values):
    # The CLI restates none of the library's rules, so it must neither
    # reject more (a stale copy) nor less (a key that skips the library).
    try:
        ProtocolSpec(
            params=ModelParams(
                lam=values["lambda"],
                omega0=values["omega0"],
                omega=values["omega"],
                j=values["j"],
                delta_phi=values["delta_phi"],
                n_max=values["n_max"],
            ),
            engine=values["engine"],
            initial=values["initial"],
            epsilon=values["epsilon"],
            alpha=complex(values["alpha_re"], values["alpha_im"]),
            zeta=complex(values["zeta_re"], values["zeta_im"]),
            n_revolutions=values["n_revolutions"],
            sample_count=values["sample_count"],
            observables=tuple(values["observables"]),
            rtol=values["rtol"],
        )
    except ValueError:
        library_accepts = False
    else:
        library_accepts = True
    overrides = {key: as_flag_text(value) for key, value in values.items()}
    if library_accepts:
        parse_config("trajectory", overrides=overrides)
    else:
        with pytest.raises(ConfigError):
            parse_config("trajectory", overrides=overrides)


def positive_rule(value):
    return value > 0.0


def nonnegative_rule(value):
    return value >= 0.0


def any_finite_rule(value):
    return True


# The rule of each argument of each public closed form.
FREQUENCIES = {"omega": positive_rule, "omega0": positive_rule}
CLOSED_FORM_RULES = {
    critical_coupling: FREQUENCIES,
    rotated_critical_coupling: {**FREQUENCIES, "delta_phi": any_finite_rule},
    critical_velocity: {**FREQUENCIES, "lam": nonnegative_rule},
    excitation_energy_np: {**FREQUENCIES, "lam": nonnegative_rule},
    excitation_energy_srp: {**FREQUENCIES, "lam": nonnegative_rule},
    dynamical_critical_fit: {"delta_phi": nonnegative_rule},
    stationary_photon_scaled: {**FREQUENCIES, "lam": nonnegative_rule, "delta_phi": any_finite_rule},
}
# Zero, and sizes from 1e-3 to 1e3 of either sign.
magnitudes = st.floats(min_value=1e-3, max_value=1e3)
bounded = st.just(0.0) | magnitudes | magnitudes.map(lambda v: -v)


@settings(max_examples=200, deadline=None)
@given(omega=bounded, omega0=bounded, lam=bounded, delta_phi=bounded)
def test_closed_forms_on_finite_arguments(omega, omega0, lam, delta_phi):
    # An argument that breaks its rule raises a ValueError naming it; valid
    # arguments give a number, never NaN, unless they leave the form's branch.
    values = {"omega": omega, "omega0": omega0, "lam": lam, "delta_phi": delta_phi}
    for form, rules in CLOSED_FORM_RULES.items():
        args = {name: values[name] for name in rules}
        broken = [name for name, rule in rules.items() if not rule(args[name])]
        if broken:
            with pytest.raises(ValueError, match=rf"^({'|'.join(broken)}) must be"):
                form(**args)
            continue
        try:
            result = form(**args)
        except ValueError as exc:
            assert str(exc).startswith(("normal-phase branch", "super-radiant branch", "no real critical"))
        else:
            assert not math.isnan(result), (form.__name__, args)


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
    if not driven:
        params = replace(params, delta_phi=0.0)
    ops = build_operators(params)
    state = psi
    for _ in range(steps):
        after = chebyshev_step(ops, state, dt)
        assert abs(after.norm() - state.norm()) <= 1e-12
        state = after
    parity = evolve(psi, params, dt * steps, steps + 1, observables=("parity",)).data["parity"]
    assert np.max(np.abs(parity - parity[0])) <= 1e-10

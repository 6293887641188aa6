"""Configuration parsing, serialization, and the command-line surface."""

import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from rotdicke import (
    ModelParams,
    ProtocolSpec,
    coherent_state,
    emit,
    load_result_json,
    load_state,
    run_protocol,
    save_state,
    sweep_lambda,
    phase_diagram,
)
from rotdicke import cli
from rotdicke import io as rio
from rotdicke.cli import (
    SCHEMAS,
    ConfigError,
    RunConfig,
    config_to_spec,
    main,
    parse_config,
)
from rotdicke.experiments import INITIAL_KINDS, Spectrum, SweepResult, spectrum
from rotdicke.meanfield import Trajectory
from rotdicke.model import check_spin

DATA = Path(__file__).parent / "data"


def small_spec(**kwargs):
    defaults = dict(
        params=ModelParams(lam=1.0, j=1.0, delta_phi=1.0),
        engine="meanfield",
        initial="stationary_circle",
        sample_count=40,
        observables=("mean_photon_scaled", "parity"),
    )
    defaults.update(kwargs)
    return ProtocolSpec(**defaults)


class TestParseConfig:
    def test_minimal_defaults(self):
        config = parse_config(
            "trajectory",
            overrides={"engine": "meanfield", "initial": "stationary_dicke", "lambda": "1.0"},
        )
        v = config.values
        assert v["omega"] == 1.0 and v["omega0"] == 1.0
        assert v["delta_phi"] == 1.0
        assert v["n_revolutions"] == 1
        assert v["j"] == 6.0
        assert config.provenance["lambda"] == "flag"
        assert config.provenance["omega"] == "default"

    def test_sweeps_default_to_many_revolutions(self):
        config = parse_config(
            "sweep-lambda",
            overrides={
                "engine": "meanfield",
                "initial": "stationary_dicke",
                "lambda_min": "0.5",
                "lambda_max": "1.0",
                "lambda_step": "0.1",
            },
        )
        assert config.values["n_revolutions"] == 150

    def test_rejects_non_half_integer_j(self):
        with pytest.raises(ConfigError, match="half-integer"):
            parse_config(
                "trajectory",
                overrides={
                    "engine": "meanfield",
                    "initial": "fock",
                    "lambda": "1.0",
                    "j": "0.75",
                },
            )

    def test_spin_error_is_the_model_rule(self):
        # One half-integer rule: the CLI re-raises model.check_spin's error.
        # (j = inf stops earlier, at the CLI's own "must be finite" rule.)
        with pytest.raises(ValueError) as expected:
            check_spin(2.3)
        with pytest.raises(ConfigError, match="half-integer") as excinfo:
            parse_config(
                "trajectory",
                overrides={"engine": "meanfield", "initial": "fock", "lambda": "1.0", "j": "2.3"},
            )
        assert str(excinfo.value) == str(expected.value)
        assert type(excinfo.value.__cause__) is ValueError

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config("trajectory", overrides={"frobnicate": "1"})

    def test_unknown_subcommand_named(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("bogus")
        assert str(excinfo.value) == "unknown subcommand 'bogus'"

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="lambda.*float"):
            parse_config(
                "trajectory",
                overrides={"engine": "meanfield", "initial": "fock", "lambda": "abc"},
            )

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config("trajectory", overrides={"engine": "meanfield"})

    def test_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "engine = meanfield\n"
            "initial = stationary_dicke\n"
            "lambda = 0.7\n"
            "\n"
            "j = 2.0\n",
            encoding="utf-8",
        )
        config = parse_config("trajectory", str(cfg), {"lambda": "1.3"})
        assert config.values["lambda"] == 1.3
        assert config.provenance["lambda"] == "flag"
        assert config.values["j"] == 2.0
        assert config.provenance["j"] == "file"

    @pytest.mark.parametrize("line", ["lambda = 1.0# x", "lambda = 1.0\t# x", "lambda = 1.0#"])
    def test_hash_starts_comment_anywhere(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"engine = meanfield\ninitial = fock# no space\n{line}\n", encoding="utf-8")
        config = parse_config("trajectory", str(cfg))
        assert config.values["lambda"] == 1.0
        assert config.values["initial"] == "fock"

    def test_duplicate_key_names_both_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "engine = meanfield\nlambda = 0.5\ninitial = fock\nlambda = 1.0\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match=r":4: duplicate key 'lambda' \(first set on line 2\)"):
            parse_config("trajectory", str(cfg))

    def test_echo_reparses_to_same_values(self, tmp_path):
        config = parse_config(
            "trajectory",
            overrides={
                "engine": "quantum",
                "initial": "nearly_fock",
                "lambda": "0.9321",
                "epsilon": "4.5",
                "driven": "false",
                "observables": "mean_photon_scaled,parity",
            },
        )
        echo = tmp_path / "echo.cfg"
        echo.write_text("\n".join(config.echo_lines()) + "\n", encoding="utf-8")
        reparsed = parse_config("trajectory", str(echo))
        assert reparsed.values == config.values

    def test_grid_must_divide_evenly(self):
        with pytest.raises(ConfigError, match="integer multiple"):
            parse_config(
                "sweep-lambda",
                overrides={
                    "engine": "meanfield",
                    "initial": "fock",
                    "lambda_min": "0.0",
                    "lambda_max": "1.0",
                    "lambda_step": "0.3",
                },
            )

    # Two configurations that differ in every key of every run subcommand.
    CONFIG_A = {
        "engine": "meanfield", "initial": "nearly_fock", "omega": "1.0", "omega0": "1.0",
        "j": "6.0", "n_max": "", "epsilon": "3.0", "alpha_re": "0.0", "alpha_im": "0.0",
        "zeta_re": "0.0", "zeta_im": "0.0", "driven": "true", "n_revolutions": "1",
        "sample_count": "1000", "observables": "mean_photon_scaled", "rtol": "1e-12",
        "format": "csv", "precision": "17", "lambda": "0.5", "delta_phi": "1.0",
        "lambda_min": "0.1", "lambda_max": "0.3", "lambda_step": "0.1",
        "delta_phi_min": "0.5", "delta_phi_max": "1.5", "delta_phi_step": "0.5",
    }
    CONFIG_B = {
        "engine": "quantum", "initial": "explicit", "omega": "2.0", "omega0": "0.5",
        "j": "2.5", "n_max": "40", "epsilon": "4.5", "alpha_re": "0.3", "alpha_im": "-0.2",
        "zeta_re": "0.1", "zeta_im": "0.05", "driven": "false", "n_revolutions": "3",
        "sample_count": "77", "observables": "parity", "rtol": "1e-9",
        "format": "json", "precision": "5", "lambda": "1.2", "delta_phi": "2.0",
        "lambda_min": "0.2", "lambda_max": "0.8", "lambda_step": "0.2",
        "delta_phi_min": "1.0", "delta_phi_max": "3.0", "delta_phi_step": "1.0",
    }

    def test_schema_covers_every_protocol_field(self):
        for subcommand in ("trajectory", "sweep-lambda", "sweep-velocity", "phase-diagram"):
            schema = SCHEMAS[subcommand]
            assert set(schema) <= set(self.CONFIG_A)
            a, b = (
                config_to_spec(parse_config(subcommand, overrides={k: c[k] for k in schema}))
                for c in (self.CONFIG_A, self.CONFIG_B)
            )
            for f in fields(ProtocolSpec):
                assert getattr(a, f.name) != getattr(b, f.name), (subcommand, f.name)
            for f in fields(ModelParams):
                assert getattr(a.params, f.name) != getattr(b.params, f.name), (subcommand, f.name)

    def test_config_to_spec_round_trip_values(self):
        config = parse_config(
            "trajectory",
            overrides={
                "engine": "meanfield",
                "initial": "explicit",
                "lambda": "0.8",
                "alpha_re": "0.3",
                "alpha_im": "-0.2",
                "zeta_re": "0.1",
                "zeta_im": "0.05",
                "sample_count": "77",
            },
        )
        spec = config_to_spec(config)
        assert spec.alpha == complex(0.3, -0.2)
        assert spec.zeta == complex(0.1, 0.05)
        assert spec.sample_count == 77
        assert spec.params.lam == 0.8


class TestEmit:
    def test_trajectory_csv_constant_columns(self, tmp_path):
        # the Fock mean-field run sits exactly on the origin fixed point
        traj = run_protocol(small_spec(initial="fock"))
        out = tmp_path / "t.csv"
        emit(traj, "csv", out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "mean_photon_scaled", "parity"]
        assert {row[1] for row in rows[1:]} == {"0"}
        assert {row[2] for row in rows[1:]} == {"1"}

    def test_trajectory_json_round_trip(self, tmp_path):
        traj = run_protocol(small_spec())
        out = tmp_path / "t.json"
        emit(traj, "json", out, config={"subcommand": "trajectory"})
        back = load_result_json(out)
        assert back.engine == traj.engine
        assert back.driven == traj.driven
        assert back.params == traj.params
        assert back.observables == traj.observables
        assert np.array_equal(back.times, traj.times)
        assert back.data.keys() == traj.data.keys()
        for key in traj.data:
            assert np.array_equal(back.data[key], traj.data[key])

    def test_trajectory_json_observable_without_column_rejected(self, tmp_path):
        # Such a file once loaded, and emit(..., "csv") or average() then
        # failed with a KeyError.
        out = tmp_path / "t.json"
        emit(run_protocol(small_spec()), "json", out)
        payload = json.loads(out.read_text(encoding="utf-8"))
        del payload["result"]["data"]["parity"]
        out.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=r"observables \['parity'\] have no column"):
            load_result_json(out)

    def test_sweep_json_round_trip(self, tmp_path):
        result = sweep_lambda(small_spec(), [0.5, 1.0])
        out = tmp_path / "s.json"
        emit(result, "json", out)
        back = load_result_json(out)
        assert back.spec == result.spec
        assert back.cells == result.cells
        assert np.array_equal(back.axes[0][1], result.axes[0][1])
        assert back.axes[0][0] == "lambda" and len(back.axes) == 1
        assert back.overlays == {}

    def test_phase_diagram_json_round_trip(self, tmp_path):
        result = phase_diagram(small_spec(), [0.5, 1.0], [1.0, 2.0])
        out = tmp_path / "pd.json"
        emit(result, "json", out)
        back = load_result_json(out)
        assert back.spec == result.spec
        assert back.cells == result.cells
        assert {c.region for c in back.cells} == {"zero", "nonzero"}
        assert [name for name, _ in back.axes] == ["lambda", "delta_phi"]
        for (_, a), (_, b) in zip(back.axes, result.axes):
            assert np.array_equal(a, b)
        assert back.overlays.keys() == result.overlays.keys()
        for key, values in result.overlays.items():
            assert np.array_equal(back.overlays[key], values)

    def test_spectrum_json_round_trip(self, tmp_path):
        result = spectrum(1.0, 1.0, 0.5, [0.0, 0.5, 1.0])
        out = tmp_path / "spec.json"
        emit(result, "json", out)
        back = load_result_json(out)
        assert isinstance(back, Spectrum)
        assert back == result
        assert back.rows[0][2] is None

    def test_sweep_json_round_trip_keeps_rtol(self, tmp_path):
        result = sweep_lambda(small_spec(rtol=1e-8), [0.5, 1.0])
        out = tmp_path / "s.json"
        emit(result, "json", out)
        back = load_result_json(out)
        assert back.spec.rtol == 1e-8
        assert back.spec == result.spec

    def test_two_dim_csv_long_format_sorted(self, tmp_path):
        result = phase_diagram(small_spec(), [0.5, 1.0], [1.0, 2.0])
        out = tmp_path / "pd.csv"
        emit(result, "csv", out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["lambda", "delta_phi"]
        assert "lambda_c_rot" in rows[0] and "lambda_c_dyn" in rows[0]
        coords = [(float(r[0]), float(r[1])) for r in rows[1:]]
        assert coords == sorted(coords)
        # round-trip parse of the numeric payload
        k = rows[0].index("mean_photon_scaled_timeavg")
        parsed = [float(r[k]) for r in rows[1:]]
        for value, cell in zip(parsed, result.cells):
            assert value == cell.average["mean_photon_scaled"]

    def test_two_dim_csv_overlay_columns_are_the_results(self, tmp_path):
        # One column per overlay the result carries, in its order, before "region".
        result = phase_diagram(small_spec(), [0.5, 1.0], [1.0, 2.0])
        extra = replace(result, overlays={"lambda_c_dyn": result.overlays["lambda_c_dyn"], "ones": np.ones(2)})
        out = tmp_path / "pd.csv"
        emit(extra, "csv", out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-4:] == ["lambda_c_dyn", "ones", "region", "error"]
        assert [float(r[-3]) for r in rows[1:]] == [1.0] * 4

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_protocol(small_spec()), "csv", a)
        emit(run_protocol(small_spec()), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unknown_result_type(self, tmp_path, fmt):
        out = tmp_path / "x.out"
        with pytest.raises(TypeError, match="cannot emit object"):
            emit(object(), fmt, out)
        assert not out.exists()

    def test_unknown_result_kind(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"result": {"kind": "bogus"}}), encoding="utf-8")
        with pytest.raises(ValueError, match="unknown result kind 'bogus'"):
            load_result_json(path)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="csv or json"):
            emit(run_protocol(small_spec()), "xml", tmp_path / "x.xml")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("precision", [-1, 0, 18, 40, 1.5, True])
    def test_bad_precision_opens_no_file(self, tmp_path, fmt, precision):
        # Refused before any file is opened: no header-only output is left,
        # and an existing output stays as it was.
        traj = run_protocol(small_spec())
        new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
        old.write_text("old output\n")
        for path in (new, old):
            with pytest.raises(ValueError, match=re.escape(f"precision must be in [1, 17], got {precision}")):
                emit(traj, fmt, path, precision=precision)
        assert not new.exists()
        assert old.read_text() == "old output\n"

    def test_numpy_integer_precision_accepted(self, tmp_path):
        traj = run_protocol(small_spec())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(traj, "csv", a, precision=np.int64(5))
        emit(traj, "csv", b, precision=5)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_memory_stays_flat(self, tmp_path, fmt):
        # Writing the whole file as one string, or every value as its own
        # object list, peaks at >20 MB here; streaming chunks stays near 1 MB.
        n = 100_000
        rng = np.random.default_rng(7)
        observables = ("mean_photon_scaled", "parity", "scaled_parity")
        data = {k: rng.normal(size=n) for k in observables}
        traj = Trajectory(
            ModelParams(lam=1.0), "meanfield", True, np.linspace(0.0, 125.0, n), data, observables
        )
        tracemalloc.start()
        try:
            emit(traj, fmt, tmp_path / f"big.{fmt}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"emit {fmt} peaked at {peak / 1e6:.1f} MB"


class TestLegacyFixtures:
    """JSON results written by the earlier, hand-written serializer still load."""

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("trajectory", Trajectory),
            ("sweep_lambda", SweepResult),
            ("phase_diagram", SweepResult),
            ("spectrum", Spectrum),
        ],
    )
    def test_loads_and_reemits_same_json(self, tmp_path, name, cls):
        path = DATA / f"{name}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        back = load_result_json(path)
        assert type(back) is cls
        out = tmp_path / "again.json"
        emit(back, "json", out, config=payload["config"])
        assert json.loads(out.read_text(encoding="utf-8")) == payload

    @pytest.mark.parametrize("name", ["trajectory", "sweep_lambda", "phase_diagram"])
    def test_spec_matches_its_config(self, name):
        payload = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
        values = dict(payload["config"])
        subcommand = values.pop("subcommand")
        spec = config_to_spec(RunConfig(subcommand, values, {}))
        back = load_result_json(DATA / f"{name}.json")
        if subcommand == "trajectory":
            assert back.params == spec.params
            assert (back.engine, back.driven, back.observables) == (
                spec.engine, spec.driven, spec.observables
            )
            assert np.array_equal(back.times, np.linspace(0.0, spec.t_final, spec.sample_count))
        else:
            assert back.spec == spec

    def test_sweep_keeps_failed_cell(self):
        back = load_result_json(DATA / "sweep_lambda.json")
        assert back.spec.rtol == 1e-9
        assert back.cells[0].error is None
        assert "increase n_max" in back.cells[1].error
        assert back.cells[1].final == {}

    def test_spectrum_matches_closed_form(self):
        payload = json.loads((DATA / "spectrum.json").read_text(encoding="utf-8"))
        v = payload["config"]
        count = round((v["lambda_max"] - v["lambda_min"]) / v["lambda_step"])
        lambdas = v["lambda_min"] + v["lambda_step"] * np.arange(count + 1)
        expected = spectrum(v["omega"], v["omega0"], v["delta_phi"], lambdas)
        assert load_result_json(DATA / "spectrum.json") == expected


class TestStateSnapshot:
    def test_round_trip(self, tmp_path):
        state = coherent_state(0.4 + 0.2j, -0.3 + 0.1j, 1.5, 30)
        path = tmp_path / "state.txt"
        save_state(path, state)
        back = load_state(path)
        assert back.j == state.j and back.n_max == state.n_max
        assert np.array_equal(back.amplitudes, state.amplitudes)

    def test_header_documents_ordering(self, tmp_path):
        path = tmp_path / "state.txt"
        save_state(path, coherent_state(0, 0, 0.5, 2))
        text = path.read_text()
        assert "ordering=m-major,n-minor" in text

    def test_foreign_ordering_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        save_state(path, coherent_state(0, 0, 0.5, 2))
        text = path.read_text().replace("m-major,n-minor", "n-major,m-minor")
        path.write_text(text)
        with pytest.raises(ValueError, match="ordering"):
            load_state(path)

    def test_low_precision_keeps_j_exact(self, tmp_path):
        # j fixes the dimension: rounded to one digit, j=1.5 would read as 2.
        state = coherent_state(0.4, 0.1, 1.5, 20)
        path = tmp_path / "state.txt"
        save_state(path, state, precision=1)
        assert path.read_text().startswith("j=1.5\n")
        back = load_state(path)
        assert back.j == 1.5 and back.n_max == 20
        expected = [complex(float(f"{z.real:.1g}"), float(f"{z.imag:.1g}")) for z in state.amplitudes]
        assert np.array_equal(back.amplitudes, expected)

    @pytest.mark.parametrize("precision", [0, 18, 1.5, False])
    def test_bad_precision_opens_no_file(self, tmp_path, precision):
        path = tmp_path / "state.txt"
        with pytest.raises(ValueError, match=re.escape(f"precision must be in [1, 17], got {precision}")):
            save_state(path, coherent_state(0, 0, 0.5, 2), precision=precision)
        assert not path.exists()

    def test_non_half_integer_j_rejected(self, tmp_path):
        # j=1.3, n_max=1, dim=8 once loaded as a state with j=1.3: the shape
        # check rounds 2j + 1 = 3.6 to 4.
        path = tmp_path / "state.txt"
        save_state(path, coherent_state(0, 0, 1.5, 1))
        path.write_text(path.read_text().replace("j=1.5\n", "j=1.3\n"))
        with pytest.raises(ValueError, match="half-integer"):
            load_state(path)

    def test_negative_n_max_rejected(self, tmp_path):
        # j=0.5, n_max=-1, dim=0 once loaded as an empty state with norm 0.
        path = tmp_path / "state.txt"
        path.write_text("j=0.5\nn_max=-1\nordering=m-major,n-minor\ndim=0\n")
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            load_state(path)

    def test_cut_short_header_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("j=0.5\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*n_max, ordering, dim"):
            load_state(path)

    def test_truncated_snapshot_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        save_state(path, coherent_state(0, 0, 0.5, 2))
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-2]))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*dim=6"):
            load_state(path)

    @pytest.mark.parametrize("line", ["nan 0", "0 inf", "-inf 0"])
    def test_non_finite_amplitude_rejected(self, tmp_path, line):
        # j=0.5, n_max=1, dim=4 with a "nan 0" line once loaded as a state of norm NaN.
        path = tmp_path / "state.txt"
        path.write_text(f"j=0.5\nn_max=1\nordering=m-major,n-minor\ndim=4\n1 0\n0 0\n{line}\n0 0\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": amplitude line 3 of dim=4 is not finite"):
            load_state(path)

    def test_padded_snapshot_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        save_state(path, coherent_state(0, 0, 0.5, 2))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("0 0\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*dim=6"):
            load_state(path)


# Each writer, at a size that grows with n: a long output rewritten by a short one.
WRITERS = {
    "csv": lambda path, n: emit(run_protocol(small_spec(sample_count=n)), "csv", path),
    "json": lambda path, n: emit(run_protocol(small_spec(sample_count=n)), "json", path, config={"n": n}),
    "state": lambda path, n: save_state(path, coherent_state(0.4 + 0.2j, -0.3 + 0.1j, 1.5, n)),
}


class TestRewriteInPlace:
    """An output is rewritten as ``open(path, "w")`` would, but never cut to zero length."""

    @staticmethod
    def fresh(tmp_path, writer):
        path = tmp_path / f"fresh-{writer}"
        WRITERS[writer](path, 20)
        return path.read_bytes()

    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_rewrite_of_a_longer_file_matches_a_fresh_write(self, tmp_path, writer):
        path = tmp_path / "out"
        WRITERS[writer](path, 200)
        assert path.stat().st_size > 2 * len(self.fresh(tmp_path, writer))
        WRITERS[writer](path, 20)
        assert path.read_bytes() == self.fresh(tmp_path, writer)

    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_rewrite_never_cuts_to_zero_length(self, tmp_path, writer, monkeypatch):
        # ext4 forces the writeback of a file truncated to zero length, and
        # the next rewrite of it waits on that: each output is cut to one byte.
        path = tmp_path / "out"
        WRITERS[writer](path, 200)
        cuts = []
        ftruncate = os.ftruncate
        monkeypatch.setattr(os, "ftruncate", lambda fd, length: (cuts.append(length), ftruncate(fd, length))[1])
        WRITERS[writer](path, 20)
        assert cuts == [1]
        assert path.read_bytes() == self.fresh(tmp_path, writer)

    def test_new_file_is_created_uncut(self, tmp_path, monkeypatch):
        cuts = []
        monkeypatch.setattr(os, "ftruncate", lambda fd, length: cuts.append(length))
        WRITERS["csv"](tmp_path / "out", 20)
        assert cuts == []

    def test_mode_is_kept(self, tmp_path):
        path = tmp_path / "out.csv"
        WRITERS["csv"](path, 200)
        path.chmod(0o640)
        WRITERS["csv"](path, 20)
        assert path.stat().st_mode & 0o777 == 0o640
        assert path.read_bytes() == self.fresh(tmp_path, "csv")

    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n" * 1000)
        link.symlink_to(target)
        WRITERS["csv"](link, 20)
        assert link.is_symlink()
        assert target.read_bytes() == self.fresh(tmp_path, "csv")

    def test_hard_link_sees_the_new_content(self, tmp_path):
        path, other = tmp_path / "out.csv", tmp_path / "other.csv"
        WRITERS["csv"](path, 200)
        os.link(path, other)
        WRITERS["csv"](path, 20)
        assert other.read_bytes() == path.read_bytes() == self.fresh(tmp_path, "csv")

    def test_devnull_is_accepted(self):
        for writer in WRITERS:
            WRITERS[writer](os.devnull, 20)

    def test_fifo_is_accepted(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        WRITERS["csv"](fifo, 20)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [self.fresh(tmp_path, "csv")]

    @pytest.mark.parametrize("text", ["t,x\n0,1\n", ""])
    def test_failed_write_leaves_only_its_bytes(self, tmp_path, text):
        # With nothing written, the one byte left by the cut on open goes too.
        path = tmp_path / "out.csv"
        path.write_text("old,row\n" * 1000)
        with pytest.raises(RuntimeError, match="mid-write"):
            with rio._rewrite(path) as fh:
                assert path.stat().st_size == 1
                fh.write(text)
                raise RuntimeError("mid-write")
        assert path.read_text() == text

    def test_failed_emit_leaves_no_old_tail(self, tmp_path, monkeypatch):
        # The rows fail after the header: the file holds the header alone.
        path = tmp_path / "out.csv"
        WRITERS["csv"](path, 200)
        header = path.read_bytes().split(b"\n")[0] + b"\n"

        def fail(fh, template, columns):
            raise RuntimeError("row writer failed")

        monkeypatch.setattr(rio, "_write_rows", fail)
        with pytest.raises(RuntimeError, match="row writer failed"):
            WRITERS["csv"](path, 20)
        assert path.read_bytes() == header

    def test_directory_path_exits_3(self, tmp_path, capsys):
        argv = ["trajectory", "--engine", "meanfield", "--initial", "fock", "--lambda", "1.0"]
        assert main([*argv, "--sample-count", "20", "--out", str(tmp_path)]) == 3
        assert "error: [Errno 21] Is a directory" in capsys.readouterr().err

    @pytest.mark.skipif(os.geteuid() == 0, reason="root writes through a read-only mode")
    def test_read_only_file_is_refused(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("kept\n")
        path.chmod(0o444)
        with pytest.raises(PermissionError):
            WRITERS["csv"](path, 20)
        assert path.read_text() == "kept\n"


class TestMainExitCodes:
    def test_trajectory_run_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        argv = [
            "trajectory",
            "--engine", "meanfield",
            "--initial", "stationary_circle",
            "--lambda", "1.0",
            "--sample-count", "50",
            "--out", str(out1),
        ]
        assert main(argv) == 0
        echo = capsys.readouterr().out
        assert "lambda = 1.0  # flag" in echo
        assert "omega = 1.0  # default" in echo
        argv[-1] = str(out2)
        assert main(argv) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_validation_error_exit_code(self, tmp_path, capsys):
        # Both fail in parse_config, before the configuration is echoed.
        for flags, message in (
            (["--engine", "meanfield", "--j", "0.75"], "half-integer"),
            (
                ["--engine", "quantum", "--observables", "parity,scaled_parity"],
                "unsupported quantum observables: ['scaled_parity'], not in ",
            ),
        ):
            code = main(
                ["trajectory", "--initial", "fock", "--lambda", "1.0", *flags]
                + ["--out", str(tmp_path / "x.csv")]
            )
            assert code == 1
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""

    def test_library_rule_rejects_before_echo(self, tmp_path, capsys):
        # ProtocolSpec's rule, not one the CLI restates: ground_state needs
        # the quantum engine.  Nothing is echoed and nothing is written.
        out = tmp_path / "x.csv"
        code = main(
            ["trajectory", "--engine", "meanfield", "--initial", "ground_state"]
            + ["--lambda", "1", "--out", str(out)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "initial=ground_state requires the quantum engine" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["trajectory", "--lambda", "0.5"],
            ["sweep-lambda", "--lambda-min", "0.5", "--lambda-max", "1.0", "--lambda-step", "0.5"],
        ],
        ids=["trajectory", "sweep-lambda"],
    )
    def test_repeated_observable_is_validation_error(self, tmp_path, capsys, argv):
        # Once written "t,parity,parity" (and a sweep's parity columns twice).
        out = tmp_path / "x.csv"
        code = main(
            argv + ["--engine", "meanfield", "--initial", "fock", "--sample-count", "3"]
            + ["--observables", "parity,parity", "--out", str(out)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "repeated observables: ['parity']" in captured.err
        assert captured.out == ""
        assert not out.exists()

    # Valid flags of each subcommand; a case overrides one of them.
    BASE_FLAGS = {
        "trajectory": {"engine": "meanfield", "initial": "fock", "lambda": "1.0", "sample_count": "5"},
        "sweep-lambda": {
            "engine": "meanfield", "initial": "fock", "sample_count": "5",
            "lambda_min": "0.5", "lambda_max": "1.0", "lambda_step": "0.5",
        },
        "sweep-velocity": {
            "engine": "meanfield", "initial": "fock", "sample_count": "5", "lambda": "1.0",
            "delta_phi_min": "0.5", "delta_phi_max": "1.0", "delta_phi_step": "0.5",
        },
        "phase-diagram": {
            "engine": "meanfield", "initial": "fock", "sample_count": "5",
            "lambda_min": "0.5", "lambda_max": "1.0", "lambda_step": "0.5",
            "delta_phi_min": "0.5", "delta_phi_max": "1.0", "delta_phi_step": "0.5",
        },
        "spectrum": {"lambda_min": "0.0", "lambda_max": "1.0", "lambda_step": "0.5"},
    }

    @pytest.mark.parametrize(
        "subcommand, key, value, message",
        [
            ("trajectory", "lambda", "-1", "lambda must be nonnegative"),
            ("trajectory", "omega", "0", "omega must be positive"),
            ("trajectory", "omega0", "-1", "omega0 must be positive"),
            ("trajectory", "delta_phi", "0", "delta_phi must be positive"),
            ("trajectory", "n_max", "0", "n_max must be >= 1"),
            ("trajectory", "epsilon", "0", "epsilon must be positive"),
            ("trajectory", "n_revolutions", "0", "n_revolutions must be >= 1"),
            ("trajectory", "sample_count", "1", "sample_count must be >= 2"),
            ("trajectory", "rtol", "-1e-9", "rtol must be positive"),
            ("trajectory", "engine", "classical", "engine must be one of"),
            ("trajectory", "initial", "vacuum", "initial must be one of"),
            # The observable rules' messages name no field.
            ("trajectory", "observables", "photons", "unsupported meanfield observables: ['photons']"),
            ("trajectory", "observables", ",", "at least one observable is required"),
            ("sweep-lambda", "lambda_min", "-0.5", "lambda_min must be nonnegative"),
            ("sweep-velocity", "delta_phi_min", "0", "delta_phi_min must be positive"),
            ("phase-diagram", "lambda_min", "-0.5", "lambda_min must be nonnegative"),
            ("spectrum", "omega", "0", "omega must be positive"),
            ("spectrum", "lambda_min", "-0.5", "lambda_min must be nonnegative"),
            ("spectrum", "delta_phi", "-0.5", "delta_phi must be nonnegative"),
        ],
    )
    def test_library_rule_is_validation_error(self, tmp_path, capsys, subcommand, key, value, message):
        # The CLI restates none of these rules: each is the library's, with
        # its leading field named by the CLI key, and fails before the echo.
        flags = {**self.BASE_FLAGS[subcommand], key: value}
        out = tmp_path / "x.csv"
        argv = [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
        assert main([subcommand, *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, key, value, message",
        [
            ("trajectory", "lambda", "", "lambda requires a value"),
            ("trajectory", "driven", "yes", "driven expects a bool value, got 'yes'"),
            ("trajectory", "n_max", "1.5", "n_max expects an int value, got '1.5'"),
            ("trajectory", "format", "xml", "format must be one of ('csv', 'json'), got 'xml'"),
            ("trajectory", "precision", "0", "precision must be in [1, 17], got 0"),
            ("trajectory", "precision", "18", "precision must be in [1, 17], got 18"),
            ("trajectory", "config", "lambda 1", "{config}:1: expected key = value, got 'lambda 1'"),
            ("spectrum", "lambda_step", "0", "lambda_step must be positive, got 0.0"),
            ("spectrum", "lambda_max", "-1", "lambda_max must be >= lambda_min"),
        ],
    )
    def test_cli_rule_is_validation_error(self, tmp_path, capsys, subcommand, key, value, message):
        # The rules the CLI checks itself (file syntax, value types, precision,
        # axis grids), each before the echo.  For "config", value is the file's line.
        flags = {**self.BASE_FLAGS[subcommand], key: value}
        if key == "config":
            flags["config"] = config = tmp_path / "run.cfg"
            config.write_text(value + "\n", encoding="utf-8")
            message = message.format(config=config)
        out = tmp_path / "x.csv"
        argv = [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
        assert main([subcommand, *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @staticmethod
    def quantum_failure(key, value, initial):
        """The error a quantum trajectory at ``key`` = ``value`` names, or None for a run."""
        if float(value) > 1.0:
            # The spectrum spreads over ~1e200 * n_max.
            if initial == "ground_state":
                return "ground state: the Gershgorin bound |E| <= 1e+20"
            return "Chebyshev order for dt = 3.14159 over the spectral span E_max - E_min = "
        if key == "omega" and (initial.startswith("stationary_") or initial == "ground_state"):
            # alpha ~ 2 lam/omega on the stationary circle.  An open ground
            # state is refused by its stationary-Dicke start before any
            # Lanczos run.
            return "|alpha|^2 overflows the float range at alpha = 1.41421e+"
        return None

    @pytest.mark.parametrize("value", ["1e-200", "1e-160", "1e200"])
    @pytest.mark.parametrize("key", ["omega", "omega0"])
    def test_extreme_frequency_writes_no_nan(self, tmp_path, capsys, key, value):
        # spectrum --omega 1e-200 once exited 2 with "float division by
        # zero", and --omega 1e200 wrote NaN in every eps_np cell; a
        # mean-field start at omega = 1e-200 divided by zero in the first
        # step's choice.  A run may fail (exit 1 or 2), but never so.  A
        # quantum start at omega = 1e-200 once failed with "(34, 'Numerical
        # result out of range')", and one at 1e200 with "Maximum allowed
        # size exceeded" (a ground state after an overflow inside numpy's
        # norm); each failure now names what overflowed.
        runs = [(subcommand, flags, None) for subcommand, flags in self.BASE_FLAGS.items()]
        for initial in INITIAL_KINDS:
            quantum = {"engine": "quantum", "initial": initial, "j": "1", "lambda": "1", "sample_count": "3"}
            runs.append(("trajectory", quantum, self.quantum_failure(key, value, initial)))
        for subcommand, flags, failure in runs:
            out = tmp_path / f"{subcommand}.csv"
            argv = [f"--{k.replace('_', '-')}={v}" for k, v in {**flags, key: value}.items()]
            code = main([subcommand, *argv, "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (subcommand, err)
            assert "by zero" not in err, (subcommand, err)
            if failure is not None:
                assert code == 2 and err.startswith(f"error: {failure}"), (flags, err)
            elif flags.get("engine") == "quantum":
                assert code == 0, (flags, err)
            if code == 0:
                assert "nan" not in out.read_text().lower(), subcommand

    @pytest.mark.parametrize(
        "engines, key, value, exit_code, failure",
        [
            # 2.4e-13 inside the sphere at j = 6, within the boundary guard;
            # once reported as rates that overflow at the start.
            (["meanfield"], "zeta_re", "1e7", 2, "q1^2+p1^2 = 23.999999999999762"
             " is on or outside the sphere of radius^2 4j = 24.0"),
            # Once "(34, 'Numerical result out of range')" from the mean
            # field's label map, then a numerical failure after the echo;
            # ProtocolSpec now rejects the label before it.
            (["meanfield", "quantum"], "zeta_re", "1e160", 1,
             "|zeta|^2 overflows the float range at zeta = 1e+160"),
            (["meanfield", "quantum"], "alpha_re", "1e160", 1,
             "|alpha|^2 overflows the float range at alpha = 1e+160"),
            # |alpha|^2 = 1e300 is finite; the flow's rates are not.
            (["meanfield"], "alpha_re", "1e150", 2, "no first step: the flow's rates at the start overflow"),
        ],
        ids=["zeta-within-the-guard", "zeta-squared-overflows", "alpha-squared-overflows", "rates-overflow"],
    )
    def test_extreme_explicit_start_names_its_failure(
        self, tmp_path, capsys, engines, key, value, exit_code, failure
    ):
        for engine in engines:
            out = tmp_path / f"{engine}.csv"
            flags = {"engine": engine, "initial": "explicit", "lambda": "1", "sample_count": "3", key: value}
            argv = [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
            code = main(["trajectory", *argv, "--out", str(out)])
            captured = capsys.readouterr()
            assert code == exit_code and captured.err.startswith(f"error: {failure}"), (engine, captured.err)
            if exit_code == 1:
                assert captured.out == "", engine
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--lambda-step", "1e-12"],
            ["spectrum", "--lambda-min=-1e308", "--lambda-max=1e308", "--lambda-step", "1"],
        ],
        ids=["tiny-step", "infinite-span"],
    )
    def test_oversized_grid_is_validation_error(self, tmp_path, capsys, argv):
        # 1e-12 steps once asked numpy for 10.9 TiB and died with a traceback;
        # the point count is now checked before anything is allocated or echoed.
        out = tmp_path / "big.csv"
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        step_key = argv[-2].lstrip("-").replace("-", "_")
        assert captured.err.startswith(f"error: {step_key} = ")
        assert "points" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, flags",
        [
            ("trajectory", {"engine": "meanfield", "lambda": "1"}),
            ("trajectory", {"engine": "quantum", "j": "1", "n_max": "5", "lambda": "1"}),
            ("sweep-lambda", {"engine": "meanfield", "lambda_min": "0.5", "lambda_max": "1.0", "lambda_step": "0.5"}),
        ],
        ids=["meanfield", "quantum", "sweep-lambda"],
    )
    def test_unallocatable_samples_are_numerical_failure(self, tmp_path, capsys, subcommand, flags):
        # 10^17 samples ask numpy for 711 PiB, past any 64-bit address space,
        # so the sample grid's allocation fails before a page is touched.  It
        # once ended in numpy's traceback and exit 1.
        out = tmp_path / "x.csv"
        flags = {"initial": "fock", **flags, "sample_count": str(10**17)}
        argv = [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
        assert main([subcommand, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["spectrum", "phase-diagram"])
    def test_axis_check_builds_no_grid(self, subcommand):
        # parse_config once built every axis whole to check it, and _run
        # built it again: two 8 MB grids at the 10^6-point cap.
        overrides = {**self.BASE_FLAGS[subcommand], "lambda_min": "0", "lambda_max": "999999", "lambda_step": "1"}
        tracemalloc.start()
        try:
            config = parse_config(subcommand, None, overrides)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert config.values["lambda_max"] == 999999.0

    def test_spectrum_accepts_zero_velocity(self, tmp_path):
        # delta_phi = 0 is the undriven model: the rotated line is the equilibrium one.
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--delta-phi", "0", "--lambda-step", "0.25", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        assert all(row["lambda_c_rot"] == row["lambda_c"] for row in rows)

    @pytest.mark.parametrize(
        "key",
        ["lambda", "omega", "omega0", "delta_phi", "j", "epsilon", "rtol", "alpha_re", "zeta_im"],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_is_validation_error(self, tmp_path, capsys, key, value):
        flag = "--" + key.replace("_", "-")
        code = main(
            [
                "trajectory",
                "--engine", "meanfield",
                "--initial", "nearly_fock",
                "--lambda", "1.0",
                "--sample-count", "5",
                f"{flag}={value}",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert f"error: {key} must" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # quantum run whose coherent state cannot fit the requested n_max
        code = main(
            [
                "trajectory",
                "--engine", "quantum",
                "--initial", "stationary_dicke",
                "--lambda", "1.3",
                "--j", "6",
                "--n-max", "5",
                "--sample-count", "20",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "increase n_max" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "trajectory",
                "--engine", "meanfield",
                "--initial", "fock",
                "--lambda", "1.0",
                "--sample-count", "20",
                "--out", str(tmp_path / "missing_dir" / "x.csv"),
            ]
        )
        assert code == 3

    def test_spectrum_subcommand(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--lambda-step", "0.25", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "eps_np", "eps_srp", "lambda_c", "lambda_c_rot", "lambda_c_dyn"]
        by_lam = {float(r[0]): r for r in rows[1:]}
        assert by_lam[0.0][1] == "1"  # uncoupled gap, NP branch
        assert by_lam[0.0][2] == ""  # SRP branch undefined below lambda_c
        assert by_lam[0.5][1] == "0" and by_lam[0.5][2] == "0"
        assert float(by_lam[1.0][2]) == pytest.approx(0.9662437708928436)

    def test_phase_diagram_cli(self, tmp_path):
        out = tmp_path / "pd.csv"
        code = main(
            [
                "phase-diagram",
                "--engine", "meanfield",
                "--initial", "stationary_circle",
                "--lambda-min", "0.5",
                "--lambda-max", "1.0",
                "--lambda-step", "0.5",
                "--delta-phi-min", "1.0",
                "--delta-phi-max", "2.0",
                "--delta-phi-step", "1.0",
                "--n-revolutions", "1",
                "--sample-count", "100",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 4
        region_col = rows[0].index("region")
        regions = {(float(r[0]), float(r[1])): r[region_col] for r in rows[1:]}
        assert regions[(0.5, 1.0)] == "zero"
        assert regions[(1.0, 1.0)] == "nonzero"

    def test_spectrum_json(self, tmp_path):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--lambda-step", "0.5", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["kind"] == "spectrum"
        assert payload["result"]["header"][0] == "lambda"
        assert payload["result"]["rows"][0][0] == 0.0

    def test_config_file_via_cli(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "engine = meanfield\ninitial = stationary_circle\nlambda = 1.0\n"
            "sample_count = 30\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.json"
        code = main(
            ["trajectory", "--config", str(cfg), "--format", "json",
             "--delta-phi", "2.0", "--out", str(out)]
        )
        assert code == 0
        echo = capsys.readouterr().out
        assert "delta_phi = 2.0  # flag" in echo
        assert "lambda = 1.0  # file" in echo
        payload = json.loads(out.read_text())
        assert payload["config"]["delta_phi"] == 2.0
        assert payload["result"]["kind"] == "trajectory"

    def test_sweep_velocity_cli(self, tmp_path):
        out = tmp_path / "sv.csv"
        code = main(
            [
                "sweep-velocity",
                "--engine", "meanfield",
                "--initial", "stationary_circle",
                "--lambda", "1.0",
                "--delta-phi-min", "2.5",
                "--delta-phi-max", "3.5",
                "--delta-phi-step", "1.0",
                "--n-revolutions", "2",
                "--sample-count", "200",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "delta_phi"
        vals = {float(r[0]): float(r[rows[0].index("mean_photon_scaled_timeavg")]) for r in rows[1:]}
        assert vals[2.5] > 0.05 and vals[3.5] < 1e-3

    @pytest.mark.parametrize(
        "argv",
        [
            ["trajectory", "--engine", "meanfield", "--initial", "fock", "--lambda", "1.0",
             "--j", "1", "--sample-count", "5"],
            ["sweep-lambda", "--engine", "meanfield", "--initial", "fock", "--j", "1",
             "--lambda-min", "0.5", "--lambda-max", "0.5", "--lambda-step", "0.5",
             "--n-revolutions", "1", "--sample-count", "5"],
            ["sweep-velocity", "--engine", "meanfield", "--initial", "fock", "--j", "1",
             "--lambda", "0.5", "--delta-phi-min", "1.0", "--delta-phi-max", "1.0",
             "--delta-phi-step", "1.0", "--n-revolutions", "1", "--sample-count", "5"],
            ["phase-diagram", "--engine", "meanfield", "--initial", "fock", "--j", "1",
             "--lambda-min", "0.5", "--lambda-max", "0.5", "--lambda-step", "0.5",
             "--delta-phi-min", "1.0", "--delta-phi-max", "1.0", "--delta-phi-step", "1.0",
             "--n-revolutions", "1", "--sample-count", "5"],
            ["spectrum", "--lambda-step", "0.5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_json_config_keys_match_schema(self, tmp_path, argv):
        out = tmp_path / "out.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["config"]) == {"subcommand"} | set(SCHEMAS[argv[0]])
        assert isinstance(load_result_json(out), (Trajectory, SweepResult, Spectrum))


def value_after(code, expression):
    """``expression``, as JSON, once ``code`` has run in a fresh interpreter."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += f"\nimport json, sys; print(json.dumps({expression}))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def modules_after(code, package):
    """The modules of ``package`` loaded once ``code`` has run in a fresh interpreter."""
    return value_after(code, f"[m for m in sys.modules if (m + '.').startswith({package + '.'!r})]")


def test_cli_import_leaves_out_scipy_integrate():
    # Importing scipy cost every command ~0.4 s of start-up; the CLI loads
    # no scipy module at all.
    assert modules_after("import rotdicke.cli", "scipy") == []


RUN_FLAGS = pytest.mark.parametrize(
    "flags",
    [
        ["--engine", "meanfield", "--initial", "stationary_circle"],
        ["--engine", "quantum", "--initial", "stationary_circle", "--n-max", "20"],
        ["--engine", "quantum", "--initial", "ground_state", "--n-max", "20"],
    ],
    ids=["meanfield", "coherent-state", "ground-state"],
)


def run_code(tmp_path, flags):
    """Python source that runs one small trajectory through ``rotdicke.cli.main``."""
    argv = ["trajectory", "--lambda", "1.2", "--j", "1", "--delta-phi", "1",
            "--sample-count", "5", "--out", str(tmp_path / "out.csv")] + flags
    return f"from rotdicke.cli import main; assert main({argv!r}) == 0"


@RUN_FLAGS
def test_only_the_ground_state_loads_scipy(tmp_path, flags):
    # No run loads scipy, the ground state included: its Lanczos solver is
    # in-house, and scipy is a test-only dependency.
    assert modules_after(run_code(tmp_path, flags), "scipy") == []


@RUN_FLAGS
def test_no_run_imports_numpy_random(tmp_path, flags):
    # numpy.random's extension modules cost ~6 MB of RSS and ~20 ms on first
    # use; the ground state's Lanczos start is the deterministic Perron
    # vector, so no run loads them.
    assert modules_after(run_code(tmp_path, flags), "numpy.random") == []


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--lambda-step", "0.5"],
        ["trajectory", "--engine", "quantum", "--initial", "ground_state", "--lambda", "1.2",
         "--j", "1", "--n-max", "20", "--sample-count", "5"],
    ],
    ids=["spectrum", "quantum-trajectory"],
)
def test_runs_without_meanfield_never_generate_the_step_loop(tmp_path, argv):
    # The generated DOP853 loop is compiled on first use (~2 ms): a command
    # that never integrates the mean field never pays for it.
    code = f"from rotdicke.cli import main; assert main({argv + ['--out', str(tmp_path / 'out.csv')]!r}) == 0"
    names = ("_steps", "_scalar_flow", "_array_flow")
    generated = f"[name for name in {names!r} if name in vars(sys.modules['rotdicke.meanfield'])]"
    assert value_after(code, generated) == []


def eager_parser():
    """The CLI's parser with every subcommand's arguments added up front."""
    parser = argparse.ArgumentParser(
        prog="rotdicke",
        description="Rotationally driven Dicke model: trajectories, sweeps and phase diagrams.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name, help=f"{name} run")
        p.add_argument("--config", default=None, help="flat key=value configuration file")
        p.add_argument("--out", required=True, help="output path")
        for key, spec in schema.items():
            required_note = " [required]" if spec.default is cli._REQUIRED else ""
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, metavar="V",
                           help=spec.help + required_note)
    return parser


def parse_outcome(parser, argv):
    """What parsing ``argv`` prints and returns, or the exit it asks for."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [["-h"], [], ["bogus"], ["trajectory", "--out", "x", "--bogus", "1"],
     ["phase-diagram", "--out", "x", "--lambda-min", "0.5", "--config", "c.txt"],
     # The subcommand is not the first word, or a later word names another one.
     ["--out=x", "trajectory", "--lambda", "1"], ["--out", "x", "trajectory"], ["-h", "spectrum"],
     ["spectrum", "--out", "trajectory"]]
    + [[name, "-h"] for name in SCHEMAS] + [[name] for name in SCHEMAS],
    ids=" ".join,
)
def test_parser_adds_arguments_on_use_with_unchanged_text(argv):
    # Only the running subcommand's arguments are added, chosen from argv;
    # help, usage, errors and parsed values are those of a parser built whole.
    assert parse_outcome(cli._build_parser(argv), argv) == parse_outcome(eager_parser(), argv)

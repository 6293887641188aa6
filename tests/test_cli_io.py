"""Configuration parsing, serialization, and the command-line surface."""

import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rotdicke import (
    ModelParams,
    ProtocolSpec,
    basis_state,
    coherent_state,
    emit,
    load_result_json,
    load_state,
    run_protocol,
    save_state,
    sweep_lambda,
    phase_diagram,
)
from rotdicke.cli import (
    SCHEMAS,
    ConfigError,
    RunConfig,
    config_to_spec,
    main,
    parse_config,
)
from rotdicke.experiments import Spectrum, SweepResult, spectrum
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

    def test_infinite_j_runs_through_the_model_rule(self):
        # One half-integer rule: the CLI re-raises model.check_spin's error.
        with pytest.raises(ValueError) as expected:
            check_spin(float("inf"))
        with pytest.raises(ConfigError, match="half-integer") as excinfo:
            parse_config("trajectory", overrides={"initial": "fock", "lambda": "1.0", "j": "inf"})
        assert str(excinfo.value) == str(expected.value)
        assert type(excinfo.value.__cause__) is ValueError

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config("trajectory", overrides={"frobnicate": "1"})

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

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_protocol(small_spec()), "csv", a)
        emit(run_protocol(small_spec()), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="csv or json"):
            emit(run_protocol(small_spec()), "xml", tmp_path / "x.xml")

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
            assert np.array_equal(back.times, spec.time_grid())
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
        save_state(path, basis_state(0.5, 2))
        text = path.read_text()
        assert "ordering=m-major,n-minor" in text

    def test_foreign_ordering_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        save_state(path, basis_state(0.5, 2))
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

    def test_non_half_integer_j_rejected(self, tmp_path):
        # j=1.3, n_max=1, dim=8 once loaded as a state with j=1.3: the shape
        # check rounds 2j + 1 = 3.6 to 4.
        path = tmp_path / "state.txt"
        save_state(path, basis_state(1.5, 1))
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
        save_state(path, basis_state(0.5, 2))
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-2]))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*dim=6"):
            load_state(path)

    def test_padded_snapshot_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        save_state(path, basis_state(0.5, 2))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("0 0\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*dim=6"):
            load_state(path)


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
                "scaled_parity is only available with engine = meanfield",
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
        assert "observables must not repeat a name, got parity,parity" in captured.err
        assert captured.out == ""
        assert not out.exists()

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


def modules_after(code, package):
    """The modules of ``package`` loaded once ``code`` has run in a fresh interpreter."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += (
        "\nimport json, sys; print(json.dumps("
        f"[m for m in sys.modules if (m + '.').startswith({package + '.'!r})]))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


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

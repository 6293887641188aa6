"""Command-line front end.

    rotdicke <subcommand> [--config FILE] [--key value ...] --out PATH [--format csv|json]

Subcommands: ``trajectory``, ``sweep-lambda``, ``sweep-velocity``,
``phase-diagram`` and ``spectrum`` (excitation-energy branches and critical
lines).  Configuration comes from an optional flat ``key = value`` file
(UTF-8, ``#`` comments) overridden by flags; the fully resolved
configuration is echoed to stdout with the provenance of every value, in a
form that re-parses to the same configuration.  Keys follow a closed
per-subcommand schema: unknown keys are errors.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import io as rio
from .experiments import (
    ENGINES,
    INITIAL_KINDS,
    OBSERVABLES,
    ProtocolSpec,
    phase_diagram,
    run_protocol,
    spectrum,
    sweep_lambda,
    sweep_velocity,
)
from .meanfield import _OBSERVABLES
from .model import ModelParams, check_spin

__all__ = ["ConfigError", "RunConfig", "parse_config", "config_to_spec", "main"]

_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, bad type, broken constraint)."""


@dataclass(frozen=True)
class KeySpec:
    kind: str  # float | int | bool | str | obs
    default: object
    help: str
    choices: tuple | None = None
    optional: bool = False  # empty value allowed, parsed as None


def _positive(key):
    def check(v):
        if not v > 0:
            raise ConfigError(f"{key} must be positive, got {v}")

    return check


def _nonnegative(key):
    def check(v):
        if not v >= 0:
            raise ConfigError(f"{key} must be nonnegative, got {v}")

    return check


def _half_integer(v):
    """The library's spin rule, ``model.check_spin``, as a ConfigError."""
    try:
        check_spin(v)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _at_least(key, bound):
    def check(v):
        if v is not None and not v >= bound:
            raise ConfigError(f"{key} must be >= {bound}, got {v}")

    return check


def _in_range(key, lo, hi):
    def check(v):
        if not lo <= v <= hi:
            raise ConfigError(f"{key} must be in [{lo}, {hi}], got {v}")

    return check


_CHECKS = {
    "lambda": _nonnegative("lambda"),
    "omega": _positive("omega"),
    "omega0": _positive("omega0"),
    "delta_phi": _positive("delta_phi"),
    "j": _half_integer,
    "n_max": _at_least("n_max", 1),
    "epsilon": _positive("epsilon"),
    "n_revolutions": _at_least("n_revolutions", 1),
    "rtol": _positive("rtol"),
    "sample_count": _at_least("sample_count", 2),
    "precision": _in_range("precision", 1, 17),
    "lambda_min": _nonnegative("lambda_min"),
    "lambda_step": _positive("lambda_step"),
    "delta_phi_min": _positive("delta_phi_min"),
    "delta_phi_step": _positive("delta_phi_step"),
}


def _model_keys(n_revolutions_default: int) -> dict[str, KeySpec]:
    return {
        "engine": KeySpec("str", _REQUIRED, "evolution engine", ENGINES),
        "initial": KeySpec("str", _REQUIRED, "initial-state preparation", INITIAL_KINDS),
        "omega": KeySpec("float", 1.0, "field frequency"),
        "omega0": KeySpec("float", 1.0, "atomic level splitting"),
        "j": KeySpec("float", 6.0, "pseudo-spin length, half-integer"),
        "n_max": KeySpec("int", None, "boson truncation (quantum engine); empty = adaptive", optional=True),
        "epsilon": KeySpec("float", 3.0, "nearly_fock exponent: alpha=zeta=10^-epsilon"),
        "alpha_re": KeySpec("float", 0.0, "Re alpha for initial=explicit"),
        "alpha_im": KeySpec("float", 0.0, "Im alpha for initial=explicit"),
        "zeta_re": KeySpec("float", 0.0, "Re zeta for initial=explicit"),
        "zeta_im": KeySpec("float", 0.0, "Im zeta for initial=explicit"),
        "driven": KeySpec("bool", True, "rotate from t=0 (false: undriven run, same t_f)"),
        "n_revolutions": KeySpec("int", n_revolutions_default, "t_f = n_revolutions*2pi/delta_phi"),
        "sample_count": KeySpec("int", 1000, "uniform samples incl. endpoints"),
        "observables": KeySpec("obs", ("mean_photon_scaled", "parity"), "comma-separated observables"),
        "rtol": KeySpec("float", 1e-12, "mean-field integrator relative tolerance"),
    }


def _output_keys() -> dict[str, KeySpec]:
    return {
        "format": KeySpec("str", "csv", "output format", ("csv", "json")),
        "precision": KeySpec("int", 17, "significant digits in CSV output"),
    }


def _lambda_axis_keys(required: bool) -> dict[str, KeySpec]:
    default = _REQUIRED if required else None
    return {
        "lambda_min": KeySpec("float", default if required else 0.0, "first coupling"),
        "lambda_max": KeySpec("float", default if required else 1.5, "last coupling"),
        "lambda_step": KeySpec("float", default if required else 0.01, "coupling grid step"),
    }


def _velocity_axis_keys() -> dict[str, KeySpec]:
    return {
        "delta_phi_min": KeySpec("float", _REQUIRED, "first velocity (> 0)"),
        "delta_phi_max": KeySpec("float", _REQUIRED, "last velocity"),
        "delta_phi_step": KeySpec("float", _REQUIRED, "velocity grid step"),
    }


def _build_schemas() -> dict[str, dict[str, KeySpec]]:
    schemas: dict[str, dict[str, KeySpec]] = {}
    schemas["trajectory"] = {
        **_model_keys(n_revolutions_default=1),
        "lambda": KeySpec("float", _REQUIRED, "atom-field coupling"),
        "delta_phi": KeySpec("float", 1.0, "rotation velocity (> 0, also sets t_f)"),
        **_output_keys(),
    }
    schemas["sweep-lambda"] = {
        **_model_keys(n_revolutions_default=150),
        "delta_phi": KeySpec("float", 1.0, "rotation velocity (> 0, also sets t_f)"),
        **_lambda_axis_keys(required=True),
        **_output_keys(),
    }
    schemas["sweep-velocity"] = {
        **_model_keys(n_revolutions_default=150),
        "lambda": KeySpec("float", _REQUIRED, "atom-field coupling"),
        **_velocity_axis_keys(),
        **_output_keys(),
    }
    schemas["phase-diagram"] = {
        **_model_keys(n_revolutions_default=150),
        **_lambda_axis_keys(required=True),
        **_velocity_axis_keys(),
        **_output_keys(),
    }
    schemas["spectrum"] = {
        "omega": KeySpec("float", 1.0, "field frequency"),
        "omega0": KeySpec("float", 1.0, "atomic level splitting"),
        "delta_phi": KeySpec("float", 1.0, "velocity for the rotated critical line"),
        **_lambda_axis_keys(required=False),
        **_output_keys(),
    }
    return schemas


SCHEMAS = _build_schemas()


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration: values plus per-key provenance."""

    subcommand: str
    values: dict
    provenance: dict

    def echo_lines(self) -> list[str]:
        lines = [f"# rotdicke {self.subcommand}"]
        for key in SCHEMAS[self.subcommand]:
            lines.append(
                f"{key} = {_value_to_text(self.values[key])}  # {self.provenance[key]}"
            )
        return lines


def _value_to_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


def _parse_value(subcommand: str, key: str, text: str):
    spec = SCHEMAS[subcommand].get(key)
    if spec is None:
        raise ConfigError(f"unknown key {key!r} for subcommand {subcommand!r}")
    text = text.strip()
    if text == "":
        if spec.optional:
            return None
        raise ConfigError(f"{key} requires a value")
    try:
        if spec.kind == "float":
            value: object = float(text)
        elif spec.kind == "int":
            value = int(text)
        elif spec.kind == "bool":
            if text.lower() not in ("true", "false"):
                raise ValueError
            value = text.lower() == "true"
        elif spec.kind == "obs":
            value = tuple(part.strip() for part in text.split(",") if part.strip())
        else:
            value = text
    except ValueError:
        raise ConfigError(f"{key} expects a {spec.kind} value, got {text!r}") from None
    if spec.choices is not None and value not in spec.choices:
        raise ConfigError(f"{key} must be one of {spec.choices}, got {value!r}")
    if spec.kind == "obs":
        bad = set(value) - set(OBSERVABLES)
        if bad:
            raise ConfigError(f"observables must be among {OBSERVABLES}, got {sorted(bad)}")
        if not value:
            raise ConfigError("observables must not be empty")
        if len(set(value)) != len(value):
            raise ConfigError(f"observables must not repeat a name, got {','.join(value)}")
    check = _CHECKS.get(key)
    if check is not None and value is not None:
        check(value)
    if spec.kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    return value


def _read_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            # No schema value contains "#", so it starts a comment anywhere.
            stripped = line.partition("#")[0].strip()
            if not stripped:
                continue
            key, sep, value = stripped.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{line_no}: expected key = value, got {stripped!r}")
            key = key.strip()
            if key in first_line:
                raise ConfigError(
                    f"{path}:{line_no}: duplicate key {key!r} (first set on line {first_line[key]})"
                )
            first_line[key] = line_no
            raw[key] = value.strip()
    return raw


def parse_config(
    subcommand: str,
    config_path: str | None = None,
    overrides: dict[str, str] | None = None,
) -> RunConfig:
    """Resolve defaults, file values and flag overrides into a RunConfig."""
    if subcommand not in SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    schema = SCHEMAS[subcommand]
    values: dict = {}
    provenance: dict = {}
    for key, spec in schema.items():
        if spec.default is not _REQUIRED:
            values[key] = spec.default
            provenance[key] = "default"
    if config_path is not None:
        for key, text in _read_config_file(config_path).items():
            values[key] = _parse_value(subcommand, key, text)
            provenance[key] = "file"
    for key, text in (overrides or {}).items():
        values[key] = _parse_value(subcommand, key, text)
        provenance[key] = "flag"
    missing = [key for key in schema if key not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    _validate_cross(subcommand, values)
    return RunConfig(subcommand=subcommand, values=values, provenance=provenance)


def _validate_cross(subcommand: str, values: dict) -> None:
    for axis in ("lambda", "delta_phi"):
        lo_key, hi_key, step_key = f"{axis}_min", f"{axis}_max", f"{axis}_step"
        if lo_key in values:
            lo, hi, step = values[lo_key], values[hi_key], values[step_key]
            if hi < lo:
                raise ConfigError(f"{hi_key} must be >= {lo_key}")
            count = round((hi - lo) / step)
            if abs(lo + count * step - hi) > 1e-9 * max(1.0, abs(hi)):
                raise ConfigError(
                    f"({hi_key} - {lo_key}) must be an integer multiple of {step_key}"
                )
    if values.get("engine") == "quantum":
        for name in values["observables"]:
            if _OBSERVABLES[name].quantum is None:
                raise ConfigError(f"{name} is only available with engine = meanfield")


def _axis_values(values: dict, axis: str) -> np.ndarray:
    lo, hi, step = values[f"{axis}_min"], values[f"{axis}_max"], values[f"{axis}_step"]
    count = round((hi - lo) / step)
    return lo + step * np.arange(count + 1)


def config_to_spec(config: RunConfig) -> ProtocolSpec:
    """ProtocolSpec for the run subcommands (axis cells override later)."""
    v = config.values
    lam = v.get("lambda", v.get("lambda_min", 0.0))
    delta_phi = v.get("delta_phi", v.get("delta_phi_min"))
    try:
        params = ModelParams(
            lam=lam,
            omega0=v["omega0"],
            omega=v["omega"],
            j=v["j"],
            delta_phi=delta_phi,
            n_max=v["n_max"],
        )
        return ProtocolSpec(
            params=params,
            engine=v["engine"],
            initial=v["initial"],
            epsilon=v["epsilon"],
            alpha=complex(v["alpha_re"], v["alpha_im"]),
            zeta=complex(v["zeta_re"], v["zeta_im"]),
            driven=v["driven"],
            n_revolutions=v["n_revolutions"],
            sample_count=v["sample_count"],
            observables=tuple(v["observables"]),
            rtol=v["rtol"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run(config: RunConfig, out_path: str) -> None:
    v = config.values
    if config.subcommand == "spectrum":
        result = spectrum(v["omega"], v["omega0"], v["delta_phi"], _axis_values(v, "lambda"))
    elif config.subcommand == "trajectory":
        result = run_protocol(config_to_spec(config))
    elif config.subcommand == "sweep-lambda":
        result = sweep_lambda(config_to_spec(config), _axis_values(v, "lambda"))
    elif config.subcommand == "sweep-velocity":
        result = sweep_velocity(config_to_spec(config), _axis_values(v, "delta_phi"))
    else:
        lambdas, velocities = _axis_values(v, "lambda"), _axis_values(v, "delta_phi")
        result = phase_diagram(config_to_spec(config), lambdas, velocities)
    config_dict = {"subcommand": config.subcommand, **v}
    rio.emit(result, v["format"], out_path, precision=v["precision"], config=config_dict)


def _build_parser() -> argparse.ArgumentParser:
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
            flag = "--" + key.replace("_", "-")
            required_note = " [required]" if spec.default is _REQUIRED else ""
            p.add_argument(flag, dest=key, default=None, metavar="V", help=spec.help + required_note)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    schema = SCHEMAS[args.subcommand]
    overrides = {
        key: str(value)
        for key, value in vars(args).items()
        if key in schema and value is not None
    }
    try:
        config = parse_config(args.subcommand, args.config, overrides)
        for line in config.echo_lines():
            print(line)
        _run(config, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end.

    rotdicke <subcommand> [--config FILE] [--key value ...] --out PATH [--format csv|json]

Subcommands: ``trajectory``, ``sweep-lambda``, ``sweep-velocity``,
``phase-diagram`` and ``spectrum`` (excitation-energy branches and critical
lines).  Configuration comes from an optional flat ``key = value`` file
(UTF-8, ``#`` comments) overridden by flags; the fully resolved
configuration is echoed to stdout with the provenance of every value, in a
form that re-parses to the same configuration.  Keys follow a closed
per-subcommand schema: unknown keys are errors.

Values are checked by the library's rules (``ModelParams``, ``ProtocolSpec``,
the spectrum's closed forms) before anything is echoed; their errors name the
CLI key (``lambda``, ``lambda_min``, ``delta_phi_min``); ``precision`` is
checked by :func:`rotdicke.io.check_precision`.  The CLI itself checks only
the file syntax, the value types (a float must be finite) and the axis
grids.

Exit codes: 0 success, 1 validation error, 2 numerical failure (including
a run whose arrays cannot be allocated), 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import io as rio
from .experiments import (
    _AXIS_NAMES,
    ProtocolSpec,
    phase_diagram,
    run_protocol,
    spectrum,
    sweep_lambda,
    sweep_velocity,
)
from .model import ModelParams

__all__ = ["ConfigError", "RunConfig", "parse_config", "config_to_spec", "main"]

_REQUIRED = object()
# Most points per axis, checked before a grid is built whole: a mistyped step could ask for terabytes.
_MAX_AXIS_POINTS = 10**6


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, bad type, broken constraint)."""


@dataclass(frozen=True)
class KeySpec:
    kind: str  # float | int | bool | str | obs
    default: object
    help: str
    choices: tuple | None = None
    optional: bool = False  # empty value allowed, parsed as None


# The library's field defaults, which the keys named after a field share.
_DEFAULTS = {f.name: f.default for cls in (ModelParams, ProtocolSpec) for f in fields(cls)}


def _model_keys(n_revolutions_default: int) -> dict[str, KeySpec]:
    return {
        "engine": KeySpec("str", _REQUIRED, "evolution engine"),
        "initial": KeySpec("str", _REQUIRED, "initial-state preparation"),
        "omega": KeySpec("float", _DEFAULTS["omega"], "field frequency"),
        "omega0": KeySpec("float", _DEFAULTS["omega0"], "atomic level splitting"),
        "j": KeySpec("float", _DEFAULTS["j"], "pseudo-spin length, half-integer"),
        "n_max": KeySpec("int", _DEFAULTS["n_max"], "boson truncation (quantum engine); empty = adaptive", optional=True),
        "epsilon": KeySpec("float", 3.0, "nearly_fock exponent: alpha=zeta=10^-epsilon"),
        "alpha_re": KeySpec("float", 0.0, "Re alpha for initial=explicit"),
        "alpha_im": KeySpec("float", 0.0, "Im alpha for initial=explicit"),
        "zeta_re": KeySpec("float", 0.0, "Re zeta for initial=explicit"),
        "zeta_im": KeySpec("float", 0.0, "Im zeta for initial=explicit"),
        "driven": KeySpec("bool", _DEFAULTS["driven"], "rotate from t=0 (false: undriven run, same t_f)"),
        "n_revolutions": KeySpec("int", n_revolutions_default, "t_f = n_revolutions*2pi/delta_phi"),
        "sample_count": KeySpec("int", _DEFAULTS["sample_count"], "uniform samples incl. endpoints"),
        "observables": KeySpec("obs", _DEFAULTS["observables"], "comma-separated observables"),
        "rtol": KeySpec("float", _DEFAULTS["rtol"], "mean-field integrator relative tolerance"),
    }


def _output_keys() -> dict[str, KeySpec]:
    return {
        "format": KeySpec("str", "csv", "output format", ("csv", "json")),
        "precision": KeySpec("int", 17, "significant digits in CSV output"),
    }


def _lambda_axis_keys(required: bool) -> dict[str, KeySpec]:
    lo, hi, step = (_REQUIRED,) * 3 if required else (0.0, 1.5, 0.01)
    return {
        "lambda_min": KeySpec("float", lo, "first coupling"),
        "lambda_max": KeySpec("float", hi, "last coupling"),
        "lambda_step": KeySpec("float", step, "coupling grid step"),
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
        "omega": KeySpec("float", _DEFAULTS["omega"], "field frequency"),
        "omega0": KeySpec("float", _DEFAULTS["omega0"], "atomic level splitting"),
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
        article = "an" if spec.kind == "int" else "a"
        raise ConfigError(f"{key} expects {article} {spec.kind} value, got {text!r}") from None
    if spec.choices is not None and value not in spec.choices:
        raise ConfigError(f"{key} must be one of {spec.choices}, got {value!r}")
    if spec.kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    if key == "precision":
        try:
            rio.check_precision(value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
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
    for axis in ("lambda", "delta_phi"):
        if f"{axis}_min" in values:
            _axis_size(values, axis)
    config = RunConfig(subcommand=subcommand, values=values, provenance=provenance)
    # The library's own rules reject a value here, before main echoes the
    # configuration: ModelParams and ProtocolSpec for the run subcommands,
    # the closed forms at the grid's smallest coupling for the spectrum.
    if subcommand == "spectrum":
        try:
            spectrum(values["omega"], values["omega0"], values["delta_phi"], [values["lambda_min"]])
        except ValueError as exc:
            raise _config_error(exc, values) from exc
    else:
        config_to_spec(config)
    return config


def _axis_size(values: dict, axis: str) -> int:
    """Point count of the grid min, min + step, ..., max; ConfigError unless it is one.

    Checked on scalars, with no grid built: the last point is computed as
    the grid computes it, min + step*(n-1), so the check sees its bits.
    """
    lo_key, hi_key, step_key = f"{axis}_min", f"{axis}_max", f"{axis}_step"
    lo, hi, step = values[lo_key], values[hi_key], values[step_key]
    if not step > 0:
        raise ConfigError(f"{step_key} must be positive, got {step}")
    if hi < lo:
        raise ConfigError(f"{hi_key} must be >= {lo_key}")
    if not (hi - lo) / step + 1 <= _MAX_AXIS_POINTS:
        raise ConfigError(f"{step_key} = {step} gives over {_MAX_AXIS_POINTS} points on the {axis} axis")
    size = round((hi - lo) / step) + 1
    if abs(lo + step * (size - 1) - hi) > 1e-9 * max(1.0, abs(hi)):
        raise ConfigError(f"({hi_key} - {lo_key}) must be an integer multiple of {step_key}")
    return size


def _axis_values(values: dict, axis: str) -> np.ndarray:
    """The grid min, min + step, ..., max of an axis that parse_config checked."""
    return values[f"{axis}_min"] + values[f"{axis}_step"] * np.arange(_axis_size(values, axis))


def _field_key(values: dict, field: str) -> str:
    """The key that supplies swept field ``field``: the run's own value, else its axis's first point."""
    own = _AXIS_NAMES[field]
    return own if own in values else own + "_min"


def _config_error(exc: ValueError, values: dict) -> ConfigError:
    """The library's error, its leading field name replaced by the CLI key."""
    field, sep, rest = str(exc).partition(" ")
    if field in _AXIS_NAMES:
        field = _field_key(values, field)
    return ConfigError(field + sep + rest)


def _from_keys(cls, values: dict, **exceptions):
    """``cls`` built from the keys named as its fields, ``exceptions`` given apart."""
    named = {f.name: values[f.name] for f in fields(cls) if f.name in values}
    return cls(**{**named, **exceptions})


def config_to_spec(config: RunConfig) -> ProtocolSpec:
    """ProtocolSpec for the run subcommands (axis cells override later)."""
    v = config.values
    try:
        params = _from_keys(ModelParams, v, **{name: v[_field_key(v, name)] for name in _AXIS_NAMES})
        return _from_keys(
            ProtocolSpec,
            v,
            params=params,
            **{label: complex(v[label + "_re"], v[label + "_im"]) for label in ("alpha", "zeta")},
            observables=tuple(v["observables"]),  # a legacy JSON config holds a list
        )
    except ValueError as exc:
        raise _config_error(exc, v) from exc


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


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The CLI's parser, with arguments added only to the subcommand that runs.

    No top-level option takes a value, so argparse dispatches on the first
    positional word of ``argv`` and fails unless it names a subcommand: the
    running subcommand is the first word that names one.  Only its subparser
    gets ``--config``, ``--out`` and its schema's flags; help, usage and
    errors read as from a parser built whole.
    """
    parser = argparse.ArgumentParser(
        prog="rotdicke",
        description="Rotationally driven Dicke model: trajectories, sweeps and phase diagrams.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    running = next((word for word in argv if word in SCHEMAS), None)
    for name, schema in SCHEMAS.items():
        subparser = sub.add_parser(name, help=f"{name} run")
        if name == running:
            subparser.add_argument("--config", default=None, help="flat key=value configuration file")
            subparser.add_argument("--out", required=True, help="output path")
            for key, spec in schema.items():
                text = spec.help + (" [required]" if spec.default is _REQUIRED else "")
                subparser.add_argument("--" + key.replace("_", "-"), dest=key, default=None, metavar="V", help=text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
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
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

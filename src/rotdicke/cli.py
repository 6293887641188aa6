"""Command-line front end.

    rotdicke <subcommand> [--config FILE] [--key value ...] --out PATH [--format csv|json]

Subcommands: ``trajectory``, ``sweep-lambda``, ``sweep-velocity``,
``phase-diagram`` and ``spectrum`` (excitation-energy branches and critical
lines).  Configuration comes from an optional flat ``key = value`` file
(UTF-8, a leading BOM skipped, ``#`` comments) overridden by flags.  The
resolved configuration is echoed to stdout in schema order, the order of a
JSON output's ``config``, with each value's provenance, in a form that
re-parses to it.  Each subcommand's key schema is closed: unknown keys are errors.

Values are checked by the library's rules (``ModelParams``, ``ProtocolSpec``,
the spectrum's closed forms) before anything is echoed; their errors name the
CLI key (``lambda``, ``lambda_min``, ``delta_phi_min``), and a run that fails
on an extreme value names its key or its flag (``--omega``) once, on stderr
and in a failed sweep cell's ``error`` alike; ``format`` and
``precision`` are checked by :func:`rotdicke.io.check_format` and
:func:`rotdicke.io.check_precision`.  The CLI itself checks only the file
syntax, the value types (a float must be finite) and the axis grids.

Exit codes: 0 success (and ``-h``), 1 validation error (including an
unknown flag, a missing ``--out`` and an unknown subcommand), 2 numerical
failure (including a run whose arrays cannot be allocated), 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import io as rio
from .experiments import (
    AXIS_NAMES,
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
    default: object  # or _REQUIRED; an empty value parses as None where this is None
    help: str


# The library's field defaults, which the keys named after a field share.
_DEFAULTS = {f.name: f.default for cls in (ModelParams, ProtocolSpec) for f in fields(cls)}

# Every key of every subcommand, once; SCHEMAS picks each subcommand's keys.
_KEYS = {
    "engine": KeySpec("str", _REQUIRED, "evolution engine"),
    "initial": KeySpec("str", _REQUIRED, "initial-state preparation"),
    "omega": KeySpec("float", _DEFAULTS["omega"], "field frequency"),
    "omega0": KeySpec("float", _DEFAULTS["omega0"], "atomic level splitting"),
    "j": KeySpec("float", _DEFAULTS["j"], "pseudo-spin length, half-integer"),
    "n_max": KeySpec("int", _DEFAULTS["n_max"], "boson truncation (quantum engine); empty = adaptive"),
    "epsilon": KeySpec("float", 3.0, "nearly_fock exponent: alpha=zeta=10^-epsilon"),
    "alpha_re": KeySpec("float", 0.0, "Re alpha for initial=explicit"),
    "alpha_im": KeySpec("float", 0.0, "Im alpha for initial=explicit"),
    "zeta_re": KeySpec("float", 0.0, "Re zeta for initial=explicit"),
    "zeta_im": KeySpec("float", 0.0, "Im zeta for initial=explicit"),
    "driven": KeySpec("bool", _DEFAULTS["driven"], "rotate from t=0 (false: undriven run, same t_f)"),
    "n_revolutions": KeySpec("int", 150, "t_f = n_revolutions*2pi/delta_phi"),
    "sample_count": KeySpec("int", _DEFAULTS["sample_count"], "uniform samples incl. endpoints"),
    "observables": KeySpec("obs", _DEFAULTS["observables"], "comma-separated observables"),
    "rtol": KeySpec("float", _DEFAULTS["rtol"], "mean-field integrator relative tolerance"),
    "lambda": KeySpec("float", _REQUIRED, "atom-field coupling"),
    "delta_phi": KeySpec("float", 1.0, "rotation velocity (> 0, also sets t_f)"),
    "lambda_min": KeySpec("float", _REQUIRED, "first coupling"),
    "lambda_max": KeySpec("float", _REQUIRED, "last coupling"),
    "lambda_step": KeySpec("float", _REQUIRED, "coupling grid step"),
    "delta_phi_min": KeySpec("float", _REQUIRED, "first velocity (> 0)"),
    "delta_phi_max": KeySpec("float", _REQUIRED, "last velocity"),
    "delta_phi_step": KeySpec("float", _REQUIRED, "velocity grid step"),
    "format": KeySpec("str", "csv", "output format"),
    "precision": KeySpec("int", 17, "significant digits in CSV output"),
}
# The model and protocol keys of every run.
_RUN = (
    "engine", "initial", "omega", "omega0", "j", "n_max", "epsilon", "alpha_re", "alpha_im",
    "zeta_re", "zeta_im", "driven", "n_revolutions", "sample_count", "observables", "rtol",
)
_LAMBDA_AXIS = ("lambda_min", "lambda_max", "lambda_step")
_VELOCITY_AXIS = ("delta_phi_min", "delta_phi_max", "delta_phi_step")
_OUTPUT = ("format", "precision")

# Each subcommand's keys in order, with the fields that differ there from _KEYS.
SCHEMAS = {
    name: {key: replace(_KEYS[key], **changes.get(key, {})) for key in keys}
    for name, keys, changes in (
        ("trajectory", (*_RUN, "lambda", "delta_phi", *_OUTPUT), {"n_revolutions": {"default": 1}}),
        ("sweep-lambda", (*_RUN, "delta_phi", *_LAMBDA_AXIS, *_OUTPUT), {}),
        ("sweep-velocity", (*_RUN, "lambda", *_VELOCITY_AXIS, *_OUTPUT), {}),
        ("phase-diagram", (*_RUN, *_LAMBDA_AXIS, *_VELOCITY_AXIS, *_OUTPUT), {}),
        ("spectrum", ("omega", "omega0", "delta_phi", *_LAMBDA_AXIS, *_OUTPUT), {
            "delta_phi": {"help": "velocity for the rotated critical line"},
            "lambda_min": {"default": 0.0}, "lambda_max": {"default": 1.5}, "lambda_step": {"default": 0.01},
        }),
    )
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration: values in schema order plus per-key provenance."""

    subcommand: str
    values: dict
    provenance: dict

    def echo_lines(self) -> list[str]:
        return [f"# rotdicke {self.subcommand}"] + [
            f"{key} = {_value_to_text(value)}  # {self.provenance[key]}" for key, value in self.values.items()
        ]


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
        if spec.default is None:
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
    if spec.kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    check = {"format": rio.check_format, "precision": rio.check_precision}.get(key)
    if check is not None:
        try:
            check(value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return value


def _read_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    # A leading BOM is skipped; a byte that is not UTF-8 reads as a lone surrogate, reported with its line.
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            bad = next((char for char in line if "\udc80" <= char <= "\udcff"), None)
            if bad is not None:
                raise ConfigError(f"{path}:{line_no}: byte 0x{ord(bad) - 0xDC00:02x} is not UTF-8")
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
    """Resolve each schema key, in schema order, from a flag, else the file, else its default."""
    if subcommand not in SCHEMAS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    schema = SCHEMAS[subcommand]
    texts = {"file": {} if config_path is None else _read_config_file(config_path), "flag": overrides or {}}
    # Every given value is parsed, the file's before the flags', so the first bad one is the error.
    given = {source: {key: _parse_value(subcommand, key, text) for key, text in pairs.items()}
             for source, pairs in texts.items()}
    given["default"] = {key: spec.default for key, spec in schema.items() if spec.default is not _REQUIRED}
    values, provenance, missing = {}, {}, []
    # Each key once, in schema order: a flag beats a file value, and a file value the default.
    for key in schema:
        source = next((name for name in ("flag", "file", "default") if key in given[name]), None)
        if source is None:
            missing.append(key)
        else:
            values[key], provenance[key] = given[source][key], source
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
    own = AXIS_NAMES[field]
    return own if own in values else own + "_min"


def _config_error(exc: ValueError, values: dict) -> ConfigError:
    """The library's error, its leading field name replaced by the CLI key."""
    field, sep, rest = str(exc).partition(" ")
    if field in AXIS_NAMES:
        field = _field_key(values, field)
    return ConfigError(field + sep + rest)


def _flag_named(message: str) -> str:
    """A run's error, the field it leads with (``lam = 1e+308 puts``) written as
    its CLI key and the one it ends on (``(set by lam = 1e+200)``) as its flag."""
    field, sep, rest = message.partition(" = ")
    if field in AXIS_NAMES:
        message = AXIS_NAMES[field] + sep + rest
    head, sep, tail = message.rpartition("(set by ")
    if not sep:
        return message
    field, space, rest = tail.partition(" ")
    return f"{head}{sep}--{AXIS_NAMES.get(field, field).replace('_', '-')}{space}{rest}"


def _from_keys(cls, values: dict, **exceptions):
    """``cls`` built from the keys named as its fields, ``exceptions`` given apart."""
    named = {f.name: values[f.name] for f in fields(cls) if f.name in values}
    return cls(**{**named, **exceptions})


def config_to_spec(config: RunConfig) -> ProtocolSpec:
    """ProtocolSpec for the run subcommands (axis cells override later)."""
    v = config.values
    try:
        params = _from_keys(ModelParams, v, **{name: v[_field_key(v, name)] for name in AXIS_NAMES})
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
    else:
        if config.subcommand == "sweep-lambda":
            result = sweep_lambda(config_to_spec(config), _axis_values(v, "lambda"))
        elif config.subcommand == "sweep-velocity":
            result = sweep_velocity(config_to_spec(config), _axis_values(v, "delta_phi"))
        else:
            lambdas, velocities = _axis_values(v, "lambda"), _axis_values(v, "delta_phi")
            result = phase_diagram(config_to_spec(config), lambdas, velocities)
        # A failed cell's error reads as main's message for the same failed run.
        cells = [c if c.error is None else replace(c, error=_flag_named(c.error)) for c in result.cells]
        result = replace(result, cells=tuple(cells))
    rio.emit(result, v["format"], out_path, precision=v["precision"], config={"subcommand": config.subcommand, **v})


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
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage and its error (or the help, code 0).
        return 1 if exc.code else 0
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
        print(f"error: {_flag_named(str(exc))}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

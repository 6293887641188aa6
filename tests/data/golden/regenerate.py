#!/usr/bin/env python3
"""Regenerate the golden outputs in this directory.

    PYTHONPATH=src python tests/data/golden/regenerate.py

Every file here is the output of one ``rotdicke`` command line, run
through ``rotdicke.cli.main``; the format follows the file's extension.
``tests/test_golden.py`` re-runs each case and compares it with the file.
Regenerate only for a change that alters output bits on purpose, and say so
in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# File name -> command line, without --out and --format.
COMMANDS = {
    "trajectory_meanfield": [
        "trajectory", "--engine", "meanfield", "--initial", "explicit",
        "--alpha-re", "0.4", "--alpha-im", "-0.3", "--zeta-re", "0.5", "--zeta-im", "0.2",
        "--j", "2", "--lambda", "0.9", "--delta-phi", "1.3", "--n-revolutions", "2",
        "--sample-count", "25", "--observables", "mean_photon_scaled,parity,scaled_parity",
    ],
    "trajectory_coherent": [
        "trajectory", "--engine", "quantum", "--initial", "explicit",
        "--alpha-re", "0.3", "--alpha-im", "-0.2", "--zeta-re", "0.2", "--zeta-im", "0.1",
        "--j", "1", "--n-max", "12", "--lambda", "0.8", "--delta-phi", "1.5",
        "--sample-count", "21",
    ],
    "trajectory_ground_state": [
        "trajectory", "--engine", "quantum", "--initial", "ground_state",
        "--j", "1.5", "--n-max", "10", "--lambda", "0.4", "--sample-count", "21",
    ],
    "trajectory_undriven_meanfield": [
        "trajectory", "--engine", "meanfield", "--initial", "stationary_circle",
        "--j", "1.5", "--lambda", "1.2", "--delta-phi", "1.4", "--driven", "false",
        "--n-revolutions", "2", "--sample-count", "30",
    ],
    "trajectory_undriven_quantum": [
        "trajectory", "--engine", "quantum", "--initial", "stationary_circle",
        "--j", "1.5", "--n-max", "30", "--lambda", "1.2", "--delta-phi", "1.4", "--driven", "false",
        "--n-revolutions", "2", "--sample-count", "30",
    ],
    "sweep_lambda": [
        "sweep-lambda", "--engine", "meanfield", "--initial", "nearly_fock", "--epsilon", "1",
        "--j", "3", "--delta-phi", "1.2", "--lambda-min", "0.2", "--lambda-max", "1.2",
        "--lambda-step", "0.5", "--n-revolutions", "3", "--sample-count", "40",
    ],
    "sweep_lambda_failed": [
        # Both cells fail: omega = 1e-200 puts the first start's |alpha|^2
        # past the float range, lambda = 1e308 the second start's labels.
        "sweep-lambda", "--engine", "meanfield", "--initial", "stationary_dicke",
        "--j", "1", "--omega", "1e-200", "--lambda-min", "1", "--lambda-max", "1e308",
        "--lambda-step", "1e308", "--sample-count", "5",
    ],
    "sweep_velocity": [
        "sweep-velocity", "--engine", "quantum", "--initial", "stationary_circle",
        "--j", "1", "--n-max", "20", "--lambda", "0.9", "--delta-phi-min", "0.5",
        "--delta-phi-max", "1.5", "--delta-phi-step", "0.5", "--n-revolutions", "1",
        "--sample-count", "15",
    ],
    "phase_diagram": [
        "phase-diagram", "--engine", "meanfield", "--initial", "stationary_circle",
        "--j", "2", "--lambda-min", "0.4", "--lambda-max", "1.0", "--lambda-step", "0.6",
        "--delta-phi-min", "0.5", "--delta-phi-max", "1.5", "--delta-phi-step", "1.0",
        "--n-revolutions", "2", "--sample-count", "30",
        "--observables", "mean_photon_scaled,parity,scaled_parity",
    ],
    "spectrum": [
        "spectrum", "--lambda-min", "0", "--lambda-max", "1.5", "--lambda-step", "0.25",
        "--delta-phi", "0.7", "--omega0", "1.25",
    ],
}
NAMES = tuple(f"{name}.{fmt}" for name in COMMANDS for fmt in ("csv", "json"))


def write(name: str, directory) -> None:
    """Write the golden case ``name`` into ``directory``."""
    path = str(Path(directory) / name)
    from rotdicke.cli import main

    stem, fmt = name.rsplit(".", 1)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*COMMANDS[stem], "--format", fmt, "--out", path])
    if code != 0:
        raise RuntimeError(f"{name}: rotdicke exited with code {code}")


if __name__ == "__main__":
    for name in NAMES:
        write(name, HERE)
        print(f"wrote {name}", file=sys.stderr)

"""The benchmark's three workloads: the rotdicke commands each runs, and checks.

Each workload is a list of jobs, one ``rotdicke`` command line each, run one
after another in fresh processes (a closed loop with one client).  A check
returns the list of problems it found in the outputs; an empty list passes.

* ``phase-diagram``: the paper's headline output, a 77-cell mean-field
  phase diagram.  It never touches ``quantum`` beyond initial-state labels,
  and writes only ~11 KB.  The seed shifts the coupling grid by less than
  a tenth of a step; seed 0 runs the unshifted grid and is compared with a
  committed reference.
* ``finite-size``: the c10 ladder of exact quantum runs (dims 909, 2227 and
  4275, one per matvec and bounds path), its mean-field reference, and one
  ground-state run with adaptive n_max.  The only workload that drives
  ``quantum``; ``meanfield`` is ~1% of it.  It does not depend on the seed.
* ``trajectory-io``: one densely sampled mean-field trajectory written as
  CSV and as JSON, dominated by ``io`` and per-sample observables.  The seed
  perturbs the explicit initial state around the stationary circle; seed 0
  uses the ``stationary_circle`` preparation itself.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

NONZERO_THRESHOLD = 1e-3  # the phase-diagram region rule
REFERENCE_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_CSV = os.path.join(HERE, "reference", "phase_diagram_seed0.csv")

# Distance from the reference an integrator at the same rtol stays within:
# RK45 and DOP853 at rtol 1e-9, and both at 1e-12, differ from the
# reference by at most 7.9e-4 (final values) and 7.6e-5 (time averages).
FINAL_TOL = 5e-3
TIMEAVG_TOL = 5e-4
PARITY_DRIFT_TOL = 1e-10


@dataclass(frozen=True)
class Job:
    run_id: str
    argv: tuple[str, ...]  # rotdicke command line, subcommand first
    out: str
    cells: int  # protocol runs (sweep cells or single trajectories)
    rows: int  # data rows written
    steps: int  # time-grid steps advanced over all protocol runs


def _flags(**values) -> tuple[str, ...]:
    # --key=value: argparse would take a separate "-1e-05" for an option.
    out = []
    for key, value in values.items():
        text = value if isinstance(value, str) else str(value) if isinstance(value, int) else repr(float(value))
        out.append(f"--{key.replace('_', '-')}={text}")
    return tuple(out)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------- phase-diagram

PD_LAMBDA_MIN, PD_LAMBDA_STEP, PD_LAMBDA_COUNT = 0.3, 0.1, 11
PD_DPHI_MIN, PD_DPHI_STEP, PD_DPHI_COUNT = 0.5, 0.5, 7
PD_REVOLUTIONS, PD_SAMPLES, PD_RTOL = 5, 1200, 1e-9
# Seeds shift the coupling grid by at most a tenth of a step.  The work a
# diagram takes depends on where its cells sit: over offsets in [0, 0.01)
# the integrator's right-hand-side evaluations stay within 1% of seed 0's,
# where offsets up to a whole step moved them by 12% and so made the time
# depend on the seed.
PD_LAMBDA_JITTER = 0.01
PD_HEADER = [
    "lambda", "delta_phi",
    "mean_photon_scaled_final", "mean_photon_scaled_timeavg",
    "parity_final", "parity_timeavg",
    "lambda_c_rot", "lambda_c_dyn", "region", "error",
]


def _pd_lambda_min(seed: int) -> float:
    if seed == REFERENCE_SEED:
        return PD_LAMBDA_MIN
    return PD_LAMBDA_MIN + float(np.random.default_rng(seed).uniform(0.0, PD_LAMBDA_JITTER))


def phase_diagram_jobs(seed: int, out_dir: str) -> list[Job]:
    lo = _pd_lambda_min(seed)
    cells = PD_LAMBDA_COUNT * PD_DPHI_COUNT
    argv = ("phase-diagram",) + _flags(
        engine="meanfield",
        initial="nearly_fock",
        lambda_min=lo,
        lambda_max=lo + (PD_LAMBDA_COUNT - 1) * PD_LAMBDA_STEP,
        lambda_step=PD_LAMBDA_STEP,
        delta_phi_min=PD_DPHI_MIN,
        delta_phi_max=PD_DPHI_MIN + (PD_DPHI_COUNT - 1) * PD_DPHI_STEP,
        delta_phi_step=PD_DPHI_STEP,
        n_revolutions=PD_REVOLUTIONS,
        sample_count=PD_SAMPLES,
        rtol=PD_RTOL,
    )
    out = os.path.join(out_dir, "phase_diagram.csv")
    return [Job("phase-diagram", argv + ("--out", out), out, cells, cells, cells * (PD_SAMPLES - 1))]


def check_phase_diagram(jobs: list[Job], seed: int) -> list[str]:
    header, rows = read_csv(jobs[0].out)
    if header != PD_HEADER:
        return [f"phase-diagram header {header}"]
    if len(rows) != PD_LAMBDA_COUNT * PD_DPHI_COUNT:
        return [f"phase-diagram has {len(rows)} rows"]
    problems = []
    lo = _pd_lambda_min(seed)
    for i, row in enumerate(rows):
        rec = dict(zip(header, row))
        lam = lo + PD_LAMBDA_STEP * (i // PD_DPHI_COUNT)
        dphi = PD_DPHI_MIN + PD_DPHI_STEP * (i % PD_DPHI_COUNT)
        if abs(float(rec["lambda"]) - lam) > 1e-12 or abs(float(rec["delta_phi"]) - dphi) > 1e-12:
            problems.append(f"cell {i} at ({rec['lambda']}, {rec['delta_phi']}), expected ({lam}, {dphi})")
        if rec["error"]:
            problems.append(f"cell {i} failed: {rec['error']}")
            continue
        rule = "nonzero" if float(rec["mean_photon_scaled_timeavg"]) > NONZERO_THRESHOLD else "zero"
        if rec["region"] != rule:
            problems.append(f"cell {i} region {rec['region']!r}, threshold rule gives {rule!r}")
    if seed == REFERENCE_SEED and not problems:
        problems += _compare_reference(header, rows)
    return problems


def _compare_reference(header: list[str], rows: list[list[str]]) -> list[str]:
    _, ref_rows = read_csv(REFERENCE_CSV)
    tolerance = {"lambda": 1e-12, "delta_phi": 1e-12, "lambda_c_rot": 1e-12, "lambda_c_dyn": 1e-12}
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for name, value, expected in zip(header, row, ref):
            if name in ("region", "error"):
                ok = value == expected
            else:
                tol = tolerance.get(name, FINAL_TOL if name.endswith("_final") else TIMEAVG_TOL)
                ok = abs(float(value) - float(expected)) <= tol
            if not ok:
                problems.append(f"cell {i} {name} = {value}, reference {expected}")
    return problems


# ---------------------------------------------------------------- finite-size

FS_LAMBDA, FS_SAMPLES = 1.3, 100
FS_RUNGS = ((4, 100), (8, 130), (12, 170))  # (j, n_max): dims 909, 2227, 4275
FS_GROUND_J = 6
FS_GAP_LIMIT = 0.1


def finite_size_jobs(seed: int, out_dir: str) -> list[Job]:
    common = (f"--lambda={FS_LAMBDA!r}",) + _flags(
        sample_count=FS_SAMPLES, observables="mean_photon_scaled,parity"
    )
    specs = [("mf-j12", _flags(engine="meanfield", initial="stationary_dicke", j=12.0))]
    for j, n_max in FS_RUNGS:
        specs.append((f"q-j{j}", _flags(engine="quantum", initial="stationary_dicke", j=float(j), n_max=n_max)))
    specs.append((f"gs-j{FS_GROUND_J}", _flags(engine="quantum", initial="ground_state", j=float(FS_GROUND_J))))
    jobs = []
    for run_id, flags in specs:
        out = os.path.join(out_dir, f"{run_id}.csv")
        argv = ("trajectory",) + flags + common + ("--out", out)
        jobs.append(Job(run_id, argv, out, 1, FS_SAMPLES, FS_SAMPLES - 1))
    return jobs


def check_finite_size(jobs: list[Job], seed: int) -> list[str]:
    problems = []
    averages = {}
    for job in jobs:
        header, rows = read_csv(job.out)
        if header != ["t", "mean_photon_scaled", "parity"] or len(rows) != FS_SAMPLES:
            problems.append(f"{job.run_id}: header {header}, {len(rows)} rows")
            continue
        t, photons, parity = np.array(rows, dtype=float).T
        averages[job.run_id] = float(np.trapezoid(photons, t) / (t[-1] - t[0]))
        if job.run_id != "mf-j12":
            drift = float(np.max(np.abs(parity - parity[0])))
            if drift > PARITY_DRIFT_TOL:
                problems.append(f"{job.run_id}: parity drifts by {drift:.3e}")
    if problems:
        return problems
    gaps = [abs(averages[f"q-j{j}"] - averages["mf-j12"]) for j, _ in FS_RUNGS]
    if not (gaps[0] > gaps[1] > gaps[2] and gaps[2] < FS_GAP_LIMIT):
        problems.append(f"c10 gaps {gaps} are not decreasing to below {FS_GAP_LIMIT}")
    return problems


# ---------------------------------------------------------------- trajectory-io

TIO_LAMBDA, TIO_J, TIO_REVOLUTIONS, TIO_SAMPLES = 1.0, 1.0, 20, 100_000
TIO_OBSERVABLES = ("mean_photon_scaled", "parity", "scaled_parity")


def _tio_initial(seed: int) -> tuple[str, ...]:
    if seed == REFERENCE_SEED:
        return _flags(initial="stationary_circle")
    from rotdicke.model import ModelParams
    from rotdicke.quantum import initial_state_params

    alpha, zeta = initial_state_params(
        "stationary_circle", ModelParams(lam=TIO_LAMBDA, j=TIO_J, delta_phi=1.0)
    )
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
    return _flags(
        initial="explicit",
        alpha_re=alpha * (1.0 + 0.02 * u[0]),
        alpha_im=0.02 * float(u[1]),
        zeta_re=zeta * (1.0 + 0.02 * u[2]),
        zeta_im=0.02 * float(u[3]),
    )


def trajectory_io_jobs(seed: int, out_dir: str) -> list[Job]:
    flags = ("trajectory",) + _flags(
        engine="meanfield",
        j=TIO_J,
        n_revolutions=TIO_REVOLUTIONS,
        sample_count=TIO_SAMPLES,
        observables=",".join(TIO_OBSERVABLES),
    ) + (f"--lambda={TIO_LAMBDA!r}",) + _tio_initial(seed)
    jobs = []
    for fmt in ("csv", "json"):
        out = os.path.join(out_dir, f"trajectory.{fmt}")
        argv = flags + ("--format", fmt, "--out", out)
        jobs.append(Job(f"trajectory-{fmt}", argv, out, 1, TIO_SAMPLES, TIO_SAMPLES - 1))
    return jobs


def check_trajectory_io(jobs: list[Job], seed: int) -> list[str]:
    from rotdicke.io import emit, load_result_json

    csv_job, json_job = jobs
    header, rows = read_csv(csv_job.out)
    if header != ["t", *TIO_OBSERVABLES] or len(rows) != TIO_SAMPLES:
        return [f"trajectory csv: header {header}, {len(rows)} rows"]
    with open(json_job.out, encoding="utf-8") as fh:
        payload = json.load(fh)
    raw = payload["result"]
    from_csv = np.array(rows, dtype=float).T  # float() of 17 digits is exact
    problems = []
    for name, column in zip(header, from_csv):
        expected = raw["times"] if name == "t" else raw["data"][name]
        if not np.array_equal(column, np.array(expected)):
            problems.append(f"csv column {name} does not reparse to the json doubles")
    loaded = load_result_json(json_job.out)
    if not np.array_equal(loaded.times, np.array(raw["times"])) or any(
        not np.array_equal(loaded.data[k], np.array(v)) for k, v in raw["data"].items()
    ):
        problems.append("load_result_json does not return the json doubles")
    again = json_job.out + ".again"
    emit(loaded, "json", again, config=payload["config"])
    with open(again, "rb") as a, open(json_job.out, "rb") as b:
        if a.read() != b.read():
            problems.append("json -> load_result_json -> emit does not reproduce the bytes")
    os.remove(again)
    return problems


# Workloads whose wall and compute times are taken at the machine's
# reference speed (see ``run.spawn_all``); set-up times always are.  The
# mean-field and io workloads are interpreter-bound and slow with the
# reference kernel when the vCPU runs slow; finite-size is bound by BLAS and
# memory, slows much less, and is timed as measured: its measured times
# spread by 3% over five seeds, calibrated ones by 11%.
CALIBRATED = {"phase-diagram", "trajectory-io"}

WORKLOADS = {
    "phase-diagram": (phase_diagram_jobs, check_phase_diagram),
    "finite-size": (finite_size_jobs, check_finite_size),
    "trajectory-io": (trajectory_io_jobs, check_trajectory_io),
}

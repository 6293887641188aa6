"""Self-test of the benchmark: the trace is complete and every metric is reported.

    PYTHONPATH=src python3 -m pytest -q perfbench

A refactor that rebinds a traced name must not drop spans silently: each
quantum run records ``sample_count - 1`` Chebyshev-step spans, each sweep one
``run_protocol`` span per cell, and a run reports every metric that
``BENCHMARK.json`` lists.  Takes about half a minute; not part of the
repository's own test suite.
"""

import json
import math
import os
import sys
import time

import pytest

import run

sys.path.insert(0, run.SRC)

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

OUT = os.path.join(run.OUT, "selftest")
QUANTUM_SAMPLES = 21
LAMBDAS, VELOCITIES = (0.5, 1.0), (1.0, 2.0, 3.0)


def _jobs() -> list[Job]:
    quantum = os.path.join(OUT, "quantum.csv")
    sweep = os.path.join(OUT, "sweep.csv")
    cells = len(LAMBDAS) * len(VELOCITIES)
    return [
        Job(
            "quantum",
            ("trajectory", "--engine", "quantum", "--initial", "stationary_dicke", "--lambda", "1.3",
             "--j", "1.0", "--n-max", "40", "--sample-count", str(QUANTUM_SAMPLES), "--out", quantum),
            quantum, 1, QUANTUM_SAMPLES, QUANTUM_SAMPLES - 1,
        ),
        Job(
            "sweep",
            ("phase-diagram", "--engine", "meanfield", "--initial", "nearly_fock",
             "--lambda-min", "0.5", "--lambda-max", "1.0", "--lambda-step", "0.5",
             "--delta-phi-min", "1.0", "--delta-phi-max", "3.0", "--delta-phi-step", "1.0",
             "--n-revolutions", "1", "--sample-count", "50", "--out", sweep),
            sweep, cells, cells, cells * 49,
        ),
    ]


@pytest.fixture(scope="module")
def traced():
    os.makedirs(OUT, exist_ok=True)
    jobs = _jobs()
    deadline = time.monotonic() + 120.0
    results = {job.run_id: run.spawn(job, "trace", OUT, deadline) for job in jobs}
    assert all(r["code"] == 0 for r in results.values())
    return results


def _names(spans, name):
    return [s for s in spans if s["name"] == name]


def test_quantum_run_records_one_chebyshev_step_span_per_interval(traced):
    spans = traced["quantum"]["spans"]
    assert len(_names(spans, "quantum.chebyshev_step")) == QUANTUM_SAMPLES - 1
    assert len(_names(spans, "quantum.evolve")) == 1
    assert {s["run"] for s in spans} == {"quantum"}


def test_sweep_records_one_run_protocol_span_per_cell(traced):
    assert len(_names(traced["sweep"]["spans"], "experiments.run_protocol")) == len(LAMBDAS) * len(VELOCITIES)
    # A trajectory reaches run_protocol through the name bound in rotdicke.cli.
    assert len(_names(traced["quantum"]["spans"], "experiments.run_protocol")) == 1


def test_self_times_add_up_to_the_root_span(traced):
    for result in traced.values():
        spans = result["spans"]
        roots = [i for i, s in enumerate(spans) if s["parent"] is None]
        assert [spans[i]["name"] for i in roots] == ["cli.main"]
        selfs = tracer.self_times(spans)
        assert all(t >= 0.0 for t in selfs)
        assert math.isclose(sum(selfs), tracer.durations(spans)[roots[0]], rel_tol=1e-9)


def test_every_listed_metric_is_reported(monkeypatch):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", (lambda seed, out_dir: _jobs(), lambda jobs, seed: []))
    monkeypatch.setattr(workloads, "CALIBRATED", {"tiny"})
    deadline = time.monotonic() + 170.0

    ok, attempted, failed, metrics, _ = run.measure("tiny", 0, 0.1, OUT, deadline)
    assert ok and (attempted, failed) == (1 + len(LAMBDAS) * len(VELOCITIES), 0)
    assert set(metrics) == {m["name"] for m in listed["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())

    ok, _, _, metrics, _ = run.measure_traced("tiny", 0, OUT, deadline)
    assert ok
    assert set(metrics) == {m["name"] for m in listed["per_layer"]}
    units = {m["name"]: m["unit"] for m in listed["per_layer"]}
    assert all(metrics[name]["unit"] == unit for name, unit in units.items())

"""rotdicke benchmark: three workloads through the ``rotdicke`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
``src/rotdicke`` there, and outputs go to ``.bench_out/``.  NAME is one of
``phase-diagram``, ``finite-size`` and ``trajectory-io`` (see
``workloads.py``).  Each CLI run starts in a fresh child process, one after
another (closed loop, one client), on the same single CPU as the harness,
with BLAS pinned to one thread.

``--trace 0`` repeats the workload for about S seconds, checks the outputs
and reports the end-to-end metrics over the repetitions (see ``end_to_end``).
``--trace 1`` runs the workload once untraced and once with spans around the
public functions of every layer, times each layer alone (``micro.py``), and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is the result as one JSON object; the line before it
records the machine and the samples behind every metric.  The exit code is
0 when every output checked out, 1 when one did not, and 2 when the
sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CPU = min(os.sched_getaffinity(0))  # the harness and every child run on this CPU alone
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 7
RUN_DEADLINE_S = 170.0
# The reference kernel: KERNEL_N rounds of a pure-Python loop.  It takes
# KERNEL_REFERENCE_S at the fast level of the 2-core KVM machine (Xeon,
# 2.1 GHz) the benchmark was written on, and up to 1.7x as long there when
# the vCPU runs slow (see ``spawn_all``).
KERNEL_N = 2_000_000
KERNEL_REFERENCE_S = 0.12


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, HERE, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job, mode: str, out_dir: str, deadline: float) -> dict:
    """Run one job in a fresh process; return its timings, exit code and spans.

    ``wall`` runs from just before the process is started until it is
    reaped, ``setup`` from the same start until ``parse_config`` returned.
    """
    record_path = os.path.join(out_dir, f"{job.run_id}.{mode}.record.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), record_path, mode, job.run_id, *job.argv]
    with open(os.path.join(out_dir, f"{job.run_id}.stderr"), "w", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT
        )
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"run_id": job.run_id, "code": proc.returncode, "wall": end - start, "maxrss_mb": usage.ru_maxrss / 1024.0}
    try:
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        result["code"] = result["code"] or -1
        return result
    if record["parsed"] is not None:
        result["import"] = record["imported"] - start
        result["setup"] = record["parsed"] - start
        result["compute"] = record["end"] - record["parsed"]
    result["spans"] = record["spans"]
    return result


def kernel_s() -> float:
    """Seconds the reference kernel takes now, on this process's CPU."""
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_N):
        total += i * i
    return time.perf_counter() - start


def spawn_all(jobs, mode: str, out_dir: str, deadline: float) -> list[dict]:
    """Spawn the jobs one after another, timing the reference kernel before
    each and after the last.

    Each result gets ``speed``: ``KERNEL_REFERENCE_S`` over the mean of the
    kernel times on either side of the job's run.  On a shared virtual
    machine the vCPU runs up to 1.7x slower for stretches of seconds to
    minutes, and interpreter-bound code slows with the kernel; its time
    multiplied by ``speed`` is the time at the machine's reference speed.
    """
    kernels = [kernel_s()]
    results = []
    for job in jobs:
        results.append(spawn(job, mode, out_dir, deadline))
        kernels.append(kernel_s())
    for result, before, after in zip(results, kernels, kernels[1:]):
        result["speed"] = 2.0 * KERNEL_REFERENCE_S / (before + after)
    return results


def digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        with open(job.out, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def run_iteration(jobs, mode: str, out_dir: str, deadline: float) -> tuple[list[dict], str | None]:
    results = spawn_all(jobs, mode, out_dir, deadline)
    if any(r["code"] != 0 for r in results):
        return results, None
    return results, digest(jobs)


def check(workload: str, jobs, seed: int, iterations, digests, out_dir: str) -> list[str]:
    import workloads

    problems = []
    for results in iterations:
        for r in results:
            if r["code"] != 0:
                with open(os.path.join(out_dir, f"{r['run_id']}.stderr"), encoding="utf-8") as fh:
                    tail = fh.read().strip().splitlines()[-1:]
                problems.append(f"{r['run_id']} exited with {r['code']}: {' '.join(tail)}")
    if problems:
        return problems
    if len(set(digests)) != 1:
        return ["identical commands wrote different bytes across repetitions"]
    try:
        problems += workloads.WORKLOADS[workload][1](jobs, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"outputs unreadable: {exc!r}")
    return problems


def error_cells(jobs) -> int:
    import workloads

    count = 0
    for job in jobs:
        if job.cells > 1:
            header, rows = workloads.read_csv(job.out)
            count += sum(1 for row in rows if row[header.index("error")])
    return count


def failures(jobs, iterations) -> tuple[int, int]:
    """Protocol runs attempted, and those that failed: error cells and runs
    of a command that exited non-zero."""
    attempted = failed = 0
    for results in iterations:
        for job, r in zip(jobs, results):
            attempted += job.cells
            failed += job.cells if r["code"] != 0 else 0
    if failed == 0:
        failed = error_cells(jobs) * len(iterations)
    return attempted, failed


def end_to_end(jobs, iterations, setups, calibrate: bool) -> tuple[dict, dict]:
    """End-to-end metrics of a run, and the samples behind them.

    ``wall_s`` and the throughputs are totals over every repetition of the
    run: wall time per repetition, and work done per second of child time
    after set-up.  With ``calibrate`` they are taken at the machine's
    reference speed: each child's times are multiplied by its ``speed``
    (see ``spawn_all``).  ``setup_s``, always taken at the reference speed,
    and ``peak_rss_mb`` are medians.
    """
    def timed(r, key):
        return r[key] * r["speed"] if calibrate else r[key]

    walls = [sum(timed(r, "wall") for r in results) for results in iterations]
    computes = [sum(timed(r, "compute") for r in results) for results in iterations]
    rss = [max(r["maxrss_mb"] for r in results) for results in iterations]
    work = {name: sum(getattr(job, name) for job in jobs) for name in ("cells", "rows", "steps")}
    values = {
        "wall_s": ("s", sum(walls) / len(walls)),
        "setup_s": ("s", statistics.median(setups)),
        "peak_rss_mb": ("MB", statistics.median(rss)),
    }
    for name, count in work.items():
        values[f"{name}_per_s"] = ("1/s", count * len(computes) / sum(computes))
    metrics = {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}
    samples = {"wall_s": walls, "compute_s": computes, "setup_s": setups, "peak_rss_mb": rss}
    samples["measured_wall_s"] = [sum(r["wall"] for r in results) for results in iterations]
    samples["speed"] = [[r["speed"] for r in results] for results in iterations]
    samples["job_wall_s"] = {job.run_id: [results[k]["wall"] for results in iterations] for k, job in enumerate(jobs)}
    return metrics, {"work_per_repetition": work, "samples": samples}


def layer_metrics(jobs, results) -> dict[str, tuple[str, float]]:
    """Per-layer metrics of one traced repetition, from its spans."""
    import numpy
    import tracer

    spans, selfs = [], []
    for r in results:
        spans += r["spans"]
        selfs += tracer.self_times(r["spans"])
    durations = tracer.durations(spans)

    def named(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name, of=durations):
        return sum(of[i] for i in named(name))

    def largest(name, key):
        return max((spans[i][key] for i in named(name)), default=0)

    # quantum is left out: its self time reads exactly 0 on the workloads that
    # bypass it; the layer-alone timings measure it on every workload.
    out = {
        f"{layer}.self_s": ("s", sum(t for s, t in zip(spans, selfs) if s["name"].startswith(layer + ".")))
        for layer in ("cli", "io", "experiments", "meanfield")
    }
    out["cli.import_s"] = ("s", sum(r["import"] for r in results))
    out["cli.parse_config_s"] = ("s", total("cli.parse_config"))
    out["cli.main_self_s"] = ("s", total("cli.main", selfs))
    emit_s = total("io.emit")
    emit_bytes = sum(os.path.getsize(job.out) for job in jobs)
    out["io.emit_s"] = ("s", emit_s)
    out["io.emit_bytes"] = ("B", emit_bytes)
    out["io.emit_bytes_per_s"] = ("B/s", emit_bytes / emit_s)
    cells = [durations[i] for i in named("experiments.run_protocol")]
    out["experiments.run_protocol_calls"] = ("count", len(cells))
    out["experiments.run_protocol_self_s"] = ("s", total("experiments.run_protocol", selfs))
    out["experiments.cell_s_p50"] = ("s", float(numpy.percentile(cells, 50)))
    out["experiments.cell_s_p90"] = ("s", float(numpy.percentile(cells, 90)))
    out["experiments.cell_s_max"] = ("s", max(cells))
    adaptive = [spans[i]["n_max"] for i in named("experiments.resolve_n_max") if spans[i]["adaptive"]]
    out["experiments.n_max"] = ("count", max(adaptive, default=0))
    integrate_s = total("meanfield.integrate")
    out["meanfield.integrate_calls"] = ("count", len(named("meanfield.integrate")))
    out["meanfield.integrate_s"] = ("s", integrate_s)
    out["meanfield.sim_time_per_s"] = ("t/s", sum(spans[i]["t_end"] for i in named("meanfield.integrate")) / integrate_s)
    steps = named("quantum.chebyshev_step")
    out["quantum.chebyshev_steps"] = ("count", len(steps))
    out["quantum.matvecs"] = ("count", sum(spans[i]["order"] for i in steps))
    out["quantum.chebyshev_order"] = ("count", largest("quantum.chebyshev_step", "order"))
    out["quantum.spectral_span"] = ("1", float(largest("quantum.spectral_bounds", "span")))
    out["quantum.operator_bytes"] = ("B", largest("quantum.build_operators", "operator_bytes"))
    out["quantum.ground_state_calls"] = ("count", len(named("quantum.ground_state")))
    out["trace.spans"] = ("count", len(spans))
    return out


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": CPU,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(),
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, out_dir: str, deadline: float) -> tuple[bool, int, int, dict, dict]:
    import workloads

    jobs = workloads.WORKLOADS[workload][0](seed, out_dir)
    iterations, digests = [], []
    begin = time.monotonic()
    while True:
        results, output_digest = run_iteration(jobs, "run", out_dir, deadline)
        iterations.append(results)
        digests.append(output_digest)
        elapsed = time.monotonic() - begin
        if output_digest is None or elapsed + 0.5 * (elapsed / len(iterations)) >= seconds:
            break
    problems = check(workload, jobs, seed, iterations, digests, out_dir)
    attempted, failed = failures(jobs, iterations)
    if problems:
        return False, attempted, failed, {}, {"problems": problems}
    setups = [r["setup"] * r["speed"] for results in iterations for r in results]
    while len(setups) < MIN_SETUPS:
        [probe] = spawn_all(jobs[:1], "setup", out_dir, deadline)
        if probe["code"] != 0 or "setup" not in probe:
            return False, attempted, failed, {}, {"problems": ["set-up probe failed"]}
        setups.append(probe["setup"] * probe["speed"])
    metrics, details = end_to_end(jobs, iterations, setups, workload in workloads.CALIBRATED)
    details["repetitions"] = len(iterations)
    return True, attempted, failed, metrics, details


def measure_traced(workload: str, seed: int, out_dir: str, deadline: float) -> tuple[bool, int, int, dict, dict]:
    import micro
    import workloads

    jobs = workloads.WORKLOADS[workload][0](seed, out_dir)
    plain, plain_digest = run_iteration(jobs, "run", out_dir, deadline)
    traced, traced_digest = run_iteration(jobs, "trace", out_dir, deadline)
    iterations = [plain, traced]
    problems = check(workload, jobs, seed, iterations, [plain_digest, traced_digest], out_dir)
    attempted, failed = failures(jobs, iterations)
    if problems:
        return False, attempted, failed, {}, {"problems": problems}
    with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump([s for r in traced for s in r["spans"]], fh)
    values = layer_metrics(jobs, traced)
    wall_plain = sum(r["wall"] for r in plain)
    wall_traced = sum(r["wall"] for r in traced)
    values["trace.wall_untraced_s"] = ("s", wall_plain)
    values["trace.wall_traced_s"] = ("s", wall_traced)
    values["trace.overhead_pct"] = ("%", 100.0 * (wall_traced - wall_plain) / wall_plain)
    for name, value in micro.all_metrics(out_dir).items():
        values[name] = ("us" if "_us" in name else "s", value)
    metrics = {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}
    return True, attempted, failed, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("phase-diagram", "finite-size", "trajectory-io"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "rotdicke", "__init__.py")):
        print(f"error: no rotdicke sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {CPU})  # children inherit it
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})  # before numpy loads
    sys.path.insert(0, SRC)
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        ok, attempted, failed, metrics, details = measure_traced(args.workload, args.seed, out_dir, deadline)
    else:
        ok, attempted, failed, metrics, details = measure(args.workload, args.seed, args.seconds, out_dir, deadline)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine(), **details}
    print("# " + json.dumps(details))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

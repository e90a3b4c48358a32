"""Runs one workload's job cycle against ``musielak.cli.main`` in this process.

One client, closed loop: each job starts when the previous one and its output
check are done.  The run repeats whole cycles of the job list until the next
cycle would end past SECONDS, and runs at least MIN_CYCLES of them, so every
job is timed several times.  The host-speed probe runs before every job,
outside the job's time.

Untraced mode times every job.  Traced mode runs one warm-up cycle, then
each cycle untraced and again with every layer wrapped, and reports the
per-layer metrics of one traced cycle (totals divided by the traced cycles)
and the tracing overhead per cycle: traced minus untraced wall time.

Usage: python3 worker.py WORKDIR SECONDS TRACE
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import hostspeed
import layers


# ---------------------------------------------------------------------------
# Output checks: True when the job's outputs are right
# ---------------------------------------------------------------------------

def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_solve(job, out):
    conv = _read_json(out / "convergence.json")
    ok = conv["converged"] and conv["weak_residual"] <= job["check"]["grad_tol"]
    if "iterations" in job["check"]:
        ok = ok and conv["iterations"] == job["check"]["iterations"]
    return ok


def _check_bound(job, out):
    return _read_json(out / "bound_check.json")["pass"] is True


# The table solves the inverse to 1e-10; the conjugate then carries at most
# p* < 10 times that relative error.
CLOSED_FORM_RTOL = 1e-8


def _check_conjugate(job, out):
    with open(out / "conjugate_table.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    spec = job["check"]
    if len(rows) != spec["nodes"] * spec["t"]:
        return False
    field = _read_json(job["input"])["field"]
    N = field["N"]
    for row in rows:
        x, t, h = int(row[0]), float(row[1]), float(row[2])
        if not all(math.isfinite(float(v)) for v in row[1:]):
            return False
        if spec["closed_form"] and field["mu"][x] == 0.0:
            p = field["p"][x]
            p_star = N * p / (N - p)
            ref = (t / p_star) ** p_star
            if abs(h - ref) > CLOSED_FORM_RTOL * max(1.0, ref):
                return False
    return True


def _check_validate(job, out):
    return _read_json(out / "report.json")["passed"] is True


def _check_recursion(job, out):
    rec = _read_json(out / "recursion.json")
    return not rec["diverged"] and rec["Z"][-1] < rec["Z"][0]


def _check_norm(job, out):
    res = _read_json(out / "norm.json")
    return abs(res["modular_at_value"] - 1.0) <= job["check"]["tol"]


def _check_embed(job, out):
    with open(out / "embed_scan.csv", newline="", encoding="utf-8") as fh:
        rows = {r[0]: r[1:] for r in csv.reader(fh)}
    rows = {k: [float(v) for v in vals] for k, vals in rows.items() if k != "lambda"}
    # The CLI's own acceptance rule for a fitted slope.
    return all(
        res <= 0.05 and abs(fit - pred) <= max(0.02, 0.02 * abs(pred))
        for fit, pred, res in zip(rows["fitted_slope"], rows["predicted_slope"], rows["residual"])
    )


CHECKS = {
    "exit": lambda job, out: True,
    "solve": _check_solve,
    "bound": _check_bound,
    "conjugate": _check_conjugate,
    "validate": _check_validate,
    "recursion": _check_recursion,
    "norm": _check_norm,
    "embed": _check_embed,
}


# ---------------------------------------------------------------------------
# The client loop
# ---------------------------------------------------------------------------

def _run_job(cli, job, log, tracer=None):
    out = Path(job["output"])
    shutil.rmtree(out, ignore_errors=True)
    argv = [job["command"], "--input", job["input"], "--output", str(out)]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(log):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        print(f"{job['name']}: {type(exc).__name__}: {exc}", file=log)
        code = "crash"
    latency = time.perf_counter() - start
    ok = code == job["expect"]
    if ok and code == 0:
        try:
            ok = bool(CHECKS[job["check"]["kind"]](job, out))
        except (OSError, KeyError, ValueError, IndexError) as exc:
            print(f"{job['name']}: check error {exc!r}", file=log)
            ok = False
    if tracer is not None and job["command"] == "conjugate-table" and code == 0:
        with open(out / "conjugate_table.csv", encoding="utf-8") as fh:
            tracer.add("conjugate.rows_written", sum(1 for _ in fh) - 1)
    return {"name": job["name"], "command": job["command"], "latency": latency,
            "code": code, "expect": job["expect"], "ok": ok}


# Each job is timed at least this many times, so the median over cycles
# leaves out the first, cold one.
MIN_CYCLES = 3


def _cycles(cli, jobs, log, seconds, tracer=None):
    """Run whole cycles of the job list for about ``seconds``.

    With a tracer, one discarded warm-up cycle comes first and then each cycle
    runs twice, untraced and traced, so drift and first-call costs do not
    bias the overhead.  Each record carries its cycle and the host-speed
    probe timed just before the job.  Returns (records, cycles, untraced wall
    s, traced wall s).
    """
    records = []
    walls = [0.0, 0.0]
    start = time.perf_counter()
    if tracer is not None:
        for job in jobs:
            _run_job(cli, job, log)
    cycles = 0
    while True:
        for traced in ((False, True) if tracer is not None else (False,)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                for job in jobs:
                    probe_s = hostspeed.probe()
                    record = _run_job(cli, job, log, tracer if traced else None)
                    records.append(dict(record, cycle=cycles, probe_s=probe_s))
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced] += time.perf_counter() - t0
        cycles += 1
        elapsed = time.perf_counter() - start
        # Stop when one more cycle, as long as the mean one so far, would overrun.
        enough = cycles >= (MIN_CYCLES if tracer is None else 1)
        if enough and elapsed * (cycles + 1) / cycles > seconds:
            return records, cycles, walls[0], walls[1]


def _environment(np_mod, scipy_mod):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np_mod.__version__,
        "scipy": scipy_mod.__version__,
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "MUSIELAK_THREADS": os.environ.get("MUSIELAK_THREADS"),
    }


def main(argv):
    workdir, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    os.chdir(workdir)
    cli = importlib.import_module("musielak.cli")
    import numpy
    import scipy

    with open("jobs.json", encoding="utf-8") as fh:
        jobs = json.load(fh)
    result = {"env": _environment(numpy, scipy)}
    with open("cli-stderr.log", "w", encoding="utf-8") as log:
        tracer = layers.Tracer() if trace else None
        records, cycles, wall, traced_wall = _cycles(cli, jobs, log, seconds, tracer)
        if trace:
            result["layers"] = tracer.metrics(traced_wall - wall, cycles)
    result.update(records=records, cycles=cycles, wall_s=wall,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

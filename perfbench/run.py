"""Benchmark of the musielak CLI: one command, one workload, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice-solve --seed 1 --seconds 36 --trace 0

It writes the workload's seeded inputs under ``.perfbench/``, measures the
set-up time (importing ``musielak.cli`` with numpy and scipy in a fresh
interpreter, several times), then runs whole cycles of the workload's job
list for about ``--seconds`` in a fresh worker process with single-threaded
BLAS and ``MUSIELAK_THREADS`` unset.  Each job is one ``musielak.cli.main``
call whose exit code and outputs are checked.

Times are reported at reference speed (see ``hostspeed.py``): each is
divided by the time of a fixed reference kernel timed next to it, so a
change of the shared host's speed does not read as a change of the program.
Each job's latency is its median over the run's cycles.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is the result object; the line before it holds the machine
and environment stamp, the failing jobs by name, the failed fraction and
per-subcommand median latencies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 160
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("MUSIELAK_THREADS", None)
    env.update({name: "1" for name in _BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    return env


def measure_setup(env) -> list:
    """Set-up times at reference speed: importing musielak.cli in fresh
    interpreters, each converted with host-speed probes timed right after the
    import.  The first (byte-compiling) import is discarded."""
    code = ("import time; t = time.perf_counter(); import musielak.cli; "
            "dt = time.perf_counter() - t; import statistics, sys; "
            f"sys.path.insert(0, {str(HERE)!r}); import hostspeed; "
            f"print(dt, statistics.median(hostspeed.probe() for _ in range({SETUP_PROBES})))")
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=SETUP_TIMEOUT_S)
        samples.append(hostspeed.at_reference_speed(*map(float, out.stdout.split())))
    return samples[1:]


def job_latencies(records):
    """Each job's latency at reference speed: every latency is converted with
    the median probe of its cycle, then each job keeps its median over the
    run's cycles.  Returns {job name: seconds} in job-list order."""
    probes = {}
    for r in records:
        probes.setdefault(r["cycle"], []).append(r["probe_s"])
    speed = {c: statistics.median(v) for c, v in probes.items()}
    per_job = {}
    for r in records:
        per_job.setdefault(r["name"], []).append(
            hostspeed.at_reference_speed(r["latency"], speed[r["cycle"]]))
    return {name: statistics.median(v) for name, v in per_job.items()}


def end_to_end(result, setup):
    jobs = job_latencies(result["records"])
    lat = list(jobs.values())
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": max(lat),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    by_command = {}
    for r in result["records"]:
        by_command.setdefault(r["command"], []).append(jobs[r["name"]])
    probes = [r["probe_s"] for r in result["records"]]
    info = {
        "subcommand_p50_s": {c: statistics.median(v) for c, v in sorted(by_command.items())},
        "job_tail": f"p100 of {len(lat)} jobs per cycle: {max(jobs, key=jobs.get)}",
        "jobs": len(result["records"]),
        "setup_samples_s": setup,
        "probe_s": {"median": statistics.median(probes), "min": min(probes), "max": max(probes)},
        "raw_job_p50_s": statistics.median(r["latency"] for r in result["records"]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "musielak" / "cli.py").is_file():
        print(f"error: no musielak sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2

    # One work directory per workload, replaced by each run, bounds the disk use.
    work = root / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.generate(args.workload, args.seed, work)
    with open(work / "jobs.json", "w", encoding="utf-8") as fh:
        json.dump(jobs, fh, indent=1)

    env = child_env(src)
    try:
        setup = None if args.trace else measure_setup(env)
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(work), str(args.seconds),
                        str(args.trace)], env=env, cwd=work, check=True, timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(work / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)

    records = result["records"]
    failed = [r for r in records if not r["ok"]]
    computed = [r for r in records if r["expect"] == workloads.EXIT_OK]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": result["env"],
        "cycles": result["cycles"],
        "failed_frac": len(failed) / len(records),
        "failed_jobs": sorted({f"{r['name']} (exit {r['code']}, expected {r['expect']})"
                               for r in failed}),
    }
    if args.trace:
        metrics = result["layers"]
    else:
        metrics, extra = end_to_end(result, setup)
        info.update(extra)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        # Jobs that run a computation must produce verified outputs; the
        # reject-path jobs (expected exit 2) test the input contract and
        # count in "failed" only.
        "correct": all(r["ok"] for r in computed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""superlie benchmark: run one workload as a closed loop and print metrics.

    python3 perfbench/run.py --workload census-sl --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; superlie is imported from its ``src``.  The
workload's jobs (see ``workloads.py``) run one after another in this process,
and every output is checked.

--trace 0  repeats passes over the jobs while another pass fits in
           ``--seconds`` (at least three) and reports the end-to-end metrics:
           setup_s    set-up time at the reference host speed: the median
                      over 9 child processes, each timed from spawn until
                      superlie is imported and the jobs are made, of the
                      time divided by the reference loop's time around it,
                      times REF_NOMINAL_S,
           wall_ref_s seconds of a typical pass at the reference host
                      speed: the sum over jobs of the median of each job's
                      time divided by the reference loop's time around it
                      (``reference.py``), times REF_NOMINAL_S.  Medians keep
                      a burst of load elsewhere on the host to single
                      samples; the division takes out the host's slower
                      drift, which moves the loop and the jobs alike.  The
                      pass and set-up times as measured are printed too.
           peak_rss_mb  peak resident memory of this process.
--trace 1  runs one untraced and one traced pass and reports the per-layer
           metrics of ``spans.py``; the spans are written to
           ``.bench_out/trace-<workload>-seed<seed>.json``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; failed / attempted is the share of
jobs whose check failed or that raised.  The exit code is 0 when every job
passed, 1 when one failed, and 2 when set-up failed, without a result line.
One workload runs per process because peak memory is a per-process figure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Tuple

# One BLAS thread: on two cores OpenBLAS threads spin on the small products
# in play, which made wall time depend on whatever else ran on the other
# core.  Set before numpy is imported; set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

OUT = wl.ROOT / ".bench_out"
SETUP_PROBES = 9
MIN_PASSES = 3


def run_job(job, seed: int) -> Tuple[float, bool]:
    """Run one job and check its output: (seconds, True when it passed).
    The time covers the job alone, not its check."""
    if job.report_path is not None:
        job.report_path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        rc, out = job.run(seed)
        dt = time.perf_counter() - t0
        problems = job.check(rc, out, wl.read_report(job))
    except Exception:  # a job that raises counts as failed; the loop goes on
        dt = time.perf_counter() - t0
        problems = [traceback.format_exc()]
    for p in problems:
        print(f"FAIL {job.label} (seed {seed}): {p}", file=sys.stderr)
    return dt, not problems


def run_pass(jobs, seed: int):
    """(seconds of each job, failed jobs) of one pass over the jobs."""
    times, failed = [], 0
    for job in jobs:
        dt, ok = run_job(job, seed)
        times.append(dt)
        failed += not ok
    return times, failed


def setup_seconds(workload: str, seed: int):
    """Set-up time: SETUP_PROBES fresh interpreters, each timed from spawn
    until it has imported superlie and made the workload's jobs, with the
    reference loop run before each probe and after the last.  Returns the
    median probe time as measured, and the median of each probe's time
    divided by the mean of the two reference times around it."""
    times, ratios = [], []
    ref_before = reference.reference_seconds()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "workloads.py"), workload,
                 str(seed)], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            rc = proc.wait(timeout=60)
        if rc != 0 or line != "ready\n":
            raise wl.SetupError(f"set-up probe exited {rc}: {line!r}")
        ref_after = reference.reference_seconds()
        times.append(dt)
        ratios.append(dt / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return statistics.median(times), statistics.median(ratios)


def environment(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def measure(args, jobs):
    """The untraced loop: passes while another one fits in the budget, at
    least MIN_PASSES.  Pass r runs every job with seed ``--seed`` + r.  The
    reference loop runs before each job and after the last one; each job's
    time is also kept divided by the mean of the two reference times around
    it.  Returns each job's times and ratios, jobs attempted and failed."""
    times = [[] for _ in jobs]
    ratios = [[] for _ in jobs]
    attempted = failed = 0
    start = time.perf_counter()
    ref_before = reference.reference_seconds()
    while True:
        seed = args.seed + len(times[0])
        for job, t, q in zip(jobs, times, ratios):
            dt, ok = run_job(job, seed)
            ref_after = reference.reference_seconds()
            t.append(dt)
            q.append(dt / ((ref_before + ref_after) / 2))
            ref_before = ref_after
            failed += not ok
        attempted += len(jobs)
        spent = time.perf_counter() - start
        if (len(times[0]) >= MIN_PASSES
                and spent + typical_pass(times) > args.seconds):
            return times, ratios, attempted, failed


def typical_pass(times) -> float:
    """A typical pass: the sum over jobs of each job's median."""
    return sum(statistics.median(t) for t in times)


def traced(args, mods, jobs, env):
    """One untraced and one traced pass, both with seed ``--seed``;
    per-layer metrics."""
    plain, failed = run_pass(jobs, args.seed)
    rec = spans.Recorder()
    rec.install(mods)
    try:
        traced_times, f = run_pass(jobs, args.seed)
    finally:
        rec.uninstall()
    plain_s, traced_s = sum(plain), sum(traced_times)
    metrics = rec.metrics()
    stages = {}
    for job in jobs:
        report = wl.read_report(job)
        if report:
            stages = report["seconds"]
    for st in spans.BRJ_STAGES:
        metrics[f"brj.stage.{st}.s"] = stages.get(st, 0.0)
    metrics["trace.overhead_s"] = traced_s - plain_s
    rec.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", env)
    print(f"{args.workload} pass untraced {plain_s:.4f} s, "
          f"traced {traced_s:.4f} s, {len(rec.spans)} spans")
    return metrics, 2 * len(jobs), failed + f


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    try:
        mods = wl.import_superlie()
        setup = None if args.trace else setup_seconds(args.workload,
                                                      args.seed)
    except (ImportError, wl.SetupError) as e:
        print(f"set-up failed: {e}", file=sys.stderr)
        return 2
    env = environment(args)
    print("env: " + json.dumps(env))

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        jobs = wl.make_jobs(args.workload, args.seed, mods, Path(tmp))
        if args.trace:
            metrics, attempted, failed = traced(args, mods, jobs, env)
            units = spans.metric_units()
        else:
            times, ratios, attempted, failed = measure(args, jobs)
            metrics = {
                "setup_s": reference.REF_NOMINAL_S * setup[1],
                "wall_ref_s": reference.REF_NOMINAL_S * typical_pass(ratios),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            units = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
            print(f"{args.workload} passes {len(times[0])}: "
                  + " ".join(f"{sum(p):.4f}" for p in zip(*times)) + " s")
            print(f"{args.workload} as measured, not scaled: set-up "
                  f"{setup[0]} s, wall_s {typical_pass(times)} s")

    for name, value in metrics.items():
        print(f"{args.workload} {name} {value} {units[name]}")
    print(f"{args.workload} failed_frac {failed / attempted} "
          f"({failed}/{attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

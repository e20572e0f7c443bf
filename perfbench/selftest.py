"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

1. ``BENCHMARK.json`` names exactly the workloads and metrics that
   ``run.py`` reports, with the same units.
2. Two traced runs on one seed, each in a fresh process, give identical
   call counts and work counts for every layer.
3. A deliberately wrong expected verdict makes ``run.py`` report the job as
   failed and exit 1.

Exits 0 when all hold.  A traced run takes two passes over the workload's
jobs and the failing run three, so the whole test takes about two minutes on
two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def check_manifest() -> list:
    with open(wl.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(wl.WORKLOADS):
        problems.append(f"workloads {names} != {sorted(wl.WORKLOADS)}")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}:
        problems.append(f"end_to_end {e2e}")
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if layer != spans.metric_units():
        problems.append("per_layer differs from spans.metric_units(): "
                        f"{sorted(set(layer) ^ set(spans.metric_units()))}")
    return problems


def traced_metrics(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=wl.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(out.stdout.strip().split("\n")[-1])
    if out.returncode != 0 or not result["correct"]:
        raise AssertionError(f"traced run of {workload} failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_repeatable(workload: str, seed: int) -> list:
    a = traced_metrics(workload, seed)
    b = traced_metrics(workload, seed)
    return [f"{workload} {k}: {a[k]} then {b[k]}"
            for k in spans.EXACT if a[k] != b[k]]


def check_wrong_verdict_fails() -> list:
    key = ("psq", "n=2")
    saved = wl.CATALOG_VERDICTS[key]
    wl.CATALOG_VERDICTS[key] = "GradedSimple"
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = run.main(["--workload", "census-catalog", "--seconds", "1"])
    finally:
        wl.CATALOG_VERDICTS[key] = saved
    result = json.loads(buf.getvalue().strip().split("\n")[-1])
    if rc == 1 and not result["correct"] and result["failed"] >= 1:
        return []
    return [f"wrong expected verdict not caught: rc={rc} {result}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    problems = check_manifest()
    print(f"manifest: {'ok' if not problems else 'FAIL'}", flush=True)
    for w in args.workload or list(wl.WORKLOADS):
        found = check_repeatable(w, args.seed)
        print(f"repeatable counts {w}: {'ok' if not found else 'FAIL'}",
              flush=True)
        problems += found
    found = check_wrong_verdict_fails()
    print(f"wrong verdict fails: {'ok' if not found else 'FAIL'}")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

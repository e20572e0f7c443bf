"""The benchmark's four workloads: jobs made from a seed, and output checks.

A job is one small unit of superlie work run in-process: a ``superlie``
command line through ``superlie.cli.main``, or a few census rows through
``superlie.census.run_census`` (the function behind ``superlie census``, here
given a slice of a preset grid so that a job takes well under a second or
two).  Every job is run many times in one benchmark run, so each job is kept
small; a pass over all of a workload's jobs takes a few seconds.

A job is run with a seed: it goes to ``superlie --seed`` or the ``seed``
argument of ``run_census`` (the RNG of the simplicity probes).  Every check
compares the output with the mathematics of the case, never with pinned
bytes, so any seed must pass.

Run as a script (``python3 perfbench/workloads.py <workload> <seed>``) it
performs only the set-up, importing superlie and making the jobs, and prints
``ready``; ``run.py`` times these probes for ``setup_s``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# superlie modules imported at set-up, so that no job pays for a lazy import
# and the traced run can rebind every module-level name
MODULES = ("fields", "linalg", "superalgebra", "constructions", "modules",
           "pairs", "brj", "census", "cli")

BIG_P = 2**31 - 1

# brj.EXPECTED_STAGE_DIMS, restated so the check does not trust the program
BRJ_STAGE_DIMS = {"V": 4, "L2V": 6, "Lw2": 5, "N": 20, "M": 16, "socle": 4,
                  "U": 12, "Sym2U": 78, "hom": 1}

# family-catalog verdicts: periplectic_derived n=2 is not simple because
# Lambda^2 V is trivial for sl2 (Kac 1977: P(n) is simple only for n >= 2)
CATALOG_VERDICTS = {
    ("spo", "m=1;odd=3"): "GradedSimple",
    ("spo", "m=1;odd=4"): "GradedSimple",
    ("spo", "m=2;odd=5"): "GradedSimple",
    ("psq", "n=2"): "NotSimple",
    ("psq", "n=3"): "GradedSimple",
    ("psq", "n=4"): "GradedSimple",
    ("periplectic_derived", "n=2"): "NotSimple",
    ("periplectic_derived", "n=3"): "GradedSimple",
}

# Slices of the census presets that keep a pass to a few seconds.  Left out:
# sl(m|n) with m or n = 4 except sl(1|4), sl(4|1) at p = 3 (1-3 s a row), and
# spo m=2 odd=5 and psq(4) of the family catalog (0.8-1.3 s a row).
SL_ROWS = ([("sl", {"m": m, "n": n}, p)
            for m in (1, 2, 3) for n in (1, 2, 3) if m + n >= 3
            for p in (3, 5, 7)]
           + [("sl", {"m": 1, "n": 4}, 3), ("sl", {"m": 4, "n": 1}, 3)])
CATALOG_LEFT_OUT = {("spo", "m=2;odd=5"), ("psq", "n=4")}
D21_CHUNK = 4

FORMS_CASES = ([(7, n) for n in range(1, 7)]      # n < p: int64 path
               + [(0, n) for n in range(1, 6)]    # the rationals
               + [(BIG_P, n) for n in (1, 2)])    # object-array residues


class SetupError(RuntimeError):
    pass


Check = Callable[[int, str, Optional[dict]], List[str]]


@dataclass
class Job:
    """One unit of work and the check of what it printed.

    ``run(seed)`` returns (exit code, output text).  ``check(rc, out,
    report)`` returns the list of problems found; ``report`` is the JSON the
    job wrote to ``report_path``, if any."""
    label: str
    run: Callable[[int], Tuple[int, str]]
    check: Check
    report_path: Optional[Path] = None


def import_superlie():
    """Import superlie from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "superlie" / "__init__.py").is_file():
        raise SetupError(f"no superlie sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"superlie.{m}") for m in MODULES}
    pkg = sys.modules["superlie"]
    if Path(pkg.__file__).resolve().parent != SRC / "superlie":
        raise SetupError(f"superlie imported from {pkg.__file__}, not {SRC}")
    return mods


# -- parsing ------------------------------------------------------------------

def _tsv_rows(text: str) -> List[Dict[str, str]]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def _params(s: str) -> Dict[str, int]:
    return {k: int(v) for k, v in (kv.split("=") for kv in s.split(";"))}


def _params_str(params: Dict[str, object]) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def _dims(row: Dict[str, str]):
    return (int(row["dim_even"]), int(row["dim_odd"]))


# -- checks -------------------------------------------------------------------
# The row checks get the parsed TSV rows of one census job.

def check_sl(rows: List[Dict[str, str]]) -> List[str]:
    """sl(m|n) has dims m^2+n^2-1 | 2mn and is simple iff p does not divide
    m-n; otherwise its center is the scalars, 1|0."""
    bad = []
    for r in rows:
        prm, p = _params(r["params"]), int(r["p"])
        m, n = prm["m"], prm["n"]
        simple = (m - n) % p != 0
        want = ((m * m + n * n - 1, 2 * m * n),
                "GradedSimple" if simple else "NotSimple",
                "0|0" if simple else "1|0", "")
        got = (_dims(r), r["simple"], r["center_dim"], r["error"])
        if got != want:
            bad.append(f"sl m={m} n={n} p={p}: got {got}, want {want}")
    return bad


def _catalog_dims(family: str, prm: Dict[str, int]):
    if family == "spo":  # sp(2m) + so(odd) | 2m * odd
        m, odd = prm["m"], prm["odd"]
        return (m * (2 * m + 1) + odd * (odd - 1) // 2, 2 * m * odd)
    n = prm["n"]
    return (n * n - 1, n * n) if family == "periplectic_derived" \
        else (n * n - 1, n * n - 1)  # psq


def check_catalog(rows: List[Dict[str, str]]) -> List[str]:
    bad = []
    for r in rows:
        key = (r["family"], r["params"])
        want = (_catalog_dims(key[0], _params(key[1])),
                CATALOG_VERDICTS.get(key), "")
        got = (_dims(r), r["simple"], r["error"])
        if got != want:
            bad.append(f"{key} p={r['p']}: got {got}, want {want}")
    return bad


def check_d21(rows: List[Dict[str, str]]) -> List[str]:
    """D(2,1;a) over F_5 satisfies Jacobi iff a1+a2+a3 = 0; a valid triple is
    simple iff no a_i vanishes."""
    bad = []
    for r in rows:
        a = _params(r["params"])
        if sum(a.values()) % 5:
            ok = (r["error"].startswith("JacobiViolation:")
                  and r["dim_even"] == "" and r["simple"] == "")
            if not ok:
                bad.append(f"d21 {a}: expected a JacobiViolation row, "
                           f"got {r}")
            continue
        want = ((9, 8), "NotSimple" if 0 in a.values() else "GradedSimple",
                "")
        got = (_dims(r), r["simple"], r["error"])
        if got != want:
            bad.append(f"d21 {a}: got {got}, want {want}")
    return bad


def _census_check(grid, rows_check) -> Check:
    """Exit 0, one TSV row per grid row, and every row right by
    ``rows_check``."""
    due = sorted((f, _params_str(prm), str(p)) for f, prm, p in grid)

    def check(rc: int, out: str, _report) -> List[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        rows = _tsv_rows(out)
        got = sorted((r["family"], r["params"], r["p"]) for r in rows)
        if got != due:
            return [f"rows {got}, expected {due}"]
        return rows_check(rows)
    return check


def check_brj5(rc: int, out: str, report: Optional[dict]) -> List[str]:
    if rc != 0 or report is None:
        return [f"exit code {rc}, report {'present' if report else 'missing'}"]
    want = {"stage_dims": BRJ_STAGE_DIMS, "socle_matches_expected": True,
            "hom_dim_group": 1, "hom_dim_algebra": 1, "dims": [10, 12],
            "sas": [True, True], "simplicity": "GradedSimple"}
    return [f"brj p=5 {k}: got {report.get(k)!r}, want {v!r}"
            for k, v in want.items() if report.get(k) != v]


def check_brj7(rc: int, out: str, _report) -> List[str]:
    if rc == 1 and "pipeline halted at stage hom:" in out:
        return []
    return [f"brj p=7 should halt at hom with exit 1; rc={rc} out={out!r}"]


def _check_form(n: int, p: int) -> Check:
    """Sym^2(Sym_n^*) -> sl2 maps: one for odd n, none for even n (n < p)."""
    d = n % 2

    def check(rc: int, out: str, _report) -> List[str]:
        want = f"dim group: {d}\ndim algebra: {d}\n"
        if rc == 0 and out == want:
            return []
        return [f"forms n={n} p={p}: rc={rc} out={out!r}, want {want!r}"]
    return check


# -- jobs ---------------------------------------------------------------------

def cli_job(mods, argv: List[str], check: Check,
            report_path: Optional[Path] = None) -> Job:
    """``superlie --seed <seed> <argv>``; its output is what it printed."""
    def run(seed: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = mods["cli"].main(["--seed", str(seed)] + argv)
        return rc, buf.getvalue()
    return Job(" ".join(argv), run, check, report_path)


def census_job(mods, grid, checks, threads: int, rows_check) -> Job:
    """``run_census`` on a slice of a preset grid; its output is the TSV
    ``superlie census`` prints for those rows."""
    def run(seed: int):
        census = mods["census"]
        rows = census.run_census(grid, checks, seed=seed, threads=threads)
        return 0, census.rows_to_tsv(rows, checks)
    label = " ".join(f"{f}({_params_str(prm)})@{p}" for f, prm, p in grid)
    return Job(f"census --threads {threads} {label}", run,
               _census_check(grid, rows_check))


# -- workloads ----------------------------------------------------------------

def _census_sl(mods, tmp: Path) -> List[Job]:
    """One job per row, on one thread."""
    checks = mods["census"].GRID_PRESETS["sl-dichotomy"][1]
    return [census_job(mods, [row], checks, 1, check_sl) for row in SL_ROWS]


def _census_catalog(mods, tmp: Path) -> List[Job]:
    """On the 2-thread pool: one job per catalog algebra (its rows at each
    p), and the d21 grid in chunks of four rows."""
    census = mods["census"]
    groups: Dict[tuple, list] = {}
    for row in census.grid_family_catalog():
        key = (row[0], _params_str(row[1]))
        if key not in CATALOG_LEFT_OUT:
            groups.setdefault(key, []).append(row)
    checks = census.GRID_PRESETS["family-catalog"][1]
    jobs = [census_job(mods, g, checks, 2, check_catalog)
            for g in groups.values()]
    d21 = census.grid_d21()
    checks = census.GRID_PRESETS["d21"][1]
    jobs += [census_job(mods, d21[i:i + D21_CHUNK], checks, 2, check_d21)
             for i in range(0, len(d21), D21_CHUNK)]
    return jobs


def _brj(mods, tmp: Path) -> List[Job]:
    report = tmp / "brj-p5.json"
    return [cli_job(mods, ["brj", "--p", "5", "--report", str(report)],
                    check_brj5, report),
            cli_job(mods, ["brj", "--p", "7"], check_brj7)]


def _forms(mods, tmp: Path) -> List[Job]:
    return [cli_job(mods, ["hom", "sym2-dual-sym", "adjoint-sl2",
                           "--mode", "both", "--n", str(n), "--p", str(p)],
                    _check_form(n, p))
            for p, n in FORMS_CASES]


WORKLOADS = {
    "census-sl": _census_sl,
    "census-catalog": _census_catalog,
    "brj": _brj,
    "forms": _forms,
}


def make_jobs(workload: str, seed: int, mods, tmp: Path) -> List[Job]:
    """The workload's jobs in the seed's order."""
    jobs = WORKLOADS[workload](mods, tmp)
    random.Random(seed).shuffle(jobs)
    return jobs


def read_report(job: Job) -> Optional[dict]:
    if job.report_path is None or not job.report_path.is_file():
        return None
    with open(job.report_path) as f:
        return json.load(f)


if __name__ == "__main__":
    make_jobs(sys.argv[1], int(sys.argv[2]), import_superlie(), ROOT)
    print("ready", flush=True)

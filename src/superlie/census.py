"""Batch evaluation of structural dichotomies over parameter grids.

Rows are computed one after another, each on its own, and sorted, so the
TSV/JSON-lines output is a pure function of (grid, checks, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import FieldCtx, InputError, SuperlieError
from . import constructions as cons


@dataclass
class CensusRow:
    family: str
    params: Dict[str, object]
    p: int
    dims: Optional[Tuple[int, int]] = None
    verdicts: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None

    def sort_key(self):
        return (self.family, json.dumps(self.params, sort_keys=True), self.p)


# family name -> (parameter names, builder(params, ctx)); each builder looks
# its constructions function up when called, so a rebound one is used
FAMILIES = {
    "gl": (("m", "n"), lambda p, ctx: cons.gl(int(p["m"]), int(p["n"]), ctx)),
    "sl": (("m", "n"), lambda p, ctx: cons.sl(int(p["m"]), int(p["n"]), ctx)),
    "pgl": (("m", "n"),
            lambda p, ctx: cons.pgl(int(p["m"]), int(p["n"]), ctx)),
    "psl": (("m", "n"),
            lambda p, ctx: cons.psl(int(p["m"]), int(p["n"]), ctx)),
    "spo": (("m", "odd"),
            lambda p, ctx: cons.spo(int(p["m"]) * 2, int(p["odd"]), ctx)),
    "periplectic": (("n",),
                    lambda p, ctx: cons.periplectic(int(p["n"]), ctx)),
    "periplectic_derived": (
        ("n",), lambda p, ctx: cons.periplectic_derived(int(p["n"]), ctx)),
    "queer": (("n",), lambda p, ctx: cons.queer(int(p["n"]), ctx)),
    "pq": (("n",), lambda p, ctx: cons.pq(int(p["n"]), ctx)),
    "psq": (("n",), lambda p, ctx: cons.psq(int(p["n"]), ctx)),
    "d21": (("a1", "a2", "a3"),
            lambda p, ctx: cons.d21(
                cons.D21Params(p["a1"], p["a2"], p["a3"]), ctx)),
}


def build_from_params(family: str, params: Dict[str, object], ctx: FieldCtx):
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    return FAMILIES[family][1](params, ctx)


def _run_checks(alg, checks: Sequence[str], seed: int) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for c in checks:
        if c == "simple":
            out[c] = alg.is_graded_simple(seed=seed).verdict
        elif c == "solvable":
            out[c] = alg.is_solvable()
        elif c == "center_dim":
            out[c] = "|".join(map(str, alg.center().dims))
        elif c == "derived_codim":
            d = alg.derived_subalgebra()
            out[c] = "|".join(str(a - b) for a, b in zip(alg.dims, d.dims))
        else:
            raise InputError(f"unknown check {c!r}")
    return out


def _row(job, checks: Sequence[str], seed: int) -> CensusRow:
    family, params, p = job
    row = CensusRow(family=family, params=dict(params), p=p)
    try:
        alg = build_from_params(family, params, FieldCtx(p))
        row.dims = alg.dims
        row.verdicts = _run_checks(alg, checks, seed)
    except SuperlieError as e:  # per-row capture: the run continues
        row.error = f"{type(e).__name__}: {e}"
    return row


def run_census(jobs: Sequence[Tuple[str, Dict[str, object], int]],
               checks: Sequence[str], seed: int = 0,
               threads: int = 1) -> List[CensusRow]:
    """jobs: (family, params, p) triples.  Output sorted, deterministic.
    threads is ignored: the rows are computed serially (a thread pool
    measured no faster), and the keyword stays for existing callers."""
    return sorted((_row(j, checks, seed) for j in jobs),
                  key=CensusRow.sort_key)


# -- grids matching the headline dichotomies --------------------------------

def grid_sl_dichotomy() -> List[Tuple[str, Dict[str, object], int]]:
    jobs = []
    for m in range(1, 5):
        for n in range(1, 5):
            if m + n < 3:
                continue
            for p in (3, 5, 7):
                jobs.append(("sl", {"m": m, "n": n}, p))
    return jobs


def grid_family_catalog() -> List[Tuple[str, Dict[str, object], int]]:
    jobs = []
    for m, odd in ((1, 3), (2, 5), (1, 4)):
        for p in (3, 5, 7):
            jobs.append(("spo", {"m": m, "odd": odd}, p))
    for n in (2, 3):
        for p in (3, 5):
            jobs.append(("periplectic_derived", {"n": n}, p))
    for n in (2, 3, 4):
        for p in (3, 5):
            jobs.append(("psq", {"n": n}, p))
    return jobs


def grid_d21() -> List[Tuple[str, Dict[str, object], int]]:
    jobs = [("d21", {"a1": 1, "a2": 1, "a3": 1}, 5)]
    for a in range(5):
        jobs.append(("d21", {"a1": a, "a2": 1, "a3": (-1 - a) % 5}, 5))
    for a1, a2, a3 in ((1, 2, 2), (2, 2, 1), (3, 3, 4), (1, 1, 3), (2, 4, 4),
                       (0, 0, 0), (1, 4, 0), (2, 3, 0), (3, 1, 1), (4, 4, 2),
                       (1, 3, 2), (2, 1, 3), (0, 2, 3), (4, 0, 1)):
        jobs.append(("d21", {"a1": a1, "a2": a2, "a3": a3}, 5))
    return jobs


GRID_PRESETS = {
    "sl-dichotomy": (grid_sl_dichotomy, ("simple", "center_dim")),
    "family-catalog": (grid_family_catalog, ("simple",)),
    "d21": (grid_d21, ("simple",)),
}


# -- serialization -----------------------------------------------------------

def _params_str(params: Dict[str, object]) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def rows_to_tsv(rows: Sequence[CensusRow], checks: Sequence[str]) -> str:
    header = ["family", "params", "p", "dim_even", "dim_odd",
              *checks, "error"]
    lines = ["\t".join(header)]
    for r in rows:
        de, do = r.dims if r.dims else ("", "")
        cells = [r.family, _params_str(r.params), str(r.p), str(de), str(do)]
        cells += [str(r.verdicts.get(c, "")) for c in checks]
        cells.append(r.error or "")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def rows_to_jsonl(rows: Sequence[CensusRow]) -> str:
    out = []
    for r in rows:
        out.append(json.dumps({
            "family": r.family,
            "params": {k: r.params[k] for k in sorted(r.params)},
            "p": r.p,
            "dims": list(r.dims) if r.dims else None,
            "verdicts": {k: r.verdicts[k] for k in sorted(r.verdicts)},
            "error": r.error,
        }, sort_keys=True))
    return "\n".join(out) + "\n"

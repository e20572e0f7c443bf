"""Span recorder for the traced run, wrapped around superlie from outside.

``install`` replaces the public functions listed in ``LAYERS`` with wrappers
that record one span per call: name, parent, start and end, plus the field
regime and work count of the arguments.  Each wrapper is bound under every
name that refers to the original anywhere in the superlie package (for
example ``cli.hom_space`` and ``brj.hom_space``, or ``exact_matmul`` called
inside ``linalg``), so internal calls are recorded too.  Spans stay in memory
until ``Recorder.dump`` writes them at the end of the run.

``fields`` is left out: its per-scalar calls (millions per census) are too
fine-grained to wrap from outside without distorting the timing; its cost
shows in the self time of its callers.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _regime(ctx) -> str:
    if not ctx.p:
        return "q"
    return "smallp" if ctx.dtype is np.int64 else "bigp"


def _kernel_args(m):
    return _regime(m.ctx), m.data.shape[0] * m.data.shape[1]


def _matmul_args(ctx, a, b):
    rows = a.shape[0] if a.ndim == 2 else 1
    cols = b.shape[1] if b.ndim == 2 else 1
    return _regime(ctx), rows * a.shape[-1] * cols


def _hom_unknowns(m1, m2, mode="group"):
    return None, m1.dim * m2.dim * (2 if mode == "both" else 1)


def _jacobi_triples(alg, full=False):
    n = alg.dim
    return None, n ** 3 if full else n * (n + 1) * (n + 2) // 6


def _proper(result, alg, *_a, **_k) -> int:
    return int(0 < result.dim < alg.dim)


def _census_rows(result, *_a, **_k) -> Tuple[int, int]:
    return len(result), sum(1 for r in result if r.error)


CATALOG_BUILDERS = ("gl", "sl", "pgl", "psl", "spo", "periplectic",
                    "periplectic_derived", "queer", "pq", "psq", "d21",
                    "sl2_algebra", "symn_module", "symn_dual",
                    "adjoint_sl2_module")

# layer name -> (module, attributes wrapped under that name,
#                argument inspector, result inspector)
# An argument inspector returns (field regime or None, work count or None);
# a result inspector returns a value kept on the span.
LAYERS: Dict[str, Tuple[str, Tuple[str, ...], Optional[Callable],
                        Optional[Callable]]] = {
    "linalg.kernel": ("linalg", ("kernel",), _kernel_args, None),
    "linalg.exact_matmul": ("linalg", ("exact_matmul",), _matmul_args, None),
    "linalg.subspace": ("linalg", ("Subspace.from_vectors", "Subspace.sum",
                                   "Subspace.intersect"), None, None),
    "linalg.invariant_closure": ("linalg", ("invariant_closure",), None,
                                 None),
    "superalgebra.is_graded_simple": (
        "superalgebra", ("LieSuperalgebra.is_graded_simple",), None, None),
    "superalgebra.ideal_closure": (
        "superalgebra", ("LieSuperalgebra.ideal_closure",), None, _proper),
    "superalgebra.validate_jacobi": (
        "superalgebra", ("LieSuperalgebra.validate_jacobi",),
        _jacobi_triples, None),
    "superalgebra.center": ("superalgebra", ("LieSuperalgebra.center",),
                            None, None),
    "superalgebra.derived_subalgebra": (
        "superalgebra", ("LieSuperalgebra.derived_subalgebra",), None, None),
    "constructions.build": ("constructions", CATALOG_BUILDERS, None, None),
    "modules.hom_space": ("modules", ("hom_space",), _hom_unknowns, None),
    "modules.sym2": ("modules", ("sym2",), None, None),
    "modules.tensor": ("modules", ("tensor",), None, None),
    "modules.family_validate": (
        "modules", ("CoeffOperatorFamily.validate",), None, None),
    "modules.submodule_generated": ("modules", ("submodule_generated",),
                                    None, None),
    "modules.socle_via_homs": ("modules", ("socle_via_homs",), None, None),
    "pairs.assemble_pair": ("pairs", ("assemble_pair",), None, None),
    "pairs.check_sas_conditions": ("pairs", ("check_sas_conditions",),
                                   None, None),
    "census.run_census": ("census", ("run_census",), None, _census_rows),
    "cli.main": ("cli", ("main",), None, None),
}

REGIME_SPLIT = ("linalg.kernel", "linalg.exact_matmul")
REGIMES = ("smallp", "bigp", "q")
WORK_COUNTS = {
    "linalg.kernel.cells": "linalg.kernel",
    "linalg.exact_matmul.macs": "linalg.exact_matmul",
    "modules.hom_space.unknowns": "modules.hom_space",
    "superalgebra.validate_jacobi.triples": "superalgebra.validate_jacobi",
}
WORK_KEY = {layer: key for key, layer in WORK_COUNTS.items()}
BRJ_STAGES = ("modules", "submodule", "hom", "pair", "simplicity")


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        if name in REGIME_SPLIT:
            for r in REGIMES:
                units[f"{name}.self_s.{r}"] = "s"
    for name in WORK_COUNTS:
        units[name] = "count"
    units["superalgebra.ideal_closure.proper_frac"] = "ratio"
    units["census.rows"] = "count"
    units["census.error_rows"] = "count"
    for st in BRJ_STAGES:
        units[f"brj.stage.{st}.s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# metrics that must repeat exactly across traced runs of one seed
EXACT = tuple(m for m in metric_units()
              if m.endswith(".calls") or m in WORK_COUNTS
              or m in ("superalgebra.ideal_closure.proper_frac",
                       "census.rows", "census.error_rows"))


class Span:
    __slots__ = ("name", "parent", "start", "end", "regime", "work", "result")

    def __init__(self, name, parent, regime, work):
        self.name = name
        self.parent = parent
        self.regime = regime
        self.work = work
        self.result = None
        self.start = self.end = 0


class Recorder:
    """Collects spans from every thread.

    Each thread keeps its own stack of open spans.  A span opened in a thread
    with no open span (a census pool worker) takes as parent the innermost
    open span of the thread that created the recorder, which is waiting on
    that worker."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._main_stack: List[Span] = []
        self._local.stack = self._main_stack
        self._restore: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, args_info, result_info):
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            regime, work = args_info(*args, **kwargs) if args_info \
                else (None, None)
            span = Span(name, parent, regime, work)
            stack.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if result_info:
                span.result = result_info(out, *args, **kwargs)
            return out
        return wrapper

    def install(self, mods: Dict[str, object]):
        """Wrap every function in LAYERS under every name that binds it."""
        for name, (mod_name, attrs, args_info, result_info) in LAYERS.items():
            mod = mods[mod_name]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__,
                                                    args_info, result_info))
                    else:
                        new = self.wrap(name, raw, args_info, result_info)
                    self._restore.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(mod, attr)
                new = self.wrap(name, orig, args_info, result_info)
                for m in mods.values():
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._restore.append((m, k, orig))
                            setattr(m, k, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Per-layer calls, inclusive and self seconds, work counts."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        out: Dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            if name in REGIME_SPLIT:
                for r in REGIMES:
                    out[f"{name}.self_s.{r}"] = 0.0
        for name in WORK_COUNTS:
            out[name] = 0
        closures = proper = rows = error_rows = 0
        for s in self.spans:
            dur = s.end - s.start
            self_ns = dur - _covered(s, children.get(id(s), ()))
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += self_ns / 1e9
            if s.regime is not None:
                out[f"{s.name}.self_s.{s.regime}"] += self_ns / 1e9
            if not _nested_in_same(s):
                out[f"{s.name}.s"] += dur / 1e9
            if s.work is not None:
                out[WORK_KEY[s.name]] += s.work
            if s.name == "superalgebra.ideal_closure" and s.result is not None:
                closures += 1
                proper += s.result
            if s.name == "census.run_census" and s.result is not None:
                rows += s.result[0]
                error_rows += s.result[1]
        out["superalgebra.ideal_closure.proper_frac"] = \
            proper / closures if closures else 0.0
        out["census.rows"] = rows
        out["census.error_rows"] = error_rows
        return out

    def dump(self, path, env: dict):
        """Write every span as [name, parent index, start ns, end ns]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as f:
            json.dump({
                "env": env,
                "fields": ["name", "parent", "start_ns", "end_ns"],
                "spans": [[s.name,
                           index.get(id(s.parent)) if s.parent else None,
                           s.start, s.end] for s in self.spans],
            }, f)


def _nested_in_same(s: Span) -> bool:
    p = s.parent
    while p is not None:
        if p.name == s.name:
            return True
        p = p.parent
    return False


def _covered(s: Span, kids) -> int:
    """Length of the part of s's interval covered by its children's spans
    (children on pool threads may overlap each other)."""
    total, reach = 0, s.start
    for k in sorted(kids, key=lambda k: k.start):
        lo, hi = max(k.start, reach), min(k.end, s.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total

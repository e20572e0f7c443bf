"""Top-level acceptance gate: ten end-to-end criteria, one line of output
each, exact arithmetic throughout (every tolerance is zero)."""

import time

import numpy as np
import pytest

from superlie.fields import FieldCtx
from superlie.linalg import Subspace
from superlie.modules import hom_space, sym2
from superlie.superalgebra import JacobiViolation
from superlie.census import GRID_PRESETS, run_census, rows_to_jsonl, rows_to_tsv
from superlie.brj import (
    EXPECTED_STAGE_DIMS,
    PipelineAssertion,
    brj25,
    expected_socle_vectors,
)
from superlie.constructions import (
    D21Params,
    adjoint_sl2_module,
    d21,
    identity_coords,
    pgl,
    periplectic_derived,
    psl,
    psq,
    sl,
    sl2_symn_algebra,
    sl2_symn_pair,
    spo,
    queer,
    symn_dual,
)
from superlie.pairs import check_sas_conditions, pair_space
from sl2_oracles import sl2_symn_constants

Q = FieldCtx.rationals()


def ctx_of(p):
    return Q if p == 0 else FieldCtx.prime(p)


def finish(name, failures, elapsed, budget):
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f}s >= budget {budget}s")
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {name}: {status}"
          + (f" ({'; '.join(failures)})" if failures else ""))
    assert not failures, failures


def test_01_sl_dichotomy():
    t0 = time.monotonic()
    failures = []
    for p in (3, 5, 7):
        ctx = ctx_of(p)
        for m in range(1, 5):
            for n in range(1, 5):
                if m + n < 3:
                    continue
                alg = sl(m, n, ctx)
                v = alg.is_graded_simple(seed=0)
                want_simple = (m - n) % p != 0
                if v.is_simple != want_simple:
                    failures.append(f"sl({m}|{n}) p={p}: {v.verdict}")
                    continue
                if not want_simple:
                    # the only obstruction is the scalar line k.I
                    w = v.witness
                    ic = identity_coords(alg)
                    if not (w.dims == (1, 0) and w.contains(ic)):
                        failures.append(f"sl({m}|{n}) p={p}: witness not k.I")
                    pv = psl(m, n, ctx).is_graded_simple(seed=0)
                    if pv.verdict != "GradedSimple":
                        failures.append(f"psl({m}|{n}) p={p}: {pv.verdict}")
    finish("01 sl-dichotomy", failures, time.monotonic() - t0, 30)


def test_02_pgl_derived_codimension():
    t0 = time.monotonic()
    failures = []
    for m, n, p in ((4, 1, 3), (5, 2, 3)):
        alg = pgl(m, n, ctx_of(p))
        der = alg.derived_subalgebra()
        codim = tuple(a - b for a, b in zip(alg.dims, der.dims))
        if codim != (1, 0):
            failures.append(f"pgl({m}|{n}) p={p}: codim {codim}")
        if not der.verify():
            failures.append(f"pgl({m}|{n}) p={p}: derived not an ideal")
        if der.dims == alg.dims:
            failures.append(f"pgl({m}|{n}) p={p}: derived not proper")
    finish("02 pgl-derived-codim", failures, time.monotonic() - t0, 10)


def test_03_unique_equivariant_form():
    t0 = time.monotonic()
    failures = []
    grids = [(5, range(1, 6)), (7, range(1, 8)), (0, range(1, 8))]
    for p, ns in grids:
        ctx = ctx_of(p)
        adj = adjoint_sl2_module(ctx)
        for n in ns:
            rep = hom_space(sym2(symn_dual(n, ctx)), adj, mode="both")
            want = 1 if n % 2 == 1 else 0
            if rep.dim_group != want or rep.dim_algebra != rep.dim_group:
                failures.append(
                    f"n={n} p={p}: dims {rep.dim_group}/{rep.dim_algebra}")
            if n % 2 == 1:
                # constructor checks the four defining recurrences exactly
                sl2_symn_constants(n, 1, ctx)
    finish("03 unique-form", failures, time.monotonic() - t0, 20)


def cubic_kernel_dim(n, ctx):
    """dim K: the pair brackets Sym^2(Sym_n*) -> sl2 that pass the cubic
    identity."""
    odd = symn_dual(n, ctx)
    rep = hom_space(sym2(odd), adjoint_sl2_module(ctx), mode="group")
    return len(pair_space(odd, rep.basis)[1])


def test_04_cubic_trichotomy():
    t0 = time.monotonic()
    failures = []
    fields = [ctx_of(p) for p in (3, 5, 7)] + [Q]
    for ctx in fields:
        if not sl2_symn_algebra(1, 1, ctx).validate_cubic_odd().ok:
            failures.append(f"n=1 over {ctx}: cubic fails")
        if cubic_kernel_dim(1, ctx) != 1:
            failures.append(f"n=1 over {ctx}: dim K != 1")
    if not sl2_symn_algebra(3, 1, ctx_of(3)).validate_cubic_odd().ok:
        failures.append("n=3 p=3: cubic fails")
    if cubic_kernel_dim(3, ctx_of(3)) != 1:
        failures.append("n=3 p=3: dim K != 1")
    for ctx in (ctx_of(5), ctx_of(7), Q):
        if cubic_kernel_dim(3, ctx) != 0:
            failures.append(f"n=3 over {ctx}: dim K != 0")
        alg = sl2_symn_algebra(3, 1, ctx)
        rep = alg.validate_cubic_odd(with_polys=True)
        if rep.ok:
            failures.append(f"n=3 over {ctx}: cubic passes")
            continue
        # the obstruction shows on the s*_{n-2} coordinate: cubing
        # v = x s*_0 + z s*_{n-1} leaves a nonzero x z^2 term there
        mono = (1, 0, 2, 0)
        coeff = rep.coefficient_polys[1].get(mono)
        if coeff is None or ctx.is_zero(coeff):
            failures.append(f"n=3 over {ctx}: witness not on s*_1")
    rep = sl2_symn_algebra(5, 1, ctx_of(7)).validate_cubic_odd()
    if rep.ok or rep.witness is None:
        failures.append("n=5 p=7: expected a cubic witness")
    if cubic_kernel_dim(5, ctx_of(7)) != 0:
        failures.append("n=5 p=7: dim K != 0")
    finish("04 cubic-trichotomy", failures, time.monotonic() - t0, 10)


def test_05_sas_pair():
    t0 = time.monotonic()
    failures = []
    F3 = ctx_of(3)
    pair = sl2_symn_pair(3, 1, F3)
    c1, c2, _ = check_sas_conditions(pair)
    if (c1, c2) != (True, True):
        failures.append(f"sas conditions: {(c1, c2)}")
    alg = pair.algebra
    der = alg.derived_subalgebra()
    if der.dims != (3, 2):
        failures.append(f"derived dims {der.dims}")
    if not der.verify() or der.dims == alg.dims:
        failures.append("derived not a proper verified ideal")
    dsub = der.space
    for i in alg.odd_coords:
        seed = F3.zeros(alg.dim)
        seed[i] = 1
        cl = alg.ideal_closure([seed]).space
        if not dsub.leq(cl):
            failures.append(f"closure of odd vector {i} misses derived")
    finish("05 sas-pair", failures, time.monotonic() - t0, 10)


def test_06_family_catalog():
    t0 = time.monotonic()
    failures = []
    for m, odd in ((2, 3), (4, 5), (2, 4)):
        for p in (3, 5, 7):
            v = spo(m, odd, ctx_of(p)).is_graded_simple(seed=0)
            if v.verdict != "GradedSimple":
                failures.append(f"spo({m}|{odd}) p={p}: {v.verdict}")
    for n in (2, 3):
        for p in (3, 5, 7):
            alg = periplectic_derived(n, ctx_of(p))
            if alg.dims != (n * n - 1, n * n):
                failures.append(f"periplectic' n={n} p={p}: dims {alg.dims}")
            v = alg.is_graded_simple(seed=0)
            if n == 3:
                if v.verdict != "GradedSimple":
                    failures.append(f"periplectic' n={n} p={p}: {v.verdict}")
                continue
            # spe(2) = P(1) is not simple: Lambda^2 V* is the trivial
            # sl2-module, so [g, g] = sl2 + Sym^2 V is a proper 3|3 ideal
            w = v.witness
            if v.verdict != "NotSimple" or w is None:
                failures.append(f"periplectic' n={n} p={p}: {v.verdict}")
                continue
            if not w.verify() or w.dims != (3, 3):
                failures.append(f"periplectic' n={n} p={p}: witness {w.dims}")
            if w != alg.derived_subalgebra():
                failures.append(f"periplectic' n={n} p={p}: witness not derived")
            if w.dims[0] != alg.dims[0]:
                failures.append(f"periplectic' n={n} p={p}: misses even part")
    for p in (3, 5, 7):
        ctx = ctx_of(p)
        for n in (3, 4):
            v = psq(n, ctx).is_graded_simple(seed=0)
            if v.verdict != "GradedSimple":
                failures.append(f"psq({n}) p={p}: {v.verdict}")
        alg = psq(2, ctx)
        v = alg.is_graded_simple(seed=0)
        w = v.witness
        if w is None or w.dims != (0, 3):
            failures.append(f"psq(2) p={p}: witness {None if w is None else w.dims}")
            continue
        if not w.verify():
            failures.append(f"psq(2) p={p}: witness not invariant")
        # the invariant odd subspace brackets to zero with itself
        # (its basis rows are all odd: w.dims == (0, 3))
        for x in w.space.basis.data:
            for y in w.space.basis.data:
                if np.any(alg.bracket_vec(x, y)):
                    failures.append(f"psq(2) p={p}: nonzero odd bracket")
    finish("06 family-catalog", failures, time.monotonic() - t0, 60)


def test_07_d21_grid():
    t0 = time.monotonic()
    failures = []
    F5 = ctx_of(5)
    grid = [(1, 1, 1)] + [(a, 1, (-1 - a) % 5) for a in range(5)]
    grid += [(1, 2, 2), (2, 2, 1), (3, 3, 4), (1, 1, 3), (2, 4, 4),
             (0, 0, 0), (1, 4, 0), (2, 3, 0), (3, 1, 1), (4, 4, 2),
             (1, 3, 2), (2, 1, 3), (0, 2, 3), (4, 0, 1)]
    assert len(grid) == 20
    for a1, a2, a3 in grid:
        valid_expected = (a1 + a2 + a3) % 5 == 0
        try:
            alg = d21(D21Params(a1, a2, a3), F5)
        except JacobiViolation:
            if valid_expected:
                failures.append(f"({a1},{a2},{a3}): should validate")
            continue
        if not valid_expected:
            failures.append(f"({a1},{a2},{a3}): should not validate")
            continue
        if alg.dims != (9, 8):
            failures.append(f"({a1},{a2},{a3}): dims {alg.dims}")
    # one-parameter line: simple away from the two degenerate values
    for a in range(5):
        alg = d21(D21Params(a, 1, (-1 - a) % 5), F5)
        v = alg.is_graded_simple(seed=0)
        want = a not in (0, 4)
        if v.is_simple != want:
            failures.append(f"line a={a}: {v.verdict}")
    finish("07 d21-grid", failures, time.monotonic() - t0, 20)


def test_08_brj_pipeline():
    t0 = time.monotonic()
    failures = []
    rep = brj25(p=5, seed=0)
    if rep.stage_dims != EXPECTED_STAGE_DIMS:
        failures.append(f"stage dims {rep.stage_dims}")
    if not rep.socle_matches_expected:
        failures.append("socle differs from the four expected vectors")
    if Subspace.from_vectors(ctx_of(5), 20,
                             expected_socle_vectors(ctx_of(5))).dim != 4:
        failures.append("expected socle vectors not independent")
    alg = rep.algebra
    if alg.dims != (10, 12):
        failures.append(f"final dims {alg.dims}")
    if not alg.validate_jacobi(full=True).ok:
        failures.append("jacobi fails")
    if not alg.validate_cubic_odd().ok:
        failures.append("cubic fails")
    if rep.simplicity != "GradedSimple":
        failures.append(f"simplicity {rep.simplicity}")
    if rep.sas != (True, True):
        failures.append(f"sas {rep.sas}")
    try:
        brj25(p=7)
        failures.append("p=7 pipeline did not halt")
    except PipelineAssertion as e:
        if not (e.stage == "hom" and e.got == 0):
            failures.append(f"p=7 halted at {e.stage} with {e.got}")
    finish("08 brj-pipeline", failures, time.monotonic() - t0, 120)


def test_09_property_suite():
    t0 = time.monotonic()
    failures = []
    sample = [
        sl(2, 1, ctx_of(5)),
        psl(2, 2, ctx_of(3)),
        spo(2, 3, ctx_of(3)),
        periplectic_derived(3, ctx_of(5)),
        psq(3, ctx_of(5)),
        queer(2, ctx_of(7)),
        d21(D21Params(1, 1, 3), ctx_of(5)),
        sl2_symn_algebra(3, 1, ctx_of(3)),
        sl(2, 1, Q),
    ]
    rng = np.random.default_rng(0)
    for alg in sample:
        name = alg.meta.get("name", "?")
        ctx = alg.ctx
        # skew and grading hold by construction; Jacobi on all triples:
        if not alg.validate_jacobi(full=True).ok:
            failures.append(f"{name}: jacobi")
        if (ctx.p == 0 or ctx.p >= 5) and not alg.validate_cubic_odd().ok:
            failures.append(f"{name}: jacobi holds but cubic fails")
        # ideal closure is idempotent
        seed = ctx.vec([int(x) for x in rng.integers(0, 5, alg.dim)])
        ideal = alg.ideal_closure([seed])
        again = alg.ideal_closure(list(ideal.space.basis.data))
        if ideal.dims != again.dims or \
                not ideal.space.leq(again.space):
            failures.append(f"{name}: closure not idempotent")
        # quotient dimension arithmetic on the center
        z = alg.center()
        if z.dim and z.dim < alg.dim:
            q = alg.quotient(z)
            if tuple(a - b for a, b in zip(alg.dims, z.dims)) != q.dims:
                failures.append(f"{name}: quotient dims")
    # modular-law dimension identity on random subspace pairs
    F5 = ctx_of(5)
    for _ in range(200):
        a = Subspace.from_vectors(
            F5, 6, [F5.vec([int(x) for x in rng.integers(0, 5, 6)])
                    for _ in range(rng.integers(1, 4))])
        b = Subspace.from_vectors(
            F5, 6, [F5.vec([int(x) for x in rng.integers(0, 5, 6)])
                    for _ in range(rng.integers(1, 4))])
        if a.sum(b).dim + a.intersect(b).dim != a.dim + b.dim:
            failures.append("modular law fails")
            break
    finish("09 property-suite", failures, time.monotonic() - t0, 60)


def test_10_census_determinism():
    t0 = time.monotonic()
    failures = []
    for preset in ("sl-dichotomy", "family-catalog", "d21"):
        gridf, checks = GRID_PRESETS[preset]
        grid = gridf()
        r1 = run_census(grid, checks, seed=0, threads=1)
        r4 = run_census(grid, checks, seed=0, threads=4)
        if rows_to_tsv(r1, checks) != rows_to_tsv(r4, checks):
            failures.append(f"{preset}: tsv differs across thread counts")
        if rows_to_jsonl(r1) != rows_to_jsonl(r4):
            failures.append(f"{preset}: jsonl differs across thread counts")
    finish("10 census-determinism", failures, time.monotonic() - t0, 600)

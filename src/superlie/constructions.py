"""Named builders for the algebra and module families of the catalog.

gl and sl (so pgl and psl, their quotients by the scalars) are spanned by
matrix units and supertraceless diagonals, so their structure constants are
read off the matrix-unit rule [E_ab, E_cd] = d_bc E_ad - (-1)^{|E_ab||E_cd|}
d_da E_cb on integers, by position (_unit_algebra): no matrix product and no
span solve.  The other matrix families go through algebra_from_matrices,
which takes explicit supermatrices, computes supercommutators and
re-expresses them in the given basis.  Either way the structure constants
are derived rather than transcribed, and validated.  sl2's
data is written once, as small integer arrays (SL2_*): sl2_algebra takes its
matrices from them, symn_module its labels and brackets, adjoint_sl2_module
its labels, brackets and ad(x_i) = SL2_BRACKETS[i].T, and d21 assembles its
constants from the brackets, the action on V, the form and Sym2(V) -> sl2.
Basis orders are fixed and documented per construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fields import FieldCtx, InputError, SuperlieError
from .linalg import (
    Matrix,
    SpanSolver,
    Subspace,
    from_int,
    int_family,
    int_matmul,
    join,
    kernel,
    nonzero_sums,
)
from .modules import CoeffOperatorFamily, GModule, dual, hom_space, sym2
from .pairs import (BilinearMap, HCPair, assemble_pair, normalised,
                    pair_space, total_algebra)
from .superalgebra import (
    CenterNotInside,
    LieSuperalgebra,
    SuperIdeal,
    algebra_from_consts,
)


# ---------------------------------------------------------------------------
# generic matrix-superalgebra builder
# ---------------------------------------------------------------------------

def _bracket_rows(ctx: FieldCtx, mats: np.ndarray,
                  parities: Sequence[int]
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(i, j, rows, t): index arrays of the pairs i <= j in row-major order,
    and the flattened supercommutators [M_i, M_j] of a (d, N, N) stack as
    the integer rows / t (linalg.int_family's form).  Every product
    M_i M_j is one block of a single (dN x N)(N x dN) product, taken on
    the int_family arrays of the M_i."""
    d, n, _ = mats.shape
    (ints,), s = int_family(ctx, [mats])
    prod = int_matmul(ctx, ints.reshape(d * n, n),
                      ints.transpose(1, 0, 2).reshape(n, d * n))
    prod = prod.reshape(d, n, d, n).transpose(0, 2, 1, 3)
    i, j = np.triu_indices(d)
    odd = np.asarray(parities, dtype=bool)
    xy, yx = prod[i, j], prod[j, i]
    br = np.where((odd[i] & odd[j])[:, None, None], xy + yx, xy - yx)
    return i, j, ctx.reduce(br.reshape(len(i), n * n)), s * s


def _bracket_consts(ctx: FieldCtx, mats: np.ndarray, parities: np.ndarray,
                    solver: SpanSolver, labels: Sequence[str]) -> np.ndarray:
    """The structure constants of the span of a (d, N, N) stack: every
    supercommutator from _bracket_rows, solved for with one batched
    SpanSolver call.  Raises InputError for the first pair (i <= j, in
    row-major order) whose bracket leaves the span.  Its own function, so
    that the rows and coordinates are freed before the algebra is
    completed and validated, where the build's memory peaks."""
    d = len(mats)
    i, j, rows, t = _bracket_rows(ctx, mats, parities)
    coords, u, in_span = solver.coords_int_rows(rows, t)
    if not in_span.all():
        r = int(np.argmin(in_span))
        raise InputError(f"bracket [{labels[i[r]]},{labels[j[r]]}] "
                         "leaves the span")
    consts = ctx.zeros(d, d, d)
    consts[i, j] = from_int(ctx, coords, u)
    return consts


def algebra_from_matrices(ctx: FieldCtx,
                          elems: Sequence[Tuple[str, int, np.ndarray]],
                          block_parities: Sequence[int],
                          meta: Optional[dict] = None) -> LieSuperalgebra:
    """Build a Lie superalgebra from explicit supermatrices.

    elems: (label, parity, square matrix) triples forming a basis of a
    subspace closed under the supercommutator.  block_parities gives the
    parity of each row/column index of the ambient matrix space.  Every
    bracket [x, y], x before or equal to y, is solved for in one batch; the
    first pair (in that order) whose bracket leaves the span is reported.
    """
    n_amb = len(block_parities)
    for label, _, m in elems:
        if np.shape(m) != (n_amb, n_amb):
            raise InputError(f"matrix for {label} has shape {np.shape(m)}")
    d = len(elems)
    mats: List[np.ndarray] = []
    solver = None
    consts = ctx.zeros(0, 0, 0)
    if d:
        stack = ctx.reduce(np.stack([np.asarray(m) for _, _, m in elems]))
        # entry (a, b) of a homogeneous element has parity bp[a] + bp[b]
        bp = np.asarray(block_parities)
        parities = np.array([parity for _, parity, _ in elems])
        bad = np.argwhere(stack.astype(bool) & (
            np.add.outer(bp, bp) % 2 != parities[:, None, None]))
        if len(bad):
            e, a, b = bad[0]
            raise InputError(f"entry ({a},{b}) of {elems[e][0]} violates "
                             f"declared parity {elems[e][1]}")
        mats = list(stack)
        solver = SpanSolver(ctx, stack.reshape(d, -1))
        consts = _bracket_consts(ctx, stack, parities, solver,
                                 [label for label, _, _ in elems])
    alg = algebra_from_consts(
        ctx, [(label, parity) for label, parity, _ in elems], consts, meta=meta)
    alg.matrix_basis = mats  # type: ignore[attr-defined]
    alg.matrix_solver = solver  # type: ignore[attr-defined]
    return alg


def coords_of_matrix(alg: LieSuperalgebra, m: np.ndarray) -> Optional[np.ndarray]:
    """Coordinates of an ambient matrix in a matrix-built algebra's basis,
    from a SpanSolver of its matrix_basis, built on first use and kept."""
    solver = getattr(alg, "matrix_solver", None)
    if solver is None:
        mats: List[np.ndarray] = alg.matrix_basis  # type: ignore[attr-defined]
        solver = SpanSolver(alg.ctx, np.stack(mats).reshape(len(mats), -1))
        alg.matrix_solver = solver  # type: ignore[attr-defined]
    return solver.coords(alg.ctx.reduce(np.asarray(m)).reshape(-1))


# ---------------------------------------------------------------------------
# gl / sl / pgl / psl
# ---------------------------------------------------------------------------

def _unit_algebra(ctx: FieldCtx, n_amb: int, basis: Sequence[Tuple[str, int]],
                  entries: np.ndarray, reader: np.ndarray,
                  meta: dict) -> LieSuperalgebra:
    """The algebra spanned by the supermatrices X_e = sum v E_ab over the
    integer unit entries (e, a, b, v), the columns of entries, on the
    (label, parity) basis, with every bracket from the matrix-unit rule
    [E_ab, E_cd] = d_bc E_ad - (-1)^{|E_ab||E_cd|} d_da E_cb.  One join of
    the entries on the middle index gives every product term v v' E_ad of
    X_e X_f, which enters [X_e, X_f] as it is and [X_f, X_e] times
    -(-1)^{|e||f|}; only the pairs e <= f are kept (algebra_from_consts
    fills the rest by super-antisymmetry).  The columns (pos, k, c) of
    reader give coordinates by position: E_ab, at pos = a n_amb + b, is
    the sum of c e_k over its columns.  The terms are summed per (e, f, k) on integers
    (nonzero_sums) and made field scalars once (from_int); the algebra is
    validated as every built algebra is."""
    el, row, col, val = entries
    pos, k, c = reader
    d = len(basis)
    odd = np.array([parity for _, parity in basis], dtype=bool)
    x, y = join(col, row)
    e, f = el[x], el[y]
    sign = np.where(odd[e] & odd[f], -1, 1)
    coef = (e <= f).astype(np.int64) - sign * (e >= f)
    keep = np.flatnonzero(coef)
    x, y, e, f = x[keep], y[keep], e[keep], f[keep]
    t, u = join(row[x] * n_amb + col[y], pos)
    keys = (np.minimum(e, f)[t] * d + np.maximum(e, f)[t]) * d + k[u]
    terms = (val[x] * val[y] * coef[keep])[t] * c[u]
    keys, sums = nonzero_sums(ctx, keys, terms)
    consts = ctx.zeros(d, d, d)
    consts.flat[keys] = from_int(ctx, sums, 1)
    alg = algebra_from_consts(ctx, basis, consts, meta=meta)
    mats = ctx.zeros(d, n_amb, n_amb)
    mats[el, row, col] = from_int(ctx, val, 1)
    alg.matrix_basis = list(mats)  # type: ignore[attr-defined]
    return alg


def _gl_sl(m: int, n: int, ctx: FieldCtx, name: str) -> LieSuperalgebra:
    """gl(m|n) on the units E_ab, or sl(m|n) on the off-diagonal units and
    the supertraceless diagonal H_i = E_ii - E_(i+1)(i+1), except across
    the parity boundary, where H_m = E_mm + E_(m+1)(m+1).  Basis: the even
    units row-major (A block, then D block), sl's H_i, then the odd units
    row-major (B block, then C block).  Labels E{a},{b} and H{i}, 1-based.
    A unit reads as its own basis element.  A diagonal matrix sum d_a E_aa
    of supertrace zero is sum h_i H_i with h_0 = d_0 and h_(i+1) =
    d_(i+1) +- h_i, so E_aa reads as sum T[a, i] H_i for the N x (N-1)
    integer matrix T[a, i] = 0 for a > i, -1 for a < m <= i, else 1."""
    N, bp, traceless = m + n, [0] * m + [1] * n, name == "sl"
    hs = range(N - 1 if traceless else 0)
    units = [[(a, b) for a in range(N) for b in range(N)
              if (bp[a] + bp[b]) % 2 == q and not (traceless and a == b)]
             for q in (0, 1)]
    elems = [(f"E{a+1},{b+1}", 0, [(a, b, 1)]) for a, b in units[0]]
    elems += [(f"H{i+1}", 0, [(i, i, 1),
                              (i + 1, i + 1, 1 if i == m - 1 else -1)])
              for i in hs]
    elems += [(f"E{a+1},{b+1}", 1, [(a, b, 1)]) for a, b in units[1]]
    entries = [(k, a, b, v) for k, (_, _, es) in enumerate(elems)
               for a, b, v in es]
    reader = [(a * N + b, k, 1) for k, (_, _, es) in enumerate(elems)
              if len(es) == 1 for a, b, _ in es]
    reader += [(a * N + a, len(units[0]) + i, -1 if a < m <= i else 1)
               for i in hs for a in range(i + 1)]
    return _unit_algebra(ctx, N, [(label, q) for label, q, _ in elems],
                         np.array(entries).T, np.array(reader).T,
                         {"name": name, "m": m, "n": n})


def gl(m: int, n: int, ctx: FieldCtx) -> LieSuperalgebra:
    """gl(m|n) on elementary matrices (see _gl_sl for the basis)."""
    if m + n < 1:
        raise InputError("need m+n >= 1")
    return _gl_sl(m, n, ctx, "gl")


def sl(m: int, n: int, ctx: FieldCtx) -> LieSuperalgebra:
    """Supertraceless matrices in gl(m|n) (see _gl_sl for the basis)."""
    if m + n < 2:
        raise InputError("need m+n >= 2")
    return _gl_sl(m, n, ctx, "sl")


def identity_coords(alg: LieSuperalgebra) -> np.ndarray:
    """Coordinates of the identity matrix in a matrix-built algebra."""
    mats: List[np.ndarray] = alg.matrix_basis  # type: ignore[attr-defined]
    N = mats[0].shape[0]
    coords = coords_of_matrix(alg, alg.ctx.eye(N))
    if coords is None:
        raise CenterNotInside("identity matrix is not in the algebra")
    return coords


def scalar_ideal(alg: LieSuperalgebra) -> SuperIdeal:
    """The central superideal spanned by the identity matrix."""
    return SuperIdeal(alg, Subspace.from_vectors(alg.ctx, alg.dim,
                                                 [identity_coords(alg)]))


def pgl(m: int, n: int, ctx: FieldCtx) -> LieSuperalgebra:
    """gl(m|n) / k.I"""
    g = gl(m, n, ctx)
    out = g.quotient(scalar_ideal(g))
    out.meta.update({"name": "pgl", "m": m, "n": n})
    return out


def psl(m: int, n: int, ctx: FieldCtx) -> LieSuperalgebra:
    """sl(m|n) / k.I; requires the supertrace of I (= m-n) to vanish."""
    if ctx.p == 0:
        if m != n:
            raise CenterNotInside("identity is not supertraceless over Q")
    elif (m - n) % ctx.p != 0:
        raise CenterNotInside(
            f"identity is not supertraceless: p={ctx.p} does not divide m-n")
    s = sl(m, n, ctx)
    out = s.quotient(scalar_ideal(s))
    out.meta.update({"name": "psl", "m": m, "n": n})
    return out


# ---------------------------------------------------------------------------
# orthosymplectic spo(2m|d)
# ---------------------------------------------------------------------------

def _gram_symplectic(ctx: FieldCtx, m: int) -> np.ndarray:
    j = ctx.zeros(2 * m, 2 * m)
    for i in range(m):
        j[i, m + i] = ctx.one
        j[m + i, i] = ctx.neg(ctx.one)
    return j

def _gram_orthogonal(ctx: FieldCtx, d: int) -> np.ndarray:
    n = d // 2
    j = ctx.zeros(d, d)
    for i in range(n):
        j[i, n + i] = ctx.one
        j[n + i, i] = ctx.one
    if d % 2:
        j[d - 1, d - 1] = ctx.one
    return j


def _gram_algebra_basis(ctx: FieldCtx, g: np.ndarray) -> List[np.ndarray]:
    """Canonical basis of {X : X^t g + g X = 0}."""
    n = g.shape[0]
    cols = [ctx.reduce(e.T @ g + g @ e).reshape(-1)
            for e in ctx.eye(n * n).reshape(n * n, n, n)]
    constraint = Matrix(ctx, np.stack(cols, axis=1))
    ker = kernel(constraint)
    return [v.reshape(n, n).copy() for v in ker.basis.data]


def spo(two_m: int, odd_dim: int, ctx: FieldCtx) -> LieSuperalgebra:
    """spo(2m|d) for d = 2n or 2n+1, on the standard Gram blocks
    (J_s skew for the symplectic part, J_o symmetric for the orthogonal one);
    odd elements are B in Mat_{2m x d} with C = J_o B^t J_s."""
    if two_m % 2 or two_m < 2 or odd_dim < 1:
        raise InputError("need even 2m >= 2 and odd_dim >= 1")
    m2, d = two_m, odd_dim
    N = m2 + d
    bp = [0] * m2 + [1] * d
    js = _gram_symplectic(ctx, m2 // 2)
    jo = _gram_orthogonal(ctx, d)
    elems = []
    for idx, x in enumerate(_gram_algebra_basis(ctx, js)):
        m = ctx.zeros(N, N)
        m[:m2, :m2] = x
        elems.append((f"sp{idx}", 0, m))
    for idx, x in enumerate(_gram_algebra_basis(ctx, jo)):
        m = ctx.zeros(N, N)
        m[m2:, m2:] = x
        elems.append((f"so{idx}", 0, m))
    for a in range(m2):
        for b in range(d):
            bfull = ctx.zeros(m2, d)
            bfull[a, b] = ctx.one
            cfull = ctx.reduce(jo @ bfull.T @ js)
            m = ctx.zeros(N, N)
            m[:m2, m2:] = bfull
            m[m2:, :m2] = cfull
            elems.append((f"B{a+1},{b+1}", 1, m))
    return algebra_from_matrices(
        ctx, elems, bp, meta={"name": "spo", "two_m": two_m, "odd_dim": odd_dim})


# ---------------------------------------------------------------------------
# periplectic p(n)
# ---------------------------------------------------------------------------

def periplectic(n: int, ctx: FieldCtx) -> LieSuperalgebra:
    """p(n): blocks A arbitrary, D = -A^t, B symmetric, C skew-symmetric.
    Basis order: A{i}{j} row-major, then symmetric B (diagonal first, then
    i<j), then skew C (i<j)."""
    if n < 2:
        raise InputError("need n >= 2")
    N = 2 * n
    bp = [0] * n + [1] * n
    elems = []
    for a in range(n):
        for b in range(n):
            m = ctx.zeros(N, N)
            m[a, b] = ctx.one
            m[n + b, n + a] = ctx.neg(ctx.one)
            elems.append((f"A{a+1},{b+1}", 0, m))
    for a in range(n):
        m = ctx.zeros(N, N)
        m[a, n + a] = ctx.one
        elems.append((f"B{a+1},{a+1}", 1, m))
    for a in range(n):
        for b in range(a + 1, n):
            m = ctx.zeros(N, N)
            m[a, n + b] = ctx.one
            m[b, n + a] = ctx.one
            elems.append((f"B{a+1},{b+1}", 1, m))
    for a in range(n):
        for b in range(a + 1, n):
            m = ctx.zeros(N, N)
            m[n + a, b] = ctx.one
            m[n + b, a] = ctx.neg(ctx.one)
            elems.append((f"C{a+1},{b+1}", 1, m))
    return algebra_from_matrices(ctx, elems, bp,
                                 meta={"name": "p", "n": n})


def periplectic_derived(n: int, ctx: FieldCtx) -> LieSuperalgebra:
    """[p(n), p(n)] = sl_n + whole odd part, as its own algebra."""
    par = periplectic(n, ctx)
    out = par.subalgebra_from_ideal(par.derived_subalgebra())
    out.meta.update({"name": "p_derived", "n": n})
    return out


# ---------------------------------------------------------------------------
# queer family q(n), pq(n), psq(n)
# ---------------------------------------------------------------------------

def queer(n: int, ctx: FieldCtx) -> LieSuperalgebra:
    """q(n): couples (A|B) realized as [[A,B],[B,A]] in gl(n|n); even part
    A{i}{j} row-major, odd part B{i}{j} row-major."""
    if n < 2:
        raise InputError("need n >= 2")
    N = 2 * n
    bp = [0] * n + [1] * n
    elems = []
    for a in range(n):
        for b in range(n):
            m = ctx.zeros(N, N)
            m[a, b] = ctx.one
            m[n + a, n + b] = ctx.one
            elems.append((f"A{a+1},{b+1}", 0, m))
    for a in range(n):
        for b in range(n):
            m = ctx.zeros(N, N)
            m[a, n + b] = ctx.one
            m[n + a, b] = ctx.one
            elems.append((f"B{a+1},{b+1}", 1, m))
    return algebra_from_matrices(ctx, elems, bp,
                                 meta={"name": "q", "n": n})


def pq(n: int, ctx: FieldCtx) -> LieSuperalgebra:
    """q(n) / k.(I|0)"""
    qn = queer(n, ctx)
    # (I|0) is the sum of the diagonal A elements
    v = ctx.zeros(qn.dim)
    for a in range(n):
        v[qn.even_coords[a * n + a]] = ctx.one
    out = qn.quotient(SuperIdeal(qn, Subspace.from_vectors(ctx, qn.dim, [v])))
    out.meta.update({"name": "pq", "n": n})
    return out


def psq(n: int, ctx: FieldCtx) -> LieSuperalgebra:
    """The subalgebra (pgl_n | sl_n) of pq(n)."""
    pqn = pq(n, ctx)
    odd = pqn.odd_coords
    vecs = list(ctx.eye(pqn.dim)[pqn.even_coords])
    for a in range(n):
        for b in range(n):
            if a != b:
                v = ctx.zeros(pqn.dim)
                v[odd[a * n + b]] = ctx.one
                vecs.append(v)
    for a in range(n - 1):
        v = ctx.zeros(pqn.dim)
        v[odd[a * n + a]] = ctx.one
        v[odd[(n - 1) * n + (n - 1)]] = ctx.neg(ctx.one)
        vecs.append(v)
    labels = [pqn.labels[c] for c in pqn.even_coords]
    labels += [f"s{i}" for i in range(len(vecs) - len(labels))]
    out = pqn.subalgebra(Subspace.from_vectors(ctx, pqn.dim, vecs),
                         labels=labels)
    out.meta.update({"name": "psq", "n": n})
    return out


# ---------------------------------------------------------------------------
# sl2 and V = span{v1, v2} as small integer arrays: the data sl2_algebra,
# symn_module, adjoint_sl2_module and d21 read
# ---------------------------------------------------------------------------

def _frozen(rows) -> np.ndarray:
    a = np.array(rows, dtype=np.int64)
    a.setflags(write=False)
    return a


SL2_LABELS = ("H", "E12", "E21")
# SL2_BRACKETS[i, j] = [x_i, x_j] in the basis H, E12, E21
SL2_BRACKETS = _frozen([[[0, 0, 0], [0, 2, 0], [0, 0, -2]],
                        [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
                        [[0, 0, 2], [-1, 0, 0], [0, 0, 0]]])
# the matrices of H, E12, E21 on V: H = diag(1, -1), E12 v2 = v1, E21 v1 = v2
SL2_ON_V = _frozen([[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]])
# the invariant form: <v1, v2> = 1 = -<v2, v1>
SL2_FORM = _frozen([[0, 1], [-1, 0]])
# twice the identification Sym2(V) -> sl2, uv -> (w -> (<u,w> v + <v,w> u) / 2):
# SL2_SYM2[i, j] is twice the image of v_i v_j, so v1 v1 -> 2 E12,
# v2 v2 -> -2 E21 and v1 v2 -> -H
SL2_SYM2 = _frozen([[[0, 2, 0], [-1, 0, 0]],
                    [[-1, 0, 0], [0, 0, -2]]])


def sl2_algebra(ctx: FieldCtx) -> LieSuperalgebra:
    """Purely even algebra on H, E12, E21 inside 2x2 matrices."""
    return algebra_from_matrices(
        ctx, [(label, 0, m) for label, m in
              zip(SL2_LABELS, from_int(ctx, SL2_ON_V, 1))], [0, 0],
        meta={"name": "sl2"})


# ---------------------------------------------------------------------------
# D(2,1;alpha) = Gamma(a1, a2, a3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class D21Params:
    a1: object
    a2: object
    a3: object


@cache
def _d21_ints() -> Tuple[np.ndarray, np.ndarray]:
    """Twice the structure constants of d21 as integer arrays, built from
    the SL2_* arrays: (base, odd).  base (17 x 17 x 17) holds the three
    diagonal copies of the sl2 brackets and [x, v] for x in factor f, whose
    ad on V (x) V (x) V is the Kronecker product with x's matrix in
    place f.  odd[f] (8 x 8 x 9) is the odd-odd block without a_f: Sym2(V)
    -> sl2 on factor f times the invariant form on the other two."""
    base = np.zeros((17, 17, 17), dtype=np.int64)
    odd = np.zeros((3, 8, 8, 9), dtype=np.int64)
    eye = np.eye(2, dtype=np.int64)
    for f in range(3):
        x = slice(3 * f, 3 * f + 3)
        base[x, x, x] = 2 * SL2_BRACKETS
        for g, m in enumerate(SL2_ON_V):
            act = reduce(np.kron, [m if h == f else eye for h in range(3)])
            base[3 * f + g, 9:, 9:] = 2 * act.T
        for k in range(3):
            odd[f, :, :, 3 * f + k] = reduce(
                np.kron, [SL2_SYM2[:, :, k] if h == f else SL2_FORM
                          for h in range(3)])
    base.setflags(write=False)
    odd.setflags(write=False)
    return base, odd


def d21(params: D21Params, ctx: FieldCtx) -> LieSuperalgebra:
    """Even part sl2 x sl2 x sl2 (basis H_f, E_f, F_f per factor), odd part
    V (x) V (x) V with basis v{i}{j}{k} in lexicographic order.  The odd-odd
    bracket is the sum over f of a_f times (Sym2(V) -> sl2 on factor f)
    times the invariant form on the other two factors.  Raises
    JacobiViolation unless a1 + a2 + a3 = 0."""
    a = [ctx.of(params.a1), ctx.of(params.a2), ctx.of(params.a3)]
    base, odd = _d21_ints()
    (ai,), s = int_family(ctx, [np.array(a, dtype=ctx.dtype)])
    ints = base.astype(ai.dtype) * s
    ints[9:, 9:, :9] = np.tensordot(ai, odd, 1)
    labels = [(f"{x}{f}", 0) for f in (1, 2, 3) for x in "HEF"]
    labels += [(f"v{i}{j}{k}", 1) for i in "12" for j in "12" for k in "12"]
    return algebra_from_consts(
        ctx, labels, from_int(ctx, ints, 2 * s),
        meta={"name": "d21", "a1": str(a[0]), "a2": str(a[1]), "a3": str(a[2])})


# ---------------------------------------------------------------------------
# rank-one even part: symmetric-power modules and form-valued brackets
# ---------------------------------------------------------------------------

def adjoint_sl2_module(ctx: FieldCtx) -> GModule:
    """sl2's adjoint module read off SL2_BRACKETS: ad(x_i) is
    SL2_BRACKETS[i].T, with the families exp(t ad E12), exp(t ad E21)."""
    lie = [Matrix.from_int(ctx, b.T) for b in SL2_BRACKETS]
    fams = [CoeffOperatorFamily.exp("X2", lie[1], root=(2,)),
            CoeffOperatorFamily.exp("X-2", lie[2], root=(-2,))]
    return GModule(ctx, SL2_LABELS, SL2_LABELS, lie, fams,
                   weights=[(0,), (2,), (-2,)],
                   brackets=Matrix.from_int(ctx, SL2_BRACKETS.reshape(9, 3)),
                   meta={"name": "adjoint-sl2"})


def symn_module(n: int, ctx: FieldCtx) -> GModule:
    """n-th symmetric power of the tautological rank-2 module.  Basis s_i
    (monomial of weight 2i - n); the group families act through divided
    powers, so they are defined for every characteristic:
      X2[t^k]  s_i = C(n-i, k) s_{i+k}
      X-2[t^k] s_i = C(i, k)   s_{i-k}
    """
    if n < 0:
        raise InputError("n must be nonnegative")
    d = n + 1

    def zeros():
        # Python ints: binomials pass int64 for large n
        return np.zeros((d, d), dtype=object)

    h, e, f = zeros(), zeros(), zeros()
    for i in range(d):
        h[i, i] = 2 * i - n
        if i + 1 <= n:
            e[i + 1, i] = n - i
        if i - 1 >= 0:
            f[i - 1, i] = i
    up_ops = []
    down_ops = []
    for k in range(n + 1):
        up, down = zeros(), zeros()
        for i in range(d):
            if i + k <= n:
                up[i + k, i] = math.comb(n - i, k)
            if i - k >= 0:
                down[i - k, i] = math.comb(i, k)
        up_ops.append(Matrix.from_int(ctx, up))
        down_ops.append(Matrix.from_int(ctx, down))
    fams = [CoeffOperatorFamily("X2", up_ops, (2,)),
            CoeffOperatorFamily("X-2", down_ops, (-2,))]
    return GModule(
        ctx, [f"s{i}" for i in range(d)], SL2_LABELS,
        [Matrix.from_int(ctx, a) for a in (h, e, f)], fams,
        weights=[(2 * i - n,) for i in range(d)],
        brackets=Matrix.from_int(ctx, SL2_BRACKETS.reshape(9, 3)),
        meta={"name": f"sym{n}"})


def symn_dual(n: int, ctx: FieldCtx) -> GModule:
    return dual(symn_module(n, ctx))


class RecurrenceViolation(SuperlieError, ValueError):
    pass


def _sl2_symn(n: int, a, ctx: FieldCtx):
    """(sl2, Sym_n(V)*, bracket, adjoint families): the bracket is a times
    the normalized generator of Hom_G(Sym^2(Sym_n(V)*), sl2)."""
    odd, adj = symn_dual(n, ctx), adjoint_sl2_module(ctx)
    hs, _ = pair_space(odd, hom_space(sym2(odd), adj, mode="group").basis)
    if len(hs) != 1:
        raise RecurrenceViolation(f"{len(hs)} brackets for n={n}, not one")
    consts, _ = normalised(ctx, hs[0])
    bracket = BilinearMap(ctx, ctx.reduce(consts * ctx.of(a)))
    return sl2_algebra(ctx), odd, bracket, adj.families


def sl2_symn_algebra(n: int, a, ctx: FieldCtx) -> LieSuperalgebra:
    """Total superalgebra candidate sl2 + Sym_n(V)* with the form-valued odd
    bracket.  Built unvalidated: the cubic identity genuinely fails for most
    (n, p) and callers probe it with validate_cubic_odd/validate_jacobi."""
    return total_algebra(*_sl2_symn(n, a, ctx)[:3], meta={
        "name": f"sl2+sym{n}*", "a": ctx.scalar_to_str(a)})


def sl2_symn_pair(n: int, a, ctx: FieldCtx) -> HCPair:
    """Fully validated pair; raises CubicViolation outside the small cases
    where the cubic identity actually holds."""
    return assemble_pair(*_sl2_symn(n, a, ctx),
                         meta={"name": f"pair-sl2-sym{n}*",
                               "a": ctx.scalar_to_str(a)})

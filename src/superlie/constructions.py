"""Named builders for the algebra and module families of the catalog.

Every matrix family (gl and sl, so pgl and psl, their quotients by the
scalars; spo, periplectic, queer, so pq and psq; sl2 and brj's sp4) lists
its basis as integer unit entries: X_e = sum v E_ab over its (a, b, v).
One builder, _unit_algebra, reads the structure constants off the
matrix-unit rule [E_ab, E_cd] = d_bc E_ad - (-1)^{|E_ab||E_cd|} d_da E_cb
on integers: no matrix product and no span solve.  Coordinates are read by
position: sl reads its diagonal through a recurrence, every other family
reads each element at its leading unit, which must be 1 and its own.  Each
bracket is checked to be the sum of the basis elements it reads as, so a
hand-listed basis that is not closed is rejected, and the structure
constants are validated as every built algebra's are.  sl2's data is
written once, as small integer arrays (SL2_*): sl2_algebra takes its
matrices from them, symn_module its labels and brackets, adjoint_sl2_module
its labels, brackets and ad(x_i) = SL2_BRACKETS[i].T, and d21 assembles its
constants from the brackets, the action on V, the form and Sym2(V) -> sl2.
Basis orders are fixed and documented per construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations, product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fields import FieldCtx, InputError, SuperlieError
from .linalg import (
    DimensionMismatch,
    OpTable,
    Subspace,
    _array_form,
    _int_form,
    from_int,
    int_family,
    join,
    nonzero_sums,
    run_starts,
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

# (label, parity, [(a, b, v), ...]): the element sum v E_ab
UnitElem = Tuple[str, int, Sequence[Tuple[int, int, int]]]


# ---------------------------------------------------------------------------
# the matrix-unit builder
# ---------------------------------------------------------------------------

def _read(ctx: FieldCtx, units: Tuple[int, int, np.ndarray, np.ndarray],
          group: np.ndarray, pos: np.ndarray,
          val: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates, by position, of the integer matrices M_g = sum val E
    over the terms (g, pos, val) of each g in group, in the basis of a
    matrix-built algebra.  units is (n_amb, dim, entries, reader):
    X_e = sum v E_ab over the columns (e, pos, v) of entries, pos =
    a n_amb + b, and E_ab reads as sum c e_k over the columns (pos, k, c)
    of reader.  Returns (keys, sums, outside): the nonzero coordinates c_k
    of each M_g as sums at keys g dim + k, in increasing order, and the g
    with M_g != sum c_k X_k, in increasing order (repeated): the matrices
    outside the span."""
    n_amb, d, (el, epos, ev), (rpos, rk, rc) = units
    t, u = join(pos, rpos)
    keys, sums = nonzero_sums(ctx, group[t] * d + rk[u], val[t] * rc[u])
    x, y = join(keys % d, el)
    rest, _ = nonzero_sums(ctx, np.concatenate(
        [keys[x] // d * n_amb ** 2 + epos[y], group * n_amb ** 2 + pos]),
        np.concatenate([sums[x] * ev[y], -val]))
    return keys, sums, rest // n_amb ** 2


def _leading_reader(elems: Sequence[UnitElem], el: np.ndarray,
                    pos: np.ndarray, val: np.ndarray) -> np.ndarray:
    """The reader (pos, k, 1) of each element X_k at its leading unit, the
    first of its entries in row-major order: the coordinate of X_k in a
    matrix of the span is its entry there when that entry of X_k is 1 and
    no other element has one there.  Raises InputError otherwise."""
    lead = np.lexsort((pos, el))
    lead = lead[run_starts(el[lead])]
    if len(lead) < len(elems):
        raise InputError("a basis element has no entries")
    bad = np.flatnonzero(val[lead] != 1)
    if len(bad):
        raise InputError(f"leading entry of {elems[bad[0]][0]} is "
                         f"{val[lead[bad[0]]]}, not 1")
    x, y = join(pos[lead], pos)
    bad = np.flatnonzero(x != el[y])
    if len(bad):
        k, e = x[bad[0]], el[y[bad[0]]]
        raise InputError(f"{elems[e][0]} has an entry at the leading unit "
                         f"of {elems[k][0]}")
    return np.array([pos[lead], np.arange(len(elems)), np.ones_like(lead)])


def _unit_algebra(ctx: FieldCtx, block_parities: Sequence[int],
                  elems: Sequence[UnitElem], meta: dict,
                  reader: Optional[np.ndarray] = None) -> LieSuperalgebra:
    """The algebra spanned by the supermatrices X_e = sum v E_ab over the
    integer unit entries (a, b, v) of each (label, parity, entries) of
    elems; block_parities gives the parity of each row and column index.
    Every bracket comes from the matrix-unit rule [E_ab, E_cd] = d_bc E_ad
    - (-1)^{|E_ab||E_cd|} d_da E_cb.  One join of the entries on the middle
    index gives every product term v v' E_ad of X_e X_f, which enters
    [X_e, X_f] as it is and [X_f, X_e] times -(-1)^{|e||f|}; only the pairs
    e <= f are kept (algebra_from_consts fills the rest by
    super-antisymmetry).  The terms are read into coordinates by position
    (_read), with the columns (pos, k, c) of reader, or else
    each element at its leading unit (_leading_reader), summed per
    (e, f, k) on integers, the table algebra_from_consts takes.  Raises
    InputError for an entry against its element's declared parity, and for
    the first pair (e <= f, in row-major order) whose bracket leaves the
    span; the algebra is validated as every built algebra is."""
    n_amb, d = len(block_parities), len(elems)
    el, row, col, val = np.array(
        [(e, a, b, v) for e, (_, _, es) in enumerate(elems) for a, b, v in es],
        dtype=np.int64).reshape(-1, 4).T
    # entry (a, b) of a homogeneous element has parity bp[a] + bp[b]
    bp = np.asarray(block_parities)
    parities = np.array([parity for _, parity, _ in elems], dtype=np.int64)
    bad = np.flatnonzero((bp[row] + bp[col]) % 2 != parities[el])
    if len(bad):
        e, a, b = min(zip(el[bad], row[bad], col[bad]))
        raise InputError(f"entry ({a},{b}) of {elems[e][0]} violates "
                         f"declared parity {elems[e][1]}")
    pos = row * n_amb + col
    if reader is None:
        reader = _leading_reader(elems, el, pos, val)
    units = (n_amb, d, np.array([el, pos, val]), reader)
    odd = parities.astype(bool)
    x, y = join(col, row)
    e, f = el[x], el[y]
    sign = np.where(odd[e] & odd[f], -1, 1)
    coef = (e <= f).astype(np.int64) - sign * (e >= f)
    keep = np.flatnonzero(coef)
    x, y, e, f = x[keep], y[keep], e[keep], f[keep]
    keys, sums, outside = _read(
        ctx, units, np.minimum(e, f) * d + np.maximum(e, f),
        row[x] * n_amb + col[y], val[x] * val[y] * coef[keep])
    if len(outside):
        i, j = divmod(int(outside[0]), d)
        raise InputError(f"bracket [{elems[i][0]},{elems[j][0]}] "
                         "leaves the span")
    alg = algebra_from_consts(
        ctx, [(label, parity) for label, parity, _ in elems],
        OpTable.from_keys(ctx, d, d, keys, sums), meta=meta)
    mats = ctx.zeros(d, n_amb, n_amb)
    mats[el, row, col] = from_int(ctx, val, 1)
    alg.matrix_basis = list(mats)  # type: ignore[attr-defined]
    alg.matrix_units = units  # type: ignore[attr-defined]
    return alg


def _units(m: np.ndarray) -> List[Tuple[int, int, int]]:
    """The unit entries (a, b, v) of an integer matrix, in row-major order."""
    return [(int(a), int(b), int(m[a, b])) for a, b in zip(*np.nonzero(m))]


def coords_of_matrix(alg: LieSuperalgebra, m: np.ndarray) -> Optional[np.ndarray]:
    """Coordinates of an ambient matrix in a matrix-built algebra's basis,
    read by position as the builder reads its brackets, or None if the
    matrix is outside the span."""
    coords = _int_coords(alg, m)
    return None if coords is None else from_int(alg.ctx, *coords)


def _int_coords(alg: LieSuperalgebra,
                m: np.ndarray) -> Optional[Tuple[np.ndarray, int]]:
    """coords_of_matrix as (C, s), the coordinates C / s on integers."""
    units = alg.matrix_units  # type: ignore[attr-defined]
    ctx, m, n_amb = alg.ctx, np.asarray(m), units[0]
    if m.shape != (n_amb, n_amb):
        raise DimensionMismatch(f"rows of shape {m.shape} for {n_amb} x "
                                f"{n_amb} matrices")
    ints, s = _array_form(ctx, m.reshape(-1))
    pos = np.flatnonzero(ints)
    keys, sums, outside = _read(ctx, units, np.zeros(len(pos), np.int64),
                                pos, ints[pos])
    if len(outside):
        return None
    coords = np.zeros(alg.dim, dtype=sums.dtype)
    coords[keys] = sums
    return coords, s


# ---------------------------------------------------------------------------
# gl / sl / pgl / psl
# ---------------------------------------------------------------------------

def _gl_sl(m: int, n: int, ctx: FieldCtx, name: str) -> LieSuperalgebra:
    """gl(m|n) on the units E_ab, or sl(m|n) on the off-diagonal units and
    the supertraceless diagonal H_i = E_ii - E_(i+1)(i+1), except across
    the parity boundary, where H_m = E_mm + E_(m+1)(m+1).  Basis: the even
    units row-major (A block, then D block), sl's H_i, then the odd units
    row-major (B block, then C block).  Labels E{a},{b} and H{i}, 1-based.
    A unit reads as its own basis element (gl's leading-unit reader).  sl
    reads its diagonal through a recurrence: a diagonal matrix
    sum d_a E_aa of supertrace zero is sum h_i H_i with
    h_0 = d_0 and h_(i+1) = d_(i+1) +- h_i, so E_aa reads as
    sum T[a, i] H_i for the N x (N-1) integer matrix T[a, i] = 0 for a > i,
    -1 for a < m <= i, else 1."""
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
    reader = None
    if traceless:
        reader = [(a * N + b, k, 1) for k, (_, _, es) in enumerate(elems)
                  if len(es) == 1 for a, b, _ in es]
        reader += [(a * N + a, len(units[0]) + i, -1 if a < m <= i else 1)
                   for i in hs for a in range(i + 1)]
        reader = np.array(reader).T
    return _unit_algebra(ctx, bp, elems, {"name": name, "m": m, "n": n},
                         reader)


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
    """Coordinates of the identity matrix in a matrix-built algebra, read
    off the integer unit matrix: integers (residues over F_p)."""
    n_amb = alg.matrix_units[0]  # type: ignore[attr-defined]
    coords = _int_coords(alg, np.eye(n_amb, dtype=np.int64))
    if coords is None:
        raise CenterNotInside("identity matrix is not in the algebra")
    return coords[0]


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

def _gram_symplectic(m: int) -> np.ndarray:
    j = np.zeros((2 * m, 2 * m), dtype=np.int64)
    j[range(m), range(m, 2 * m)] = 1
    j[range(m, 2 * m), range(m)] = -1
    return j


def _gram_orthogonal(d: int) -> np.ndarray:
    n = d // 2
    j = np.zeros((d, d), dtype=np.int64)
    j[range(n), range(n, 2 * n)] = j[range(n, 2 * n), range(n)] = 1
    if d % 2:
        j[d - 1, d - 1] = 1
    return j


def _gram_units(g: np.ndarray) -> List[List[Tuple[int, int, int]]]:
    """The unit entries of the canonical (reduced echelon) basis of
    {X : X^t g + g X = 0}, for a symmetric or skew integer Gram matrix g
    with one entry g[a, s(a)] = +-1 in each row.  Entry (a, b) of that
    equation reads g[a, s a] x_ab + g[b, s b] x_(s b)(s a) = 0, so it ties
    each unit (a, b) to its partner (s b, s a): each pair whose first unit
    in row-major order is (a, b) gives one element, 1 there and
    -g[a, s a] g[b, s b] at the partner, and a unit that is its own
    partner gives one where g is skew there and none where it is
    symmetric.  The elements are in row-major order of (a, b)."""
    n = len(g)
    s = np.abs(g).argmax(axis=1)
    sg = [int(g[a, s[a]]) for a in range(n)]
    out = []
    for a, b in product(range(n), repeat=2):
        partner = (int(s[b]), int(s[a]))
        if partner > (a, b):
            out.append([(a, b, 1), (*partner, -sg[a] * sg[b])])
        elif partner == (a, b) and sg[a] + sg[b] == 0:
            out.append([(a, b, 1)])
    return out


def spo(two_m: int, odd_dim: int, ctx: FieldCtx) -> LieSuperalgebra:
    """spo(2m|d) for d = 2n or 2n+1, on the standard Gram blocks
    (J_s skew for the symplectic part, J_o symmetric for the orthogonal one).
    Basis: sp{i} and so{i}, the canonical bases of the two blocks'
    algebras (_gram_units), then the odd B{a},{b}: the unit E_ab of
    Mat_{2m x d} in the upper right block, row-major, with
    C = J_o B^t J_s = J_o[s b, b] J_s[a, s a] E_(s b)(s a) in the lower
    left, for the involution s of each Gram matrix."""
    if two_m % 2 or two_m < 2 or odd_dim < 1:
        raise InputError("need even 2m >= 2 and odd_dim >= 1")
    m2, d = two_m, odd_dim
    js, jo = _gram_symplectic(m2 // 2), _gram_orthogonal(d)
    ss, so = np.abs(js).argmax(axis=1), np.abs(jo).argmax(axis=1)
    elems = [(f"sp{i}", 0, es) for i, es in enumerate(_gram_units(js))]
    elems += [(f"so{i}", 0, [(m2 + a, m2 + b, v) for a, b, v in es])
              for i, es in enumerate(_gram_units(jo))]
    elems += [(f"B{a+1},{b+1}", 1, [
        (a, m2 + b, 1),
        (m2 + int(so[b]), int(ss[a]), int(jo[so[b], b] * js[a, ss[a]]))])
        for a in range(m2) for b in range(d)]
    return _unit_algebra(ctx, [0] * m2 + [1] * d, elems, meta={
        "name": "spo", "two_m": two_m, "odd_dim": odd_dim})


# ---------------------------------------------------------------------------
# periplectic p(n)
# ---------------------------------------------------------------------------

def periplectic(n: int, ctx: FieldCtx) -> LieSuperalgebra:
    """p(n): blocks A arbitrary, D = -A^t, B symmetric, C skew-symmetric.
    Basis order: A{i}{j} row-major, then symmetric B (diagonal first, then
    i<j), then skew C (i<j)."""
    if n < 2:
        raise InputError("need n >= 2")
    elems = [(f"A{a+1},{b+1}", 0, [(a, b, 1), (n + b, n + a, -1)])
             for a, b in product(range(n), repeat=2)]
    elems += [(f"B{a+1},{a+1}", 1, [(a, n + a, 1)]) for a in range(n)]
    elems += [(f"B{a+1},{b+1}", 1, [(a, n + b, 1), (b, n + a, 1)])
              for a, b in combinations(range(n), 2)]
    elems += [(f"C{a+1},{b+1}", 1, [(n + a, b, 1), (n + b, a, -1)])
              for a, b in combinations(range(n), 2)]
    return _unit_algebra(ctx, [0] * n + [1] * n, elems,
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
    units = list(product(range(n), repeat=2))
    elems = [(f"A{a+1},{b+1}", 0, [(a, b, 1), (n + a, n + b, 1)])
             for a, b in units]
    elems += [(f"B{a+1},{b+1}", 1, [(a, n + b, 1), (n + a, b, 1)])
              for a, b in units]
    return _unit_algebra(ctx, [0] * n + [1] * n, elems,
                         meta={"name": "q", "n": n})


def pq(n: int, ctx: FieldCtx) -> LieSuperalgebra:
    """q(n) / k.(I|0)"""
    qn = queer(n, ctx)
    # (I|0) is the sum of the diagonal A elements
    v = np.zeros(qn.dim, dtype=np.int64)
    v[[qn.even_coords[a * n + a] for a in range(n)]] = 1
    out = qn.quotient(SuperIdeal(qn, Subspace.from_vectors(ctx, qn.dim, [v])))
    out.meta.update({"name": "pq", "n": n})
    return out


def psq(n: int, ctx: FieldCtx) -> LieSuperalgebra:
    """The subalgebra (pgl_n | sl_n) of pq(n)."""
    pqn = pq(n, ctx)
    odd = pqn.odd_coords
    # integer unit vectors: the even part, the off-diagonal odd units and
    # the odd diagonal differences with the last
    eye = np.eye(pqn.dim, dtype=np.int64)
    vecs = list(eye[pqn.even_coords])
    vecs += [eye[odd[a * n + b]] for a in range(n) for b in range(n) if a != b]
    vecs += [eye[odd[a * n + a]] - eye[odd[n * n - 1]] for a in range(n - 1)]
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
    return _unit_algebra(ctx, [0, 0], [(label, 0, _units(m)) for label, m
                                       in zip(SL2_LABELS, SL2_ON_V)],
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
        ctx, labels, OpTable.from_dense(ctx, *_int_form(ctx, ints, 2 * s)),
        meta={"name": "d21", "a1": str(a[0]), "a2": str(a[1]), "a3": str(a[2])})


# ---------------------------------------------------------------------------
# rank-one even part: symmetric-power modules and form-valued brackets
# ---------------------------------------------------------------------------

def adjoint_sl2_module(ctx: FieldCtx) -> GModule:
    """sl2's adjoint module read off SL2_BRACKETS: ad(x_i) is
    SL2_BRACKETS[i].T, the table of the transposed brackets, with the
    families exp(t ad E12), exp(t ad E21)."""
    lie = OpTable.from_dense(ctx, ctx.reduce(SL2_BRACKETS.transpose(0, 2, 1)))
    ads = lie.matrices()
    fams = CoeffOperatorFamily.batch(
        (label, CoeffOperatorFamily.exp_ops(label, ads[i]), root)
        for label, i, root in (("X2", 1, (2,)), ("X-2", 2, (-2,))))
    return GModule(ctx, SL2_LABELS, SL2_LABELS, lie, fams,
                   weights=[(0,), (2,), (-2,)],
                   brackets=SL2_BRACKETS, meta={"name": "adjoint-sl2"})


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
    # up[k] is X2[t^k], Python ints (binomials pass int64 for large n); op
    # n + 1 is zero, so up[1] is E12 when n = 0 too.  X-2[t^k] and E21 are
    # the same operators on the reversed basis
    up = np.zeros((d + 1, d, d), dtype=object)
    for k in range(d):
        for i in range(d - k):
            up[k, i + k, i] = math.comb(n - i, k)
    down = up[:, ::-1, ::-1]
    h = np.diag(np.arange(-n, n + 1, 2)).astype(object)
    # one table: the Lie action, then X2[t^1..t^n] and X-2[t^1..t^n]
    table = OpTable.from_dense(ctx, ctx.reduce(np.concatenate(
        [np.array([h, up[1], down[1]]), up[1:d], down[1:d]])))
    return GModule.on_table(
        ctx, [f"s{i}" for i in range(d)], SL2_LABELS, table,
        [3, 3 + n, 3 + 2 * n], [("X2", (2,)), ("X-2", (-2,))],
        weights=[(2 * i - n,) for i in range(d)],
        brackets=OpTable.from_dense(ctx, *_array_form(ctx, SL2_BRACKETS)),
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
    bracket, _ = normalised(ctx, hs[0], a)
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

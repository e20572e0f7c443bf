"""Harish-Chandra pairs: a purely even algebra with a group-style module
structure on an odd space and a symmetric equivariant bracket back into the
even part.  Assembly checks the three pair axioms exactly:

1. the bracket is symmetric,
2. X(t)[v, w] = [X(t)v, X(t)w] as polynomial identities in t, where X(t)
   acts on the even part through the matching adjoint coefficient family,
3. [[v, v], v] = 0 symbolically in the odd coordinates.

The assembled object carries the total Lie superalgebra, which is also put
through the full Jacobi validation.  pair_space finds every bracket that
meets axioms 2 and 3 from a basis of the equivariant maps Sym^2 V -> g.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import takewhile
from math import isqrt, lcm
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .fields import FieldCtx, InputError, SuperlieError, json_ints
from .linalg import (
    DimensionMismatch,
    Matrix,
    OpTable,
    Subspace,
    _array_form,
    from_int,
    int_bilinear,
    int_family,
    int_matmul,
    join,
    kernel,
    keyed_rows,
    largest_invariant_within,
    nonzero_sums,
    nonzeros,
)
from .modules import (
    CoeffOperatorFamily,
    GModule,
    _block,
    _families_on,
    _family_ops,
    _induced,
    _kron_coeffs,
    _op_names,
    module_from_json_dict,
    quotient_module,
    square_layout,
    trivial_quotient_defect,
)
from .superalgebra import (
    LieSuperalgebra,
    SuperIdeal,
    algebra_from_consts,
    algebra_from_json_dict,
)


class SymmetryViolation(SuperlieError, ValueError):
    pass


class EquivarianceViolation(SuperlieError, ValueError):
    def __init__(self, family_label: str, power: int, pair: Tuple[int, int]):
        super().__init__(
            f"equivariance fails for {family_label} at t^{power} on basis "
            f"pair {pair}")
        self.family_label = family_label
        self.power = power
        self.pair = pair


class CubicViolation(SuperlieError, ValueError):
    def __init__(self, witness):
        super().__init__(f"[[v,v],v] does not vanish; witness {witness}")
        self.witness = witness


class NotNormal(SuperlieError, ValueError):
    pass


class InvalidSubpair(SuperlieError, ValueError):
    pass


class BilinearMap:
    """Symmetric bilinear map V x V -> g, held as one (dim_v^2, dim_g)
    Matrix bracket_matrix: row i dim_v + j holds [v_i, v_j].  The
    constructor takes that Matrix, or reads it from the (dim_v, dim_v,
    dim_g) field array of canonical scalars in ctx.zeros' dtype, and checks
    the shape, the dtype and the symmetry."""

    def __init__(self, ctx: FieldCtx, consts: Union[np.ndarray, Matrix]):
        if not isinstance(consts, Matrix):
            shape, dtype = consts.shape, consts.dtype
            if len(shape) != 3 or shape[0] != shape[1] or dtype != ctx.dtype:
                raise DimensionMismatch(
                    f"bracket array of shape {shape} and dtype {dtype}")
            consts = Matrix(ctx, consts.reshape(shape[0] ** 2, shape[2]))
        n = isqrt(consts.rows)
        c = consts.ints.reshape(n, n, consts.cols)
        bad = np.argwhere(c != c.transpose(1, 0, 2))
        if len(bad):
            raise SymmetryViolation(
                f"conflicting values for pair {tuple(bad[0, :2].tolist())}")
        self.ctx, self.dim_v, self.bracket_matrix = ctx, n, consts
        # the integer form as a (dim_v, dim_v, dim_g) array, over scale
        self.ints, self.scale, self.dim_g = c, consts.scale, consts.cols

    @classmethod
    def from_entries(cls, ctx: FieldCtx, dim_v: int, dim_g: int,
                     entries: Dict[Tuple[int, int], np.ndarray]) -> "BilinearMap":
        """The map with [v_i, v_j] = [v_j, v_i] = value for each (i, j) ->
        value of entries.  A zero value sets nothing; two nonzero values
        for one pair must agree, else SymmetryViolation."""
        consts = ctx.zeros(dim_v, dim_v, dim_g)
        for (i, j), v in entries.items():
            v = ctx.reduce(np.asarray(v))
            if v.shape != (dim_g,):
                raise DimensionMismatch("bracket value length mismatch")
            if not (0 <= i < dim_v and 0 <= j < dim_v):
                raise DimensionMismatch(
                    f"bracket pair ({i}, {j}) out of range")
            key = (min(i, j), max(i, j))
            if consts[key].any() and ctx.reduce(consts[key] - v).any():
                raise SymmetryViolation(f"conflicting values for pair {key}")
            consts[i, j] = consts[j, i] = v
        return cls(ctx, consts)

    @property
    def consts(self) -> np.ndarray:
        """The read-only (dim_v, dim_v, dim_g) field array, for output:
        consts[i, j, k] is the coefficient of e_k in [v_i, v_j]."""
        return self.bracket_matrix.data.reshape(self.dim_v, self.dim_v, self.dim_g)

    def is_zero(self) -> bool:
        return self.bracket_matrix.is_zero()

    def brackets(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """[x_r, y_s] for every row x_r of xs and y_s of ys, as row
        r * len(ys) + s: int_bilinear on the integer forms, over one scale
        t for the rows, so over scale t^2."""
        (x, y), t = int_family(self.ctx, [xs, ys])
        out = int_bilinear(self.ctx, self.ints, x, y)
        return from_int(self.ctx, out.reshape(-1, self.dim_g),
                        self.scale * t * t)

    def annihilator(self) -> Subspace:
        """{v : [v, w] = 0 for all w}: the kernel of the dim_v^2 dim_g x
        dim_v matrix whose column i holds every [v_i, v_j]."""
        n = self.dim_v
        return kernel(Matrix.from_int(self.ctx, self.bracket_matrix.ints.reshape(
            n, n * self.dim_g).T, reduced=True))


@dataclass(frozen=True)
class SubpairSpec:
    h_lie: Subspace
    h_generators: Tuple[str, ...]
    w: Subspace


@dataclass
class HCPair:
    even: LieSuperalgebra
    odd: GModule
    bracket: BilinearMap
    adjoint_families: Tuple[CoeffOperatorFamily, ...]
    algebra: LieSuperalgebra
    certificate: Dict = field(default_factory=dict)
    meta: Dict = field(default_factory=dict)

    @property
    def dims(self) -> Tuple[int, int]:
        return self.even.dim, self.odd.dim


def _check_equivariance(odd: GModule, bracket: BilinearMap,
                        adjoint_families: Sequence[CoeffOperatorFamily]):
    """Axiom 2 for every family X of the odd module, coefficientwise in t,
    on Sym^2 V: f S_m = G_m f for m = 1..max(2 deg X, deg G).

    f is the bracket as a map on the square_layout basis of Sym^2 V,
    f(v_i v_j) = [v_i, v_j] for i = j and 2 [v_i, v_j] for i < j; S_m and
    G_m are the t^m coefficients of X(t) on Sym^2 V (_kron_coeffs with the
    layout's fold) and of the adjoint family with the same label.  Column
    (i, j) of f S_m - G_m f is the t^m coefficient of X(t)[v_i, v_j] -
    [X(t)v_i, X(t)v_j], times 2 if i < j (a unit: p is odd), and on integer
    forms f = K / c, S_m = J / s, G_m = H / v it is (v K J - s H K) / vcs.
    Raises at the first failing family, least pair i <= j, least m.

    Every K J_m comes from one join of the entries of K with the table of
    all the J_m (one _kron_coeffs of the odd module's table), every H_m K
    from one join of K with the adjoint families' table; past its degree
    each side is zero.  A key packs (family, pair, m, row), so the least
    one left fails first, before a family with no adjoint family."""
    ctx, dg = odd.ctx, bracket.dim_g
    adj = {f.label: f for f in adjoint_families}
    fams = list(odd.families)
    missing = next((i for i, f in enumerate(fams) if f.label not in adj),
                   len(fams))
    fams = fams[:missing]
    pairs, _, fold = square_layout(odd.dim, +1)
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    # K^T up to the bracket's scale, which changes no zero test
    kr, kc, kv = nonzeros(ctx.reduce(
        bracket.ints[i, j] * (1 + (i < j))[:, None]))
    if fams:
        t = odd.table
        # op jo[f] + m - 1 of js is J_m of family f
        js = _kron_coeffs(t, t, [([-1, *range(f.lo, f.lo + f.degree)],) * 2
                                 + (range(1, 2 * f.degree + 1),)
                                 for f in fams], fold)
        jo = np.cumsum([0] + [2 * f.degree for f in fams])
        hs, ho = _block([adj[f.label] for f in fams])
        top = 1 + max(max(2 * f.degree, adj[f.label].degree) for f in fams)
        o, r, c, v = js.entries()
        g, m = _family_ops(jo, o)
        x, y = join(r, kr)
        keys = [((g[x] * len(pairs) + c[x]) * top + m[x]) * dg + kc[y]]
        vals = [ctx.reduce(v[x] * kv[y]) * hs.scale]
        o, r, c, v = hs.entries(ho[0], ho[-1])
        g, m = _family_ops(ho, o)
        x, y = join(c, kc)
        keys.append(((g[x] * len(pairs) + kr[y]) * top + m[x]) * dg + r[x])
        vals.append(ctx.reduce(-v[x] * kv[y]) * js.scale)
        keys, _ = nonzero_sums(ctx, np.concatenate(keys), np.concatenate(vals))
        if len(keys):
            f, rest = divmod(int(keys[0]) // dg, len(pairs) * top)
            c, m = divmod(rest, top)
            raise EquivarianceViolation(fams[f].label, m, pairs[c])
    if missing < len(odd.families):
        raise EquivarianceViolation(odd.families[missing].label, -1, (-1, -1))


def _coefficients(ctx: FieldCtx, n: int,
                  fams: Sequence[CoeffOperatorFamily]
                  ) -> Tuple[OpTable, np.ndarray]:
    """(table, offsets): A_1, A_2, ... of fams[i], families on ctx^n, are
    the ops offsets[i], ... of table, which holds no other op: one pick of
    _block's."""
    if not fams:
        return OpTable.empty(ctx, n), np.zeros(1, dtype=np.int64)
    t, offsets = _block(fams)
    return t.pick(range(offsets[0], offsets[-1])), offsets - offsets[0]


def total_algebra(even: LieSuperalgebra, odd: GModule, bracket: BilinearMap,
                  meta: dict) -> LieSuperalgebra:
    """The superalgebra even + odd, unvalidated.  Its structure constants
    are three blocks of entries, on one scale: the even algebra's own, the
    odd action [e_i, v_j] = lie_action[i] v_j and the odd bracket; the
    mirror of the odd action is completed by super-antisymmetry."""
    ctx, ne, no, lie = even.ctx, even.dim, odd.dim, odd.table
    n, g = ne + no, even.bracket_table
    t = lcm(g.scale, bracket.scale, lie.scale)
    i, j, k, v = g.entries(scale=t)
    a, r, c, w = lie.entries(0, len(odd.lie_labels), t)
    x, y, z, u = nonzeros(bracket.ints)
    keys, vals = nonzero_sums(ctx, np.concatenate([
        (i * n + j) * n + k, (a * n + ne + c) * n + ne + r,
        ((ne + x) * n + ne + y) * n + z]),
        np.concatenate([v, w, u * (t // bracket.scale)]))
    basis = [(l, 0) for l in even.labels] + [(l, 1) for l in odd.labels]
    return algebra_from_consts(ctx, basis, OpTable.from_keys(
        ctx, n, n, keys, vals, t), meta=meta, validate=False)


def assemble_pair(even: LieSuperalgebra, odd: GModule, bracket: BilinearMap,
                  adjoint_families: Sequence[CoeffOperatorFamily],
                  meta: Optional[dict] = None) -> HCPair:
    """Validated Harish-Chandra pair.  Runs the symmetry, equivariance and
    cubic axioms, assembles the total superalgebra and validates Jacobi."""
    if any(p for p in even.parities):
        raise DimensionMismatch("even part must be purely even")
    if odd.lie_labels != even.labels:
        raise DimensionMismatch("odd module does not act under the even basis")
    if bracket.dim_v != odd.dim or bracket.dim_g != even.dim:
        raise DimensionMismatch("bracket shape mismatch")
    for f in adjoint_families:
        if f.dim != even.dim:
            raise DimensionMismatch("adjoint family shape mismatch")

    _check_equivariance(odd, bracket, adjoint_families)

    meta = dict(meta or {})
    meta.setdefault("name", "pair")
    alg = total_algebra(even, odd, bracket, meta)
    cubic = alg.validate_cubic_odd()
    if not cubic.ok:
        raise CubicViolation(cubic.witness)
    alg.validate()
    cert = {
        "symmetric": True,
        "equivariant_families": [f.label for f in odd.families],
        "cubic": True,
        "jacobi": True,
        "group_level_assumptions": "declared, not computed",
    }
    return HCPair(even=even, odd=odd, bracket=bracket,
                  adjoint_families=tuple(adjoint_families), algebra=alg,
                  certificate=cert, meta=meta)


def pair_space(odd: GModule,
               basis: Sequence[Matrix]) -> Tuple[np.ndarray, np.ndarray]:
    """The pair brackets on the odd module V: the space H = Hom_G(Sym^2 V,
    g) and K, the kernel on H of the cubic map.

    basis is a basis of H from hom_space(sym2(odd), adjoint, mode="group"),
    maps on the square_layout basis of Sym^2 V (DimensionMismatch unless
    dim g x n(n+1)/2); no solve is made here.  A map f gives the bracket
    [v_i, v_j] = f(v_i v_j), halved off the diagonal (v_i v_j is the image
    of v_i (x) v_j + v_j (x) v_i).  The cubic map [[v, v], v] is linear in
    the bracket: one join of the brackets' entries [v_a, v_b]_m with the
    odd action's [f_m, v_c]_l gives every term, summed per (l, monomial,
    map).  For odd p, K is exactly the set of pair structures.  Returns
    the (dim, n, n, dim g) bracket stacks of bases of H and K on integers
    (residues over F_p), each bracket up to a nonzero scalar, which
    normalised fixes."""
    ctx, n, dg = odd.ctx, odd.dim, len(odd.lie_labels)
    pairs, pos, _ = square_layout(n, +1)
    if any(f.shape != (dg, len(pairs)) for f in basis):
        raise DimensionMismatch(f"maps Sym^2 V -> g are {dg} x {len(pairs)}")
    fs, _ = int_family(ctx, basis)
    fs = np.array(fs, dtype=ctx.dtype).reshape(len(basis), dg, len(pairs))
    # twice the brackets: f(v_i v_i) doubled on the diagonal
    hs = ctx.reduce(fs[:, :, pos].transpose(0, 2, 3, 1)
                    * (1 + np.eye(n, dtype=np.int64))[..., None])
    h, a, b, m, v = nonzeros(hs)
    op, r, c, w = odd.table.entries(0, dg)
    x, y = join(m, op)
    abc = np.sort(np.column_stack([a[x], b[x], c[y]]), axis=1)
    keys, sums = nonzero_sums(
        ctx, (r[y] * n ** 3 + abc @ [n * n, n, 1]) * len(hs) + h[x],
        ctx.reduce(v[x] * w[y]))
    _, rows = keyed_rows(keys // len(hs), keys % len(hs), sums, len(hs))
    k = kernel(Matrix.from_int(ctx, rows, reduced=True)).basis.ints
    return hs, int_matmul(ctx, k, hs.reshape(len(hs), n * n * dg)).reshape(
        len(k), n, n, dg)


def normalised(ctx: FieldCtx, consts: np.ndarray,
               value=1) -> Tuple[BilinearMap, Tuple[int, int, int]]:
    """The bracket of consts, a symmetric exact array known up to a
    nonzero scalar (as pair_space gives them), scaled so that its first
    nonzero constant in (i <= j, target) order is value, and that
    constant's position (i, j, target); InputError for the zero bracket."""
    ints, _ = _array_form(ctx, consts)
    iu = np.triu_indices(ints.shape[0])
    nonzero = np.flatnonzero(ints[iu])
    if not len(nonzero):
        raise InputError("the zero bracket cannot be normalised")
    row, target = divmod(int(nonzero[0]), ints.shape[2])
    pos = (int(iu[0][row]), int(iu[1][row]), target)
    v = ctx.of(value)  # a residue (an int) or a Fraction
    return BilinearMap(ctx, Matrix.from_int(
        ctx, ints.reshape(-1, ints.shape[2]) * v.numerator,
        ints[pos] * v.denominator)), pos


def is_split(pair: HCPair) -> bool:
    return pair.bracket.is_zero()


def check_sas_conditions(pair: HCPair):
    """Module-level SAS conditions: (1) the group acts with no nonzero
    trivial quotient on the odd part; (2) the bracket-annihilator contains no
    nonzero invariant subspace.  The group-level almost-simplicity of the even
    group is an input assumption, recorded in the details."""
    odd = pair.odd
    defect = trivial_quotient_defect(odd)
    cond1 = defect.dim == odd.dim
    ann = pair.bracket.annihilator()
    core = largest_invariant_within(ann, odd.table)
    cond2 = core.dim == 0
    details = {
        "trivial_quotient_defect_dim": defect.dim,
        "odd_dim": odd.dim,
        "annihilator_dim": ann.dim,
        "annihilator_core_dim": core.dim,
        "group_assumption": "even group almost-simple: declared, not computed",
    }
    if not cond1:
        details["defect"] = defect
    if not cond2:
        details["annihilator_core"] = core
    return cond1, cond2, details


def check_normality(pair: HCPair, s: SubpairSpec) -> Dict:
    """Normality conditions for a subpair, at the level checkable from
    module data.  cond1 is the algebra-level ideal condition; cond2-cond4
    are checked directly on the declared generators.  Each condition is
    one batched containment test on integer forms: every image
    (OpTable.images) lies in the space iff all its residuals vanish.  The
    bases' rows and the operator tables are taken up to scale, which
    changes no span."""
    ctx, odd, n = pair.even.ctx, pair.odd, pair.odd.dim
    if s.h_lie.ambient_dim != pair.even.dim or s.w.ambient_dim != n:
        raise InvalidSubpair("subpair ambient dimensions do not match")
    h, w = s.h_lie.basis.ints, s.w.basis.ints
    c = pair.bracket.ints

    def inside(space: Subspace, rows: np.ndarray) -> bool:
        return not space._residual(rows).astype(bool).any()

    def brackets(vs: np.ndarray) -> np.ndarray:
        # every [v, x], for the rows v of vs and x of w
        return int_bilinear(ctx, c, vs, w).reshape(-1, pair.even.dim)

    # subpair internal validity: w closed under H, bracket(w, w) in h_lie.
    # gens: A_k, k >= 1, of the generator families, one pick of the
    # table, up to the first unknown label, which raises LabelMismatch
    # after them
    fams = {f.label: f for f in odd.families}
    fams = [fams[label] for label in takewhile(fams.__contains__,
                                               s.h_generators)]
    gens = odd.table.pick([o for f in fams
                           for o in range(f.lo, f.lo + f.degree)])
    out = s.w._residual(gens.images(w)).astype(bool).any(axis=1)
    out = out.reshape(len(w), gens.count).any(axis=0)
    if out.any():
        owner = np.repeat(np.arange(len(fams)), [f.degree for f in fams])
        raise InvalidSubpair(
            f"w not closed under {fams[owner[np.argmax(out)]].label}")
    if len(fams) < len(s.h_generators):
        odd.family_by_label(s.h_generators[len(fams)])
    # the actions on V of the basis rows of Lie(H), up to a scale
    nl = len(odd.lie_labels)
    acts = int_matmul(ctx, h, odd.table.dense(0, nl).reshape(nl, n * n))
    acts = OpTable.from_dense(ctx, acts.reshape(len(h), n, n))
    if not inside(s.w, acts.images(w)):
        raise InvalidSubpair("w not closed under Lie(H)")
    if not inside(s.h_lie, brackets(w)):
        raise InvalidSubpair("bracket(w, w) leaves Lie(H)")

    report: Dict[str, bool] = {}
    # (1) at algebra level: Lie(H) is an ideal, stable under adjoint families
    report["cond1_algebra_level"] = (SuperIdeal(pair.even, s.h_lie).verify()
                                     and inside(s.h_lie, _coefficients(
                                         ctx, pair.even.dim,
                                         pair.adjoint_families)[0].images(h)))
    # (2) w invariant under every operator of the whole pair
    report["cond2"] = inside(s.w, odd.table.images(w))
    # (3) H acts trivially on V/w: the images of the unit vectors under
    # the positive-power ops of the generator families and under Lie(H)
    # land in w
    eye = np.eye(n, dtype=ctx.dtype)
    report["cond3"] = inside(s.w, gens.images(eye)) and inside(
        s.w, acts.images(eye))
    # (4) [V, w] inside Lie(H)
    report["cond4"] = inside(s.h_lie, brackets(eye))
    report["ok"] = all(report.values())
    return report


def quotient_pair(pair: HCPair, s: SubpairSpec) -> HCPair:
    report = check_normality(pair, s)
    if not report["ok"]:
        raise NotNormal(f"normality criterion fails: {report}")
    ctx = pair.even.ctx
    even_q = pair.even.quotient(SuperIdeal(pair.even, s.h_lie))
    keep_g = [i for i in range(pair.even.dim) if i not in set(s.h_lie.pivots)]
    odd_q_all = quotient_module(pair.odd, s.w)
    # the Lie ops of keep_g and every family op, one pick of the table
    t, nl = odd_q_all.table, pair.even.dim
    odd_q = GModule.on_table(
        ctx, odd_q_all.labels, even_q.labels,
        t.pick(keep_g + list(range(nl, t.count))),
        odd_q_all.offsets - (nl - len(keep_g)),
        [(f.label, f.root) for f in odd_q_all.families],
        weights=odd_q_all.weights,
        meta={"name": pair.meta.get("name", "pair") + "/sub"})
    keep_v = [i for i in range(pair.odd.dim) if i not in set(s.w.pivots)]
    dv = len(keep_v)
    b = pair.bracket
    rows = b.ints[np.ix_(keep_v, keep_v)].reshape(dv * dv, pair.even.dim)
    bracket_q = BilinearMap(ctx, Matrix.from_int(
        ctx, s.h_lie._residual(rows)[:, keep_g],
        s.h_lie.basis.scale * b.scale, reduced=True))
    reps_g = np.eye(pair.even.dim, dtype=np.int64)[keep_g]
    adj = pair.adjoint_families
    coeffs, offsets = _coefficients(ctx, pair.even.dim, adj)
    _, _, adj_q = _families_on(
        _induced(ctx, _op_names(adj), coeffs, s.h_lie, reps_g), offsets,
        [(f.label, f.root) for f in adj])
    return assemble_pair(even_q, odd_q, bracket_q, adj_q,
                         meta={"name": pair.meta.get("name", "pair") + "/q"})


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def pair_to_json_dict(pair: HCPair) -> dict:
    ctx = pair.even.ctx
    d = pair.even.to_json_dict()
    d["odd_action"] = pair.odd.to_json_dict()
    b = pair.bracket.consts
    d["odd_bracket"] = [
        [i, j, [ctx.scalar_to_str(x) for x in b[i, j].tolist()]]
        for i, j in np.argwhere(np.triu(b.astype(bool).any(axis=2))).tolist()
    ]
    d["adjoint_families"] = [f.to_json_dict()
                             for f in pair.adjoint_families]
    return d


def pair_from_json_dict(d: dict) -> HCPair:
    even = algebra_from_json_dict(
        {k: d[k] for k in ("field", "basis", "brackets", "meta")})
    odd = module_from_json_dict(d["odd_action"])
    ctx = even.ctx
    entries = {
        json_ints([i, j], "odd bracket pair"): ctx.vec(v)
        for i, j, v in d["odd_bracket"]}
    bracket = BilinearMap.from_entries(ctx, odd.dim, even.dim, entries)
    adj = CoeffOperatorFamily.from_json_dicts(ctx, d["adjoint_families"])
    return assemble_pair(even, odd, bracket, adj, meta=d.get("meta", {}))


def pair_from_json(s: str) -> HCPair:
    return pair_from_json_dict(json.loads(s))

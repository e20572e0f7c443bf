import hashlib
import json
from functools import reduce
from itertools import product

import numpy as np
import pytest

from superlie import linalg
from superlie.brj import (
    brj25,
    sp4_adjoint_module,
    sp4_algebra,
    sp4_natural_module,
)
from superlie.fields import FieldCtx, InputError, SuperlieError
from superlie.linalg import (DimensionMismatch, Matrix, Subspace,
                             int_family, int_matmul, kernel)
from superlie.modules import (CoeffOperatorFamily, GModule, OpTable,
                              _kron_coeffs,
                              hom_space, square_layout, sym2)
from superlie.pairs import (
    BilinearMap,
    CubicViolation,
    EquivarianceViolation,
    InvalidSubpair,
    SubpairSpec,
    SymmetryViolation,
    _check_equivariance,
    assemble_pair,
    check_normality,
    check_sas_conditions,
    is_split,
    normalised,
    pair_from_json,
    pair_space,
    pair_to_json_dict,
    quotient_pair,
    total_algebra,
)
from superlie.superalgebra import build_superalgebra
from superlie.constructions import (
    SL2_ON_V,
    D21Params,
    RecurrenceViolation,
    _unit_algebra,
    _units,
    adjoint_sl2_module,
    d21,
    gl,
    pgl,
    sl2_algebra,
    sl2_symn_algebra,
    sl2_symn_pair,
    symn_dual,
)
from sl2_oracles import sl2_symn_bracket, sl2_symn_constants

F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
Q = FieldCtx.rationals()


def _unnamed(d):
    """A pair's JSON without the names a quotient changes: meta, and the
    trailing "~" of quotient basis labels."""
    if isinstance(d, dict):
        return {k: _unnamed(v) for k, v in d.items() if k != "meta"}
    if isinstance(d, list):
        return [_unnamed(x) for x in d]
    return d.rstrip("~") if isinstance(d, str) else d


def ref_value(bracket, i, j):
    return bracket.consts[i, j]


def ref_apply(bracket, x, y):
    """Reference for [x, y], one pair of nonzero coordinates at a time."""
    ctx = bracket.ctx
    out = ctx.zeros(bracket.dim_g)
    for i in np.nonzero(x)[0]:
        for j in np.nonzero(y)[0]:
            out = ctx.reduce(
                out + ref_value(bracket, i, j) * ctx.mul(x[int(i)], y[int(j)]))
    return out


def ref_annihilator(bracket):
    """Reference for {v : [v, w] = 0 for all w}, one block per w = e_j."""
    ctx, n = bracket.ctx, bracket.dim_v
    blocks = []
    for j in range(n):
        a = ctx.zeros(bracket.dim_g, n)
        for i in range(n):
            a[:, i] = ref_value(bracket, i, j)
        blocks.append(a)
    return kernel(Matrix(ctx, np.concatenate(blocks, axis=0)))


def ref_vector_action(pair, g_vec):
    ctx = pair.even.ctx
    out = ctx.zeros(pair.odd.dim, pair.odd.dim)
    for i in np.nonzero(g_vec)[0]:
        out = ctx.reduce(
            out + pair.odd.lie_action[int(i)].data * g_vec[int(i)])
    return Matrix(ctx, out)


def ref_check_normality(pair, s):
    """Reference for check_normality: one containment test per vector."""
    ctx = pair.even.ctx
    odd = pair.odd
    if s.h_lie.ambient_dim != pair.even.dim or s.w.ambient_dim != odd.dim:
        raise InvalidSubpair("subpair ambient dimensions do not match")
    for label in s.h_generators:
        fam = odd.family_by_label(label)
        for op in fam.ops[1:]:
            for v in s.w.basis.data:
                if not s.w.contains(op.mv(v)):
                    raise InvalidSubpair(f"w not closed under {label}")
    for h in s.h_lie.basis.data:
        act = ref_vector_action(pair, h)
        for v in s.w.basis.data:
            if not s.w.contains(act.mv(v)):
                raise InvalidSubpair("w not closed under Lie(H)")
    for v1 in s.w.basis.data:
        for v2 in s.w.basis.data:
            if not s.h_lie.contains(ref_apply(pair.bracket, v1, v2)):
                raise InvalidSubpair("bracket(w, w) leaves Lie(H)")

    report = {}
    ok = True
    for h in s.h_lie.basis.data:
        for e in ctx.eye(pair.even.dim):
            if not s.h_lie.contains(pair.even.bracket_vec(h, e)):
                ok = False
    for gfam in pair.adjoint_families:
        for op in gfam.ops[1:]:
            for h in s.h_lie.basis.data:
                if not s.h_lie.contains(op.mv(h)):
                    ok = False
    report["cond1_algebra_level"] = ok
    ok = True
    for op in odd.all_operators():
        for v in s.w.basis.data:
            if not s.w.contains(op.mv(v)):
                ok = False
    report["cond2"] = ok
    ok = True
    for label in s.h_generators:
        for op in odd.family_by_label(label).ops[1:]:
            for col in op.data.T:
                if not s.w.contains(col):
                    ok = False
    for h in s.h_lie.basis.data:
        for col in ref_vector_action(pair, h).data.T:
            if not s.w.contains(col):
                ok = False
    report["cond3"] = ok
    ok = True
    for v in s.w.basis.data:
        for e in ctx.eye(odd.dim):
            if not s.h_lie.contains(ref_apply(pair.bracket, e, v)):
                ok = False
    report["cond4"] = ok
    report["ok"] = all(report.values())
    return report


def outcome(f, *args):
    """f(*args), or the type and message of the SuperlieError it raises."""
    try:
        return f(*args)
    except SuperlieError as e:
        return type(e).__name__, str(e)


def loop_equivariance_witness(odd, bracket, adjoint_families):
    """Reference for the equivariance axiom, one (i <= j, m) at a time:
    the first (family label, power, pair) where the t^m coefficients of
    X(t)[e_i, e_j] and [X(t)e_i, X(t)e_j] differ, or None."""
    ctx = odd.ctx
    adj = {f.label: f for f in adjoint_families}
    for fam in odd.families:
        gfam = adj[fam.label]
        for i in range(odd.dim):
            for j in range(i, odd.dim):
                for m in range(1, max(2 * fam.degree, gfam.degree) + 1):
                    lhs = ctx.zeros(bracket.dim_g)
                    for a in range(m + 1):
                        lhs = ctx.reduce(lhs + ref_apply(
                            bracket, op_or_zero(fam, a).data[:, i],
                            op_or_zero(fam, m - a).data[:, j]))
                    rhs = op_or_zero(gfam, m).mv(ref_value(bracket, i, j))
                    if np.any(ctx.reduce(lhs - rhs)):
                        return fam.label, m, (i, j)
    return None


def op_or_zero(fam, k):
    """op_k of the family, the zero operator past its degree."""
    if k <= fam.degree:
        return fam.op(k)
    return Matrix.zeros(fam.ctx, fam.dim, fam.dim)


def sym2_coeffs(odd, fold):
    """([T_1, ..., T_{2 deg X}] for each family X of odd, scale): the t^m
    coefficients T_m / scale of X(t) on Sym^2 V as dense integer arrays,
    read off _kron_coeffs's table (op -1 the identity, A_0)."""
    fams, t = odd.families, odd.table
    coeffs = _kron_coeffs(t, t, [([-1, *range(f.lo, f.lo + f.degree)],) * 2
                                 + (range(1, 2 * f.degree + 1),)
                                 for f in fams], fold)
    ts = iter(coeffs.dense())
    return [[next(ts) for _ in range(2 * f.degree)] for f in fams], \
        coeffs.scale


def equivariance_witness(odd, bracket, adjoint_families):
    """_check_equivariance's (family label, power, pair), or None."""
    try:
        _check_equivariance(odd, bracket, adjoint_families)
    except EquivarianceViolation as e:
        return e.family_label, e.power, e.pair
    return None


def ref_check_equivariance(odd, bracket, adjoint_families):
    """The per-power loop _check_equivariance replaced: for each family
    and each m, K J_m and H_m K from two products of their own, H_m
    zero past its degree."""
    ctx = odd.ctx
    adj = {f.label: f for f in adjoint_families}
    pairs, _, fold = square_layout(odd.dim, +1)
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    (kmat,), _ = int_family(ctx, [ctx.reduce(
        bracket.consts[i, j] * (1 + (i < j))[:, None]).T])
    coeffs, s = sym2_coeffs(odd, fold)
    for fam, ts in zip(odd.families, coeffs):
        if fam.label not in adj:
            raise EquivarianceViolation(fam.label, -1, (-1, -1))
        gfam = adj[fam.label]
        max_deg = max(2 * fam.degree, gfam.degree)
        bad = np.zeros((max_deg + 1, len(pairs)), dtype=bool)
        for m in range(1, max_deg + 1):
            g = op_or_zero(gfam, m)
            lhs, rhs = 0, int_matmul(ctx, g.ints, kmat)
            if m <= len(ts):
                lhs = int_matmul(ctx, kmat, ts[m - 1]) * g.scale
                rhs = rhs * s
            bad[m] = np.any(ctx.reduce(lhs - rhs), axis=0)
        cols = np.nonzero(np.any(bad, axis=0))[0]
        if len(cols):
            c = int(cols[0])
            raise EquivarianceViolation(fam.label, int(np.argmax(bad[:, c])),
                                        pairs[c])


def per_power_witness(odd, bracket, adjoint_families):
    """ref_check_equivariance's (family label, power, pair), or None."""
    try:
        ref_check_equivariance(odd, bracket, adjoint_families)
    except EquivarianceViolation as e:
        return e.family_label, e.power, e.pair
    return None


def relabeled(families, shift):
    """The families with their labels moved shift places along the list:
    valid families matched to the wrong adjoint family."""
    labels = [f.label for f in families]
    return [CoeffOperatorFamily(labels[(k + shift) % len(labels)], f.ops,
                                f.root) for k, f in enumerate(families)]


def adj_families(ctx):
    even = sl2_algebra(ctx)
    return even, [
        CoeffOperatorFamily.exp("X2", even.ad(1), root=(2,)),
        CoeffOperatorFamily.exp("X-2", even.ad(2), root=(-2,)),
    ]


class TestBilinearMap:
    def test_symmetric_storage(self):
        v = F5.vec([1, 0, 0])
        b = BilinearMap.from_entries(F5, 2, 3, {(1, 0): v})
        assert np.array_equal(b.consts[0, 1], v)
        assert np.array_equal(b.consts[1, 0], v)
        assert (b.dim_v, b.dim_g) == (2, 3)
        assert not b.consts.flags.writeable

    def test_conflicting_values_rejected(self):
        with pytest.raises(SymmetryViolation):
            BilinearMap.from_entries(
                F5, 2, 3, {(0, 1): F5.vec([1, 0, 0]),
                           (1, 0): F5.vec([2, 0, 0])})
        # a zero value sets nothing, so a later value does not conflict
        b = BilinearMap.from_entries(
            F5, 2, 3, {(0, 1): F5.zeros(3), (1, 0): F5.vec([2, 0, 0])})
        assert b.consts[0, 1].tolist() == [2, 0, 0]

    def test_constructor_checks_array(self):
        c = F5.zeros(3, 3, 2)
        c[0, 2, 1] = 1
        with pytest.raises(SymmetryViolation, match=r"pair \(0, 2\)"):
            BilinearMap(F5, c)
        for bad in (F5.zeros(2, 3, 2), F5.zeros(3, 3), Q.zeros(3, 3, 2)):
            with pytest.raises(DimensionMismatch):
                BilinearMap(F5, bad)
        with pytest.raises(DimensionMismatch):
            BilinearMap.from_entries(F5, 2, 3, {(0, 2): F5.vec([1, 0, 0])})

    def test_apply_is_bilinear(self):
        # brackets(xs, ys) against the loop reference, and bilinear
        b = sl2_symn_bracket(3, 1, Q)
        x = Q.vec([1, 2, 0, 1])
        y = Q.vec([0, 1, 3, 0])
        xs = np.stack([x, y, Q.reduce(x + y)])
        got = b.brackets(xs, xs).reshape(3, 3, 3)
        for r in range(3):
            for c in range(3):
                assert np.array_equal(got[r, c], ref_apply(b, xs[r], xs[c]))
        rhs = Q.reduce(got[0, 0] + 2 * got[0, 1] + got[1, 1])
        assert np.array_equal(got[2, 2], rhs)

    def test_annihilator_of_nondegenerate(self):
        b = sl2_symn_bracket(3, 1, F3)
        assert b.annihilator().dim == 0

    def test_annihilator_matches_loop_reference(self):
        for ctx in (F3, F5, Q):
            for entries in ({}, {(0, 0): [1, 0, 0]}, {(1, 2): [0, 1, 2]},
                            {(0, 3): [1, 1, 0], (2, 2): [0, 0, 1]}):
                b = BilinearMap.from_entries(
                    ctx, 4, 3, {k: ctx.vec(v) for k, v in entries.items()})
                assert b.annihilator() == ref_annihilator(b)
            b = sl2_symn_bracket(3, 1, ctx)
            assert b.annihilator() == ref_annihilator(b)


class TestConstants:
    def test_n3_table(self):
        c = sl2_symn_constants(3, 1, Q)
        from fractions import Fraction as Fr
        assert c.a_list == (Fr(1, 2), Fr(-1, 2), Fr(-1, 2), Fr(1, 2))
        assert c.b_list == (Fr(1), Fr(-2), Fr(1))
        assert c.c_list == (Fr(-1), Fr(2), Fr(-1))

    def test_n1_table(self):
        c = sl2_symn_constants(1, 1, Q)
        from fractions import Fraction as Fr
        assert c.a_list == (Fr(1, 2), Fr(1, 2))
        assert c.b_list == (Fr(1),)
        assert c.c_list == (Fr(-1),)

    def test_even_n_rejected(self):
        with pytest.raises(RecurrenceViolation):
            sl2_symn_constants(2, 1, Q)

    def test_scaling_linearity(self):
        c1 = sl2_symn_constants(5, 1, F7)
        c3 = sl2_symn_constants(5, 3, F7)
        for a, b in zip(c1.a_list, c3.a_list):
            assert F7.mul(a, 3) == b


class TestAssembly:
    def test_n3_p3_assembles(self):
        p = sl2_symn_pair(3, 1, F3)
        assert p.dims == (3, 4)
        assert p.algebra.dims == (3, 4)
        assert p.algebra.validate_jacobi(full=True).ok
        assert p.algebra.validate_cubic_odd().ok
        assert not is_split(p)

    def test_n1_assembles_everywhere(self):
        for ctx in (F3, F5, F7, Q):
            p = sl2_symn_pair(1, 1, ctx)
            assert p.dims == (3, 2)

    def test_n3_fails_outside_char3(self):
        # the cubic axiom is checked before Jacobi, so it is what fails
        for ctx, c in ((F5, 1), (F7, 6), (Q, 6)):
            with pytest.raises(CubicViolation) as exc:
                sl2_symn_pair(3, 1, ctx)
            assert exc.value.witness == (3, (0, 3, 0, 0), ctx.of(c))

    def test_equivariance_violation_on_doctored_bracket(self):
        # (field, n, bracket entry, factor it is scaled by, witness)
        cases = [
            (F3, 3, (0, 3), 2, ("X2", 1, (0, 3))),
            (F5, 1, (0, 1), 2, ("X2", 1, (0, 1))),
            (F7, 1, (1, 1), 3, ("X2", 1, (1, 1))),
            (Q, 1, (0, 0), 2, ("X2", 1, (0, 1))),
        ]
        for ctx, n, entry, factor, witness in cases:
            even, adj = adj_families(ctx)
            odd = symn_dual(n, ctx)
            consts = sl2_symn_bracket(n, 1, ctx).consts.copy()
            i, j = entry
            consts[i, j] = consts[j, i] = ctx.reduce(consts[i, j] * factor)
            bad = BilinearMap(ctx, consts)
            with pytest.raises(EquivarianceViolation) as exc:
                assemble_pair(even, odd, bad, adj)
            assert (exc.value.family_label, exc.value.power,
                    exc.value.pair) == witness

    def test_equivariance_matches_loop_reference(self):
        # sl2 x Sym_n* (two families) and sp4 x V (eight families of degree
        # 1 on V, of degree 2 on the adjoint module): every bracket with one
        # basis vector added at one pair.  brj's U at p = 5 (12-dimensional,
        # families of degree up to 3, the module whose V (x) V blocks were
        # 144 x 144): its first, middle and last nonzero constant doubled
        # and its first zero constant set to one.
        cases = []
        for ctx in (F3, F5, Q):
            even, adj = adj_families(ctx)
            for n in (1, 3):
                cases.append((symn_dual(n, ctx), adj,
                              bumped(ctx, sl2_symn_bracket(n, 1, ctx).consts)))
            g = sp4_algebra(ctx)
            v, adjm = sp4_natural_module(g), sp4_adjoint_module(g)
            cases.append((v, adjm.families,
                          bumped(ctx, normalised_k(v, adjm, ctx))))
        pair = brj25(p=5, skip_simplicity=True).pair
        base = pair.bracket.consts
        nz = np.argwhere(np.triu(base.astype(bool).transpose(2, 0, 1)))
        spots = [(i, j, k, F5.mul(base[i, j, k], 2))
                 for k, i, j in (nz[0], nz[len(nz) // 2], nz[-1])]
        spots.append((*np.argwhere(~base.astype(bool))[0], F5.one))
        doctored = []
        for i, j, k, value in spots:
            consts = base.copy()
            consts[i, j, k] = consts[j, i, k] = value
            doctored.append(consts)
        cases.append((pair.odd, pair.adjoint_families, doctored))
        for odd, adj, brackets in cases:
            seen = set()
            for consts in brackets:
                b = BilinearMap(odd.ctx, consts)
                got = equivariance_witness(odd, b, adj)
                assert got == loop_equivariance_witness(odd, b, adj)
                seen.add(got)
            assert len(seen - {None}) > 1

    def test_equivariance_matches_per_power_loop(self):
        # brj's pair at p = 5 and sl2 x Sym_3* at p = 3: the bracket as it
        # is, with one basis vector added at each pair (sl2) or four
        # constants changed (brj), and with the adjoint families relabeled
        pair = brj25(p=5, skip_simplicity=True).pair
        base = pair.bracket.consts
        nz = np.argwhere(np.triu(base.astype(bool).transpose(2, 0, 1)))
        brj_brackets = [base]
        for k, i, j in (nz[0], nz[len(nz) // 2], nz[-1]):
            consts = base.copy()
            consts[i, j, k] = consts[j, i, k] = F5.mul(base[i, j, k], 2)
            brj_brackets.append(consts)
        even, adj = adj_families(F3)
        sym3 = sl2_symn_bracket(3, 1, F3).consts
        cases = [(pair.odd, pair.adjoint_families, brj_brackets),
                 (pair.odd, relabeled(pair.adjoint_families, 1), [base]),
                 (symn_dual(3, F3), adj, [sym3, *bumped(F3, sym3)]),
                 (symn_dual(3, F3), relabeled(adj, 1), [sym3])]
        seen = set()
        for odd, families, brackets in cases:
            for consts in brackets:
                b = BilinearMap(odd.ctx, consts)
                got = equivariance_witness(odd, b, families)
                assert got == per_power_witness(odd, b, families)
                seen.add(got)
        # the pairs as built pass, and the changes fail at several places
        assert None in seen and len(seen) > 4

    @pytest.mark.parametrize("ctx", [F7, Q, FieldCtx.prime(2**31 - 1)],
                             ids=repr)
    def test_equivariance_matches_per_power_loop_on_sl2(self, ctx):
        # Sym_n* for n = 1, 3 with its bracket, one basis vector added at
        # each pair, and the adjoint families relabeled
        even, adj = adj_families(ctx)
        seen = set()
        for n in (1, 3):
            odd, base = symn_dual(n, ctx), sl2_symn_bracket(n, 1, ctx).consts
            for families, brackets in ((adj, [base, *bumped(ctx, base)]),
                                       (relabeled(adj, 1), [base])):
                for consts in brackets:
                    b = BilinearMap(ctx, consts)
                    got = equivariance_witness(odd, b, families)
                    assert got == per_power_witness(odd, b, families)
                    seen.add(got)
        assert None in seen and len(seen) > 4

    def test_split_pair(self):
        even, adj = adj_families(F5)
        odd = symn_dual(3, F5)
        zero = BilinearMap.from_entries(F5, 4, 3, {})
        p = assemble_pair(even, odd, zero, adj)
        assert is_split(p)
        c1, c2, _ = check_sas_conditions(p)
        assert c1 and not c2  # annihilator is everything when the bracket is 0


def bumped(ctx, base):
    """base with one basis vector added at one pair, for each pair i <= j
    and target in turn."""
    n, _, dg = base.shape
    for i in range(n):
        for j in range(i, n):
            for k in range(dg):
                consts = base.copy()
                consts[i, j, k] = consts[j, i, k] = ctx.add(consts[i, j, k],
                                                            ctx.one)
                yield consts


def normalised_k(odd, adj, ctx):
    """The normalised generator of K for odd -> adj, which must be a line."""
    _, ks = pair_space(odd, hom_space(sym2(odd), adj, mode="group").basis)
    assert len(ks) == 1
    return normalised(ctx, ks[0])[0].consts


def sl2_pair_space(n, ctx):
    odd = symn_dual(n, ctx)
    return pair_space(odd, hom_space(
        sym2(odd), adjoint_sl2_module(ctx), mode="group").basis)


def sl2_cubed_pieces(ctx):
    """(sl2^3, W, adjoint module) for d21's even part and odd module.
    sl2^3 is built on block-diagonal 6 x 6 copies of H, E12, E21;
    W = V (x) V (x) V under the Kronecker action, with one family [I, x]
    per root vector x; the adjoint module has one family exp(t ad x) per
    root, under the same labels."""
    eye = np.eye(2, dtype=np.int64)
    elems, acts = [], []
    for f in range(3):
        for x, m in zip("HEF", SL2_ON_V):
            block = np.zeros((6, 6), dtype=np.int64)
            block[2 * f:2 * f + 2, 2 * f:2 * f + 2] = m
            elems.append((f"{x}{f + 1}", 0, _units(block)))
            acts.append(reduce(np.kron, [m if h == f else eye
                                         for h in range(3)]))
    even = _unit_algebra(ctx, [0] * 6, elems, {})
    roots = {}
    for f in range(3):
        for g, sign in ((1, 1), (2, -1)):
            roots[3 * f + g] = tuple(2 * sign * (h == f) for h in range(3))
    odd_fams = [CoeffOperatorFamily(even.labels[i], [
        Matrix.identity(ctx, 8), Matrix.from_int(ctx, acts[i])], root)
        for i, root in roots.items()]
    adj_fams = [CoeffOperatorFamily.exp(even.labels[i], even.ad(i), root)
                for i, root in roots.items()]
    w = GModule(ctx, [f"v{i}{j}{k}" for i, j, k in product("12", repeat=3)],
                even.labels, [Matrix.from_int(ctx, a) for a in acts], odd_fams,
                weights=[tuple(1 - 2 * b for b in bits)
                         for bits in product((0, 1), repeat=3)],
                brackets=even.consts)
    ads = [even.ad(i) for i in range(even.dim)]
    adj = GModule(ctx, even.labels, even.labels, ads, adj_fams,
                  weights=[roots.get(i, (0, 0, 0)) for i in range(9)],
                  brackets=even.consts)
    return even, w, adj


class TestPairSpace:
    @pytest.mark.parametrize("ctx, top", [(F3, 7), (F5, 7), (F7, 7), (Q, 5)],
                             ids=repr)
    def test_sl2_dims(self, ctx, top):
        # H is a line for odd n; the cubic identity cuts it to 0 except at
        # n = 1, and at n = 3 in characteristic 3
        for n in range(top + 1):
            hs, ks = sl2_pair_space(n, ctx)
            in_k = n == 1 or (n == 3 and ctx.p == 3)
            assert (len(hs), len(ks)) == (n % 2, int(in_k)), n
            assert hs.shape[1:] == ks.shape[1:] == (n + 1, n + 1, 3)

    @pytest.mark.parametrize("ctx", [F3, F5, F7, Q], ids=repr)
    def test_h_generator_is_the_closed_form(self, ctx):
        for n in (1, 3, 5, 7):
            (h,), _ = sl2_pair_space(n, ctx)
            bracket, pos = normalised(ctx, h)
            assert np.array_equal(bracket.consts,
                                  sl2_symn_bracket(n, 1, ctx).consts)
            assert pos == (0, n - 1, 1)  # [s*_0, s*_{n-1}] = E12

    @pytest.mark.parametrize("ctx", [F3, F5, F7, Q], ids=repr)
    def test_kernel_agrees_with_validate_cubic_odd(self, ctx):
        even = sl2_algebra(ctx)
        for n in (1, 3, 5):
            (h,), ks = sl2_pair_space(n, ctx)
            alg = total_algebra(even, symn_dual(n, ctx), BilinearMap(ctx, h),
                                {})
            assert alg.validate_cubic_odd().ok == (len(ks) == 1), n

    @pytest.mark.parametrize("ctx", [F3, F5, F7, Q], ids=repr)
    def test_sp4_natural_module(self, ctx):
        g = sp4_algebra(ctx)
        v, adj = sp4_natural_module(g), sp4_adjoint_module(g)
        hs, ks = pair_space(v, hom_space(sym2(v), adj, mode="group").basis)
        assert (len(hs), len(ks)) == (1, 1)
        bracket, _ = normalised(ctx, ks[0])
        pair = assemble_pair(g, v, bracket, adj.families)
        assert pair.algebra.dims == (10, 4)
        assert pair.algebra.is_graded_simple(seed=0).verdict == "GradedSimple"

    @pytest.mark.parametrize("ctx", [F3, F5, F7, Q], ids=repr)
    def test_d21_is_the_sl2_cubed_pair(self, ctx):
        # H has one bracket per factor, and K is the plane a1 + a2 + a3 = 0
        even, w, adj = sl2_cubed_pieces(ctx)
        alg = d21(D21Params(1, 1, -2), ctx)
        assert np.array_equal(even.consts, alg.consts[:9, :9, :9])
        hs, ks = pair_space(w, hom_space(sym2(w), adj, mode="group").basis)
        assert (len(hs), len(ks)) == (3, 2)
        plane = [d21(D21Params(*a), ctx).consts[9:, 9:, :9].reshape(-1)
                 for a in ((1, -1, 0), (0, 1, -1))]
        assert (Subspace.from_vectors(ctx, 8 * 8 * 9, list(ks.reshape(2, -1)))
                == Subspace.from_vectors(ctx, 8 * 8 * 9, plane))
        pair = assemble_pair(even, w,
                             BilinearMap(ctx, alg.consts[9:, 9:, :9].copy()),
                             adj.families)
        assert np.array_equal(pair.algebra.consts, alg.consts)

    def test_map_of_wrong_shape_rejected(self):
        # a map on V (x) V (16 columns) is not one on Sym^2 V (10 columns)
        odd = symn_dual(3, F5)
        for shape in ((3, 16), (4, 10)):
            with pytest.raises(DimensionMismatch, match="are 3 x 10"):
                pair_space(odd, [Matrix(F5, F5.zeros(*shape))])

    def test_zero_bracket_not_normalised(self):
        for ctx in (F5, Q):
            with pytest.raises(InputError):
                normalised(ctx, ctx.zeros(2, 2, 3))


class TestSasAndSubpairs:
    def test_n3_p3_sas(self):
        p = sl2_symn_pair(3, 1, F3)
        c1, c2, details = check_sas_conditions(p)
        assert (c1, c2) == (True, True)
        assert details["annihilator_dim"] == 0

    def test_full_subpair_is_normal(self):
        p = sl2_symn_pair(3, 1, F3)
        s = SubpairSpec(Subspace.full(F3, 3), ("X2", "X-2"),
                        Subspace.full(F3, 4))
        rep = check_normality(p, s)
        assert rep["ok"]

    def test_invalid_subpair_rejected(self):
        p = sl2_symn_pair(3, 1, F3)
        v = F3.zeros(4)
        v[0] = 1
        s = SubpairSpec(Subspace.full(F3, 3), ("X2",),
                        Subspace.from_vectors(F3, 4, [v]))
        with pytest.raises(InvalidSubpair):
            check_normality(p, s)

    @pytest.mark.parametrize("n,ctx", [(3, F3), (1, F5), (1, Q),
                                       (1, FieldCtx.prime(2**31 - 1))])
    def test_normality_matches_loop_reference(self, n, ctx):
        # the zero and the full subpair, generator subsets such as ("X2",),
        # coordinate lines, the InvalidSubpair cases and an unknown label
        p = sl2_symn_pair(n, 1, ctx)
        eye_g, eye_v = ctx.eye(3), ctx.eye(n + 1)
        hs = [Subspace.zero(ctx, 3), Subspace.full(ctx, 3)] + [
            Subspace.from_vectors(ctx, 3, [e]) for e in eye_g]
        ws = [Subspace.zero(ctx, n + 1), Subspace.full(ctx, n + 1),
              Subspace.from_vectors(ctx, n + 1, [eye_v[0]]),
              Subspace.from_vectors(ctx, n + 1, [eye_v[n]]),
              Subspace.from_vectors(ctx, n + 1, eye_v[1:])]
        gens = [(), ("X2",), ("X-2",), ("X2", "X-2"), ("X2", "nosuch")]
        specs = [SubpairSpec(h, g, w) for h in hs for g in gens for w in ws]
        specs.append(SubpairSpec(Subspace.zero(ctx, 4), (), ws[0]))
        seen = set()
        for spec in specs:
            got = outcome(check_normality, p, spec)
            assert got == outcome(ref_check_normality, p, spec)
            seen.add(got[0] if isinstance(got, tuple) else got["ok"])
        assert {True, False, "InvalidSubpair"} <= seen

    def test_ideal_condition_without_families(self):
        # with no group families only the ideal test can fail cond1:
        # span(H) is not an ideal of sl2
        even = sl2_algebra(F5)
        odd = symn_dual(1, F5)
        odd = GModule(F5, odd.labels, odd.lie_labels, odd.lie_action, [])
        p = assemble_pair(even, odd, BilinearMap.from_entries(F5, 2, 3, {}),
                          [])
        for h, want in (([1, 0, 0], False), ([0, 0, 0], True)):
            s = SubpairSpec(Subspace.from_vectors(F5, 3, [F5.vec(h)]), (),
                            Subspace.zero(F5, 2))
            rep = check_normality(p, s)
            assert rep["cond1_algebra_level"] is want
            assert rep == ref_check_normality(p, s)

    def test_quotient_by_full_subpair_is_zero(self):
        p = sl2_symn_pair(3, 1, F3)
        s = SubpairSpec(Subspace.full(F3, 3), ("X2", "X-2"),
                        Subspace.full(F3, 4))
        q = quotient_pair(p, s)
        assert q.dims == (0, 0)

    @pytest.mark.parametrize("n,ctx", [(3, F3), (1, F5), (1, F7)])
    def test_quotient_by_zero_subpair_is_the_pair(self, n, ctx):
        p = sl2_symn_pair(n, 1, ctx)
        s = SubpairSpec(Subspace.zero(ctx, 3), (), Subspace.zero(ctx, n + 1))
        q = quotient_pair(p, s)
        assert np.array_equal(q.algebra.consts, p.algebra.consts)
        assert _unnamed(pair_to_json_dict(q)) == _unnamed(pair_to_json_dict(p))


def gl11_pair(ctx):
    """gl(1|1) as a pair: the even part gl1 + gl1 on E11, E22, the odd
    module E12, E21 under ad with no families, [E12, E21] = E11 + E22."""
    even = build_superalgebra(ctx, [("E1,1", 0), ("E2,2", 0)], {})
    odd = GModule(ctx, ["E1,2", "E2,1"], even.labels,
                  [Matrix.from_rows(ctx, [[1, 0], [0, -1]]),
                   Matrix.from_rows(ctx, [[-1, 0], [0, 1]])], [],
                  brackets=even.consts)
    bracket = BilinearMap.from_entries(ctx, 2, 2, {(0, 1): ctx.vec([1, 1])})
    return assemble_pair(even, odd, bracket, [], meta={"name": "gl11"})


def gl2_pair(ctx):
    """gl2 on Sym_1*, its centre acting by 0: the even part gl(2|0) with
    the families X2 = exp(t ad E1,2) and X-2 = exp(t ad E2,1), the odd
    module symn_dual(1) with E1,1 acting as H/2 and E2,2 as -H/2, and the
    bracket sl2_symn_bracket(1, 1) with H placed as E1,1 - E2,2."""
    even = gl(2, 0, ctx)
    adj = [CoeffOperatorFamily.exp("X2", even.ad(1), root=(2,)),
           CoeffOperatorFamily.exp("X-2", even.ad(2), root=(-2,))]
    sym = symn_dual(1, ctx)
    h, e, f = sym.lie_action
    half = ctx.reduce(h.data * ctx.inv(ctx.of(2)))
    odd = GModule(ctx, sym.labels, even.labels,
                  [Matrix(ctx, half), e, f, Matrix(ctx, ctx.reduce(-half))],
                  sym.families, weights=sym.weights, brackets=even.consts)
    c = sl2_symn_bracket(1, 1, ctx).consts
    bracket = BilinearMap(ctx, np.concatenate([c, ctx.reduce(-c[..., :1])],
                                              axis=2))
    return assemble_pair(even, odd, bracket, adj, meta={"name": "gl2"})


class TestProperQuotient:
    """quotient_pair by a nonzero proper Lie(H): the odd bracket must be
    reduced against Lie(H) before it is restricted to the kept
    coordinates."""

    @pytest.mark.parametrize("ctx", [F3, F5, Q])
    def test_gl11_by_scalars_is_pgl11(self, ctx):
        p = gl11_pair(ctx)
        assert np.array_equal(p.algebra.consts, gl(1, 1, ctx).consts)
        s = SubpairSpec(Subspace.from_vectors(ctx, 2, [ctx.vec([1, 1])]), (),
                        Subspace.zero(ctx, 2))
        q = quotient_pair(p, s)
        assert q.dims == (1, 2)
        assert np.array_equal(q.algebra.consts, pgl(1, 1, ctx).consts)

    @pytest.mark.parametrize("ctx", [F3, F5, Q], ids=repr)
    def test_gl2_by_centre_induces_adjoint_families(self, ctx):
        p = gl2_pair(ctx)
        s = SubpairSpec(Subspace.from_vectors(ctx, 4, [ctx.vec([1, 0, 0, 1])]),
                        (), Subspace.zero(ctx, 2))
        assert check_normality(p, s) == {
            "cond1_algebra_level": True, "cond2": True, "cond3": True,
            "cond4": True, "ok": True}
        q = quotient_pair(p, s)
        assert q.algebra.dims == (3, 2)
        assert q.algebra.is_graded_simple(seed=0).verdict == "GradedSimple"
        labels = [l.rstrip("~") for l in q.even.labels]
        for fam, x in zip(q.adjoint_families, ("E1,2", "E2,1")):
            # 1 + t ad x + t^2 ad(x)^2 / 2, induced on gl2 / centre
            assert fam.degree == 2
            assert fam.op(1) == q.even.ad(labels.index(x))

    def test_normality_reads_integer_forms(self, monkeypatch):
        # over Q check_normality reads the integer forms of the bases, the
        # operators, the pair's bracket and the even algebra's constants,
        # all held as integers since they were built: it makes no Fraction
        # array and converts nothing to integers
        s = SubpairSpec(Subspace.from_vectors(Q, 4, [Q.vec([1, 0, 0, 1])]),
                        (), Subspace.zero(Q, 2))
        want = ref_check_normality(gl2_pair(Q), s)
        p = gl2_pair(Q)
        calls = []
        for name in ("from_int", "int_scaled"):
            real = getattr(linalg, name)

            def counting(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(linalg, name, counting)
        assert check_normality(p, s) == want
        assert calls == []


class TestPairJson:
    # sha256 of json.dumps(pair_to_json_dict(pair), sort_keys=True), as
    # recorded while the bracket was a dict of (i <= j) -> vector
    DIGESTS = [
        ("sym1-F3", lambda: sl2_symn_pair(1, 1, F3),
         "fb9c361ef874b5741fc260b14b48dcaa02931abb49a9355ceaa2d8bf00764ae3"),
        ("sym1-F5", lambda: sl2_symn_pair(1, 1, F5),
         "01f1dceffc2a86eb0e1e396b0d02f41e210a2fe0900f3ba1930109e26be6a96b"),
        ("sym1-F7", lambda: sl2_symn_pair(1, 1, F7),
         "89ac783ab5909fde12e529c1de0e1523b12357b26e043e47117327a120775c55"),
        ("sym1-Q", lambda: sl2_symn_pair(1, 1, Q),
         "063725ca14990d7ba39618229d9bfed48f2698e7caf93ac11ccfafb4596514f4"),
        ("sym3-F3", lambda: sl2_symn_pair(3, 1, F3),
         "0e2b273fe7f9a7e29d8c021afe4cf3636317a803f15e0a1c4b09ede7987d24ad"),
        ("brj-p5", lambda: brj25(p=5, skip_simplicity=True).pair,
         "090a06b2ff7282595b1e2795d9c87e132edffd414c8464b8197c03ad740c117d"),
    ]

    @pytest.mark.parametrize("name,build,digest", DIGESTS,
                             ids=[d[0] for d in DIGESTS])
    def test_json_digest(self, name, build, digest):
        text = json.dumps(pair_to_json_dict(build()), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_round_trip(self):
        p = sl2_symn_pair(3, 1, F3)
        q = pair_from_json(json.dumps(pair_to_json_dict(p)))
        assert q.dims == p.dims
        assert np.array_equal(q.algebra.consts, p.algebra.consts)
        assert q.odd.labels == p.odd.labels
        assert [f.label for f in q.adjoint_families] == \
               [f.label for f in p.adjoint_families]

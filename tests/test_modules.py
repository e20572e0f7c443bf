import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import superlie.brj as brj
import superlie.linalg as linalg
import superlie.modules as modules
from superlie.fields import FieldCtx, InputError, SuperlieError
from superlie.linalg import (
    DimensionMismatch,
    Matrix,
    OpTable,
    SpanSolver,
    Subspace,
    exact_matmul,
    int_family,
    int_matmul,
    kernel,
    nonzeros,
)
from superlie.modules import (
    CoeffOperatorFamily,
    CompositionViolation,
    GModule,
    LabelMismatch,
    NotInvariant,
    _constraint_pairs,
    _diagonals,
    _implied_pairs,
    _intertwiner_space,
    _weight_mask,
    dual,
    hom_space,
    lambda2,
    module_from_json,
    module_from_subspace,
    quotient_module,
    quotient_module_with_basis,
    socle_via_homs,
    square_layout,
    submodule_generated,
    sym2,
    tensor,
    trivial_quotient_defect,
)
from superlie.constructions import (
    adjoint_sl2_module,
    sl2_algebra,
    symn_dual,
    symn_module,
)
from matrix_oracles import algebra_from_matrices

F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
BIG = FieldCtx.prime(2**31 - 1)
# the largest prime whose residues stay int64: (p-1)^2 * 8192 < 2^63
INT64_TOP = FieldCtx.prime(33554393)
Q = FieldCtx.rationals()


class TestFamilies:
    def test_op0_must_be_identity(self):
        z = Matrix.zeros(F5, 2, 2)
        with pytest.raises(CompositionViolation):
            CoeffOperatorFamily("bad", [z])

    def test_composition_violation_detected(self):
        # declaring A_2 = A_1 breaks A_1 A_1 = 2 A_2 when A_1^2 = 0
        a1 = Matrix.from_rows(F5, [[0, 1], [0, 0]])
        # nilpotent: fine
        CoeffOperatorFamily("ok", [Matrix.identity(F5, 2), a1])
        with pytest.raises(CompositionViolation):
            CoeffOperatorFamily("bad", [Matrix.identity(F5, 2), a1, a1])

    def test_truncation_beyond_degree_checked(self):
        # A_1^2 nonzero but no A_2 declared
        a1 = Matrix.from_rows(Q, [[1, 0], [0, 0]])  # idempotent, not nilpotent
        with pytest.raises(CompositionViolation):
            CoeffOperatorFamily("bad", [Matrix.identity(Q, 2), a1])

    def test_divided_powers_compose_in_small_characteristic(self):
        # binomial tables stay consistent even when p <= n
        m = symn_module(5, F3)
        for f in m.families:
            f.validate()

    def test_op_of_another_shape(self):
        # a square-zero 3 x 3 op_1 passes the composition law
        e13 = Matrix.from_int(F5, np.eye(3, k=2, dtype=np.int64))
        with pytest.raises(DimensionMismatch, match="op_1 is 3x3, not 2x2"):
            CoeffOperatorFamily("X2", [Matrix.identity(F5, 2), e13])

    def test_batch_checks_shapes(self):
        ok = ("ok", [Matrix.identity(F5, 2), jordan_block(F5, 2)], None)
        # a family of another dimension than the first
        with pytest.raises(DimensionMismatch, match="j: op_0 is 3x3"):
            CoeffOperatorFamily.batch(
                [ok, ("j", [Matrix.identity(F5, 3), jordan_block(F5, 3)],
                      None)])
        # an op of another shape than its op_0, in a later family
        with pytest.raises(DimensionMismatch, match="X2: op_1 is 3x3"):
            CoeffOperatorFamily.batch(
                [ok, ("X2", [Matrix.identity(F5, 2), jordan_block(F5, 3)],
                      None)])

    def test_batch_empty_and_identity(self):
        ok = ("ok", [Matrix.identity(F5, 2), jordan_block(F5, 2)], None)
        for specs in ([("e", [], None), ok], [ok, ("e", [], None)]):
            with pytest.raises(CompositionViolation, match="e: empty family"):
                CoeffOperatorFamily.batch(specs)
        two = Matrix.from_int(F5, 2 * np.eye(2, dtype=np.int64))
        with pytest.raises(CompositionViolation,
                           match="b: op_0 is not the identity"):
            CoeffOperatorFamily.batch([ok, ("b", [two], None)])
        assert CoeffOperatorFamily.batch([]) == []

    def test_batch_matches_constructor(self):
        a1 = Matrix.from_rows(F5, [[0, 1], [0, 0]])
        specs = [("x", [Matrix.identity(F5, 2), a1, Matrix.zeros(F5, 2, 2)],
                  [2]),
                 ("y", [Matrix.identity(F5, 2)], None),
                 ("z", CoeffOperatorFamily.exp_ops("z", jordan_block(F5, 2)),
                  (1,))]
        fams = CoeffOperatorFamily.batch(specs)
        assert fams == [CoeffOperatorFamily(*spec) for spec in specs]
        assert fams[0].ops == (Matrix.identity(F5, 2), a1)
        assert fams[0].root == (2,)

    def test_op_views(self):
        # ops is made once from the module's table, where A_1, ..., A_3
        # are ops lo, ..., lo + 2; there is no op past the degree
        m = symn_module(3, F5)
        f = m.family_by_label("X2")
        assert f.ops is f.ops and f.op(3) is f.ops[3]
        assert f.source is m.table
        assert m.table.pick(range(f.lo, f.lo + 3)) == OpTable.of(F5, 4, f.ops[1:])
        for k in (-1, 4):
            with pytest.raises(IndexError):
                f.op(k)

    def test_trailing_zero_operators_dropped(self):
        a1 = Matrix.from_rows(F5, [[0, 1], [0, 0]])
        f = CoeffOperatorFamily(
            "x", [Matrix.identity(F5, 2), a1, Matrix.zeros(F5, 2, 2)], [2])
        assert f.degree == 1 and f.ops == (Matrix.identity(F5, 2), a1)
        assert f.root == (2,)


def jordan_block(ctx, n):
    """The n x n nilpotent Jordan block: ones just above the diagonal."""
    return Matrix.from_int(ctx, np.eye(n, k=1, dtype=np.int64))


def exp_family(label, x, root=None):
    """The family exp(t x) of CoeffOperatorFamily.exp_ops."""
    return CoeffOperatorFamily(label, CoeffOperatorFamily.exp_ops(label, x),
                               root)


class TestExp:
    @pytest.mark.parametrize("ctx, top", [(F3, 2), (F5, 4), (F7, 6), (Q, 6)],
                             ids=repr)
    def test_symn_raising_operator(self, ctx, top):
        # e^k / k! s_i = C(n-i, k) s_{i+k}: symn_module's X2 family, for
        # every n < p
        for n in range(top + 1):
            m = symn_module(n, ctx)
            f = exp_family("X2", m.lie_action[1], (2,))
            assert f == m.family_by_label("X2"), n

    @pytest.mark.parametrize("ctx", [F5, Q], ids=repr)
    def test_jordan_block(self, ctx):
        j = jordan_block(ctx, 4)
        f = exp_family("j", j)
        assert f.degree == 3
        assert f.ops[1] == j
        assert f.ops[2] == Matrix.from_int(ctx, (j @ j).ints, 2)
        assert f.ops[3] == Matrix.from_int(ctx, (j @ j @ j).ints, 6)

    def test_jordan_block_needs_its_factorials(self):
        # J^3 != 0 and 3! = 0 in F_3
        with pytest.raises(InputError, match="3! is 0 mod 3"):
            exp_family("j", jordan_block(F3, 4))

    @pytest.mark.parametrize("ctx", [F3, F5, Q], ids=repr)
    def test_not_nilpotent(self, ctx):
        for rows in ([[1, 0], [0, 0]], [[0, 1], [1, 0]], [[2]]):
            with pytest.raises(InputError, match="not nilpotent"):
                exp_family("x", Matrix.from_rows(ctx, rows))

    def test_zero_and_empty_operators(self):
        f = exp_family("z", Matrix.zeros(F5, 3, 3), (1,))
        assert f.ops == (Matrix.identity(F5, 3),) and f.root == (1,)
        assert exp_family("e", Matrix.zeros(Q, 0, 0)).degree == 0


def ref_conjugation_family(alg, label, x, root=None):
    """The adjoint family of the unipotent 1 + t x for a square-zero matrix
    x on a purely even matrix-built algebra, by conjugation: y -> y +
    t(xy - yx) - t^2 xyx, each image solved for in the algebra's matrix
    basis with the SpanSolver of its dense oracle build.  The builder that
    exp(t ad x) (modules.adjoint_module) replaced, kept as its oracle."""
    ctx, d = alg.ctx, alg.dim
    (xi, ys), s = int_family(ctx, [x, np.stack(alg.matrix_basis)])
    assert not np.any(ctx.reduce(xi @ xi))
    xy, yx = ctx.reduce(xi @ ys), ctx.reduce(ys @ xi)
    rows = np.concatenate([(xy - yx) * s, -(xy @ xi)]).reshape(2 * d, -1)
    solver: SpanSolver = algebra_from_matrices(
        ctx, list(zip(alg.labels, alg.parities, alg.matrix_basis)),
        [0] * len(x)).matrix_solver
    coords, u, in_span = solver.coords_int_rows(ctx.reduce(rows), s ** 3)
    assert in_span.all()
    return CoeffOperatorFamily(
        label, [Matrix.identity(ctx, d)]
        + [Matrix.from_int(ctx, c.T.copy(), u, reduced=True)
           for c in (coords[:d], coords[d:])],
        root)


def ref_adjoint_module(alg, roots, weights, name):
    """The adjoint module of a matrix-built algebra as it was built by
    conjugation: ad read off the structure constants, and one
    ref_conjugation_family per (label, root, matrix) of roots."""
    fams = [ref_conjugation_family(alg, l, m, w) for l, w, m in roots]
    ads = [alg.ad(i) for i in range(alg.dim)]
    return GModule(alg.ctx, alg.labels, alg.labels, ads, fams,
                   weights=weights, brackets=alg.consts, meta={"name": name})


def assert_same_module(got, want):
    assert got.to_json() == want.to_json()
    assert got.lie_action == want.lie_action
    assert [(f.label, f.root, f.ops) for f in got.families] == \
        [(f.label, f.root, f.ops) for f in want.families]
    assert got.bracket_table == want.bracket_table


class TestExpDifferential:
    """exp(t ad x) against conjugation by 1 + t x: for square-zero x,
    y + t[x,y] + (t^2/2)[x,[x,y]] = y + t[x,y] - t^2 xyx."""

    @pytest.mark.parametrize("ctx", [F3, F5, F7, BIG, Q], ids=repr)
    def test_adjoint_sl2(self, ctx):
        alg = sl2_algebra(ctx)
        e12, e21 = (ctx.zeros(2, 2) for _ in range(2))
        e12[0, 1] = e21[1, 0] = ctx.one
        want = ref_adjoint_module(
            alg, [("X2", (2,), e12), ("X-2", (-2,), e21)],
            [(0,), (2,), (-2,)], "adjoint-sl2")
        assert_same_module(adjoint_sl2_module(ctx), want)

    @pytest.mark.parametrize("ctx", [F3, F5, F7, Q], ids=repr)
    def test_adjoint_sp4(self, ctx):
        g = brj.sp4_algebra(ctx)
        roots = brj.SP4_ROOTS
        want = ref_adjoint_module(
            g, [(l, w, g.matrix_basis[i]) for i, (l, w, _) in enumerate(roots)],
            [w for _, w, _ in roots] + [(0, 0), (0, 0)], "adjoint-sp4")
        assert_same_module(brj.sp4_adjoint_module(g), want)


def count_validations(monkeypatch):
    """The families of each CoeffOperatorFamily.validate call, self first,
    one tuple per call in call order."""
    calls = []
    validate = CoeffOperatorFamily.validate

    def counting(self, *others):
        calls.append((self, *others))
        validate(self, *others)

    monkeypatch.setattr(CoeffOperatorFamily, "validate", counting)
    return calls


def checked_once(calls):
    """The families the calls cover, asserting that none is covered twice.
    The calls keep every family alive, so distinct families have distinct
    ids."""
    fams = [f for call in calls for f in call]
    assert len(fams) == len({id(f) for f in fams})
    return fams


class TestValidationCount:
    def test_sym2_validates_each_family_once(self, monkeypatch):
        calls = count_validations(monkeypatch)
        sym2(symn_dual(5, Q))
        # one call for each of Sym_5, its dual and Sym2 of the dual, two
        # families each; the tensor square is never built as a module
        assert len(calls) == 3
        assert [f.label for f in checked_once(calls)] == ["X2", "X-2"] * 3

    def test_adjoint_sl2_validates_each_family_once(self, monkeypatch):
        calls = count_validations(monkeypatch)
        adjoint_sl2_module(F7)
        assert [[f.label for f in call] for call in calls] == [["X2", "X-2"]]

    def test_brj_validates_each_family_once(self, monkeypatch):
        calls = count_validations(monkeypatch)
        brj.brj25(p=5, skip_simplicity=True)
        # one call for each of the eight modules V, L2V, Lw2, N, M, U,
        # Sym2U and the adjoint module, each with sp4's eight root families
        assert len(calls) == 8
        assert len(checked_once(calls)) == 64
        labels = [l for l, _, _ in brj.SP4_ROOTS]
        assert all([f.label for f in call] == labels for call in calls)


def count_conversions(monkeypatch):
    """The names of the linalg.from_int and linalg.int_scaled calls, the
    conversions between field arrays and integer forms, in call order."""
    calls = []
    for name in ("from_int", "int_scaled"):
        real = getattr(linalg, name)

        def counting(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(linalg, name, counting)
    return calls


class TestIntegerFormCount:
    def test_q_forms_convert_no_fraction_array(self, monkeypatch):
        # Sym_5*, its Sym2 and adjoint sl2 are built from the integer
        # arrays of symn_module and SL2_BRACKETS, so neither the builds nor
        # the hom solve make a Fraction array or turn one into integers
        calls = count_conversions(monkeypatch)
        rep = hom_space(sym2(symn_dual(5, Q)), adjoint_sl2_module(Q), "both")
        assert (rep.dim_group, rep.dim_algebra) == (1, 1)
        assert calls == []

    def test_trivial_quotient_defect_reads_integer_forms(self, monkeypatch):
        # the seeds are the columns of the operators' integer forms, the
        # table's images of the unit vectors: no Fraction array over Q, and
        # the closure of the Fraction columns.  Sym2 of the self-dual Sym_4*
        # has one trivial quotient, the invariant form
        m = sym2(symn_dual(4, Q))
        ops = m.all_operators()
        want = linalg.invariant_closure(
            Q, m.dim, [v for op in ops for v in op.data.T],
            OpTable.of(Q, m.dim, ops))
        calls = count_conversions(monkeypatch)
        got = trivial_quotient_defect(m)
        assert calls == []
        assert got == want and got.pivots == want.pivots
        assert (got.dim, m.dim) == (14, 15)


class TestRepresentationCheck:
    """GModule checks [A_i, A_j] = sum_k brackets[i, j, k] A_k."""

    @pytest.mark.parametrize("ctx", [F5, BIG, Q], ids=repr)
    def test_wrong_bracket_is_named(self, ctx):
        m = sym2(symn_dual(3, ctx))
        GModule(ctx, m.labels, m.lie_labels, m.lie_action, m.families,
                brackets=m.brackets)
        # basis H, E12, E21: [E12, E21] = H, made 2H
        bad = m.brackets.copy()
        bad[1, 2, 0] = ctx.of(2)
        with pytest.raises(CompositionViolation, match=r"fails on \(1,2\)"):
            GModule(ctx, m.labels, m.lie_labels, m.lie_action, m.families,
                    brackets=bad)

    def test_brackets_shape_is_checked(self):
        m = adjoint_sl2_module(F5)
        with pytest.raises(DimensionMismatch):
            GModule(F5, m.labels, m.lie_labels, m.lie_action, m.families,
                    brackets=F5.zeros(2, 2, 2))


class TestDual:
    def test_double_dual_is_original(self):
        m = symn_module(3, F5)
        dd = dual(dual(m))
        for a, b in zip(dd.lie_action, m.lie_action):
            assert np.array_equal(a.data, b.data)
        for fa, fb in zip(dd.families, m.families):
            assert len(fa.ops) == len(fb.ops)
            for oa, ob in zip(fa.ops, fb.ops):
                assert np.array_equal(oa.data, ob.data)

    def test_dual_action_matches_closed_form(self):
        # on the dual basis: E12 s*_i = -(n-i+1) s*_{i-1}, E21 s*_i = -(i+1) s*_{i+1}
        n = 3
        m = symn_dual(n, Q)
        e12 = m.lie_action[1].data
        e21 = m.lie_action[2].data
        h = m.lie_action[0].data
        for i in range(n + 1):
            if i > 0:
                assert e12[i - 1, i] == -(n - i + 1)
            if i < n:
                assert e21[i + 1, i] == -(i + 1)
            assert h[i, i] == n - 2 * i


class TestTensorAndSquares:
    def test_tensor_dims_and_weights(self):
        a = symn_module(1, F5)
        b = symn_module(2, F5)
        t = tensor(a, b)
        assert t.dim == 6
        assert t.weights[0] == (a.weights[0][0] + b.weights[0][0],)
        t.validate()

    def test_sym2_lambda2_dims(self):
        m = symn_module(3, F5)
        assert sym2(m).dim == 10
        assert lambda2(m).dim == 6

    def test_sym2_of_tautological_is_adjointlike(self):
        # Sym^2 of the 2-dim module has the same weights as the adjoint
        s = sym2(symn_module(1, F7))
        assert sorted(s.weights) == [(-2,), (0,), (2,)]
        rep = hom_space(s, adjoint_sl2_module(F7), mode="both")
        assert rep.dim_group == 1 and rep.dim_algebra == 1


def _ints(ctx, a):
    """a as Python ints: the residues, or over Q the entries, which are all
    integers in the modules tested here."""
    if ctx.p:
        return a.astype(object)
    assert all(x.denominator == 1 for x in a.flat)
    return np.vectorize(int, otypes=[object])(a)


def _ref_tensor_ops(m1, m2):
    """Dense reference for the tensor product's operators, over the
    integers: plain np.kron, not yet reduced."""
    ctx = m1.ctx
    i1, i2 = np.eye(m1.dim, dtype=int), np.eye(m2.dim, dtype=int)
    lie = [np.kron(_ints(ctx, a.data), i2) + np.kron(i1, _ints(ctx, b.data))
           for a, b in zip(m1.lie_action, m2.lie_action)]
    fams = []
    for f1 in m1.families:
        f2 = m2.family_by_label(f1.label)
        ops = [sum(np.kron(_ints(ctx, op_or_zero(f1, a).data),
                           _ints(ctx, op_or_zero(f2, k - a).data))
                   for a in range(k + 1))
               for k in range(f1.degree + f2.degree + 1)]
        fams.append(ops)
    return lie, fams


def op_or_zero(fam, k):
    """op_k of the family, the zero operator past its degree."""
    if k <= fam.degree:
        return fam.op(k)
    return Matrix.zeros(fam.ctx, fam.dim, fam.dim)


def _ref_pair_maps(n, sign):
    """Dense 2 proj (d x n^2) and iota (n^2 x d) of the (anti)symmetric
    square, sign +1 on e_i e_j (i <= j), -1 on e_i ^ e_j (i < j)."""
    pairs = [(i, j) for i in range(n) for j in range(i, n) if sign > 0 or i < j]
    proj2 = np.zeros((len(pairs), n * n), dtype=object)
    iota = np.zeros((n * n, len(pairs)), dtype=object)
    for c, (i, j) in enumerate(pairs):
        iota[i * n + j, c] = 1
        proj2[c, i * n + j] = 1 if i != j else 2
        if i != j:
            iota[j * n + i, c] = sign
            proj2[c, j * n + i] = sign
    return proj2, iota


def _field(ctx, a, scale=1):
    """The integer array a / scale as canonical field scalars."""
    if ctx.p:
        return a * ctx.inv(scale) % ctx.p
    return np.vectorize(lambda x: Fraction(x, scale), otypes=[object])(a)


def _assert_ops_equal(ctx, got, want):
    """got (Matrices) against want (field arrays), with trailing zero
    operators of want dropped as CoeffOperatorFamily does."""
    while len(want) > len(got) and not np.any(want[-1]):
        want = want[:-1]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.data, w)
        if ctx.dtype is object:
            kind = int if ctx.p else Fraction
            assert all(type(x) is kind for x in g.data.flat)


class TestTensorKernelDifferential:
    """tensor, sym2 and lambda2 against dense Kronecker products and
    proj . T . iota as plain matrix products."""

    @pytest.mark.parametrize("ctx", [Q, F5, INT64_TOP, BIG],
                             ids=lambda c: repr(c))
    def test_against_dense_reference(self, ctx):
        assert INT64_TOP.dtype is np.int64
        assert FieldCtx.prime(33554467).dtype is object  # the next prime
        mods = [symn_dual(n, ctx) for n in range(5)]
        mods.append(brj.sp4_natural_module(brj.sp4_algebra(ctx)))
        for m in mods:
            lie, fams = _ref_tensor_ops(m, m)
            t = tensor(m, m)
            _assert_ops_equal(ctx, t.lie_action, [_field(ctx, a) for a in lie])
            for f, ops in zip(t.families, fams):
                _assert_ops_equal(ctx, f.ops, [_field(ctx, a) for a in ops])
            for sign, square in ((1, sym2), (-1, lambda2)):
                proj2, iota = _ref_pair_maps(m.dim, sign)

                def compress(a):
                    return _field(ctx, proj2 @ a @ iota, 2)

                s = square(m)
                _assert_ops_equal(ctx, s.lie_action, [compress(a) for a in lie])
                for f, ops in zip(s.families, fams):
                    _assert_ops_equal(ctx, f.ops, [compress(a) for a in ops])


class TestSubquotients:
    def test_submodule_generated_full(self):
        m = symn_module(3, F5)
        e = F5.zeros(4)
        e[0] = 1
        assert submodule_generated(m, [e]).dim == 4

    def test_quotient_requires_invariance(self):
        m = symn_module(2, F5)
        v = F5.zeros(3)
        v[1] = 1
        w = Subspace.from_vectors(F5, 3, [v])
        with pytest.raises(NotInvariant):
            quotient_module(m, w)

    def test_quotient_by_invariant_line(self):
        # over F_3, s0 generates the proper submodule span(s0, s3) of Sym_3
        # (C(3, 1) and C(3, 2) vanish); s1 generates everything
        m = symn_module(3, F3)
        w = submodule_generated(m, [F3.vec([1, 0, 0, 0])])
        assert w.dim == 2
        q = quotient_module(m, w)
        assert q.dim == 2 and q.labels == ("s1~", "s2~")

    def test_quotient_with_basis_requires_invariant_w(self):
        # over F_3 every operator before X2[t^3] maps s0 into span(s0),
        # but X2[t^3] s0 = s3
        m = symn_module(3, F3)
        e = F3.eye(4)
        w = Subspace.from_vectors(F3, 4, [e[0]])
        with pytest.raises(NotInvariant) as exc:
            quotient_module_with_basis(m, w, list(e[1:]), ["s1", "s2", "s3"])
        assert exc.value.operator_name == "X2[t^3]"

    def test_quotient_with_basis_matches_quotient(self):
        m = symn_module(3, F3)
        w = submodule_generated(m, [F3.vec([1, 0, 0, 0])])
        assert 0 < w.dim < 4
        keep = [i for i in range(4) if i not in w.pivots]
        q = quotient_module(m, w)
        qb = quotient_module_with_basis(
            m, w, [F3.eye(4)[i] for i in keep], q.labels)
        assert qb.weights == q.weights == tuple(m.weights[i] for i in keep)
        assert qb.lie_action == q.lie_action
        assert [f.ops for f in qb.families] == [f.ops for f in q.families]

    def test_module_from_subspace_reads_integer_forms(self, monkeypatch):
        # over Q the rows are the basis's integer form: no Fraction array
        # is made or turned back into integers.  The module is the one the
        # Fraction basis rows give, since scaling every rep by one scalar
        # changes no induced matrix
        m = sym2(symn_dual(4, Q))
        w = submodule_generated(m, [Q.eye(m.dim)[0]])
        assert (m.dim, w.dim) == (15, 9)
        want = quotient_module_with_basis(
            m, Subspace.zero(Q, m.dim), list(w.basis.data),
            [f"w{i}" for i in range(9)], name="submodule")
        calls = count_conversions(monkeypatch)
        got = module_from_subspace(m, w)
        assert calls == []
        assert_same_module(got, want)

    def test_quotient_module_reads_integer_forms(self, monkeypatch):
        # the reps are integer unit vectors: the same module as the
        # Fraction unit vectors give, with no conversion over Q
        m = sym2(symn_dual(4, Q))
        w = submodule_generated(m, [Q.eye(m.dim)[0]])
        keep = [i for i in range(m.dim) if i not in w.pivots]
        want = quotient_module_with_basis(
            m, w, list(Q.eye(m.dim)[keep]), [m.labels[i] + "~" for i in keep],
            name=m.meta["name"] + "/w")
        calls = count_conversions(monkeypatch)
        got = quotient_module(m, w)
        assert calls == []
        assert_same_module(got, want)

    def test_mixed_weight_representative_rejected(self):
        # span(s0 + s1, s1, s2) is all of Sym_2, so the operators preserve
        # it, but s0 + s1 has coordinates of weights -2 and 0
        m, zero = symn_module(2, F5), Subspace.zero(F5, 3)
        e = F5.eye(3)
        with pytest.raises(InputError, match="representative mix"):
            quotient_module_with_basis(m, zero, [e[0] + e[1], e[1], e[2]],
                                       ["mix", "s1", "s2"])
        q = quotient_module_with_basis(m, zero, list(e), ["s0", "s1", "s2"])
        assert q.weights == m.weights

    def test_module_from_subspace_roundtrip_dims(self):
        m = symn_module(3, F3)
        w = submodule_generated(m, [F3.vec([1, 0, 0, 0])])
        sub = module_from_subspace(m, w)
        assert sub.dim == w.dim == 2
        sub.validate()

    def test_trivial_quotient_defect_full_for_symn(self):
        m = symn_module(3, F5)
        assert trivial_quotient_defect(m).dim == 4


class TestHom:
    def test_identity_always_present(self):
        m = symn_module(2, F5)
        rep = hom_space(m, m, mode="both")
        assert rep.dim_group >= 1 and rep.dim_algebra >= 1
        # identity is in the computed basis span
        span = Subspace.from_vectors(
            F5, 9, [f.data.reshape(-1) for f in rep.basis_group])
        assert span.contains(F5.eye(3).reshape(-1).copy())

    def test_group_dim_at_most_algebra_dim(self):
        for n, ctx in [(2, F5), (3, F5), (4, F7), (3, Q)]:
            m1 = sym2(symn_dual(n, ctx))
            m2 = adjoint_sl2_module(ctx)
            rep = hom_space(m1, m2, mode="both")
            assert rep.dim_group <= rep.dim_algebra

    def test_no_homs_between_different_weights(self):
        rep = hom_space(symn_module(1, F5), symn_module(3, F5), mode="group")
        assert rep.dim == 0

    def test_socle_of_direct_sumlike_tensor(self):
        # Sym_1 (x) Sym_1 = adjoint + trivial over F5; the socle under
        # copies of Sym_1 is zero (no odd-dimensional constituent is Sym_1)
        t = tensor(symn_module(1, F5), symn_module(1, F5))
        soc = socle_via_homs(t, [symn_module(1, F5)])
        assert soc.dim == 0


def is_diagonal(m: Matrix) -> bool:
    return np.count_nonzero(m.ints) == np.count_nonzero(np.diagonal(m.ints))


def ref_weight_support(d1, d2, pairs):
    """d2 x d1 mask of the entries of f that B f = f A allows to be
    nonzero, from the Matrix pairs (A, B) that are both diagonal."""
    mask = np.ones((d2, d1), dtype=bool)
    for a, b in pairs:
        if is_diagonal(a) and is_diagonal(b):
            mask &= (np.diagonal(b.ints)[:, None] * a.scale
                     == np.diagonal(a.ints)[None, :] * b.scale)
    return mask


def full_system_kernel(ctx, d1, d2, pairs):
    """Kernel of the stacked Kronecker system B f - f A = 0 on all d1*d2
    entries of f (flattened row-major), one pair's block at a time.  The
    order of the blocks does not change the kernel; diagonal blocks go first
    because they make the later ones cheap."""
    n = d1 * d2
    space = None
    for a, b in sorted(pairs, key=lambda ab: not (
            is_diagonal(ab[0]) and is_diagonal(ab[1]))):
        block = ctx.reduce(np.kron(b.data, ctx.eye(d1))
                           - np.kron(ctx.eye(d2), a.data.T))
        if space is None:
            space = kernel(Matrix(ctx, block))
            continue
        resid = exact_matmul(ctx, space.basis.data, block.T)
        coeffs = kernel(Matrix(ctx, resid.T))
        space = Subspace.from_vectors(
            ctx, n, list(exact_matmul(ctx, coeffs.basis.data,
                                      space.basis.data)))
    return space


def as_pairs(tables):
    """The Matrix pairs (A_p, B_p) of the op pairs of two tables."""
    return list(zip(*(t.matrices() for t in tables)))


def table_pairs(m1, m2, mode):
    """(op pairs, implied diagonals) that hom_space solves in mode."""
    alg, grp, deg1 = _constraint_pairs(m1, m2, mode)
    if mode == "algebra":
        return alg, []
    return grp, [_implied_pairs(m1.ctx, deg1)]


def ref_constraint_pairs(m1, m2):
    """(algebra pairs, group pairs, degree-1 group pairs) as the Matrix
    lists _constraint_pairs made before it matched tables by op index:
    (a, b) for each Lie element, then (A_k, B_k) of each family of m1 and
    m2's family of its label, k = 1..max degree, zero past a degree."""
    grp, deg1 = [], []
    for f1 in m1.families:
        f2 = m2.family_by_label(f1.label)
        deg1.append((op_or_zero(f1, 1), op_or_zero(f2, 1)))
        grp += [(op_or_zero(f1, k), op_or_zero(f2, k))
                for k in range(1, max(f1.degree, f2.degree) + 1)]
    return list(zip(m1.lie_action, m2.lie_action)), grp, deg1


def mode_pairs(m1, m2, mode):
    """(constraint pairs, implied pairs) of mode as Matrix pairs: those of
    ref_constraint_pairs, which the tables' pairs match, and the dense
    commutator pairs."""
    alg, grp, deg1 = ref_constraint_pairs(m1, m2)
    tables = table_pairs(m1, m2, mode)[0]
    if mode == "algebra":
        assert as_pairs(tables) == alg
        return alg, []
    assert as_pairs(tables) == grp
    assert as_pairs(_constraint_pairs(m1, m2, mode)[2]) == deg1
    return grp, ref_commutator_pairs(deg1)


def support_size(m1, m2, mode):
    pairs, implied = table_pairs(m1, m2, mode)
    mask = _weight_mask(m1.dim, m2.dim, [_diagonals(pairs)] + implied)
    ref_pairs, ref_implied = mode_pairs(m1, m2, mode)
    assert np.array_equal(mask, ref_weight_support(
        m1.dim, m2.dim, ref_pairs + ref_implied))
    return int(mask.sum())


def assert_matches_full_system(m1, m2, mode):
    """The weight-supported solve gives the subspace of the full system, and
    hom_space returns its canonical basis."""
    ctx, d1, d2 = m1.ctx, m1.dim, m2.dim
    pairs, implied = mode_pairs(m1, m2, mode)
    want = full_system_kernel(ctx, d1, d2, pairs)
    got = _intertwiner_space(ctx, d1, d2, *table_pairs(m1, m2, mode))
    assert got == want and got.pivots == want.pivots
    # the integer Kronecker system against the one built over the field
    ref = ref_intertwiner_space(ctx, d1, d2, pairs, implied)
    assert got.pivots == ref.pivots
    assert got.basis.data.dtype == ref.basis.data.dtype
    assert [(type(x), x) for x in got.basis.data.flat] == \
        [(type(x), x) for x in ref.basis.data.flat]
    rep = hom_space(m1, m2, mode=mode)
    assert rep.dim == want.dim
    for f, v in zip(rep.basis, want.basis.data):
        assert np.array_equal(f.data.reshape(-1), v)
    return rep


@pytest.fixture(scope="module")
def brj_hom_calls():
    """(m1, m2, mode) of each hom_space call of the p = 5 pipeline."""
    calls = []

    def record(m1, m2, mode="group"):
        calls.append((m1, m2, mode))
        return hom_space(m1, m2, mode)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modules, "hom_space", record)
        mp.setattr(brj, "hom_space", record)
        brj.brj25(p=5, skip_simplicity=True)
    return {(m1.meta["name"], m2.meta["name"]): (m1, m2, mode)
            for m1, m2, mode in calls}


def conjugated(m, p_rows, p_inv_rows):
    ctx = m.ctx
    p = Matrix.from_rows(ctx, p_rows)
    p_inv = Matrix.from_rows(ctx, p_inv_rows)
    assert (p @ p_inv).is_identity()
    fams = [CoeffOperatorFamily(f.label, [p @ op @ p_inv for op in f.ops])
            for f in m.families]
    return GModule(ctx, m.labels, m.lie_labels,
                   [p @ a @ p_inv for a in m.lie_action], fams,
                   brackets=m.brackets, meta={"name": "conjugated"})


class TestHomWeightSupport:
    @pytest.mark.parametrize("mode", ["algebra", "group"])
    def test_brj_sym2u_to_adjoint(self, brj_hom_calls, mode):
        s2u, adj, _ = brj_hom_calls[("Sym2(U)", "adjoint-sp4")]
        assert s2u.dim * adj.dim == 780
        assert support_size(s2u, adj, mode) == 44
        assert assert_matches_full_system(s2u, adj, mode).dim == 1

    def test_brj_socle_hom(self, brj_hom_calls):
        v, m, mode = brj_hom_calls[("V", "M")]
        assert mode == "group"
        # M's echelon basis consists of weight vectors, so the coroots
        # (commutators of opposite root families) are diagonal there too
        assert support_size(v, m, mode) == 8
        assert assert_matches_full_system(v, m, mode).dim == 1

    @pytest.mark.parametrize("ctx,n", [(F7, n) for n in range(1, 7)]
                             + [(Q, n) for n in range(1, 4)]
                             + [(BIG, n) for n in range(1, 4)])
    def test_sl2_forms(self, ctx, n):
        m1, m2 = sym2(symn_dual(n, ctx)), adjoint_sl2_module(ctx)
        for mode in ("algebra", "group"):
            assert assert_matches_full_system(m1, m2, mode).dim == n % 2

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("mode", ["algebra", "group"])
    def test_weights_colliding_mod_p(self, n, mode):
        m = symn_module(n, F5)
        same_weight = sum(w1 == w2 for w1 in m.weights for w2 in m.weights)
        assert support_size(m, m, mode) > same_weight
        assert_matches_full_system(m, m, mode)

    def test_algebra_maps_between_weights_equal_mod_p(self):
        # s_0 and s_5 in Sym_5 have weights -5, 5 = 0 in F_5 and are killed
        # by h, e, f, but the divided powers X(+-2)[t^5] move them
        triv, m = symn_module(0, F5), symn_module(5, F5)
        alg = assert_matches_full_system(triv, m, "algebra")
        assert alg.dim == 2
        images = {int(np.nonzero(f.data[:, 0])[0][0]) for f in alg.basis}
        assert {m.weights[i] for i in images} == {(-5,), (5,)}
        assert assert_matches_full_system(triv, m, "group").dim == 0

    @pytest.mark.parametrize("mode", ["algebra", "group"])
    def test_fractional_entries_over_q(self, mode):
        # conjugating by diag(3, 1, 1) gives the operators entries in
        # thirds, so the two sides of each pair have different denominators
        adj = adjoint_sl2_module(Q)
        c = conjugated(adj, [[3, 0, 0], [0, 1, 0], [0, 0, 1]],
                       [["1/3", 0, 0], [0, 1, 0], [0, 0, 1]])
        assert any(x.denominator == 3 for op in c.all_operators()
                   for x in op.data.flat)
        for m1, m2 in ((c, adj), (adj, c)):
            assert assert_matches_full_system(m1, m2, mode).dim == 1

    @pytest.mark.parametrize("mode", ["algebra", "group"])
    def test_no_diagonal_operator_keeps_full_support(self, mode):
        adj = adjoint_sl2_module(F7)
        c = conjugated(adj, [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
                       [[1, -1, 1], [0, 1, -1], [0, 0, 1]])
        s = sym2(symn_dual(1, F7))
        assert not any(is_diagonal(op) for op in c.all_operators())
        for m1, m2 in ((c, c), (s, c), (c, s)):
            assert support_size(m1, m2, mode) == 9
            rep = assert_matches_full_system(m1, m2, mode)
            assert rep.dim == hom_space(adj, adj, mode).dim == 1


# ---------------------------------------------------------------------------
# the replaced dense checks, kept as references for the sparse joins
# ---------------------------------------------------------------------------

def ref_family_validate(ctx, label, ops):
    """The per-(a, b) loop CoeffOperatorFamily.validate ran after its
    identity check: one product J_a J_b per pair."""
    d = len(ops) - 1
    ints, s = int_family(ctx, [op.data for op in ops])
    for a in range(d + 1):
        for b in range(d + 1):
            lhs = int_matmul(ctx, ints[a], ints[b])
            if a + b > d:
                if np.any(lhs):
                    raise CompositionViolation(
                        f"{label}: A_{a} A_{b} nonzero beyond degree {d}")
                continue
            rhs = ints[a + b] * ctx.reduce(math.comb(a + b, a) * s)
            if np.any(ctx.reduce(lhs - rhs)):
                raise CompositionViolation(
                    f"{label}: A_{a} A_{b} != C({a+b},{a}) A_{a+b}")


def ref_check_brackets(ctx, lie_action, brackets):
    """The per-i dense bracket check: per i, one product for every A_i A_j,
    one for every A_j A_i and one for every right-hand side."""
    n, d = lie_action[0].rows, len(lie_action)
    stack = np.stack([m.data for m in lie_action])
    for i in range(d - 1):
        rest, m = stack[i + 1:], d - 1 - i
        ab = exact_matmul(ctx, stack[i],
                          rest.transpose(1, 0, 2).reshape(n, m * n))
        ba = exact_matmul(ctx, rest.reshape(m * n, n), stack[i])
        want = exact_matmul(ctx, brackets[i, i + 1:], stack.reshape(d, n * n))
        diff = (ab.reshape(n, m, n).transpose(1, 0, 2).reshape(m, -1)
                - ba.reshape(m, -1) - want)
        bad = np.flatnonzero(ctx.reduce(diff).astype(bool).any(axis=1))
        if len(bad):
            raise CompositionViolation(
                f"representation property fails on ({i},{i + 1 + bad[0]})")


def ref_check_weights(families, weights):
    """The per-entry weight loop."""
    for f in families:
        if f.root is None:
            continue
        for k, op in enumerate(f.ops):
            if k == 0:
                continue
            for r, c in zip(*np.nonzero(op.data)):
                if tuple(a + k * b for a, b in zip(weights[c], f.root)) \
                        != weights[r]:
                    raise CompositionViolation(
                        f"{f.label}: op_{k} breaks weights at ({r},{c})")


def ref_intertwiner_space(ctx, d1, d2, op_pairs, implied=()):
    """_intertwiner_space with the Kronecker columns built over the field
    (Fraction subtraction over Q)."""
    n = d1 * d2
    rs, cs = np.nonzero(ref_weight_support(d1, d2,
                                           list(op_pairs) + list(implied)))
    unknowns = np.arange(len(rs))
    space = None
    for a, b in op_pairs:
        cols = ctx.zeros(d2, d1, len(rs))
        cols[:, cs, unknowns] = b.data[:, rs]
        cols[rs, :, unknowns] -= a.data[cs, :]
        lmat = ctx.reduce(cols.reshape(n, len(rs)))
        lmat = lmat[np.any(lmat, axis=1)]
        if space is None:
            space = kernel(Matrix(ctx, lmat))
        elif lmat.shape[0]:
            space = space.where_zero(exact_matmul(ctx, space.basis.data,
                                                  lmat.T))
        if space.dim == 0:
            break
    if space is None:
        space = Subspace.full(ctx, len(rs))
    support = rs * d1 + cs
    basis = ctx.zeros(space.dim, n)
    basis[:, support] = space.basis.data
    return Subspace(ctx, n, Matrix(ctx, basis),
                    [int(support[c]) for c in space.pivots])


def ref_product_coeffs(ctx, ops1, ops2, ks):
    """(integer T_k for k in ks, their scale) with T_k / scale the t^k
    coefficient of (sum_a t^a ops1[a]) (x) (sum_b t^b ops2[b]): one dense
    n1 n2 x n1 n2 array per k, each Kronecker term J_a (x) K_b added into
    it from the nonzero entries."""
    (j1, s1), (j2, s2) = int_family(ctx, ops1), int_family(ctx, ops2)
    nz1, nz2 = [nonzeros(j) for j in j1], [nonzeros(j) for j in j2]
    (r1, c1), (r2, c2) = j1[0].shape, j2[0].shape
    out = []
    for k in ks:
        acc = np.zeros((r1 * r2, c1 * c2), dtype=ctx.dtype)
        lo, hi = max(0, k - len(j2) + 1), min(k, len(j1) - 1)
        for n_terms, a in enumerate(range(lo, hi + 1), 1):
            ra, ca, va = nz1[a]
            rb, cb, vb = nz2[k - a]
            # the (row, col) pairs of one Kronecker term are distinct
            acc[np.add.outer(ra * r2, rb), np.add.outer(ca * c2, cb)] += \
                np.multiply.outer(va, vb)
            if n_terms % 4096 == 0:
                acc = ctx.reduce(acc)
        out.append(acc)
    return out, s1 * s2


def ref_tensor_coeffs(m1, m2):
    """([(T, scale)] of the Lie elements, [(family, [T_k], scale)] of the
    families) of m1 (x) m2 on the dense tensor-square arrays."""
    ctx = m1.ctx
    i1, i2 = Matrix.identity(ctx, m1.dim), Matrix.identity(ctx, m2.dim)
    lie = [(ts[0], s) for ts, s in (
        ref_product_coeffs(ctx, [i1, a], [i2, b], [1])
        for a, b in zip(m1.lie_action, m2.lie_action))]
    fams = []
    for f1 in m1.families:
        f2 = m2.family_by_label(f1.label)
        ts, s = ref_product_coeffs(ctx, f1.ops, f2.ops,
                                   range(f1.degree + f2.degree + 1))
        fams.append((f1, ts, s))
    return lie, fams


def ref_compress(ctx, n, sign):
    """proj . T . iota of the (anti)symmetric square as an index gather of
    the n^2 x n^2 integer array T: rows and columns at i*n + j, i <= j
    (i < j for sign -1), plus sign times the columns at j*n + i."""
    pairs = [(i, j) for i in range(n) for j in range(i, n) if sign > 0 or i < j]
    first = np.array([i * n + j for i, j in pairs], dtype=np.int64)
    swapped = np.array([j * n + i for i, j in pairs], dtype=np.int64)
    off = first != swapped

    def compress(t, s):
        rows = t[first]
        out = rows[:, first]
        out[:, off] += sign * rows[:, swapped[off]]
        return Matrix.from_int(ctx, out, s)

    return compress


def ref_operators(m, sign=None):
    """(Lie action, family operators) of tensor(m, m) (sign None), sym2(m)
    (sign +1) or lambda2(m) (sign -1) from the dense references."""
    ctx = m.ctx
    lie, fams = ref_tensor_coeffs(m, m)
    if sign is None:
        def compress(t, s):
            return Matrix.from_int(ctx, t, s)
    else:
        compress = ref_compress(ctx, m.dim, sign)
    return ([compress(t, s) for t, s in lie],
            [CoeffOperatorFamily(f.label, [compress(t, s) for t in ts]).ops
             for f, ts, s in fams])


def ref_commutator_pairs(pairs):
    """([a, a'], [b, b']) for every two pairs (a, b), (a', b'), each by four
    dense products."""
    return [(a @ a2 - a2 @ a, b @ b2 - b2 @ b)
            for i, (a, b) in enumerate(pairs) for a2, b2 in pairs[i + 1:]]


def outcome(fn, *args, **kw):
    """(exception type, message) of fn(*args, **kw), or None."""
    try:
        fn(*args, **kw)
    except CompositionViolation as e:
        return type(e).__name__, str(e)
    return None


def ref_module(ctx, labels, lie_labels, lie, families, weights, brackets):
    """GModule.validate's bracket and weight checks as the loops ran them."""
    if brackets is not None:
        ref_check_brackets(ctx, lie, brackets)
    if weights:
        ref_check_weights(families, tuple(tuple(w) for w in weights))


def lw2(ctx):
    """brj's Lw2: the quotient of Lambda^2 of sp4's natural module by the
    line of its invariant form, built over any field."""
    l2 = lambda2(brj.sp4_natural_module(brj.sp4_algebra(ctx)))
    _, pos, _ = square_layout(4, -1)
    z = ctx.zeros(6)
    z[pos[0, 2]] = z[pos[1, 3]] = ctx.one
    return quotient_module(l2, Subspace.from_vectors(ctx, 6, [z]))


def spots(a):
    """A few entries of a square array to perturb: its first, middle and
    last nonzero entry and its first zero entry."""
    nz = list(zip(*np.nonzero(a.astype(bool))))
    zero = list(zip(*np.nonzero(~a.astype(bool))))
    picks = [nz[0], nz[len(nz) // 2], nz[-1]] if nz else []
    return sorted(set(picks + zero[:1]))


def bumped(op, r, c, delta):
    data = op.data.copy()
    data[r, c] = op.ctx.add(data[r, c], delta)
    return Matrix(op.ctx, data)


DIFF_MODULES = {
    "symn": lambda ctx: symn_module(3, ctx),
    "symn_dual": lambda ctx: symn_dual(4, ctx),
    "sym2": lambda ctx: sym2(symn_dual(2, ctx)),
    "lambda2": lambda ctx: lambda2(symn_module(3, ctx)),
    "adjoint": adjoint_sl2_module,
    "lw2": lw2,
}


class TestModuleChecksDifferential:
    """The family, bracket and weight checks on sparse joins against the
    dense loops they replaced: the same exception type and message, hence
    the same (a, b), (i, j) or (r, c), on modules with one entry changed."""

    @pytest.mark.parametrize("name", sorted(DIFF_MODULES))
    @pytest.mark.parametrize("ctx", [F3, F5, F7, BIG, Q], ids=repr)
    def test_perturbed(self, ctx, name):
        m = DIFF_MODULES[name](ctx)
        # 1/2: a new denominator over Q, a nonzero residue over F_p
        delta = ctx.of(Fraction(1, 2))
        caught = 0  # changes that the checks reject
        for f in m.families:
            for k in range(1, len(f.ops)):
                for r, c in spots(f.ops[k].data):
                    ops = list(f.ops)
                    ops[k] = bumped(ops[k], r, c, delta)
                    while len(ops) > 1 and ops[-1].is_zero():
                        ops.pop()
                    want = outcome(ref_family_validate, ctx, f.label, ops)
                    got = outcome(CoeffOperatorFamily, f.label, ops, f.root)
                    assert got == want
                    caught += want is not None
        args = (ctx, m.labels, m.lie_labels)
        for i, a in enumerate(m.lie_action):
            for r, c in spots(a.data):
                lie = list(m.lie_action)
                lie[i] = bumped(a, r, c, delta)
                want = outcome(ref_module, *args, lie, m.families, m.weights,
                               m.brackets)
                got = outcome(GModule, *args, lie, m.families,
                              weights=m.weights, brackets=m.brackets)
                assert got == want
                caught += want is not None
        for i in range(m.dim):
            weights = list(m.weights)
            weights[i] = (weights[i][0] + 1,) + tuple(weights[i][1:])
            want = outcome(ref_module, *args, m.lie_action, m.families,
                           weights, m.brackets)
            got = outcome(GModule, *args, m.lie_action, m.families,
                          weights=weights, brackets=m.brackets)
            assert got == want
            caught += want is not None
        assert caught

    def test_brj_submodule(self, brj_hom_calls):
        # M, the submodule of V (x) Lw2 that the p = 5 pipeline restricts to
        _, m, _ = brj_hom_calls[("V", "M")]
        sub = m.lie_action
        assert m.brackets is not None
        for i, a in enumerate(sub):
            for r, c in spots(a.data):
                lie = list(sub)
                lie[i] = bumped(a, r, c, F5.one)
                want = outcome(ref_module, F5, m.labels, m.lie_labels, lie,
                               m.families, None, m.brackets)
                got = outcome(GModule, F5, m.labels, m.lie_labels, lie,
                              m.families, brackets=m.brackets)
                assert got == want and want is not None
        for f in m.families:
            for k in range(1, len(f.ops)):
                for r, c in spots(f.ops[k].data):
                    ops = list(f.ops)
                    ops[k] = bumped(ops[k], r, c, F5.one)
                    assert outcome(CoeffOperatorFamily, f.label, ops) == \
                        outcome(ref_family_validate, F5, f.label, ops)

    def test_weights_shape_is_checked(self):
        m = symn_module(2, F5)
        args = (F5, m.labels, m.lie_labels, m.lie_action, m.families)
        with pytest.raises(DimensionMismatch):
            GModule(*args, weights=m.weights[:-1])
        with pytest.raises(DimensionMismatch):
            GModule(*args, weights=[w + (0,) for w in m.weights])


def failure(fn, *args, **kw):
    """(exception type, message) of the SuperlieError fn(*args, **kw)
    raises, or None."""
    try:
        fn(*args, **kw)
    except SuperlieError as e:
        return type(e).__name__, str(e)
    return None


def ref_validate_each(ctx, specs):
    """validate's checks on (label, ops, root) specs as one family at a
    time ran them, in order: an empty family, op_0, then
    ref_family_validate."""
    for label, ops, _ in specs:
        if not ops:
            raise CompositionViolation(f"{label}: empty family")
        if not ops[0].is_identity():
            raise CompositionViolation(f"{label}: op_0 is not the identity")
        ref_family_validate(ctx, label, ops)


def ref_weights_each(families, weights):
    """GModule's weight check as one family at a time ran it, in order: a
    root of the wrong length, then ref_check_weights."""
    for f in families:
        if f.root is not None and len(f.root) != len(weights[0]):
            raise DimensionMismatch(f"family {f.label} root length mismatch")
        ref_check_weights([f], weights)


def trimmed(ops):
    ops = list(ops)
    while len(ops) > 1 and ops[-1].is_zero():
        ops.pop()
    return ops


def broken_ops(ctx, f):
    """f's operators with one entry of op_1 changed so that the composition
    law fails: the first of its spots that does."""
    delta = ctx.of(Fraction(1, 2))
    for r, c in spots(f.ops[1].data):
        ops = trimmed([f.ops[0], bumped(f.ops[1], r, c, delta), *f.ops[2:]])
        if failure(ref_family_validate, ctx, f.label, ops):
            return ops
    raise AssertionError(f"no spot of {f.label} breaks its composition law")


def first_and_last(n):
    """Family index pairs i < j to break together."""
    return sorted({(0, n - 1), (0, 1), (n - 2, n - 1)})


BATCH_MODULES = ["sym2", "lw2"]
BATCH_FIELDS = [F3, F5, BIG, Q]


class TestBatchOrder:
    """A batch of families, or a module's families in the weight scan,
    fails as checking the families one at a time in order fails first:
    the same exception type and message."""

    @pytest.mark.parametrize("name", BATCH_MODULES)
    @pytest.mark.parametrize("ctx", BATCH_FIELDS, ids=repr)
    def test_two_families_fail(self, ctx, name):
        fams = DIFF_MODULES[name](ctx).families
        specs = [(f.label, list(f.ops), f.root) for f in fams]
        for i, j in first_and_last(len(fams)):
            case = list(specs)
            for t in (i, j):
                case[t] = (fams[t].label, broken_ops(ctx, fams[t]),
                           fams[t].root)
            want = failure(ref_validate_each, ctx, case)
            assert want[1].startswith(f"{fams[i].label}: A_")
            assert failure(CoeffOperatorFamily.batch, case) == want

    @pytest.mark.parametrize("name", BATCH_MODULES)
    @pytest.mark.parametrize("ctx", BATCH_FIELDS, ids=repr)
    def test_identity_and_composition(self, ctx, name):
        fams = DIFF_MODULES[name](ctx).families
        specs = [(f.label, list(f.ops), f.root) for f in fams]
        two = Matrix.from_int(ctx, 2 * np.eye(fams[0].dim, dtype=np.int64))
        for i, j in first_and_last(len(fams)):
            for comp, ident in ((i, j), (j, i)):
                case = list(specs)
                f = fams[comp]
                case[comp] = (f.label, broken_ops(ctx, f), f.root)
                f = fams[ident]
                case[ident] = (f.label, [two, *f.ops[1:]], f.root)
                want = failure(ref_validate_each, ctx, case)
                assert want[1].startswith(fams[min(i, j)].label + ":")
                assert failure(CoeffOperatorFamily.batch, case) == want

    @pytest.mark.parametrize("name", BATCH_MODULES)
    @pytest.mark.parametrize("ctx", BATCH_FIELDS, ids=repr)
    def test_weights_and_root_length(self, ctx, name):
        m = DIFF_MODULES[name](ctx)
        fams = m.families

        def rooted(t, root):
            return CoeffOperatorFamily(fams[t].label, fams[t].ops, root)

        def outcomes(case):
            want = failure(ref_weights_each, case, m.weights)
            got = failure(GModule, ctx, m.labels, m.lie_labels, m.lie_action,
                          case, weights=m.weights, brackets=m.brackets)
            assert got == want
            return want

        for i, j in first_and_last(len(fams)):
            # a shifted root breaks the weights; a longer one has the
            # wrong length
            shifted = [rooted(t, [x + 1 for x in fams[t].root])
                       for t in (i, j)]
            longer = rooted(j, fams[j].root + (0,))
            case = list(fams)
            case[i], case[j] = shifted
            assert outcomes(case)[1].startswith(f"{fams[i].label}: op_")
            case[j] = longer
            assert outcomes(case)[1].startswith(f"{fams[i].label}: op_")
            case[i] = fams[i]
            assert outcomes(case)[0] == "DimensionMismatch"


class TestJson:
    def test_round_trip(self):
        m = symn_module(3, F5)
        m2 = module_from_json(m.to_json())
        assert m2.labels == m.labels
        assert m2.weights == m.weights
        for a, b in zip(m2.lie_action, m.lie_action):
            assert np.array_equal(a.data, b.data)
        for fa, fb in zip(m2.families, m.families):
            assert fa.label == fb.label and fa.root == fb.root

    @pytest.mark.parametrize("edit", [
        lambda d: d["weights"].__setitem__(0, ["a"]),
        lambda d: d["weights"].__setitem__(0, [2.5]),
        lambda d: d["weights"].__setitem__(0, [True]),
        lambda d: d["families"][0].update(root=[2.0]),
        lambda d: d["families"][0].update(root=["2"]),
    ], ids=["weight-str", "weight-float", "weight-bool", "root-float",
            "root-str"])
    def test_inexact_weight_or_root_rejected(self, edit):
        # a weight ["a"] ended in a numpy error, [2.5] in a misleading
        # CompositionViolation, and a root [2.0] was kept as a float
        d = symn_module(2, F5).to_json_dict()
        edit(d)
        with pytest.raises(InputError):
            module_from_json(json.dumps(d))

    def test_rational_round_trip(self):
        m = symn_dual(2, Q)
        m2 = module_from_json(m.to_json())
        for a, b in zip(m2.lie_action, m.lie_action):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("name, build, digest", [
        ("symn3-F5", lambda: symn_module(3, F5),
         "acb24ea184ba3152d1a8fa9ff6d534b5f770fec128ac10caf7711964f35c8657"),
        ("dual2-Q", lambda: symn_dual(2, Q),
         "25d251488ccdeb5d80b6ef2021ff162a36c851bdfcd6a1a31132472f788751e0"),
        ("sym2-dual3-BIG", lambda: sym2(symn_dual(3, BIG)),
         "00faf29ef1f465f20270512f0671b2e955b2d5cff9727482274b968475d31a7c"),
        ("fractions-Q", lambda: GModule(
            Q, ["a", "b"], ["h"],
            [Matrix.from_rows(Q, [["1/2", "0"], ["0", "-1/2"]])],
            [CoeffOperatorFamily("u", [Matrix.identity(Q, 2), Matrix.from_rows(
                Q, [["0", "1/3"], ["0", "0"]])], (1,))],
            weights=[(1,), (0,)], meta={"name": "frac"}),
         "a466f203f3da3da8e829bfafdd878a8b22508fbed773aaac7fccdc05160ff1de"),
    ])
    def test_json_digest(self, name, build, digest):
        # sha256 of to_json(), and the decoder gives the same text back
        text = build().to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert module_from_json(text).to_json() == text


# ---------------------------------------------------------------------------
# induced operators from one product, against the per-operator loop
# ---------------------------------------------------------------------------

def ref_induced_operators(ctx, named_ops, w, reps):
    """The loop induced_operators replaced: one product and one
    coordinate solve per operator, each on its own scale."""
    nw = w.dim
    if not nw + len(reps):
        return [Matrix.zeros(ctx, 0, 0) for _ in named_ops]
    rows = w.basis.ints
    if len(reps):
        rows = np.concatenate([rows,
                               linalg._array_form(ctx, np.asarray(reps))[0]])
    solver = SpanSolver(ctx, rows)
    out = []
    for name, op in named_ops:
        coords, u, in_span = solver.coords_int_rows(
            int_matmul(ctx, rows, op.ints.T), op.scale)
        if not in_span.all() or np.any(coords[:nw, nw:]):
            raise NotInvariant(name)
        out.append(Matrix.from_int(ctx, coords[nw:, nw:].T.copy(), u,
                                   reduced=True))
    return out


def induced_operators(ctx, named_ops, w, reps):
    """_induced on the table of the named Matrices, as Matrices."""
    table = OpTable.of(ctx, w.ambient_dim, [op for _, op in named_ops])
    return modules._induced(ctx, [name for name, _ in named_ops], table, w,
                            reps).matrices()


def named_operators(m):
    """Every Lie element and family coefficient of m, named as the
    subquotients name them."""
    named = list(zip(m.lie_labels, m.lie_action))
    for f in m.families:
        named += [(f"{f.label}[t^{k}]", op) for k, op in enumerate(f.ops)]
    return named


def induced_outcome(fn, *args):
    """fn(*args), or the name NotInvariant carries."""
    try:
        return fn(*args)
    except NotInvariant as e:
        return "NotInvariant", e.operator_name


class TestInducedOperatorsDifferential:
    def test_brj_layers(self, monkeypatch):
        # Lw2 = L2V / line, M <= N on its basis, U = N-span / socle
        layers = []
        real = modules._induced

        def checked(ctx, names, table, w, reps):
            got = real(ctx, names, table, w, reps)
            named = list(zip(names, table.matrices()))
            assert got.matrices() == ref_induced_operators(ctx, named, w, reps)
            layers.append((w.dim, len(reps), len(names)))
            return got

        monkeypatch.setattr(modules, "_induced", checked)
        brj.brj25(p=5, skip_simplicity=True)
        assert [layer[:2] for layer in layers] == [(1, 5), (0, 16), (4, 12)]

    @pytest.mark.parametrize("ctx", [Q, BIG], ids=repr)
    def test_sym2_submodule_and_quotient(self, ctx):
        m = sym2(symn_dual(4, ctx))
        w = submodule_generated(m, [ctx.eye(m.dim)[0]])
        assert (m.dim, w.dim) == (15, 9)
        named = named_operators(m)
        zero = Subspace.zero(ctx, m.dim)
        keep = [i for i in range(m.dim) if i not in w.pivots]
        for sub, reps in ((zero, w.basis.ints), (zero, list(w.basis.data)),
                          (w, np.eye(m.dim, dtype=np.int64)[keep]),
                          (zero, np.eye(m.dim, dtype=np.int64))):
            assert (induced_operators(ctx, named, sub, reps)
                    == ref_induced_operators(ctx, named, sub, reps))

    @pytest.mark.parametrize("ctx", [F5, Q, BIG], ids=repr)
    def test_first_failing_operator_is_named(self, ctx):
        # perturbed operators at k and k + 2: both paths name the one at k
        m = sym2(symn_dual(4, ctx))
        w = submodule_generated(m, [ctx.eye(m.dim)[0]])
        named = named_operators(m)
        keep = [i for i in range(m.dim) if i not in w.pivots]
        unit = np.zeros((m.dim, m.dim), dtype=np.int64)
        unit[keep[0], w.pivots[0]] = 1
        bump = Matrix.from_int(ctx, unit)
        for k in (0, 5, len(named) - 3):
            bad = list(named)
            for i in (k, k + 2):
                bad[i] = (bad[i][0], bad[i][1] + bump)
            for sub, reps in ((w, np.eye(m.dim, dtype=np.int64)[keep]),
                              (Subspace.zero(ctx, m.dim), w.basis.ints)):
                want = induced_outcome(ref_induced_operators, ctx, bad, sub,
                                       reps)
                assert want == ("NotInvariant", named[k][0])
                assert induced_outcome(induced_operators, ctx, bad, sub,
                                       reps) == want


# ---------------------------------------------------------------------------
# the sparse-join assembly against the dense code it replaced
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def brj_stage_modules():
    """{"V", "L2V", "U"}: sp4's natural module V, its Lambda^2 and the
    12-dimensional quotient U, as brj25(5) builds them."""
    seen = {}

    def record(fn, arg_name, out_name):
        def call(m):
            out = fn(m)
            seen.setdefault(arg_name, m)
            if out_name:
                seen.setdefault(out_name, out)
            return out
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brj, "lambda2", record(brj.lambda2, "V", "L2V"))
        mp.setattr(brj, "sym2", record(brj.sym2, "U", None))
        brj.brj25(p=5, skip_simplicity=True)
    assert [seen[k].dim for k in ("V", "L2V", "U")] == [4, 6, 12]
    return seen


def assert_squares_match_dense(m):
    """tensor(m, m), sym2(m) and lambda2(m) have the operators of the dense
    tensor-square references."""
    for sign, build in ((None, lambda m: tensor(m, m)), (1, sym2),
                        (-1, lambda2)):
        got = build(m)
        lie, fams = ref_operators(m, sign)
        assert list(got.lie_action) == lie
        assert [f.ops for f in got.families] == fams


class TestSquaresDifferential:
    """The operators folded from the sparse Kronecker entries equal the
    ones gathered from the dense tensor squares."""

    @pytest.mark.parametrize("name", ["V", "L2V", "U"])
    def test_brj_stage_modules(self, brj_stage_modules, name):
        assert_squares_match_dense(brj_stage_modules[name])

    @pytest.mark.parametrize("ctx", [F3, F5, F7, Q, BIG], ids=repr)
    def test_symn_dual_and_adjoint(self, ctx):
        for n in range(6):
            assert_squares_match_dense(symn_dual(n, ctx))
        assert_squares_match_dense(adjoint_sl2_module(ctx))

    def test_tensor_of_two_modules(self, brj_stage_modules):
        # factors of different dimensions: the pipeline's own tensor
        v, l2 = brj_stage_modules["V"], brj_stage_modules["L2V"]
        lie, fams = ref_tensor_coeffs(v, l2)
        t = tensor(v, l2)
        assert list(t.lie_action) == [Matrix.from_int(F5, a, s)
                                      for a, s in lie]
        assert [f.ops for f in t.families] == [
            CoeffOperatorFamily(f.label, [Matrix.from_int(F5, a, s)
                                          for a in ts]).ops
            for f, ts, s in fams]


def implied_cases(brj_hom_calls):
    """(m1, m2) of group-mode hom solves: brj's two, sl2 forms, weights
    that collide mod p and operators with fractions or no diagonal."""
    adj7 = adjoint_sl2_module(F7)
    skew = conjugated(adj7, [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
                      [[1, -1, 1], [0, 1, -1], [0, 0, 1]])
    adjq = adjoint_sl2_module(Q)
    thirds = conjugated(adjq, [[3, 0, 0], [0, 1, 0], [0, 0, 1]],
                        [["1/3", 0, 0], [0, 1, 0], [0, 0, 1]])
    cases = [brj_hom_calls[("Sym2(U)", "adjoint-sp4")][:2],
             brj_hom_calls[("V", "M")][:2],
             (symn_module(5, F5), symn_module(5, F5)),
             (skew, skew), (sym2(symn_dual(1, F7)), skew),
             (thirds, adjq), (adjq, thirds)]
    for ctx in (F3, F7, Q, BIG):
        for n in range(1, 4):
            cases.append((sym2(symn_dual(n, ctx)), adjoint_sl2_module(ctx)))
    return cases


class TestImpliedPairs:
    def test_diagonal_reference_pairs(self, brj_hom_calls):
        # the implied pairs are the dense commutator pairs that are
        # diagonal on both sides, in order, so the weight support is the
        # one the full list gives
        for m1, m2 in implied_cases(brj_hom_calls):
            ctx = m1.ctx
            _, _, deg1 = _constraint_pairs(m1, m2, "group")
            ref = ref_commutator_pairs(ref_constraint_pairs(m1, m2)[2])
            implied = _implied_pairs(ctx, deg1)
            (a, sa), (b, sb) = implied
            got = [(Matrix.from_int(ctx, np.diag(x), sa),
                    Matrix.from_int(ctx, np.diag(y), sb))
                   for x, y in zip(a, b)]
            assert got == [(a, b) for a, b in ref
                           if is_diagonal(a) and is_diagonal(b)]
            assert np.array_equal(_weight_mask(m1.dim, m2.dim, [implied]),
                                  ref_weight_support(m1.dim, m2.dim, ref))

    def test_brj_keeps_sixteen_pairs(self, brj_hom_calls):
        m1, m2, _ = brj_hom_calls[("Sym2(U)", "adjoint-sp4")]
        _, _, deg1 = _constraint_pairs(m1, m2, "group")
        deg1_ref = ref_constraint_pairs(m1, m2)[2]
        assert len(ref_commutator_pairs(deg1_ref)) == 28
        (a, _), (b, _) = _implied_pairs(F5, deg1)
        assert len(a) == len(b) == 16


def half_sym2():
    """Sym_2 over F5 keeping only its family X2."""
    m = symn_module(2, F5)
    return m, GModule(F5, m.labels, m.lie_labels, m.lie_action,
                      [f for f in m.families if f.label == "X2"],
                      weights=m.weights, brackets=m.brackets,
                      meta={"name": "half"})


class TestFamilyLabels:
    @pytest.mark.parametrize("mode", ["group", "both"])
    def test_labels_must_agree_both_ways(self, mode):
        m, half = half_sym2()
        for m1, m2 in ((half, m), (m, half)):
            with pytest.raises(LabelMismatch):
                hom_space(m1, m2, mode)

    def test_tensor_labels_must_agree_both_ways(self):
        # tensor(half, Sym_2) used to keep X2 alone; the reverse order
        # failed later, on the missing X-2
        m, half = half_sym2()
        for m1, m2 in ((half, m), (m, half)):
            with pytest.raises(LabelMismatch, match="different family labels"):
                tensor(m1, m2)

    def test_algebra_mode_reads_no_family(self):
        m, half = half_sym2()
        assert hom_space(half, m, "algebra").dim == \
            hom_space(m, half, "algebra").dim == 1

    def test_duplicate_labels_rejected(self):
        # Sym_1 with X2 and X-2 both labeled X2 was accepted, and its
        # group-mode endomorphisms came out 0 (the identity lost: one
        # label matched both families), against 1 in algebra mode
        m = symn_module(1, F5)
        x2, xm2 = m.families
        fams = [CoeffOperatorFamily("X2", f.ops, f.root) for f in (x2, xm2)]
        with pytest.raises(LabelMismatch, match="two families labeled X2"):
            GModule(F5, m.labels, m.lie_labels, m.lie_action, fams,
                    weights=m.weights, brackets=m.bracket_table)
        with pytest.raises(LabelMismatch, match="two families labeled X2"):
            GModule.on_table(F5, m.labels, m.lie_labels, m.table, m.offsets,
                             [("X2", x2.root), ("X2", xm2.root)],
                             weights=m.weights, brackets=m.bracket_table)
        d = m.to_json_dict()
        d["families"][1]["label"] = "X2"
        with pytest.raises(LabelMismatch, match="two families labeled X2"):
            module_from_json(json.dumps(d))


def zero_module(ctx):
    """The 0-dimensional module with Sym_0's Lie labels and families."""
    s0 = symn_module(0, ctx)
    z = Matrix.zeros(ctx, 0, 0)
    fams = [CoeffOperatorFamily(f.label, [Matrix.identity(ctx, 0)], f.root)
            for f in s0.families]
    return GModule(ctx, [], s0.lie_labels, [z for _ in s0.lie_action], fams,
                   brackets=s0.brackets, meta={"name": "zero"})


class TestEdgeCases:
    @pytest.mark.parametrize("ctx", [F3, Q, BIG], ids=repr)
    def test_trivial_and_zero_modules(self, ctx):
        s0, zero = symn_module(0, ctx), zero_module(ctx)
        s = sym2(s0)
        assert (s.dim, [f.degree for f in s.families]) == (1, [0, 0])
        assert s.labels == ("s0.s0",) and s.weights == ((0,),)
        assert lambda2(s0).dim == 0
        assert sym2(zero).dim == tensor(zero, s0).dim == 0
        # Sym_0's operators are zero: no nonzero row in either system
        rep = hom_space(s0, s0, "both")
        assert (rep.dim_group, rep.dim_algebra) == (1, 1)
        assert rep.basis[0] == Matrix.identity(ctx, 1)
        rep = hom_space(zero, s0, "both")
        assert (rep.dim_group, rep.dim_algebra) == (0, 0)


# ---------------------------------------------------------------------------
# the table paths against the dense references, module by module
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def brj_modules():
    """Every module brj25(5) builds, by name: V, L2(V), Lw2, V(x)Lw2 (N),
    M, U, Sym2(U) and adjoint-sp4."""
    seen = {}
    validate = GModule.validate

    def record(self):
        # every module, built by GModule or GModule.on_table, is checked
        validate(self)
        seen.setdefault(self.meta.get("name"), self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GModule, "validate", record)
        brj.brj25(p=5, skip_simplicity=True)
    return seen


def test_submodule_reads_weights_off_its_basis(brj_modules):
    # M's echelon basis is of weight vectors: each row has the weight of
    # N at its pivot, which module_from_subspace reads off the row
    m, big = brj_modules["M"], brj_modules["V(x)Lw2"]
    w = submodule_generated(big, [units(big.dim, 0)])
    assert m.weights == tuple(big.weights[i] for i in w.pivots)
    assert len(m.weights) == 16
    assert module_from_subspace(big, w).weights == m.weights


TABLE_CASES = ([("brj", name, None) for name in
                ("V", "L2(V)", "Lw2", "V(x)Lw2", "M", "U", "Sym2(U)")]
               + [(kind, n, ctx) for ctx in (F7, Q, BIG)
                  for kind in ("dual", "sym2") for n in (1, 2, 3)])


@pytest.fixture(params=TABLE_CASES,
                ids=lambda c: "-".join(map(str, (c[0], c[1], c[2] or F5))))
def table_case(request, brj_modules):
    """(module, adjoint module of its even algebra)."""
    kind, n, ctx = request.param
    if kind == "brj":
        return brj_modules[n], brj_modules["adjoint-sp4"]
    m = symn_dual(n, ctx)
    return (sym2(m) if kind == "sym2" else m), adjoint_sl2_module(ctx)


def units(n, rows):
    """Integer unit vectors of ctx^n: rows of the identity."""
    return np.eye(n, dtype=np.int64)[rows]


class TestTablePathsDifferential:
    """Each check that reads the operator tables against the dense loop it
    replaced, on the modules as built and with one entry changed: the same
    verdict, the same error type and message, so the same first failing
    family, (a, b), pair, op_k or entry."""

    def test_family_law(self, table_case):
        m, _ = table_case
        ctx, caught = m.ctx, 0
        delta = ctx.of(Fraction(1, 2))
        for f in m.families:
            for k in range(1, len(f.ops)):
                for r, c in spots(f.ops[k].data):
                    ops = trimmed([*f.ops[:k], bumped(f.ops[k], r, c, delta),
                                   *f.ops[k + 1:]])
                    want = failure(ref_family_validate, ctx, f.label, ops)
                    assert failure(CoeffOperatorFamily, f.label, ops,
                                   f.root) == want
                    caught += want is not None
        assert caught
        fams = [f for f in m.families if f.degree]
        specs = [(f.label, list(f.ops), f.root) for f in fams]
        for i, j in first_and_last(len(fams)):
            case = list(specs)
            for t in (i, j):
                case[t] = (fams[t].label, broken_ops(ctx, fams[t]),
                           fams[t].root)
            want = failure(ref_validate_each, ctx, case)
            assert want[1].startswith(f"{fams[i].label}: A_")
            assert failure(CoeffOperatorFamily.batch, case) == want

    def test_brackets(self, table_case):
        m, _ = table_case
        ctx, caught = m.ctx, 0
        args = (ctx, m.labels, m.lie_labels)
        for i, a in enumerate(m.lie_action):
            for r, c in spots(a.data):
                lie = list(m.lie_action)
                lie[i] = bumped(a, r, c, ctx.one)
                want = failure(ref_module, *args, lie, m.families, None,
                               m.brackets)
                assert failure(GModule, *args, lie, m.families,
                               brackets=m.brackets) == want
                caught += want is not None
        assert caught

    def test_weights(self, table_case):
        m, _ = table_case
        fams = m.families
        args = (m.ctx, m.labels, m.lie_labels, m.lie_action)
        for i in sorted({0, m.dim // 2, m.dim - 1}):
            weights = list(m.weights)
            weights[i] = tuple(x + 1 for x in weights[i])
            want = failure(ref_weights_each, fams, weights)
            assert want is not None
            assert failure(GModule, *args, fams, weights=weights) == want
        for i, j in first_and_last(len(fams)):
            case = list(fams)
            for t in (i, j):
                case[t] = CoeffOperatorFamily(
                    fams[t].label, fams[t].ops,
                    [x + 1 for x in fams[t].root])
            want = failure(ref_weights_each, case, m.weights)
            assert failure(GModule, *args, case, weights=m.weights) == want

    @pytest.mark.parametrize("mode", ["algebra", "group"])
    def test_hom_system(self, table_case, mode):
        # m -> its algebra's adjoint module, and with one entry of the
        # first and of the last operator of m changed
        m, adj = table_case
        ctx, d1, d2 = m.ctx, m.dim, adj.dim
        (a, b), implied = table_pairs(m, adj, mode)
        ref_implied = mode_pairs(m, adj, mode)[1]
        mats = a.matrices()
        cases = [mats]
        for k in (0, len(mats) - 1):
            for r, c in spots(mats[k].data)[:2]:
                cases.append(mats[:k] + [bumped(mats[k], r, c, ctx.one)]
                             + mats[k + 1:])
        for ops in cases:
            got = _intertwiner_space(
                ctx, d1, d2, (OpTable.of(ctx, d1, ops), b), implied)
            want = ref_intertwiner_space(ctx, d1, d2,
                                         list(zip(ops, b.matrices())),
                                         ref_implied)
            assert got == want and got.pivots == want.pivots
            assert [(type(x), x) for x in got.basis.data.flat] == \
                [(type(x), x) for x in want.basis.data.flat]

    def test_induced(self, table_case):
        m, _ = table_case
        ctx, n = m.ctx, m.dim
        named = named_operators(m)
        w = submodule_generated(m, [units(n, 0)])
        keep = [i for i in range(n) if i not in w.pivots]
        zero = Subspace.zero(ctx, n)
        for sub, reps in ((w, units(n, keep)), (zero, w.basis.ints)):
            assert (induced_operators(ctx, named, sub, reps)
                    == ref_induced_operators(ctx, named, sub, reps))
        if not keep:
            return
        # operators k and k + 2 map w out of w: both name operator k
        bump = np.zeros((n, n), dtype=np.int64)
        bump[keep[0], w.pivots[0]] = 1
        bump = Matrix.from_int(ctx, bump)
        for k in (0, len(named) - 3):
            bad = list(named)
            for i in (k, k + 2):
                bad[i] = (bad[i][0], bad[i][1] + bump)
            reps = units(n, keep)
            want = induced_outcome(ref_induced_operators, ctx, bad, w, reps)
            assert want == ("NotInvariant", named[k][0])
            assert induced_outcome(induced_operators, ctx, bad, w,
                                   reps) == want


class TestFieldMismatch:
    """A module's operators, families and brackets are over its field,
    as Matrix and hom_space require."""

    def test_parts_over_another_field(self):
        m5, m7 = symn_module(2, F5), symn_module(2, F7)
        args = (F7, m7.labels, m7.lie_labels)
        cases = [(m7.lie_action, m5.families, None),
                 (m5.lie_action, m7.families, None),
                 (OpTable.of(F5, 3, m5.lie_action), m7.families, None),
                 (m7.lie_action, m7.families, m5.bracket_table)]
        for lie, fams, brackets in cases:
            with pytest.raises(DimensionMismatch, match="field mismatch"):
                GModule(*args, lie, fams, weights=m7.weights,
                        brackets=brackets)


def count_tables(monkeypatch):
    """The counts of OpTable constructions and of OpTable.pick and
    OpTable.concat calls, by name."""
    counts = {"OpTable": 0, "pick": 0, "concat": 0}
    init, pick, concat = OpTable.__init__, OpTable.pick, OpTable.concat

    def counting_init(self, *args, **kw):
        counts["OpTable"] += 1
        init(self, *args, **kw)

    def counting_pick(self, *args):
        counts["pick"] += 1
        return pick(self, *args)

    def counting_concat(parts):
        counts["concat"] += 1
        return concat(parts)

    monkeypatch.setattr(OpTable, "__init__", counting_init)
    monkeypatch.setattr(OpTable, "pick", counting_pick)
    monkeypatch.setattr(OpTable, "concat", staticmethod(counting_concat))
    return counts


class TestTableBudget:
    """Each module holds one table, which its derived modules, checks and
    hom systems read without splitting it per family and joining the
    parts again.  Budgets, met by the code, never raised: 50 tables for
    the forms job and 263 selects (the per-family splits pick replaced)
    and concats for brj when each family held a table of its own."""

    @pytest.mark.parametrize("p", [7, 0])
    def test_forms_job(self, monkeypatch, capsys, p):
        from superlie import cli
        counts = count_tables(monkeypatch)
        assert cli.main(["hom", "sym2-dual-sym", "adjoint-sl2", "--mode",
                         "both", "--n", "5", "--p", str(p)]) == 0
        assert "dim group: 1" in capsys.readouterr().out
        assert counts["OpTable"] <= 25, counts

    def test_brj(self, monkeypatch):
        counts = count_tables(monkeypatch)
        brj.brj25(p=5, skip_simplicity=True)
        assert counts["pick"] + counts["concat"] <= 30, counts


def round_trip_modules(ctx):
    """Modules of every construction: dual, Sym2, Lambda2 (whose families
    lose their top power: brj's L2(V)), tensor, the two quotients and a
    submodule."""
    s2 = sym2(symn_module(2, ctx))
    top = submodule_generated(s2, [units(s2.dim, 0)])
    rest = [i for i in range(s2.dim) if i not in top.pivots]
    return {"dual": dual(symn_module(3, ctx)),
            "sym2": sym2(symn_dual(2, ctx)),
            "lambda2": lambda2(symn_module(3, ctx)),
            "L2(V)": lambda2(brj.sp4_natural_module(brj.sp4_algebra(ctx))),
            "tensor": tensor(symn_module(1, ctx), symn_dual(2, ctx)),
            "quotient": quotient_module(s2, top),
            "quotient_with_basis": quotient_module_with_basis(
                s2, top, units(s2.dim, rest), [f"r{i}" for i in rest]),
            "lw2": lw2(ctx),
            "submodule": module_from_subspace(s2, top)}


class TestRoundTrip:
    @pytest.mark.parametrize("ctx", [F7, BIG, Q], ids=repr)
    def test_json_round_trip(self, ctx):
        for name, m in round_trip_modules(ctx).items():
            r = module_from_json(m.to_json())
            assert r.to_json() == m.to_json(), name
            assert (r.table, r.offsets.tolist()) == \
                (m.table, m.offsets.tolist()), name
            assert r.families == m.families, name
            assert (r.lie_action, r.all_operators()) == \
                (m.lie_action, m.all_operators()), name
            assert [f.ops for f in r.families] == \
                [f.ops for f in m.families], name

import numpy as np
import pytest

import superlie.brj as brj
import superlie.modules as modules
from superlie.fields import FieldCtx
from superlie.linalg import Matrix, Subspace, exact_matmul, kernel
from superlie.modules import (
    CompositionViolation,
    GModule,
    NotInvariant,
    _commutator_pairs,
    _constraint_pairs,
    _intertwiner_space,
    _is_diagonal,
    _weight_support,
    dual,
    family,
    hom_space,
    lambda2,
    module_from_json,
    module_from_subspace,
    quotient_module,
    socle_via_homs,
    submodule_generated,
    sym2,
    tensor,
    trivial_quotient_defect,
)
from superlie.constructions import (
    adjoint_sl2_module,
    symn_dual,
    symn_module,
)

F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
BIG = FieldCtx.prime(2**31 - 1)
Q = FieldCtx.rationals()


class TestFamilies:
    def test_op0_must_be_identity(self):
        z = Matrix.zeros(F5, 2, 2)
        with pytest.raises(CompositionViolation):
            family("bad", [z])

    def test_composition_violation_detected(self):
        # declaring A_2 = A_1 breaks A_1 A_1 = 2 A_2 when A_1^2 = 0
        a1 = Matrix.from_rows(F5, [[0, 1], [0, 0]])
        family("ok", [Matrix.identity(F5, 2), a1])  # nilpotent: fine
        with pytest.raises(CompositionViolation):
            family("bad", [Matrix.identity(F5, 2), a1, a1])

    def test_truncation_beyond_degree_checked(self):
        # A_1^2 nonzero but no A_2 declared
        a1 = Matrix.from_rows(Q, [[1, 0], [0, 0]])  # idempotent, not nilpotent
        with pytest.raises(CompositionViolation):
            family("bad", [Matrix.identity(Q, 2), a1])

    def test_divided_powers_compose_in_small_characteristic(self):
        # binomial tables stay consistent even when p <= n
        m = symn_module(5, F3)
        for f in m.families:
            f.validate()


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
        # in Sym_p over F_p the fixed line spanned by s_0...: use the
        # submodule generated by s_0 in Sym_3 over F_3, a Frobenius kernel
        m = symn_module(3, F3)
        e = F3.zeros(4)
        e[3] = 1  # highest vector generates everything
        w = submodule_generated(m, [F3.vec([0, 1, 0, 0])])
        if w.dim < 4:
            q = quotient_module(m, w)
            assert q.dim == 4 - w.dim

    def test_module_from_subspace_roundtrip_dims(self):
        m = symn_module(3, F3)
        w = submodule_generated(m, [F3.vec([0, 1, 0, 0])])
        assert 0 < w.dim
        if w.dim < 4:
            sub = module_from_subspace(m, w)
            assert sub.dim == w.dim
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


def full_system_kernel(ctx, d1, d2, pairs):
    """Kernel of the stacked Kronecker system B f - f A = 0 on all d1*d2
    entries of f (flattened row-major), one pair's block at a time.  The
    order of the blocks does not change the kernel; diagonal blocks go first
    because they make the later ones cheap."""
    n = d1 * d2
    space = None
    for a, b in sorted(pairs, key=lambda ab: not (
            _is_diagonal(ab[0]) and _is_diagonal(ab[1]))):
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


def mode_pairs(m1, m2, mode):
    """(constraint pairs, implied pairs) that hom_space solves in mode."""
    alg, grp, deg1 = _constraint_pairs(m1, m2, mode)
    if mode == "algebra":
        return alg, []
    return grp, _commutator_pairs(deg1)


def support_size(m1, m2, mode):
    pairs, implied = mode_pairs(m1, m2, mode)
    return int(_weight_support(m1.dim, m2.dim, pairs + implied).sum())


def assert_matches_full_system(m1, m2, mode):
    """The weight-supported solve gives the subspace of the full system, and
    hom_space returns its canonical basis."""
    ctx, d1, d2 = m1.ctx, m1.dim, m2.dim
    pairs, implied = mode_pairs(m1, m2, mode)
    want = full_system_kernel(ctx, d1, d2, pairs)
    got = _intertwiner_space(ctx, d1, d2, pairs, implied)
    assert got == want and got.pivots == want.pivots
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
    fams = [family(f.label, [p @ op @ p_inv for op in f.ops])
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
    def test_no_diagonal_operator_keeps_full_support(self, mode):
        adj = adjoint_sl2_module(F7)
        c = conjugated(adj, [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
                       [[1, -1, 1], [0, 1, -1], [0, 0, 1]])
        s = sym2(symn_dual(1, F7))
        assert not any(_is_diagonal(op) for op in c.all_operators())
        for m1, m2 in ((c, c), (s, c), (c, s)):
            assert support_size(m1, m2, mode) == 9
            rep = assert_matches_full_system(m1, m2, mode)
            assert rep.dim == hom_space(adj, adj, mode).dim == 1


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

    def test_rational_round_trip(self):
        m = symn_dual(2, Q)
        m2 = module_from_json(m.to_json())
        for a, b in zip(m2.lie_action, m.lie_action):
            assert np.array_equal(a.data, b.data)

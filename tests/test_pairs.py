import numpy as np
import pytest

from superlie.fields import FieldCtx
from superlie.linalg import Subspace
from superlie.pairs import (
    BilinearMap,
    CubicViolation,
    EquivarianceViolation,
    InvalidSubpair,
    SubpairSpec,
    SymmetryViolation,
    _check_equivariance,
    assemble_pair,
    check_sas_conditions,
    is_split,
    pair_from_json,
    pair_to_json_dict,
    quotient_pair,
)
from superlie.constructions import (
    RecurrenceViolation,
    sl2_algebra,
    sl2_symn_algebra,
    sl2_symn_bracket,
    sl2_symn_constants,
    sl2_symn_pair,
    symn_dual,
    conjugation_family,
    _unit,
)

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
                        lhs = ctx.reduce(lhs + bracket.apply(
                            fam.op(a).data[:, i], fam.op(m - a).data[:, j]))
                    rhs = gfam.op(m).mv(bracket.value(i, j))
                    if np.any(ctx.reduce(lhs - rhs)):
                        return fam.label, m, (i, j)
    return None


def adj_families(ctx):
    even = sl2_algebra(ctx)
    return even, [
        conjugation_family(even, "X2", _unit(ctx, 2, 0, 1), root=(2,)),
        conjugation_family(even, "X-2", _unit(ctx, 2, 1, 0), root=(-2,)),
    ]


class TestBilinearMap:
    def test_symmetric_storage(self):
        v = F5.vec([1, 0, 0])
        b = BilinearMap.from_entries(F5, 2, 3, {(1, 0): v})
        assert np.array_equal(b.value(0, 1), v)
        assert np.array_equal(b.value(1, 0), v)

    def test_conflicting_values_rejected(self):
        with pytest.raises(SymmetryViolation):
            BilinearMap.from_entries(
                F5, 2, 3, {(0, 1): F5.vec([1, 0, 0]),
                           (1, 0): F5.vec([2, 0, 0])})

    def test_apply_is_bilinear(self):
        b = sl2_symn_bracket(3, 1, Q)
        x = Q.vec([1, 2, 0, 1])
        y = Q.vec([0, 1, 3, 0])
        lhs = b.apply(Q.reduce(x + y), Q.reduce(x + y))
        rhs = Q.reduce(b.apply(x, x) + 2 * b.apply(x, y) + b.apply(y, y))
        assert np.array_equal(lhs, rhs)

    def test_annihilator_of_nondegenerate(self):
        b = sl2_symn_bracket(3, 1, F3)
        assert b.annihilator().dim == 0


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
            entries = dict(sl2_symn_bracket(n, 1, ctx).tensor)
            entries[entry] = ctx.reduce(entries[entry] * factor)
            bad = BilinearMap.from_entries(ctx, n + 1, 3, entries)
            with pytest.raises(EquivarianceViolation) as exc:
                assemble_pair(even, odd, bad, adj)
            assert (exc.value.family_label, exc.value.power,
                    exc.value.pair) == witness

    def test_equivariance_matches_loop_reference(self):
        # every bracket with one basis vector added at one pair
        for ctx in (F3, F5, Q):
            even, adj = adj_families(ctx)
            for n in (1, 3):
                odd = symn_dual(n, ctx)
                tensor = sl2_symn_bracket(n, 1, ctx).tensor
                for i in range(n + 1):
                    for j in range(i, n + 1):
                        for k in range(3):
                            entries = dict(tensor)
                            v = entries.get((i, j), ctx.zeros(3)).copy()
                            v[k] = ctx.add(v[k], ctx.one)
                            entries[(i, j)] = v
                            b = BilinearMap.from_entries(ctx, n + 1, 3, entries)
                            try:
                                _check_equivariance(odd, b, adj)
                                got = None
                            except EquivarianceViolation as e:
                                got = (e.family_label, e.power, e.pair)
                            assert got == loop_equivariance_witness(odd, b, adj)

    def test_split_pair(self):
        even, adj = adj_families(F5)
        odd = symn_dual(3, F5)
        zero = BilinearMap.from_entries(F5, 4, 3, {})
        p = assemble_pair(even, odd, zero, adj)
        assert is_split(p)
        c1, c2, _ = check_sas_conditions(p)
        assert c1 and not c2  # annihilator is everything when the bracket is 0


class TestSasAndSubpairs:
    def test_n3_p3_sas(self):
        p = sl2_symn_pair(3, 1, F3)
        c1, c2, details = check_sas_conditions(p)
        assert (c1, c2) == (True, True)
        assert details["annihilator_dim"] == 0

    def test_full_subpair_is_normal(self):
        from superlie.pairs import check_normality
        p = sl2_symn_pair(3, 1, F3)
        s = SubpairSpec(Subspace.full(F3, 3), ("X2", "X-2"),
                        Subspace.full(F3, 4))
        rep = check_normality(p, s)
        assert rep["ok"]

    def test_invalid_subpair_rejected(self):
        from superlie.pairs import check_normality
        p = sl2_symn_pair(3, 1, F3)
        v = F3.zeros(4)
        v[0] = 1
        s = SubpairSpec(Subspace.full(F3, 3), ("X2",),
                        Subspace.from_vectors(F3, 4, [v]))
        with pytest.raises(InvalidSubpair):
            check_normality(p, s)

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


class TestPairJson:
    def test_round_trip(self):
        p = sl2_symn_pair(3, 1, F3)
        import json
        q = pair_from_json(json.dumps(pair_to_json_dict(p)))
        assert q.dims == p.dims
        assert np.array_equal(q.algebra.consts, p.algebra.consts)
        assert q.odd.labels == p.odd.labels
        assert [f.label for f in q.adjoint_families] == \
               [f.label for f in p.adjoint_families]

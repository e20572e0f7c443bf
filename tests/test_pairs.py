import numpy as np
import pytest

from superlie.fields import FieldCtx
from superlie.linalg import Subspace
from superlie.superalgebra import JacobiViolation
from superlie.pairs import (
    BilinearMap,
    EquivarianceViolation,
    InvalidSubpair,
    SubpairSpec,
    SymmetryViolation,
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
        for ctx in (F5, F7, Q):
            with pytest.raises(JacobiViolation):
                sl2_symn_pair(3, 1, ctx)

    def test_equivariance_violation_on_doctored_bracket(self):
        even, adj = adj_families(F3)
        odd = symn_dual(3, F3)
        b = sl2_symn_bracket(3, 1, F3)
        entries = dict(b.tensor)
        entries[(0, 3)] = F3.reduce(entries[(0, 3)] * 2)  # break one constant
        bad = BilinearMap.from_entries(F3, 4, 3, entries)
        with pytest.raises(EquivarianceViolation):
            assemble_pair(even, odd, bad, adj)

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
        assert q.algebra.table == p.algebra.table
        assert _unnamed(pair_to_json_dict(q)) == _unnamed(pair_to_json_dict(p))


class TestPairJson:
    def test_round_trip(self):
        p = sl2_symn_pair(3, 1, F3)
        import json
        q = pair_from_json(json.dumps(pair_to_json_dict(p)))
        assert q.dims == p.dims
        assert q.algebra.table == p.algebra.table
        assert q.odd.labels == p.odd.labels
        assert [f.label for f in q.adjoint_families] == \
               [f.label for f in p.adjoint_families]

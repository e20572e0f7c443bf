import hashlib
import itertools
import random

import numpy as np
import pytest

from superlie import brj, constructions, linalg, modules, pairs, superalgebra
from superlie.fields import FieldCtx, InputError
from superlie.linalg import Subspace, from_int
from superlie.superalgebra import CenterNotInside, JacobiViolation, SuperIdeal
from superlie.constructions import (
    SL2_BRACKETS,
    SL2_LABELS,
    D21Params,
    coords_of_matrix,
    d21,
    gl,
    identity_coords,
    periplectic,
    periplectic_derived,
    pgl,
    pq,
    psl,
    psq,
    queer,
    sl,
    sl2_algebra,
    spo,
)
from matrix_oracles import (
    algebra_from_matrices,
    gram_algebra_basis,
    loop_matrix_table,
    solved_coords,
)

F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
BIG = FieldCtx.prime(2**31 - 1)
Q = FieldCtx.rationals()


class TestDims:
    def test_gl_dims(self):
        for m, n in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            assert gl(m, n, F5).dims == (m * m + n * n, 2 * m * n)

    def test_sl_dims(self):
        for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            assert sl(m, n, F5).dims == (m * m + n * n - 1, 2 * m * n)

    def test_pgl_dims(self):
        assert pgl(2, 1, F5).dims == (4, 4)
        assert pgl(2, 2, F3).dims == (7, 8)

    def test_psl_dims(self):
        assert psl(2, 2, F5).dims == (6, 8)
        assert psl(3, 3, Q).dims == (16, 18)
        assert psl(4, 1, F3).dims == (15, 8)

    def test_psl_requires_supertraceless_identity(self):
        with pytest.raises(CenterNotInside):
            psl(2, 1, F5)
        with pytest.raises(CenterNotInside):
            psl(3, 1, Q)

    def test_spo_dims(self):
        # sp_{2m} has dim m(2m+1); so_d has dim d(d-1)/2; odd part is 2m*d
        for two_m, d in [(2, 1), (2, 3), (4, 3), (4, 5), (2, 4)]:
            m = two_m // 2
            expect = (m * (2 * m + 1) + d * (d - 1) // 2, two_m * d)
            assert spo(two_m, d, F5).dims == expect

    def test_periplectic_dims(self):
        for n in (2, 3):
            assert periplectic(n, F5).dims == (n * n, n * n)
            assert periplectic_derived(n, F5).dims == (n * n - 1, n * n)

    def test_queer_dims(self):
        assert queer(2, F5).dims == (4, 4)
        assert pq(2, F5).dims == (3, 4)
        assert psq(2, F5).dims == (3, 3)
        assert psq(3, F7).dims == (8, 8)

    def test_d21_dims(self):
        assert d21(D21Params(1, 1, -2), Q).dims == (9, 8)


class TestMatrixRealizations:
    def test_gl_identity_is_central(self):
        g = gl(3, 2, F7)
        v = identity_coords(g)
        for e in F7.eye(g.dim):
            assert not np.any(g.bracket_vec(v, e))

    def test_spo_preserves_the_form(self):
        # even matrices X satisfy X^t G + G X = 0 for the block Gram matrix
        ctx = F5
        a = spo(4, 3, ctx)
        from superlie.constructions import _gram_orthogonal, _gram_symplectic

        g = ctx.zeros(7, 7)
        g[:4, :4] = _gram_symplectic(2)
        g[4:, 4:] = _gram_orthogonal(3)
        for i in a.even_coords:
            m = a.matrix_basis[i]
            assert not np.any(ctx.reduce(m.T @ g + g @ m))

    def test_periplectic_block_shape(self):
        ctx = Q
        a = periplectic(3, ctx)
        for i, m in enumerate(a.matrix_basis):
            A, B = m[:3, :3], m[:3, 3:]
            C, D = m[3:, :3], m[3:, 3:]
            assert np.array_equal(D, -A.T)
            assert np.array_equal(B, B.T)
            assert np.array_equal(C, -C.T)

    def test_queer_odd_bracket_is_anticommutator(self):
        ctx = Q
        a = queer(3, ctx)
        # [B_{12}, B_{21}] should be (E12 E21 + E21 E12 | 0) = (E11 + E22 | 0)
        i = a.labels.index("B1,2")
        j = a.labels.index("B2,1")
        out = a.bracket_basis(i, j)
        assert out == {a.labels.index("A1,1"): 1, a.labels.index("A2,2"): 1}


class TestPeriplecticDerived:
    def test_derived_is_sl_plus_full_odd(self):
        par = periplectic(2, F5)
        der = par.derived_subalgebra()
        assert der.dims == (3, 4)
        assert der.verify()
        # traces of the even A-blocks vanish on the derived part
        for v, c in zip(der.space.basis.data, der.space.pivots):
            if par.parities[c]:
                continue
            m = sum(int(v[i]) * par.matrix_basis[i] for i in par.even_coords)
            assert (m[0, 0] + m[1, 1]) % 5 == 0


class TestSl2Data:
    @pytest.mark.parametrize("ctx", [F3, F7, FieldCtx.prime(2**31 - 1), Q],
                             ids=repr)
    def test_brackets_are_the_matrix_brackets(self, ctx):
        alg = sl2_algebra(ctx)
        assert alg.labels == SL2_LABELS
        assert np.array_equal(alg.consts, from_int(ctx, SL2_BRACKETS, 1))


class TestD21:
    # sha256 of d21(...).to_json(), recorded from the hand-written bracket
    # table that d21 was built from before the sl2 arrays
    @pytest.mark.parametrize("params, p, digest", [
        ((1, 1, 3), 5,
         "0d3bf8c1a5638cbb29378d92c9259cae301a6318ea974f344b4a0848f96a1d67"),
        ((0, 1, 4), 5,
         "b2fdd5976a3fb343fe4660b62a3e54b013dc3bcb3a26e27ddbdc7395b43396f1"),
        ((1, 2, -3), 7,
         "b4a10672f94a29eb40af4a60f5e3bdb9ac2a239ded87dadc8c7b7cb6d24c214c"),
        ((1, 2, -3), 2**31 - 1,
         "3d48580e6614034542cf5212bdb4e51746a08b4bfaa32238ae2ba5aa4cdf66da"),
        (("1/2", 1, "-3/2"), 0,
         "0306d8a3e3e926365ef9dcf6263f7e9b1524ed2135218f296643f22601aaa9d6"),
    ])
    def test_json_digest(self, params, p, digest):
        text = d21(D21Params(*params), FieldCtx(p)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_jacobi_iff_parameters_sum_to_zero(self):
        for params in [(1, 1, -2), (1, 2, -3), ("1/2", "1/2", -1)]:
            d21(D21Params(*params), Q)
        for params in [(1, 1, 1), (1, 0, 1), (2, 2, 2)]:
            with pytest.raises(JacobiViolation):
                d21(D21Params(*params), Q)

    def test_jacobi_in_prime_field(self):
        d21(D21Params(1, 1, 3), F5)  # 1+1+3 = 0 mod 5
        with pytest.raises(JacobiViolation):
            d21(D21Params(1, 1, 1), F5)

    def test_simplicity_dichotomy_small(self):
        # (a, 1, -1-a): simple iff a not in {0, -1}
        assert d21(D21Params(1, 1, -2), Q).is_graded_simple().is_simple
        assert d21(D21Params("1/2", 1, "-3/2"), Q).is_graded_simple().is_simple
        v0 = d21(D21Params(0, 1, -1), Q).is_graded_simple()
        assert v0.verdict == "NotSimple"
        vm1 = d21(D21Params(-1, 1, 0), Q).is_graded_simple()
        assert vm1.verdict == "NotSimple"

    def test_parameter_permutation_invariance(self):
        base = (1, 2, -3)
        verdicts = set()
        dims = set()
        for perm in itertools.permutations(base):
            a = d21(D21Params(*perm), F7)
            dims.add(a.dims)
            verdicts.add(a.is_graded_simple().verdict)
        assert dims == {(9, 8)}
        assert len(verdicts) == 1

    def test_scaling_invariance(self):
        # simultaneous scaling of all three parameters is an isomorphism
        # (rescale the odd part by a square root of the factor), so the
        # verdict must agree for square factors
        a = d21(D21Params(1, 1, -2), F7)
        b = d21(D21Params(4, 4, -8), F7)  # factor 4 = 2^2
        assert a.is_graded_simple().verdict == b.is_graded_simple().verdict

    def test_degenerate_witness_is_an_ideal(self):
        v = d21(D21Params(0, 1, -1), Q).is_graded_simple()
        assert v.witness is not None
        assert v.witness.verify()
        assert 0 < v.witness.dim < 17


class TestSimplicityCatalog:
    def test_sl_simple_when_p_does_not_divide_difference(self):
        assert sl(2, 1, F3).is_graded_simple().is_simple
        assert sl(2, 1, F5).is_graded_simple().is_simple

    def test_sl_not_simple_when_p_divides_difference(self):
        v = sl(2, 2, F3).is_graded_simple()
        assert v.verdict == "NotSimple"
        assert v.witness.dims == (1, 0)

    def test_psl_simple(self):
        assert psl(2, 2, F3).is_graded_simple().is_simple
        assert psl(2, 2, F5).is_graded_simple().is_simple

    def test_gl_never_simple(self):
        assert gl(2, 1, F5).is_graded_simple().verdict == "NotSimple"

    def test_periplectic_derived_simple_small(self):
        assert periplectic_derived(3, F5).is_graded_simple().is_simple

    def test_psq_simple_small(self):
        assert psq(3, F5).is_graded_simple().is_simple

    def test_spo_simple_small(self):
        assert spo(2, 3, F5).is_graded_simple().is_simple


def upper_table(alg):
    """The nonzero brackets [e_i, e_j], i <= j, as {(i, j): {k: c}}."""
    rows = {(i, j): alg.bracket_basis(i, j)
            for i in range(alg.dim) for j in range(i, alg.dim)}
    return {key: row for key, row in rows.items() if row}


def matrix_elems(alg):
    """The (label, parity, matrix) of each basis element of an algebra
    with a matrix_basis."""
    return list(zip(alg.labels, alg.parities, alg.matrix_basis))


def unit_elems(elems):
    """(label, parity, unit entries) of (label, parity, matrix) elements
    whose matrices have integer entries."""
    return [(label, parity, constructions._units(np.asarray(m).astype(np.int64)))
            for label, parity, m in elems]


def unit_builds(build):
    """(block_parities, elems, algebra) of every _unit_algebra call that
    build() makes."""
    calls = []
    real = constructions._unit_algebra

    def recording(ctx, bp, elems, meta, reader=None):
        alg = real(ctx, bp, elems, meta, reader)
        calls.append((bp, elems, alg))
        return alg

    with pytest.MonkeyPatch.context() as mp:
        for mod in (constructions, brj):
            mp.setattr(mod, "_unit_algebra", recording)
        build()
    return calls


def dense_unit_algebra(ctx, block_parities, elems, meta, reader=None):
    """_unit_algebra on the dense oracle: the same elements as matrices,
    through algebra_from_matrices."""
    n = len(block_parities)
    mats = []
    for label, parity, entries in elems:
        m = np.zeros((n, n), dtype=np.int64)
        for a, b, v in entries:
            m[a, b] = v
        mats.append((label, parity, from_int(ctx, m, 1)))
    return algebra_from_matrices(ctx, mats, block_parities, meta)


def oracle_build(build):
    """build() with every _unit_algebra call made on the dense oracle."""
    with pytest.MonkeyPatch.context() as mp:
        for mod in (constructions, brj):
            mp.setattr(mod, "_unit_algebra", dense_unit_algebra)
        return build()


# every matrix family but gl and sl, which TestUnitRuleOracle checks for
# every m + n up to 8
FAMILIES = [("spo(2|3)", lambda c: spo(2, 3, c)),
            ("spo(2|4)", lambda c: spo(2, 4, c)),
            ("spo(4|1)", lambda c: spo(4, 1, c)),
            ("spo(4|5)", lambda c: spo(4, 5, c)),
            ("p(3)", lambda c: periplectic(3, c)),
            ("q(3)", lambda c: queer(3, c)),
            ("pq(3)", lambda c: pq(3, c)),
            ("psq(3)", lambda c: psq(3, c)),
            ("sl2", sl2_algebra),
            ("sp4", brj.sp4_algebra)]
FIELDS = [F3, F5, F7, BIG, Q]
FIELD_IDS = ["F3", "F5", "F7", "F2147483647", "Q"]


def assert_same_coords(alg, want, m):
    """coords_of_matrix against the oracle's span solve, None included."""
    got, exp = coords_of_matrix(alg, m), solved_coords(want, m)
    assert (got is None) == (exp is None)
    if got is not None:
        assert got.dtype == exp.dtype and np.array_equal(got, exp)


class TestMatrixBuildDifferential:
    """The matrix-unit builder against loop_matrix_table and against the
    dense algebra_from_matrices, on valid and invalid element lists."""

    @pytest.mark.parametrize("ctx", [F3, F5, BIG, Q], ids=repr)
    def test_tables_match_loop(self, ctx):
        # gl, sl and psl: TestUnitRuleOracle checks their tables
        builds = (lambda: spo(2, 3, ctx), lambda: spo(4, 1, ctx),
                  lambda: periplectic(3, ctx), lambda: psq(3, ctx))
        for build in builds:
            (_, _, alg), = unit_builds(build)
            assert upper_table(alg) == loop_matrix_table(ctx,
                                                         matrix_elems(alg))

    @pytest.mark.parametrize("ctx", [F5, Q], ids=repr)
    def test_first_pair_leaving_the_span(self, ctx):
        elems = matrix_elems(gl(2, 1, ctx))
        rng = random.Random(5)
        outside = 0
        for size in (2, 3, 4, 5, 6, 7, 8):
            for _ in range(3):
                subset = sorted(rng.sample(range(len(elems)), size))
                sub = [elems[i] for i in subset]
                want = loop_matrix_table(ctx, sub)
                units = unit_elems(sub)
                if isinstance(want, dict):
                    alg = constructions._unit_algebra(ctx, [0, 0, 1], units,
                                                      {})
                    assert upper_table(alg) == want
                    continue
                outside += 1
                with pytest.raises(InputError) as exc:
                    constructions._unit_algebra(ctx, [0, 0, 1], units, {})
                assert str(exc.value) == (f"bracket [{want[0]},{want[1]}] "
                                          "leaves the span")
        assert outside >= 10

    @pytest.mark.parametrize("ctx", [F5, Q], ids=repr)
    def test_errors_match_matrix_build(self, ctx):
        # random subsets of each family's elements, and each family with
        # one element's parity flipped: the same constants, or InputError
        # with the same text, from the unit rule and the dense build
        rng = random.Random(11)
        outcomes = set()
        for _, build in FAMILIES:
            for bp, elems, _ in unit_builds(lambda: build(ctx)):
                flip = rng.randrange(len(elems))
                cases = [[(label, 1 - parity if i == flip else parity, es)
                          for i, (label, parity, es) in enumerate(elems)]]
                cases += [[elems[i] for i in sorted(rng.sample(
                    range(len(elems)), min(size, len(elems))))]
                    for size in (2, 3, 4, 6) for _ in range(2)]
                for case in cases:
                    try:
                        want = dense_unit_algebra(ctx, bp, case, {})
                    except InputError as exc:
                        with pytest.raises(InputError) as got:
                            constructions._unit_algebra(ctx, bp, case, {})
                        assert str(got.value) == str(exc)
                        outcomes.add(str(exc).split()[0])
                        continue
                    alg = constructions._unit_algebra(ctx, bp, case, {})
                    assert np.array_equal(alg.consts, want.consts)
                    outcomes.add("closed")
        assert outcomes == {"closed", "bracket", "entry"}

    def test_declared_parity_is_checked(self):
        elems = matrix_elems(gl(2, 1, F5))
        wrong = [(label, 1 - parity, m) if label == "E2,3" else (label, parity, m)
                 for label, parity, m in elems]
        with pytest.raises(InputError,
                           match=r"entry \(1,2\) of E2,3 violates declared parity 0"):
            constructions._unit_algebra(F5, [0, 0, 1], unit_elems(wrong), {})

    def test_leading_units_are_checked(self):
        # each element is read at its first unit, which must be 1 and its
        # own; a diagonal H reads like this only through sl's recurrence
        x, y = (0, 0, 1), (1, 1, -1)
        for elems, message in [
                ([("H", 0, [x, y]), ("K", 0, [(1, 1, 1)])],
                 "H has an entry at the leading unit of K"),
                ([("H", 0, [(0, 0, 2)])], "leading entry of H is 2, not 1"),
                ([("H", 0, [x]), ("Z", 0, [])],
                 "a basis element has no entries"),
                ([("E", 0, [(0, 1, 1)]), ("F", 0, [(1, 0, 1), (0, 1, 1)])],
                 "F has an entry at the leading unit of E")]:
            with pytest.raises(InputError) as exc:
                constructions._unit_algebra(F5, [0, 0], elems, {})
            assert str(exc.value) == message

    @pytest.mark.parametrize("ctx", [F5, Q], ids=repr)
    def test_gram_units_match_kernel(self, ctx):
        # spo's even blocks: the unit entries of the Gram algebras are the
        # kernel's canonical basis
        grams = [constructions._gram_symplectic(m) for m in (1, 2, 3)]
        grams += [constructions._gram_orthogonal(d) for d in range(1, 8)]
        for g in grams:
            n = len(g)
            got = []
            for entries in constructions._gram_units(g):
                m = np.zeros((n, n), dtype=np.int64)
                for a, b, v in entries:
                    m[a, b] = v
                got.append(from_int(ctx, m, 1))
            want = gram_algebra_basis(ctx, from_int(ctx, g, 1))
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def matrix_built(alg):
    """A gl or sl built again by algebra_from_matrices from its
    matrix_basis: the oracle of the matrix-unit rule."""
    m, n = alg.meta["m"], alg.meta["n"]
    return algebra_from_matrices(alg.ctx, matrix_elems(alg),
                                 [0] * m + [1] * n, meta=dict(alg.meta))


def splits(top):
    """Every (m, n) with 1 <= m + n <= top, m = 0 and n = 0 included."""
    return [(m, s - m) for s in range(1, top + 1) for m in range(s + 1)]


class TestUnitRuleOracle:
    """Every matrix family from the matrix-unit rule against
    algebra_from_matrices on the same elements: the same constants, dtype,
    labels, parities, meta, JSON and matrix_basis, the same coordinates of
    matrices, and the same scalars and quotients by them."""

    @pytest.mark.parametrize("ctx, top", [(F3, 8), (F5, 8), (F7, 8),
                                          (BIG, 8), (Q, 6)],
                             ids=FIELD_IDS)
    def test_consts_match_matrix_build(self, ctx, top):
        for m, n in splits(top):
            for alg in [gl(m, n, ctx)] + ([sl(m, n, ctx)] if m + n > 1
                                          else []):
                want = matrix_built(alg)
                assert alg.consts.dtype == want.consts.dtype
                assert np.array_equal(alg.consts, want.consts)
                assert (alg.labels, alg.parities, alg.meta) == (
                    want.labels, want.parities, want.meta)
                assert alg.to_json() == want.to_json()

    @pytest.mark.parametrize("ctx", FIELDS, ids=FIELD_IDS)
    def test_families_match_matrix_build(self, ctx):
        for _, build in FAMILIES:
            alg, want = build(ctx), oracle_build(lambda: build(ctx))
            assert alg.consts.dtype == want.consts.dtype
            assert np.array_equal(alg.consts, want.consts)
            assert (alg.labels, alg.parities, alg.meta) == (
                want.labels, want.parities, want.meta)
            assert alg.to_json() == want.to_json()
            if not hasattr(want, "matrix_basis"):
                continue  # pq and psq: a quotient and a subalgebra
            mats = alg.matrix_basis
            assert [m.dtype for m in mats] == [
                m.dtype for m in want.matrix_basis]
            assert np.array_equal(mats, want.matrix_basis)
            n = len(mats[0])
            units = list(ctx.eye(n * n).reshape(n * n, n, n))
            for m in [ctx.eye(n), ctx.reduce(sum(mats))] + mats + units:
                assert_same_coords(alg, want, m)
            if solved_coords(want, ctx.eye(n)) is None:
                with pytest.raises(CenterNotInside):
                    identity_coords(alg)

    # sha256 of to_json(), recorded from the algebra_from_matrices builds
    # of these families: the unit entries keep every label, order and sign
    DIGESTS = {
        ("spo(2|3)", 5): "224a852d0e617293870ef343afb444413666c0bfee8e5e3fe50ae12520ca73eb",
        ("spo(2|3)", 0): "7cd68db2a3b30c8b6d4c186351db7e85a7b2f761afa7b534350a60ce87470b9b",
        ("spo(2|4)", 5): "aa62205c57c3aaec687f1387d65b341f4f418e8e1a07c7f6bc657768a90d7bde",
        ("spo(2|4)", 0): "cd4a67aaad35cce9810a2089e43c72d678d44f63e106f9e0260370fb93921f83",
        ("spo(4|1)", 5): "2fd6851a3a839de7be021647b6278a64c4324e4f0f9534a6c9e4df2cc078ef73",
        ("spo(4|1)", 0): "679708d974292f2a5fd02a7d2a7126b2dde8ddbfe35024a3b98520adf62ef692",
        ("spo(4|5)", 5): "ee59ec012d9e3382a469cd8cd852ca7f7334408cbd78259e5713fffaf73fc734",
        ("spo(4|5)", 0): "99401849312805b6894c02de3efe40b0d3c6c102708d4c9629c3820b43cc7161",
        ("p(3)", 5): "652ac0d2a399c16fb104e18644c5e06b9227074346f98b25e5cbdcd5622e4b73",
        ("p(3)", 0): "02cf1c7b64e618f4f36804d82dde49bc270736b91d14b724c60920bb089c3f42",
        ("q(3)", 5): "923ca72a016bff002346022b44c52d35a158e650aeb2d97effa24ca62031782e",
        ("q(3)", 0): "2df4dbb50ddb8a1ac60e20aa7e4d1b944d58a5db778d3334792e4984872a558d",
        ("pq(3)", 5): "434f5c01ebea07c10525a38fd3b73c4e2430d14e7b389e9496b74734f7e395bd",
        ("pq(3)", 0): "add1d9125325d1342965ed498da86a648a2979001fb4b8fd1cd1429325fd83c0",
        ("psq(3)", 5): "15daaee03ae40a09ace4a5ad7d64ec98696d04d750dc5d372eee56c00a09ef0e",
        ("psq(3)", 0): "ad0922c04a93d2115fadc01bdec421d9c4a38853f28ae47f201c20e132d4f071",
        ("sl2", 5): "0c79d9f4297d72a2448320bfb9088c4e4f890f731806204b68bf5175b31ff049",
        ("sl2", 0): "982213fd951e0030d8c9cdc4dc81d42a1e25120edbdaeb1624dc22937f4c1a16",
        ("sp4", 5): "e7e45f6d68c33d96ae824f4e80309d37a4d32379ddbe3ed7f4fdfff8bdcd34aa",
        ("sp4", 0): "2103fd65b86998b97b7b86ba6877be4bb591ababc20d6a17c2dbdbdb6a33285a",
    }

    @pytest.mark.parametrize("p", [5, 0], ids=["F5", "Q"])
    def test_json_digests(self, p):
        for name, build in FAMILIES:
            text = build(FieldCtx(p)).to_json()
            assert hashlib.sha256(text.encode()).hexdigest() == \
                self.DIGESTS[name, p], name

    @pytest.mark.parametrize("ctx", [F3, F5, BIG, Q], ids=repr)
    def test_tables_match_loop(self, ctx):
        # gl(2|1), sl(2|1) and psl(2|2)'s sl(2|2)
        for alg in (gl(2, 1, ctx), sl(2, 1, ctx), sl(2, 2, ctx)):
            assert upper_table(alg) == loop_matrix_table(ctx,
                                                         matrix_elems(alg))

    @pytest.mark.parametrize("ctx, top", [(F3, 6), (F5, 6), (BIG, 5),
                                          (Q, 5)],
                             ids=["F3", "F5", "F2147483647", "Q"])
    def test_scalars_and_quotients_match(self, ctx, top):
        for m, n in splits(top):
            # psl needs the identity, of supertrace m - n, inside sl
            traceless = (m - n) % ctx.p == 0 if ctx.p else m == n
            builds = [(gl, pgl)] + ([(sl, psl)] if m + n > 1 and traceless
                                    else [])
            for build, quotient in builds:
                alg = build(m, n, ctx)
                want = matrix_built(alg)
                scalars = solved_coords(want, ctx.eye(m + n))
                assert np.array_equal(identity_coords(alg), scalars)
                got = quotient(m, n, ctx)
                q = want.quotient(SuperIdeal(want, Subspace.from_vectors(
                    ctx, want.dim, [scalars])))
                assert (got.labels, got.parities) == (q.labels, q.parities)
                assert np.array_equal(got.consts, q.consts)


class TestUnitRuleGuard:
    """No catalog build, coords_of_matrix or identity_coords solves in a
    span: none constructs a SpanSolver or calls kernel, and constructions
    has neither, nor int_matmul or the dense builder."""

    def test_no_span_solve(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a span solve")

        monkeypatch.setattr(linalg.SpanSolver, "__init__", refused)
        for mod in (linalg, superalgebra, pairs, modules, brj):
            monkeypatch.setattr(mod, "kernel", refused)
        for name in ("SpanSolver", "kernel", "int_matmul",
                     "algebra_from_matrices", "_bracket_rows",
                     "_bracket_consts", "_gram_algebra_basis"):
            assert not hasattr(constructions, name)
        algs = [gl(2, 2, F5), sl(3, 3, F5), spo(4, 5, F5), periplectic(3, F5),
                queer(3, F5), sl2_algebra(F5), brj.sp4_algebra(F5)]
        for alg in algs:
            assert np.array_equal(coords_of_matrix(alg, alg.matrix_basis[1]),
                                  F5.eye(alg.dim)[1])
            try:
                identity_coords(alg)
            except CenterNotInside:
                assert alg.meta["name"] not in ("gl", "sl")
        for build in (pgl, psl):
            build(3, 3, F5)
        periplectic_derived(3, F5)
        pq(3, F5)
        psq(3, F5)


class TestScalarQuotientInputs:
    @pytest.mark.parametrize("name, build", [
        ("psl(2|2)", lambda: constructions.psl(2, 2, Q)),
        ("pgl(2|1)", lambda: constructions.pgl(2, 1, Q)),
        ("psq(3)", lambda: constructions.psq(3, Q)),
    ])
    def test_no_fraction_vector_to_convert(self, monkeypatch, name, build):
        # the identity's coordinates and psq's spanning vectors are built
        # as integers, so over Q nothing is turned from Fractions into
        # integers: int_scaled saw shapes (16,) and (1, 15), (9,) and
        # (1, 9), (1, 18) and (16, 17) when they were Fraction vectors
        shapes = []
        real = linalg.int_scaled

        def counted(m):
            shapes.append(m.shape)
            return real(m)

        monkeypatch.setattr(linalg, "int_scaled", counted)
        alg = build()
        assert shapes == []
        assert alg.dims == {"psl(2|2)": (6, 8), "pgl(2|1)": (4, 4),
                            "psq(3)": (8, 8)}[name]

import hashlib
import itertools
import random

import numpy as np
import pytest

from superlie import constructions, linalg
from superlie.fields import FieldCtx, InputError
from superlie.linalg import Matrix, from_int, solve
from superlie.superalgebra import CenterNotInside, JacobiViolation
from superlie.constructions import (
    SL2_BRACKETS,
    SL2_LABELS,
    algebra_from_matrices,
    D21Params,
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
        g[:4, :4] = _gram_symplectic(ctx, 2)
        g[4:, 4:] = _gram_orthogonal(ctx, 3)
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


def loop_matrix_table(ctx, elems):
    """The per-pair build that algebra_from_matrices replaced, as a
    reference: the table over pairs i <= j, each bracket solved on its own,
    or the labels of the first pair whose bracket leaves the span."""
    mats = [ctx.reduce(np.asarray(m)) for _, _, m in elems]
    basis = Matrix(ctx, np.stack([m.reshape(-1) for m in mats], axis=1))
    table = {}
    for i, (li, pi, x) in enumerate(elems):
        for j in range(i, len(elems)):
            lj, pj, y = elems[j]
            xy, yx = ctx.reduce(mats[i] @ mats[j]), ctx.reduce(mats[j] @ mats[i])
            br = ctx.reduce(xy + yx) if pi and pj else ctx.reduce(xy - yx)
            c = solve(basis, br.reshape(-1))
            if c is None:
                return (li, lj)
            entry = {int(k): ctx.of(c[k]) for k in np.nonzero(c)[0]}
            if entry:
                table[(i, j)] = entry
    return table


def upper_table(alg):
    """The nonzero brackets [e_i, e_j], i <= j, as {(i, j): {k: c}}."""
    rows = {(i, j): alg.bracket_basis(i, j)
            for i in range(alg.dim) for j in range(i, alg.dim)}
    return {key: row for key, row in rows.items() if row}


def built_tables(monkeypatch, build):
    """(ctx, elems, table over i <= j) of every algebra_from_matrices call
    made by build()."""
    calls = []

    def recording(ctx, elems, bp, meta=None):
        alg = algebra_from_matrices(ctx, elems, bp, meta)
        calls.append((ctx, list(elems), upper_table(alg)))
        return alg

    monkeypatch.setattr(constructions, "algebra_from_matrices", recording)
    build()
    return calls


class TestMatrixBuildDifferential:
    """algebra_from_matrices against loop_matrix_table."""

    @pytest.mark.parametrize("ctx", [F3, F5, BIG, Q], ids=repr)
    def test_tables_match_loop(self, monkeypatch, ctx):
        # gl, sl and psl are built by the matrix-unit rule, not from
        # matrices: TestUnitRuleOracle checks their tables against the loop
        builds = (lambda: spo(2, 3, ctx), lambda: spo(4, 1, ctx),
                  lambda: periplectic(3, ctx), lambda: psq(3, ctx))
        for build in builds:
            calls = built_tables(monkeypatch, build)
            assert len(calls) == 1
            (c, elems, table), = calls
            assert table == loop_matrix_table(c, elems)

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
                if isinstance(want, dict):
                    alg = algebra_from_matrices(ctx, sub, [0, 0, 1])
                    assert upper_table(alg) == want
                    continue
                outside += 1
                with pytest.raises(InputError) as exc:
                    algebra_from_matrices(ctx, sub, [0, 0, 1])
                assert str(exc.value) == (f"bracket [{want[0]},{want[1]}] "
                                          "leaves the span")
        assert outside >= 10

    def test_declared_parity_is_checked(self):
        elems = matrix_elems(gl(2, 1, F5))
        wrong = [(label, 1 - parity, m) if label == "E2,3" else (label, parity, m)
                 for label, parity, m in elems]
        with pytest.raises(InputError,
                           match=r"entry \(1,2\) of E2,3 violates declared parity 0"):
            algebra_from_matrices(F5, wrong, [0, 0, 1])


def matrix_elems(alg):
    """The (label, parity, matrix) of each basis element of an algebra
    with a matrix_basis."""
    return list(zip(alg.labels, alg.parities, alg.matrix_basis))


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
    """gl and sl from the matrix-unit rule against algebra_from_matrices on
    their own matrix_basis: the same constants, dtype, labels, parities
    and meta, and the same scalars and quotients by them."""

    @pytest.mark.parametrize("ctx, top", [(F3, 8), (F5, 8), (F7, 8),
                                          (BIG, 8), (Q, 6)],
                             ids=["F3", "F5", "F7", "F2147483647", "Q"])
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

    @pytest.mark.parametrize("ctx", [F3, F5, BIG, Q], ids=repr)
    def test_tables_match_loop(self, ctx):
        # the builds TestMatrixBuildDifferential compared with the loop
        # while gl and sl were matrix-built: gl(2|1), sl(2|1) and psl(2|2)'s
        # sl(2|2)
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
                assert np.array_equal(identity_coords(alg),
                                      identity_coords(want))
                got = quotient(m, n, ctx)
                q = want.quotient(constructions.scalar_ideal(want))
                assert (got.labels, got.parities) == (q.labels, q.parities)
                assert np.array_equal(got.consts, q.consts)


class TestUnitRuleGuard:
    """gl and sl build no SpanSolver and no matrix products; coords_of_matrix
    builds one SpanSolver on its first call and keeps it."""

    def test_no_span_solve(self, monkeypatch):
        solvers = []
        real = linalg.SpanSolver.__init__

        def counting(self, *args):
            solvers.append(args[1].shape)
            real(self, *args)

        def refused(*args):
            raise AssertionError("a matrix-built bracket")

        monkeypatch.setattr(linalg.SpanSolver, "__init__", counting)
        monkeypatch.setattr(constructions, "_bracket_rows", refused)
        monkeypatch.setattr(constructions, "_bracket_consts", refused)
        for alg in (sl(3, 3, F5), gl(2, 2, F5)):
            assert solvers == []
            assert np.array_equal(constructions.coords_of_matrix(
                alg, alg.matrix_basis[1]), F5.eye(alg.dim)[1])
            identity_coords(alg)
            assert solvers == [(alg.dim, 36 if alg.meta["name"] == "sl"
                                else 16)]
            solvers.clear()

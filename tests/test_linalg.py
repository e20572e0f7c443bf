import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from superlie import linalg
from superlie.fields import FieldCtx, InexactScalar
from superlie.linalg import (
    DimensionMismatch,
    Matrix,
    OpTable,
    SpanSolver,
    Subspace,
    exact_matmul,
    from_int,
    invariant_closure,
    kernel,
    largest_invariant_within,
    rank,
    rref,
    solve,
)

F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
Q = FieldCtx.rationals()


def rand_matrix(ctx, rows, cols, rng):
    return Matrix.from_rows(
        ctx, [[rng.randrange(ctx.p) for _ in range(cols)] for _ in range(rows)]
    )


def minor_rank_oracle(m: Matrix) -> int:
    """Rank via brute-force minor expansion (sizes <= 6)."""

    def det(rows, cols):
        if len(rows) == 1:
            return m.data[rows[0], cols[0]] % m.ctx.p
        acc = 0
        for k, c in enumerate(cols):
            sub = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = (m.data[rows[0], c] * sub) % m.ctx.p
            acc = (acc - term) % m.ctx.p if k % 2 else (acc + term) % m.ctx.p
        return acc

    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        found = any(
            det(list(rs), list(cs)) != 0
            for rs in itertools.combinations(range(m.rows), k)
            for cs in itertools.combinations(range(m.cols), k)
        )
        if found:
            best = k
    return best


class TestRref:
    def test_identity_fixed(self):
        m = Matrix.identity(F5, 3)
        r, rk, piv = rref(m)
        assert r == m and rk == 3 and piv == [0, 1, 2]

    def test_rank_one(self):
        m = Matrix.from_rows(F3, [[1, 1], [1, 1]])
        r, rk, _ = rref(m)
        assert rk == 1
        assert r == Matrix.from_rows(F3, [[1, 1], [0, 0]])

    def test_idempotent_and_rank_preserving(self):
        rng = random.Random(2)
        for _ in range(20):
            m = rand_matrix(F5, 5, 7, rng)
            r, rk, _ = rref(m)
            r2, rk2, _ = rref(r)
            assert r2 == r and rk2 == rk == rank(m)

    def test_rank_matches_minor_oracle(self):
        rng = random.Random(3)
        for _ in range(15):
            m = rand_matrix(F5, 6, 6, rng)
            assert rank(m) == minor_rank_oracle(m)
        # include some deliberately singular ones
        for _ in range(5):
            a = rand_matrix(F5, 6, 3, rng)
            b = rand_matrix(F5, 3, 6, rng)
            m = a @ b
            assert rank(m) == minor_rank_oracle(m) <= 3

    def test_rationals(self):
        m = Matrix.from_rows(Q, [["1/2", "1"], ["1", "3"]])
        r, rk, _ = rref(m)
        assert rk == 2
        assert r == Matrix.identity(Q, 2)


class TestKernel:
    def test_zero_matrix(self):
        assert kernel(Matrix.zeros(F5, 2, 2)).dim == 2

    def test_identity(self):
        assert kernel(Matrix.identity(F5, 4)).dim == 0

    def test_four_variable_system(self):
        # alpha+2beta = 0, gamma-2delta = 0, alpha+delta = 0, beta+gamma = 0
        rows = [[1, 2, 0, 0], [0, 0, 1, -2], [1, 0, 0, 1], [0, 1, 1, 0]]
        assert kernel(Matrix.from_rows(F5, rows)).dim == 1
        assert kernel(Matrix.from_rows(F7, rows)).dim == 0

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(4)
        for _ in range(20):
            m = rand_matrix(F7, 4, 6, rng)
            ker = kernel(m)
            assert ker.dim == 6 - rank(m)
            for v in ker.basis.data:
                assert not np.any(m.mv(v))


class TestSolve:
    def test_identity(self):
        b = F5.vec([1, 2, 3])
        x = solve(Matrix.identity(F5, 3), b)
        assert np.array_equal(x, b)

    def test_inconsistent(self):
        assert solve(Matrix.from_rows(F5, [[1], [1]]), F5.vec([0, 1])) is None

    def test_random_consistent(self):
        rng = random.Random(5)
        for _ in range(20):
            a = rand_matrix(F7, 5, 5, rng)
            x0 = F7.vec([rng.randrange(7) for _ in range(5)])
            b = a.mv(x0)
            x = solve(a, b)
            assert x is not None
            assert np.array_equal(a.mv(x), b)


def rand_subspace(ctx, ambient, dim, rng):
    vecs = [
        ctx.vec([rng.randrange(ctx.p) for _ in range(ambient)])
        for _ in range(dim)
    ]
    return Subspace.from_vectors(ctx, ambient, vecs)


class TestSubspaceLattice:
    def test_sum_with_zero(self):
        rng = random.Random(6)
        u = rand_subspace(F5, 5, 3, rng)
        assert u.sum(Subspace.zero(F5, 5)) == u

    def test_intersect_with_full(self):
        rng = random.Random(7)
        u = rand_subspace(F5, 5, 3, rng)
        assert u.intersect(Subspace.full(F5, 5)) == u

    def test_coordinate_lines(self):
        e1 = Subspace.from_vectors(F3, 2, [F3.vec([1, 0])])
        e2 = Subspace.from_vectors(F3, 2, [F3.vec([0, 1])])
        assert e1.intersect(e2).dim == 0

    def test_dimension_identity_200_random_pairs(self):
        rng = random.Random(8)
        for _ in range(200):
            u = rand_subspace(F5, 5, rng.randrange(1, 4), rng)
            v = rand_subspace(F5, 5, rng.randrange(1, 4), rng)
            s, i = u.sum(v), u.intersect(v)
            assert u.dim + v.dim == s.dim + i.dim
            assert i.leq(u) and i.leq(v) and u.leq(s) and v.leq(s)

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Subspace.zero(F5, 3).sum(Subspace.zero(F5, 4))

    def test_canonical_equality(self):
        # two different spanning sets of the same plane give identical bases
        u = Subspace.from_vectors(F5, 3, [F5.vec([1, 1, 0]), F5.vec([0, 1, 1])])
        v = Subspace.from_vectors(F5, 3, [F5.vec([1, 2, 1]), F5.vec([2, 3, 1])])
        assert u == v
        assert np.array_equal(u.basis.data, v.basis.data)


class TestResiduals:
    @pytest.mark.parametrize("ctx", [F5, Q])
    def test_width_checked(self, ctx):
        line = Subspace.from_vectors(ctx, 3, [ctx.vec([1, 2, 0])])
        for space in (Subspace.zero(ctx, 3), line):
            for bad in (ctx.zeros(2, 4), ctx.zeros(2, 2), ctx.zeros(3)):
                with pytest.raises(DimensionMismatch):
                    space.residuals(bad)
            with pytest.raises(DimensionMismatch):
                space.contains(ctx.vec([1, 2]))
            with pytest.raises(DimensionMismatch):
                space.leq(Subspace.zero(ctx, 4))

    @pytest.mark.parametrize("ctx", [F5, Q])
    def test_membership(self, ctx):
        line = Subspace.from_vectors(ctx, 3, [ctx.vec([1, 2, 0])])
        rows = np.stack([ctx.vec([2, 4, 0]), ctx.vec([1, 2, 1]),
                         ctx.vec([0, 1, 0])])
        assert ctx.reduce(rows - line.residuals(rows)).tolist() == [
            ctx.vec([2, 4, 0]).tolist(), ctx.vec([1, 2, 0]).tolist(),
            ctx.zeros(3).tolist()]
        assert [line.contains(r) for r in rows] == [True, False, False]
        assert Subspace.zero(ctx, 3).leq(line) and line.leq(line)
        assert not line.leq(Subspace.from_vectors(ctx, 3, rows[1:]))
        assert line.leq(Subspace.from_vectors(ctx, 3, rows))


class TestSpinning:
    def shift_op(self, ctx, n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i + 1][i] = 1
        return Matrix.from_rows(ctx, rows)

    def test_idempotent_on_invariant_seed(self):
        n = 4
        op = self.shift_op(F5, n)
        ops = OpTable.of(F5, n, [op])
        w = invariant_closure(F5, n, [F5.vec([0, 0, 1, 0])], ops)
        again = invariant_closure(F5, n, list(w.basis.data), ops)
        assert again == w
        # exact invariance per operator
        for v in w.basis.data:
            assert w.contains(op.mv(v))

    def test_monotone_in_seeds(self):
        n = 5
        op = self.shift_op(F7, n)
        small = invariant_closure(F7, n, [F7.vec([0, 0, 0, 1, 0])],
                                  OpTable.of(F7, n, [op]))
        big = invariant_closure(
            F7, n, [F7.vec([0, 0, 0, 1, 0]), F7.vec([0, 1, 0, 0, 0])],
            OpTable.of(F7, n, [op]))
        assert small.leq(big)

    def test_order_independence(self):
        rng = random.Random(10)
        n = 6
        ops = [rand_matrix(F5, n, n, rng) for _ in range(4)]
        seeds = [F5.vec([rng.randrange(5) for _ in range(n)])]
        w1 = invariant_closure(F5, n, seeds, OpTable.of(F5, n, ops))
        shuffled = list(ops)
        rng.shuffle(shuffled)
        assert invariant_closure(F5, n, seeds,
                                 OpTable.of(F5, n, shuffled)) == w1

    def test_operator_shapes_checked(self):
        op = self.shift_op(F5, 4)
        with pytest.raises(DimensionMismatch):
            OpTable.of(F5, 3, [op])
        # tables on ctx^3 and ctx^5, and one with no ops, against ambient 4
        seed = [F5.vec([1, 0, 0, 0])]
        for bad in (OpTable.of(F5, 3, [self.shift_op(F5, 3)]),
                    OpTable.of(F5, 5, [self.shift_op(F5, 5)] * 2),
                    OpTable.empty(F5, 5)):
            with pytest.raises(DimensionMismatch):
                invariant_closure(F5, 4, seed, bad)
            with pytest.raises(DimensionMismatch):
                invariant_closure(F5, 4, [], bad)
            with pytest.raises(DimensionMismatch):
                largest_invariant_within(Subspace.full(F5, 4), bad)
            with pytest.raises(DimensionMismatch):
                largest_invariant_within(Subspace.zero(F5, 4), bad)

    def test_largest_invariant_within_invariant_input(self):
        n = 4
        op = self.shift_op(F5, n)
        # span{e2,e3,e4} is invariant under the downward shift
        k = Subspace.from_vectors(
            F5, n, [F5.vec([0, 1, 0, 0]), F5.vec([0, 0, 1, 0]), F5.vec([0, 0, 0, 1])]
        )
        assert largest_invariant_within(k, OpTable.of(F5, n, [op])) == k

    def test_largest_invariant_within_zero(self):
        assert largest_invariant_within(Subspace.zero(F5, 3),
                                        OpTable.of(F5, 3, [])).dim == 0

    def test_largest_invariant_within_properties(self):
        rng = random.Random(11)
        n = 5
        ops = [rand_matrix(F5, n, n, rng) for _ in range(2)]
        k = rand_subspace(F5, n, 3, rng)
        w = largest_invariant_within(k, OpTable.of(F5, n, ops))
        assert w.leq(k)
        for v in w.basis.data:
            for op in ops:
                assert w.contains(op.mv(v))
        # any vector of k outside w breaks invariance within k: its closure
        # together with w escapes k
        for v in k.basis.data:
            if not w.contains(v):
                grown = invariant_closure(
                    F5, n, list(w.basis.data) + [v], OpTable.of(F5, n, ops))
                assert not grown.leq(k)


class TestSpanSolver:
    def test_round_trip(self):
        rng = random.Random(12)
        rows = np.stack([F7.vec([rng.randrange(7) for _ in range(6)]) for _ in range(4)])
        sub = Subspace.from_vectors(F7, 6, list(rows))
        if sub.dim < 4:
            pytest.skip("unlucky dependent sample")
        solver = SpanSolver(F7, rows)
        for _ in range(10):
            c = F7.vec([rng.randrange(7) for _ in range(4)])
            v = F7.reduce(c @ rows)
            got = solver.coords(v)
            assert np.array_equal(got, c)

    def test_outside_span(self):
        rows = np.stack([F5.vec([1, 0, 0]), F5.vec([0, 1, 0])])
        solver = SpanSolver(F5, rows)
        assert solver.coords(F5.vec([0, 0, 1])) is None

    @pytest.mark.parametrize("ctx", [F7, Q], ids=repr)
    def test_batch_matches_rows(self, ctx):
        rng = random.Random(3)
        # pivots 2 and 3: over Q the RREF has denominators
        rows = ctx.arr([[2, 1, 0, 0, 3], [0, 3, 0, 4, 0], [2, 0, 1, 0, 1]])
        solver = SpanSolver(ctx, rows)
        vs = ctx.arr([[rng.randrange(-3, 4) for _ in range(5)]
                      for _ in range(12)])
        vs[::2] = ctx.reduce(ctx.arr([[rng.randrange(-3, 4) for _ in range(3)]
                                      for _ in range(6)]) @ rows)
        coeffs, in_span = solver.coords_rows(vs)
        assert in_span[::2].all()
        for v, c, ok in zip(vs, coeffs, in_span):
            want = solver.coords(v)
            assert (want is not None) == ok
            if ok:
                assert np.array_equal(c, want)
                assert np.array_equal(ctx.reduce(c @ rows), v)

    def test_dependent_rows_rejected(self):
        rows = np.stack([F5.vec([1, 2, 3]), F5.vec([2, 4, 6])])
        with pytest.raises(DimensionMismatch):
            SpanSolver(F5, rows)


# -- sympy as an independent oracle --------------------------------------------

# small primes, the largest int64 prime (FieldCtx.dtype) and the largest
# supported prime, which uses Python ints, and the rationals
ORACLE_FIELDS = [FieldCtx.prime(3), F5, FieldCtx.prime(33554393),
                 FieldCtx.prime(2**31 - 1), Q]


def _scalars(ctx):
    if not ctx.p:
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    # zeros often, so kernels are not always trivial, and residues near p
    return st.one_of(st.just(0), st.integers(0, 3),
                     st.integers(ctx.p - 3, ctx.p - 1))


def _matrices(ctx, rows, cols):
    return st.lists(st.lists(_scalars(ctx), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(ctx.arr)


@st.composite
def _peelable(draw, ctx):
    """Matrices up to 14 x 7, tall ones included.  A column order puts k
    peel columns first.  A planted row is nonzero in peel column 0 only,
    or in peel columns i - 1 and i, so that it has one entry only once a
    peel round has cleared column i - 1: such rows make chains of rounds.
    Every other row is nonzero on all of the other columns, if there are
    two or more, so the peel leaves it to the pivot loop; it stays random
    otherwise."""
    r, c = draw(st.integers(1, 14)), draw(st.integers(1, 7))
    a = draw(_matrices(ctx, r, c))
    # the entries planted, all nonzero
    fill = draw(_matrices(ctx, r, c))
    fill[~fill.astype(bool)] = ctx.one
    order = draw(st.permutations(range(c)))
    # often two or more columns left to the pivot loop
    k = draw(st.integers(0, c - 2) if c > 2 and draw(st.booleans())
             else st.integers(0, c))
    for row in range(r):
        i = draw(st.integers(-1, k - 1))
        if i >= 0:
            cols = order[i - 1:i + 1] if i else order[:1]
            a[row] = ctx.zero
            a[row, cols] = fill[row, :len(cols)]
        elif c - k >= 2:
            a[row, order[k:]] = fill[row, k:]
    return a


def ref_rref(ctx, a):
    """The pivot loop _rref_array ran before single-entry rows were peeled:
    Gauss-Jordan elimination on the leftmost nonzero pivot."""
    a = a.copy()
    n_rows, n_cols = a.shape
    obj = a.dtype == object
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        col = a[r:, c]
        nz = np.nonzero(col.astype(bool) if obj else col)[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        if a[r, c] != 1:
            a[r] = ctx.reduce(a[r] * ctx.inv(a[r, c]))
        factors = a[:, c].copy()
        factors[r] = 0
        rows_nz = np.nonzero(factors.astype(bool) if obj else factors)[0]
        if len(rows_nz):
            cols_nz = np.nonzero(a[r].astype(bool) if obj else a[r])[0]
            ix = np.ix_(rows_nz, cols_nz)
            a[ix] = ctx.reduce(
                a[ix] - np.outer(factors[rows_nz], a[r][cols_nz]))
        pivots.append(c)
        r += 1
    return a, r, pivots


def ref_kernel_basis(ctx, a):
    """The RREF basis of {v : a.v = 0}, read off ref_rref."""
    r, rk, pivots = ref_rref(ctx, a)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = ctx.zeros(len(free), a.shape[1])
    basis[range(len(free)), free] = ctx.one
    basis[:, pivots] = ctx.reduce(-r[:rk, free].T)
    return ref_rref(ctx, basis)[0]


def _to_sympy(ctx, a: np.ndarray) -> DomainMatrix:
    dom = GF(ctx.p) if ctx.p else QQ
    conv = ((lambda x: dom(int(x))) if ctx.p
            else (lambda x: QQ(x.numerator, x.denominator)))
    return DomainMatrix([[conv(x) for x in row] for row in a.tolist()],
                        a.shape, dom)


def _from_sympy(ctx, m: DomainMatrix) -> np.ndarray:
    conv = ((lambda x: int(x) % ctx.p) if ctx.p
            else (lambda x: Fraction(int(x.numerator), int(x.denominator))))
    out = ctx.zeros(*m.shape)
    for i, row in enumerate(m.to_list()):
        for j, x in enumerate(row):
            out[i, j] = conv(x)
    return out


def test_int64_matmul_past_the_dot_product_limit():
    # 9000 products of (p-1)^2 ~ 2^50 sum past 2^63
    ctx = FieldCtx.prime(33554393)
    a = np.full((1, 9000), ctx.p - 1, dtype=np.int64)
    got = exact_matmul(ctx, a, a.T.copy())
    assert got.dtype == np.int64 and got[0, 0] == 9000


@pytest.mark.parametrize("k", [1, 2, 65536, 65537, 65538])
def test_large_prime_matmul_against_object_product(k):
    # at p = 2^31 - 1 the int64 products split a into 16-bit halves while
    # (p-1)(2^16-1)k < 2^63, that is k <= 65537, and run on Python ints
    # past it; int64 and object inputs, entries p-1 and mixed residues
    ctx = FieldCtx.prime(2**31 - 1)
    rng = np.random.default_rng(k)
    a = np.full((2, k), ctx.p - 1, dtype=np.int64)
    a[1] = rng.integers(0, ctx.p, k)
    b = np.full((k, 3), ctx.p - 1, dtype=np.int64)
    b[:, 1] = rng.integers(0, ctx.p, k)
    b[:, 2] = rng.integers(0, 2**16, k)
    want = a.astype(object) @ b.astype(object) % ctx.p
    got = exact_matmul(ctx, a, b)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    got = exact_matmul(ctx, a.astype(object), b.astype(object))
    assert got.dtype == object and np.array_equal(got, want)
    assert {type(x) for x in got.flat} == {int}


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=repr)
class TestSympyOracle:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_exact_matmul(self, ctx, data):
        r, k, c = (data.draw(st.integers(1, 5)) for _ in range(3))
        a = data.draw(_matrices(ctx, r, k))
        b = data.draw(_matrices(ctx, k, c))
        want = _from_sympy(ctx, _to_sympy(ctx, a) * _to_sympy(ctx, b))
        got = exact_matmul(ctx, a, b)
        assert got.dtype == ctx.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_kernel(self, ctx, data):
        a = data.draw(_peelable(ctx))
        null = _to_sympy(ctx, a).nullspace()
        got = kernel(Matrix(ctx, a))
        assert got.dim == null.shape[0]
        assert np.array_equal(got.basis.data, ref_kernel_basis(ctx, a))
        if got.dim:
            # both reduced row echelon forms of the same space
            want = _from_sympy(ctx, null.rref()[0])
            assert np.array_equal(got.basis.data, want)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_rref(self, ctx, data):
        a = data.draw(_peelable(ctx))
        want, want_pivots = _to_sympy(ctx, a).rref()
        got, rk, pivots = rref(Matrix(ctx, a))
        assert pivots == list(want_pivots) and rk == len(pivots)
        assert got.data.dtype == ctx.dtype
        assert np.array_equal(got.data, _from_sympy(ctx, want))
        ref, ref_rk, ref_pivots = ref_rref(ctx, a)
        assert (pivots, rk) == (ref_pivots, ref_rk)
        assert np.array_equal(got.data, ref)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_from_vectors_list_and_array(self, ctx, data):
        a = data.draw(_peelable(ctx))
        assert_same(Subspace.from_vectors(ctx, a.shape[1], list(a)),
                    Subspace.from_vectors(ctx, a.shape[1], a))


# -- the echelon layer against the algorithms it replaced -------------------

def ref_sum(u, v):
    """The RREF of the stacked bases."""
    stacked = np.concatenate([u.basis.data, v.basis.data])
    return Subspace.from_vectors(u.ctx, u.ambient_dim, list(stacked))


def ref_intersect(u, v):
    """x = a.U = b.V: the kernel of [U^T | -V^T], mapped back through U."""
    ctx = u.ctx
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(ctx, u.ambient_dim)
    ker = kernel(Matrix(ctx, np.concatenate([u.basis.data.T,
                                             -v.basis.data.T], axis=1)))
    vecs = ctx.reduce(ker.basis.data[:, :u.dim] @ u.basis.data)
    return Subspace.from_vectors(ctx, u.ambient_dim, list(vecs))


def ref_closure(ctx, n, seeds, ops):
    """The closure loop that row-reduces the fresh vectors, then the whole
    stack, then finds its frontier by a residual pass."""
    w = Subspace.from_vectors(ctx, n, seeds)
    if not ops:
        return w
    frontier = w.basis.data
    while w.dim not in (0, n) and frontier.shape[0] > 0:
        images = np.concatenate([ctx.reduce(frontier @ op.data.T)
                                 for op in ops])
        residuals = w.residuals(images)
        fresh = residuals[residuals.astype(bool).any(axis=1)]
        if fresh.shape[0] == 0:
            break
        nxt = ref_sum(w, Subspace.from_vectors(ctx, n, list(fresh)))
        if nxt.dim == w.dim:
            break
        frontier = nxt.basis.data[
            w.residuals(nxt.basis.data).astype(bool).any(axis=1)]
        w = nxt
    return w


def ref_largest_invariant_within(k, ops):
    """W <- {w in W : C.op(w) = 0 for all op}, C a matrix with kernel W."""
    ctx, w = k.ctx, k
    while w.dim:
        c = kernel(Matrix(ctx, w.basis.data)).basis
        if c.rows == 0 or not ops:
            return w
        b = w.basis.data
        blocks = [ctx.reduce(c.data @ ctx.reduce(op.data @ b.T)) for op in ops]
        coeff_kernel = kernel(Matrix(ctx, np.concatenate(blocks)))
        if coeff_kernel.dim == w.dim:
            return w
        vecs = ctx.reduce(coeff_kernel.basis.data @ b)
        w = Subspace.from_vectors(ctx, k.ambient_dim, list(vecs))
    return w


def assert_same(got, want):
    assert got == want
    assert got.pivots == want.pivots
    assert got.basis.data.dtype == want.basis.data.dtype


def _shift(ctx, n):
    """e_i -> e_(i+1): e_0 spins to everything in n - 1 rounds."""
    a = ctx.zeros(n, n)
    a[np.arange(1, n), np.arange(n - 1)] = ctx.one
    return Matrix(ctx, a)


@st.composite
def _subspaces(draw, ctx, n):
    rows = draw(st.integers(0, n))
    if rows == 0:
        return Subspace.zero(ctx, n)
    return Subspace.from_vectors(ctx, n, list(draw(_matrices(ctx, rows, n))))


@st.composite
def _operators(draw, ctx, n):
    ops = [Matrix(ctx, a) for a in draw(st.lists(_matrices(ctx, n, n),
                                                 max_size=2))]
    if draw(st.booleans()):
        ops.append(_shift(ctx, n))
    return ops


ECHELON_FIELDS = [F3, F5, FieldCtx.prime(2**31 - 1), Q]


@pytest.mark.parametrize("ctx", ECHELON_FIELDS, ids=repr)
class TestEchelonDifferential:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sum_and_intersect(self, ctx, data):
        n = data.draw(st.integers(1, 6))
        u, v = data.draw(_subspaces(ctx, n)), data.draw(_subspaces(ctx, n))
        assert_same(u.sum(v), ref_sum(u, v))
        assert_same(u.intersect(v), ref_intersect(u, v))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_invariant_closure(self, ctx, data):
        n = data.draw(st.integers(1, 8))
        ops = data.draw(_operators(ctx, n))
        seeds = list(data.draw(_matrices(ctx, data.draw(st.integers(1, 2)), n)))
        if data.draw(st.booleans()):
            seeds = [ctx.eye(n)[0]]
        assert_same(invariant_closure(ctx, n, seeds, OpTable.of(ctx, n, ops)),
                    ref_closure(ctx, n, seeds, ops))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_largest_invariant_within(self, ctx, data):
        n = data.draw(st.integers(1, 6))
        k = data.draw(_subspaces(ctx, n))
        ops = data.draw(_operators(ctx, n))
        assert_same(largest_invariant_within(k, OpTable.of(ctx, n, ops)),
                    ref_largest_invariant_within(k, ops))

    def test_shift_chain(self, ctx, monkeypatch):
        # one row a round: e_0 spins to everything, and the largest
        # invariant subspace of span(e_0..e_(n-3), e_(n-1)) loses one row a
        # round down to span(e_(n-1))
        n = 8
        op = _shift(ctx, n)
        seed = [ctx.eye(n)[0]]
        w = invariant_closure(ctx, n, seed, OpTable.of(ctx, n, [op]))
        assert w.dim == n
        assert_same(w, ref_closure(ctx, n, seed, [op]))
        k = Subspace.from_vectors(ctx, n,
                                  list(ctx.eye(n)[[*range(n - 2), n - 1]]))
        core = largest_invariant_within(k, OpTable.of(ctx, n, [op]))
        assert core.pivots == [n - 1]
        assert_same(core, ref_largest_invariant_within(k, [op]))

        # a second operator that adds nothing keeps the n - 1 rounds, and
        # each round takes the images of its one new row under both from
        # one OpTable.images call
        calls = []
        real = OpTable.images

        def counting(self, rows):
            calls.append((self.count, rows.shape))
            return real(self, rows)

        monkeypatch.setattr(OpTable, "images", counting)
        both = invariant_closure(
            ctx, n, seed, OpTable.of(ctx, n, [op, Matrix.zeros(ctx, n, n)]))
        assert_same(both, w)
        assert calls == [(2, (1, n))] * (n - 1)


# -- the integer form of a Matrix ----------------------------------------------

@pytest.mark.parametrize("ctx", [Q, FieldCtx.prime(2**31 - 1)], ids=repr)
def test_hash_reads_every_entry(ctx):
    # numpy prints arrays of more than 1000 entries with "...", so a hash
    # of the printed array misses most entries of a 40 x 40 matrix
    a = ctx.zeros(40, 40)
    b = a.copy()
    b[20, 20] = ctx.one
    ma, mb = Matrix(ctx, a), Matrix(ctx, b)
    assert ma != mb
    assert hash(ma) != hash(mb)
    assert hash(ma) == hash(Matrix(ctx, a.copy()))


class TestExactInput:
    """Matrix takes exact arrays only and holds the field's own dtype."""

    @pytest.mark.parametrize("ctx", [F5, Q], ids=repr)
    def test_float_array_is_rejected(self, ctx):
        with pytest.raises(InexactScalar):
            Matrix(ctx, np.array([[1.5, 2.0]]))

    @pytest.mark.parametrize("ctx", [F5, Q], ids=repr)
    def test_bool_array_is_rejected(self, ctx):
        with pytest.raises(InexactScalar):
            Matrix(ctx, np.array([[True, False]]))

    @pytest.mark.parametrize("ctx", [F5, Q], ids=repr)
    def test_float_entry_is_rejected(self, ctx):
        with pytest.raises(InexactScalar):
            Matrix(ctx, np.array([[1, 0.5]], dtype=object))

    def test_int64_over_q_gives_fractions(self):
        m = Matrix(Q, np.array([[1, -2]], dtype=np.int64))
        assert m.data.dtype == object
        assert [type(x) for x in m.data.flat] == [Fraction, Fraction]
        assert m.data.tolist() == [[1, -2]]

    def test_object_array_over_f5_gives_int64(self):
        m = Matrix(F5, np.array([[1, 7, Fraction(1, 2)]], dtype=object))
        assert m.data.dtype == np.int64
        assert m.data.tolist() == [[1, 2, 3]]


def _mixed_scalars(ctx):
    if not ctx.p:
        # denominators 1 to 12 mixed in one matrix, so the common scale
        # is a proper lcm and some numerators share its factors
        return st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    return _scalars(ctx)


def _mixed_matrices(ctx, rows, cols):
    return st.lists(st.lists(_mixed_scalars(ctx), min_size=cols,
                             max_size=cols),
                    min_size=rows, max_size=rows).map(ctx.arr)


def ref_int_form(ctx, a):
    """(integers, scale) of a field array, read off its entries."""
    if ctx.p:
        return a.astype(object), 1
    s = math.lcm(1, *(x.denominator for x in a.flat))
    return np.array([[int(x * s) for x in row] for row in a],
                    dtype=object).reshape(a.shape), s


@pytest.mark.parametrize("ctx", ORACLE_FIELDS, ids=repr)
class TestIntegerForm:
    """A Matrix built from its field array or from integers holds one
    canonical form, and its operations match the same operations on the
    field arrays."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_constructors_agree(self, ctx, data):
        r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5))
        a = data.draw(_mixed_matrices(ctx, r, c))
        ints, s = ref_int_form(ctx, a)
        # the same matrix as (k ints) / (k s), k != 0 in the field
        k = data.draw(st.integers(-6, 6).filter(
            lambda k: k % (ctx.p or 7) != 0))
        from_data = Matrix(ctx, a)
        from_ints = Matrix.from_int(ctx, ints * k, s * k)
        assert from_data == from_ints
        assert hash(from_data) == hash(from_ints)
        assert from_data.scale == from_ints.scale
        assert np.array_equal(from_data.ints, from_ints.ints)
        for m in (from_data, from_ints):
            assert np.array_equal(m.data, a)
            if ctx.p:
                assert m.scale == 1 and m.ints is m.data
            else:
                assert m.scale > 0
                assert math.gcd(m.scale, *m.ints.flat) == 1
            if not ctx.p:
                assert all(type(x) is Fraction for x in m.data.flat)
            elif ctx.dtype is np.int64:
                assert m.data.dtype == np.int64
            else:
                assert all(type(x) is int for x in m.data.flat)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_operations_match_field_arrays(self, ctx, data):
        r, k, c = (data.draw(st.integers(1, 5)) for _ in range(3))
        a, b = (data.draw(_mixed_matrices(ctx, r, k)) for _ in range(2))
        d = data.draw(_mixed_matrices(ctx, k, c))
        if data.draw(st.booleans()):
            b = a.copy()
        if data.draw(st.booleans()):
            b = ctx.zeros(r, k)
        if r == k and data.draw(st.booleans()):
            a = ctx.eye(r)

        def via_ints(x):
            return Matrix.from_int(ctx, *ref_int_form(ctx, x))

        ma, mb, md = via_ints(a), Matrix(ctx, b), via_ints(d)
        obj = [x.astype(object) for x in (a, b, d)]
        assert np.array_equal((ma + mb).data, ctx.reduce(obj[0] + obj[1]))
        assert np.array_equal((ma - mb).data, ctx.reduce(obj[0] - obj[1]))
        assert np.array_equal((ma @ md).data, ctx.reduce(obj[0] @ obj[2]))
        assert np.array_equal(ma.transpose().data, a.T)
        assert mb.is_zero() == (not any(x != 0 for x in b.flat))
        assert ma.is_identity() == (r == k and np.array_equal(a, ctx.eye(r)))
        assert (ma == mb) == np.array_equal(a, b)
        if np.array_equal(a, b):
            assert hash(ma) == hash(mb)
        for m in (ma + mb, ma - mb, ma @ md, ma.transpose()):
            assert m.data.dtype == ctx.dtype


def test_from_int_has_the_field_dtype():
    # int64 integers for a large p and Python ints for a small one
    big = FieldCtx.prime(2**31 - 1)
    for ctx, ints in ((big, np.eye(2, dtype=np.int64)),
                      (F5, np.array([[7, 0], [-1, 2**70]], dtype=object))):
        for s in (1, 3):
            a = from_int(ctx, ints, s)
            assert a.dtype == ctx.dtype
            assert np.array_equal(ctx.reduce(a.astype(object) * s),
                                  ints % ctx.p)
            if ctx.dtype is object:
                assert all(type(x) is int for x in a.flat)


# -- row reduction on integers over Q ------------------------------------------

class TestIntegerRowReduction:
    """Over Q rows are reduced fraction-free on Python ints, and integer
    input is never turned into Fractions and back."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        seen = []
        for name in ("from_int", "int_scaled"):
            real = getattr(linalg, name)

            def counting(*args, _real=real, _name=name):
                seen.append(_name)
                return _real(*args)

            monkeypatch.setattr(linalg, name, counting)
        return seen

    def test_integer_input_makes_no_fractions(self, conversions):
        rng = random.Random(8)
        n = 8

        def ints(rows, cols=n):
            return np.array([[rng.randint(-9, 9) for _ in range(cols)]
                             for _ in range(rows)], dtype=object)

        eye = np.eye(n, dtype=np.int64).astype(object)
        m = Matrix.from_int(Q, ints(5))
        ker = kernel(m)
        w = Subspace.from_vectors(Q, n, np.concatenate([eye[5:], ints(1)]))
        grown, added = w.extended(ints(1))
        shift = np.zeros((n, n), dtype=object)
        shift[np.arange(1, n), np.arange(n - 1)] = 1
        shift = Matrix.from_int(Q, shift)
        ops = [shift, Matrix.from_int(Q, ints(n), 3)]
        closure = invariant_closure(Q, n, [eye[0]], OpTable.of(Q, n, ops))
        core = largest_invariant_within(grown, OpTable.of(Q, n, [shift]))
        rows, c = ints(4), ints(1, 4)
        solver = SpanSolver(Q, rows)
        coeffs, u, in_span = solver.coords_int_rows(
            np.concatenate([c @ rows, ints(2)]), 7)
        assert conversions == []

        assert ker.dim == 3 and grown.dim == 5 and len(added) == 1
        assert closure.dim == n and core.pivots == [5, 6, 7]
        assert in_span.tolist() == [True, False, False]
        # the same answers as from Fraction arrays
        assert ker == kernel(Matrix(Q, m.data))
        assert closure == invariant_closure(Q, n, [Q.eye(n)[0]],
                                            OpTable.of(Q, n, ops))
        assert grown == Subspace.from_vectors(
            Q, n, np.concatenate([w.basis.data, from_int(Q, added, 1)]))
        # (c rows / 7) has the coefficients c / 7
        assert np.array_equal(from_int(Q, coeffs[:1], u), from_int(Q, c, 7))

    def test_dense_products_against_sympy(self):
        # a rank-50 60 x 60 product of entries up to 99: the fraction-free
        # rows grow far past the entries before the pivots are divided out
        rng = random.Random(19)
        a, b = (np.array([[rng.randint(-99, 99) for _ in range(c)]
                          for _ in range(r)], dtype=object)
                for r, c in ((60, 50), (50, 60)))
        prod = a @ b
        m = Matrix.from_int(Q, prod)
        dm = _to_sympy(Q, prod)
        want, want_pivots = dm.rref()
        got, rk, pivots = rref(m)
        assert rk == 50 and pivots == list(want_pivots)
        assert np.array_equal(got.data, _from_sympy(Q, want))
        assert got == Matrix(Q, _from_sympy(Q, want))
        ker = kernel(m)
        assert ker.dim == 10
        assert np.array_equal(ker.basis.data,
                              _from_sympy(Q, dm.nullspace().rref()[0]))

    def test_one_nonzero_scan_per_pivot(self, monkeypatch):
        # the fraction-free loop tests a column without an index array: a
        # pivot costs one np.nonzero, a column with no pivot none (a
        # rank-10 40 x 60 product: 70 calls when every column was
        # scanned), and the RREF is sympy's
        rng = random.Random(23)
        a, b = (np.array([[rng.randint(-9, 9) for _ in range(c)]
                          for _ in range(r)], dtype=object)
                for r, c in ((40, 10), (10, 60)))
        prod = a @ b
        calls = []
        for name in ("nonzero", "flatnonzero"):
            def counting(*args, _real=getattr(np, name), _name=name, **kw):
                calls.append(_name)
                return _real(*args, **kw)

            monkeypatch.setattr(np, name, counting)
        got, rk, pivots = rref(Matrix.from_int(Q, prod))
        monkeypatch.undo()
        assert rk == 10 and calls.count("nonzero") <= rk
        want, want_pivots = _to_sympy(Q, prod).rref()
        assert pivots == list(want_pivots)
        assert got == Matrix(Q, _from_sympy(Q, want))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_span_solver_on_fractional_rows(self, data):
        # rows with denominators: the solver reduces [B | t I] for rows B / t
        d, n = data.draw(st.integers(1, 4)), data.draw(st.integers(4, 6))
        rows = data.draw(_mixed_matrices(Q, d, n))
        if Subspace.from_vectors(Q, n, rows).dim < d:
            with pytest.raises(DimensionMismatch):
                SpanSolver(Q, rows)
            return
        c = data.draw(_mixed_matrices(Q, 3, d))
        solver = SpanSolver(Q, rows)
        coeffs, in_span = solver.coords_rows(exact_matmul(Q, c, rows))
        assert in_span.all() and np.array_equal(coeffs, c)


class TestOpTable:
    """An OpTable holds operators as sorted nonzero entries on one
    canonical scale, so equal tables hold equal operators."""

    @pytest.mark.parametrize("ctx", [F5, FieldCtx.prime(2**31 - 1), Q],
                             ids=repr)
    def test_round_trip_and_dense_views(self, ctx):
        rng = random.Random(3)
        mats = [Matrix.from_rows(ctx, [[rng.choice([0, 0, 1, -2, "1/3"])
                                        for _ in range(4)] for _ in range(4)])
                for _ in range(5)]
        mats.append(Matrix.zeros(ctx, 4, 4))
        t = OpTable.of(ctx, 4, mats)
        assert t.matrices() == mats and t.count == 6
        keys = (t.op * 4 + t.row) * 4 + t.col
        assert np.all(keys[1:] > keys[:-1]) and np.all(t.val != 0)
        assert OpTable.from_keys(ctx, 4, 6, keys, t.val, t.scale) == t
        dense = t.dense()
        assert dense.shape == (6, 4, 4)
        for k, m in enumerate(mats):
            assert Matrix.from_int(ctx, dense[k], t.scale) == m
        assert OpTable.concat([(t, 0, 2), (t, 2, 7)]) == \
            OpTable.of(ctx, 4, mats + [Matrix.zeros(ctx, 4, 4)])

    @staticmethod
    def mixed(ctx, rng, count, n):
        """count n x n Matrices with zero, integer and fractional entries
        (over F_p 1/3 is its residue)."""
        return [Matrix.from_rows(ctx, [[rng.choice([0, 0, 1, -2, "1/3", 4])
                                        for _ in range(n)] for _ in range(n)])
                for _ in range(count)]

    @pytest.mark.parametrize("ctx", [F5, FieldCtx.prime(2**31 - 1), Q],
                             ids=repr)
    def test_images_and_transposed_against_matrices(self, ctx):
        # row b count + k of images(rows) is J_k v_b, over scale times the
        # rows' scale: per-operator Matrix products are the oracle
        rng = random.Random(5)
        mats = self.mixed(ctx, rng, 3, 5)
        rows = Matrix.from_rows(ctx, [[rng.choice([0, 1, -1, "2/7"])
                                       for _ in range(5)] for _ in range(4)])
        # the table of ops 0 and 2, ops 1 and 2 then two zero ops, a
        # table of two ops with no entries and one of no ops
        for t in (OpTable.of(ctx, 5, mats), OpTable.of(ctx, 5, mats[::2]),
                  OpTable.of(ctx, 5, mats).pick([1, 2, -1, -1]),
                  OpTable.empty(ctx, 5, 2), OpTable.empty(ctx, 5)):
            ops = t.matrices()
            got = t.images(rows.ints)
            assert got.shape == (4 * t.count, 5)
            for b in range(4):
                for k, m in enumerate(ops):
                    want = m @ Matrix.from_int(ctx,
                                               rows.ints[b:b + 1].T.copy())
                    assert Matrix.from_int(
                        ctx, got[b * t.count + k][:, None].copy(),
                        t.scale) == want
            tt = t.transposed()
            assert tt.matrices() == [m.transpose() for m in ops]
            assert tt == OpTable.of(ctx, 5, [m.transpose() for m in ops])
            assert tt.transposed() == t

    @pytest.mark.parametrize("ctx", [F5, FieldCtx.prime(2**31 - 1), Q],
                             ids=repr)
    def test_images_of_empty_and_zero_tables(self, ctx):
        rows = np.eye(3, dtype=ctx.dtype)
        empty = OpTable.empty(ctx, 3)
        assert empty.images(rows).shape == (0, 3)
        assert empty.transposed() == empty
        # a pick of op -1 gives a zero op: its images are zero
        t = OpTable.of(ctx, 3, [Matrix.identity(ctx, 3)]).pick([0, -1, -1])
        got = t.images(rows)
        assert got.shape == (9, 3)
        assert np.array_equal(got[::3].astype(bool), np.eye(3, dtype=bool))
        assert not got[1::3].any() and not got[2::3].any()
        assert t.transposed() == t
        assert OpTable.empty(ctx, 0, 2).images(
            np.zeros((2, 0), dtype=ctx.dtype)).shape == (4, 0)
        for bad in (np.eye(4, dtype=ctx.dtype), np.zeros(3, dtype=ctx.dtype),
                    np.zeros((2, 2), dtype=ctx.dtype)):
            with pytest.raises(DimensionMismatch):
                t.images(bad)
            with pytest.raises(DimensionMismatch):
                empty.images(bad)

    def test_images_at_the_int64_bound(self):
        # p = 33554393 is the largest prime below 2^25, so the last field
        # on int64 residues: every value and row entry is p - 1, so each
        # term is (p - 1)^2, about 2^50, and a run sums n of them
        ctx = FieldCtx.prime(33554393)
        assert ctx.dtype is np.int64
        n, top = 6, ctx.p - 1
        mats = [Matrix.from_int(ctx, np.full((n, n), top, dtype=np.int64)),
                Matrix.from_int(ctx, np.triu(np.full((n, n), top,
                                                     dtype=np.int64)))]
        rows = np.full((3, n), top, dtype=np.int64)
        rows[1, ::2] = 0
        t = OpTable.of(ctx, n, mats)
        got = t.images(rows)
        assert got.dtype == np.int64 and ((0 <= got) & (got < ctx.p)).all()
        for b in range(3):
            v = Matrix.from_int(ctx, rows[b:b + 1].T.copy())
            for k, m in enumerate(mats):
                assert np.array_equal(got[b * 2 + k], (m @ v).ints[:, 0])
        # past the bound a run of n terms (p - 1)^2 would pass 2^63, so
        # they are reduced first: J v_0 = n (p - 1)^2 = n mod p
        n = 2**63 // top**2 + 1
        row = OpTable(ctx, n, 1, np.zeros(n, np.int64), np.zeros(n, np.int64),
                      np.arange(n), np.full(n, top))
        got = row.images(np.full((1, n), top, dtype=np.int64))
        assert n * top**2 >= 2**63 and got[0, 0] == n * top**2 % ctx.p
        assert not got[0, 1:].any()

    def test_scale_is_canonical_over_q(self):
        half, third = (Matrix.from_rows(Q, [[x, 0], [0, 1]])
                       for x in ("1/2", "1/3"))
        t = OpTable.of(Q, 2, [half, third])
        assert t.scale == 6
        assert (t.pick([0]).scale, t.pick([1]).scale) == (2, 3)
        assert OpTable.concat([t.pick([0]), t.pick([1])]) == t
        assert t.pick([0]) == OpTable.of(Q, 2, [half])
        assert t.pick([1, 0]) == OpTable.of(Q, 2, [third, half])
        assert t != OpTable.of(Q, 2, [half, half])

    def test_tables_are_read_only(self):
        t = OpTable.of(F5, 2, [Matrix.identity(F5, 2)])
        for a in (t.op, t.row, t.col, t.val):
            with pytest.raises(ValueError):
                a[0] = 0

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from superlie.constructions import symn_dual
from superlie.fields import FieldCtx, ZeroInverse, _is_prime
from superlie.linalg import Matrix, exact_matmul, kernel
from superlie.modules import sym2

F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
Q = FieldCtx.rationals()
BIG = FieldCtx.prime(2**31 - 1)


def brute_force_inverse(a, p):
    # independent oracle: scan all residues
    for b in range(1, p):
        if (a * b) % p == 1:
            return b
    raise AssertionError(f"no inverse of {a} mod {p}")


def trial_division(n):
    """The trial division _is_prime replaced, as the reference."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class TestPrimality:
    """_is_prime (Miller-Rabin on the bases 2, 3, 5, 7) is exact for every
    modulus FieldCtx admits."""

    def test_matches_trial_division(self):
        assert all(_is_prime(n) == trial_division(n) for n in range(200000))

    @pytest.mark.parametrize("n, prime", [
        (2**31 - 1, True),
        (33554393, True),
        # strong pseudoprimes to base 2
        (2047, False), (3277, False), (4033, False),
        # strong pseudoprime to the bases 2, 3 and 5
        (25326001, False),
    ])
    def test_hard_cases(self, n, prime):
        assert _is_prime(n) is prime is trial_division(n)


class TestFieldCtx:
    def test_rejects_char_two(self):
        with pytest.raises(ValueError):
            FieldCtx.prime(2)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            FieldCtx.prime(9)

    def test_rejects_huge(self):
        with pytest.raises(ValueError):
            FieldCtx.prime(2**31 + 11)

    def test_inverse_examples(self):
        assert F5.inv(2) == 3
        assert F5.inv(1) == 1
        assert Q.inv(Fraction(1)) == 1
        # frozen from the brute-force scan of residues 1..6
        assert brute_force_inverse(3, 7) == 5
        assert F7.inv(3) == 5

    def test_zero_inverse(self):
        with pytest.raises(ZeroInverse):
            F5.inv(0)
        with pytest.raises(ZeroInverse):
            Q.inv(Fraction(0))

    def test_inverse_matches_oracle_everywhere(self):
        for p in (3, 5, 7, 11):
            ctx = FieldCtx.prime(p)
            for a in range(1, p):
                assert ctx.inv(a) == brute_force_inverse(a, p)

    def test_of_parses_strings(self):
        assert F5.of("7") == 2
        assert F5.of("-1") == 4
        assert F5.of("1/2") == 3
        assert Q.of("3/4") == Fraction(3, 4)

    def test_of_fraction_in_prime_field(self):
        assert F5.of(Fraction(1, 2)) == 3
        assert F7.of(Fraction(-1, 3)) == F7.mul(F7.neg(1), F7.inv(3))

    @pytest.mark.parametrize("ctx", [F5, Q])
    @pytest.mark.parametrize("x", [0.5, 0.1, 2.0, True, False,
                                   np.float64(3.0), np.float32(0.5),
                                   np.bool_(True)])
    def test_of_rejects_inexact_scalars(self, ctx, x):
        with pytest.raises(TypeError):
            ctx.of(x)

    def test_of_accepts_exact_scalars(self):
        assert F5.of(np.int64(7)) == 2
        assert F5.of(np.int32(-1)) == 4
        assert Q.of(np.int64(-3)) == Fraction(-3)
        assert Q.of("0.1") == Fraction(1, 10)
        assert F5.of(Fraction(6, 1)) == 1

    @given(a=st.integers(0, 4), b=st.integers(0, 4))
    def test_round_trip_add_f5(self, a, b):
        assert F5.sub(F5.add(a, b), b) == a

    @given(a=st.integers(0, 6), b=st.integers(1, 6))
    def test_round_trip_mul_f7(self, a, b):
        assert F7.mul(F7.mul(a, b), F7.inv(b)) == a

    @given(
        a=st.fractions(min_value=-50, max_value=50, max_denominator=20),
        b=st.fractions(min_value=-50, max_value=50, max_denominator=20),
    )
    def test_round_trip_rationals(self, a, b):
        assert Q.sub(Q.add(a, b), b) == a
        if b != 0:
            assert Q.mul(Q.mul(a, b), Q.inv(b)) == a

    def test_round_trip_bulk(self):
        import random

        rng = random.Random(0)
        for _ in range(1000):
            a, b = rng.randrange(7), rng.randrange(1, 7)
            assert F7.sub(F7.add(a, b), b) == a
            assert F7.mul(F7.mul(a, b), F7.inv(b)) == a


class TestLargePrimeEntries:
    """Near 2^31 arrays are object arrays of int residues, never Fractions."""

    def test_zeros_hold_ints(self):
        assert BIG.dtype is object
        assert all(type(x) is int for x in BIG.zeros(3, 4).flat)

    def test_sym2_operators_hold_ints(self):
        m = sym2(symn_dual(3, BIG))
        ops = list(m.lie_action) + [op for f in m.families for op in f.ops]
        assert all(type(x) is int for op in ops for x in op.data.flat)


class TestInt64Limit:
    """FieldCtx.dtype keeps int64 while dot products of length 8192 of
    residues stay below 2^63: (p - 1)^2 * 8192 < 2^63, so p - 1 < 2^25."""

    LAST_INT64 = FieldCtx.prime(33554393)  # the largest prime below 2^25 + 1

    def test_dtype_switches_at_the_limit(self):
        assert self.LAST_INT64.dtype is np.int64
        assert FieldCtx.prime(33554467).dtype is object  # the next prime

    def test_matmul_at_the_dot_product_limit(self):
        ctx = self.LAST_INT64
        a = np.full((2, 8192), ctx.p - 1, dtype=np.int64)
        b = np.full((8192, 3), ctx.p - 1, dtype=np.int64)
        got = exact_matmul(ctx, a, b)
        want = (a.astype(object) @ b.astype(object)) % ctx.p
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()

    def test_kernel_residues_near_p(self):
        ctx = self.LAST_INT64
        rng = np.random.default_rng(0)
        a = ctx.reduce(ctx.p - rng.integers(1, 2**20, size=(4, 12)))
        a[3] = ctx.reduce(a[0] * 5 + a[1] * (ctx.p - 7))
        k = kernel(Matrix(ctx, a))
        assert k.basis.data.dtype == np.int64 and k.dim == 9
        prod = (a.astype(object) @ k.basis.data.T.astype(object)) % ctx.p
        assert not prod.any()

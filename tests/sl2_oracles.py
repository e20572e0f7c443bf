"""Closed-form oracles for the sl2 x Sym_n* pair brackets, kept for the
tests: superlie builds these brackets from the hom space (pairs.pair_space),
and the tests check them against the closed forms here."""

import math
from dataclasses import dataclass

import numpy as np

from superlie.constructions import RecurrenceViolation
from superlie.fields import FieldCtx
from superlie.pairs import BilinearMap


@dataclass(frozen=True)
class SL2FamilyConstants:
    """Structure constants of the symmetric bracket Sym^2(Sym_n(V)*) -> sl2:

      [s*_i, s*_{n-i}]   = a_i H      0 <= i <= n
      [s*_j, s*_{n-1-j}] = b_j E12    0 <= j <= n-1
      [s*_k, s*_{n+1-k}] = c_k E21    1 <= k <= n

    Closed forms, all scalar multiples of one parameter a:
      a_i = (-1)^i (C(n-1,i) - C(n-1,i-1)) a / 2
      b_j = (-1)^j C(n-1,j) a
      c_k = (-1)^k C(n-1,k-1) a
    """

    n: int
    a: object
    a_list: tuple
    b_list: tuple
    c_list: tuple  # index k-1 holds c_k


def sl2_symn_constants(n: int, a, ctx: FieldCtx) -> SL2FamilyConstants:
    if n < 1 or n % 2 == 0:
        raise RecurrenceViolation(
            "the bracket constants only close up for odd n")
    a = ctx.of(a)
    half = ctx.inv(ctx.of(2))

    def comb(m, k):
        return ctx.of(math.comb(m, k)) if 0 <= k <= m else ctx.zero

    def sgn(i):
        return ctx.one if i % 2 == 0 else ctx.neg(ctx.one)

    a_list = tuple(
        ctx.mul(ctx.mul(sgn(i), ctx.sub(comb(n - 1, i), comb(n - 1, i - 1))),
                ctx.mul(half, a))
        for i in range(n + 1))
    b_list = tuple(
        ctx.mul(sgn(j), ctx.mul(comb(n - 1, j), a)) for j in range(n))
    c_list = tuple(
        ctx.mul(sgn(k), ctx.mul(comb(n - 1, k - 1), a))
        for k in range(1, n + 1))

    def cc(k):
        return c_list[k - 1] if 1 <= k <= n else ctx.zero

    def bb(j):
        return b_list[j] if 0 <= j <= n - 1 else ctx.zero

    for i in range(n + 1):
        lhs = ctx.sub(ctx.mul(ctx.of(-(i + 1)), cc(i + 1)),
                      ctx.mul(ctx.of(n - i + 1), cc(i)))
        if lhs != ctx.mul(ctx.of(2), a_list[i]):
            raise RecurrenceViolation(f"E21 invariance fails on pair sum n, i={i}")
        lhs = ctx.sub(ctx.mul(ctx.of(-(n - i + 1)), bb(i - 1)),
                      ctx.mul(ctx.of(i + 1), bb(i)))
        if lhs != ctx.mul(ctx.of(-2), a_list[i]):
            raise RecurrenceViolation(f"E12 invariance fails on pair sum n, i={i}")
    for j in range(n):
        lhs = ctx.sub(ctx.mul(ctx.of(-(j + 1)),
                              a_list[j + 1] if j + 1 <= n else ctx.zero),
                      ctx.mul(ctx.of(n - j), a_list[j]))
        if lhs != ctx.neg(bb(j)):
            raise RecurrenceViolation(f"E21 invariance fails on pair sum n-1, j={j}")
    for k in range(1, n + 1):
        lhs = ctx.sub(ctx.mul(ctx.of(-(n - k + 1)),
                              a_list[k - 1] if k - 1 >= 0 else ctx.zero),
                      ctx.mul(ctx.of(k), a_list[k]))
        if lhs != cc(k):
            raise RecurrenceViolation(f"E12 invariance fails on pair sum n+1, k={k}")
    return SL2FamilyConstants(n, a, a_list, b_list, c_list)


def sl2_symn_bracket(n: int, a, ctx: FieldCtx) -> BilinearMap:
    """The bracket of SL2FamilyConstants on s*_0..s*_n, into the sl2
    basis (H, E12, E21)."""
    const = sl2_symn_constants(n, a, ctx)
    consts = ctx.zeros(n + 1, n + 1, 3)
    i = np.arange(n + 1)
    consts[i, n - i, 0] = const.a_list
    consts[i[:n], n - 1 - i[:n], 1] = const.b_list
    consts[i[1:], n + 1 - i[1:], 2] = const.c_list
    return BilinearMap(ctx, consts)

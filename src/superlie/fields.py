"""Exact coefficient arithmetic: prime fields F_p (p odd) and the rationals.

Scalars are plain python objects: canonical residues ``int`` in [0, p) for a
prime field, ``fractions.Fraction`` for the rationals.  A FieldCtx bundles the
arithmetic so the rest of the library never branches on the field kind.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import numpy as np

ScalarLike = Union[int, str, Fraction]


class SuperlieError(Exception):
    """Base of every error superlie raises on purpose: a failed axiom or
    check, or bad input.  Each subclass also keeps its builtin base
    (ValueError, TypeError, ...).  An IndexError or ValueError from numpy
    that is not a SuperlieError is a bug in superlie, and callers that
    recover from errors (census rows, the CLI) let it propagate."""


class InputError(SuperlieError, ValueError):
    """Bad input: an unknown name, an unsupported parameter, a malformed
    scalar or matrix."""


class ZeroInverse(SuperlieError, ZeroDivisionError):
    pass


class InexactScalar(SuperlieError, TypeError):
    pass


def json_ints(xs, what: str) -> tuple:
    """A JSON array of ints as a tuple; InputError naming what for anything
    else (a float, string or bool entry is rejected, not coerced)."""
    if not isinstance(xs, (list, tuple)) or any(type(x) is not int for x in xs):
        raise InputError(f"{what}: expected a list of ints, got {xs!r}")
    return tuple(xs)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 3, 5, 7, exact for
    n < 3215031751 (the least strong pseudoprime to all four), which covers
    every p < 2^31 FieldCtx admits."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldCtx:
    """An exact coefficient field: F_p with p an odd prime < 2^31, or Q.

    ``p == 0`` means the rationals.  Instances are immutable and hashable;
    all operations are pure.
    """

    __slots__ = ("p", "dtype")

    def __init__(self, p: int):
        if p != 0:
            if p == 2:
                raise InputError("characteristic 2 not supported")
            if not (2 < p < 2**31) or not _is_prime(p):
                raise InputError(f"not an odd prime < 2^31: {p}")
        object.__setattr__(self, "p", p)
        # the dtype of the field's arrays (see the numpy array helpers),
        # set once: every Matrix reads it
        object.__setattr__(self, "dtype", np.int64
                           if p and (p - 1) ** 2 * 8192 < 2**63 else object)

    def __setattr__(self, *a):
        raise AttributeError("FieldCtx is immutable")

    @classmethod
    def prime(cls, p: int) -> "FieldCtx":
        if p == 0:
            raise InputError("use FieldCtx.rationals() for characteristic 0")
        return cls(p)

    @classmethod
    def rationals(cls) -> "FieldCtx":
        return cls(0)

    # -- JSON ---------------------------------------------------------------
    def to_json_value(self) -> Union[dict, str]:
        return {"p": self.p} if self.p else "Q"

    @classmethod
    def from_json_value(cls, v: Union[dict, str]) -> "FieldCtx":
        return cls.rationals() if v == "Q" else cls.prime(int(v["p"]))

    # -- predicates ---------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.p == other.p

    def __hash__(self):
        return hash(("FieldCtx", self.p))

    def __repr__(self):
        return f"F{self.p}" if self.p else "Q"

    # -- scalar arithmetic --------------------------------------------------
    @property
    def zero(self):
        return 0 if self.p else Fraction(0)

    @property
    def one(self):
        return 1 if self.p else Fraction(1)

    def of(self, x: ScalarLike):
        """Canonicalize an int, Fraction or decimal string like "3" or "-3/4".

        Anything else, floats and bools included, raises InexactScalar (a
        TypeError): rounding an inexact value would silently change the
        mathematics.  A string that does not parse raises InputError."""
        if type(x) is int:  # the common case; bool is not int here
            return x % self.p if self.p else Fraction(x)
        if isinstance(x, bool) or not isinstance(
                x, (int, np.integer, Fraction, str)):
            raise InexactScalar(f"not an exact scalar: {x!r}")
        if isinstance(x, str):
            try:
                return self._of_str(x)
            except ZeroInverse:
                raise
            except (ValueError, ZeroDivisionError):
                raise InputError(f"not an exact scalar: {x!r}") from None
        if self.p:
            if isinstance(x, Fraction):
                if x.denominator == 1:
                    return x.numerator % self.p
                return self.mul(x.numerator % self.p, self.inv(x.denominator % self.p))
            return int(x) % self.p
        return Fraction(x)

    def _of_str(self, x: str):
        if not self.p:
            return Fraction(x)
        if "/" in x:
            num, den = x.split("/")
            return self.mul(int(num) % self.p, self.inv(int(den) % self.p))
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if self.p:
            a = int(a) % self.p
            if a == 0:
                raise ZeroInverse("0 has no inverse")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroInverse("0 has no inverse")
        return Fraction(1) / a

    def is_zero(self, a) -> bool:
        return (a % self.p == 0) if self.p else a == 0

    def scalar_to_str(self, a) -> str:
        return str(a)

    # -- numpy array helpers -------------------------------------------------
    # Prime-field matrices are int64 arrays of canonical residues; rational
    # matrices are object arrays of Fractions.  int64 is safe for the sizes in
    # play: |a*b| <= (p-1)^2 and dot products of length <= 2^13 stay below 2^63
    # for p < 2^24; constructions here have p in the low thousands at most,
    # but guard anyway.
    def arr(self, rows) -> np.ndarray:
        a = np.array(
            [[self.of(x) for x in row] for row in rows], dtype=self.dtype
        )
        if a.ndim == 1:
            a = a.reshape(len(rows), 0)
        return a

    def vec(self, xs) -> np.ndarray:
        return np.array([self.of(x) for x in xs], dtype=self.dtype)

    def zeros(self, *shape) -> np.ndarray:
        if self.dtype is object:
            a = np.empty(shape, dtype=object)
            a[...] = self.zero
            return a
        return np.zeros(shape, dtype=np.int64)

    def eye(self, n) -> np.ndarray:
        a = self.zeros(n, n)
        for i in range(n):
            a[i, i] = self.one
        return a

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return a % self.p if self.p else a

"""Exact linear algebra over a FieldCtx.

A Matrix holds one canonical integer form, ints / scale: the residues
themselves over F_p (int64 below 2^25, Python ints above), Python ints over
their least common denominator over Q.  Row reduction, subspaces, spinning,
SpanSolver and the structure constants of algebras and pairs use only that
form; the field array (Fractions over Q) is made on first use, for output.
Everything is exact; there is no floating point anywhere.

Row reduction works on integer arrays over every field and returns the
reduced row echelon form as R / s, which depends only on the row space, so
Subspace basis matrices are canonical: two subspaces are equal iff their
basis forms are identical.  Over F_p the pivot row is scaled to 1 and s is
1.  Over Q rows are combined fraction-free and divided by their content,
and the pivots are divided out once at the end.  On int64 arrays of three
or more rows and columns it first peels the rows with a single nonzero
entry, as structured Gaussian elimination does (LaMacchia and Odlyzko,
CRYPTO '90): such a row puts a unit vector into the row space, so its column is
cleared from every row, which can leave new single-entry rows, until none
is left.  In a weight basis [h, e_a] = a(h) e_a for diagonal h, so most
rows of the centre and derived systems are single.  The leftmost nonzero
pivot loop then runs only on the rows that remain, and the unit rows are
merged back by pivot: the result is the same unique form.

An OpTable holds a list of n x n operators as one sparse integer table,
the nonzero entries (op, row, col, value) of their integer forms on one
scale: modules, the adjoint action and an algebra's structure constants
are held so.  Spinning (invariant_closure, largest_invariant_within) and
every other batch of images take a table, whose images method gathers and
sums over its entries: no dense operator is laid out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .fields import FieldCtx, InexactScalar, SuperlieError


class DimensionMismatch(SuperlieError, ValueError):
    pass


def exact_matmul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of canonical arrays.  Over F_p the residues are below
    p < 2^31, so they are multiplied as int64 arrays (a large p's object
    arrays too, and the product returned as objects).  For small primes
    the product is routed through float64 BLAS: every intermediate is an
    integer below 2^53, so the result is exact and then reduced mod p.
    Where the int64 dot products could pass 2^63, a is split into 16-bit
    halves, a = hi 2^16 + lo: each half's product with b stays below 2^63
    while (p - 1)(2^16 - 1) k does, and is reduced before the two are
    combined; past that, the product is taken on Python ints."""
    if ctx.p and a.dtype == b.dtype and a.dtype in (np.int64, ctx.dtype):
        p, k = ctx.p, max(1, a.shape[-1])
        dtype = a.dtype
        a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
        if (p - 1) ** 2 * k < 2**53:
            prod = (a.astype(np.float64) @ b.astype(np.float64)).astype(
                np.int64) % p
        elif (p - 1) ** 2 * k < 2**63:
            prod = a @ b % p
        elif (p - 1) * (2**16 - 1) * k < 2**63:
            prod = ((a >> 16) @ b % p * 2**16 + (a & 0xFFFF) @ b % p) % p
        else:
            prod = (a.astype(object) @ b.astype(object) % p).astype(np.int64)
        return prod.astype(dtype, copy=False)
    return ctx.reduce(a @ b)


def int_bilinear(ctx: FieldCtx, consts: np.ndarray, xs: np.ndarray,
                 ys: np.ndarray) -> np.ndarray:
    """B(x_r, y_s) for every row x_r of xs and y_s of ys, as the (len(xs),
    len(ys), g) integer array, where B(e_i, e_j) is consts[i, j]: two
    products on integer arrays as int_family gives them (int_matmul), so
    over the product of the three scales."""
    n, g = consts.shape[1:]
    # left[b, r, k] = B(x_r, e_b)_k
    left = int_matmul(ctx, xs, consts.reshape(n, n * g))
    left = left.reshape(len(xs), n, g).transpose(1, 0, 2)
    out = int_matmul(ctx, ys, left.reshape(n, len(xs) * g))
    return out.reshape(len(ys), len(xs), g).transpose(1, 0, 2)


def sparse_int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of integer object arrays, touching only nonzero entries."""
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=object)
    for k in range(b.shape[0]):
        cols = np.nonzero(b[k])[0]
        if len(cols) == 0:
            continue
        bk = b[k]
        for i in np.nonzero(a[:, k])[0]:
            aik = a[i, k]
            row = acc[i]
            for j in cols:
                row[j] += aik * bk[j]
    return acc


def nonzeros(a: np.ndarray):
    """The indices of the nonzero entries of a, one array per axis in
    lexicographic order, followed by their values.  np.nonzero is several
    times faster on a 1-d bool array than on an n-d or object one."""
    flat = np.flatnonzero(a.astype(bool))
    return (*np.unravel_index(flat, a.shape), a.ravel()[flat])


def int_scaled(m: np.ndarray) -> Tuple[np.ndarray, int]:
    """(integer object array, scale) with m == array / scale, entrywise."""
    *idx, vals = nonzeros(m)
    s = lcm(1, *(getattr(x, "denominator", 1) for x in vals))
    out = np.zeros(m.shape, dtype=object)
    out[tuple(idx)] = [int(x.numerator) * (s // x.denominator)
                       if isinstance(x, Fraction) else int(x) * s for x in vals]
    return out, s


def int_family(ctx: FieldCtx,
               items: Sequence) -> Tuple[List[np.ndarray], int]:
    """(integer arrays J_i, one scale s) with items[i] == J_i / s in the
    field.  A Matrix gives its integer form, only rescaled; any other item
    is read by _array_form, so an inexact one raises InexactScalar.  Over
    F_p the J_i are the residues themselves (int64, or Python ints for a
    large p) and s is 1; over Q they are Python ints and s is the least
    common denominator of every entry of every item."""
    forms = [(m.ints, m.scale) if isinstance(m, Matrix)
             else _array_form(ctx, np.asarray(m)) for m in items]
    s = lcm(1, *(sk for _, sk in forms))
    return [j if sk == s else j * (s // sk) for j, sk in forms], s


def int_matmul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of integer arrays as int_family gives them: canonical
    residues over F_p, exact integers over Q."""
    return exact_matmul(ctx, a, b) if ctx.p else sparse_int_matmul(a, b)


def from_int(ctx: FieldCtx, ints: np.ndarray, s: int) -> np.ndarray:
    """The canonical field array ints / s, for an integer array and a
    nonzero integer scale."""
    if ctx.p:
        a = ctx.reduce(ints)
        if s != 1:
            a = ctx.reduce(a * ctx.inv(s))
        return a if a.dtype == ctx.dtype else a.astype(ctx.dtype)
    out = np.full(ints.shape, ctx.zero, dtype=object)
    nz = np.nonzero(ints)
    out[nz] = [Fraction(int(v), s) for v in ints[nz]]
    return out


# ---------------------------------------------------------------------------
# sparse joins: products and sums on the nonzero entries of integer arrays
# ---------------------------------------------------------------------------

def run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the previous
    one: the first entry of each run of equal values."""
    starts = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def join(left: np.ndarray, right: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The index pairs (x, y) with left[x] == right[y], by increasing x and,
    for one x, increasing y.  Joining the entries of matrices on the middle
    index gives every term of their products.  The array methods skip
    numpy's function dispatch, a large share of a join of a few hundred
    entries."""
    order = right.argsort(kind="stable")
    srt = right[order]
    lo = srt.searchsorted(left, "left")
    cnt = srt.searchsorted(left, "right") - lo
    x = np.arange(len(left)).repeat(cnt)
    # the y of x are order[lo[x]], order[lo[x] + 1], ...
    y = order[(lo - cnt.cumsum() + cnt).repeat(cnt) + np.arange(len(x))]
    return x, y


def nonzero_sums(ctx: FieldCtx, keys: np.ndarray,
                 terms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct keys, in increasing order, whose terms do not sum to
    zero in the field, and their sums: terms are integers, reduced once per
    key (residues over F_p, integers over one common denominator over Q)."""
    if not len(keys):
        return keys, terms
    order = keys.argsort(kind="stable")
    keys, terms = keys[order], terms[order]
    first = run_starts(keys).nonzero()[0]
    sums = ctx.reduce(np.add.reduceat(terms, first))
    keep = sums != 0
    return keys[first[keep]], sums[keep]


def keyed_rows(keys: np.ndarray, cols: np.ndarray, vals: np.ndarray,
               width: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct keys, increasing, and the integer array of width columns
    whose row r holds, at cols, the vals of the entries of the r-th key."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = run_starts(keys)
    rows = np.zeros((int(first.sum()), width), dtype=vals.dtype)
    rows[np.cumsum(first) - 1, cols[order]] = vals[order]
    return keys[first], rows


class OpTable:
    """count operators on ctx^n as one sparse integer table: the nonzero
    entries (op, row, col, val) of their integer forms J_op, sorted by
    (op, row, col), on one scale: operator k is J_k / scale.  The values
    are residues over F_p, where scale is 1, and Python ints over Q, where
    scale > 0 is made their least common denominator, so equal tables hold
    equal operators (T. A. Davis, Direct Methods for Sparse Linear
    Systems, SIAM 2006, ch. 2).  dense and matrices are dense views made
    on request; images applies every operator to a block of rows."""

    __slots__ = ("ctx", "n", "count", "op", "row", "col", "val", "scale",
                 "_runs")

    def __init__(self, ctx: FieldCtx, n: int, count: int, op: np.ndarray,
                 row: np.ndarray, col: np.ndarray, val, scale: int = 1):
        val = np.asarray(val, dtype=ctx.dtype)
        g = gcd(scale, *val.tolist()) if scale != 1 else 1
        if g != 1:
            val, scale = val // g, scale // g
        self.ctx, self.n, self.count, self.scale = ctx, n, count, scale
        self.op, self.row, self.col, self.val = op, row, col, val
        for a in (self.op, self.row, self.col, self.val):
            a.setflags(write=False)
        self._runs = None

    @classmethod
    def from_dense(cls, ctx: FieldCtx, a: np.ndarray,
                   scale: int = 1) -> "OpTable":
        """The table of the (count, n, n) integer array a over scale."""
        return cls(ctx, a.shape[1], a.shape[0], *nonzeros(a), scale)

    @classmethod
    def from_keys(cls, ctx: FieldCtx, n: int, count: int, keys: np.ndarray,
                  val, scale: int = 1) -> "OpTable":
        """The table of the increasing keys (op n + row) n + col, values val."""
        return cls(ctx, n, count, *np.unravel_index(keys, (count, n, n)),
                   val, scale)

    @classmethod
    def of(cls, ctx: FieldCtx, n: int, mats: Sequence["Matrix"]) -> "OpTable":
        """The table of n x n Matrices; DimensionMismatch for another shape."""
        for m in mats:
            if m.shape != (n, n):
                raise DimensionMismatch(
                    f"operator shape {m.rows}x{m.cols} vs ambient {n}")
        js, s = int_family(ctx, mats)
        return cls.from_dense(ctx, np.array(js, dtype=ctx.dtype).reshape(
            len(js), n, n), s)

    @classmethod
    def concat(cls, parts: Sequence) -> "OpTable":
        """The ops of the parts, in order, on one scale: a part is a table,
        or (table, lo, hi) for its ops lo, ..., hi - 1."""
        parts = [p if isinstance(p, tuple) else (p, 0, p.count)
                 for p in parts]
        s = lcm(1, *(t.scale for t, _, _ in parts))
        cols, o = [], 0
        for t, lo, hi in parts:
            op, row, col, val = t.entries(lo, hi, s)
            cols.append((op + (o - lo), row, col, val))
            o += hi - lo
        op, row, col, val = (np.concatenate(a) for a in zip(*cols))
        return cls(parts[0][0].ctx, parts[0][0].n, o, op, row, col, val, s)

    @classmethod
    def empty(cls, ctx: FieldCtx, n: int, count: int = 0) -> "OpTable":
        return cls.from_dense(ctx, np.zeros((count, n, n), np.int64))

    def entries(self, lo: int = 0, hi: Optional[int] = None,
                scale: Optional[int] = None):
        """(op, row, col, val) of ops lo, ..., hi - 1 (to the last when hi
        is None); the values over scale, a multiple of self.scale, when
        given."""
        a = int(self.op.searchsorted(lo)) if lo else 0
        b = None if hi is None else int(self.op.searchsorted(hi))
        val = self.val[a:b]
        if scale and scale != self.scale:
            val = val * (scale // self.scale)
        return self.op[a:b], self.row[a:b], self.col[a:b], val

    def pick(self, ops: Sequence[int]) -> "OpTable":
        """The table of ops ops[0], ops[1], ... of self, distinct or -1 for
        a zero op: one mask of the entries, re-sorted by their new op only
        when ops is not increasing."""
        ops = np.asarray(ops, dtype=np.int64).reshape(-1)
        new = np.full(self.count, -1)
        on = ops >= 0
        new[ops[on]] = np.flatnonzero(on)
        k = new[self.op]
        e = np.flatnonzero(k >= 0)
        k = k[e]
        if len(k) and (k[1:] < k[:-1]).any():
            order = np.argsort(k, kind="stable")
            e, k = e[order], k[order]
        return OpTable(self.ctx, self.n, len(ops), k, self.row[e],
                       self.col[e], self.val[e], self.scale)

    def dense(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """The (hi - lo, n, n) integer array of J_lo, ..., J_{hi - 1}, of
        every J_k when hi is None."""
        hi = self.count if hi is None else hi
        op, row, col, val = self.entries(lo, hi)
        a = np.zeros((hi - lo, self.n, self.n), dtype=self.val.dtype)
        a[op - lo, row, col] = val
        return a

    def transposed(self, signs: Optional[np.ndarray] = None) -> "OpTable":
        """The table of the J_k^T, on the same scale; of the signs[k] J_k^T
        when signs (one per op) are given."""
        order = np.argsort((self.op * self.n + self.col) * self.n + self.row)
        op, val = self.op[order], self.val[order]
        if signs is not None:
            val = self.ctx.reduce(val * signs[op])
        return OpTable(self.ctx, self.n, self.count, op, self.col[order],
                       self.row[order], val, self.scale)

    def images(self, rows: np.ndarray) -> np.ndarray:
        """The (r count, n) integer array whose row b count + k is J_k v_b
        (over scale), for the (r, n) integer rows v_b; DimensionMismatch
        for rows of another width.  The terms v_b[col] val of each (op, row),
        one run of the sort, are summed by one np.add.reduceat and reduced
        once; over F_p a run has at most n terms below (p - 1)^2, reduced
        first if that could pass 2^63.  The runs, found on first use, are
        kept with the table."""
        if rows.shape[1:] != (self.n,):
            raise DimensionMismatch(f"rows {rows.shape} on ctx^{self.n}")
        if self._runs is None:
            key = self.op * self.n + self.row
            first = np.flatnonzero(run_starts(key))
            self._runs = first, key[first]
        (first, at), p = self._runs, self.ctx.p
        terms = rows[:, self.col] * self.val
        if terms.dtype == np.int64 and self.n * (p - 1) ** 2 >= 2**63:
            terms %= p
        out = np.zeros((len(rows), self.count * self.n), dtype=self.val.dtype)
        out[:, at] = self.ctx.reduce(np.add.reduceat(terms, first, axis=1))
        return out.reshape(len(rows) * self.count, self.n)

    def matrices(self, lo: int = 0,
                 hi: Optional[int] = None) -> List["Matrix"]:
        """J_lo / scale, ..., J_{hi - 1} / scale as Matrices, every J_k
        when hi is None."""
        return [Matrix.from_int(self.ctx, j, self.scale, reduced=True)
                for j in self.dense(lo, hi)]

    def __eq__(self, other):
        return (isinstance(other, OpTable) and (
            self.ctx, self.n, self.count, self.scale) == (
            other.ctx, other.n, other.count, other.scale) and all(
            np.array_equal(getattr(self, a), getattr(other, a))
            for a in ("op", "row", "col", "val")))


def _int_form(ctx: FieldCtx, ints: np.ndarray, s: int) -> Tuple[np.ndarray, int]:
    """The canonical integer form (see Matrix) of ints / s: over F_p its
    residues, reduced once, and scale 1; over Q Python ints and a scale
    s > 0, with the gcd of s and every entry divided out."""
    if ctx.p:
        return from_int(ctx, ints, s), 1
    if ints.dtype != object:
        ints = ints.astype(object)
    if s < 0:
        ints, s = -ints, -s
    g = gcd(s, *ints.flat) if s != 1 else 1
    return (ints // g, s // g) if g != 1 else (ints, s)


def _array_form(ctx: FieldCtx, a: np.ndarray) -> Tuple[np.ndarray, int]:
    """The canonical integer form of an exact array: an integer dtype, or
    objects that FieldCtx.of takes (ints, Fractions).  An array of integers
    is read as it is.  Float, complex and bool arrays or entries raise
    InexactScalar, as FieldCtx.of does."""
    if a.dtype.kind == "O":
        types = set(map(type, a.flat))
        if not types <= {int}:
            if ctx.p or not types <= {Fraction}:
                a = np.array([ctx.of(x) for x in a.flat],
                             dtype=ctx.dtype).reshape(a.shape)
            return (a, 1) if ctx.p else int_scaled(a)
    elif a.dtype.kind not in "iu":
        raise InexactScalar(f"not an exact array: dtype {a.dtype}")
    return _int_form(ctx, a, 1)


class Matrix:
    """Immutable dense matrix over a FieldCtx, held in one canonical integer
    form: the matrix is ints / scale.  Over F_p, ints are the canonical
    residues in FieldCtx.dtype (int64 for p < 2^25, Python ints above) and
    scale is 1.  Over Q, ints are Python ints and scale > 0 is their least
    common denominator: no prime divides scale and every entry, so the
    pair is unique.  Equality and hash compare that form.

    data is the field array: the residues themselves over F_p, Fractions
    over Q, made on first use for serialization, output and callers that
    want field elements."""

    __slots__ = ("ctx", "shape", "ints", "scale", "_data")

    def __init__(self, ctx: FieldCtx, data: np.ndarray):
        """The matrix of an exact array (see _array_form), converted to the
        integer form once."""
        if data.ndim != 2:
            raise DimensionMismatch(f"expected 2d array, got shape {data.shape}")
        self._hold(ctx, *_array_form(ctx, data))

    def _hold(self, ctx: FieldCtx, ints: np.ndarray, scale: int):
        ints.setflags(write=False)
        self.ctx, self.shape, self.ints, self.scale = ctx, ints.shape, ints, scale
        self._data = ints if ctx.p else None

    @classmethod
    def _canonical(cls, ctx: FieldCtx, ints: np.ndarray,
                   scale: int = 1) -> "Matrix":
        """A Matrix on an integer form already canonical, neither checked
        nor reduced: row reduction's output, or a transpose."""
        m = cls.__new__(cls)
        m._hold(ctx, ints, scale)
        return m

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_int(cls, ctx: FieldCtx, ints: np.ndarray, scale: int = 1,
                 reduced: bool = False) -> "Matrix":
        """The matrix ints / scale for an integer array and a nonzero
        integer scale: reduced once over F_p, the gcd divided out over Q.
        reduced says that over F_p ints are canonical residues already and
        scale is 1, as exact_matmul and int_matmul return them."""
        if ints.ndim != 2:
            raise DimensionMismatch(f"expected 2d array, got shape {ints.shape}")
        if reduced and ctx.p:
            return cls._canonical(ctx, ints)
        return cls._canonical(ctx, *_int_form(ctx, ints, scale))

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows: Sequence[Sequence]) -> "Matrix":
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        a = ctx.zeros(n_rows, n_cols)
        for i, row in enumerate(rows):
            if len(row) != n_cols:
                raise DimensionMismatch("ragged rows")
            for j, x in enumerate(row):
                a[i, j] = ctx.of(x)
        return cls(ctx, a)

    def to_rows(self) -> List[List[str]]:
        """The entries as strings, row by row: the JSON form from_rows
        reads back."""
        return [[self.ctx.scalar_to_str(x) for x in row]
                for row in self.data.tolist()]

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "Matrix":
        return cls.from_int(ctx, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Matrix":
        return cls.from_int(ctx, np.eye(n, dtype=np.int64))

    @property
    def data(self) -> np.ndarray:
        """The canonical field array."""
        if self._data is None:
            self._data = from_int(self.ctx, self.ints, self.scale)
            self._data.setflags(write=False)
        return self._data

    # -- shape ---------------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def _check_ctx(self, other: "Matrix"):
        if self.ctx != other.ctx:
            raise DimensionMismatch("field mismatch")

    # -- arithmetic on the integer forms ------------------------------------
    def _combine(self, other: "Matrix", sign: int, op: str) -> "Matrix":
        self._check_ctx(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch in {op}")
        (a, b), s = int_family(self.ctx, [self, other])
        return Matrix.from_int(self.ctx, a + sign * b, s)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1, "add")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1, "sub")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_ctx(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return Matrix.from_int(self.ctx,
                               int_matmul(self.ctx, self.ints, other.ints),
                               self.scale * other.scale, reduced=True)

    def transpose(self) -> "Matrix":
        return Matrix._canonical(self.ctx, self.ints.T.copy(), self.scale)

    def mv(self, v: np.ndarray) -> np.ndarray:
        """Apply to a column vector, a 1d exact array (see _array_form)."""
        if v.shape[0] != self.cols:
            raise DimensionMismatch("vector length mismatch")
        ints, t = _array_form(self.ctx, v.reshape(-1, 1))
        return from_int(self.ctx, int_matmul(self.ctx, self.ints, ints)[:, 0],
                        self.scale * t)

    def is_zero(self) -> bool:
        return not np.any(self.ints)

    def is_identity(self) -> bool:
        return (self.rows == self.cols and self.scale == 1
                and np.array_equal(self.ints, np.eye(self.rows, dtype=int)))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ctx == other.ctx
            and self.shape == other.shape
            and self.scale == other.scale
            and np.array_equal(self.ints, other.ints)
        )

    def __hash__(self):
        ints = self.ints
        return hash((self.ctx, self.shape, self.scale, ints.tobytes()
                     if ints.dtype != object else tuple(ints.flat)))

    def __repr__(self):
        return f"Matrix({self.ctx}, {self.data.tolist()})"


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

def _rref_array(ctx: FieldCtx,
                a: np.ndarray) -> Tuple[np.ndarray, int, int, List[int]]:
    """(R, s, rank, pivot columns) with R / s the RREF of an integer array
    in canonical form (see Matrix).  On int64 arrays over F_p the
    single-entry rows are peeled first (see the module docstring) and only
    the rows left are pivoted, on the columns where they are nonzero.
    Those rows are zero on the unit columns and the unit rows zero off
    them, so both merged by pivot are the RREF."""
    if not ctx.p or a.dtype != np.int64 or min(a.shape) < 3:
        # on Python ints each extra zero test is a Python call, which costs
        # more than the peel saves.  A matrix with fewer than three rows or
        # columns has at most two pivots, which the loop takes in less than
        # the peel's fixed cost (5-25 us against 40-70 us on a 2-vCPU
        # host); hom solves make many such systems
        return _pivot_rref(ctx, a.copy())
    nz = a != 0
    unit = np.zeros(a.shape[1], dtype=bool)
    while True:
        count = nz.sum(axis=1)
        cols = nz[count == 1].any(axis=0)
        if not cols.any():
            break
        nz[:, cols] = False
        unit |= cols
    if not unit.any():
        return _pivot_rref(ctx, a.copy())
    rows = np.flatnonzero(count)
    keep = np.flatnonzero(nz[rows].any(axis=0))
    rest, _, rk, rest_pivots = _pivot_rref(ctx, a[rows][:, keep])
    unit_cols = np.flatnonzero(unit)
    pivots = np.concatenate([unit_cols, keep[rest_pivots]])
    rank, order = len(pivots), np.argsort(pivots, kind="stable")
    out = np.zeros_like(a)
    out[np.arange(len(unit_cols)), unit_cols] = 1
    out[len(unit_cols):rank, keep] = rest[:rk]
    out[:rank] = out[order]
    return out, 1, rank, pivots[order].tolist()


def _pivot_rref(ctx: FieldCtx,
                a: np.ndarray) -> Tuple[np.ndarray, int, int, List[int]]:
    """Gauss-Jordan elimination in place on an integer array, on the
    leftmost nonzero pivot, as _rref_array returns it.  Over F_p the pivot
    row is scaled to 1.  Over Q, fraction-free (_fraction_free_rref)."""
    if not ctx.p:
        return _fraction_free_rref(ctx, a)
    n_rows, n_cols = a.shape
    # np.nonzero tests each entry of an object array twice; a cast to bool
    # tests it once
    obj = a.dtype == object
    pivots: List[int] = []
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
            # the rank-1 update touches only the rows with a nonzero factor
            # and the pivot row's support: the systems in play are sparse
            cols_nz = np.nonzero(a[r].astype(bool) if obj else a[r])[0]
            ix = np.ix_(rows_nz, cols_nz)
            a[ix] = ctx.reduce(
                a[ix] - np.outer(factors[rows_nz], a[r][cols_nz]))
        pivots.append(c)
        r += 1
    return a, 1, r, pivots


def _fraction_free_rref(ctx: FieldCtx, a: np.ndarray
                        ) -> Tuple[np.ndarray, int, int, List[int]]:
    """_pivot_rref over Q, in place on Python ints: a row with entry f in
    the pivot column becomes p row - f (pivot row), p the pivot, divided
    by its content, and the pivots are divided out at the end.  A column
    is tested with any and argmax on its nonzero mask, so only a pivot
    makes an index array, of the rows it changes.  (A mask of the whole
    array kept up to date across pivots measured slower, on the small hom
    systems and on sl(6|5)'s centre alike.)"""
    n_rows, n_cols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        col = a[r:, c].astype(bool)
        if not col.any():
            continue
        i = r + int(col.argmax())
        if i != r:
            a[[r, i]] = a[[i, r]]
        factors = a[:, c].astype(bool)
        factors[r] = False
        rows = np.flatnonzero(factors)
        if len(rows):
            b = a[rows] * a[r, c] - np.outer(a[rows, c], a[r])
            g = np.gcd.reduce(b, axis=1)
            a[rows] = b // np.where(g == 0, 1, g)[:, None]
        pivots.append(c)
        r += 1
    if not r:
        return a, 1, r, pivots
    # row i is p_i times RREF row i; times s / p_i, for s the lcm of the
    # p_i, it is s times RREF row i
    piv = a[np.arange(r), pivots]
    s = lcm(*piv)
    a[:r] *= (s // piv)[:, None]
    return (*_int_form(ctx, a, s), r, pivots)


def rref(m: Matrix) -> Tuple[Matrix, int, List[int]]:
    """Unique reduced row echelon form, with rank and pivot columns."""
    a, s, rank, pivots = _rref_array(m.ctx, m.ints)
    return Matrix._canonical(m.ctx, a, s), rank, pivots


def rank(m: Matrix) -> int:
    return _rref_array(m.ctx, m.ints)[2]


def solve(a: Matrix, b: np.ndarray) -> Optional[np.ndarray]:
    """One solution of a.x = b, or None if inconsistent."""
    if a.rows != b.shape[0]:
        raise DimensionMismatch("rhs length mismatch")
    ctx = a.ctx
    # [A / s | v / t] has the row space of [t A | s v]
    v, t = _array_form(ctx, b.reshape(-1, 1))
    r, s, rk, pivots = _rref_array(
        ctx, np.concatenate([a.ints * t, v * a.scale], axis=1))
    if pivots and pivots[-1] == a.cols:
        return None
    x = np.zeros(a.cols, dtype=r.dtype)
    x[pivots] = r[:rk, -1]
    return from_int(ctx, x, s)


def _int_residual(ctx: FieldCtx, v: np.ndarray, pivots: List[int],
                  b: np.ndarray, s: int) -> np.ndarray:
    """s v - v[:, pivots] b for integer arrays, where b / s is in reduced
    echelon form on the pivots: over s t, its rows are the residuals of
    the rows of v / t against the row space of b, zero at the pivots and
    zero iff the row lies in that space.  Over F_p s is 1."""
    prod = int_matmul(ctx, v[:, pivots], b)
    return ctx.reduce(v - prod) if ctx.p else v * s - prod


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of ctx^n held as a canonical RREF basis (no zero rows).

    Every method works on the integer form of the basis; the arrays it
    takes are exact arrays (see _array_form), integer arrays included."""

    __slots__ = ("ctx", "ambient_dim", "basis", "_pivots")

    def __init__(self, ctx: FieldCtx, ambient_dim: int, basis: Matrix,
                 pivots: List[int]):
        self.ctx = ctx
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivots = pivots

    @classmethod
    def from_vectors(cls, ctx: FieldCtx, ambient_dim: int,
                     vectors: Iterable[np.ndarray]) -> "Subspace":
        """The span of the rows of a 2-D array or of an iterable of 1-D
        arrays, canonicalised as one array."""
        a = vectors if isinstance(vectors, np.ndarray) else list(vectors)
        if not len(a):
            return cls.zero(ctx, ambient_dim)
        ints, _ = _array_form(ctx, np.asarray(a))
        if ints.shape[1] != ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch")
        return cls._span(ctx, ambient_dim, ints)

    @classmethod
    def _span(cls, ctx: FieldCtx, ambient_dim: int,
              ints: np.ndarray) -> "Subspace":
        """The span of the rows of an integer array in canonical form."""
        r, s, rk, pivots = _rref_array(ctx, ints)
        return cls(ctx, ambient_dim, Matrix._canonical(ctx, r[:rk], s), pivots)

    @classmethod
    def zero(cls, ctx: FieldCtx, ambient_dim: int) -> "Subspace":
        return cls(ctx, ambient_dim, Matrix.zeros(ctx, 0, ambient_dim), [])

    @classmethod
    def full(cls, ctx: FieldCtx, ambient_dim: int) -> "Subspace":
        return cls(ctx, ambient_dim, Matrix.identity(ctx, ambient_dim),
                   list(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def pivots(self) -> List[int]:
        return list(self._pivots)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ctx, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    # -- membership -----------------------------------------------------------
    def _int_rows(self, vs: np.ndarray) -> Tuple[np.ndarray, int]:
        """The integer form of the rows of the 2-D array vs."""
        if vs.ndim != 2 or vs.shape[1] != self.ambient_dim:
            raise DimensionMismatch(
                f"rows of shape {vs.shape} in ambient dimension "
                f"{self.ambient_dim}")
        return _array_form(self.ctx, vs)

    def _residual(self, v: np.ndarray) -> np.ndarray:
        """_int_residual of the integer rows v against the basis."""
        return _int_residual(self.ctx, v, self._pivots, self.basis.ints,
                             self.basis.scale)

    def residuals(self, vs: np.ndarray) -> np.ndarray:
        """The residual of each row v of the 2-D array vs, as a field
        array: v minus its pivot coordinates times the basis, zero at the
        pivots, and zero iff v lies in the space.  One product on the
        integer forms; rows of the wrong width raise DimensionMismatch."""
        v, t = self._int_rows(vs)
        res = self._residual(v)
        return res if self.ctx.p else from_int(self.ctx, res,
                                               self.basis.scale * t)

    def contains(self, v: np.ndarray) -> bool:
        return not self.residuals(np.asarray(v)[None, :]).any()

    def leq(self, other: "Subspace") -> bool:
        self._check(other)
        return not other._residual(self.basis.ints).any()

    def _check(self, other: "Subspace"):
        if self.ctx != other.ctx or self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspace ambient mismatch")

    # -- lattice --------------------------------------------------------------
    def extended(self, vs: np.ndarray) -> Tuple["Subspace", np.ndarray]:
        """(the span of self and the rows of vs, the integer rows C it adds
        to the basis, up to scale)."""
        return self._extend(self._int_rows(vs)[0])

    def _extend(self, v: np.ndarray) -> Tuple["Subspace", np.ndarray]:
        """extended for integer rows v.  Only the nonzero residuals of v are
        row-reduced; their RREF C / u is zero at self's pivots, so clearing
        C's pivot columns from self's rows B / s with one product, as
        (u B - B[:, new] C) / (s u), and merging the rows by pivot gives
        the RREF of the sum."""
        ctx = self.ctx
        res = self._residual(v)
        res = res[res.astype(bool).any(axis=1)]
        if not res.shape[0]:
            return self, res
        c, u, rk, new = _rref_array(ctx, res)
        c = c[:rk]
        b, s = self.basis.ints, self.basis.scale
        prod = int_matmul(ctx, b[:, new], c)
        pivots = self._pivots + new
        order = np.argsort(pivots, kind="stable")
        if ctx.p:
            basis = Matrix._canonical(
                ctx, np.concatenate([ctx.reduce(b - prod), c])[order])
        else:
            basis = Matrix.from_int(
                ctx, np.concatenate([b * u - prod, c * s])[order], s * u)
        w = Subspace(ctx, self.ambient_dim, basis, [pivots[i] for i in order])
        return w, c

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return self._extend(other.basis.ints)[0]

    def where_zero(self, images: np.ndarray) -> "Subspace":
        """{x.B : x.images = 0} for the basis B, where row i of images is a
        linear image of basis row i.  With K the RREF of those x, K.B is
        already in reduced echelon form, on the pivots of B that K picks."""
        ctx = self.ctx
        ker = kernel(Matrix(ctx, images.T))
        if ker.dim == self.dim:
            return self
        return Subspace(ctx, self.ambient_dim, Matrix.from_int(
            ctx, int_matmul(ctx, ker.basis.ints, self.basis.ints),
            ker.basis.scale * self.basis.scale, reduced=True),
            [self._pivots[k] for k in ker.pivots])

    def embedded(self, coords: Sequence[int],
                 ambient_dim: int) -> "Subspace":
        """The image in ctx^ambient_dim under e_c -> e_coords[c], for
        increasing coords: the zero-padded basis stays in reduced echelon
        form, on the pivots coords picks."""
        ints = self.basis.ints
        basis = np.zeros((self.dim, ambient_dim), dtype=ints.dtype)
        basis[:, coords] = ints
        return Subspace(self.ctx, ambient_dim,
                        Matrix._canonical(self.ctx, basis, self.basis.scale),
                        [int(coords[c]) for c in self._pivots])

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        # x.B lies in other iff its residual x.residuals(B) vanishes
        return self.where_zero(other._residual(self.basis.ints))


def kernel(m: Matrix) -> Subspace:
    """{v : m.v = 0} as a canonical Subspace of ctx^cols: with the RREF
    R / s, the vector of free column f is s e_f - R[:, f] on the pivots."""
    ctx = m.ctx
    r, s, rk, pivots = _rref_array(ctx, m.ints)
    pivot = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot]
    # only the free columns of the echelon rows are read: the full reduced
    # matrix (n^2 x n for a centre) is released before the basis is built
    tail = r[:rk, free]
    del r
    basis = np.zeros((len(free), m.cols), dtype=tail.dtype)
    basis[range(len(free)), free] = s
    basis[:, pivots] = ctx.reduce(-tail.T)
    return Subspace._span(ctx, m.cols, basis)


# ---------------------------------------------------------------------------
# spinning
# ---------------------------------------------------------------------------

def invariant_closure(ctx: FieldCtx, ambient_dim: int,
                      seeds: Sequence[np.ndarray], ops: OpTable) -> Subspace:
    """Smallest subspace containing the seeds and invariant under every
    operator of the table ops: the fixed point of W -> W + sum(op(W)).
    Only the images of the rows added last round can enlarge the span, so
    each round extends the basis by the residuals of those images, all
    from one OpTable.images call (each image up to a scale, which changes
    no span)."""
    if ops.n != ambient_dim:
        raise DimensionMismatch(f"operators on ctx^{ops.n} in {ambient_dim}")
    w = Subspace.from_vectors(ctx, ambient_dim, seeds)
    frontier = w.basis.ints
    while 0 < w.dim < ambient_dim and frontier.shape[0]:
        w, frontier = w._extend(ops.images(frontier))
    return w


def largest_invariant_within(k: Subspace, ops: OpTable) -> Subspace:
    """Largest subspace W <= k with op(W) <= W for every operator of the
    table ops; iterates W <- {w in W : op(w) in W for all op} to a fixed
    point.  Row i of the images is the residual against W of every
    op(b_i), b_i basis row i, side by side."""
    if ops.n != k.ambient_dim:
        raise DimensionMismatch(f"operators on ctx^{ops.n} in {k.ambient_dim}")
    w = k
    while w.dim and ops.count:
        res = w._residual(ops.images(w.basis.ints))
        nxt = w.where_zero(res.reshape(w.dim, -1))
        if nxt.dim == w.dim:
            return w
        w = nxt
    return w


# ---------------------------------------------------------------------------
# expressing vectors in a (not necessarily echelon) spanning set
# ---------------------------------------------------------------------------

class SpanSolver:
    """Coordinates with respect to a fixed independent spanning set.

    With the rows B / t, the RREF of [B | t I] is [R | X] / s, where R / s
    is the RREF of the rows and X / s the coefficients of its rows in
    them.  Coordinates of any batch of vectors are then a pivot gather and
    two products on integers.
    """

    __slots__ = ("ctx", "span_dim", "ambient_dim", "_rref", "_transform",
                 "_scale", "_pivots")

    def __init__(self, ctx: FieldCtx, basis_rows: np.ndarray):
        self.ctx = ctx
        d, n = basis_rows.shape
        self.span_dim = d
        self.ambient_dim = n
        b, t = _array_form(ctx, basis_rows)
        eye = np.zeros((d, d), dtype=b.dtype)
        eye[range(d), range(d)] = t
        r, s, rk, pivots = _rref_array(ctx, np.concatenate([b, eye], axis=1))
        if rk != d or any(p >= n for p in pivots):
            raise DimensionMismatch("basis rows are linearly dependent")
        self._rref, self._transform, self._scale = r[:, :n], r[:, n:], s
        self._pivots = pivots

    def coords_rows(self, vs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(coefficients, in_span) for the rows of vs: where in_span[r] holds,
        row r of coefficients expresses vs[r] in the original basis rows.
        Rows not ambient_dim wide raise DimensionMismatch."""
        vs = np.asarray(vs)
        if vs.shape[1:] != (self.ambient_dim,):
            raise DimensionMismatch(f"rows of shape {vs.shape}")
        c, u, in_span = self.coords_int_rows(*_array_form(self.ctx, vs))
        return from_int(self.ctx, c, u), in_span

    def coords_int_rows(self, v: np.ndarray,
                        t: int) -> Tuple[np.ndarray, int, np.ndarray]:
        """(C, u, in_span): coords_rows of the rows of v / t, for an integer
        array v (canonical residues over F_p), with the coefficients C / u
        on integers (canonical residues and u = 1 over F_p).  With the RREF
        and transform R / s and X / s, the residual of v / t is
        (s v - v[:, pivots] R) / (s t) and the coefficients are
        v[:, pivots] X / (s t)."""
        ctx, s = self.ctx, self._scale
        residual = _int_residual(ctx, v, self._pivots, self._rref, s)
        in_span = ~residual.astype(bool).any(axis=1)
        coeffs = int_matmul(ctx, v[:, self._pivots], self._transform)
        return coeffs, s * t, in_span

    def coords(self, v: np.ndarray) -> Optional[np.ndarray]:
        """Coefficients of v in the original basis rows, or None."""
        c, in_span = self.coords_rows(np.asarray(v).reshape(1, -1))
        return c[0] if in_span[0] else None

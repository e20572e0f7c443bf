"""Finite-dimensional modules carrying both a Lie-algebra action and a group
action encoded by coefficient operators of one-parameter subgroups.

A polynomial one-parameter subgroup X(t) = sum_i t^i A_i is given by its
finite list of coefficient operators.  The composition identity
X(t)X(s) = X(t+s), expanded symbolically in two variables, is equivalent to
A_a A_b = C(a+b, a) A_{a+b} for all a, b (with A_k = 0 past the end), and is
checked exactly at construction.  Closure and equivariance under all the A_i
is then equivalent to closure/equivariance under X(t) for every t in the
algebraic closure, which turns all group-theoretic questions here into finite
linear algebra.

A family's operators, and a module's Lie action, are held once, at
construction, as one OpTable: the nonzero entries (op, row, col, value) of
their integer forms on one scale.  The checks, the tensor constructions
and the hom systems join those entries, and the spins and the induced
operators take the table itself (linalg.OpTable.images); the dense Matrix
views (ops, lie_action) are made on first use, for output and tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .fields import FieldCtx, InputError, SuperlieError, json_ints
from .linalg import (
    DimensionMismatch,
    Matrix,
    OpTable,
    SpanSolver,
    Subspace,
    _array_form,
    from_int,
    int_matmul,
    invariant_closure,
    join,
    kernel,
    keyed_rows,
    nonzero_sums,
)


class CompositionViolation(SuperlieError, ValueError):
    pass


class NotInvariant(SuperlieError, ValueError):
    def __init__(self, operator_name: str, msg: str = ""):
        super().__init__(f"subspace not invariant under {operator_name} {msg}")
        self.operator_name = operator_name


class LabelMismatch(SuperlieError, ValueError):
    pass


Ops = Union[Sequence[Matrix], OpTable]


class CoeffOperatorFamily:
    """One-parameter subgroup X(t) = sum_i t^i A_i; A_0 must be the
    identity.  root, when set, is the weight shift of each t-power.

    table holds A_0, ..., A_d (op k is A_k), trailing zero operators
    dropped; ops and op(k) are its dense views, made on first use.
    Construction checks the composition law with validate, so every
    instance is a valid family.  batch builds several families and checks
    them all with one validate call."""

    def __init__(self, label: str, ops: Ops,
                 root: Optional[Sequence[int]] = None):
        self._hold(label, ops, root)
        self.validate()

    def _hold(self, label: str, ops: Ops, root: Optional[Sequence[int]]):
        """Set the fields from Matrices or a table, trailing zero operators
        dropped.  Matrices of no one square shape make no table: validate
        reports them from _bad."""
        self.label, self._bad = label, None
        self.root = None if root is None else tuple(root)
        if not isinstance(ops, OpTable):
            ops = list(ops)
            while len(ops) > 1 and ops[-1].is_zero():
                ops.pop()
            n = ops[0].rows if ops else 0
            if not ops or any(op.shape != (n, n) for op in ops):
                self.table, self._bad = None, ops
                return
            ops = OpTable.of(ops[0].ctx, n, ops)
        last = int(ops.op[-1]) + 1 if len(ops.op) else 1
        self.table = ops.select(0, last) if last < ops.count else ops

    @classmethod
    def batch(cls, specs: Iterable[Tuple[str, Ops, Optional[Sequence[int]]]]
              ) -> List["CoeffOperatorFamily"]:
        """The families of the (label, ops, root) triples of specs, trimmed
        as the constructor does and checked by one validate call."""
        fams = []
        for spec in specs:
            f = cls.__new__(cls)
            f._hold(*spec)
            fams.append(f)
        if fams:
            fams[0].validate(*fams[1:])
        return fams

    @staticmethod
    def exp_ops(label: str, x: Matrix) -> List[Matrix]:
        """The operators of exp(t x) = sum_k t^k x^k / k! for a nilpotent
        operator x, as Ad(exp(t y)) = exp(t ad y) on a Lie algebra: A_0 = I
        and A_k = A_{k-1} x / k (J X over the scale s u k, on integer forms
        J / s and X / u) up to the first zero power.  Raises InputError,
        naming label, unless x is nilpotent and every nonzero x^k has k! a
        unit."""
        ctx, n, u = x.ctx, x.rows, x.scale
        if x.cols != n:
            raise DimensionMismatch("exp needs a square operator")
        ops = [Matrix.identity(ctx, n), x]
        for k in range(2, n + 2):
            prod = int_matmul(ctx, ops[-1].ints, x.ints)
            if not np.any(prod):
                break
            if k >= n:  # x^n = 0 for a nilpotent n x n operator
                raise InputError(f"{label}: x^{k} != 0, x is not nilpotent")
            if ctx.p and k % ctx.p == 0:
                raise InputError(f"{label}: x^{k} != 0 and {k}! is 0 mod "
                                 f"{ctx.p}")
            ops.append(Matrix.from_int(ctx, prod, ops[-1].scale * u * k))
        return ops

    @classmethod
    def exp(cls, label: str, x: Matrix,
            root: Optional[Sequence[int]] = None) -> "CoeffOperatorFamily":
        """The family exp(t x) of exp_ops."""
        return cls(label, cls.exp_ops(label, x), root)

    @property
    def ctx(self) -> FieldCtx:
        return self.table.ctx

    @property
    def dim(self) -> int:
        if self.table is None:
            return self._bad[0].rows if self._bad else 0
        return self.table.n

    @property
    def degree(self) -> int:
        return self.table.count - 1

    @cached_property
    def ops(self) -> Tuple[Matrix, ...]:
        """A_0, ..., A_d as Matrices: a dense view of the table."""
        return tuple(self.table.matrices())

    def op(self, k: int) -> Matrix:
        if not 0 <= k <= self.degree:
            raise IndexError(f"{self.label} has no op_{k}: degree "
                             f"{self.degree}")
        return self.ops[k]

    def __eq__(self, other):
        return (isinstance(other, CoeffOperatorFamily)
                and (self.label, self.root, self.table)
                == (other.label, other.root, other.table))

    def to_json_dict(self) -> dict:
        return {"label": self.label,
                "root": list(self.root) if self.root else None,
                "ops": [op.to_rows() for op in self.ops]}

    @classmethod
    def from_json_dicts(cls, ctx: FieldCtx,
                        ds: Iterable[dict]) -> List["CoeffOperatorFamily"]:
        """The families of to_json_dict's dicts, built by one batch."""
        return cls.batch((d["label"], [Matrix.from_rows(ctx, m)
                                       for m in d["ops"]],
                          None if d.get("root") is None
                          else json_ints(d["root"], "root"))
                         for d in ds)

    def _malformed(self, n: int) -> Optional[SuperlieError]:
        """The error of an empty family, an op_0 other than the identity or
        an op that is not n x n, in that order; None if there is none."""
        t, ops = self.table, self._bad
        if t is None and not ops:
            return CompositionViolation(f"{self.label}: empty family")
        if t is None:
            ident = ops[0].is_identity()
        else:  # op_0's entries are the diagonal, each the table's scale
            a = int(np.searchsorted(t.op, 1))
            ident = (a == t.n and (t.row[:a] == np.arange(a)).all()
                     and (t.col[:a] == t.row[:a]).all()
                     and (t.val[:a] == t.scale).all())
        if not ident:
            return CompositionViolation(f"{self.label}: op_0 is not the identity")
        for k, (r, c) in enumerate([op.shape for op in ops] if t is None
                                   else [(t.n, t.n)]):
            if (r, c) != (n, n):
                return DimensionMismatch(
                    f"{self.label}: op_{k} is {r}x{c}, not {n}x{n}")
        return None

    def validate(self, *others: "CoeffOperatorFamily"):
        """Check self and each family of others; the first one, in that
        order, that is empty, has an op_0 other than I, has an op that is
        not n x n for self's n (DimensionMismatch) or breaks the composition
        law raises, at its least failing (a, b).

        On the integer forms A_k = J_k / s (one s for all families, 1 over
        F_p) the law is J_a J_b = C(a+b, a) s J_{a+b}, which holds when a or
        b is 0.  Every other J_a J_b comes from one join of all families'
        table entries on (family, middle index), and C s J_{a+b} is added
        negated at each split a + b.  A key packs (family, a, b, row, col),
        so the least one left is the first failure."""
        fams = (self,) + others
        n, err = self.dim, None
        for i, f in enumerate(fams):
            err = f._malformed(n)
            if err:
                fams = fams[:i]
                break
        fams = [f for f in fams if f.degree]
        if fams:
            _check_composition(fams)
        if err:
            raise err


def _positive_entries(fams: Sequence[CoeffOperatorFamily], scale=None):
    """(family, k, row, col, value) of the entries of every op_k, k >= 1,
    of the families, the values over scale when given."""
    parts = [f.table.entries(1, scale) for f in fams]
    g = np.repeat(np.arange(len(fams)), [len(p[0]) for p in parts])
    return (g, *(np.concatenate(a) for a in zip(*parts)))


def _check_composition(fams: Sequence[CoeffOperatorFamily]):
    """validate's composition check, on n x n families of degree > 0."""
    ctx, n = fams[0].ctx, fams[0].dim
    top = max(f.degree for f in fams) + 1
    s = math.lcm(*(f.table.scale for f in fams))
    g, k, r, c, v = _positive_entries(fams, s)
    x, y = join(g * n + c, g * n + r)
    lhs_keys = (((g[x] * top + k[x]) * top + k[y]) * n + r[x]) * n + c[y]
    # entry e of J_k once for each split k = a + b with a, b >= 1
    splits = k - 1
    e = np.repeat(np.arange(len(k)), splits)
    first = np.repeat(np.cumsum(splits) - splits, splits)
    a = np.arange(len(e)) - first + 1
    rhs_keys = (((g[e] * top + a) * top + k[e] - a) * n + r[e]) * n + c[e]
    binom = ctx.reduce(np.array(
        [[math.comb(i, j) * s for j in range(top)] for i in range(top)],
        dtype=object)).astype(v.dtype)
    keys, _ = nonzero_sums(
        ctx, np.concatenate([lhs_keys, rhs_keys]),
        np.concatenate([ctx.reduce(v[x] * v[y]),
                        ctx.reduce(-binom[k[e], a] * v[e])]))
    if len(keys):
        i, ab = divmod(int(keys[0]) // (n * n), top * top)
        a, b = divmod(ab, top)
        f = fams[i]
        if a + b > f.degree:
            raise CompositionViolation(
                f"{f.label}: A_{a} A_{b} nonzero beyond degree {f.degree}")
        raise CompositionViolation(
            f"{f.label}: A_{a} A_{b} != C({a+b},{a}) A_{a+b}")


def _commutator_terms(t: OpTable):
    """(keys, terms) whose sums per key (i, j, row, col), i < j, are the
    entries of J_i J_j - J_j J_i for the ops of the table: every product
    from one join of its entries on the middle index."""
    d, n = t.count, t.n
    i, r, c, v = t.entries()
    x, y = join(c, r)
    off = i[x] != i[y]
    x, y = x[off], y[off]
    lo, hi = np.minimum(i[x], i[y]), np.maximum(i[x], i[y])
    prod = t.ctx.reduce(v[x] * v[y])
    # J_j J_i with i < j enters the commutator of (i, j) negated
    prod = np.where(i[x] < i[y], prod, -prod)
    return ((lo * d + hi) * n + r[x]) * n + c[y], prod


class GModule:
    """A module with aligned Lie-algebra generators and group families.

    lie_labels/lie_action list the acting even Lie elements (typically a full
    basis of the even algebra), held as the OpTable lie (lie_action is its
    dense view, made on first use); families are the group generators.
    brackets, when provided, are the acting algebra's structure constants
    in the same indexing, its OpTable bracket_table or a (d, d, d) exact
    array, so the representation property can be verified: held as
    bracket_table, which modules built from this one share.
    """

    def __init__(self, ctx: FieldCtx, labels: Sequence[str],
                 lie_labels: Sequence[str], lie_action: Ops,
                 families: Sequence[CoeffOperatorFamily],
                 weights: Optional[Sequence[Tuple[int, ...]]] = None,
                 brackets: Union[np.ndarray, OpTable, None] = None,
                 meta: Optional[dict] = None):
        self.ctx = ctx
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.lie_labels = tuple(lie_labels)
        self.families = tuple(families)
        self.weights = tuple(tuple(w) for w in weights) if weights else None
        held = isinstance(lie_action, OpTable)
        if isinstance(brackets, np.ndarray):
            if brackets.ndim != 3 or len(set(brackets.shape)) != 1:
                raise DimensionMismatch("brackets shape mismatch")
            brackets = OpTable.from_dense(ctx, *_array_form(ctx, brackets))
        self.bracket_table = brackets
        self.meta = dict(meta or {})
        if not held:
            if any(m.shape != (self.dim, self.dim) for m in lie_action):
                raise DimensionMismatch("lie action shape mismatch")
            lie_action = OpTable.of(ctx, self.dim, lie_action)
        self.lie = lie_action
        self.validate()

    def __repr__(self):
        return f"GModule(dim={self.dim}, {self.ctx}, {self.meta.get('name', '?')})"

    @property
    def brackets(self) -> Optional[np.ndarray]:
        """The structure constants as a (d, d, d) field array, for output."""
        b = self.bracket_table
        return None if b is None else from_int(self.ctx, b.dense(), b.scale)

    @cached_property
    def lie_action(self) -> Tuple[Matrix, ...]:
        """The Lie action as Matrices: a dense view of lie."""
        return tuple(self.lie.matrices())

    def all_operators(self) -> List[Matrix]:
        ops = list(self.lie_action)
        for f in self.families:
            ops.extend(f.ops[1:])
        return ops

    def table(self, lo: int = 0) -> OpTable:
        """The Lie action and then ops lo, lo + 1, ... of each family: with
        lo = 1, every operator a spin needs."""
        return OpTable.concat([self.lie] + [
            f.table.select(lo, f.table.count) for f in self.families])

    def family_by_label(self, label: str) -> CoeffOperatorFamily:
        for f in self.families:
            if f.label == label:
                return f
        raise LabelMismatch(f"no family labeled {label}")

    def validate(self):
        if self.lie.n != self.dim:
            raise DimensionMismatch("lie action shape mismatch")
        if self.lie.count != len(self.lie_labels):
            raise DimensionMismatch("lie label count mismatch")
        for f in self.families:
            if f.dim != self.dim:
                raise DimensionMismatch(f"family {f.label} shape mismatch")
        if self.bracket_table is not None:
            self._check_brackets()
        if self.weights is not None:
            self._check_weights()

    def _check_weights(self):
        """Each op_k of a family with a root maps weight w to w + k root,
        tested in one scan of every family's table entries: raise at the
        first family that breaks it, its first op_k, first entry (r, c) in
        row-major order; or DimensionMismatch at a root of the wrong length,
        after the families before it."""
        if (len(self.weights) != self.dim
                or len({len(wt) for wt in self.weights}) > 1):
            raise DimensionMismatch("weights need one tuple of one length "
                                    "per basis vector")
        w = np.array(self.weights).reshape(self.dim, -1)
        fams, err = [], None
        for f in self.families:
            if f.root is None:
                continue
            if len(f.root) != w.shape[1]:
                err = DimensionMismatch(f"family {f.label} root length mismatch")
                break
            # op_0 is the identity, which keeps every weight
            if f.degree:
                fams.append(f)
        if fams:
            g, k, r, c, _ = _positive_entries(fams)
            roots = np.array([f.root for f in fams]).reshape(len(fams), -1)
            bad = np.flatnonzero((w[c] + k[:, None] * roots[g] != w[r])
                                 .any(axis=1))
            if len(bad):
                b = bad[0]
                raise CompositionViolation(
                    f"{fams[g[b]].label}: op_{k[b]} breaks weights at "
                    f"({r[b]},{c[b]})")
        if err:
            raise err

    def _check_brackets(self):
        """[A_i, A_j] = sum_k brackets[i, j, k] A_k for every pair i < j.

        With A_i = J_i / s and brackets = K / t on integers, that is
        t (J_i J_j - J_j J_i) = s sum_k K_ijk J_k.  The commutators come
        from _commutator_terms, every right-hand side from one join of the
        entries of K and the J_k.  A key packs (i, j, row, col), so the
        least one left is the least failing (i, j)."""
        ctx, n, d = self.ctx, self.dim, self.lie.count
        b = self.bracket_table
        if (b.n, b.count) != (d, d):
            raise DimensionMismatch("brackets shape mismatch")
        if not d:
            return
        lhs_keys, prod = _commutator_terms(self.lie)
        i, r, c, v = self.lie.entries()
        bi, bj, bk, bv = b.entries()
        upper = bi < bj
        bi, bj, bk, bv = bi[upper], bj[upper], bk[upper], bv[upper]
        x, y = join(bk, i)
        keys, _ = nonzero_sums(
            ctx,
            np.concatenate([lhs_keys,
                            ((bi[x] * d + bj[x]) * n + r[y]) * n + c[y]]),
            np.concatenate([prod * b.scale,
                            ctx.reduce(-(bv[x] * v[y] * self.lie.scale))]))
        if len(keys):
            i, j = divmod(int(keys[0]) // (n * n), d)
            raise CompositionViolation(
                f"representation property fails on ({i},{j})")

    # -- serialization --------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "field": self.ctx.to_json_value(),
            "labels": list(self.labels),
            "weights": [list(w) for w in self.weights] if self.weights else None,
            "lie": [
                {"label": l, "matrix": m.to_rows()}
                for l, m in zip(self.lie_labels, self.lie_action)
            ],
            "families": [f.to_json_dict() for f in self.families],
            "meta": self.meta,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(), **kw)


def module_from_json_dict(d: dict) -> GModule:
    ctx = FieldCtx.from_json_value(d["field"])
    lie_labels = [e["label"] for e in d["lie"]]
    lie_action = [Matrix.from_rows(ctx, e["matrix"]) for e in d["lie"]]
    fams = CoeffOperatorFamily.from_json_dicts(ctx, d["families"])
    weights = d.get("weights")
    if weights is not None:
        weights = [json_ints(w, "weight") for w in weights]
    return GModule(ctx, d["labels"], lie_labels, lie_action, fams,
                   weights=weights, meta=d.get("meta", {}))


def module_from_json(s: str) -> GModule:
    return module_from_json_dict(json.loads(s))


# ---------------------------------------------------------------------------
# functorial constructions
# ---------------------------------------------------------------------------

def dual(m: GModule) -> GModule:
    """Dual module: x acts by -x^T; X(t) acts by (X(t)^{-1})^T = X(-t)^T,
    so the k-th coefficient operator is (-1)^k A_k^T: m's table transposed
    and signed.  The group element, so the root, is unchanged."""
    t, sizes = m.table().transposed(), [f.degree + 1 for f in m.families]
    signs = np.concatenate([np.full(m.lie.count, -1)] + [
        (-1) ** np.arange(k) for k in sizes])
    t = OpTable(m.ctx, t.n, t.count, t.op, t.row, t.col,
                m.ctx.reduce(t.val * signs[t.op]), t.scale)
    weights = [tuple(-x for x in w) for w in m.weights] if m.weights else None
    meta = dict(m.meta)
    meta["name"] = meta.get("name", "module") + "*"
    return _rebuilt(m, t, sizes, [l + "*" for l in m.labels], weights, meta)


def _kron_coeffs(t1: OpTable, t2: OpTable, groups: Sequence[Tuple],
                 fold=None) -> OpTable:
    """The table of T_0, T_1, ...: per group (ids1, ids2, ks), in order,
    one T_k for each k in ks, with T_k / scale the t^k coefficient of
    (sum_a t^a A_a) (x) (sum_b t^b B_b) for A_a op ids1[a] of t1 and B_b op
    ids2[b] of t2.  On their integer forms J and K, T_k = sum_{a+b=k}
    J_a (x) K_b, over the scale t1.scale t2.scale.

    Only the splits a + b = k asked for are formed, on table entries: one
    join pairs each split with the entries of its J_a, a second with those
    of its K_b.  The terms (over F_p products of residues, 8192 of which
    int64 holds) are summed per entry and reduced, and the keyed sums are
    the table.  Entry (r1, r2), (c1, c2) of J (x) K is at row r1 n2 + r2
    and column c1 n2 + c2, for t2 on ctx^n2.  fold = (size, rows, cols,
    signs) sends row r and column c to rows[r], cols[c] of a size x size
    operator instead, times signs[c]; -1 drops the term."""
    ctx, splits, o = t1.ctx, [], 0
    for ids1, ids2, ks in groups:
        for k in ks:
            for a in range(max(0, k - len(ids2) + 1),
                           min(k, len(ids1) - 1) + 1):
                splits.append((o, ids1[a], ids2[k - a]))
            o += 1
    so, s1, s2 = np.array(splits, dtype=np.int64).reshape(-1, 3).T
    i1, r1, c1, v1 = t1.entries()
    i2, r2, c2, v2 = t2.entries()
    x, e1 = join(s1, i1)
    y, e2 = join(s2[x], i2)
    x, e1 = x[y], e1[y]
    n2 = t2.n
    row, col, v = r1[e1] * n2 + r2[e2], c1[e1] * n2 + c2[e2], v1[e1] * v2[e2]
    out, size = so[x], t1.n * n2
    if fold:
        size, rows, cols, signs = fold
        row, col, v = rows[row], cols[col], v * signs[col]
        keep = (row >= 0) & (col >= 0)
        out, row, col, v = out[keep], row[keep], col[keep], v[keep]
    keys, sums = nonzero_sums(ctx, (out * size + row) * size + col, v)
    return OpTable.from_keys(ctx, size, o, keys, sums, t1.scale * t2.scale)


def _on_pairs(m1: GModule, m2: GModule, pairs: Sequence[Tuple[int, int]],
              sep: str, name: str, fold=None) -> GModule:
    """The module on the basis vectors e_i sep e_j, (i, j) in pairs, of
    weight w_i + w_j, with labels and roots of m1.  Its operators are the
    coefficients _kron_coeffs makes (with fold) of the Leibniz action
    a (x) 1 + 1 (x) b of each Lie element, the t^1 coefficient of
    (1 + t a) (x) (1 + t b), and of every t-power of X(t) (x) X(t), for each
    family X of m1 and the family of m2 with the same label.  Each side's
    ops are the identity, the Lie action and every family's, in one table."""
    if m1.ctx != m2.ctx or m1.lie_labels != m2.lie_labels:
        raise LabelMismatch("tensor factors must share field and Lie labels")
    if {f.label for f in m1.families} != {f.label for f in m2.families}:
        raise LabelMismatch("modules carry different family labels")
    ctx, nl = m1.ctx, m1.lie.count
    sides = [OpTable.concat([OpTable.from_dense(ctx, np.eye(
        m.dim, dtype=np.int64)[None]), m.table()]) for m in (m1, m2)]
    # the op of A_0 of each family in its side's table
    start = {id(f): o for m in (m1, m2) for f, o in zip(m.families, np.cumsum(
        [1 + nl] + [f.degree + 1 for f in m.families]).tolist())}
    groups = [([0, 1 + i], [0, 1 + i], [1]) for i in range(nl)]
    for f1 in m1.families:
        f2 = m2.family_by_label(f1.label)
        o1, o2 = start[id(f1)], start[id(f2)]
        groups.append((range(o1, o1 + f1.degree + 1),
                       range(o2, o2 + f2.degree + 1),
                       range(f1.degree + f2.degree + 1)))
    weights = None
    if m1.weights and m2.weights:
        weights = [tuple(x + y for x, y in zip(m1.weights[i], m2.weights[j]))
                   for i, j in pairs]
    labels = [f"{m1.labels[i]}{sep}{m2.labels[j]}" for i, j in pairs]
    return _rebuilt(m1, _kron_coeffs(*sides, groups, fold),
                    [len(ks) for _, _, ks in groups[nl:]], labels, weights,
                    {"name": name})


def _rebuilt(m: GModule, table: OpTable, sizes: Sequence[int],
             labels: Sequence[str], weights: Optional[Sequence],
             meta: dict) -> GModule:
    """The module on labels with m's Lie labels, family labels, roots and
    brackets whose Lie action and families are the consecutive ops of
    table, sizes[i] of them for family i."""
    bounds = np.cumsum([0, m.lie.count, *sizes]).tolist()
    lie, *parts = (table.select(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
    fams = CoeffOperatorFamily.batch(
        (f.label, t, f.root) for f, t in zip(m.families, parts))
    return GModule(m.ctx, labels, m.lie_labels, lie, fams, weights=weights,
                   brackets=m.bracket_table, meta=meta)


def tensor(m1: GModule, m2: GModule) -> GModule:
    """Tensor product: Leibniz action for the Lie part; X(t) (x) X(t) for the
    families, coefficients gathered by t-power."""
    return _on_pairs(m1, m2, [(i, j) for i in range(m1.dim)
                              for j in range(m2.dim)], "(x)",
                     f"{m1.meta.get('name','?')}(x){m2.meta.get('name','?')}")


def square_layout(n: int, sign: int):
    """The basis of Sym^2 (sign +1, e_i e_j with i <= j) or Lambda^2 (sign
    -1, e_i ^ e_j with i < j) on n vectors as (pairs, pos, fold): the pairs
    in row-major order, the symmetric n x n matrix of their positions (-1
    off the basis), and the _kron_coeffs fold giving proj . T . iota for a
    tensor-square operator T.

    iota sends the (i, j) basis vector to e_i (x) e_j + sign e_j (x) e_i
    (e_i (x) e_i when i == j).  Every T commutes with the swap of factors,
    so T iota lands in the (anti)symmetric tensors, where proj reads
    coordinate (i, j).  So the fold keeps the entries of T in a row
    (r1, r2) that is a basis pair and folds column (c1, c2) onto the pair
    (min, max), times sign when c1 > c2: no tensor square is built."""
    pairs = [(i, j) for i in range(n) for j in range(i, n) if sign > 0 or i < j]
    pos = np.full((n, n), -1)
    for c, (i, j) in enumerate(pairs):
        pos[i, j] = pos[j, i] = c
    lower = np.arange(n)[:, None] > np.arange(n)
    return pairs, pos, (len(pairs), np.where(lower, -1, pos).ravel(),
                        pos.ravel(), np.where(lower, sign, 1).ravel())


def _squared(m: GModule, sign: int, name: str) -> GModule:
    pairs, _, fold = square_layout(m.dim, sign)
    return _on_pairs(m, m, pairs, "." if sign > 0 else "^",
                     f"{name}({m.meta.get('name','?')})", fold)


def sym2(m: GModule) -> GModule:
    return _squared(m, +1, "Sym2")


def lambda2(m: GModule) -> GModule:
    return _squared(m, -1, "L2")


def submodule_generated(m: GModule, seeds: Sequence[np.ndarray]) -> Subspace:
    """Smallest subspace containing the seeds and invariant under the Lie
    action and every coefficient operator."""
    return invariant_closure(m.ctx, m.dim, list(seeds), m.table(1))


def _induced(ctx: FieldCtx, names: Sequence[str], table: OpTable,
             w: Subspace, reps: Sequence[np.ndarray]) -> OpTable:
    """The table of the operators of table on span(w, reps)/w in the basis
    of the reps.

    Each image is expressed in the spanning set w's basis followed by the
    reps; the rep coordinates are the induced matrix column.  Raises
    NotInvariant(names[k]) for the first operator k that maps a vector of w
    out of w, or a rep out of span(w, reps).  The reps are exact arrays
    (see linalg._array_form).  The rows R are integer forms: w's basis
    rows and the reps, all the reps over one common scale, which changes
    no induced matrix.  Every image comes from one OpTable.images call,
    and every coordinate from one solve."""
    nw = w.dim
    if not nw + len(reps):
        return OpTable.empty(ctx, 0, table.count)
    rows = w.basis.ints
    if len(reps):
        rows = np.concatenate([rows, _array_form(ctx, np.asarray(reps))[0]])
    r = len(rows)
    coords, u, in_span = SpanSolver(ctx, rows).coords_int_rows(
        table.images(rows), table.scale)
    # coords[i, b] are the coordinates of the image of row b under op i
    coords = coords.reshape(r, table.count, r).swapaxes(0, 1)
    bad = ~in_span.reshape(r, table.count).all(axis=0) | coords[
        :, :nw, nw:].astype(bool).any(axis=(1, 2))
    if bad.any():
        raise NotInvariant(names[int(np.argmax(bad))])
    return OpTable.from_dense(ctx, coords[:, nw:, nw:].transpose(0, 2, 1), u)


def _subquotient(m: GModule, w: Subspace, reps: Sequence[np.ndarray],
                 labels: Sequence[str], weights: Optional[Sequence],
                 meta: dict) -> GModule:
    """The module span(w, reps)/w on the basis of the reps."""
    names = list(m.lie_labels) + [f"{f.label}[t^{k}]" for f in m.families
                                  for k in range(f.degree + 1)]
    return _rebuilt(m, _induced(m.ctx, names, m.table(), w, reps),
                    [f.degree + 1 for f in m.families], labels, weights, meta)


def quotient_module(m: GModule, w: Subspace,
                    labels: Optional[Sequence[str]] = None) -> GModule:
    """Quotient by an invariant subspace; basis = non-pivot coordinates."""
    pivots = set(w.pivots)
    keep = [i for i in range(m.dim) if i not in pivots]
    eye = np.eye(m.dim, dtype=np.int64)
    if labels is None:
        labels = [m.labels[i] + "~" for i in keep]
    weights = [m.weights[i] for i in keep] if m.weights else None
    meta = dict(m.meta)
    meta["name"] = meta.get("name", "module") + "/w"
    return _subquotient(m, w, eye[keep], labels, weights, meta)


def quotient_module_with_basis(m: GModule, w: Subspace,
                               reps: Sequence[np.ndarray],
                               labels: Sequence[str],
                               weights: Optional[Sequence] = None,
                               name: str = "quotient") -> GModule:
    """Quotient of span(w, reps) by the invariant subspace w, on the given
    representative basis.  Operators must preserve the span."""
    return _subquotient(m, w, reps, labels, weights, {"name": name})


def module_from_subspace(m: GModule, w: Subspace,
                         labels: Optional[Sequence[str]] = None,
                         name: str = "submodule") -> GModule:
    """Restriction of all operators to an invariant subspace."""
    if labels is None:
        labels = [f"w{i}" for i in range(w.dim)]
    return _subquotient(m, Subspace.zero(m.ctx, m.dim), w.basis.ints,
                        labels, None, {"name": name})


def trivial_quotient_defect(m: GModule) -> Subspace:
    """The smallest submodule W such that the group acts trivially on m/W:
    the closure of the images of all Lie operators and all positive-degree
    coefficient operators."""
    t = m.table(1)
    return invariant_closure(
        m.ctx, m.dim, t.images(np.eye(m.dim, dtype=m.ctx.dtype)), t)


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------

# (A, B): tables of as many ops on m1 and on m2, pair p being (A_p, B_p)
OpPairs = Tuple[OpTable, OpTable]
# ((a, s), (b, t)): rows a[k] / s and b[k] / t are the diagonals of pair k
Diagonals = Tuple[Tuple[np.ndarray, int], Tuple[np.ndarray, int]]


def _group_side(ctx: FieldCtx, n: int, fams: Sequence[CoeffOperatorFamily],
                tops: Sequence[int]) -> OpTable:
    """The table of A_1, ..., A_{top - 1} of each family on ctx^n, zero
    past its degree, in order."""
    return OpTable.concat([OpTable.empty(ctx, n)] + [
        f.table.select(1, top) for f, top in zip(fams, tops)])


def _constraint_pairs(m1: GModule, m2: GModule, mode: str
                      ) -> Tuple[Optional[OpPairs], Optional[OpPairs],
                                 Optional[OpPairs]]:
    """(algebra pairs, group pairs, degree-1 group pairs), each matched by
    op index; None for those a mode does not use.  The group pairs are the
    A_k of each family of m1 and of the family of m2 with its label, for
    k = 1..max of their degrees."""
    alg = grp = deg1 = None
    if mode in ("algebra", "both"):
        if m1.lie_labels != m2.lie_labels:
            raise LabelMismatch("modules act under different Lie labels")
        alg = (m1.lie, m2.lie)
    if mode in ("group", "both"):
        if {f.label for f in m1.families} != {f.label for f in m2.families}:
            raise LabelMismatch("modules carry different family labels")
        f2s = [m2.family_by_label(f.label) for f in m1.families]
        tops = [1 + max(f1.degree, f2.degree)
                for f1, f2 in zip(m1.families, f2s)]
        grp, deg1 = ((_group_side(m1.ctx, m1.dim, m1.families, ts),
                      _group_side(m2.ctx, m2.dim, f2s, ts))
                     for ts in (tops, [2] * len(f2s)))
    return alg, grp, deg1


def _implied_pairs(ctx: FieldCtx, deg1: OpPairs) -> Diagonals:
    """The diagonals of ([a, a'], [b, b']) for every two pairs (a, b),
    (a', b') of deg1 whose commutators are both diagonal: a map with
    b f = f a and b' f = f a' satisfies their constraint too, and only
    diagonal pairs shape the weight support.  Each side's commutators are
    its summed _commutator_terms, the table of op i d + j, i < j, over the
    scale s^2 of its ops."""
    d, sides = deg1[0].count, []
    for t in deg1:
        keys, sums = nonzero_sums(ctx, *_commutator_terms(t))
        sides.append(OpTable.from_keys(ctx, t.n, d * d, keys, sums,
                                       t.scale ** 2))
    i, j = np.divmod(np.arange(d * d), d)
    return _diagonals(sides, i < j)


def _diagonals(pairs: OpPairs, keep: Optional[np.ndarray] = None
               ) -> Diagonals:
    """The diagonals of the pairs (A_p, B_p), for p with keep[p] if given,
    whose two ops are both diagonal."""
    both = np.ones(pairs[0].count, dtype=bool) if keep is None \
        else keep.copy()
    sides = []
    for t in pairs:
        on = t.row == t.col
        both[t.op[~on]] = False
        diag = np.zeros((t.count, t.n), dtype=t.val.dtype)
        diag[t.op[on], t.row[on]] = t.val[on]
        sides.append((diag, t.scale))
    return tuple((diag[both], s) for diag, s in sides)


def _weight_mask(d1: int, d2: int,
                 diagonals: Sequence[Diagonals]) -> np.ndarray:
    """d2 x d1 mask of the entries of f that B f = f A allows to be nonzero.

    Each pair of diagonal operators forces (b_r - a_c) f_rc = 0, so
    f_rc = 0 unless b_r == a_c as field elements, that is unless
    b[k, r] s == a[k, c] t for the rows a[k] / s and b[k] / t of
    diagonals; other pairs allow everything."""
    mask = np.ones((d2, d1), dtype=bool)
    for (a, s), (b, t) in diagonals:
        mask &= (b[:, :, None] * s == a[:, None, :] * t).all(axis=0)
    return mask


def _intertwiner_space(ctx: FieldCtx, d1: int, d2: int,
                       op_pairs: Optional[OpPairs],
                       implied: Sequence[Diagonals] = ()) -> Subspace:
    """Solutions f (d2 x d1, flattened row-major) of B f = f A for all pairs.

    implied are diagonal pairs every solution satisfies anyway.  Only the
    entries f_rc in the weight support of both are unknowns.  Row (p, i, j)
    of the system is (B_p f - f A_p)[i, j]: entry B_p[i, r] enters it at
    unknown f_rj and entry A_p[c, j], negated, at f_ic.  One join of the
    entries of the table B with the unknowns' rows, one of A with their
    columns, and a sum per (pair, row, unknown) give every row: on the
    tables A = J_A / s and B = J_B / t, s t times those over the field,
    with the same solutions.  The nonzero rows, by (pair, row) and then
    sparsest first, are solved by one kernel."""
    n = d1 * d2
    diagonals = list(implied) + ([_diagonals(op_pairs)] if op_pairs else [])
    rs, cs = np.nonzero(_weight_mask(d1, d2, diagonals))
    u = len(rs)
    if op_pairs and op_pairs[0].count:
        a, b = op_pairs
        pa, ac, aj, av = a.entries()
        pb, bi, br, bv = b.entries()
        x, xu = join(br, rs)
        y, yu = join(ac, cs)
        keys, vals = nonzero_sums(ctx, np.concatenate([
            ((pb[x] * d2 + bi[x]) * d1 + cs[xu]) * u + xu,
            ((pa[y] * d2 + rs[yu]) * d1 + aj[y]) * u + yu]),
            np.concatenate([bv[x] * a.scale, -av[y] * b.scale]))
        row, unknown = np.divmod(keys, u)  # both empty when u == 0
        _, lmat = keyed_rows(row, unknown, vals, u)
        # sparsest rows first: the pivot loop takes the first nonzero row
        # of a column as its pivot, and a sparse pivot row fills in less
        lmat = lmat[np.argsort(lmat.astype(bool).sum(axis=1), kind="stable")]
        space = kernel(Matrix.from_int(ctx, lmat, reduced=True))
    else:
        space = Subspace.full(ctx, u)
    return space.embedded(rs * d1 + cs, n)


@dataclass
class HomReport:
    dim: int
    basis: List[Matrix]
    dim_algebra: Optional[int] = None
    dim_group: Optional[int] = None
    basis_algebra: Optional[List[Matrix]] = None
    basis_group: Optional[List[Matrix]] = None


def hom_space(m1: GModule, m2: GModule, mode: str = "group") -> HomReport:
    """Equivariant linear maps m1 -> m2.

    algebra mode: f a = b f over the Lie generators; group mode: the same per
    positive t-power of every family, matched by label (the label sets must
    agree); both computes both spaces.  Each solve is one kernel of the
    system _intertwiner_space joins from the tables, with unknowns only on
    the weight support: the entries f_rc that diagonal constraints (the
    Cartan elements of the Lie action, or diagonal commutators of the
    families' degree-1 operators) leave free."""
    if m1.ctx != m2.ctx:
        raise DimensionMismatch("field mismatch")
    ctx, d1, d2 = m1.ctx, m1.dim, m2.dim

    def solve_pairs(pairs, implied=()):
        space = _intertwiner_space(ctx, d1, d2, pairs, implied)
        s = space.basis.scale
        mats = [Matrix.from_int(ctx, v.reshape(d2, d1), s, reduced=True)
                for v in space.basis.ints]
        return space.dim, mats

    if mode not in ("algebra", "group", "both"):
        raise InputError(f"unknown mode {mode!r}")
    alg, grp, deg1 = _constraint_pairs(m1, m2, mode)
    if mode == "algebra":
        dim, basis = solve_pairs(alg)
        return HomReport(dim=dim, basis=basis, dim_algebra=dim,
                         basis_algebra=basis)
    implied = [_implied_pairs(ctx, deg1)]
    if mode == "group":
        dim, basis = solve_pairs(grp, implied)
        return HomReport(dim=dim, basis=basis, dim_group=dim,
                         basis_group=basis)
    da, ba = solve_pairs(alg)
    dg, bg = solve_pairs(grp, implied)
    return HomReport(dim=dg, basis=bg, dim_algebra=da, dim_group=dg,
                     basis_algebra=ba, basis_group=bg)


def socle_via_homs(m: GModule, irreducibles: Sequence[GModule]) -> Subspace:
    """Sum of the images of all group-mode intertwiners L -> m over the given
    (asserted irreducible) modules L."""
    total = Subspace.zero(m.ctx, m.dim)
    for irr in irreducibles:
        rep = hom_space(irr, m, mode="group")
        for f in rep.basis:
            total = total.extended(f.ints.T)[0]
    return total

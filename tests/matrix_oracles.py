"""Dense oracles for the matrix-built algebras, kept for the tests: the
library builds every matrix family from integer unit entries
(constructions._unit_algebra), and the tests check it against the dense
supermatrix builds here, which multiply the matrices and solve for each
bracket in their span."""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from superlie.fields import FieldCtx, InputError
from superlie.linalg import (
    Matrix,
    OpTable,
    SpanSolver,
    int_family,
    int_matmul,
    kernel,
    solve,
)
from superlie.superalgebra import LieSuperalgebra, algebra_from_consts


def _bracket_rows(ctx: FieldCtx, mats: np.ndarray,
                  parities: Sequence[int]
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(i, j, rows, t): index arrays of the pairs i <= j in row-major order,
    and the flattened supercommutators [M_i, M_j] of a (d, N, N) stack as
    the integer rows / t (linalg.int_family's form).  Every product
    M_i M_j is one block of a single (dN x N)(N x dN) product, taken on
    the int_family arrays of the M_i."""
    d, n, _ = mats.shape
    (ints,), s = int_family(ctx, [mats])
    prod = int_matmul(ctx, ints.reshape(d * n, n),
                      ints.transpose(1, 0, 2).reshape(n, d * n))
    prod = prod.reshape(d, n, d, n).transpose(0, 2, 1, 3)
    i, j = np.triu_indices(d)
    odd = np.asarray(parities, dtype=bool)
    xy, yx = prod[i, j], prod[j, i]
    br = np.where((odd[i] & odd[j])[:, None, None], xy + yx, xy - yx)
    return i, j, ctx.reduce(br.reshape(len(i), n * n)), s * s


def _bracket_consts(ctx: FieldCtx, mats: np.ndarray, parities: np.ndarray,
                    solver: SpanSolver, labels: Sequence[str]
                    ) -> Tuple[np.ndarray, int]:
    """The structure constants of the span of a (d, N, N) stack, as an
    integer array and its scale: every supercommutator from _bracket_rows,
    solved for with one batched SpanSolver call.  Raises InputError for the first pair (i <= j, in
    row-major order) whose bracket leaves the span.  Its own function, so
    that the rows and coordinates are freed before the algebra is
    completed and validated, where the build's memory peaks."""
    d = len(mats)
    i, j, rows, t = _bracket_rows(ctx, mats, parities)
    coords, u, in_span = solver.coords_int_rows(rows, t)
    if not in_span.all():
        r = int(np.argmin(in_span))
        raise InputError(f"bracket [{labels[i[r]]},{labels[j[r]]}] "
                         "leaves the span")
    consts = np.zeros((d, d, d), dtype=coords.dtype)
    consts[i, j] = coords
    return consts, u


def algebra_from_matrices(ctx: FieldCtx,
                          elems: Sequence[Tuple[str, int, np.ndarray]],
                          block_parities: Sequence[int],
                          meta: Optional[dict] = None) -> LieSuperalgebra:
    """Build a Lie superalgebra from explicit supermatrices.

    elems: (label, parity, square matrix) triples forming a basis of a
    subspace closed under the supercommutator.  block_parities gives the
    parity of each row/column index of the ambient matrix space.  Every
    bracket [x, y], x before or equal to y, is solved for in one batch; the
    first pair (in that order) whose bracket leaves the span is reported.
    """
    n_amb = len(block_parities)
    for label, _, m in elems:
        if np.shape(m) != (n_amb, n_amb):
            raise InputError(f"matrix for {label} has shape {np.shape(m)}")
    d = len(elems)
    mats: List[np.ndarray] = []
    solver = None
    consts, u = ctx.zeros(0, 0, 0), 1
    if d:
        stack = ctx.reduce(np.stack([np.asarray(m) for _, _, m in elems]))
        # entry (a, b) of a homogeneous element has parity bp[a] + bp[b]
        bp = np.asarray(block_parities)
        parities = np.array([parity for _, parity, _ in elems])
        bad = np.argwhere(stack.astype(bool) & (
            np.add.outer(bp, bp) % 2 != parities[:, None, None]))
        if len(bad):
            e, a, b = bad[0]
            raise InputError(f"entry ({a},{b}) of {elems[e][0]} violates "
                             f"declared parity {elems[e][1]}")
        mats = list(stack)
        solver = SpanSolver(ctx, stack.reshape(d, -1))
        consts, u = _bracket_consts(ctx, stack, parities, solver,
                                    [label for label, _, _ in elems])
    alg = algebra_from_consts(
        ctx, [(label, parity) for label, parity, _ in elems],
        OpTable.from_dense(ctx, consts, u), meta=meta)
    alg.matrix_basis = mats  # type: ignore[attr-defined]
    alg.matrix_solver = solver  # type: ignore[attr-defined]
    return alg


def solved_coords(alg: LieSuperalgebra, m: np.ndarray) -> Optional[np.ndarray]:
    """Coordinates of an ambient matrix in an algebra_from_matrices build,
    from its SpanSolver, or None outside the span."""
    return alg.matrix_solver.coords(  # type: ignore[attr-defined]
        alg.ctx.reduce(np.asarray(m)).reshape(-1))


def gram_algebra_basis(ctx: FieldCtx, g: np.ndarray) -> List[np.ndarray]:
    """Canonical basis of {X : X^t g + g X = 0}, from a kernel solve."""
    n = g.shape[0]
    cols = [ctx.reduce(e.T @ g + g @ e).reshape(-1)
            for e in ctx.eye(n * n).reshape(n * n, n, n)]
    constraint = Matrix(ctx, np.stack(cols, axis=1))
    ker = kernel(constraint)
    return [v.reshape(n, n).copy() for v in ker.basis.data]


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

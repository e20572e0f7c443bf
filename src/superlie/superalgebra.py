"""Lie superalgebras: graded basis, structure constants, validation,
and structural computations (ideals, center, derived series, quotients,
graded simplicity, proved by Norton's criterion or searched for).

Conventions.  A superalgebra of total dimension n lives on coordinates
0..n-1 in the given basis order; parities are per basis element.  The
bracket is one linalg.OpTable, bracket_table: the nonzero structure
constants (i, j, k, c), sorted, on one scale, with [e_i, e_j] =
sum_k c[i, j, k] e_k / scale for all ordered pairs (completion by
super-antisymmetry happens at build time, on the entries builders hand to
algebra_from_consts).  Every computation reads those entries; the field
array consts (Fractions over Q) is made only for output.  The sparse
table (i, j) -> {k: c} of JSON files and hand-written algebras is read
only by build_superalgebra.  A graded subspace (an ideal, the centre, a
subalgebra) is one Subspace of the full coordinate space: its reduced
echelon rows are homogeneous, and those with an even pivot span its even
part.

Op i of bracket_table, row j, column k holds c[i, j, k], so it is the
table of every ad(e_i)^T: Norton's spins and the ideal closures take its
transpose, ad_table, or it, and build no ad matrix.  The centre is solved
only on the coordinates of weight zero under the diagonal ad(h), where
every central element lies.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import FieldCtx, InputError, SuperlieError, json_ints
from .linalg import (
    DimensionMismatch,
    Matrix,
    OpTable,
    Subspace,
    _array_form,
    from_int,
    int_family,
    int_matmul,
    invariant_closure,
    join,
    kernel,
    keyed_rows,
    nonzero_sums,
    nonzeros,
    run_starts,
)

Table = Dict[Tuple[int, int], Dict[int, object]]

# homogeneous random vectors the last-resort ideal search closes
N_RANDOM = 64


class SkewViolation(SuperlieError, ValueError):
    def __init__(self, i, j, k, msg=""):
        super().__init__(f"super-antisymmetry fails at ({i},{j})->{k} {msg}")
        self.triple = (i, j, k)


class GradingViolation(SuperlieError, ValueError):
    def __init__(self, i, j, k):
        super().__init__(f"grading fails at ({i},{j})->{k}")
        self.triple = (i, j, k)


class JacobiViolation(SuperlieError, ValueError):
    def __init__(self, i, j, k, residual):
        super().__init__(f"graded Jacobi fails at triple ({i},{j},{k})")
        self.triple = (i, j, k)
        self.residual = residual


class NotAnIdeal(SuperlieError, ValueError):
    pass


class CenterNotInside(SuperlieError, ValueError):
    pass


class BracketIndexError(SuperlieError, IndexError):
    pass


@dataclass
class SuperIdeal:
    """A graded subspace of the full coordinate space, meant to be closed
    under bracketing with the whole algebra (verify checks that).  The
    constructor raises NotAnIdeal when the subspace is not graded."""

    parent: "LieSuperalgebra"
    space: Subspace

    def __post_init__(self):
        self.parent._row_parities(self.space)

    @property
    def dims(self) -> Tuple[int, int]:
        odd = sum(self.parent.parities[c] for c in self.space.pivots)
        return self.space.dim - odd, odd

    @property
    def dim(self) -> int:
        return self.space.dim

    def contains(self, v: np.ndarray) -> bool:
        return self.space.contains(v)

    def verify(self) -> bool:
        """Exact check: bracketing with every basis element stays inside.
        All brackets [e_j, w] of the basis rows (homogeneous) are their
        images under ad_table, tested in one batch."""
        w = self.space
        return not w._residual(self.parent.ad_table.images(
            w.basis.ints)).astype(bool).any()


@dataclass
class CubicReport:
    ok: bool
    # witness: (odd basis index, monomial exponent vector over odd coords,
    # coefficient) of a nonvanishing term of [[v,v],v]
    witness: Optional[Tuple[int, Tuple[int, ...], object]] = None
    # per odd basis element, its coefficient in [[v,v],v] as a polynomial:
    # {exponent vector over odd coords: nonzero canonical coefficient}.
    # The identity has prime-subfield coefficients, so coefficientwise
    # vanishing over F_p or Q certifies it over the algebraic closure
    coefficient_polys: Optional[List[Dict[Tuple[int, ...], object]]] = None


@dataclass
class JacobiReport:
    ok: bool
    violations: List[Tuple[int, int, int]] = field(default_factory=list)


@dataclass
class SimplicityVerdict:
    verdict: str  # GradedSimple | NotSimple | Abelian | Zero
    witness: Optional[SuperIdeal] = None
    certificate: Dict = field(default_factory=dict)

    @property
    def is_simple(self) -> bool:
        return self.verdict == "GradedSimple"


class LieSuperalgebra:
    """A Lie superalgebra on a graded basis, its structure constants the
    OpTable bracket_table (see the module docstring).  The constructor
    holds that table as given; algebra_from_consts and build_superalgebra
    complete and check it.

    A parity other than the int 0 or 1 (a bool, a NumPy integer, a string
    "1" included) raises InputError.  ad_table and the weight keys
    (_weight_keys) are found once, on first use, and kept: the constants
    cannot change."""

    def __init__(self, ctx: FieldCtx, labels: Sequence[str],
                 parities: Sequence[int], brackets: OpTable,
                 meta: Optional[dict] = None):
        self.ctx = ctx
        self.labels = tuple(labels)
        self.parities = _parities(parities)
        _check_dim(brackets, len(self.labels))
        self.bracket_table = brackets
        self.meta = dict(meta or {})
        self._keys: Optional[Tuple[List[int], List[Tuple]]] = None
        # the centre's subspace: a SuperIdeal held here would point back at
        # self and leave every algebra to the cyclic collector
        self._center: Optional[Subspace] = None
        self.even_coords = [i for i, p in enumerate(self.parities) if p == 0]
        self.odd_coords = [i for i, p in enumerate(self.parities) if p == 1]

    # -- shape ----------------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def dims(self) -> Tuple[int, int]:
        return len(self.even_coords), len(self.odd_coords)

    def __repr__(self):
        e, o = self.dims
        name = self.meta.get("name", "LieSuperalgebra")
        return f"{name}({self.ctx}, dims {e}|{o})"

    def _row_parities(self, w: Subspace) -> List[int]:
        """The parity of each basis row of a graded subspace, read off its
        pivot.  A subspace is graded iff no row of its reduced echelon basis
        mixes parities; otherwise this raises NotAnIdeal."""
        odd = np.asarray(self.parities, dtype=bool)
        nz = w.basis.ints.astype(bool)
        if ((nz & odd).any(axis=1) & (nz & ~odd).any(axis=1)).any():
            raise NotAnIdeal("subspace is not graded")
        return [self.parities[c] for c in w.pivots]

    # -- bracket ----------------------------------------------------------------
    @property
    def consts(self) -> np.ndarray:
        """The (n, n, n) field array, made on each call for output:
        consts[i, j, k] is the coefficient of e_k in [e_i, e_j]."""
        t = self.bracket_table
        return from_int(self.ctx, t.dense(), t.scale)

    def bracket_basis(self, i: int, j: int) -> Dict[int, object]:
        """[e_i, e_j] as {k: coefficient of e_k}, nonzero coefficients only."""
        t = self.bracket_table
        _, row, col, val = t.entries(i, i + 1)
        on = row == j
        return dict(zip(col[on].tolist(),
                        from_int(self.ctx, val[on], t.scale).tolist()))

    def _brackets(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """[x_a, y_b] for integer rows, as a (len(xs), len(ys), n) integer
        array over the three scales: the xs times the ad_table images."""
        n = self.dim
        imgs = self.ad_table.images(ys).reshape(len(ys), n, n)
        return int_matmul(self.ctx, xs, imgs.transpose(1, 0, 2).reshape(
            n, len(ys) * n)).reshape(len(xs), len(ys), n)

    def bracket_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[x, y] for exact vectors (see linalg._array_form)."""
        (x, y), t = int_family(self.ctx, [np.asarray(x)[None, :],
                                          np.asarray(y)[None, :]])
        return from_int(self.ctx, self._brackets(x, y)[0, 0],
                        self.bracket_table.scale * t * t)

    def ad(self, i: int) -> Matrix:
        """Matrix of ad(e_i): x -> [e_i, x]."""
        return self.ad_table.matrices(i, i + 1)[0]

    @cached_property
    def ad_table(self) -> OpTable:
        """The OpTable of every ad(e_i), made once: bracket_table is the
        table of every ad(e_i)^T."""
        return self.bracket_table.transposed()

    # -- validation ---------------------------------------------------------------
    def validate_jacobi(self, full: bool = False) -> JacobiReport:
        """Graded Jacobi on basis triples: J(i, j, k) = s_ik [[e_i,e_j],e_k]
        + s_ji [[e_j,e_k],e_i] + s_kj [[e_k,e_i],e_j] = 0, s_xy =
        (-1)^{|x||y|}.  The reduced scan over i<=j<=k is equivalent to all
        triples once super-antisymmetry holds (the Jacobi expression is
        alternating up to sign under permutations); full=True reports every
        failing triple anyway.  Violations are listed in lexicographic order.

        Each composition [[e_a,e_b],e_c]_l = sum_m [e_a,e_b]_m [e_m,e_c]_l
        comes from one join of the nonzero structure constants on the
        middle index m.  It is the first term of J(a,b,c), the second of
        J(c,a,b) and the third of J(b,c,a), each time with the sign s_ac;
        the terms are summed per (triple, l) by sorting packed keys.  Over
        F_p the values are residues, over Q integers over one common
        denominator."""
        n = self.dim
        ea, eb, ek, vals = self.bracket_table.entries()
        # join: entry x = ([e_a,e_b] -> e_m) meets every entry y with a = m
        x, y = join(ek, ea)
        a, b, c, l = ea[x], eb[x], eb[y], ek[y]
        odd = np.asarray(self.parities, dtype=bool)
        terms = self.ctx.reduce(vals[x] * vals[y])
        terms = np.where(odd[a] & odd[c], -terms, terms)
        keys, parts = [], []
        for i, j, k in ((a, b, c), (c, a, b), (b, c, a)):
            keep = slice(None) if full else (i <= j) & (j <= k)
            keys.append((((i * n + j) * n + k) * n + l)[keep])
            parts.append(terms[keep])
        triples = nonzero_sums(self.ctx, np.concatenate(keys),
                               np.concatenate(parts))[0] // n
        triples = triples[run_starts(triples)]
        violations = [(t // (n * n), t // n % n, t % n)
                      for t in triples.tolist()]
        return JacobiReport(ok=not violations, violations=violations)

    def validate(self):
        """Raise GradingViolation at the least (i, j, k) where a bracket
        breaks parity, then JacobiViolation at the first failing triple of
        validate_jacobi."""
        i, j, k, _ = self.bracket_table.entries()
        odd = np.asarray(self.parities, dtype=bool)
        bad = np.flatnonzero(odd[i] ^ odd[j] ^ odd[k])
        if len(bad):
            b = bad[0]
            raise GradingViolation(int(i[b]), int(j[b]), int(k[b]))
        report = self.validate_jacobi()
        if not report.ok:
            i, j, k = report.violations[0]
            raise JacobiViolation(i, j, k, None)

    def validate_cubic_odd(self, with_polys: bool = False) -> CubicReport:
        """Expand [[v, v], v] for a symbolic odd vector v = sum x_a e_a and
        check coefficientwise vanishing: every term c[a, b, m] c[m, c, l],
        a, b, c odd, from one join on m (as in validate_jacobi), summed per
        l and monomial (the sorted positions of a, b, c in odd_coords)."""
        ctx, odd = self.ctx, self.odd_coords
        arity, pos = len(odd), _positions(self.dim, odd)
        i, j, k, v = self.bracket_table.entries()
        x, y = join(k, i)
        abc = np.sort(pos[np.column_stack([i[x], j[x], j[y]])], axis=1)
        on = abc[:, 0] >= 0
        keys, sums = nonzero_sums(
            ctx, (k[y] * arity ** 3 + abc @ [arity ** 2, arity, 1])[on],
            ctx.reduce(v[x] * v[y])[on])
        cubic: Dict[int, Dict[Tuple[int, ...], object]] = {}
        for key, v in zip(keys.tolist(), from_int(
                ctx, sums, self.bracket_table.scale ** 2).tolist()):
            l, rest = divmod(key, arity ** 3)
            ev = [0] * arity
            for x in (rest // arity ** 2, rest // arity % arity, rest % arity):
                ev[x] += 1
            cubic.setdefault(l, {})[tuple(ev)] = v
        witness = min(((l, m, v) for l, t in cubic.items()
                       for m, v in t.items()), default=None,
                      key=lambda w: w[:2])
        polys = [cubic.get(l, {}) for l in odd] if with_polys else None
        return CubicReport(ok=witness is None, witness=witness,
                           coefficient_polys=polys)

    # -- structural computations -----------------------------------------------
    def derived_subalgebra(self) -> SuperIdeal:
        i, j, k, v = self.bracket_table.entries()
        up = i <= j
        _, rows = keyed_rows((i * self.dim + j)[up], k[up], v[up], self.dim)
        return SuperIdeal(self, Subspace._span(self.ctx, self.dim, rows))

    def derived_series(self) -> List[Tuple[int, int]]:
        """Dims of the derived series of the algebra, down to stabilization."""
        series = [self.dims]
        current = self
        while True:
            der = current.derived_subalgebra()
            if der.dim == current.dim:
                series.append(der.dims)
                break
            sub = current.subalgebra_from_ideal(der)
            series.append(sub.dims)
            if sub.dim == 0:
                break
            current = sub
        return series

    def is_solvable(self) -> bool:
        series = self.derived_series()
        return series[-1] == (0, 0)

    def center(self) -> SuperIdeal:
        """The centre, computed once per algebra: the kernel of the system
        whose row (j, k), column m holds the coefficient of e_k in
        [e_m, e_j], gathered from the entries.  A central z has [h, z] = 0
        for every diagonal ad(h), so it lies on the coordinates of weight
        zero (_weight_keys): only their columns are solved, on the nonzero
        rows, and the kernel is embedded back (linalg.Subspace.embedded)."""
        if self._center is None:
            n = self.dim
            zero = [j for j, (_, w) in enumerate(self._weight_keys()[1])
                    if not any(w)]
            pos = _positions(n, zero)
            i, j, k, v = self.bracket_table.entries()
            on = pos[i] >= 0
            _, rows = keyed_rows((j * n + k)[on], pos[i[on]], v[on],
                                 len(zero))
            self._center = kernel(Matrix.from_int(
                self.ctx, rows, reduced=True)).embedded(zero, n)
        return SuperIdeal(self, self._center)

    def ideal_closure(self, seeds: Sequence[np.ndarray]) -> SuperIdeal:
        """Smallest superideal containing the seeds: invariant closure of the
        homogeneous components of the seeds under all ad operators."""
        s = self.ctx.reduce(np.asarray(seeds)).reshape(-1, self.dim)
        odd = np.asarray(self.parities, dtype=bool)
        return SuperIdeal(self, invariant_closure(
            self.ctx, self.dim, np.concatenate([s * ~odd, s * odd]),
            self.ad_table))

    def quotient(self, ideal: SuperIdeal) -> "LieSuperalgebra":
        """The quotient on the non-pivot coordinates of the ideal: every
        bracket of two of them, reduced against the ideal in one product."""
        if ideal.parent is not self:
            raise NotAnIdeal("ideal belongs to a different algebra")
        if not ideal.verify():
            raise NotAnIdeal("subspace is not closed under bracketing")
        pivot = set(ideal.space.pivots)
        keep = [i for i in range(self.dim) if i not in pivot]
        d, pos = len(keep), _positions(self.dim, keep)
        i, j, k, v = self.bracket_table.entries()
        on = (pos[i] >= 0) & (pos[j] >= 0)
        pairs, rows = keyed_rows(pos[i[on]] * d + pos[j[on]], k[on], v[on],
                                 self.dim)
        row, col, vals = nonzeros(ideal.space._residual(rows)[:, keep])
        basis = [(self.labels[c] + "~", self.parities[c]) for c in keep]
        meta = dict(self.meta)
        meta["name"] = meta.get("name", "algebra") + "/ideal"
        return algebra_from_consts(self.ctx, basis, OpTable.from_keys(
            self.ctx, d, d, pairs[row] * d + col, vals, ideal.space.basis.scale
            * self.bracket_table.scale), meta=meta)

    def subalgebra_from_ideal(self, ideal: SuperIdeal) -> "LieSuperalgebra":
        return self.subalgebra(ideal.space)

    def subalgebra(self, w: Subspace,
                   labels: Optional[Sequence[str]] = None) -> "LieSuperalgebra":
        """The algebra structure on a graded subspace closed under the
        bracket, on its basis rows with the even pivots first: every
        bracket of two basis vectors from their images under ad_table and
        one product (_brackets).  The basis is in echelon form, so a
        bracket in the span has its pivot entries as its coordinates."""
        parities = self._row_parities(w)
        d = w.dim
        if d == 0:
            return algebra_from_consts(self.ctx, [], OpTable.empty(
                self.ctx, 0), meta=dict(self.meta))
        order = np.argsort(parities, kind="stable")
        b, t = w.basis.ints[order], w.basis.scale
        # the brackets of the rows b / t, over the scale s t^2
        images = self._brackets(b, b).reshape(d * d, self.dim)
        if w._residual(images).astype(bool).any():
            raise NotAnIdeal("subspace is not closed under the bracket")
        coords = images[:, np.asarray(w.pivots)[order]].reshape(d, d, d)
        if labels is None:
            labels = [f"b{i}" for i in range(d)]
        meta = dict(self.meta)
        meta["name"] = meta.get("name", "algebra") + ".sub"
        return algebra_from_consts(
            self.ctx, list(zip(labels, sorted(parities))), OpTable.from_dense(
                self.ctx, coords, self.bracket_table.scale * t * t), meta=meta)

    # -- simplicity ----------------------------------------------------------------
    def _proper(self, ideal: SuperIdeal) -> bool:
        return 0 < ideal.dim < self.dim

    def is_graded_simple(self, seed: int = 0) -> SimplicityVerdict:
        """Graded simplicity, decided in the order derived algebra, centre,
        Norton's criterion (norton_certificate), and, only when Norton has no
        seed, a search over the ideal closures of every basis vector and of
        N_RANDOM random homogeneous vectors drawn with the given seed.

        NotSimple carries a proper ideal as witness.  GradedSimple carries
        proof: true when Norton's criterion settles it, and proof: false when
        it rests on the search finding no proper ideal."""
        if self.dim == 0:
            return SimplicityVerdict("Zero")
        if not len(self.bracket_table.val):
            return SimplicityVerdict("Abelian")
        cert = {"strategy": [], "rng_seed": seed, "n_random": N_RANDOM}

        # some bracket is nonzero, so the derived algebra is not zero and
        # the centre is not everything
        derived = self.derived_subalgebra()
        if self._proper(derived):
            return SimplicityVerdict("NotSimple", witness=derived,
                                     certificate={"found_by": "derived"})
        cert["strategy"].append("derived == algebra")

        center = self.center()
        if self._proper(center):
            return SimplicityVerdict("NotSimple", witness=center,
                                     certificate={"found_by": "center"})
        cert["strategy"].append("center == 0")

        norton = self.norton_certificate()
        if norton is not None:
            norton.certificate["strategy"] = cert["strategy"]
            return norton

        # last resort: closure of every basis vector
        eye = np.eye(self.dim, dtype=np.int64)
        for i in range(self.dim):
            cl = self.ideal_closure([eye[i]])
            if self._proper(cl):
                return SimplicityVerdict(
                    "NotSimple", witness=cl,
                    certificate={"found_by": "basis_closure", "seed_index": i})
        cert["strategy"].append("closure of every basis vector is everything")

        # random homogeneous vectors
        rng = random.Random(seed)
        for t in range(N_RANDOM):
            parity = t % 2
            coords = self.odd_coords if parity else self.even_coords
            if not coords:
                continue
            v = np.zeros(self.dim, dtype=np.int64)
            for c in coords:
                v[c] = (rng.randrange(self.ctx.p) if self.ctx.p
                        else rng.randrange(-5, 6))
            if not np.any(v):
                continue
            cl = self.ideal_closure([v])
            if self._proper(cl):
                return SimplicityVerdict(
                    "NotSimple", witness=cl,
                    certificate={"found_by": "random_closure", "trial": t})
        cert["strategy"].append(
            f"{N_RANDOM} random homogeneous vectors all generate everything")
        cert["strategy"].append("[a,a] == a")
        cert["proof"] = False
        return SimplicityVerdict("GradedSimple", certificate=cert)

    def norton_certificate(self) -> Optional[SimplicityVerdict]:
        """Norton's irreducibility criterion on the adjoint module.

        Graded ideals are the subspaces invariant under the unital algebra A
        generated by every ad(e_i) and the parity projector.  Key each basis
        vector e_j on its parity and its joint weight under the diagonal ad
        elements h_i.  If e_j's key (eps, mu) is shared by no other basis
        vector, the projector e_mu onto the mu weight space is a polynomial
        in the ad(h_i), so theta = I - pi_eps e_mu lies in A (pi_eps the
        parity projector) and ker theta = ker theta^T = span(e_j).  By
        Norton's criterion the algebra is then graded simple, also over the
        algebraic closure, iff e_j spins to everything both under A and under
        the transposes A^T (R. A. Parker, "The computer calculation of
        modular characters (the Meat-Axe)", 1984; D. F. Holt and S. Rees,
        J. Austral. Math. Soc. A 57, 1994).  Both spins start from a
        homogeneous vector under homogeneous operators, so they are graded
        and the parity projector adds nothing to them.

        Returns None when no key is unique.  Otherwise the verdict, whose
        certificate names the diagonal indices, the seed index with its
        parity and joint weight, and "proof": GradedSimple with proof true
        when both spins are the whole space, else NotSimple (proof false)
        with "proper_spin" naming the proper one.  The witness is the ad
        spin itself, the ideal generated by e_j, or, when only the transposed
        spin W is proper, its annihilator {v : w.v = 0 for w in W}, an ideal
        because <w, ad(x) v> = <ad(x)^T w, v>."""
        ctx, n = self.ctx, self.dim
        diag, keys = self._weight_keys()
        counts = Counter(keys)
        j = next((j for j, k in enumerate(keys) if counts[k] == 1), None)
        if j is None:
            return None
        cert = {
            "found_by": "norton",
            "diagonal": diag,
            "seed_index": j,
            "parity": keys[j][0],
            "weight": [ctx.scalar_to_str(x) for x in from_int(
                ctx, np.array(keys[j][1], dtype=object),
                self.bracket_table.scale).tolist()],
        }
        seed = np.eye(1, n, j, dtype=np.int64)
        spin = invariant_closure(ctx, n, seed, self.ad_table)
        if spin.dim < n:
            return SimplicityVerdict(
                "NotSimple", witness=SuperIdeal(self, spin),
                certificate={**cert, "proof": False, "proper_spin": "ad"})
        dual = invariant_closure(ctx, n, seed, self.bracket_table)
        if dual.dim < n:
            witness = SuperIdeal(self, kernel(dual.basis))
            return SimplicityVerdict(
                "NotSimple", witness=witness,
                certificate={**cert, "proof": False,
                             "proper_spin": "transpose"})
        return SimplicityVerdict("GradedSimple",
                                 certificate={**cert, "proof": True})

    def _weight_keys(self) -> Tuple[List[int], List[Tuple]]:
        """(diag, keys), found once per algebra: the even h with ad(e_h)
        diagonal, and each basis vector's key, its parity and its joint
        weight under those ad(e_h), on the integers over scale."""
        if self._keys is None:
            # ad(e_a) is diagonal unless some [e_a, e_b] has an e_c term,
            # c != b
            a, b, c, v = self.bracket_table.entries()
            offdiag = set(a[b != c].tolist())
            diag = [h for h in self.even_coords if h not in offdiag]
            # weights[j][t] = coefficient of e_j in [h_t, e_j], h_t = e_diag[t]
            pos = _positions(self.dim, diag)
            on = (b == c) & (pos[a] >= 0)
            weights = np.zeros((self.dim, len(diag)), dtype=v.dtype)
            weights[b[on], pos[a[on]]] = v[on]
            self._keys = diag, [(self.parities[j], tuple(w))
                                for j, w in enumerate(weights.tolist())]
        return self._keys

    # -- serialization ----------------------------------------------------------
    def to_json_dict(self) -> dict:
        t = self.bracket_table
        entries = zip(t.op.tolist(), t.row.tolist(), t.col.tolist(),
                      from_int(self.ctx, t.val, t.scale).tolist())
        brackets = [[i, j, [[k, self.ctx.scalar_to_str(c)] for *_, k, c in g]]
                    for (i, j), g in groupby(entries, lambda e: e[:2])
                    if i <= j]
        return {
            "field": self.ctx.to_json_value(),
            "basis": [
                {"label": l, "parity": p}
                for l, p in zip(self.labels, self.parities)
            ],
            "brackets": brackets,
            "meta": self.meta,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(), **kw)


def _positions(n: int, coords: Sequence[int]) -> np.ndarray:
    """The position of each coordinate in coords, -1 for the others."""
    pos = np.full(n, -1)
    pos[coords] = np.arange(len(coords))
    return pos


def _check_dim(table: OpTable, n: int):
    if (table.n, table.count) != (n, n):
        raise DimensionMismatch(f"{table.count} ops on ctx^{table.n}, n={n}")


def _parities(parities: Sequence) -> Tuple[int, ...]:
    """The parities; InputError for one that is not the int 0 or 1."""
    for p in parities:
        if type(p) is not int or p not in (0, 1):
            raise InputError(f"parity {p!r} is not 0 or 1")
    return tuple(parities)


def algebra_from_json_dict(d: dict) -> LieSuperalgebra:
    """The algebra of to_json_dict's dict.  A parity other than the int 0
    or 1, or a bracket index that is not an int, raises InputError."""
    ctx = FieldCtx.from_json_value(d["field"])
    basis = [(b["label"], b["parity"]) for b in d["basis"]]
    table: Table = {}
    for i, j, entry in d["brackets"]:
        json_ints([i, j, *(k for k, _ in entry)], "bracket indices")
        table[(i, j)] = {k: c for k, c in entry}
    return build_superalgebra(ctx, basis, table, meta=d.get("meta", {}))


def algebra_from_json(s: str) -> LieSuperalgebra:
    return algebra_from_json_dict(json.loads(s))


def algebra_from_consts(ctx: FieldCtx, basis: Sequence[Tuple[str, int]],
                        table: OpTable, meta: Optional[dict] = None,
                        validate: bool = True) -> LieSuperalgebra:
    """The algebra on the (label, parity) basis whose structure constants
    c[i, j, k] are the table's op i, row j, column k, given for either order
    of each pair.  Every pair (j, i) with no entry whose mirror (i, j) has
    some is filled by super-antisymmetry, [e_j, e_i] = -(-1)^{|i||j|}
    [e_i, e_j]; where both orders are given, each entry minus the mirror
    of its partner must vanish, else SkewViolation at the least (i, j, k).
    The completed entries are the algebra's bracket_table.  With validate,
    the algebra then runs validate()."""
    labels = [b[0] for b in basis]
    parities = _parities([b[1] for b in basis])
    n = len(labels)
    _check_dim(table, n)
    odd = np.asarray(parities, dtype=bool)
    i, j, k, vals = table.entries()
    mirror = np.where(odd[i] & odd[j], vals, ctx.reduce(-vals))
    given = np.zeros((n, n), dtype=bool)
    given[i, j] = True
    fill = ~given[j, i]
    keys, mkeys = (i * n + j) * n + k, (j * n + i) * n + k
    both = ~fill
    bad, _ = nonzero_sums(ctx, np.concatenate([keys[both], mkeys[both]]),
                          np.concatenate([vals[both], -mirror[both]]))
    if len(bad):
        # the sums at (i, j, k) and (j, i, k) vanish together, so the least
        # key has i <= j
        raise SkewViolation(*map(int, np.unravel_index(bad[0], (n, n, n))))
    keys, vals = nonzero_sums(ctx, np.concatenate([keys, mkeys[fill]]),
                              np.concatenate([vals, mirror[fill]]))
    alg = LieSuperalgebra(ctx, labels, parities, OpTable.from_keys(
        ctx, n, n, keys, vals, table.scale), meta)
    if validate:
        alg.validate()
    return alg


def build_superalgebra(ctx: FieldCtx, basis: Sequence[Tuple[str, int]],
                       table: Table, meta: Optional[dict] = None,
                       validate: bool = True) -> LieSuperalgebra:
    """Validated constructor from a sparse table (i, j) -> {k: c}, the
    format of JSON files and hand-written algebras: each coefficient is
    canonicalised and range-checked once, and the array goes to
    algebra_from_consts.  The table may give either order of each pair;
    missing mirror entries are completed by super-antisymmetry, present
    ones are checked for consistency."""
    n = len(basis)
    consts = ctx.zeros(n, n, n)
    for (i, j), row in table.items():
        if not (0 <= i < n and 0 <= j < n):
            raise BracketIndexError(f"bracket index ({i},{j}) out of range")
        for k, c in row.items():
            if not 0 <= k < n:
                raise BracketIndexError(f"bracket target {k} out of range")
            consts[i, j, k] = ctx.of(c)
    return algebra_from_consts(
        ctx, basis, OpTable.from_dense(ctx, *_array_form(ctx, consts)),
        meta=meta, validate=validate)

"""Lie superalgebras: graded basis, sparse superbracket table, validation,
and structural computations (ideals, center, derived series, quotients,
graded simplicity, proved by Norton's criterion or searched for).

Conventions.  A superalgebra of total dimension n lives on coordinates
0..n-1 in the given basis order; parities are per basis element.  The
bracket table is a sparse map (i, j) -> {k: c} with
[e_i, e_j] = sum_k c * e_k, stored for all ordered pairs (completion by
super-antisymmetry happens at build time).  Subspaces of the even/odd parts
are kept in their own coordinate spaces (dimension = number of even/odd
basis elements) and embedded into the full space on demand.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import FieldCtx, MultiPoly, SuperlieError
from .linalg import (
    DimensionMismatch,
    Matrix,
    Subspace,
    int_family,
    invariant_closure,
    kernel,
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


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the previous
    one: the first entry of each run of equal values."""
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = a[1:] != a[:-1]
    return starts


@dataclass
class SuperIdeal:
    """A graded subspace closed under bracketing with the whole algebra.

    even_part / odd_part live in the even / odd coordinate spaces."""

    parent: "LieSuperalgebra"
    even_part: Subspace
    odd_part: Subspace

    @property
    def dims(self) -> Tuple[int, int]:
        return self.even_part.dim, self.odd_part.dim

    @property
    def dim(self) -> int:
        return self.even_part.dim + self.odd_part.dim

    def full_subspace(self) -> Subspace:
        a = self.parent
        vecs = [a.embed_even(v) for v in self.even_part.basis.data]
        vecs += [a.embed_odd(v) for v in self.odd_part.basis.data]
        return Subspace.from_vectors(a.ctx, a.dim, vecs)

    def contains(self, v: np.ndarray) -> bool:
        return self.full_subspace().contains(v)

    def verify(self) -> bool:
        """Exact check: bracketing with every basis element stays inside."""
        a = self.parent
        full = self.full_subspace()
        for w in full.basis.data:
            for i in range(a.dim):
                if not full.contains(a.bracket_with_basis(w, i)):
                    return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, SuperIdeal)
            and self.parent is other.parent
            and self.even_part == other.even_part
            and self.odd_part == other.odd_part
        )


@dataclass
class CubicReport:
    ok: bool
    # witness: (odd basis index, monomial exponent vector over odd coords,
    # coefficient) of a nonvanishing term of [[v,v],v]
    witness: Optional[Tuple[int, Tuple[int, ...], object]] = None
    coefficient_polys: Optional[List[MultiPoly]] = None


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
    def __init__(self, ctx: FieldCtx, labels: Sequence[str],
                 parities: Sequence[int], table: Table, meta: Optional[dict] = None):
        self.ctx = ctx
        self.labels = tuple(labels)
        self.parities = tuple(int(p) & 1 for p in parities)
        self.table = table
        self.meta = dict(meta or {})
        self._ad_cache: Dict[int, Matrix] = {}
        # the centre's (even, odd) parts: a SuperIdeal held here would point
        # back at self and leave every algebra to the cyclic collector
        self._center: Optional[Tuple[Subspace, Subspace]] = None
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

    # -- embeddings between graded coordinate spaces ---------------------------
    def embed_even(self, v: np.ndarray) -> np.ndarray:
        out = self.ctx.zeros(self.dim)
        out[self.even_coords] = v
        return out

    def embed_odd(self, v: np.ndarray) -> np.ndarray:
        out = self.ctx.zeros(self.dim)
        out[self.odd_coords] = v
        return out

    def even_component(self, v: np.ndarray) -> np.ndarray:
        return v[self.even_coords].copy()

    def odd_component(self, v: np.ndarray) -> np.ndarray:
        return v[self.odd_coords].copy()

    def split_graded(self, w: Subspace) -> Tuple[Subspace, Subspace]:
        """Split a graded full-space subspace into even/odd coordinate parts."""
        ctx = self.ctx
        ne, no = self.dims
        even_vecs, odd_vecs = [], []
        for v in w.basis.data:
            ev, ov = v[self.even_coords], v[self.odd_coords]
            if np.any(ev):
                even_vecs.append(ev.copy())
            if np.any(ov):
                odd_vecs.append(ov.copy())
        even = Subspace.from_vectors(ctx, ne, even_vecs)
        odd = Subspace.from_vectors(ctx, no, odd_vecs)
        if even.dim + odd.dim != w.dim:
            raise NotAnIdeal("subspace is not graded")
        return even, odd

    # -- bracket ----------------------------------------------------------------
    def bracket_basis(self, i: int, j: int) -> Dict[int, object]:
        return self.table.get((i, j), {})

    def bracket_with_basis(self, x: np.ndarray, j: int) -> np.ndarray:
        """[x, e_j] for a coordinate vector x."""
        out = self.ctx.zeros(self.dim)
        for i in np.nonzero(x)[0]:
            xi = x[i]
            for k, c in self.table.get((int(i), j), {}).items():
                out[k] = self.ctx.add(out[k], self.ctx.mul(xi, c))
        return out

    def bracket_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = self.ctx.zeros(self.dim)
        for i in np.nonzero(x)[0]:
            xi = x[i]
            for j in np.nonzero(y)[0]:
                coeff = self.ctx.mul(xi, y[j])
                for k, c in self.table.get((int(i), int(j)), {}).items():
                    out[k] = self.ctx.add(out[k], self.ctx.mul(coeff, c))
        return out

    def ad(self, i: int) -> Matrix:
        """Matrix of ad(e_i): x -> [e_i, x]."""
        m = self._ad_cache.get(i)
        if m is None:
            a = self.ctx.zeros(self.dim, self.dim)
            for j in range(self.dim):
                for k, c in self.table.get((i, j), {}).items():
                    a[k, j] = c
            m = Matrix(self.ctx, a)
            self._ad_cache[i] = m
        return m

    def ad_matrices(self) -> List[Matrix]:
        return [self.ad(i) for i in range(self.dim)]

    def even_action_matrix(self, even_index: int) -> Matrix:
        """Action of the even basis element #even_index on the odd part:
        the odd-coordinate block of its ad matrix."""
        i = self.even_coords[even_index]
        blk = self.ad(i).data[np.ix_(self.odd_coords, self.odd_coords)]
        return Matrix(self.ctx, blk.copy())

    # -- validation ---------------------------------------------------------------
    def validate_jacobi(self, full: bool = False) -> JacobiReport:
        """Graded Jacobi on basis triples: J(i, j, k) = s_ik [[e_i,e_j],e_k]
        + s_ji [[e_j,e_k],e_i] + s_kj [[e_k,e_i],e_j] = 0, s_xy =
        (-1)^{|x||y|}.  The reduced scan over i<=j<=k is equivalent to all
        triples once super-antisymmetry holds (the Jacobi expression is
        alternating up to sign under permutations); full=True reports every
        failing triple anyway.  Violations are listed in lexicographic order.

        Each composition [[e_a,e_b],e_c]_l = sum_m [e_a,e_b]_m [e_m,e_c]_l
        comes from one join of the table's entries on the middle index m.  It
        is the first term of J(a,b,c), the second of J(c,a,b) and the third
        of J(b,c,a), each time with the sign s_ac; the terms are summed per
        (triple, l) by sorting packed keys.  Over F_p the values are
        residues, over Q integers over one common denominator."""
        n = self.dim
        ea, eb, ek, vals = self._table_coo()
        # join: entry x = ([e_a,e_b] -> e_m) meets every entry y with a = m
        order = np.argsort(ea, kind="stable")
        lo = np.searchsorted(ea[order], ek, "left")
        cnt = np.searchsorted(ea[order], ek, "right") - lo
        x = np.repeat(np.arange(len(ea)), cnt)
        start = np.repeat(np.cumsum(cnt) - cnt, cnt)
        y = order[np.repeat(lo, cnt) + np.arange(len(x)) - start]
        a, b, c, l = ea[x], eb[x], eb[y], ek[y]
        odd = np.asarray(self.parities, dtype=bool)
        terms = self.ctx.reduce(vals[x] * vals[y])
        terms = np.where(odd[a] & odd[c], -terms, terms)
        keys, parts = [], []
        for i, j, k in ((a, b, c), (c, a, b), (b, c, a)):
            keep = slice(None) if full else (i <= j) & (j <= k)
            keys.append((((i * n + j) * n + k) * n + l)[keep])
            parts.append(terms[keep])
        keys, terms = np.concatenate(keys), np.concatenate(parts)
        if not len(keys):
            return JacobiReport(ok=True)
        order = np.argsort(keys, kind="stable")
        keys, terms = keys[order], terms[order]
        first = np.flatnonzero(_run_starts(keys))
        sums = self.ctx.reduce(np.add.reduceat(terms, first))
        triples = keys[first[sums != 0]] // n
        triples = triples[_run_starts(triples)]
        violations = [(t // (n * n), t // n % n, t % n)
                      for t in triples.tolist()]
        return JacobiReport(ok=not violations, violations=violations)

    def _table_coo(self):
        """The table's entries as arrays (i, j, k, c), [e_i, e_j] having
        coefficient c on e_k; c as in linalg.int_family."""
        coo = [(i, j, k, c) for (i, j), row in self.table.items()
               for k, c in row.items()]
        idx = np.array([e[:3] for e in coo], dtype=np.int64).reshape(-1, 3)
        vals = np.array([e[3] for e in coo], dtype=self.ctx.dtype)
        (vals,), _ = int_family(self.ctx, [vals])
        return idx[:, 0], idx[:, 1], idx[:, 2], vals

    def validate(self):
        """Raise GradingViolation unless every bracket respects parity, then
        JacobiViolation at the first failing triple of validate_jacobi."""
        par = self.parities
        for (i, j), row in self.table.items():
            for k in row:
                if par[k] != (par[i] + par[j]) % 2:
                    raise GradingViolation(i, j, k)
        report = self.validate_jacobi()
        if not report.ok:
            i, j, k = report.violations[0]
            raise JacobiViolation(i, j, k, None)

    def validate_cubic_odd(self, with_polys: bool = False) -> CubicReport:
        """Expand [[v, v], v] for a symbolic odd vector v = sum x_a e_a and
        check coefficientwise vanishing."""
        ctx = self.ctx
        odd = self.odd_coords
        no = len(odd)
        arity = no
        zero_t = (0,) * arity

        def mono(positions: Sequence[int]) -> Tuple[int, ...]:
            ev = [0] * arity
            for p in positions:
                ev[p] += 1
            return tuple(ev)

        # quadratic even coordinates of [v, v]
        quad: Dict[int, Dict[Tuple[int, ...], object]] = {}
        for ai, a in enumerate(odd):
            for bi, b in enumerate(odd):
                for k, c in self.table.get((a, b), {}).items():
                    t = quad.setdefault(k, {})
                    m = mono([ai, bi])
                    t[m] = ctx.add(t.get(m, ctx.zero), c)
        # cubic odd coordinates of [[v, v], v]
        cubic: Dict[int, Dict[Tuple[int, ...], object]] = {}
        for e, poly_e in quad.items():
            for ci, cidx in enumerate(odd):
                row = self.table.get((e, cidx), {})
                for l, cl in row.items():
                    t = cubic.setdefault(l, {})
                    for m, cm in poly_e.items():
                        m2 = list(m)
                        m2[ci] += 1
                        m2 = tuple(m2)
                        t[m2] = ctx.add(t.get(m2, ctx.zero), ctx.mul(cm, cl))
        witness = None
        for l in sorted(cubic):
            for m in sorted(cubic[l]):
                v = cubic[l][m]
                if not ctx.is_zero(v):
                    witness = (l, m, v)
                    break
            if witness:
                break
        polys = None
        if with_polys:
            polys = [
                MultiPoly(ctx, arity, cubic.get(l, {})) for l in odd
            ]
        return CubicReport(ok=witness is None, witness=witness,
                           coefficient_polys=polys)

    # -- structural computations -----------------------------------------------
    def _graded_ideal_from_full(self, w: Subspace) -> SuperIdeal:
        even, odd = self.split_graded(w)
        return SuperIdeal(self, even, odd)

    def derived_subalgebra(self) -> SuperIdeal:
        vecs = []
        for (i, j), row in self.table.items():
            if i > j:
                continue
            v = self.ctx.zeros(self.dim)
            for k, c in row.items():
                v[k] = c
            vecs.append(v)
        w = Subspace.from_vectors(self.ctx, self.dim, vecs)
        return self._graded_ideal_from_full(w)

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
        """The centre, computed once per algebra."""
        if self._center is None:
            ctx = self.ctx
            blocks = []
            for j in range(self.dim):
                # row k, col m: coefficient of e_k in [e_m, e_j]
                a = ctx.zeros(self.dim, self.dim)
                for m in range(self.dim):
                    for k, c in self.table.get((m, j), {}).items():
                        a[k, m] = c
                blocks.append(a)
            stacked = Matrix(ctx, np.concatenate(blocks, axis=0))
            self._center = self.split_graded(kernel(stacked))
        return SuperIdeal(self, *self._center)

    def ideal_closure(self, seeds: Sequence[np.ndarray]) -> SuperIdeal:
        """Smallest superideal containing the seeds: invariant closure of the
        homogeneous components of the seeds under all ad operators."""
        parts = []
        for s in seeds:
            s = self.ctx.reduce(np.asarray(s))
            ev, ov = s.copy(), s.copy()
            ev[self.odd_coords] = 0
            ov[self.even_coords] = 0
            if np.any(ev):
                parts.append(ev)
            if np.any(ov):
                parts.append(ov)
        w = invariant_closure(self.ctx, self.dim, parts, self.ad_matrices())
        return self._graded_ideal_from_full(w)

    def quotient(self, ideal: SuperIdeal, check: bool = True) -> "LieSuperalgebra":
        if ideal.parent is not self:
            raise NotAnIdeal("ideal belongs to a different algebra")
        if check and not ideal.verify():
            raise NotAnIdeal("subspace is not closed under bracketing")
        full = ideal.full_subspace()
        pivot = set(full.pivots)
        keep = [i for i in range(self.dim) if i not in pivot]
        pos = {c: idx for idx, c in enumerate(keep)}
        labels = [self.labels[c] + "~" for c in keep]
        parities = [self.parities[c] for c in keep]
        table: Table = {}
        for a_idx, a in enumerate(keep):
            for b_idx, b in enumerate(keep):
                row = self.table.get((a, b))
                if not row:
                    continue
                v = self.ctx.zeros(self.dim)
                for k, c in row.items():
                    v[k] = c
                residual, _ = full.reduce_vector(v)
                entry = {}
                for k in np.nonzero(residual)[0]:
                    entry[pos[int(k)]] = residual[int(k)]
                if entry:
                    table[(a_idx, b_idx)] = entry
        meta = dict(self.meta)
        meta["name"] = meta.get("name", "algebra") + "/ideal"
        return build_superalgebra(self.ctx, list(zip(labels, parities)), table,
                                  meta=meta)

    def subalgebra_from_ideal(self, ideal: SuperIdeal) -> "LieSuperalgebra":
        return self.subalgebra(ideal.even_part, ideal.odd_part)

    def subalgebra(self, even_sub: Subspace, odd_sub: Subspace,
                   labels: Optional[Sequence[str]] = None) -> "LieSuperalgebra":
        """The algebra structure on a graded subspace closed under the bracket."""
        from .linalg import SpanSolver

        vecs = [self.embed_even(v) for v in even_sub.basis.data]
        vecs += [self.embed_odd(v) for v in odd_sub.basis.data]
        d = len(vecs)
        if d == 0:
            return build_superalgebra(self.ctx, [], {}, meta=dict(self.meta))
        b = np.stack(vecs)
        solver = SpanSolver(self.ctx, b)
        if labels is None:
            labels = [f"b{i}" for i in range(d)]
        parities = [0] * even_sub.dim + [1] * odd_sub.dim
        coords, in_span = solver.coords_rows(np.stack(
            [self.bracket_vec(b[i], b[j]) for i in range(d) for j in range(d)]))
        if not in_span.all():
            raise NotAnIdeal("subspace is not closed under the bracket")
        table: Table = {}
        rs, ks = np.nonzero(coords)
        for r, k, c in zip(rs.tolist(), ks.tolist(), coords[rs, ks].tolist()):
            table.setdefault(divmod(r, d), {})[k] = c
        meta = dict(self.meta)
        meta["name"] = meta.get("name", "algebra") + ".sub"
        return build_superalgebra(self.ctx, list(zip(labels, parities)), table,
                                  meta=meta)

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
        if not any(self.table.values()):
            return SimplicityVerdict("Abelian")
        cert = {"strategy": [], "rng_seed": seed, "n_random": N_RANDOM}

        derived = self.derived_subalgebra()
        if derived.dim == 0:
            return SimplicityVerdict("Abelian")
        if self._proper(derived):
            return SimplicityVerdict("NotSimple", witness=derived,
                                     certificate={"found_by": "derived"})
        cert["strategy"].append("derived == algebra")

        center = self.center()
        if self._proper(center):
            return SimplicityVerdict("NotSimple", witness=center,
                                     certificate={"found_by": "center"})
        if center.dim == self.dim:
            return SimplicityVerdict("Abelian")
        cert["strategy"].append("center == 0")

        norton = self.norton_certificate()
        if norton is not None:
            norton.certificate["strategy"] = cert["strategy"]
            return norton

        # last resort: closure of every basis vector
        for i in range(self.dim):
            cl = self.ideal_closure([self._basis_vec(i)])
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
            v = self.ctx.zeros(self.dim)
            for c in coords:
                v[c] = self.ctx.of(
                    rng.randrange(self.ctx.p) if self.ctx.p
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
        ctx = self.ctx
        diag = [i for i in self.even_coords if self._ad_is_diagonal(i)]
        keys = [
            (self.parities[j],
             tuple(self.table.get((i, j), {}).get(j, ctx.zero) for i in diag))
            for j in range(self.dim)
        ]
        counts = Counter(keys)
        j = next((j for j, k in enumerate(keys) if counts[k] == 1), None)
        if j is None:
            return None
        cert = {
            "found_by": "norton",
            "diagonal": diag,
            "seed_index": j,
            "parity": keys[j][0],
            "weight": [ctx.scalar_to_str(x) for x in keys[j][1]],
        }
        ads = self.ad_matrices()
        seed = [self._basis_vec(j)]
        spin = invariant_closure(ctx, self.dim, seed, ads)
        if spin.dim < self.dim:
            return SimplicityVerdict(
                "NotSimple", witness=self._graded_ideal_from_full(spin),
                certificate={**cert, "proof": False, "proper_spin": "ad"})
        dual = invariant_closure(ctx, self.dim, seed,
                                 [m.transpose() for m in ads])
        if dual.dim < self.dim:
            witness = self._graded_ideal_from_full(kernel(dual.basis))
            return SimplicityVerdict(
                "NotSimple", witness=witness,
                certificate={**cert, "proof": False,
                             "proper_spin": "transpose"})
        return SimplicityVerdict("GradedSimple",
                                 certificate={**cert, "proof": True})

    def _basis_vec(self, i: int) -> np.ndarray:
        v = self.ctx.zeros(self.dim)
        v[i] = self.ctx.one
        return v

    def _ad_is_diagonal(self, i: int) -> bool:
        for j in range(self.dim):
            for k, c in self.table.get((i, j), {}).items():
                if k != j and not self.ctx.is_zero(c):
                    return False
        return True

    # -- serialization ----------------------------------------------------------
    def to_json_dict(self) -> dict:
        brackets = []
        for (i, j) in sorted(self.table):
            if i > j:
                continue
            row = self.table[(i, j)]
            entry = [[k, self.ctx.scalar_to_str(c)] for k, c in sorted(row.items())]
            if entry:
                brackets.append([i, j, entry])
        return {
            "field": {"p": self.ctx.p} if self.ctx.p else "Q",
            "basis": [
                {"label": l, "parity": p}
                for l, p in zip(self.labels, self.parities)
            ],
            "brackets": brackets,
            "meta": self.meta,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(), **kw)


def algebra_from_json_dict(d: dict) -> LieSuperalgebra:
    ctx = FieldCtx.rationals() if d["field"] == "Q" else FieldCtx.prime(
        int(d["field"]["p"]))
    basis = [(b["label"], int(b["parity"])) for b in d["basis"]]
    table: Table = {}
    for i, j, entry in d["brackets"]:
        table[(int(i), int(j))] = {int(k): ctx.of(c) for k, c in entry}
    return build_superalgebra(ctx, basis, table, meta=d.get("meta", {}))


def algebra_from_json(s: str) -> LieSuperalgebra:
    return algebra_from_json_dict(json.loads(s))


def build_superalgebra(ctx: FieldCtx, basis: Sequence[Tuple[str, int]],
                       table: Table, meta: Optional[dict] = None,
                       validate: bool = True) -> LieSuperalgebra:
    """Validated constructor.  The table may give either order of each pair;
    missing mirror entries are completed by super-antisymmetry, present ones
    are checked for consistency."""
    labels = [b[0] for b in basis]
    parities = [int(b[1]) & 1 for b in basis]
    n = len(labels)
    clean: Table = {}
    for (i, j), row in table.items():
        if not (0 <= i < n and 0 <= j < n):
            raise BracketIndexError(f"bracket index ({i},{j}) out of range")
        entry = {}
        for k, c in row.items():
            if not 0 <= k < n:
                raise BracketIndexError(f"bracket target {k} out of range")
            c = ctx.of(c)
            if not ctx.is_zero(c):
                entry[int(k)] = c
        if entry:
            clean[(int(i), int(j))] = entry

    sign_table: Table = {}
    for (i, j), row in clean.items():
        sign = -1 if parities[i] and parities[j] else 1
        mirror = {
            k: (ctx.neg(c) if sign > 0 else c) for k, c in row.items()
        }
        if (j, i) in clean or (i == j):
            other = clean.get((j, i), {}) if i != j else row
            keys = set(mirror) | set(other)
            for k in keys:
                if not ctx.is_zero(
                    ctx.sub(other.get(k, ctx.zero), mirror.get(k, ctx.zero))
                ):
                    raise SkewViolation(i, j, k)
        else:
            sign_table[(j, i)] = mirror
    clean.update(sign_table)

    alg = LieSuperalgebra(ctx, labels, parities, clean, meta)
    if validate:
        alg.validate()
    return alg

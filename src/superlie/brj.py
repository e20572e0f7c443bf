"""Staged construction of the exceptional 10|12-dimensional superalgebra in
characteristic 5.

Pipeline over F_p (p = 5 by default):

  1. the rank-2 symplectic algebra g on its 4-dimensional module V,
  2. the 5-dimensional quotient of the exterior square of V by the span of
     the invariant form element,
  3. the 20-dimensional tensor module N, its 16-dimensional submodule M
     generated by a highest vector, and the 4-dimensional socle of M,
  4. the 12-dimensional quotient U = M/socle on an explicit weight basis,
  5. the space of equivariant maps Sym^2(U) -> g, expected 1-dimensional
     exactly for p = 5,
  6. the pair brackets K of that space (pairs.pair_space, expected a line),
     its normalized generator, pair assembly, and the simplicity and
     module-level SAS verdicts.

Each stage's dimension is asserted against the expected profile; a mismatch
raises PipelineAssertion carrying the partial report, which is exactly what
happens at the hom stage for p != 5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .fields import FieldCtx, SuperlieError
from .linalg import Matrix, Subspace, int_matmul, kernel
from .modules import (
    CoeffOperatorFamily,
    GModule,
    adjoint_module,
    hom_space,
    lambda2,
    module_from_subspace,
    quotient_module_with_basis,
    socle_via_homs,
    square_layout,
    submodule_generated,
    sym2,
    tensor,
)
from .pairs import (HCPair, assemble_pair, check_sas_conditions,
                    normalised, pair_space)
from .superalgebra import LieSuperalgebra
from .constructions import _unit_algebra

EXPECTED_STAGE_DIMS = {
    "V": 4,
    "L2V": 6,
    "Lw2": 5,
    "N": 20,
    "M": 16,
    "socle": 4,
    "U": 12,
    "Sym2U": 78,
    "hom": 1,
}


class PipelineAssertion(SuperlieError, AssertionError):
    def __init__(self, stage: str, expected, got, report=None):
        super().__init__(f"stage {stage}: expected {expected}, got {got}")
        self.stage = stage
        self.expected = expected
        self.got = got
        self.report = report


@dataclass
class PipelineReport:
    p: int
    stage_dims: Dict[str, int] = field(default_factory=dict)
    socle_matches_expected: Optional[bool] = None
    hom_dim_group: Optional[int] = None
    hom_dim_algebra: Optional[int] = None
    first_constant: Optional[str] = None
    pair: Optional[HCPair] = None
    algebra: Optional[LieSuperalgebra] = None
    simplicity: Optional[str] = None
    sas: Optional[Tuple[bool, bool]] = None
    seconds: Dict[str, float] = field(default_factory=dict)


def _check(report: PipelineReport, stage: str, got: int):
    report.stage_dims[stage] = got
    want = EXPECTED_STAGE_DIMS[stage]
    if got != want:
        raise PipelineAssertion(stage, want, got, report)


# root-vector data: label, weight in the (e1, e2) lattice, unit entries
SP4_ROOTS = (
    ("x+2e1", (2, 0), [(0, 2, 1)]),
    ("x+2e2", (0, 2), [(1, 3, 1)]),
    ("x+e1-e2", (1, -1), [(0, 1, 1), (3, 2, -1)]),
    ("x+e1+e2", (1, 1), [(0, 3, 1), (1, 2, 1)]),
    ("x-2e1", (-2, 0), [(2, 0, 1)]),
    ("x-2e2", (0, -2), [(3, 1, 1)]),
    ("x-e1+e2", (-1, 1), [(1, 0, 1), (2, 3, -1)]),
    ("x-e1-e2", (-1, -1), [(2, 1, 1), (3, 0, 1)]),
)
SP4_CARTAN = (("h1", [(0, 0, 1), (2, 2, -1)]), ("h2", [(1, 1, 1), (3, 3, -1)]))


def sp4_algebra(ctx: FieldCtx) -> LieSuperalgebra:
    """Rank-2 symplectic algebra on a weight basis: eight root vectors in the
    order +2e1, +2e2, +e1-e2, +e1+e2 and their negatives, then h1, h2."""
    elems = [(l, 0, es) for l, _, es in SP4_ROOTS]
    elems += [(l, 0, es) for l, es in SP4_CARTAN]
    return _unit_algebra(ctx, [0, 0, 0, 0], elems, meta={"name": "sp4"})


def sp4_natural_module(g: LieSuperalgebra) -> GModule:
    """The defining 4-dimensional module v+e1, v+e2, v-e1, v-e2 with one
    unipotent family 1 + t x per root vector (every root vector squares to
    zero in this realization)."""
    ctx = g.ctx
    lie = [Matrix(ctx, m) for m in g.matrix_basis]
    fams = CoeffOperatorFamily.batch(
        (l, [Matrix.identity(ctx, 4), lie[i]], w)
        for i, (l, w, _) in enumerate(SP4_ROOTS))
    return GModule(ctx, ["v+e1", "v+e2", "v-e1", "v-e2"], g.labels, lie, fams,
                   weights=[(1, 0), (0, 1), (-1, 0), (0, -1)],
                   brackets=g.bracket_table, meta={"name": "V"})


def sp4_adjoint_module(g: LieSuperalgebra) -> GModule:
    """sp4's adjoint module (modules.adjoint_module), with exp(t ad x) for
    each root vector x."""
    return adjoint_module(
        g.labels, g.bracket_table,
        [(l, i, w) for i, (l, w, _) in enumerate(SP4_ROOTS)],
        weights=[w for _, w, _ in SP4_ROOTS] + [(0, 0), (0, 0)],
        meta={"name": "adjoint-sp4"})


def _vector(ctx: FieldCtx, dim: int, terms: Dict[int, int]) -> np.ndarray:
    v = ctx.zeros(dim)
    for i, c in terms.items():
        v[i] = ctx.of(c)
    return v


# index helpers for the 20-dimensional tensor module N = V (x) Lw2:
# N index = 5 * (V index) + (Lw2 index), with Lw2 basis order
# w+e1+e2, w+e1-e2, w0, w-e1+e2, w-e1-e2.
_W = {"++": 0, "+-": 1, "0": 2, "-+": 3, "--": 4}


def _n_idx(v: int, w: str) -> int:
    return 5 * v + _W[w]


def expected_socle_vectors(ctx: FieldCtx) -> List[np.ndarray]:
    """The four lowest-layer vectors of M, one per weight +-e1, +-e2."""
    return [
        _vector(ctx, 20, {_n_idx(0, "0"): 1, _n_idx(1, "+-"): 1,
                          _n_idx(3, "++"): -1}),
        _vector(ctx, 20, {_n_idx(1, "0"): -1, _n_idx(0, "-+"): -1,
                          _n_idx(2, "++"): 1}),
        _vector(ctx, 20, {_n_idx(3, "0"): -1, _n_idx(0, "--"): -1,
                          _n_idx(2, "+-"): 1}),
        _vector(ctx, 20, {_n_idx(2, "0"): 1, _n_idx(1, "--"): 1,
                          _n_idx(3, "-+"): -1}),
    ]


def u_basis_vectors(ctx: FieldCtx):
    """(vectors, labels): weight-vector representatives for U = M/socle,
    eight long-weight pure tensors and four short-weight combinations."""
    labels = ["u+2e1+e2", "u+2e1-e2", "u+e1+2e2", "u+e1-2e2",
              "u-2e1+e2", "u-2e1-e2", "u-e1-2e2", "u-e1+2e2",
              "u+e1", "u+e2", "u-e2", "u-e1"]
    vecs = [
        _vector(ctx, 20, {_n_idx(0, "++"): 1}),
        _vector(ctx, 20, {_n_idx(0, "+-"): 1}),
        _vector(ctx, 20, {_n_idx(1, "++"): 1}),
        _vector(ctx, 20, {_n_idx(3, "+-"): 1}),
        _vector(ctx, 20, {_n_idx(2, "-+"): 1}),
        _vector(ctx, 20, {_n_idx(2, "--"): 1}),
        _vector(ctx, 20, {_n_idx(3, "--"): 1}),
        _vector(ctx, 20, {_n_idx(1, "-+"): 1}),
        _vector(ctx, 20, {_n_idx(1, "+-"): 1, _n_idx(0, "0"): -2}),
        _vector(ctx, 20, {_n_idx(0, "-+"): 1, _n_idx(1, "0"): -2}),
        _vector(ctx, 20, {_n_idx(0, "--"): 1, _n_idx(3, "0"): -2}),
        _vector(ctx, 20, {_n_idx(1, "--"): 1, _n_idx(2, "0"): -2}),
    ]
    return vecs, labels


# Stability of a weight-(2, 0) vector of Sym^2(U) under the two simple
# positive root subgroups, in the coordinates
#   alpha u+e1+2e2.u+e1-2e2 + beta u+2e1+e2.u-e2
#   + gamma u+2e1-e2.u+e2 + delta u+e1.u+e1.
# The rows are alpha+2beta, gamma-2delta, alpha+delta, beta+gamma; the
# determinant is +-5, so the kernel is nonzero exactly in characteristic 5.
# The 12-dimensional module U itself only exists for p = 5 (the structure
# constants admit no characteristic-0 lift), so for p != 5 the hom stage is
# this system read as an integer matrix and reduced mod p.
HIGHEST_WEIGHT_SYSTEM = [
    [1, 2, 0, 0],
    [0, 0, 1, -2],
    [1, 0, 0, 1],
    [0, 1, 1, 0],
]


def highest_weight_hom_bound(ctx: FieldCtx) -> int:
    return kernel(Matrix.from_rows(ctx, HIGHEST_WEIGHT_SYSTEM)).dim


def brj25(p: int = 5, skip_simplicity: bool = False,
          seed: int = 0) -> PipelineReport:
    ctx = FieldCtx.prime(p)
    report = PipelineReport(p=p)
    t0 = time.monotonic()

    g = sp4_algebra(ctx)
    v_mod = sp4_natural_module(g)
    _check(report, "V", v_mod.dim)

    l2 = lambda2(v_mod)
    _check(report, "L2V", l2.dim)
    _, l2pos, _ = square_layout(v_mod.dim, -1)
    # the invariant form element v+e1 ^ v-e1 + v+e2 ^ v-e2
    z = _vector(ctx, 6, {l2pos[0, 2]: 1, l2pos[1, 3]: 1})
    zspan = Subspace.from_vectors(ctx, 6, [z])
    if zspan.residuals(l2.table.images(zspan.basis.ints)).any():
        raise PipelineAssertion("L2V", "invariant form element",
                                "not invariant", report)
    w_labels = ["w+e1+e2", "w+e1-e2", "w0", "w-e1+e2", "w-e1-e2"]
    w_reps = [_vector(ctx, 6, {l2pos[i, j]: c}) for i, j, c in
              ((0, 1, 1), (0, 3, 1), (0, 2, 1), (1, 2, -1), (2, 3, 1))]
    w_mod = quotient_module_with_basis(l2, zspan, w_reps, w_labels, name="Lw2")
    _check(report, "Lw2", w_mod.dim)
    report.seconds["modules"] = time.monotonic() - t0

    t0 = time.monotonic()
    n_mod = tensor(v_mod, w_mod)
    _check(report, "N", n_mod.dim)
    highest = _vector(ctx, 20, {_n_idx(0, "++"): 1})
    m_sub = submodule_generated(n_mod, [highest])
    _check(report, "M", m_sub.dim)
    m_mod = module_from_subspace(n_mod, m_sub, name="M")
    soc_in_m = socle_via_homs(m_mod, [v_mod])
    report.stage_dims["socle"] = soc_in_m.dim
    if p != 5:
        # M is irreducible away from characteristic 5 and the quotient
        # module does not exist; the hom stage degenerates to the
        # highest-weight stability system.
        report.hom_dim_group = highest_weight_hom_bound(ctx)
        _check(report, "hom", report.hom_dim_group)
        return report
    if soc_in_m.dim != 4:
        raise PipelineAssertion("socle", 4, soc_in_m.dim, report)
    # back to ambient coordinates of N and against the expected span
    soc = Subspace.from_vectors(ctx, 20, int_matmul(
        ctx, soc_in_m.basis.ints, m_sub.basis.ints))
    expected = Subspace.from_vectors(ctx, 20, expected_socle_vectors(ctx))
    report.socle_matches_expected = soc == expected
    if not report.socle_matches_expected:
        raise PipelineAssertion("socle", "span of the four layer vectors",
                                "different subspace", report)
    u_mod = quotient_module_with_basis(n_mod, soc, *u_basis_vectors(ctx),
                                       name="U")
    _check(report, "U", u_mod.dim)
    report.seconds["submodule"] = time.monotonic() - t0

    t0 = time.monotonic()
    s2u = sym2(u_mod)
    _check(report, "Sym2U", s2u.dim)
    adj = sp4_adjoint_module(g)
    rep = hom_space(s2u, adj, mode="both")
    report.hom_dim_group = rep.dim_group
    report.hom_dim_algebra = rep.dim_algebra
    report.seconds["hom"] = time.monotonic() - t0
    _check(report, "hom", rep.dim_group)
    if rep.dim_algebra != rep.dim_group:
        raise PipelineAssertion("hom", "algebra dim == group dim",
                                (rep.dim_algebra, rep.dim_group), report)
    if highest_weight_hom_bound(ctx) != rep.dim_group:
        raise PipelineAssertion("hom", "highest-weight bound == hom dim",
                                highest_weight_hom_bound(ctx), report)

    t0 = time.monotonic()
    _, ks = pair_space(u_mod, rep.basis_group)
    if len(ks) != 1:
        raise PipelineAssertion("pair", "dim K = 1", len(ks), report)
    bracket, pos = normalised(ctx, ks[0])
    report.first_constant = "[{},{}] -> {}".format(
        u_mod.labels[pos[0]], u_mod.labels[pos[1]], g.labels[pos[2]])

    pair = assemble_pair(g, u_mod, bracket, adj,
                         meta={"name": f"brj(2;5)@p={p}"})
    report.pair = pair
    report.algebra = pair.algebra
    if pair.algebra.dims != (10, 12):
        raise PipelineAssertion("pair", (10, 12), pair.algebra.dims, report)
    report.sas = check_sas_conditions(pair)[:2]
    report.seconds["pair"] = time.monotonic() - t0

    if not skip_simplicity:
        t0 = time.monotonic()
        verdict = pair.algebra.is_graded_simple(seed=seed)
        report.simplicity = verdict.verdict
        report.seconds["simplicity"] = time.monotonic() - t0
    return report

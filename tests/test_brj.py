import tracemalloc

import numpy as np
import pytest

import superlie.brj as brj
import superlie.modules as modules
from superlie.fields import FieldCtx
from superlie.linalg import OpTable, Subspace
from superlie.brj import (
    EXPECTED_STAGE_DIMS,
    PipelineAssertion,
    brj25,
    expected_socle_vectors,
    highest_weight_hom_bound,
    sp4_algebra,
    sp4_natural_module,
)

F5 = FieldCtx.prime(5)


@pytest.fixture(scope="module")
def report5():
    return brj25(p=5, seed=0)


class TestBuildingBlocks:
    def test_sp4_is_a_lie_algebra(self):
        g = sp4_algebra(F5)
        assert g.dims == (10, 0)
        assert g.validate_jacobi(full=True).ok

    def test_natural_module_validates(self):
        g = sp4_algebra(F5)
        v = sp4_natural_module(g)
        assert v.dim == 4
        v.validate()

    def test_highest_weight_system_detects_char5(self):
        assert highest_weight_hom_bound(FieldCtx.prime(5)) == 1
        assert highest_weight_hom_bound(FieldCtx.prime(7)) == 0
        assert highest_weight_hom_bound(FieldCtx.prime(3)) == 0
        assert highest_weight_hom_bound(FieldCtx.rationals()) == 0


class TestChar5Pipeline:
    def test_stage_dims(self, report5):
        assert report5.stage_dims == EXPECTED_STAGE_DIMS

    def test_socle(self, report5):
        assert report5.socle_matches_expected
        vecs = expected_socle_vectors(F5)
        assert Subspace.from_vectors(F5, 20, vecs).dim == 4

    def test_hom_dims(self, report5):
        assert report5.hom_dim_group == 1
        assert report5.hom_dim_algebra == 1

    def test_normalized_first_constant(self, report5):
        assert report5.first_constant == "[u+2e1+e2,u-2e1+e2] -> x+2e2"

    def test_total_algebra(self, report5):
        alg = report5.algebra
        assert alg.dims == (10, 12)
        assert alg.validate_jacobi(full=True).ok
        assert alg.validate_cubic_odd().ok

    def test_sas(self, report5):
        assert report5.sas == (True, True)

    def test_simplicity(self, report5):
        assert report5.simplicity == "GradedSimple"

    def test_skip_simplicity(self):
        rep = brj25(p=5, skip_simplicity=True)
        assert rep.simplicity is None
        assert rep.algebra.dims == (10, 12)


class TestPairStage:
    def test_three_solves(self, monkeypatch):
        # the socle solve and Sym^2 U -> adj in both modes; pair_space
        # reads its brackets off the group-mode basis without a solve
        shapes = []
        solve = modules._intertwiner_space

        def counted(ctx, d1, d2, *args):
            shapes.append((d1, d2))
            return solve(ctx, d1, d2, *args)

        monkeypatch.setattr(modules, "_intertwiner_space", counted)
        brj25(p=5)
        assert shapes == [(4, 16), (78, 10), (78, 10)]

    def test_cubic_kernel_must_be_a_line(self, monkeypatch):
        pair_space = brj.pair_space
        monkeypatch.setattr(brj, "pair_space",
                            lambda *a: (pair_space(*a)[0], np.zeros(0)))
        with pytest.raises(PipelineAssertion) as e:
            brj25(p=5, skip_simplicity=True)
        assert (e.value.stage, e.value.got) == ("pair", 0)
        assert "pair" not in e.value.report.stage_dims


class TestOtherCharacteristics:
    @pytest.mark.parametrize("p", [3, 7])
    def test_halts_at_hom_stage(self, p):
        with pytest.raises(PipelineAssertion) as e:
            brj25(p=p)
        assert e.value.stage == "hom"
        assert e.value.expected == 1
        assert e.value.got == 0
        partial = e.value.report.stage_dims
        assert partial["M"] == 16
        assert partial["hom"] == 0


class TestMemoryBudget:
    def test_pipeline_peak_and_no_dense_sym2u(self, monkeypatch):
        # a budget, as the runtime budgets of the acceptance tests are: the
        # traced peak was 6.27 MB when every module held its operators as
        # dense n x n arrays, 2.82 MB of them Sym2(U)'s.  Met by the code,
        # never raised
        views = []
        dense = OpTable.dense

        def counted(self, *args):
            views.append((self.n, self.count))
            return dense(self, *args)

        monkeypatch.setattr(OpTable, "dense", counted)
        brj25(p=5, skip_simplicity=True)
        # no dense view of Sym2(U)'s operators, only of small modules'
        assert views and all(n <= 20 for n, _ in views)
        tracemalloc.start()
        try:
            brj25(p=5, skip_simplicity=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6, f"tracemalloc peak {peak / 1e6:.2f} MB"

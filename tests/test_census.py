import hashlib

import pytest

from superlie import constructions
from superlie.census import (
    GRID_PRESETS,
    build_from_params,
    grid_d21,
    grid_family_catalog,
    run_census,
    rows_to_jsonl,
    rows_to_tsv,
)
from superlie.fields import FieldCtx

F5 = FieldCtx.prime(5)


class TestBuildDispatch:
    def test_known_families(self):
        assert build_from_params("sl", {"m": 2, "n": 1}, F5).dims == (4, 4)
        assert build_from_params("psq", {"n": 3}, F5).dims == (8, 8)
        assert build_from_params(
            "spo", {"m": 1, "odd": 3}, F5).dims == (6, 6)

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError):
            build_from_params("nope", {}, F5)

    def test_unknown_check_raises(self):
        rows = run_census([("sl", {"m": 2, "n": 1}, 5)], ("frobnicate",))
        assert rows[0].error is not None
        assert "frobnicate" in rows[0].error


class TestDeterminism:
    def test_family_catalog_repeatable(self):
        grid = grid_family_catalog()
        a = run_census(grid, ("simple",), seed=0, threads=1)
        b = run_census(grid, ("simple",), seed=0, threads=1)
        assert rows_to_tsv(a, ("simple",)) == rows_to_tsv(b, ("simple",))
        assert rows_to_jsonl(a) == rows_to_jsonl(b)

    def test_rows_sorted(self):
        rows = run_census(grid_family_catalog(), (), threads=2)
        keys = [r.sort_key() for r in rows]
        assert keys == sorted(keys)


class TestErrorRows:
    def test_d21_grid_captures_invalid_points(self):
        rows = run_census(grid_d21(), ("simple",), threads=2)
        errors = [r for r in rows if r.error]
        # points off the parameter plane fail validation but do not abort
        assert len(errors) == 3
        for r in errors:
            assert "JacobiViolation" in r.error
            assert r.dims is None
        good = [r for r in rows if not r.error]
        assert all(r.dims == (9, 8) for r in good)


class TestPresets:
    def test_presets_are_wired(self):
        for name, (gridf, checks) in GRID_PRESETS.items():
            grid = gridf()
            assert grid, name
            assert all(len(j) == 3 for j in grid)
            assert checks

    def test_tsv_header_matches_checks(self):
        rows = run_census([("psq", {"n": 2}, 5)], ("simple", "center_dim"))
        text = rows_to_tsv(rows, ("simple", "center_dim"))
        header = text.splitlines()[0].split("\t")
        assert header == ["family", "params", "p", "dim_even", "dim_odd",
                          "simple", "center_dim", "error"]
        assert text.endswith("\n")


class TestChecks:
    def test_solvable_and_derived_codim(self):
        checks = ("solvable", "derived_codim")
        rows = run_census([("gl", {"m": 1, "n": 1}, 5),
                           ("sl", {"m": 2, "n": 1}, 3),
                           ("pgl", {"m": 2, "n": 2}, 3),
                           ("periplectic", {"n": 2}, 5)], checks)
        got = {(r.family, r.p): (r.dims, r.verdicts) for r in rows}
        assert got == {
            ("gl", 5): ((2, 2), {"solvable": True, "derived_codim": "1|0"}),
            ("sl", 3): ((4, 4), {"solvable": False, "derived_codim": "0|0"}),
            ("pgl", 3): ((7, 8), {"solvable": False, "derived_codim": "1|0"}),
            ("periplectic", 5): ((4, 4), {"solvable": False,
                                          "derived_codim": "1|0"}),
        }
        assert rows_to_tsv(rows, checks).splitlines()[1].split("\t")[5:] == [
            "True", "1|0", ""]


class TestErrorScope:
    """Only SuperlieError becomes an error row; anything else is a bug and
    propagates."""

    # run_census ignores threads and runs serially, so one case is enough
    @pytest.mark.parametrize("threads", [1])
    def test_library_bug_propagates(self, monkeypatch, threads):
        def broken(m, n, ctx):
            raise IndexError("boolean index did not match")

        monkeypatch.setattr(constructions, "sl", broken)
        with pytest.raises(IndexError):
            run_census([("sl", {"m": 2, "n": 1}, 5),
                        ("psq", {"n": 2}, 5)], ("simple",), threads=threads)

    def test_d21_error_rows_name_the_violation(self):
        rows = run_census(grid_d21(), ("simple",))
        errors = [r.error for r in rows if r.error]
        assert len(errors) == 3
        assert all(e.startswith("JacobiViolation: graded Jacobi fails")
                   for e in errors)

    def test_presets_are_byte_stable(self):
        # sha256 of `superlie census <preset> --format tsv|jsonl` at seed 0
        digests = {
            "sl-dichotomy": (
                "211b8e6445596fe701b20da1c6ae495f44cb8734a584c84f0f7c743e8ac859bb",
                "43598ca21044ca9f79e4515c9f2cd53f71a36d5b80f858aeab306a420b0d8e8a"),
            "family-catalog": (
                "18af7dcf386b097e846c7929a7208cda79f6fc1ccaabf9ae3f346f2f022a3676",
                "8ad20c48da88887befb95fe3465a9b75b14d09e1977e5185a779a100091ec91b"),
            "d21": (
                "96cbd1b25b47bff2aca6a34fc89705f60b0e2efca5dfddd36ce4f4e7ea33aabd",
                "da862ff46f896f6334b0e99df647a0105f944c28ddd66aedb197cc40ef899f62"),
        }
        for preset, (tsv, jsonl) in digests.items():
            gridf, checks = GRID_PRESETS[preset]
            rows = run_census(gridf(), checks, seed=0)
            for text, want in ((rows_to_tsv(rows, checks), tsv),
                               (rows_to_jsonl(rows), jsonl)):
                assert hashlib.sha256(text.encode()).hexdigest() == want, preset

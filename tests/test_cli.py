import hashlib
import json
import os
import subprocess
import sys

import pytest

import superlie.brj as brj_module
from superlie.brj import brj25
from superlie.cli import _brj_report_dict, main, make_parser
from superlie.constructions import sl, sl2_symn_pair, symn_dual, symn_module
from superlie.fields import FieldCtx
from superlie.modules import sym2
from superlie.pairs import pair_to_json_dict


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


class TestBuild:
    def test_valid_family(self, capsys):
        rc, out, _ = run(capsys, "build", "sl", "--m", "2", "--n", "1",
                         "--p", "3")
        assert rc == 0
        assert "dims 4|4, valid" in out

    def test_invalid_point_exits_1(self, capsys):
        rc, out, _ = run(capsys, "build", "d21", "--a1", "1", "--a2", "1",
                         "--a3", "1", "--p", "0")
        assert rc == 1
        assert out.startswith("invalid: JacobiViolation")

    def test_negative_fraction_in_equals_form(self, capsys):
        # every valid d21 point over Q but (0, 0, 0) has a negative entry
        rc, out, _ = run(capsys, "build", "d21", "--a1", "1/2", "--a2", "1",
                         "--a3=-3/2", "--p", "0")
        assert rc == 0
        assert "dims 9|8, valid" in out

    @pytest.mark.parametrize("argv, error", [
        (("sl", "--m", "1", "--n", "0", "--p", "5"), "InputError"),
        (("d21", "--a1", "x", "--a2", "1", "--a3", "1"), "InputError"),
        (("sl", "--m", "2", "--n", "1", "--p", "4"), "InputError"),
    ])
    def test_bad_input_exits_1(self, capsys, argv, error):
        rc, out, _ = run(capsys, "build", *argv)
        assert rc == 1
        assert out.startswith(f"invalid: {error}")

    def test_library_bug_is_not_invalid_input(self, monkeypatch):
        from superlie import constructions

        def broken(m, n, ctx):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(constructions, "sl", broken)
        with pytest.raises(ValueError):
            main(["build", "sl", "--m", "2", "--n", "1"])

    def test_unknown_family_exits_2(self, capsys):
        rc, _, err = run(capsys, "build", "nope", "--p", "5")
        assert rc == 2
        assert "unknown family" in err

    def test_missing_param_exits_2(self, capsys):
        rc, _, err = run(capsys, "build", "sl", "--m", "2", "--p", "5")
        assert rc == 2
        assert "requires --n" in err

    def test_write_json(self, capsys, tmp_path):
        path = str(tmp_path / "alg.json")
        rc, out, _ = run(capsys, "build", "psq", "--n", "3", "--p", "5",
                         "--out", path)
        assert rc == 0
        with open(path) as f:
            d = json.load(f)
        assert len(d["basis"]) == 16


class TestCheck:
    def test_simple_with_witness(self, capsys):
        rc, out, _ = run(capsys, "check", "--family", "sl", "--m", "3",
                         "--n", "3", "--p", "5", "simple")
        assert rc == 0
        assert "simple: NotSimple, witness dim 1|0" in out

    def test_norton_witness_dims(self, capsys):
        rc, out, _ = run(capsys, "check", "--family", "psq", "--n", "2",
                         "--p", "3", "simple")
        assert rc == 0
        assert "simple: NotSimple, witness dim 0|3" in out
        rc, out, _ = run(capsys, "check", "--family", "d21", "--a1", "0",
                         "--a2", "1", "--a3", "4", "--p", "5", "simple")
        assert rc == 0
        assert "simple: NotSimple, witness dim 6|8" in out

    def test_expectation_pass(self, capsys):
        rc, _, _ = run(capsys, "check", "--family", "spo", "--m", "1",
                       "--odd", "3", "--p", "3", "simple",
                       "--expect", "simple=GradedSimple")
        assert rc == 0

    def test_expectation_fail(self, capsys):
        rc, out, _ = run(capsys, "check", "--family", "spo", "--m", "1",
                         "--odd", "3", "--p", "3", "simple",
                         "--expect", "simple=NotSimple")
        assert rc == 1
        assert "expectation failed" in out

    def test_check_from_file(self, capsys, tmp_path):
        path = str(tmp_path / "alg.json")
        run(capsys, "build", "psl", "--m", "2", "--n", "2", "--p", "3",
            "--out", path)
        rc, out, _ = run(capsys, "check", "--file", path, "derived", "center")
        assert rc == 0
        assert "center: 0|0" in out

    def test_cubic_on_catalog_algebra(self, capsys):
        rc, out, _ = run(capsys, "check", "cubic", "--family", "spo", "--m",
                         "1", "--odd", "3", "--p", "5",
                         "--expect", "cubic=pass")
        assert (rc, out) == (0, "cubic: pass\n")

    def test_sas_from_pair_file(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair_to_json_dict(
            sl2_symn_pair(3, 1, FieldCtx.prime(3))), indent=1))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "46ecb18e241c473b7d61f35f797fab253abcef37f7afe94dc674e8da219f354c"
        rc, out, _ = run(capsys, "check", "sas", "cubic", "--file", str(path))
        assert (rc, out) == (0, "sas: true,true\ncubic: pass\n")

    def test_sas_needs_a_pair_file(self, capsys):
        rc, _, err = run(capsys, "check", "sas", "--family", "sl", "--m", "2",
                         "--n", "1", "--p", "5")
        assert rc == 2
        assert "sas check needs a pair JSON" in err


class TestHom:
    def test_catalog_pair_odd_n(self, capsys):
        rc, out, _ = run(capsys, "hom", "sym2-dual-sym", "adjoint-sl2",
                         "--n", "3", "--p", "5")
        assert rc == 0
        assert "dim: 1" in out

    def test_catalog_pair_even_n(self, capsys):
        rc, out, _ = run(capsys, "hom", "sym2-dual-sym", "adjoint-sl2",
                         "--n", "4", "--p", "7")
        assert rc == 0
        assert "dim: 0" in out

    def test_both_modes(self, capsys):
        rc, out, _ = run(capsys, "hom", "sym2-dual-sym", "adjoint-sl2",
                         "--n", "3", "--p", "7", "--mode", "both")
        assert rc == 0
        assert "dim group: 1" in out and "dim algebra: 1" in out

    @pytest.mark.parametrize("argv, msg", [
        (("adjoint-sl2", "adjoint-sl2", "--p", "4"),
         "InputError: not an odd prime < 2^31: 4"),
        (("sym2-dual-sym", "adjoint-sl2", "--n", "-1", "--p", "5"),
         "InputError: n must be nonnegative"),
    ])
    def test_bad_input_exits_1(self, capsys, argv, msg):
        rc, out, _ = run(capsys, "hom", *argv)
        assert (rc, out) == (1, f"invalid: {msg}\n")

    def test_invalid_module_file_exits_1(self, capsys, tmp_path):
        # a module file whose family breaks the composition law
        d = json.loads(symn_dual(3, FieldCtx.prime(5)).to_json())
        d["families"][0]["ops"][1][0][0] = "1"
        path = tmp_path / "module.json"
        path.write_text(json.dumps(d))
        rc, out, _ = run(capsys, "hom", str(path), "adjoint-sl2")
        assert rc == 1
        assert out.startswith("invalid: CompositionViolation")


class TestRepeatedMain:
    """main parses with one parser per process; each call still behaves as
    a fresh process."""

    def test_options_do_not_carry_over(self, capsys, tmp_path):
        assert make_parser() is make_parser()
        path = tmp_path / "hom.json"
        rc, out, _ = run(capsys, "hom", "sym2-dual-sym", "adjoint-sl2",
                         "--n", "3", "--p", "7", "--mode", "both",
                         "--out", str(path))
        assert rc == 0 and out.endswith(f"wrote {path}\n")
        path.unlink()
        rc, out, _ = run(capsys, "hom", "sym2-dual-sym", "adjoint-sl2",
                         "--n", "3")
        # no --out, and the defaults --p 5 and --mode group again
        assert (rc, out) == (0, "dim: 1\n") and not path.exists()
        rc, out, _ = run(capsys, "check", "center", "--family", "sl",
                         "--m", "2", "--n", "2", "--p", "3",
                         "--expect", "center=0|0")
        assert rc == 1
        rc, out, _ = run(capsys, "check", "center", "--family", "sl",
                         "--m", "2", "--n", "2", "--p", "3")
        assert (rc, out) == (0, "center: 1|0\n")


class TestBrj:
    def test_char5_run(self, capsys, tmp_path):
        path = str(tmp_path / "report.json")
        rc, out, _ = run(capsys, "brj", "--skip-simplicity",
                         "--report", path)
        assert rc == 0
        assert "final dims: 10|12" in out
        assert "stage U: dim 12" in out
        with open(path) as f:
            d = json.load(f)
        assert d["p"] == 5
        assert d["hom_dim_group"] == 1
        assert d["sas"] == [True, True]

    def test_char7_halts(self, capsys):
        rc, out, _ = run(capsys, "brj", "--p", "7")
        assert rc == 1
        assert "pipeline halted at stage hom: expected 1, got 0" in out

    def test_bad_characteristic_exits_1(self, capsys):
        rc, out, _ = run(capsys, "brj", "--p", "4")
        assert (rc, out) == (1, "invalid: InputError: not an odd prime "
                                "< 2^31: 4\n")


# sha256 of `hom sym2-dual-sym adjoint-sl2 --n N --p P --mode M --out FILE`;
# every zero-dimensional space writes the same file
_EMPTY_GROUP = "7c28125a3e9bda72d44d4c112ac7ace6d83148f0ee4b96ce2bbbdab6620281bf"
_EMPTY_ALGEBRA = "798540945ffe90e3c21df05191a2a2f2d908dd86eaaa47ce1860451d188caaad"
HOM_DIGESTS = {
    ("group", 7, 1): "7eb846dfeb4bbdfda59517ac9f506a6b0c76218eade58dd3f16775491282969c",
    ("group", 7, 2): _EMPTY_GROUP,
    ("group", 7, 3): "bfa2372792f08180614c999d3acb79a8e368b14a4440a2d1e6df82690a71cc69",
    ("group", 7, 4): _EMPTY_GROUP,
    ("group", 7, 5): "a436e10d2939cb35d21be6e9fe6b39a04dc2909d50fb95d326947aeaa0591371",
    ("group", 7, 6): _EMPTY_GROUP,
    ("group", 0, 1): "3d5c9cb6b9d605c076579eb84d3de030c4f2beeef01f611764de5fbda198f21e",
    ("group", 0, 2): _EMPTY_GROUP,
    ("group", 0, 3): "c292e69ae31daccd26ad17fd95f9790fe130e5c0bb133c85974250a1e8087408",
    ("group", 0, 4): _EMPTY_GROUP,
    ("group", 0, 5): "ed4cc9422f939cfe69aef33fb9803f5b5493e4d97a7d0027c18a0884e96db998",
    ("group", 2**31 - 1, 1): "6fcfeb7c7b2a8138cf67d9dea3dfbddef184ef36972b782d2f70e7fa0659418b",
    ("group", 2**31 - 1, 2): _EMPTY_GROUP,
    ("algebra", 7, 1): "11762d7363aa7b018a1dd17cd8e8d26775b3265b457526e450e868cad4527dfd",
    ("algebra", 7, 2): _EMPTY_ALGEBRA,
    ("algebra", 7, 3): "307d115f4ee8cfd28c5af1ba3e73e21257b23636b4fdd22205287c1571bfe4d1",
    ("algebra", 7, 4): _EMPTY_ALGEBRA,
    ("algebra", 7, 5): "13312553db1b095f0e3715b80e96991f4a702c9d85ebed4bb8516553473ccd48",
    ("algebra", 7, 6): _EMPTY_ALGEBRA,
    ("algebra", 0, 1): "964f2c7a6d10371b64a3afed391acc997a18d8bbfce6335de41b6bb8adafb17c",
    ("algebra", 0, 2): _EMPTY_ALGEBRA,
    ("algebra", 0, 3): "ace004c6eaf573c412ae86825f9dbf22be42ba3cd55f9a61dfb21cccf8822d36",
    ("algebra", 0, 4): _EMPTY_ALGEBRA,
    ("algebra", 0, 5): "c10f2625b4d02b99ca42621b233569e49086585cb6eb82b7303f051073bfd95d",
    ("algebra", 2**31 - 1, 1): "3d9b6b03d38f490ee56f9eb1d82ee6d94b5f4395148a44e6658503968cb447c9",
    ("algebra", 2**31 - 1, 2): _EMPTY_ALGEBRA,
}


@pytest.fixture(scope="module")
def brj_square_inputs():
    """{"sym2(U)", "lambda2(V)", "tensor(V,Lw2)"}: (function, arguments) of
    the first sym2, lambda2 and tensor call of brj25(5)."""
    seen = {}

    def record(fn, name):
        def call(*args):
            names = ",".join(m.meta["name"] for m in args)
            seen.setdefault(f"{name}({names})", (fn, args))
            return fn(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for fn in (brj_module.sym2, brj_module.lambda2, brj_module.tensor):
            mp.setattr(brj_module, fn.__name__, record(fn, fn.__name__))
        brj25(5, skip_simplicity=True)
    return seen


class TestByteStable:
    @pytest.mark.parametrize("mode, p, n", sorted(HOM_DIGESTS))
    def test_hom_out_file(self, capsys, tmp_path, mode, p, n):
        path = str(tmp_path / "hom.json")
        rc, _, _ = run(capsys, "hom", "sym2-dual-sym", "adjoint-sl2",
                       "--n", str(n), "--p", str(p), "--mode", mode,
                       "--out", path)
        assert rc == 0
        with open(path, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == \
                HOM_DIGESTS[mode, p, n]

    def test_brj_report_and_algebra(self):
        # the --report JSON without its timings, and the 10|12 algebra
        report = brj25(5)
        d = _brj_report_dict(report)
        del d["seconds"]
        text = json.dumps(d, indent=1)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "5ab5b1750cafad31b6950a166b595a56983a758490f7b6495d347d45d9e9550d"
        text = report.algebra.to_json(sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "9565e15b7ec4c3435728347eb764a5fd05396fe7d8ad92a2b4a31dd968d1a613"

    @pytest.mark.parametrize("name, digest", [
        ("sym2(U)",
         "814db163bdfe2f342c54c7c7710f40d41697f5f985582bde68d165aeb24914f5"),
        ("lambda2(V)",
         "f79db68cc600cf27da22756ef4f18dbeb3aa4539943e93ee129a55a43e03e5ff"),
        ("tensor(V,Lw2)",
         "d1e67d17314cc64af8984199f4b28587c85e18f825d1d4e5eac62374ebda20a3"),
    ])
    def test_brj_module_json(self, brj_square_inputs, name, digest):
        # the to_json() of Sym2, Lambda2 and the tensor product, built on
        # the modules the p = 5 pipeline passes to them
        fn, args = brj_square_inputs[name]
        text = fn(*args).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name, build, digest", [
        ("sym2-dual3-F7", lambda _: sym2(symn_dual(3, FieldCtx.prime(7))),
         "5ff66d882ee15d6a0ef177dd529ead0dfcfac1cf30f1b983d89138e3b6afa37a"),
        ("U-F5", lambda inputs: inputs["sym2(U)"][1][0],
         "08cd2ba879d36bed0e0e6ea1216aa6d2973e3bd4c80d9df0c333967b9b210ded"),
    ])
    def test_table_held_module_json(self, brj_square_inputs, name, build,
                                    digest):
        # the sha256 the modules had when they held dense operators
        text = build(brj_square_inputs).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_hom_both_out_file(self, capsys, tmp_path):
        path = str(tmp_path / "hom.json")
        rc, _, _ = run(capsys, "hom", "sym2-dual-sym", "adjoint-sl2",
                       "--mode", "both", "--n", "3", "--p", "7", "--out",
                       path)
        assert rc == 0
        with open(path, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == \
                "35b20bed44b835d62de46f5d447fa5a354731f6362a0cbf13453cfa26141c3c0"

    def test_sym2_dual_module_json_over_q(self):
        text = sym2(symn_dual(3, FieldCtx.rationals())).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "7b540b6cdd7776122618699b1d032eaf072b7f1118c458f3cae434cd96dab384"


class TestCensus:
    def test_tsv_to_stdout(self, capsys):
        rc, out, _ = run(capsys, "census", "family-catalog")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("family\tparams\tp")
        assert len(lines) == 20  # header + 19 rows

    @pytest.mark.parametrize("preset, fmt, rows, digest", [
        ("family-catalog", "tsv", 19,
         "18af7dcf386b097e846c7929a7208cda79f6fc1ccaabf9ae3f346f2f022a3676"),
        ("d21", "jsonl", 20,
         "da862ff46f896f6334b0e99df647a0105f944c28ddd66aedb197cc40ef899f62"),
    ])
    def test_out_file(self, capsys, tmp_path, preset, fmt, rows, digest):
        path = tmp_path / f"census.{fmt}"
        rc, out, _ = run(capsys, "census", preset, "--format", fmt,
                         "--out", str(path))
        assert (rc, out) == (0, f"wrote {path} ({rows} rows)\n")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_unknown_preset_exits_2(self, capsys):
        rc, _, err = run(capsys, "census", "nope")
        assert rc == 2
        assert "unknown preset" in err

    def test_threads_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["census", "d21", "--threads", "2"])
        assert e.value.code == 2
        assert "--threads" in capsys.readouterr().err


class TestValidateFile:
    def test_valid_and_corrupted(self, capsys, tmp_path):
        path = str(tmp_path / "alg.json")
        run(capsys, "build", "sl", "--m", "2", "--n", "1", "--p", "5",
            "--out", path)
        rc, out, _ = run(capsys, "validate-file", path)
        assert rc == 0 and "valid algebra: dims 4|4" in out

        with open(path) as f:
            d = json.load(f)
        d["brackets"].append([1, 0, [[0, "2"]]])  # breaks the mirror rule
        with open(path, "w") as f:
            json.dump(d, f)
        rc, out, _ = run(capsys, "validate-file", path)
        assert rc == 1
        assert out.startswith("invalid: SkewViolation")

    def test_float_coefficient_rejected(self, capsys, tmp_path):
        path = str(tmp_path / "alg.json")
        run(capsys, "build", "sl", "--m", "2", "--n", "1", "--p", "5",
            "--out", path)
        with open(path) as f:
            d = json.load(f)
        d["brackets"][0][2][0][1] = 1.0  # a JSON number, not an exact string
        with open(path, "w") as f:
            json.dump(d, f)
        rc, out, _ = run(capsys, "validate-file", path)
        assert rc == 1
        assert out.startswith("invalid: InexactScalar")

    @pytest.mark.parametrize("kind, edit", [
        ("algebra", lambda d: d["basis"][0].update(parity=2)),
        ("algebra", lambda d: d["brackets"][0].__setitem__(0, 0.9)),
        ("module", lambda d: d["weights"].__setitem__(0, ["a"])),
        ("module", lambda d: d["weights"].__setitem__(0, [2.5])),
        ("module", lambda d: d["families"][0].update(root=[2.0])),
        ("pair", lambda d: d["odd_bracket"][0].__setitem__(1, 1.5)),
    ], ids=["parity-2", "index-0.9", "weight-str", "weight-float",
            "root-float", "odd-pair-1.5"])
    def test_inexact_json_entries_rejected(self, capsys, tmp_path, kind,
                                           edit):
        # sl(2|1), Sym_2 and sl2 x Sym_1* at p = 5 with one parity, bracket
        # index, weight or root that is not an int: each is rejected, not
        # coerced
        ctx = FieldCtx.prime(5)
        d = {"algebra": lambda: sl(2, 1, ctx).to_json_dict(),
             "module": lambda: symn_module(2, ctx).to_json_dict(),
             "pair": lambda: pair_to_json_dict(sl2_symn_pair(1, 1, ctx))}[kind]()
        edit(d)
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(d))
        rc, out, _ = run(capsys, "validate-file", str(path))
        assert rc == 1
        assert out.startswith("invalid: InputError")

    def test_pair_and_module_files(self, capsys, tmp_path):
        pair = sl2_symn_pair(3, 1, FieldCtx.prime(3))
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair_to_json_dict(pair)))
        rc, out, _ = run(capsys, "validate-file", str(path))
        assert (rc, out) == (0, "valid pair: dims 3|4\n")
        path = tmp_path / "module.json"
        path.write_text(sym2(symn_dual(3, FieldCtx.rationals())).to_json())
        rc, out, _ = run(capsys, "validate-file", str(path))
        assert (rc, out) == (0, "valid module: dim 10\n")
        # a module file whose family breaks the composition law
        d = json.loads(path.read_text())
        d["families"][0]["ops"][1][0][0] = "1"
        path.write_text(json.dumps(d))
        rc, out, _ = run(capsys, "validate-file", str(path))
        assert rc == 1
        assert out.startswith("invalid: CompositionViolation")

    def test_module_op_of_another_shape(self, capsys, tmp_path):
        # Sym_1 at p = 5 with X2's op_1 replaced by a 3 x 3 nilpotent
        d = symn_module(1, FieldCtx.prime(5)).to_json_dict()
        fam = next(f for f in d["families"] if f["label"] == "X2")
        fam["ops"][1] = [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]
        path = tmp_path / "module.json"
        path.write_text(json.dumps(d))
        rc, out, _ = run(capsys, "validate-file", str(path))
        assert rc == 1
        assert out.startswith("invalid: DimensionMismatch")

    def test_unrecognized_shape_exits_2(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        rc, _, err = run(capsys, "validate-file", str(path))
        assert rc == 2
        assert "unrecognized JSON shape" in err

    def test_missing_file_exits_2(self, capsys):
        rc, _, err = run(capsys, "validate-file", "/no/such/file.json")
        assert rc == 2
        assert "cannot read" in err


def test_census_and_brj_never_import_numpy_ma():
    # numpy.ma (pulled in by np.unique, for one) costs about 0.7 MB of peak
    # resident memory; a census row of each benchmark slice and the brj run
    # do without it
    code = """
import sys
from superlie.census import run_census
from superlie.cli import main
run_census([("sl", {"m": 2, "n": 1}, 3)], ("simple", "center_dim"))
run_census([("psq", {"n": 3}, 5), ("d21", {"a1": 1, "a2": 1, "a3": 1}, 5)],
           ("simple",), threads=2)
assert main(["brj", "--p", "5"]) == 0
print("numpy.ma" in sys.modules)
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "False"

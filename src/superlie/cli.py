"""Command-line front door.

Exit codes: 0 success, 1 check/validation failure (an input the library
rejects with a SuperlieError prints "invalid: <Type>: <msg>"), 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .fields import FieldCtx, SuperlieError
from .superalgebra import algebra_from_json_dict
from .modules import hom_space, module_from_json_dict, sym2
from .pairs import check_sas_conditions, pair_from_json_dict
from .census import (
    FAMILIES,
    GRID_PRESETS,
    build_from_params,
    run_census,
    rows_to_jsonl,
    rows_to_tsv,
)


def _collect_params(family: str, args) -> dict:
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}; "
                         f"known: {', '.join(sorted(FAMILIES))}")
    params = {}
    for name in FAMILIES[family][0]:
        val = getattr(args, name, None)
        if val is None:
            raise UsageError(f"family {family} requires --{name}")
        params[name] = val
    return params


class UsageError(Exception):
    pass


def _add_family_flags(sub):
    sub.add_argument("--m", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--odd", type=int)
    # argparse takes "-2" as a value but reads "-3/2" as an option, so a
    # negative fraction needs the = form
    for a in ("--a1", "--a2", "--a3"):
        sub.add_argument(a, help="d21 parameter, an integer or fraction; "
                         f"write a negative fraction as {a}=-3/2")
    sub.add_argument("--p", type=int, default=5,
                     help="characteristic; 0 for the rationals")


def cmd_build(args) -> int:
    params = _collect_params(args.family, args)
    alg = build_from_params(args.family, params, FieldCtx(args.p))
    de, do = alg.dims
    print(f"{args.family}: dims {de}|{do}, valid")
    if args.out:
        with open(args.out, "w") as f:
            f.write(alg.to_json(indent=1))
        print(f"wrote {args.out}")
    return 0


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}")


def cmd_check(args) -> int:
    if args.file:
        d = _load_json(args.file)
        if "odd_bracket" in d:
            pair = pair_from_json_dict(d)
            alg = pair.algebra
        else:
            pair = None
            alg = algebra_from_json_dict(d)
    elif args.family:
        pair = None
        params = _collect_params(args.family, args)
        alg = build_from_params(args.family, params, FieldCtx(args.p))
    else:
        raise UsageError("check needs --family or --file")

    results = {}
    for c in args.checks:
        if c == "simple":
            v = alg.is_graded_simple(seed=args.seed)
            if v.witness is not None:
                de, do = v.witness.dims
                results[c] = f"{v.verdict}, witness dim {de}|{do}"
            else:
                results[c] = v.verdict
        elif c == "solvable":
            results[c] = str(alg.is_solvable()).lower()
        elif c == "center":
            results[c] = "|".join(map(str, alg.center().dims))
        elif c == "derived":
            results[c] = "|".join(map(str, alg.derived_subalgebra().dims))
        elif c == "cubic":
            results[c] = "pass" if alg.validate_cubic_odd().ok else "fail"
        elif c == "sas":
            if pair is None:
                raise UsageError("sas check needs a pair JSON via --file")
            c1, c2, _ = check_sas_conditions(pair)
            results[c] = f"{str(c1).lower()},{str(c2).lower()}"
        else:
            raise UsageError(f"unknown check {c!r}")
    for k, v in results.items():
        print(f"{k}: {v}")
    rc = 0
    for spec in args.expect or []:
        if "=" not in spec:
            raise UsageError(f"--expect wants name=value, got {spec!r}")
        name, want = spec.split("=", 1)
        got = results.get(name)
        if got != want:
            print(f"expectation failed: {name}: want {want!r}, got {got!r}")
            rc = 1
    return rc


def _catalog_module(name: str, args):
    from .constructions import adjoint_sl2_module, symn_dual
    ctx = FieldCtx(args.p)
    if name == "sym2-dual-sym":
        if args.n is None:
            raise UsageError("sym2-dual-sym needs --n")
        return sym2(symn_dual(args.n, ctx))
    if name == "adjoint-sl2":
        return adjoint_sl2_module(ctx)
    # otherwise a module JSON file
    return module_from_json_dict(_load_json(name))


def cmd_hom(args) -> int:
    m1 = _catalog_module(args.source, args)
    m2 = _catalog_module(args.target, args)
    if m1.ctx != m2.ctx:
        print(f"field mismatch: {m1.ctx} vs {m2.ctx}")
        return 2
    rep = hom_space(m1, m2, mode=args.mode)
    if args.mode == "both":
        print(f"dim group: {rep.dim_group}")
        print(f"dim algebra: {rep.dim_algebra}")
    else:
        print(f"dim: {rep.dim}")
    if args.out:
        data = [m.to_rows() for m in rep.basis]
        with open(args.out, "w") as f:
            json.dump({"mode": args.mode, "dim": rep.dim, "basis": data}, f)
        print(f"wrote {args.out}")
    return 0


def _brj_report_dict(report) -> dict:
    return {
        "p": report.p,
        "stage_dims": report.stage_dims,
        "socle_matches_expected": report.socle_matches_expected,
        "hom_dim_group": report.hom_dim_group,
        "hom_dim_algebra": report.hom_dim_algebra,
        "first_constant": report.first_constant,
        "dims": list(report.algebra.dims) if report.algebra else None,
        "sas": list(report.sas) if report.sas else None,
        "simplicity": report.simplicity,
        "seconds": {k: round(v, 3) for k, v in report.seconds.items()},
    }


def cmd_brj(args) -> int:
    from .brj import PipelineAssertion, brj25
    try:
        report = brj25(p=args.p, skip_simplicity=args.skip_simplicity,
                       seed=args.seed)
    except PipelineAssertion as e:
        print(f"pipeline halted at stage {e.stage}: "
              f"expected {e.expected}, got {e.got}")
        if e.report is not None:
            for k, v in e.report.stage_dims.items():
                print(f"  stage {k}: dim {v}")
            if args.report:
                with open(args.report, "w") as f:
                    json.dump(_brj_report_dict(e.report), f, indent=1)
        return 1
    for k, v in report.stage_dims.items():
        print(f"stage {k}: dim {v}")
    de, do = report.algebra.dims
    print(f"final dims: {de}|{do}")
    print(f"first constant normalized: {report.first_constant}")
    print(f"sas: {report.sas}")
    if report.simplicity is not None:
        print(f"simplicity: {report.simplicity}")
    if args.report:
        with open(args.report, "w") as f:
            json.dump(_brj_report_dict(report), f, indent=1)
        print(f"wrote {args.report}")
    return 0


def cmd_census(args) -> int:
    if args.preset not in GRID_PRESETS:
        raise UsageError(f"unknown preset {args.preset!r}; "
                         f"known: {', '.join(sorted(GRID_PRESETS))}")
    gridf, checks = GRID_PRESETS[args.preset]
    rows = run_census(gridf(), checks, seed=args.seed)
    text = (rows_to_tsv(rows, checks) if args.format == "tsv"
            else rows_to_jsonl(rows))
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate_file(args) -> int:
    d = _load_json(args.path)
    if "odd_bracket" in d:
        pair = pair_from_json_dict(d)
        de, do = pair.algebra.dims
        print(f"valid pair: dims {de}|{do}")
    elif "families" in d:
        mod = module_from_json_dict(d)
        print(f"valid module: dim {mod.dim}")
    elif "brackets" in d:
        alg = algebra_from_json_dict(d)
        de, do = alg.dims
        print(f"valid algebra: dims {de}|{do}")
    else:
        raise UsageError("unrecognized JSON shape")
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged
    and gives every call a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="superlie",
        description="exact construction and verification of modular Lie "
                    "superalgebras and Harish-Chandra pairs")
    ap.add_argument("--seed", type=int, default=0,
                    help="RNG seed for simplicity probes")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a catalog algebra, write JSON")
    b.add_argument("family")
    _add_family_flags(b)
    b.add_argument("--out")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("check", help="run structural checks")
    c.add_argument("checks", nargs="+",
                   help="simple solvable center derived cubic sas")
    c.add_argument("--family")
    c.add_argument("--file")
    _add_family_flags(c)
    c.add_argument("--expect", action="append",
                   help="name=value; exit 1 unless the check matches")
    c.set_defaults(func=cmd_check)

    h = sub.add_parser("hom", help="equivariant map space between modules")
    h.add_argument("source", help="catalog name or module JSON path")
    h.add_argument("target", help="catalog name or module JSON path")
    h.add_argument("--n", type=int)
    h.add_argument("--p", type=int, default=5)
    h.add_argument("--mode", choices=("group", "algebra", "both"),
                   default="group")
    h.add_argument("--out")
    h.set_defaults(func=cmd_hom)

    r = sub.add_parser("brj", help="run the characteristic-5 pipeline")
    r.add_argument("--p", type=int, default=5)
    r.add_argument("--report", help="write the report JSON here")
    r.add_argument("--skip-simplicity", action="store_true")
    r.set_defaults(func=cmd_brj)

    n = sub.add_parser("census", help="tabulate a dichotomy over a grid")
    n.add_argument("preset", help=", ".join(sorted(GRID_PRESETS)))
    n.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    n.add_argument("--out")
    n.set_defaults(func=cmd_census)

    v = sub.add_parser("validate-file", help="revalidate a JSON artifact")
    v.add_argument("path")
    v.set_defaults(func=cmd_validate_file)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except SuperlieError as e:
        # PipelineAssertion is caught by cmd_brj; a numpy or Python error
        # is a library bug and propagates
        print(f"invalid: {type(e).__name__}: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

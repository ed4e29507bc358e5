"""Command line entry point.

Subcommands: check, search, tables, verify-monodromy, verify-ode,
verify-jacobi.  Exit codes: 0 pass, 1 predicate or reproduction failure,
2 usage error.  JSON is the machine format.  search prints tsv (the
default) or json, and the other subcommands json or text, a human summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .criteria import full_report
from .jacobi import hodge_newton_report, least_prime_above
from .monodromy import verify_annihilation, verify_levelt
from .params import MAX_D, MAX_WORKERS, ValidationError, parse
from .search import CheckpointError, SearchSpec, passing_moduli, run_search
from .tables import POSSIBLE_D, reproduce_special

SCHEMA_VERSION = 1


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        payload = {"schema": SCHEMA_VERSION, **payload}
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")


def _parse_param(literal: str):
    """The parameter, or None after reporting the bad literal."""
    try:
        return parse(literal)
    except (ValidationError, ValueError) as exc:
        print(f"bad parameter literal: {exc}", file=sys.stderr)
        return None


def _verify_param(literal: str):
    """_parse_param, also refusing d above params.MAX_D before any arithmetic."""
    p = _parse_param(literal)
    if p is not None and p.d > MAX_D:
        print(f"bad parameter: d = {p.d} is above the cap {MAX_D}", file=sys.stderr)
        return None
    return p


def _cmd_check(args) -> int:
    p = _parse_param(args.param)
    if p is None:
        return 2
    try:
        rep = full_report(p)
    except ValueError as exc:
        print(f"bad check: {exc}", file=sys.stderr)
        return 2
    _emit(rep.to_dict(), args.format)
    return 0 if rep.passes(args.allow_bm_discrepancy) else 1


def _cmd_search(args) -> int:
    try:
        partition = tuple(int(x) for x in args.partition.split(","))
        spec = SearchSpec(
            n=args.n,
            partition=partition,
            d_min=args.d_min,
            d_max=args.d_max,
            workers=args.jobs,
            dedup_by_scaling=args.dedup,
            limit=args.limit,
            checkpoint=args.checkpoint,
            published=not args.strict_criteria,
        )
    except (ValueError, TypeError) as exc:
        print(f"bad search spec: {exc}", file=sys.stderr)
        return 2
    try:
        results = run_search(spec)
    except CheckpointError as exc:
        print(f"bad checkpoint: {exc}", file=sys.stderr)
        return 2
    if args.format == "tsv":
        print("n\td\talpha\tbeta\tc")
        for r in results:
            print(args.n, r["d"], *(",".join(map(str, r[k])) for k in ("alpha", "beta", "c")), sep="\t")
    else:
        _emit({"results": results}, "json")
    return 0


def _cmd_tables(args) -> int:
    if not 1 <= args.jobs <= MAX_WORKERS:
        print(f"bad tables run: workers = {args.jobs} is not in 1..{MAX_WORKERS}", file=sys.stderr)
        return 2
    if args.which == "special":
        verdicts, discrepancies = reproduce_special()
        payload = {
            "rows": [v.to_dict() for v in verdicts],
            "discrepancies": discrepancies,
        }
        if args.format == "json":
            _emit(payload, "json")
        else:
            for d in payload["rows"]:
                print(f"{d['param']}: {'pass' if d['verdict'] else 'FAIL'}")
            for dd in discrepancies:
                print(
                    f"discrepancy {dd['param']}: BM bullet {dd['failed_bullet']}"
                    f" ({'documented' if dd['documented'] else 'UNDOCUMENTED'})"
                )
        return 0 if all(v.passes for v in verdicts) else 1
    # possible-d: recompute the n=4 rows (the cheap exhaustive ones)
    report = {}
    for part in ((2, 2), (3, 1)):
        got = passing_moduli(4, part, 3, 30, workers=args.jobs)
        report[",".join(map(str, part))] = {"expected": list(POSSIBLE_D[part]), "computed": got}
    ok = all(v["expected"] == v["computed"] for v in report.values())
    if args.format == "json":
        _emit({"rows": report}, "json")
    else:
        for k, v in report.items():
            print(f"{k}: expected {v['expected']} computed {v['computed']}")
    return 0 if ok else 1


def _cmd_verify_monodromy(args) -> int:
    p = _verify_param(args.param)
    if p is None:
        return 2
    ok = verify_levelt(p)
    _emit({"param": p.literal(), "monodromy_ok": ok}, args.format)
    return 0 if ok else 1


def _cmd_verify_ode(args) -> int:
    p = _verify_param(args.param)
    if p is None:
        return 2
    try:
        results = {j: verify_annihilation(p, j, args.order) for j in range(1, p.n + 1)}
    except ValueError as exc:
        print(f"bad ode check: {exc}", file=sys.stderr)
        return 2
    _emit(
        {"param": p.literal(), "order": args.order, "annihilated": results},
        args.format,
    )
    return 0 if all(results.values()) else 1


def _cmd_verify_jacobi(args) -> int:
    p = _verify_param(args.param)
    if p is None:
        return 2
    ell = least_prime_above(p.d) if args.ell is None else args.ell
    try:
        vals, match = hodge_newton_report(p, ell)
    except ValueError as exc:
        print(f"bad jacobi check: {exc}", file=sys.stderr)
        return 2
    payload = {
        "embeddings": {str(s): {"valuations": v} for s, v in vals.items()},
        "hodge_match": match,
    }
    _emit(payload, args.format)
    return 0 if match else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="hgsearch")
    sub = top.add_subparsers(dest="cmd", required=True)

    def add_fmt(sp, choices=("json", "text"), default="json"):
        sp.add_argument("--format", choices=choices, default=default)

    sp = sub.add_parser("check", help="evaluate every criterion on one parameter")
    sp.add_argument("--param", required=True)
    sp.add_argument("--allow-bm-discrepancy", action="store_true")
    add_fmt(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("search", help="enumerate passing parameters")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--partition", required=True, help="comma list, e.g. 2,2")
    sp.add_argument("--d-min", type=int, default=3)
    sp.add_argument("--d-max", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument(
        "--dedup",
        action="store_true",
        help="keep the least passing member of each scaling orbit; needs --strict-criteria",
    )
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument(
        "--strict-criteria",
        action="store_true",
        help="use the criteria exactly as stated instead of the published filters",
    )
    add_fmt(sp, choices=("tsv", "json"), default="tsv")
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("tables", help="reproduce the published tables")
    sp.add_argument("--which", choices=("special", "possible-d"), required=True)
    sp.add_argument("--jobs", type=int, default=1)
    add_fmt(sp, default="text")
    sp.set_defaults(func=_cmd_tables)

    sp = sub.add_parser("verify-monodromy", help="exact Levelt matrix checks")
    sp.add_argument("--param", required=True)
    add_fmt(sp)
    sp.set_defaults(func=_cmd_verify_monodromy)

    sp = sub.add_parser("verify-ode", help="formal series annihilation check")
    sp.add_argument("--param", required=True)
    sp.add_argument("--order", type=int, default=30)
    add_fmt(sp)
    sp.set_defaults(func=_cmd_verify_ode)

    sp = sub.add_parser("verify-jacobi", help="l-adic valuations vs Hodge degrees")
    sp.add_argument("--param", required=True)
    sp.add_argument("--ell", type=int, default=None, help="a prime = 1 mod d; default the least one")
    add_fmt(sp)
    sp.set_defaults(func=_cmd_verify_jacobi)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

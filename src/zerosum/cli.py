"""Command line front end: every verification as a scriptable command.

Exit codes partition outcomes: 0 verified, 1 mathematical counterexample
found, 2 user error, 3 node budget exhausted, 4 internal error (any other
exception, such as a search worker that failed).  Every command ends in
_respond, which renders only the requested format and maps (complete, ok)
to 3, 1 or 0; main maps the errors to 2 and 4.  Data goes to stdout (or
--output), errors to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from .constants import check_direct_formulas, longest_lacking
from .criteria import Criterion
from .groups import GroupSpec
from .inverse import (
    LemmaName,
    check_property,
    classify,
    enumerate_extremal,
    reproduce_exp_minus_1,
    verify_lemma,
)
from .search import DEFAULT_NODE_BUDGET, SearchOptions
from .sequences import parse_sequence

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USER_ERROR = 2
EXIT_BUDGET = 3
EXIT_INTERNAL_ERROR = 4


def _write(path: str, text: str, mode: str = "w") -> None:
    # A file that cannot be written is a user error (exit 2), not a result.
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _respond(args, json, csv, text, complete: bool, ok: bool) -> int:
    """Write the requested format and return the exit code of the outcome.

    json, csv and text are thunks, so only the requested format is rendered.
    A run cut short exits 3 whatever it found; a complete one exits 1 if it
    is not ok (a counterexample, a mismatch, no match), else 0.
    """
    out = {"json": json, "csv": csv, "text": text}[args.format]()
    # An empty output stays empty: a lone newline would be a blank JSON line.
    if out and not out.endswith("\n"):
        out += "\n"
    if args.output:
        _write(args.output, out)
    else:
        sys.stdout.write(out)
    if not complete:
        return EXIT_BUDGET
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _constant_line(r) -> str:
    name = f"{r.criterion.value}({r.group.label})"
    if not r.complete:
        return f"{name} >= {r.lower_bound} (formula {r.formula_constant}) [incomplete]"
    verdict = "OK" if r.matches_formula else "MISMATCH"
    return f"{name} = {r.computed_constant} (formula {r.formula_constant}) {verdict}"


def _cmd_constants(args, opts: SearchOptions) -> int:
    group = GroupSpec.parse(args.group)
    if args.which == "all":
        _, reports = check_direct_formulas(group, opts)
    else:
        reports = [longest_lacking(group, Criterion.from_name(args.which), opts)]
    return _respond(
        args,
        json=lambda: _dump_json(
            reports[0].to_json() if len(reports) == 1 else [r.to_json() for r in reports]
        ),
        csv=lambda: _csv_text(
            ["group", "criterion", "computed", "formula", "complete", "nodes", "ms"],
            [[str(r.group), r.criterion.value, r.computed_constant, r.formula_constant,
              r.complete, r.nodes_visited, round(r.elapsed_ms, 3)] for r in reports],
        ),
        text=lambda: "\n".join(_constant_line(r) for r in reports),
        complete=all(r.complete for r in reports),
        ok=all(r.matches_formula for r in reports),
    )


def _cmd_extremal(args, opts: SearchOptions) -> int:
    group = GroupSpec.parse(args.group)
    if group.rank != 2:
        raise ValueError("extremal enumeration needs a rank-2 group")
    criterion = Criterion.from_name(args.kind)
    seqs, complete = enumerate_extremal(group, criterion, up_to_aut=args.up_to_aut, options=opts)
    records = []
    for seq in seqs:
        rec = {"group": str(group), "kind": criterion.value, "sequence": seq.text(),
               "length": len(seq)}
        if args.classify:
            rec["matches"] = [m.to_json() for m in classify(seq)]
        records.append(rec)
    return _respond(
        args,
        json=lambda: "\n".join(_dump_json(r) for r in records),
        csv=lambda: _csv_text(
            ["group", "kind", "sequence", "length", "match_count"],
            [[r["group"], r["kind"], r["sequence"], r["length"],
              len(r.get("matches", []))] for r in records],
        ),
        text=lambda: "\n".join(
            r["sequence"] + (f"  [{len(r['matches'])} match(es)]" if args.classify else "")
            for r in records
        ),
        complete=complete,
        ok=not args.classify or all(r["matches"] for r in records),
    )


def _cmd_check(args, opts: SearchOptions) -> int:
    target = args.target
    param, stray = ("n", "m") if target == "invcyc" else ("m", "n")
    if getattr(args, param) is None:
        raise ValueError(f"{target} needs --{param}")
    if getattr(args, stray) is not None:
        raise ValueError(f"{target} takes no --{stray}")
    if target in ("property-C", "property-D"):
        result = check_property(args.m, target[-1], opts)
    else:
        result = verify_lemma(LemmaName(target), m=args.m, n=args.n, options=opts)
    return _respond(
        args,
        json=lambda: _dump_json(result.to_json()),
        csv=lambda: _csv_text(
            ["check", "params", "status", "counterexamples"],
            [[result.name, _dump_json(result.params), result.status,
              len(result.counterexamples)]],
        ),
        text=lambda: f"{result.name} {result.params}: {result.status}"
        + (f" ({len(result.counterexamples)} counterexample(s))" if result.counterexamples else ""),
        complete=result.complete,
        ok=result.ok,
    )


def _cmd_reproduce(args, opts: SearchOptions) -> int:
    seq, report = reproduce_exp_minus_1(args.m, args.n)
    report = {**report, "sequence": seq.text()}
    keys = sorted(report)
    return _respond(
        args,
        json=lambda: _dump_json(report),
        csv=lambda: _csv_text(keys, [[report[k] for k in keys]]),
        text=lambda: (
            f"{report['sequence']}\n"
            f"length {report['length']} (expected {report['expected_length']}), "
            f"lacks length-exp zero-sum: {report['lacks_exact_exp']}, "
            f"max multiplicity {report['max_multiplicity']} < {report['exp_minus_1']}"
        ),
        complete=True,
        ok=report["ok"],
    )


def _cmd_classify(args, opts: SearchOptions) -> int:
    group = GroupSpec.parse(args.group)
    seq = parse_sequence(group, args.seq)
    matches = [m.to_json() for m in classify(seq)]
    return _respond(
        args,
        json=lambda: _dump_json({"group": str(group), "sequence": seq.text(), "matches": matches}),
        csv=lambda: _csv_text(
            ["form", "e1", "e2", "x", "s", "t", "g"],
            [[d["form"], d["e1"], d["e2"], d.get("x", ""), d.get("s", ""), d.get("t", ""),
              d.get("g", "")] for d in matches],
        ),
        text=lambda: "\n".join(_dump_json(d) for d in matches) if matches else "no match",
        complete=True,
        ok=bool(matches),
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help=f"node budget per search (default: {DEFAULT_NODE_BUDGET:,})")
    p.add_argument("--prune", choices=["on", "off"], default="on",
                   help="automorphism orbit pruning, on wherever Aut(G) can be enumerated "
                        "(group order <= 512); off searches every multiset")
    p.add_argument("--output", default=None, help="write results to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerosum",
        description="Zero-sum constants of rank <= 2 abelian groups: exhaustive "
                    "computation, extremal enumeration and classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="compute constants and compare with the formulas")
    p.add_argument("--group", required=True, help="group as 'n1,n2' or 'n' (cyclic)")
    p.add_argument("--which", choices=["all", "D", "eta", "s", "s_exp_mult"], default="all")
    _add_common(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("extremal", help="enumerate extremal sequences")
    p.add_argument("--group", required=True)
    p.add_argument("--kind", choices=["eta", "s"], required=True)
    p.add_argument("--up-to-aut", action="store_true", dest="up_to_aut",
                   help="one representative per automorphism orbit")
    p.add_argument("--classify", action="store_true",
                   help="attach the matching parameterizations to every record")
    _add_common(p)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("check", help="verify a structural property or lemma")
    p.add_argument("target", choices=["property-C", "property-D", "noshort", "two-m", "invcyc"])
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reproduce", help="build documented example sequences")
    p.add_argument("figure", choices=["exp-1"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("classify", help="classify one sequence against the extremal families")
    p.add_argument("--group", required=True)
    p.add_argument("--seq", required=True, help="sequence text, e.g. \"(1,0) (0,1)^3\"")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    import os

    parser = build_parser()
    args = parser.parse_args(argv)
    created = False
    try:
        # Built before any command runs: SearchOptions rejects a bad
        # --workers or --budget, also for the commands that run no search.
        opts = SearchOptions(aut_pruning=args.prune == "on", workers=args.workers,
                             node_budget=args.budget)
        if args.output:
            # Appending nothing checks that the file can be written, before
            # the search and without truncating it.
            existed = os.path.exists(args.output)
            _write(args.output, "", "a")
            created = not existed
        return args.func(args, opts)
    except Exception as exc:
        if created:
            # A command that fails leaves no file behind that only the check made.
            os.remove(args.output)
        if isinstance(exc, ValueError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USER_ERROR
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

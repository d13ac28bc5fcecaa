"""Command line front end: every verification as a scriptable command.

Exit codes partition outcomes: 0 verified, 1 mathematical counterexample
found, 2 user error, 3 node budget exhausted.  Data goes to stdout (or
--output), errors to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .constants import check_direct_formulas, longest_lacking
from .criteria import Criterion
from .groups import GroupSpec
from .inverse import (
    ExtremalKind,
    LemmaName,
    check_property,
    classify,
    enumerate_extremal,
    reproduce_exp_minus_1,
    verify_lemma,
)
from .search import SearchOptions
from .sequences import parse_sequence

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USER_ERROR = 2
EXIT_BUDGET = 3


@dataclass
class RunConfig:
    fmt: str
    workers: int
    budget: Optional[int]
    prune: Optional[bool]
    output: Optional[str]

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be >= 0")

    def search_options(self, collect_all: bool = False) -> SearchOptions:
        return SearchOptions(
            collect_all=collect_all,
            aut_pruning=self.prune,
            workers=self.workers,
            node_budget=self.budget,
        )


def _emit(cfg: RunConfig, text: str) -> None:
    # An empty output stays empty: a lone newline would be a blank JSON line.
    if text and not text.endswith("\n"):
        text += "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _cmd_constants(args, cfg: RunConfig) -> int:
    group = GroupSpec.parse(args.group)
    opts = cfg.search_options()
    if args.which == "all":
        _, reports = check_direct_formulas(group, opts)
    else:
        reports = [longest_lacking(group, Criterion.from_name(args.which), opts)]

    if cfg.fmt == "json":
        payload = [r.to_json() for r in reports]
        _emit(cfg, _dump_json(payload[0] if len(payload) == 1 else payload))
    elif cfg.fmt == "csv":
        _emit(cfg, _csv_text(
            ["group", "criterion", "computed", "formula", "complete", "nodes", "ms"],
            [[str(r.group), r.criterion.value, r.computed_constant, r.formula_constant,
              r.complete, r.nodes_visited, round(r.elapsed_ms, 3)] for r in reports],
        ))
    else:
        _emit(cfg, "\n".join(_constant_line(r) for r in reports))

    if any(not r.complete for r in reports):
        return EXIT_BUDGET
    if any(not r.matches_formula for r in reports):
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _cmd_extremal(args, cfg: RunConfig) -> int:
    group = GroupSpec.parse(args.group)
    if group.rank != 2:
        raise ValueError("extremal enumeration needs a rank-2 group")
    kind = ExtremalKind(args.kind)
    enum = enumerate_extremal(group, kind, up_to_aut=args.up_to_aut,
                              options=cfg.search_options(collect_all=True))
    records = []
    any_unmatched = False
    for seq in enum.sequences:
        rec = {"group": str(group), "kind": kind.value, "sequence": seq.text(), "length": len(seq)}
        if args.classify:
            matches = classify(seq)
            rec["matches"] = [m.to_json() for m in matches]
            any_unmatched = any_unmatched or not matches
        records.append(rec)

    if cfg.fmt == "json":
        _emit(cfg, "\n".join(_dump_json(r) for r in records) if records else "")
    elif cfg.fmt == "csv":
        _emit(cfg, _csv_text(
            ["group", "kind", "sequence", "length", "match_count"],
            [[r["group"], r["kind"], r["sequence"], r["length"],
              len(r.get("matches", []))] for r in records],
        ))
    else:
        lines = []
        for r in records:
            suffix = ""
            if args.classify:
                suffix = f"  [{len(r['matches'])} match(es)]"
            lines.append(f"{r['sequence']}{suffix}")
        _emit(cfg, "\n".join(lines))

    if not enum.complete:
        return EXIT_BUDGET
    if args.classify and any_unmatched:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _cmd_check(args, cfg: RunConfig) -> int:
    opts = cfg.search_options(collect_all=True)
    target = args.target
    if target in ("property-C", "property-D"):
        if args.m is None:
            raise ValueError(f"{target} needs --m")
        result = check_property(args.m, target[-1], opts)
    elif target == "noshort":
        if args.m is None:
            raise ValueError("noshort needs --m")
        result = verify_lemma(LemmaName.NOSHORT, m=args.m)
    elif target == "two-m":
        if args.m is None:
            raise ValueError("two-m needs --m")
        result = verify_lemma(LemmaName.TWO_M, m=args.m)
    else:  # invcyc
        if args.n is None:
            raise ValueError("invcyc needs --n")
        result = verify_lemma(LemmaName.INVCYC, n=args.n, options=opts)

    if cfg.fmt == "json":
        _emit(cfg, _dump_json(result.to_json()))
    elif cfg.fmt == "csv":
        _emit(cfg, _csv_text(
            ["check", "params", "status", "counterexamples"],
            [[result.name, _dump_json(result.params), result.status,
              len(result.counterexamples)]],
        ))
    else:
        _emit(cfg, f"{result.name} {result.params}: {result.status}"
              + (f" ({len(result.counterexamples)} counterexample(s))"
                 if result.counterexamples else ""))

    return {"verified": EXIT_OK, "falsified": EXIT_COUNTEREXAMPLE, "unverified": EXIT_BUDGET}[
        result.status
    ]


def _cmd_reproduce(args, cfg: RunConfig) -> int:
    seq, report = reproduce_exp_minus_1(args.m, args.n)
    report = dict(report)
    report["sequence"] = seq.text()
    if cfg.fmt == "json":
        _emit(cfg, _dump_json(report))
    elif cfg.fmt == "csv":
        keys = sorted(report)
        _emit(cfg, _csv_text(keys, [[report[k] for k in keys]]))
    else:
        facts = (
            f"length {report['length']} (expected {report['expected_length']}), "
            f"lacks length-exp zero-sum: {report['lacks_exact_exp']}, "
            f"max multiplicity {report['max_multiplicity']} < {report['exp_minus_1']}"
        )
        _emit(cfg, f"{report['sequence']}\n{facts}")
    return EXIT_OK if report["ok"] else EXIT_COUNTEREXAMPLE


def _cmd_classify(args, cfg: RunConfig) -> int:
    group = GroupSpec.parse(args.group)
    seq = parse_sequence(group, args.seq)
    matches = classify(seq)
    if cfg.fmt == "json":
        _emit(cfg, _dump_json({
            "group": str(group),
            "sequence": seq.text(),
            "matches": [m.to_json() for m in matches],
        }))
    elif cfg.fmt == "csv":
        rows = []
        for m in matches:
            d = m.to_json()
            rows.append([d["form"], d["e1"], d["e2"], d.get("x", ""), d.get("s", ""),
                         d.get("t", ""), d.get("g", "")])
        _emit(cfg, _csv_text(["form", "e1", "e2", "x", "s", "t", "g"], rows))
    else:
        if matches:
            _emit(cfg, "\n".join(_dump_json(m.to_json()) for m in matches))
        else:
            _emit(cfg, "no match")
    return EXIT_OK if matches else EXIT_COUNTEREXAMPLE


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--budget", type=int, default=None,
                   help="node budget per search task (default: ZEROSUM_BUDGET env or built-in)")
    p.add_argument("--prune", choices=["auto", "on", "off"], default="auto",
                   help="automorphism orbit pruning")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    prune = {"auto": None, "on": True, "off": False}[args.prune]
    try:
        cfg = RunConfig(fmt=args.format, workers=args.workers, budget=args.budget,
                        prune=prune, output=args.output)
        return args.func(args, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


if __name__ == "__main__":
    sys.exit(main())

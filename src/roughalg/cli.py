"""Command-line front end.

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 ran to
completion, 1 assertion failure under --assert or stdout closed by its
reader, 2 usage/parse/validation error, 3 internal error.  Identical
invocations produce byte-identical output; --verbose adds timing on stderr
only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from typing import Optional

from .approx import ApproxSpace, approximate, space_from_partition
from .algebra import TABLE_LAWS, classify
from .enumeration import (_SWEEP_LAWS, COUNTEREXAMPLE_LAWS, MAX_LAWS_N, SearchSpec, law_suite, search)
from .errors import RoughAlgError
from .fixtures import audit_paper, find_approx_claim
from .morphisms import check_anti_group_hom, check_hom, check_rough_hom
from .report import cell_label, classification_json, partition_json, subset_json
from .rough_structures import check_rough_anti_semigroup, check_rough_anti_subsemigroup
from .scenario import Scenario, parse_scenario

class CliInputError(RoughAlgError):
    """Bad file contents or references; maps to exit code 2."""


def _jobs(text: str) -> int:
    cpus = os.cpu_count() or 1
    if not (text.isdecimal() and 1 <= int(text) <= cpus):
        raise argparse.ArgumentTypeError(f"must be an integer in 1..{cpus}, got {text!r}")
    return int(text)


def _global_flags(top_level: bool) -> argparse.ArgumentParser:
    # Subparsers get SUPPRESS defaults so a flag before the subcommand is
    # not clobbered; the top-level copy carries the real defaults.  The two
    # parsers must not share action objects.
    d = (lambda v: v) if top_level else (lambda v: argparse.SUPPRESS)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=d(False),
                        help="emit a machine-readable report")
    common.add_argument("--jobs", type=_jobs, default=d(1), metavar="N",
                        help="worker processes for search (1..CPU count)")
    common.add_argument("--assert", dest="assert_", action="store_true", default=d(False),
                        help="exit 1 on false verdicts or discrepancies")
    common.add_argument("--verbose", action="store_true", default=d(False),
                        help="timing diagnostics on stderr")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags(top_level=False)
    p = argparse.ArgumentParser(prog="roughalg", parents=[_global_flags(top_level=True)],
                                description="Rough-set approximation and anti-group toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", parents=[common], help="validate a scenario file")
    sp.set_defaults(run=_cmd_parse)
    sp.add_argument("file")

    sp = sub.add_parser("approx", parents=[common], help="lower/upper/boundary of a set")
    sp.set_defaults(run=_cmd_approx)
    sp.add_argument("file")
    sp.add_argument("--space", required=True, metavar="P")
    sp.add_argument("--set", dest="set_name", required=True, metavar="X")

    sp = sub.add_parser("classify", parents=[common], help="all ten law verdicts plus flags")
    sp.set_defaults(run=_cmd_classify)
    sp.add_argument("file")
    sp.add_argument("--table", required=True, metavar="T")

    chk = sub.add_parser("check", parents=[common], help="structure and morphism checkers")
    chk_sub = chk.add_subparsers(dest="checker", required=True)

    sp = chk_sub.add_parser("rough-semigroup", parents=[common])
    sp.set_defaults(run=_cmd_check_rough_semigroup)
    sp.add_argument("file")
    sp.add_argument("--space", required=True)
    sp.add_argument("--table", required=True)
    sp.add_argument("--ambient", default=None)

    sp = chk_sub.add_parser("rough-subsemigroup", parents=[common])
    sp.set_defaults(run=_cmd_check_rough_subsemigroup)
    sp.add_argument("file")
    sp.add_argument("--space", required=True)
    sp.add_argument("--table", required=True)
    sp.add_argument("--subset", required=True)

    sp = chk_sub.add_parser("morphism", parents=[common])
    sp.set_defaults(run=_cmd_check_morphism)
    sp.add_argument("file")
    sp.add_argument("--map", dest="map_name", required=True)
    sp.add_argument("--kind", required=True,
                    choices=["hom", "anti-hom", "rough-hom", "rough-anti-hom"])
    sp.add_argument("--table-a", required=True)
    sp.add_argument("--table-b", required=True)
    sp.add_argument("--space-a", default=None)
    sp.add_argument("--space-b", default=None)

    sp = sub.add_parser("laws", parents=[common], help="exhaustive law suites")
    sp.set_defaults(run=_cmd_laws)
    own = ", ".join(f"{law} n = {r.size(6)}" for law, r in _SWEEP_LAWS.items() if r.size(6) != 6)
    sp.add_argument("--max-n", type=int, default=4, choices=range(1, MAX_LAWS_N + 1), metavar="N",
                    help=f"universe size ceiling for the sweeps, 1..{MAX_LAWS_N} (at 6: {own})")
    sp.add_argument("--law", default=None, choices=COUNTEREXAMPLE_LAWS)

    sp = sub.add_parser("search", parents=[common], help="scan tables for law profiles")
    sp.set_defaults(run=_cmd_search)
    sp.add_argument("--universe-size", type=int, required=True, metavar="N")
    sp.add_argument("--carrier-size", type=int, required=True, metavar="K")
    sp.add_argument("--require", action="append", default=[], metavar="LAW=STATUS")
    sp.add_argument("--limit", type=int, default=1)
    sp.add_argument("--budget", type=int, default=100_000)

    sub.add_parser("audit-paper", parents=[common],
                   help="recompute every bundled published claim").set_defaults(run=_cmd_audit)

    return p


# scenario plumbing


def _load(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CliInputError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise CliInputError(f"{path} is not UTF-8: {e}") from e
    return parse_scenario(text)


def _named(scenario: Scenario, category: str, name: str):
    table = getattr(scenario, category)
    if name not in table:
        known = ", ".join(sorted(table)) or "none"
        raise CliInputError(f"no {category[:-1]} named {name!r} (declared: {known})")
    return table[name]


def _space(scenario: Scenario, name: str) -> ApproxSpace:
    return space_from_partition(_named(scenario, "partitions", name).partition)


# subcommand handlers returning (report, text-lines, assert-failed); search writes its
# own report, hit by hit, and returns (None, [], False)


def _cmd_parse(args) -> tuple[dict, list[str], bool]:
    s = _load(args.file)
    counts = {
        "universes": len(s.universes),
        "partitions": len(s.partitions),
        "sets": len(s.sets),
        "tables": len(s.tables),
        "mappings": len(s.mappings),
    }
    text = ["ok: " + " ".join(f"{counts[c]} {c}" for c in
                              ("universes", "partitions", "sets", "tables", "mappings"))]
    return {"kind": "parse", "ok": True, "counts": counts}, text, False


def _cmd_approx(args) -> tuple[dict, list[str], bool]:
    s = _load(args.file)
    space = _space(s, args.space)
    subset = _named(s, "sets", args.set_name).subset
    res = approximate(space, subset)
    note = None
    claim = find_approx_claim(space, subset)
    if claim is not None:
        item, claimed, citation = claim
        note = {"item": item, "claimed": claimed, "citation": citation,
                "agrees": claimed == repr(res.upper)}
    report = {
        "kind": "approx",
        "space": args.space,
        "set": args.set_name,
        "lower": subset_json(res.lower),
        "upper": subset_json(res.upper),
        "boundary": subset_json(res.boundary),
        "rough": res.is_rough,
        "note": note,
    }
    text = [
        f"lower = {res.lower!r}",
        f"upper = {res.upper!r}",
        f"boundary = {res.boundary!r}",
        f"rough = {str(res.is_rough).lower()}",
    ]
    if note:
        verdict = "agrees" if note["agrees"] else "differs"
        text.append(f"note: published claim {note['item']} gives upper = {note['claimed']} "
                    f"({note['citation']}); derived value {verdict}")
    return report, text, False


def _witness_str(w: tuple[str, ...]) -> str:
    return "(" + ",".join(w) + ")"


def _cmd_classify(args) -> tuple[dict, list[str], bool]:
    s = _load(args.file)
    table = _named(s, "tables", args.table).table
    c = classify(table)
    text = []
    for law in TABLE_LAWS:
        v = c.verdict(law)
        wit = "; ".join(f"{bucket}: {_witness_str(w)}" for bucket, w in v.witnesses)
        line = (f"{law}: {v.status} true={v.true_count} false={v.false_count} "
                f"indeterminate={v.indet_count}")
        if wit:
            line += f" [{wit}]"
        text.append(line)
    text.append("flags: " + " ".join(f"{k}={str(b).lower()}" for k, b in c.flags().items()))
    return classification_json(args.table, c), text, False


def _condition_json(cond) -> dict:
    return {
        "holds": cond.holds,
        "true": cond.true_count,
        "false": cond.false_count,
        "indeterminate": cond.indet_count,
        "witnesses": [list(w) for w in cond.witnesses[:10]],
    }


def _condition_text(label: str, cond, arrow: bool) -> list[str]:
    out = [f"{label}: {'holds' if cond.holds else 'fails'} true={cond.true_count} "
           f"false={cond.false_count} indeterminate={cond.indet_count}"]
    for w in cond.witnesses[:10]:
        if arrow:
            out.append(f"  witness: ({','.join(w[:-1])}) -> {w[-1]}")
        else:
            out.append(f"  witness: {_witness_str(w)}")
    return out


def _cmd_check_rough_semigroup(args) -> tuple[dict, list[str], bool]:
    s = _load(args.file)
    space = _space(s, args.space)
    table = _named(s, "tables", args.table).table
    ambient = _named(s, "tables", args.ambient).table if args.ambient else None
    v = check_rough_anti_semigroup(space, table, ambient)
    report = {
        "kind": "check",
        "check": "rough-semigroup",
        "overall": v.overall,
        "upper": subset_json(v.upper_used),
        "condition1": _condition_json(v.condition1),
        "condition2": _condition_json(v.condition2),
    }
    text = _condition_text("condition 1 (closure into upper)", v.condition1, arrow=True)
    text += _condition_text("condition 2 (associativity in upper)", v.condition2, arrow=False)
    text += [f"upper = {v.upper_used!r}", f"overall = {str(v.overall).lower()}"]
    return report, text, not v.overall


def _cmd_check_rough_subsemigroup(args) -> tuple[dict, list[str], bool]:
    s = _load(args.file)
    space = _space(s, args.space)
    table = _named(s, "tables", args.table).table
    h = _named(s, "sets", args.subset).subset
    v = check_rough_anti_subsemigroup(space, table, h)
    report = {
        "kind": "check",
        "check": "rough-subsemigroup",
        "overall": v.overall,
        "upper": subset_json(v.upper_used),
        "condition1": _condition_json(v.condition1),
        "condition2": None,
    }
    text = _condition_text("closure into upper(H)", v.condition1, arrow=True)
    text += [f"upper = {v.upper_used!r}", f"overall = {str(v.overall).lower()}"]
    return report, text, not v.overall


def _cmd_check_morphism(args) -> tuple[dict, list[str], bool]:
    s = _load(args.file)
    phi = _named(s, "mappings", args.map_name).mapping
    table_a = _named(s, "tables", args.table_a).table
    table_b = _named(s, "tables", args.table_b).table
    if args.kind in ("rough-hom", "rough-anti-hom"):
        if not (args.space_a and args.space_b):
            raise CliInputError(f"--kind {args.kind} needs --space-a and --space-b")
        rep = check_rough_hom(_space(s, args.space_a), _space(s, args.space_b),
                              phi, table_a, table_b, args.kind)
    elif args.kind == "anti-hom":
        rep = check_anti_group_hom(phi, table_a, table_b)
    else:
        rep = check_hom(phi, table_a, table_b)
    report = {
        "kind": "check",
        "check": "morphism",
        "overall": rep.overall,
        "morphism_kind": rep.kind,
        "surjective": rep.surjective,
        "counts": {
            "preserved": rep.counts.preserved,
            "reversed": rep.counts.reversed,
            "violated": rep.counts.violated,
            "indeterminate": rep.counts.indeterminate,
        },
        "kernel": subset_json(rep.kernel),
        "image": subset_json(rep.image),
        "first_violation": list(rep.first_violation) if rep.first_violation else None,
    }
    text = [
        f"kind = {rep.kind}",
        (f"pairs: preserved={rep.counts.preserved} reversed={rep.counts.reversed} "
         f"violated={rep.counts.violated} indeterminate={rep.counts.indeterminate}"),
        f"surjective = {str(rep.surjective).lower()}",
        f"kernel = {rep.kernel!r}",
        f"image = {rep.image!r}",
        f"overall = {str(rep.overall).lower()}",
    ]
    if rep.first_violation:
        text.append(f"first violation: {_witness_str(rep.first_violation)}")
    return report, text, not rep.overall


def _cmd_laws(args) -> tuple[dict, list[str], bool]:
    selected = [args.law] if args.law else COUNTEREXAMPLE_LAWS
    suites = [law_suite(law, args.max_n) for law in selected]
    report = {
        "kind": "laws",
        "max_n": args.max_n,
        "suites": [
            {
                "law": r.law,
                "instances": r.instances,
                "failures": r.failures,
                "first_failure": r.first_failure,
                "extra": dict(r.extra),
            }
            for r in suites
        ],
    }
    text = []
    for r in suites:
        text.append(f"{r.law}: {r.failures} failures / {r.instances} instances checked")
        for k, v in r.extra:
            text.append(f"  {k} = {v}")
        if r.first_failure is not None:
            text.append("  first failure: " + json.dumps(r.first_failure, sort_keys=True))
    failed = any(r.failures for r in suites)
    return report, text, failed


def _cmd_search(args) -> tuple[None, list[str], bool]:
    # (LAW, STATUS) from each LAW=STATUS; SearchSpec rejects unknown names
    requirements = tuple(item.partition("=")[::2] for item in args.require)
    try:
        spec = SearchSpec(
            universe_size=args.universe_size,
            carrier_size=args.carrier_size,
            law_constraints=requirements,
            limit=args.limit,
            budget=args.budget,
        )
    except ValueError as e:
        raise CliInputError(f"bad --require, use LAW=STATUS: {e}") from e
    started = time.monotonic()
    outcome = search(spec, jobs=args.jobs)
    scanned, out = time.monotonic(), sys.stdout
    if args.json:
        report = {
            "kind": "search",
            "universe_size": args.universe_size,
            "carrier_size": args.carrier_size,
            "requirements": [list(r) for r in requirements],
            "limit": args.limit,
            "budget": args.budget,
            "hits": None,
            "examined": outcome.examined,
            "total": outcome.total,
            "limit_reached": outcome.limit_reached,
            "budget_exhausted": outcome.budget_exhausted,
        }
        # the keys sorted before "hits" hold numbers, so the first match is the key
        head, _, tail = json.dumps(report, indent=2, sort_keys=True).partition('"hits": null')
        out.write(head + '"hits": [')
        _write_hits(out, outcome.hits, True)
        out.write(("\n  ]" if outcome.hits else "]") + tail + "\n")
    else:
        _write_hits(out, outcome.hits, False)
        out.write(f"hits = {len(outcome.hits)}\nexamined = {outcome.examined} / {outcome.total}\n"
                  f"limit_reached = {str(outcome.limit_reached).lower()}\n"
                  f"budget_exhausted = {str(outcome.budget_exhausted).lower()}\n")
    if args.verbose:
        print(f"scan: {scanned - started:.3f}s examined={outcome.examined} hits={len(outcome.hits)}\n"
              f"render: {time.monotonic() - scanned:.3f}s", file=sys.stderr)
    return None, [], False


def _write_hits(out, hits, as_json: bool) -> None:
    """Write each hit's text lines, or its JSON object indented as in the
    report, from its raw index.  Each distinct partition, carrier and table
    row is rendered once; a hit goes out through its carrier's format string."""
    tables = hits.tables[0]  # every carrier numbers its rows alike
    esc = lambda s: s.replace("{", "{{").replace("}", "}}")
    if as_json:
        nest = lambda j, depth: json.dumps(j, indent=2).replace("\n", "\n" + " " * depth)
        part = lambda space: nest(partition_json(space.partition), 6)
        fmt = lambda cj: ('{}    {{\n      "index": {},\n      "partition": {},\n      "table": {{\n'
                          '        "carrier": ' + esc(nest(cj, 8)) + ',\n        "rows": [\n          '
                          + ",\n          ".join(["{}"] * tables.k) + "\n        ]\n      }}\n    }}")
        row_text = lambda labs: nest(labs, 10)
    else:
        part = lambda space: " ".join("{" + " ".join(b) + "}" for b in partition_json(space.partition))
        fmt = lambda cj: ("{}hit (index {}):\n  partition: {}\n  carrier: " + esc("{" + " ".join(cj) + "}")
                          + "".join(f"\n    {esc(lab)} : {{}}" for lab in cj) + "\n")
        row_text = " ".join
    row = lambda v: row_text([cell_label(tables.universe.labels, c) for c in tables.row_cells(v)])
    parts, formats, rows = {}, {}, {}
    sep, then = ("\n", ",\n") if as_json else ("", "")  # before the first hit, and the others
    for idx in hits.indices:
        sidx, cidx, t = hits.split(idx)
        if sidx not in parts:
            parts[sidx] = part(hits.spaces[sidx])
        if cidx not in formats:
            formats[cidx] = fmt(subset_json(hits.tables[cidx].carrier))
        texts = [rows[v] if v in rows else rows.setdefault(v, row(v)) for v in tables.rows(t)]
        out.write(formats[cidx].format(sep, idx, parts[sidx], *texts))
        sep = then


def _cmd_audit(args) -> tuple[dict, list[str], bool]:
    findings = audit_paper()
    report = {
        "kind": "audit",
        "findings": [
            {
                "item": f.item,
                "claim": f.claim,
                "citation": f.citation,
                "derived": f.derived,
                "status": f.status,
                "notes": list(f.notes),
            }
            for f in findings
        ],
    }
    text = []
    for f in findings:
        text.append(f"{f.item:<22} {f.status:<15} claim: {f.claim}")
        text.append(f"{'':<22} {'':<15} derived: {f.derived}")
        text.append(f"{'':<22} {'':<15} cite: {f.citation}")
        for note in f.notes:
            text.append(f"{'':<22} {'':<15} note: {note}")
    failed = any(f.status != "MATCH" for f in findings)
    return report, text, failed


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        report, text, failed = args.run(args)
        if not args.json:
            sys.stdout.write("".join(f"{line}\n" for line in text))
        elif report is not None:
            print(json.dumps(report, indent=2, sort_keys=True))
    except RoughAlgError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does; the exit flush must not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3
    if args.verbose:
        print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 1 if args.assert_ and failed else 0


if __name__ == "__main__":
    sys.exit(main())

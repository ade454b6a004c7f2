"""Output checks: summaries of laws/search reports, and a naive oracle.

The oracle recomputes, from the generator's own model and without any
roughalg code, the lower and upper approximations, the C1-C10
true/false/indeterminate counts and the rough-closure counts, and compares
them with what the CLI printed.
"""

from __future__ import annotations

import json
import re

from workloads import TABLE_LAWS, ScenarioModel, TableModel, lower, upper

# What the seed commit prints, (failures, instances) by (suite, --max-n).  P22
# caps at n=2 and P41/P42 always run at n=2, so --max-n does not change them.
KNOWN_SUITES = {}
for _n, _instances, _p31 in ((4, 4196, 652), (5, 57444, 11592)):
    KNOWN_SUITES.update({(law, _n): (0, _instances)
                         for law in ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9")})
    KNOWN_SUITES[("P31", _n)] = (_p31, _instances)
for _n in (2, 4, 5):
    KNOWN_SUITES.update({("P22", _n): (18, 289), ("P41", _n): (0, 60), ("P42", _n): (0, 48)})

_SUITE_LINE = re.compile(r"^(\S+): (\d+) failures / (\d+) instances checked$", re.M)
_HITS_LINE = re.compile(r"^hits = (\d+)$", re.M)
_EXAMINED_LINE = re.compile(r"^examined = (\d+) / (\d+)$", re.M)


def summarize(argv: list[str], out: str) -> dict:
    """Counts a laws or search report states; empty for other commands."""
    as_json = "--json" in argv
    if "laws" in argv:
        if as_json:
            suites = [(s["law"], s["failures"], s["instances"]) for s in json.loads(out)["suites"]]
        else:
            suites = [(m[0], int(m[1]), int(m[2])) for m in _SUITE_LINE.findall(out)]
        return {"suites": suites}
    if "search" in argv:
        if as_json:
            rep = json.loads(out)
            return {"hits": len(rep["hits"]), "examined": rep["examined"], "total": rep["total"]}
        hits = _HITS_LINE.search(out)
        ex = _EXAMINED_LINE.search(out)
        if not (hits and ex):
            return {}
        return {"hits": int(hits[1]), "examined": int(ex[1]), "total": int(ex[2])}
    return {}


def check_summary(argv: list[str], summary: dict) -> str | None:
    """Known suite values; None when the summary is right."""
    if "laws" in argv:
        if len(summary.get("suites", ())) != 1:
            return "expected exactly one suite"
        law, failures, instances = summary["suites"][0]
        want = KNOWN_SUITES.get((law, int(argv[argv.index("--max-n") + 1])))
        if want != (failures, instances):
            return f"{law}: {failures}/{instances}, expected {want}"
    if "search" in argv and "examined" not in summary:
        return "no examined count in the search report"
    return None


# naive recomputation


def _lookup(t: TableModel):
    pos = {e: p for p, e in enumerate(t.carrier)}
    k = len(t.carrier)
    return pos, k, (lambda x, y: t.cells[pos[x] * k + pos[y]])


def law_counts(t: TableModel) -> dict[str, tuple[int, int, int]]:
    """(true, false, indeterminate) per law, straight from the definitions."""
    pos, k, mul = _lookup(t)
    S = t.carrier
    out: dict[str, list[int]] = {law: [0, 0, 0] for law in TABLE_LAWS}
    T, F, I = 0, 1, 2

    for x in S:
        for y in S:
            v = mul(x, y)
            if v is None:
                out["C1"][I] += 1
                out["C6"][I] += 1
            elif v in pos:
                out["C1"][T] += 1
                out["C6"][F] += 1
            else:
                out["C1"][F] += 1
                out["C6"][T] += 1

    def side(a, b, c, left: bool):
        inner = mul(a, b) if left else mul(b, c)
        if inner is None or inner not in pos:
            return None
        return mul(inner, c) if left else mul(a, inner)

    for x in S:
        for y in S:
            for z in S:
                lv, rv = side(x, y, z, True), side(x, y, z, False)
                if lv is None or rv is None:
                    out["C2"][I] += 1
                    out["C7"][I] += 1
                elif lv == rv:
                    out["C2"][T] += 1
                    out["C7"][F] += 1
                else:
                    out["C2"][F] += 1
                    out["C7"][T] += 1

    def neutrals(x):
        return [e for e in S if mul(x, e) == x and mul(e, x) == x]

    def has_inverse(x):
        return any(mul(x, u) == e and mul(u, x) == e for e in neutrals(x) for u in S)

    for x in S:
        out["C3"][T if neutrals(x) else F] += 1
        out["C4"][T if has_inverse(x) else F] += 1

    for i, x in enumerate(S):
        for y in S[i + 1:]:
            a, b = mul(x, y), mul(y, x)
            if a is None or b is None:
                out["C5"][I] += 1
                out["C10"][I] += 1
            elif a == b:
                out["C5"][T] += 1
                out["C10"][F] += 1
            else:
                out["C5"][F] += 1
                out["C10"][T] += 1

    identity = any(all(mul(x, e) == x and mul(e, x) == x for x in S) for e in S)
    out["C8"][F if identity else T] += 1
    out["C9"][F if any(has_inverse(x) for x in S) else T] += 1
    return {law: tuple(c) for law, c in out.items()}


def _status(law: str, counts: tuple[int, int, int]) -> str:
    t, f, i = counts
    if t + f + i == 0:
        return "AllFalse" if law in ("C6", "C7", "C8", "C9", "C10") else "AllTrue"
    if f == 0 and i == 0:
        return "AllTrue"
    if t == 0 and i == 0:
        return "AllFalse"
    return "Mixed"


def _closure_counts(t: TableModel, members: list[int], target: list[int]) -> tuple[int, int]:
    _, _, mul = _lookup(t)
    inside = set(target)
    ok = sum(1 for x in members for y in members if mul(x, y) in inside)
    return ok, len(members) ** 2 - ok


def _labels(m: ScenarioModel, idx) -> list[str]:
    return [m.labels[i] for i in idx]


def check_scenario_output(m: ScenarioModel, what: tuple, argv: list[str], out: str) -> str | None:
    """Compare one scenario command's stdout with the naive model; None if right."""
    as_json = "--json" in argv
    rep = json.loads(out) if as_json else None
    kind = what[0]
    if kind == "parse":
        counts = {"universes": 1, "partitions": len(m.partitions), "sets": len(m.sets),
                  "tables": len(m.tables), "mappings": 2}
        if as_json:
            return None if rep["counts"] == counts else f"parse counts {rep['counts']}"
        want = "ok: " + " ".join(f"{counts[c]} {c}" for c in counts)
        return None if out.strip() == want else f"parse output {out.strip()!r}"
    if kind == "approx":
        _, space, name = what
        blocks, members = m.partitions[space], m.sets[name]
        lo, up = _labels(m, lower(blocks, members)), _labels(m, upper(blocks, members))
        if as_json:
            got = (rep["lower"], rep["upper"], rep["rough"])
            want = (lo, up, lo != up)
        else:
            got = out.splitlines()[:2]
            want = ["lower = {" + " ".join(lo) + "}", "upper = {" + " ".join(up) + "}"]
        return None if got == want else f"approx {space}/{name}: got {got}, want {want}"
    if kind == "classify":
        counts = law_counts(m.tables[what[1]])
        if as_json:
            got = {v["law"]: (v["status"], (v["counts"]["true"], v["counts"]["false"],
                                            v["counts"]["indeterminate"])) for v in rep["verdicts"]}
        else:
            got = {}
            for line in out.splitlines():
                mt = re.match(r"^(C\d+): (\w+) true=(\d+) false=(\d+) indeterminate=(\d+)", line)
                if mt:
                    got[mt[1]] = (mt[2], (int(mt[3]), int(mt[4]), int(mt[5])))
        want = {law: (_status(law, c), c) for law, c in counts.items()}
        bad = [law for law in TABLE_LAWS if got.get(law) != want[law]]
        return None if not bad else f"classify {what[1]}: {bad[0]} got {got.get(bad[0])}, want {want[bad[0]]}"
    if kind == "check":
        if not as_json:
            return None if "overall = " in out else "no overall line"
        if rep.get("kind") != "check":
            return f"report kind {rep.get('kind')!r}"
        check = argv[argv.index("check") + 1]
        if check in ("rough-semigroup", "rough-subsemigroup"):
            t = m.tables["T0"]
            members = t.carrier if check == "rough-semigroup" else m.sets["H"]
            ok, bad = _closure_counts(t, members, upper(m.partitions["P0"], members))
            got = (rep["condition1"]["true"], rep["condition1"]["false"])
            if got != (ok, bad):
                return f"{check} condition 1: got {got}, want {(ok, bad)}"
        return None
    return f"unknown check {kind!r}"

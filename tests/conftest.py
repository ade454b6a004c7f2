"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's bitmask plumbing: they
work on plain label sets / dicts so they stay an independent check of the
production code paths.
"""

from __future__ import annotations

import itertools
import random
from functools import partial

import pytest

from roughalg import (
    ApproxSpace,
    OpTable,
    Subset,
    approximate,
    fixture_scenario,
    fixture_space,
    make_space,
    make_table,
    make_universe,
    set_product,
)
from roughalg.algebra import CongruenceReport, RelationCheck
from roughalg.approx import _witness
from roughalg.enumeration import enum_mappings, enum_tables
from roughalg.report import table_json
from roughalg.scenario import LexError, Token


@pytest.fixture(scope="session")
def ex31():
    """Scenario, space and tables for the bundled worked examples."""
    s = fixture_scenario()
    return {
        "scenario": s,
        "universe": s.universes["U"],
        "space": fixture_space(s),
        "A": s.sets["A"].subset,
        "B": s.sets["B"].subset,
        "C": s.tables["C"].table,
        "TA": s.tables["TA"].table,
        "TB": s.tables["TB"].table,
    }


@pytest.fixture(scope="session")
def z4():
    u = make_universe(["0", "1", "2", "3"])
    rows = {(str(i), str(j)): str((i + j) % 4) for i in range(4) for j in range(4)}
    table = make_table(u, Subset.full(u), rows)
    space = make_space(u, [Subset.from_labels(u, ["0", "2"]),
                           Subset.from_labels(u, ["1", "3"])])
    return {"universe": u, "table": table, "space": space}


def naive_approx(blocks: list[set[str]], members: set[str]) -> tuple[set[str], set[str]]:
    """Lower/upper by literally unioning equivalence classes."""
    lower: set[str] = set()
    upper: set[str] = set()
    for block in blocks:
        if block <= members:
            lower |= block
        if block & members:
            upper |= block
    return lower, upper


def approx_law_oracle(blocks: list[set[str]], universe: set[str], law: str,
                      xs: set[str], ys: set[str]) -> set[str]:
    """Offending elements of L1-L9 or P31 on the label sets X and Y, with
    every approximation from naive_approx."""

    def lo(s):
        return naive_approx(blocks, s)[0]

    def up(s):
        return naive_approx(blocks, s)[1]

    u, c = universe, universe - xs
    return {
        "L1": lambda: (lo(xs) - xs) | (xs - up(xs)),
        "L2": lambda: lo(set()) | up(set()) | (u - lo(u)) | (u - up(u)),
        "L3": lambda: (lo(xs) | lo(ys)) - lo(xs | ys),
        "L4": lambda: lo(xs & ys) ^ (lo(xs) & lo(ys)),
        "L5": lambda: up(xs | ys) ^ (up(xs) | up(ys)),
        "L6": lambda: up(xs & ys) - (up(xs) & up(ys)),
        "L7": lambda: (lo(c) ^ (u - up(xs))) | (up(c) ^ (u - lo(xs))),
        "L8": lambda: (lo(lo(xs)) ^ lo(xs)) | (up(lo(xs)) ^ lo(xs)),
        "L9": lambda: (up(up(xs)) ^ up(xs)) | (lo(up(xs)) ^ up(xs)),
        "P31": lambda: (up(xs) & up(ys)) - up(xs & ys),
    }[law]()


def product_relations_oracle(space: ApproxSpace, table: OpTable, x: Subset,
                             y: Subset) -> tuple[RelationCheck, ...]:
    """Relations (a)-(d) of check_product_approx_laws through `approximate`
    and `set_product` on Subsets: the per-instance object path that the mask
    kernel in roughalg.algebra replaced, kept as its reference."""
    u = table.universe
    ax, ay = approximate(space, x), approximate(space, y)
    prod = set_product(table, x, y)
    aprod = approximate(space, prod)
    up_prod = set_product(table, ax.upper, ay.upper)
    lo_prod = set_product(table, ax.lower, ay.lower)

    def incl(name: str, lhs: Subset, rhs: Subset) -> RelationCheck:
        bad = lhs.mask & ~rhs.mask
        return RelationCheck(name, bad == 0, _witness(u, bad))

    return (
        incl("a", up_prod, aprod.upper),
        incl("b", aprod.upper, up_prod),
        incl("c", lo_prod, aprod.lower),
        incl("d", aprod.lower, lo_prod),
    )


def congruence_oracle(space: ApproxSpace, table: OpTable) -> CongruenceReport:
    """is_congruence by walking every (x, x', y, y') with x ~ x' and y ~ y':
    the four-deep loop that the block-product kernel in roughalg.algebra
    replaced, kept as its reference.  Products x*y and x'*y' must lie in one
    class whenever both are determinate; the witness is the least failing
    quadruple, and each quadruple counts as checked or indeterminate."""
    u, cls, n = table.universe, space.class_of, table.universe.size
    checked = indet = 0
    witness = None
    for x in range(n):
        for x2 in range(n):
            if cls[x] != cls[x2]:
                continue
            for y in range(n):
                for y2 in range(n):
                    if cls[y] != cls[y2]:
                        continue
                    p = table.value_at(table.pos[x], table.pos[y])
                    q = table.value_at(table.pos[x2], table.pos[y2])
                    if p is None or q is None:
                        indet += 1
                        continue
                    checked += 1
                    if cls[p] != cls[q] and witness is None:
                        witness = (u.labels[x], u.labels[x2], u.labels[y], u.labels[y2])
    return CongruenceReport(witness is None, witness, checked, indet)


def morphism_oracle(phi, table_a: OpTable, table_b: OpTable, kind: str):
    """(preserved, reversed, violated, indeterminate, first violation) of phi
    from table_a to table_b for the kind, on labels: products through
    `OpTable.product`, phi as `dict(phi.pairs())`.  The counts and the first
    violation are those of `morphisms._check`'s report, by the definitions in
    `PairCounts`, pair by ordered domain pair in domain order."""
    return _label_morphism_oracle(dict(phi.pairs()), table_a, table_b, kind)


def _label_morphism_oracle(f: dict, table_a: OpTable, table_b: OpTable, kind: str):
    def product(table, x, y):  # None outside the carrier or on an INDET cell
        inside = table.carrier.contains_label
        return table.product(x, y) if inside(x) and inside(y) else None

    preserved = reversed_ = violated = indet = 0
    first = None
    for x in f:
        for y in f:
            left = f.get(product(table_a, x, y))
            fwd, rev = product(table_b, f[x], f[y]), product(table_b, f[y], f[x])
            preserved += left is not None and fwd is not None and left == fwd
            reversed_ += left is not None and rev is not None and left == rev
            side = rev if kind == "rough-anti-hom" else fwd
            if left is None or side is None:
                indet += 1
            elif left == side if kind == "anti-hom" else left != side:
                violated += 1
                first = first or (x, y)
    return preserved, reversed_, violated, indet, first


def behaviour_oracle(f: dict, table: OpTable) -> tuple[bool, bool]:
    """(reverses, preserves) of the label map f over one table: no resolvable
    pair breaks phi(x*y) = phi(y) o phi(x), resp. phi(x) o phi(y)."""
    return tuple(_label_morphism_oracle(f, table, table, kind)[2] == 0 for kind in ("rough-anti-hom", "hom"))


def composition_outcomes_oracle(table: OpTable, candidates, prop: str):
    """`verify_composition_props` on labels through `morphism_oracle`'s rule:
    per checked candidate pair, in order, None when the composite behaves as
    prop claims, else (phi1, phi2, the composite's first violation).  A pair
    is skipped unless phi1 reverses and phi2 preserves (p41) or reverses (p42),
    and unless phi2's image lies in phi1's domain."""
    kind, want2 = ("rough-anti-hom", 1) if prop == "p41" else ("hom", 0)
    seen = {}  # each map's label dict and behaviour, once per call, by identity

    def judged(phi):
        if id(phi) not in seen:
            f = dict(phi.pairs())
            seen[id(phi)] = f, behaviour_oracle(f, table)
        return seen[id(phi)]

    for phi1, phi2 in candidates:
        (f1, (rev1, _)), (f2, second) = judged(phi1), judged(phi2)
        if rev1 and second[want2] and set(f2.values()) <= f1.keys():
            first = _label_morphism_oracle({x: f1[f2[x]] for x in f2}, table, table, kind)[4]
            yield first and (phi1, phi2, first)


def _composition_witness_oracle(table: OpTable, phi1, phi2, pair) -> dict:
    return {"table": table_json(table)["rows"], "phi1": [list(p) for p in phi1.pairs()],
            "phi2": [list(p) for p in phi2.pairs()], "pair": list(pair)}


def composition_stream_oracle(prop: str, allow_indet: bool, carriers: list[Subset]):
    """The P41/P42 instance stream on `OpTable` and `Mapping` objects, every
    verdict from `composition_outcomes_oracle`: the object path that
    `enumeration._composition_stream` replaced with the raw-cell fold.

    Every checked pair of self-maps of each carrier, over each of its tables.
    Returns the tables and the pairs skipped as not meeting the hypothesis."""
    tables = skipped = 0
    for carrier in carriers:
        maps = list(enum_mappings(carrier, carrier))
        pairs = list(itertools.product(maps, maps))
        for table in enum_tables(carrier.universe, carrier, allow_indet):
            tables += 1
            skipped += len(pairs)
            for ce in composition_outcomes_oracle(table, pairs, prop):
                skipped -= 1
                yield ce and partial(_composition_witness_oracle, table, *ce)
    return {"tables": tables, "skipped_pairs": skipped}


_SPECIALS = "{}:=?"


def tokenize_oracle(text: str) -> list[Token]:
    """The character-by-character `.ras` lexer that the regular expression
    in roughalg.scenario replaced, kept as its reference."""
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _SPECIALS:
            toks.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if text.startswith("->", i):
            toks.append(Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if ord(c) < 32 or ord(c) == 127:
            raise LexError(line, col, f"control character {c!r}", token=c)
        start_col = col
        j = i
        while j < n:
            cj = text[j]
            if cj in _SPECIALS or cj in " \t\r\n#" or text.startswith("->", j):
                break
            if ord(cj) < 32 or ord(cj) == 127:
                break
            j += 1
        toks.append(Token("atom", text[i:j], line, start_col))
        col += j - i
        i = j
    toks.append(Token("eof", "", line, col))
    return toks


def random_rgs(rng: random.Random, n: int) -> list[int]:
    a = [0]
    for _ in range(n - 1):
        a.append(rng.randint(0, max(a) + 1))
    return a


def blocks_from_rgs(universe, rgs: list[int]) -> list[Subset]:
    nblocks = max(rgs) + 1
    out = []
    for b in range(nblocks):
        out.append(Subset.from_indices(universe, [i for i, v in enumerate(rgs) if v == b]))
    return out


def table_dict(table) -> dict[tuple[str, str], str | None]:
    """Plain label-keyed dict of a table, for oracle-side recomputation."""
    labs = table.universe.labels
    out = {}
    for px, ix in enumerate(table.order):
        for py, iy in enumerate(table.order):
            v = table.cells[px * table.k + py]
            out[(labs[ix], labs[iy])] = None if v is None else labs[v]
    return out


def law_counts_oracle(table, law):
    """Label-dict reimplementation of the instance semantics."""
    d = table_dict(table)
    carrier = list(table.carrier.labels())
    t = f = i = 0

    def bucket(kind):
        nonlocal t, f, i
        t += kind == "t"
        f += kind == "f"
        i += kind == "i"

    def neutrals(x):
        return [e for e in carrier if d[(x, e)] == x and d[(e, x)] == x]

    def has_inverse(x):
        return any(d[(x, u)] == e and d[(u, x)] == e
                   for e in neutrals(x) for u in carrier)

    if law in ("C1", "C6"):
        for x in carrier:
            for y in carrier:
                v = d[(x, y)]
                if v is None:
                    bucket("i")
                elif (v in carrier) != (law == "C6"):
                    bucket("t")
                else:
                    bucket("f")
    elif law in ("C2", "C7"):
        for x in carrier:
            for y in carrier:
                for z in carrier:
                    xy = d[(x, y)]
                    left = d[(xy, z)] if xy in carrier else None
                    yz = d[(y, z)]
                    right = d[(x, yz)] if yz in carrier else None
                    if left is None or right is None:
                        bucket("i")
                    elif (left == right) != (law == "C7"):
                        bucket("t")
                    else:
                        bucket("f")
    elif law == "C3":
        for x in carrier:
            bucket("t" if neutrals(x) else "f")
    elif law == "C4":
        for x in carrier:
            bucket("t" if has_inverse(x) else "f")
    elif law in ("C5", "C10"):
        for a in range(len(carrier)):
            for b in range(a + 1, len(carrier)):
                x, y = carrier[a], carrier[b]
                if d[(x, y)] is None or d[(y, x)] is None:
                    bucket("i")
                elif (d[(x, y)] == d[(y, x)]) != (law == "C10"):
                    bucket("t")
                else:
                    bucket("f")
    elif law == "C8":
        ident = any(all(d[(x, e)] == x and d[(e, x)] == x for x in carrier)
                    for e in carrier)
        bucket("f" if ident else "t")
    elif law == "C9":
        bucket("f" if any(has_inverse(x) for x in carrier) else "t")
    return (t, f, i)


def status_oracle(law: str, counts: tuple[int, int, int]) -> str:
    """Status from (true, false, indeterminate) counts; empty domains are
    AllTrue for C1-C5 and AllFalse for the anti-laws C6-C10."""
    t, f, i = counts
    if t + f + i == 0:
        return "AllFalse" if law in ("C6", "C7", "C8", "C9", "C10") else "AllTrue"
    if f == i == 0:
        return "AllTrue"
    if t == i == 0:
        return "AllFalse"
    return "Mixed"

"""Checkers for rough anti-semigroups and their subsemigroups.

A carrier A is a rough anti-semigroup when (1) every product of A-elements
is determinate and lands in upper(A), and (2) associativity holds over
upper(A) wherever the products involved can be resolved.  Tables only
define products on their carrier, so condition 2 resolves extra products
through an optional ambient table on a larger carrier; unresolvable triples
score indeterminate and never falsify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .approx import ApproxSpace, Subset, _law_bad, _Memo, approximate
from .algebra import INDET, OpTable
from .errors import EmptySubsetError, NotInCarrierError, UniverseMismatchError


@dataclass(frozen=True)
class ConditionCheck:
    holds: bool
    true_count: int
    false_count: int
    indet_count: int
    witnesses: tuple[tuple[str, ...], ...]  # failing instances, lexicographic


@dataclass(frozen=True)
class RoughStructVerdict:
    condition1: ConditionCheck
    condition2: ConditionCheck | None
    overall: bool
    upper_used: Subset


def _products(table: OpTable, ambient: Optional[OpTable]) -> list[list[Optional[int]]]:
    """Products by universe indices: the table's cell, else the ambient table's.

    None marks an unresolvable product: an INDET cell of the table that
    covers both operands, or operands that no table covers together.
    """
    n = table.universe.size
    prod = [[None] * n for _ in range(n)]
    for t in (ambient, table):  # the table's cells overwrite the ambient's
        if t is None:
            continue
        for px, ix in enumerate(t.order):
            row = prod[ix]
            for py, iy in enumerate(t.order):
                row[iy] = t.cells[px * t.k + py]
    return prod


def _closure_condition(table: OpTable, members: Subset, target: Subset) -> ConditionCheck:
    """All products over members x members determinate and inside target."""
    u = table.universe
    t = f = 0
    wit = []
    for ix in members:
        for iy in members:
            v = table.product_index(ix, iy)
            if v is not INDET and target.contains_index(v):
                t += 1
            else:
                f += 1
                shown = "?" if v is INDET else u.labels[v]
                wit.append((u.labels[ix], u.labels[iy], shown))
    return ConditionCheck(f == 0, t, f, 0, tuple(wit))


def check_rough_anti_semigroup(
    space: ApproxSpace,
    table: OpTable,
    ambient: Optional[OpTable] = None,
) -> RoughStructVerdict:
    """Both defining conditions for the table's carrier A.

    Condition 1 runs over A x A; an INDET product falsifies it (a value that
    cannot be placed inside upper(A) is not in it).  Condition 2 runs over
    all triples of upper(A), resolved through the table and then the ambient
    table; unresolvable triples count indeterminate.
    """
    u = table.universe
    if space.universe != u or (ambient is not None and ambient.universe != u):
        raise UniverseMismatchError("space, table and ambient must share one universe")
    a = table.carrier
    up = approximate(space, a).upper

    cond1 = _closure_condition(table, a, up)

    t = f = ind = 0
    wit = []
    members = tuple(up)
    prod = _products(table, ambient)
    for ix in members:
        row_x = prod[ix]
        for iy in members:
            xy = row_x[iy]
            row_xy = None if xy is None else prod[xy]
            row_y = prod[iy]
            for iz in members:
                left = None if row_xy is None else row_xy[iz]
                yz = row_y[iz]
                right = None if yz is None else row_x[yz]
                if left is None or right is None:
                    ind += 1
                elif left == right:
                    t += 1
                else:
                    f += 1
                    wit.append((u.labels[ix], u.labels[iy], u.labels[iz]))
    cond2 = ConditionCheck(f == 0, t, f, ind, tuple(wit))

    return RoughStructVerdict(cond1, cond2, cond1.holds and cond2.holds, up)


def check_rough_anti_subsemigroup(space: ApproxSpace, table: OpTable, h: Subset) -> RoughStructVerdict:
    """Closure of H inside upper(H): a*b determinate and in upper(H) for a, b in H.

    No associativity condition is part of this definition.
    """
    if space.universe != table.universe:
        raise UniverseMismatchError("space and table must share one universe")
    if not h:
        raise EmptySubsetError("H must be nonempty")
    if not h.issubset(table.carrier):
        raise NotInCarrierError("H must lie inside the table's carrier")
    up = approximate(space, h).upper
    cond = _closure_condition(table, h, up)
    return RoughStructVerdict(cond, None, cond.holds, up)


@dataclass(frozen=True)
class IntersectionReport:
    """The three inclusion facets for upper approximations of A, B and A n B."""

    sub: ConditionCheck        # law L6: upper(A n B) inside upper(A) n upper(B); never fails
    sup: ConditionCheck        # law P31: upper(A) n upper(B) inside upper(A n B)
    equal: bool
    upper_a: Subset
    upper_b: Subset
    upper_ab: Subset


def check_intersection_relations(space: ApproxSpace, a: Subset, b: Subset) -> IntersectionReport:
    u = space.universe
    if a.universe != u or b.universe != u:
        raise UniverseMismatchError("subsets not over the space's universe")
    lower, upper = _Memo(space, 0), _Memo(space, 1)
    ua, ub, uab = (Subset(u, upper[m]) for m in (a.mask, b.mask, a.mask & b.mask))

    def incl(law: str, lhs: Subset) -> ConditionCheck:
        bad = Subset(u, _law_bad(law, lower, upper, u.full_mask(), a.mask, b.mask))
        return ConditionCheck(not bad, len(lhs) - len(bad), len(bad), 0,
                              tuple((x,) for x in bad.labels()))

    sub = incl("L6", uab)
    sup = incl("P31", ua & ub)
    return IntersectionReport(sub, sup, sub.holds and sup.holds, ua, ub, uab)

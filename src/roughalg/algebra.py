"""Partial outer Cayley tables and tri-valued evaluation of the laws C1-C10.

A table is defined on a carrier S inside a universe U, but its values range
over all of U (or the indeterminate marker), so closure can fail partially:
that is the mechanism behind the anti-structures this toolkit classifies.

Instance semantics per law (each instance scores true, false or
indeterminate; buckets are counted and carry a least witness):

  C1   per ordered pair (x, y): product in S / in U minus S / INDET
  C2   per ordered triple: compare (x*y)*z with x*(y*z); a side is undefined
       when an intermediate product is INDET or leaves the carrier, or the
       final product is INDET; undefined sides make the instance indeterminate
  C3   per element x: some e in S has x*e = e*x = x
  C4   per element x: some u in S hits a local neutral of x from both sides
  C5   per unordered pair x != y: x*y = y*x, indeterminate on INDET
  C6   pointwise negation of C1
  C7   pointwise negation of C2
  C8   one global instance: no e in S is neutral for every x
  C9   one global instance: C4 fails for every x
  C10  pointwise negation of C5

Empty quantifier domains score vacuously: AllTrue for C1-C5, AllFalse for
the anti-laws C6-C10 (so a one-element group is not anti-abelian).

Each law is one private stream of bucket codes, one per instance in this
order, over a table's raw cells and carrier positions.  `evaluate_law`
tallies it; `_has_status`, for `search`, stops where the status is ruled out.

The product relations (a)-(d) are one mask kernel, `_product_relations`, which
`check_product_approx_laws` runs on memoised lookups and the P22 sweep on lookup
tables; `_set_product` is the one definition of a set product.  A partition is
a congruence exactly when each block pair's set product lies inside one block:
`_congruent` decides that for `is_congruence`, the P22 sweep and search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Literal, Mapping as TMapping, Optional

from .approx import ApproxSpace, Subset, Universe, _Memo, _witness
from .errors import (
    CarrierNotFullError,
    EmptyCarrierError,
    EmptySubsetError,
    ExtraEntryError,
    MissingEntryError,
    NotInCarrierError,
    UniverseMismatchError,
    UnknownResultLabelError,
)

# Indeterminate table cell.  Kept as a module-level alias so call sites read
# `value is INDET` rather than a bare None check.
INDET = None

TABLE_LAWS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10")
_ANTI_LAWS = frozenset({"C6", "C7", "C8", "C9", "C10"})


@dataclass(frozen=True)
class OpTable:
    """Binary operation on a carrier, with values in the whole universe.

    `cells` is row-major over the carrier in universe index order; a cell
    holds a universe index or INDET.
    """

    universe: Universe
    carrier: Subset
    order: tuple[int, ...] = field(repr=False)
    cells: tuple[Optional[int], ...] = field(repr=False)
    pos: tuple[int, ...] = field(compare=False, repr=False)  # universe index -> carrier position, -1 outside

    @classmethod
    def build(cls, universe: Universe, carrier: Subset, cells: tuple[Optional[int], ...]) -> "OpTable":
        order = tuple(carrier)
        pos = [-1] * universe.size
        for p, i in enumerate(order):
            pos[i] = p
        return cls(universe, carrier, order, cells, tuple(pos))

    @property
    def k(self) -> int:
        return len(self.order)

    def value_at(self, px: int, py: int) -> Optional[int]:
        """Cell by carrier positions."""
        return self.cells[px * self.k + py]

    def product_index(self, ix: int, iy: int) -> Optional[int]:
        """Cell by universe indices; both arguments must lie in the carrier."""
        px, py = self.pos[ix], self.pos[iy]
        if px < 0 or py < 0:
            raise NotInCarrierError("operand outside the table's carrier")
        return self.cells[px * self.k + py]

    def product(self, x: str, y: str) -> Optional[str]:
        """Cell by labels; INDET maps to INDET."""
        v = self.product_index(self.universe.index(x), self.universe.index(y))
        return None if v is INDET else self.universe.labels[v]

    def __repr__(self) -> str:
        return f"OpTable(carrier={self.carrier!r})"


def make_table(
    universe: Universe,
    carrier: Subset,
    rows: TMapping[tuple[str, str], Optional[str]],
) -> OpTable:
    """Validate entries covering carrier x carrier exactly.

    Row values are labels, or INDET for an indeterminate cell.
    """
    if carrier.universe != universe:
        raise NotInCarrierError("carrier declared over a different universe")
    if not carrier:
        raise EmptyCarrierError("carrier is empty")
    order = tuple(carrier)
    pos = {i: p for p, i in enumerate(order)}
    k = len(order)
    cells: list[Optional[int]] = [INDET] * (k * k)
    seen = [False] * (k * k)
    for (x, y), v in rows.items():
        ix, iy = universe.index(x), universe.index(y)
        if ix not in pos or iy not in pos:
            raise ExtraEntryError(f"entry ({x}, {y}) outside carrier x carrier")
        slot = pos[ix] * k + pos[iy]
        if seen[slot]:
            raise ExtraEntryError(f"entry ({x}, {y}) supplied twice")
        seen[slot] = True
        if v is INDET:
            cells[slot] = INDET
        else:
            if v not in universe:
                raise UnknownResultLabelError(f"result {v!r} not in universe")
            cells[slot] = universe.index(v)
    if not all(seen):
        missing = seen.index(False)
        x, y = universe.labels[order[missing // k]], universe.labels[order[missing % k]]
        raise MissingEntryError(f"no entry for ({x}, {y})")
    return OpTable.build(universe, carrier, tuple(cells))


Status = Literal["AllTrue", "AllFalse", "Mixed"]
STATUSES: tuple[Status, ...] = ("AllTrue", "AllFalse", "Mixed")


@dataclass(frozen=True)
class LawVerdict:
    """Tri-valued outcome of one law over its whole quantifier domain."""

    law: str
    status: Status
    true_count: int
    false_count: int
    indet_count: int
    witnesses: tuple[tuple[str, tuple[str, ...]], ...]  # (bucket, instance) pairs

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.true_count, self.false_count, self.indet_count)

    def witness(self, bucket: str) -> tuple[str, ...] | None:
        for b, w in self.witnesses:
            if b == bucket:
                return w
        return None


# Streams take (cells, k, order, pos), as held by OpTable, and yield these codes.
_TRUE, _FALSE, _INDET = 0, 1, 2
_BUCKETS = ("true", "false", "indeterminate")


def _closure(cells, k, order, pos):
    """C1: per ordered pair, the product lies in the carrier."""
    for v in cells:
        yield _INDET if v is INDET else (_TRUE if pos[v] >= 0 else _FALSE)


def _associativity(cells, k, order, pos):
    """C2: per ordered triple, (x*y)*z = x*(y*z)."""
    for px in range(k):
        row = px * k
        for py in range(k):
            xy = cells[row + py]
            pxy = -1 if xy is INDET else pos[xy]
            for pz in range(k):
                left = INDET if pxy < 0 else cells[pxy * k + pz]
                yz = cells[py * k + pz]
                right = INDET if yz is INDET or pos[yz] < 0 else cells[row + pos[yz]]
                if left is INDET or right is INDET:
                    yield _INDET
                else:
                    yield _TRUE if left == right else _FALSE


def _neutral_positions(cells, k, order, px: int) -> list[int]:
    """Carrier positions e with x*e = e*x = x; INDET never matches."""
    ix = order[px]
    return [pe for pe in range(k) if cells[px * k + pe] == ix and cells[pe * k + px] == ix]


def _neutrals(cells, k, order, pos):
    """C3: per element x, x has a local neutral."""
    for px in range(k):
        yield _TRUE if _neutral_positions(cells, k, order, px) else _FALSE


def _inverses(cells, k, order, pos):
    """C4: per element x, some u hits a local neutral e of x from both sides."""
    for px in range(k):
        yield _TRUE if any(cells[px * k + pu] == order[pe] and cells[pu * k + px] == order[pe]
                           for pe in _neutral_positions(cells, k, order, px)
                           for pu in range(k)) else _FALSE


def _commutativity(cells, k, order, pos):
    """C5: per unordered pair x != y, x*y = y*x."""
    for px in range(k):
        for py in range(px + 1, k):
            a, b = cells[px * k + py], cells[py * k + px]
            yield _INDET if a is INDET or b is INDET else (_TRUE if a == b else _FALSE)


def _identities(cells, k, order):
    """Carrier positions of the two-sided identities of the whole carrier."""
    for pe in range(k):
        if all(cells[px * k + pe] == order[px] and cells[pe * k + px] == order[px]
               for px in range(k)):
            yield pe


def _no_identity(cells, k, order, pos):
    """C8: the one global instance, true when no identity exists."""
    yield _TRUE if next(_identities(cells, k, order), None) is None else _FALSE


def _no_inverses(cells, k, order, pos):
    """C9: the one global instance, true when C4 fails for every element."""
    yield _FALSE if _TRUE in _inverses(cells, k, order, pos) else _TRUE


_NEGATE = (_FALSE, _TRUE, _INDET).__getitem__  # C6, C7, C10 negate C1, C2, C5 pointwise
_STREAMS = {
    "C1": _closure, "C2": _associativity, "C3": _neutrals, "C4": _inverses,
    "C5": _commutativity, "C6": lambda *table: map(_NEGATE, _closure(*table)),
    "C7": lambda *table: map(_NEGATE, _associativity(*table)), "C8": _no_identity,
    "C9": _no_inverses, "C10": lambda *table: map(_NEGATE, _commutativity(*table)),
}


def _instance(law: str, cells, k: int, order, pos, i: int, code: int) -> tuple[int, ...]:
    """Carrier positions of instance i, scored `code`; for C8/C9 the falsifying element."""
    if law in ("C1", "C6"):
        return divmod(i, k)
    if law in ("C2", "C7"):
        return (i // (k * k), i // k % k, i % k)
    if law in ("C3", "C4"):
        return (i,)
    if law in ("C5", "C10"):
        return next(itertools.islice(itertools.combinations(range(k), 2), i, None))
    if code == _TRUE:
        return ()
    if law == "C8":
        return (next(_identities(cells, k, order)),)
    return (list(_inverses(cells, k, order, pos)).index(_TRUE),)


def _status(law: str, t: int, f: int, i: int) -> Status:
    if t + f + i == 0:
        return "AllFalse" if law in _ANTI_LAWS else "AllTrue"
    return "Mixed" if i or (t and f) else ("AllTrue" if t else "AllFalse")


def _has_status(law: str, status: Status, cells, k: int, order, pos) -> bool:
    """Whether evaluate_law would give `status`, reading the law's stream
    only up to the first instance that rules it out."""
    codes = _STREAMS[law](cells, k, order, pos)
    first = next(codes, None)
    if first is None:
        return _status(law, 0, 0, 0) == status
    if status == "Mixed":
        return first == _INDET or any(code != first for code in codes)
    return first == (_TRUE if status == "AllTrue" else _FALSE) and all(code == first for code in codes)


def evaluate_law(table: OpTable, law: str) -> LawVerdict:
    """Tri-valued verdict for one of C1..C10 with counts and witnesses."""
    if law not in _STREAMS:
        raise ValueError(f"unknown law {law!r}")
    k, cells, order, pos = table.k, table.cells, table.order, table.pos
    codes = list(_STREAMS[law](cells, k, order, pos))
    counts = [codes.count(code) for code in (_TRUE, _FALSE, _INDET)]
    labels = table.universe.labels
    witnesses = tuple(
        (_BUCKETS[code], tuple(labels[order[p]] for p in
                               _instance(law, cells, k, order, pos, codes.index(code), code)))
        for code in (_TRUE, _FALSE, _INDET) if counts[code]
    )
    return LawVerdict(law, _status(law, *counts), *counts, witnesses)


def associativity_instance(table: OpTable, x: str, y: str, z: str) -> str:
    """Score one C2 triple: 'true', 'false' or 'indeterminate'."""
    u, k = table.universe, table.k
    px, py, pz = (table.pos[u.index(a)] for a in (x, y, z))
    codes = _associativity(table.cells, k, table.order, table.pos)
    return _BUCKETS[next(itertools.islice(codes, (px * k + py) * k + pz, None))]


def local_neutrals(table: OpTable, x: str) -> Subset:
    """Elements e of the carrier with x*e = e*x = x; INDET never matches."""
    ix = table.universe.index(x)
    if table.pos[ix] < 0:
        raise NotInCarrierError(f"{x!r} not in the carrier")
    neutrals = _neutral_positions(table.cells, table.k, table.order, table.pos[ix])
    return Subset.from_indices(table.universe, [table.order[pe] for pe in neutrals])


@dataclass(frozen=True)
class Classification:
    """All ten verdicts plus the derived structure flags."""

    verdicts: tuple[LawVerdict, ...]
    is_semigroup: bool
    is_group: bool
    is_commutative_group: bool
    is_anti_group: bool
    is_anti_abelian: bool
    is_ag4: bool
    is_strict_ag4: bool

    def verdict(self, law: str) -> LawVerdict:
        for v in self.verdicts:
            if v.law == law:
                return v
        raise KeyError(law)

    def flags(self) -> dict[str, bool]:
        return {
            "semigroup": self.is_semigroup,
            "group": self.is_group,
            "commutative-group": self.is_commutative_group,
            "anti-group": self.is_anti_group,
            "anti-abelian": self.is_anti_abelian,
            "ag4": self.is_ag4,
            "strict-ag4": self.is_strict_ag4,
        }


def classify(table: OpTable) -> Classification:
    """Evaluate every law and derive the structure flags.

    The group flag is classical: closure, associativity, one global
    identity, and a two-sided inverse against it for every element.  C3/C4
    verdicts stay per-element (local neutrals), which is what the anti-law
    side needs; a structure can satisfy them pointwise without being a
    group.
    """
    v = {law: evaluate_law(table, law) for law in TABLE_LAWS}
    all_true = lambda law: v[law].status == "AllTrue"
    mixed = lambda law: v[law].status == "Mixed"
    is_semigroup = all_true("C1") and all_true("C2")
    is_group = False
    if is_semigroup:
        k, cells, order = table.k, table.cells, table.order
        pe = next(_identities(cells, k, order), None)
        if pe is not None:
            ie = order[pe]
            is_group = all(
                any(cells[px * k + pu] == ie and cells[pu * k + px] == ie
                    for pu in range(k))
                for px in range(k)
            )
    is_anti_group = any(all_true(c) for c in ("C6", "C7", "C8", "C9"))
    is_ag4 = v["C4"].status == "AllFalse"
    return Classification(
        verdicts=tuple(v[law] for law in TABLE_LAWS),
        is_semigroup=is_semigroup,
        is_group=is_group,
        is_commutative_group=is_group and all_true("C5"),
        is_anti_group=is_anti_group,
        is_anti_abelian=is_anti_group and all_true("C10"),
        is_ag4=is_ag4,
        is_strict_ag4=is_ag4 and all(mixed(c) for c in ("C1", "C2", "C3", "C5")),
    )


@dataclass(frozen=True)
class CancellationWitness:
    side: Literal["left", "right"]
    g: str
    x: str
    y: str


def cancellation_failures(table: OpTable) -> tuple[CancellationWitness, ...]:
    """All (g, x, y) with x != y and g*x = g*y (left) or x*g = y*g (right).

    Products must be determinate to witness a failure; pairs are reported
    with x before y in universe order, sorted lexicographically.
    """
    u, k = table.universe, table.k
    order, cells = table.order, table.cells
    out = []
    for pg in range(k):
        for px in range(k):
            for py in range(px + 1, k):
                g, x, y = u.labels[order[pg]], u.labels[order[px]], u.labels[order[py]]
                left = cells[pg * k + px]
                if left is not INDET and left == cells[pg * k + py]:
                    out.append(CancellationWitness("left", g, x, y))
                right = cells[px * k + pg]
                if right is not INDET and right == cells[py * k + pg]:
                    out.append(CancellationWitness("right", g, x, y))
    out.sort(key=lambda w: (u.index(w.g), u.index(w.x), u.index(w.y), w.side))
    return tuple(out)


def set_product(table: OpTable, a: Subset, b: Subset, mode: str = "outer") -> Subset:
    """{h*k : h in A, k in B} skipping INDET cells.

    outer mode keeps every product in U; restricted clips to the carrier.
    """
    if mode not in ("outer", "restricted"):
        raise ValueError(f"mode must be 'outer' or 'restricted', got {mode!r}")
    if not (a.issubset(table.carrier) and b.issubset(table.carrier)):
        raise NotInCarrierError("set_product operands must lie inside the carrier")
    mask = _set_product(table.cells, table.k, table.pos, a.mask, b.mask)
    if mode == "restricted":
        mask &= table.carrier.mask
    return Subset(table.universe, mask)


def _set_product(cells, k: int, pos, a: int, b: int) -> int:
    """The mask of the determinate products x*y, x in mask a and y in mask b, both in the carrier."""
    rows, cols = ([pos[i] for i in range(len(pos)) if m >> i & 1] for m in (a, b))
    mask = 0
    for row in rows:
        for col in cols:
            v = cells[row * k + col]
            if v is not INDET:
                mask |= 1 << v
    return mask


@dataclass(frozen=True)
class CongruenceReport:
    """Compatibility of a partition with a total table."""

    holds: bool
    witness: tuple[str, str, str, str] | None  # (x, x', y, y') with x*y not ~ x'*y'
    checked: int
    indeterminate: int


def _congruent(blocks, pr) -> bool:
    """Whether the partition with these block masks is a congruence: each
    block pair's set product pr(a, b) lies inside one block."""
    return all(any(not p & ~c for c in blocks) for p in (pr(a, b) for a in blocks for b in blocks))


def is_congruence(space: ApproxSpace, table: OpTable) -> CongruenceReport:
    """x ~ x' and y ~ y' must force x*y ~ x'*y' whenever both are determinate.

    The verdict is `_congruent`'s.  A quadruple (x, x', y, y') is checked when
    both products are determinate: d*d of them in blocks A x B with d
    determinate cells.  The least failing quadruple is searched on failure."""
    u, n, cells, cls = table.universe, table.universe.size, table.cells, space.class_of
    if table.carrier.mask != u.full_mask():
        raise CarrierNotFullError("congruence check needs a table on the whole universe")
    if space.universe != u:
        raise UniverseMismatchError("space and table universes differ")
    blocks = [tuple(b) for b in space.partition.blocks]
    checked = sum(sum(cells[x * n + y] is not INDET for x in a for y in b) ** 2 for a in blocks for b in blocks)
    failing = ((x, x2, y, y2) for x, x2, y, y2 in itertools.product(range(n), repeat=4)
               if cls[x] == cls[x2] and cls[y] == cls[y2]
               and INDET not in (p := cells[x * n + y], q := cells[x2 * n + y2]) and cls[p] != cls[q])
    holds = _congruent([b.mask for b in space.partition.blocks], partial(_set_product, cells, n, table.pos))
    witness = None if holds else tuple(u.labels[i] for i in next(failing))
    return CongruenceReport(holds, witness, checked, sum(len(b) ** 2 for b in blocks) ** 2 - checked)


@dataclass(frozen=True)
class RelationCheck:
    relation: str
    holds: bool
    witness: str | None


@dataclass(frozen=True)
class ProductApproxReport:
    """The four product/approximation relations plus the congruence verdict."""

    relations: tuple[RelationCheck, ...]
    congruence: CongruenceReport

    def relation(self, name: str) -> RelationCheck:
        for r in self.relations:
            if r.relation == name:
                return r
        raise KeyError(name)


def check_product_approx_laws(space: ApproxSpace, table: OpTable, x: Subset, y: Subset) -> ProductApproxReport:
    """Evaluate, for nonempty X and Y over a full-carrier table:

      (a) upper(X) upper(Y)  inside  upper(X Y)
      (b) upper(X Y)         inside  upper(X) upper(Y)
      (c) lower(X) lower(Y)  inside  lower(X Y)
      (d) lower(X Y)         inside  lower(X) lower(Y)

    The congruence verdict rides along; none of the relations assumes it.
    """
    if table.carrier.mask != table.universe.full_mask():
        raise CarrierNotFullError("product laws need a table on the whole universe")
    if not x or not y:
        raise EmptySubsetError("X and Y must be nonempty")
    if not (x.universe == y.universe == table.universe == space.universe):
        raise UniverseMismatchError("X, Y, the table and the space need one universe")
    pr = partial(_set_product, table.cells, table.k, table.pos)
    bad = _product_relations(_Memo(space, 0), _Memo(space, 1), pr, x.mask, y.mask)
    relations = tuple(RelationCheck(name, not m, _witness(space.universe, m)) for name, m in zip("abcd", bad))
    return ProductApproxReport(relations, is_congruence(space, table))


def _product_relations(lo, up, pr, x: int, y: int) -> tuple[int, int, int, int]:
    """The masks of the elements that break relations (a)-(d) of
    check_product_approx_laws on the masks X and Y; lo[m] and up[m] are the
    lower and upper approximations of mask m, pr(a, b) the set product."""
    xy, up_prod, lo_prod = pr(x, y), pr(up[x], up[y]), pr(lo[x], lo[y])
    return up_prod & ~up[xy], up[xy] & ~up_prod, lo_prod & ~lo[xy], lo[xy] & ~lo_prod

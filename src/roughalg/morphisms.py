"""Finite mappings between carriers and the morphism checkers.

Four kinds are distinguished.  `hom` preserves products, `anti-hom` must
differ from the preserved product on every resolvable pair, `rough-hom`
and `rough-anti-hom` are surjections between upper approximations that
preserve resp. reverse products.  Tables are partial, so a pair counts
indeterminate when either side of the kind's equation cannot be resolved;
indeterminate pairs never falsify but are always reported.

One pair rule, `_pair_products`, resolves every pair on raw cells.  `_check`
folds it into the report of a kind; `_behaviour` into whether a map reverses
and whether it preserves, for `verify_composition_props` and P41/P42.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .approx import ApproxSpace, Subset, Universe, approximate
from .algebra import OpTable, local_neutrals
from .errors import (
    CarrierMismatchError,
    DomainMismatchError,
    DomainNotUpperError,
    DuplicatePairError,
    MissingPairError,
    UnknownCodomainLabelError,
    UnknownElementError,
)

MORPHISM_KINDS = ("hom", "anti-hom", "rough-hom", "rough-anti-hom")


@dataclass(frozen=True)
class Mapping:
    """Total map from a domain subset into a codomain universe.

    `graph[i]` is the codomain index of the i-th domain element in universe
    order; `target` is the intended codomain subset for surjectivity checks.
    """

    domain: Subset
    codomain: Universe
    graph: tuple[int, ...]
    target: Subset

    def apply_index(self, ix: int) -> int:
        if not self.domain.contains_index(ix):
            raise UnknownElementError(f"{self.domain.universe.labels[ix]!r} not in the mapping domain")
        return self.graph[tuple(self.domain).index(ix)]

    def apply(self, x: str) -> str:
        return self.codomain.labels[self.apply_index(self.domain.universe.index(x))]

    def image(self) -> Subset:
        return Subset.from_indices(self.codomain, self.graph)

    def is_surjective(self) -> bool:
        return self.target.issubset(self.image())

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple((self.domain.universe.labels[ix], self.codomain.labels[v])
                     for ix, v in zip(self.domain, self.graph))

    def __repr__(self) -> str:
        body = " ".join(f"{a}->{b}" for a, b in self.pairs())
        return f"Mapping({body})"


def make_mapping(
    domain: Subset,
    codomain: Universe,
    pairs: Iterable[tuple[str, str]],
    target: Optional[Subset] = None,
) -> Mapping:
    """Build a mapping from (source, image) label pairs covering the domain.

    The target defaults to the computed image.
    """
    order = tuple(domain)
    slot = {ix: p for p, ix in enumerate(order)}
    graph: list[Optional[int]] = [None] * len(order)
    for a, b in pairs:
        ia = domain.universe.index(a)
        if ia not in slot:
            raise UnknownElementError(f"{a!r} not in the mapping domain")
        if graph[slot[ia]] is not None:
            raise DuplicatePairError(f"two images given for {a!r}")
        if b not in codomain:
            raise UnknownCodomainLabelError(f"image {b!r} not in the codomain universe")
        graph[slot[ia]] = codomain.index(b)
    if any(g is None for g in graph):
        missing = domain.universe.labels[order[graph.index(None)]]
        raise MissingPairError(f"no image for {missing!r}")
    if target is None:
        target = Subset.from_indices(codomain, graph)
    elif target.universe != codomain:
        raise UnknownCodomainLabelError("target subset not over the codomain universe")
    return Mapping(domain, codomain, tuple(graph), target)


def neutral_pool(table: OpTable) -> Subset:
    """Every element that is a local neutral for at least one carrier element."""
    pool = Subset.empty(table.universe)
    for i in table.carrier:
        pool = pool | local_neutrals(table, table.universe.labels[i])
    return pool


def kernel(phi: Mapping, table_b: OpTable) -> Subset:
    """Domain elements mapped into the neutral pool of the codomain table."""
    if phi.codomain != table_b.universe:
        raise CarrierMismatchError("mapping codomain is not the table's universe")
    if not phi.image().issubset(table_b.carrier):
        raise CarrierMismatchError("mapping values leave the table's carrier")
    return _kernel_tolerant(phi, table_b)


def _kernel_tolerant(phi: Mapping, table_b: OpTable) -> Subset:
    pool = neutral_pool(table_b)
    return Subset.from_indices(phi.domain.universe,
                               (ix for ix, v in zip(phi.domain, phi.graph) if pool.contains_index(v)))


@dataclass(frozen=True)
class PairCounts:
    preserved: int       # phi(x*y) = phi(x) o phi(y), both sides resolvable
    reversed: int        # phi(x*y) = phi(y) o phi(x), both sides resolvable
    violated: int        # resolvable pairs breaking the checked kind's equation
    indeterminate: int   # pairs unresolvable for the checked kind


@dataclass(frozen=True)
class MorphismReport:
    kind: str
    counts: PairCounts
    surjective: bool
    kernel: Subset
    image: Subset
    overall: bool
    first_violation: tuple[str, str] | None = None


def _pair_products(a, b, val: dict[int, int]) -> Iterator[tuple[Optional[int], ...]]:
    """The pair rule.  Per ordered pair (x, y) of the domain of phi = val, row-major,
    yield (phi(x*y), phi(x) o phi(y), phi(y) o phi(x)) as universe indices, None for
    a side that cannot be resolved: an operand outside its table's carrier, x*y
    outside the domain, or an INDET cell.  a and b are the (cells, k, pos) of the
    source and the target table."""
    (cells_a, ka, pos_a), (cells_b, kb, pos_b) = a, b
    for x, fx in val.items():
        px, qx = pos_a[x], pos_b[fx]
        for y, fy in val.items():
            py, qy = pos_a[y], pos_b[fy]
            xy = cells_a[px * ka + py] if px >= 0 and py >= 0 else None
            left = val.get(xy)
            if qx >= 0 and qy >= 0:
                yield left, cells_b[qx * kb + qy], cells_b[qy * kb + qx]
            else:
                yield left, None, None


def _behaviour(a, b, val: dict[int, int]) -> tuple[bool, bool]:
    """(reverses, preserves): whether no pair that `_pair_products` resolves breaks
    phi(x*y) = phi(y) o phi(x), resp. phi(x*y) = phi(x) o phi(y).  Stops once both fail."""
    rev = pres = True
    for left, fwd, back in _pair_products(a, b, val):
        if left is not None:
            pres = pres and (fwd is None or fwd == left)
            rev = rev and (back is None or back == left)
            if not (rev or pres):
                return False, False
    return rev, pres


def _raw(table: OpTable) -> tuple:
    return table.cells, table.k, table.pos


def _check(phi: Mapping, table_a: OpTable, table_b: OpTable, kind: str) -> MorphismReport:
    preserved = reverse = violated = indet = 0
    first = None
    val, labels = dict(zip(phi.domain, phi.graph)), table_a.universe.labels
    pairs = itertools.product(val, repeat=2)
    for (x, y), (left, fwd, rev) in zip(pairs, _pair_products(_raw(table_a), _raw(table_b), val)):
        preserved += left is not None and left == fwd
        reverse += left is not None and left == rev
        side = rev if kind == "rough-anti-hom" else fwd
        if left is None or side is None:
            indet += 1
        elif (left == side) == (kind == "anti-hom"):  # anti-hom: an equal side breaks it
            violated += 1
            if first is None:
                first = (labels[x], labels[y])
    counts = PairCounts(preserved, reverse, violated, indet)
    surjective = phi.is_surjective()
    overall = violated == 0 and (surjective or kind in ("hom", "anti-hom"))
    return MorphismReport(kind, counts, surjective, _kernel_tolerant(phi, table_b),
                          phi.image(), overall, first)


def check_anti_group_hom(phi: Mapping, table_c: OpTable, table_b: OpTable) -> MorphismReport:
    """phi(x*y) must differ from phi(x) o phi(y) on every resolvable pair."""
    _require_endpoints(phi, table_c, table_b)
    return _check(phi, table_c, table_b, "anti-hom")


def check_hom(phi: Mapping, table_c: OpTable, table_b: OpTable) -> MorphismReport:
    """Classical preservation on every resolvable pair."""
    _require_endpoints(phi, table_c, table_b)
    return _check(phi, table_c, table_b, "hom")


def _require_endpoints(phi: Mapping, table_c: OpTable, table_b: OpTable) -> None:
    if phi.domain.universe != table_c.universe or phi.codomain != table_b.universe:
        raise CarrierMismatchError("mapping endpoints do not match the tables' universes")
    if not phi.domain.issubset(table_c.carrier):
        raise CarrierMismatchError("mapping domain leaves the source carrier")
    if not phi.image().issubset(table_b.carrier):
        raise CarrierMismatchError("mapping values leave the target carrier")


def check_rough_hom(
    space_a: ApproxSpace,
    space_b: ApproxSpace,
    phi: Mapping,
    table_a: OpTable,
    table_b: OpTable,
    kind: str = "rough-hom",
) -> MorphismReport:
    """Surjection upper(A) -> upper(B) preserving (or reversing) products."""
    if kind not in ("rough-hom", "rough-anti-hom"):
        raise ValueError(f"kind must be rough-hom or rough-anti-hom, got {kind!r}")
    if phi.domain.universe != table_a.universe or phi.codomain != table_b.universe:
        raise CarrierMismatchError("mapping endpoints do not match the tables' universes")
    if space_a.universe != table_a.universe or space_b.universe != table_b.universe:
        raise CarrierMismatchError("spaces do not match the tables' universes")
    if phi.domain != approximate(space_a, table_a.carrier).upper:
        raise DomainNotUpperError("mapping domain must equal upper(source carrier)")
    if phi.target != approximate(space_b, table_b.carrier).upper:
        raise DomainNotUpperError("mapping target must equal upper(target carrier)")
    return _check(phi, table_a, table_b, kind)


def compose(phi1: Mapping, phi2: Mapping) -> Mapping:
    """(phi1 phi2)(x) = phi1(phi2(x))."""
    if phi2.codomain != phi1.domain.universe:
        raise DomainMismatchError("inner codomain is not the outer domain's universe")
    if not phi2.image().issubset(phi1.domain):
        raise DomainMismatchError("image of the inner map leaves the outer domain")
    outer = dict(zip(tuple(phi1.domain), phi1.graph))
    graph = tuple(outer[v] for v in phi2.graph)
    return Mapping(phi2.domain, phi1.codomain, graph, phi1.target)


@dataclass(frozen=True)
class CompositionCounterexample:
    phi1: Mapping
    phi2: Mapping
    pair: tuple[str, str]


@dataclass(frozen=True)
class CompositionReport:
    prop: str
    checked: int
    skipped: int
    counterexamples: tuple[CompositionCounterexample, ...]

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def verify_composition_props(
    table: OpTable,
    candidates: Sequence[tuple[Mapping, Mapping]],
    prop: str,
) -> CompositionReport:
    """Check composites over one table against the composition propositions.

    p41: phi1 reverses and phi2 preserves, so phi1 o phi2 must reverse.
    p42: both reverse, so phi1 o phi2 must preserve.

    Candidate pairs whose per-pair behavior does not match the proposition's
    hypothesis (or that do not compose) are skipped, not errors.
    """
    outcomes = list(_composition_outcomes(table, candidates, prop))
    bad = tuple(o for o in outcomes if o is not None)
    return CompositionReport(prop, len(outcomes), len(candidates) - len(outcomes), bad)


def _composition_outcomes(table: OpTable, candidates: Iterable[tuple[Mapping, Mapping]],
                          prop: str) -> Iterator[Optional[CompositionCounterexample]]:
    """One item per checked pair, in candidate order: None when the composite
    behaves as prop claims, else the counterexample.  Skipped pairs yield
    nothing.  Each map's behavior is evaluated once per call."""
    if prop not in ("p41", "p42"):
        raise ValueError(f"prop must be p41 or p42, got {prop!r}")
    want2 = 1 if prop == "p41" else 0  # phi2 must preserve (p41) or reverse (p42)
    kind = "rough-anti-hom" if prop == "p41" else "hom"
    raw = _raw(table)

    @functools.cache
    def behaves(phi: Mapping) -> tuple[bool, bool]:
        return _behaviour(raw, raw, dict(zip(phi.domain, phi.graph)))

    for phi1, phi2 in candidates:
        if not (behaves(phi1)[0] and behaves(phi2)[want2]):
            continue
        try:
            comp = compose(phi1, phi2)
        except DomainMismatchError:
            continue
        rep = _check(comp, table, table, kind)
        yield CompositionCounterexample(phi1, phi2, rep.first_violation) if rep.counts.violated else None

"""Finite universes, partitions and the lower/upper approximation operators.

An approximation space is a finite universe together with a partition into
equivalence classes.  For a subset X the lower approximation collects the
elements whose whole class sits inside X, the upper approximation the
elements whose class meets X; their difference is the boundary, and X is
rough exactly when the boundary is nonempty.

The block loop `_lower_upper` defines both operators on masks, and the
table `_LAW_BAD` holds the one formula of each law L1-L9 and P31.  The law
sweeps read the loop through per-space tables over every mask; everything
else runs it per mask it reads.

Subsets are immutable bitmask-backed values tied to their universe; mixing
universes raises instead of coercing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateLabelError,
    EmptyBlockError,
    EmptyUniverseError,
    IncompleteCoverError,
    OverlapError,
    UniverseMismatchError,
    UnknownElementError,
)


@dataclass(frozen=True)
class Universe:
    """Ordered finite set of distinct element labels."""

    labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownElementError(f"element {label!r} not in universe") from None

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def __repr__(self) -> str:
        return f"Universe({{{' '.join(self.labels)}}})"


def make_universe(labels: Sequence[str]) -> Universe:
    """Build a universe, rejecting duplicates and the empty label list."""
    labels = tuple(str(x) for x in labels)
    if not labels:
        raise EmptyUniverseError("a universe needs at least one element")
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabelError(f"duplicate element {lab!r}")
        seen.add(lab)
    return Universe(labels)


@dataclass(frozen=True)
class Subset:
    """Subset of a universe, stored as a membership bitmask."""

    universe: Universe
    mask: int

    # construction

    @classmethod
    def empty(cls, universe: Universe) -> "Subset":
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: Universe) -> "Subset":
        return cls(universe, universe.full_mask())

    @classmethod
    def from_indices(cls, universe: Universe, indices: Iterable[int]) -> "Subset":
        mask = 0
        for i in indices:
            if not 0 <= i < universe.size:
                raise UnknownElementError(f"index {i} outside universe of size {universe.size}")
            mask |= 1 << i
        return cls(universe, mask)

    @classmethod
    def from_labels(cls, universe: Universe, labels: Iterable[str]) -> "Subset":
        return cls.from_indices(universe, (universe.index(x) for x in labels))

    # set algebra; every operand must share the universe

    def _check(self, other: "Subset") -> None:
        if self.universe != other.universe:
            raise UniverseMismatchError("subsets live over different universes")

    def union(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.universe, self.mask | other.mask)

    def intersection(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.universe, self.mask & other.mask)

    def difference(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.universe, self.mask & ~other.mask)

    def complement(self) -> "Subset":
        return Subset(self.universe, self.universe.full_mask() & ~self.mask)

    def issubset(self, other: "Subset") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __le__(self, other: "Subset") -> bool:
        return self.issubset(other)

    # inspection

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def contains_index(self, i: int) -> bool:
        return (self.mask >> i) & 1 == 1

    def contains_label(self, label: str) -> bool:
        return self.contains_index(self.universe.index(label))

    def labels(self) -> tuple[str, ...]:
        return tuple(self.universe.labels[i] for i in self)

    def __repr__(self) -> str:
        return "{" + " ".join(self.labels()) + "}"


@dataclass(frozen=True)
class Partition:
    """Pairwise-disjoint nonempty blocks covering the universe."""

    universe: Universe
    blocks: tuple[Subset, ...]

    def __repr__(self) -> str:
        return "Partition(" + " ".join(repr(b) for b in self.blocks) + ")"


def make_partition(universe: Universe, blocks: Sequence[Subset]) -> Partition:
    """Validate a total cover: nonempty, disjoint, covering blocks.

    Blocks are normalized to the canonical order (ascending least element).
    """
    covered = 0
    for b in blocks:
        if b.universe != universe:
            raise UniverseMismatchError("block declared over a different universe")
        if b.mask == 0:
            raise EmptyBlockError("partition block is empty")
        if covered & b.mask:
            dup = next(iter(Subset(universe, covered & b.mask)))
            raise OverlapError(f"element {universe.labels[dup]!r} occurs in two blocks")
        covered |= b.mask
    if covered != universe.full_mask():
        missing = Subset(universe, universe.full_mask() & ~covered)
        raise IncompleteCoverError(f"cover misses {missing!r}")
    ordered = tuple(sorted(blocks, key=lambda b: b.mask & -b.mask))
    return Partition(universe, ordered)


@dataclass(frozen=True)
class ApproxSpace:
    """Universe plus partition, with a precomputed element -> block table."""

    universe: Universe
    partition: Partition
    class_of: tuple[int, ...] = field(compare=False)

    def block_of_index(self, i: int) -> Subset:
        return self.partition.blocks[self.class_of[i]]


def make_space(universe: Universe, blocks: Sequence[Subset]) -> ApproxSpace:
    """Build an approximation space from a validated partition."""
    partition = make_partition(universe, blocks)
    return space_from_partition(partition)


def space_from_partition(partition: Partition) -> ApproxSpace:
    universe = partition.universe
    class_of = [0] * universe.size
    for b, block in enumerate(partition.blocks):
        for i in block:
            class_of[i] = b
    return ApproxSpace(universe, partition, tuple(class_of))


def equivalence_class(space: ApproxSpace, x: str) -> Subset:
    """The block containing x."""
    return space.block_of_index(space.universe.index(x))


@dataclass(frozen=True)
class ApproxResult:
    """Lower/upper approximations, boundary, and the roughness flag."""

    lower: Subset
    upper: Subset
    boundary: Subset
    is_rough: bool


def _lower_upper(space: ApproxSpace, mask: int) -> tuple[int, int]:
    """The lower and upper approximation masks of a subset mask: the union of
    the blocks inside it and of the blocks meeting it."""
    lower = upper = 0
    for block in space.partition.blocks:
        if block.mask & mask:
            upper |= block.mask
            if block.mask & ~mask == 0:
                lower |= block.mask
    return lower, upper


def approximate(space: ApproxSpace, x: Subset) -> ApproxResult:
    """Lower = the union of the blocks inside X, upper = of the blocks meeting X."""
    if x.universe != space.universe:
        raise UniverseMismatchError("subset not over the space's universe")
    lower, upper = _lower_upper(space, x.mask)
    lo = Subset(space.universe, lower)
    up = Subset(space.universe, upper)
    boundary = Subset(space.universe, upper & ~lower)
    return ApproxResult(lo, up, boundary, boundary.mask != 0)


APPROX_LAWS = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9")


@dataclass(frozen=True)
class LawCheck:
    """Verdict for one approximation law, with a witness element on failure."""

    law: str
    holds: bool
    witness: str | None = None


@dataclass(frozen=True)
class ApproxLawReport:
    """Per-law verdicts for L1-L9 on one (space, X, Y) instance."""

    checks: tuple[LawCheck, ...]

    def __getitem__(self, law: str) -> LawCheck:
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(law)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def _witness(universe: Universe, bad_mask: int) -> str | None:
    if bad_mask == 0:
        return None
    return universe.labels[(bad_mask & -bad_mask).bit_length() - 1]


# The mask of elements that violate each law on the masks X and Y, 0 if it
# holds; lo[m] and up[m] are the lower and upper approximations of mask m.
# L1  lower(X) inside X inside upper(X)
# L2  approximations of the empty set and of U are themselves
# L3  lower(X u Y) contains lower(X) u lower(Y)
# L4  lower(X n Y) = lower(X) n lower(Y)
# L5  upper(X u Y) = upper(X) u upper(Y)
# L6  upper(X n Y) inside upper(X) n upper(Y)
# L7  lower(X^c) = (upper X)^c and upper(X^c) = (lower X)^c
# L8  lower and upper of lower(X) are lower(X)
# L9  lower and upper of upper(X) are upper(X)
# P31 upper(X) n upper(Y) inside upper(X n Y)
_LAW_BAD = {
    "L1": lambda lo, up, full, x, y: (lo[x] & ~x) | (x & ~up[x]),
    "L2": lambda lo, up, full, x, y: lo[0] | up[0] | (full & ~(lo[full] & up[full])),
    "L3": lambda lo, up, full, x, y: (lo[x] | lo[y]) & ~lo[x | y],
    "L4": lambda lo, up, full, x, y: lo[x & y] ^ (lo[x] & lo[y]),
    "L5": lambda lo, up, full, x, y: up[x | y] ^ (up[x] | up[y]),
    "L6": lambda lo, up, full, x, y: up[x & y] & ~(up[x] & up[y]),
    "L7": lambda lo, up, full, x, y:
        (lo[full & ~x] ^ (full & ~up[x])) | (up[full & ~x] ^ (full & ~lo[x])),
    "L8": lambda lo, up, full, x, y: (lo[lo[x]] ^ lo[x]) | (up[lo[x]] ^ lo[x]),
    "L9": lambda lo, up, full, x, y: (up[up[x]] ^ up[x]) | (lo[up[x]] ^ up[x]),
    "P31": lambda lo, up, full, x, y: up[x] & up[y] & ~up[x & y],
}


class _Memo(dict):
    """mask -> its lower (side 0) or upper (side 1) mask, by the block loop on first read."""

    def __init__(self, space: ApproxSpace, side: int) -> None:
        self.space, self.side = space, side

    def __missing__(self, mask: int) -> int:
        value = self[mask] = _lower_upper(self.space, mask)[self.side]
        return value


def check_approx_law(space: ApproxSpace, law: str, x: Subset, y: Subset) -> LawCheck:
    """Evaluate one law of APPROX_LAWS on (X, Y); the witness is the least offender."""
    if x.universe != space.universe or y.universe != space.universe:
        raise UniverseMismatchError("subset not over the space's universe")
    if law not in APPROX_LAWS:
        raise ValueError(f"unknown approximation law {law!r}")
    u = space.universe
    bad = _LAW_BAD[law](_Memo(space, 0), _Memo(space, 1), u.full_mask(), x.mask, y.mask)
    return LawCheck(law, bad == 0, _witness(u, bad))


def check_approx_laws(space: ApproxSpace, x: Subset, y: Subset) -> ApproxLawReport:
    """Evaluate all nine laws on (X, Y)."""
    return ApproxLawReport(tuple(check_approx_law(space, law, x, y) for law in APPROX_LAWS))

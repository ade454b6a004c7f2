"""Exhaustive generators, the constraint-driven searcher and the law sweeps.

Everything streams in one canonical order (partition restricted-growth
string, then carrier combination, then table cells row-major, then mapping
graph), so searches are reproducible and the space can be split into
ranges across workers without changing the output.  One walk, `_Tables`,
numbers a carrier's tables and visits their raw cells from any number;
`enum_tables`, search and the P22 and P41/P42 streams all read it.

Each law family has one instance stream over a list of its tasks,
yielding per instance a falsy item if it holds, else a callable that
builds the witness, and returning any extra counts: `_approx_stream` for
L1-L9 and P31, `_p22_stream`, and `_composition_stream` for P41/P42.  A
`_SweepLaw` record per law of COUNTEREXAMPLE_LAWS holds its stream, tasks,
sweep size and hypothesis.  `_first` reduces a stream for
`find_counterexample` under a budget; `_count` for the P22/P41/P42 suites,
in-process.  The L1-L9/P31 suites are counted per block (`_block_count`).
`_composition_stream` judges each self-map once per raw table
(`morphisms._behaviour`); a checked pair's composite is itself one
of the maps, so its verdict is a lookup through a composition table built
once per carrier.  Objects are built only for a failure's witness.

`search` maps `_scan` over ranges of (carrier, table) rests with `_pmap`, on
worker processes if jobs > 1.  Law constraints see only a candidate's rest,
so each rest is checked once, by the one worker whose range holds it, in a
window of up to 65,536 of its carrier's tables: `_Tables.masks` gives each
cell's value masks, one bit per table, `algebra._status_mask` each
constraint's, and `_passing_rests` yields the bits that survive them all.
`_scan` replays the passing rests across partitions and returns
hit indices in an `array('q')`, which `search` merges in order.  The hits
stay compact indices, 8 bytes each, in `SearchHits`, which holds the one
candidate numbering: it decodes a `SearchHit` only on access, and the CLI
renders each hit from its index (`split`), so a report is written without
building one.

Size caps: universes up to 6 elements, table carriers up to 4, laws suites 16.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from math import comb, prod
from typing import Callable, Iterator, Optional

from .approx import (
    APPROX_LAWS,
    ApproxSpace,
    Partition,
    Subset,
    Universe,
    _LAW_BAD,
    _lower_upper,
    _witness,
    approximate,
    make_universe,
    space_from_partition,
)
from .algebra import (INDET, STATUSES, TABLE_LAWS, OpTable, _congruent, _product_relations, _status_mask,
                      _set_product, evaluate_law)  # noqa: F401 (bench/micro.py patches evaluate_law here)
from .errors import EmptyCarrierError, EmptySetError, NotInCarrierError, SizeOutOfRangeError
from .morphisms import Mapping, _behaviour, _composition_outcomes
from .report import partition_json, table_json
from .rough_structures import check_rough_anti_semigroup

MAX_UNIVERSE = 6
MAX_TABLE_CARRIER = 4
MAX_LAWS_N = 16


def _partition_sums(weight: list[int]) -> list[int]:
    """For each n < len(weight), the sum over the set partitions of n elements of
    the product of weight[|B|] over their blocks B, by the size of element n's block."""
    sums = [1]
    for n in range(1, len(weight)):
        sums.append(sum(comb(n - 1, b - 1) * weight[b] * sums[n - b] for b in range(1, n + 1)))
    return sums


def bell_number(n: int) -> int:
    return _partition_sums([1] * (n + 1))[n]


def canonical_universe(n: int) -> Universe:
    return make_universe([str(i) for i in range(1, n + 1)])


def rgs_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length n in lexicographic order."""
    a = [0] * n
    while True:
        yield tuple(a)
        j = n - 1
        while j > 0 and a[j] == max(a[:j]) + 1:
            a[j] = 0
            j -= 1
        if j == 0:
            return
        a[j] += 1


def partition_from_rgs(universe: Universe, rgs: tuple[int, ...]) -> Partition:
    nblocks = max(rgs) + 1
    masks = [0] * nblocks
    for i, b in enumerate(rgs):
        masks[b] |= 1 << i
    return Partition(universe, tuple(Subset(universe, m) for m in masks))


def enum_partitions(n: int, universe: Optional[Universe] = None) -> Iterator[Partition]:
    """Every set partition of an n-element universe, once, in RGS order."""
    if not 1 <= n <= MAX_UNIVERSE:
        raise SizeOutOfRangeError(f"partition enumeration supports 1..{MAX_UNIVERSE}, got {n}")
    if universe is None:
        universe = canonical_universe(n)
    elif universe.size != n:
        raise SizeOutOfRangeError("universe size does not match n")
    for rgs in rgs_strings(n):
        yield partition_from_rgs(universe, rgs)


def enum_spaces(n: int, universe: Optional[Universe] = None) -> Iterator[ApproxSpace]:
    for p in enum_partitions(n, universe):
        yield space_from_partition(p)


class _Tables:
    """The tables on one carrier, numbered in enum_tables order: table t's k*k
    cells are the digits of t in base len(values), first cell first."""

    def __init__(self, universe: Universe, carrier: Subset, allow_indet: bool) -> None:
        self.universe, self.carrier, self.k = universe, carrier, len(carrier)
        rule = OpTable.build(universe, carrier, ())  # the carrier's order and positions
        self.order, self.pos = rule.order, rule.pos
        self.values: list[Optional[int]] = [*range(universe.size), *([INDET] if allow_indet else [])]
        self.count = len(self.values) ** (self.k * self.k)
        self.table = partial(OpTable, universe, carrier, self.order, pos=self.pos)  # of raw cells

    def walk(self, start: int = 0) -> Iterator[tuple]:
        """The raw cells of tables start, start + 1, ... in turn."""
        return itertools.islice(itertools.product(self.values, repeat=self.k * self.k), start, None)

    def _digits(self, number: int, base: int) -> list[int]:
        return [number // base ** (self.k - 1 - d) % base for d in range(self.k)]

    def rows(self, t: int) -> list[int]:
        """Table t's row numbers, first row first: its k digits in base len(values)**k."""
        return self._digits(t, len(self.values) ** self.k)

    def row_cells(self, row: int) -> list:
        """The k cells of a row number."""
        return [self.values[d] for d in self._digits(row, len(self.values))]

    def cells(self, t: int) -> tuple:
        """Table t's k*k cells, first cell first."""
        return tuple(v for row in self.rows(t) for v in self.row_cells(row))

    def masks(self, lo: int, hi: int) -> list[dict]:
        """Per cell, {value: mask} over tables lo..hi-1, bit j set when table lo + j
        holds the value there; nonzero masks only.  Cell i is the base-V digit of
        weight r = V**(k*k - 1 - i): on at most r tables one value, or two split at
        the next multiple of r; else digit d is a run of r ones at d*r, repeated
        with period V*r (by doubling), shifted right by lo mod V*r."""
        base, width = len(self.values), hi - lo
        full, out = (1 << width) - 1, []
        for i in range(self.k * self.k):
            r = base ** (self.k * self.k - 1 - i)
            if r >= width:
                d, split = lo // r % base, r - lo % r
                masks = {d: (1 << split) - 1, (d + 1) % base: full >> split << split} if split < width else {d: full}
            else:
                period, shift = base * r, lo % (base * r)
                runs, size = (1 << r) - 1, period
                while size < shift + width:
                    runs, size = runs | runs << size, 2 * size
                masks = {d: runs << d * r >> shift & full for d in range(base)}
            out.append({self.values[d]: m for d, m in masks.items() if m})
        return out


def enum_tables(universe: Universe, carrier: Subset, allow_indet: bool = False) -> Iterator[OpTable]:
    """All (|U| + indet)^(k*k) tables on the carrier, row-major lexicographic."""
    if carrier.universe != universe:
        raise NotInCarrierError("carrier declared over a different universe")
    if not carrier:
        raise EmptyCarrierError("carrier is empty")
    if universe.size > MAX_UNIVERSE or len(carrier) > MAX_TABLE_CARRIER:
        raise SizeOutOfRangeError(
            f"table enumeration supports universes up to {MAX_UNIVERSE} "
            f"and carriers up to {MAX_TABLE_CARRIER}"
        )
    tables = _Tables(universe, carrier, allow_indet)
    yield from map(tables.table, tables.walk())


def enum_mappings(domain: Subset, codomain: Subset, surjective_only: bool = False) -> Iterator[Mapping]:
    """All maps domain -> codomain in graph-lexicographic order."""
    if not domain or not codomain:
        raise EmptySetError("mapping enumeration needs nonempty domain and codomain")
    cod = tuple(codomain)
    need = set(cod)
    for graph in itertools.product(cod, repeat=len(domain)):
        if surjective_only and set(graph) != need:
            continue
        yield Mapping(domain, codomain.universe, graph, codomain)


# the ordered parallel map


def _split(tasks: Sequence, jobs: int) -> list:
    """At most `jobs` contiguous slices of tasks, in order."""
    size = max(1, -(-len(tasks) // max(1, jobs)))
    return [tasks[i:i + size] for i in range(0, len(tasks), size)]


def _pmap(fn: Callable, argsets: list[tuple], jobs: int) -> list:
    """[fn(*args) for args in argsets], on up to `jobs` worker processes
    when there is more than one argset; in-process otherwise."""
    if jobs <= 1 or len(argsets) <= 1:
        return [fn(*args) for args in argsets]
    from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(fn, *args) for args in argsets]
        return [f.result() for f in futures]


# searching


@dataclass(frozen=True)
class SearchSpec:
    universe_size: int
    carrier_size: int
    allow_indet: bool = False
    law_constraints: tuple[tuple[str, str], ...] = ()
    structural_constraints: tuple[str, ...] = ()
    limit: int = 1
    budget: int = 100_000

    def __post_init__(self) -> None:
        if not 1 <= self.universe_size <= MAX_UNIVERSE:
            raise SizeOutOfRangeError(f"universe size must be 1..{MAX_UNIVERSE}")
        if not 1 <= self.carrier_size <= min(self.universe_size, MAX_TABLE_CARRIER):
            raise SizeOutOfRangeError(
                f"carrier size must be 1..min(universe size, {MAX_TABLE_CARRIER})"
            )
        if self.limit < 1 or self.budget < 1:
            raise SizeOutOfRangeError("limit and budget must be at least 1")
        if not isinstance(self.allow_indet, bool):
            raise ValueError(f"allow_indet must be True or False, got {self.allow_indet!r}")
        bad = [c for c in self.law_constraints if c[0] not in TABLE_LAWS or c[1] not in STATUSES]
        bad += [c for c in self.structural_constraints if c not in STRUCTURAL_CONSTRAINTS]
        if bad:
            raise ValueError(f"unknown constraint {bad[0]!r}: laws are C1..C10, statuses "
                             f"{'/'.join(STATUSES)}, structural {'/'.join(STRUCTURAL_CONSTRAINTS)}")


def _struct_congruence(space: ApproxSpace, table: OpTable) -> bool:
    return (table.carrier.mask == table.universe.full_mask()
            and _congruent([b.mask for b in space.partition.blocks],
                           partial(_set_product, table.cells, table.k, table.pos)))


STRUCTURAL_CONSTRAINTS = {
    "rough-carrier": lambda space, table: approximate(space, table.carrier).is_rough,
    "exact-carrier": lambda space, table: not approximate(space, table.carrier).is_rough,
    "rough-anti-semigroup": lambda space, table: check_rough_anti_semigroup(space, table).overall,
    "congruence": _struct_congruence,
}


@dataclass(frozen=True)
class SearchHit:
    index: int
    space: ApproxSpace
    table: OpTable


def _carriers(universe: Universe, k: int) -> list[Subset]:
    return [Subset.from_indices(universe, c) for c in itertools.combinations(range(universe.size), k)]


class SearchHits(Sequence):
    """A search's hits as compact candidate indices, each decoded to a
    SearchHit on access; equal to the tuple of the decoded hits.

    It holds search's one candidate numbering: index (space * carriers +
    carrier) * count + table, over the spaces in RGS order, the carriers in
    combination order, and each carrier's tables as its `_Tables` numbers them."""

    def __init__(self, spec: SearchSpec, indices: array) -> None:
        self.spec, self.indices = spec, indices
        universe = canonical_universe(spec.universe_size)
        self.spaces = [space_from_partition(p) for p in enum_partitions(spec.universe_size, universe)]
        self.tables = [_Tables(universe, c, spec.allow_indet) for c in _carriers(universe, spec.carrier_size)]
        self.per_space = len(self.tables) * self.tables[0].count
        self.total = len(self.spaces) * self.per_space

    def split(self, idx: int) -> tuple[int, int, int]:
        """A candidate index's space index, carrier index and table number."""
        sidx, rest = divmod(idx, self.per_space)
        return (sidx, *divmod(rest, self.tables[0].count))

    def _hit(self, idx: int) -> SearchHit:
        sidx, cidx, t = self.split(idx)
        return SearchHit(idx, self.spaces[sidx], self.tables[cidx].table(self.tables[cidx].cells(t)))

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._hit, self.indices[i]))
        return self._hit(self.indices[i])

    def __iter__(self) -> Iterator[SearchHit]:
        return map(self._hit, self.indices)

    def __eq__(self, other) -> bool:
        key = lambda hits: (hits.spec.universe_size, hits.spec.carrier_size, hits.spec.allow_indet)
        if isinstance(other, SearchHits) and key(self) == key(other):
            return self.indices == other.indices
        if isinstance(other, (SearchHits, tuple)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"SearchHits({self.spec!r}, {self.indices!r})"


@dataclass(frozen=True)
class SearchOutcome:
    hits: SearchHits
    examined: int
    total: int
    limit_reached: bool
    budget_exhausted: bool


_WINDOW = 1 << 16  # tables per law-stage window: an 8 KB mask


def _passing_rests(hits: SearchHits, lo: int, hi: int) -> Iterator[int]:
    """Rest indices (carrier, then table) in lo..hi-1 whose table meets every
    law constraint, in order.  Each carrier's tables in range are judged in
    windows of up to _WINDOW, each built when the rest before it is passed:
    a constraint's status mask, one bit per table, narrows the window's mask."""
    for cidx, tables in enumerate(hits.tables):
        base = cidx * tables.count
        start, stop = max(lo - base, 0), min(hi - base, tables.count)
        for a in range(start, stop, _WINDOW):
            b = min(a + _WINDOW, stop)
            mask = (1 << (b - a)) - 1
            if hits.spec.law_constraints:
                cm = tables.masks(a, b)
                for law, status in hits.spec.law_constraints:
                    mask = mask and _status_mask(law, status, cm, tables.k, tables.order, tables.pos, mask)
            bits = format(mask, "b")[::-1]  # bit j at position j
            j = bits.find("1")
            while j >= 0:
                yield base + a + j
                j = bits.find("1", j + 1)


def _scan(spec: SearchSpec, lo: int, hi: int) -> array:
    """Indices of the hits whose rest (carrier, then table) is in lo..hi-1, in
    canonical order, stopping at spec.limit or the budget.

    Law constraints see only the rest, so each rest is checked once, lazily
    in the first space, and the passing ones are replayed in the later
    spaces.  Only those get a table, for the structural constraints."""
    hits, passing = SearchHits(spec, array("q")), array("q")
    end = min(hits.total, spec.budget)
    for sidx, space in enumerate(hits.spaces):
        first = sidx == 0
        for rest in _passing_rests(hits, lo, hi) if first else passing:
            idx = sidx * hits.per_space + rest
            if idx >= end:
                return hits.indices
            if first:
                passing.append(rest)
            if spec.structural_constraints:
                table = hits._hit(idx).table
                if not all(STRUCTURAL_CONSTRAINTS[name](space, table)
                           for name in spec.structural_constraints):
                    continue
            hits.indices.append(idx)
            if len(hits) == spec.limit:
                return hits.indices
    return hits.indices


def search(spec: SearchSpec, jobs: int = 1) -> SearchOutcome:
    """Scan the candidate space in canonical order, up to limit and budget.

    Output is independent of the worker count.
    """
    hits = SearchHits(spec, array("q"))
    end = min(hits.total, spec.budget)
    # Workers split the rests, so each rest is law-checked by one worker.
    # Each returns its own first `limit` hits, so the global first `limit`
    # hits are all in the union.
    ranges = _split(range(min(hits.per_space, end)), jobs)
    parts = _pmap(_scan, [(spec, r.start, r.stop) for r in ranges], jobs)
    hits.indices.extend(itertools.islice(heapq.merge(*parts), min(spec.limit, sum(map(len, parts)))))
    limit_reached = len(hits) == spec.limit
    return SearchOutcome(
        hits=hits,
        examined=hits.indices[-1] + 1 if limit_reached else end,
        total=hits.total,
        limit_reached=limit_reached,
        budget_exhausted=not limit_reached and end == spec.budget and spec.budget < hits.total,
    )


# instance streams, one per law family


def _space_tasks(max_n: int) -> list[tuple[int, int]]:
    """(n, partition index) for every approximation space with n <= max_n."""
    return [(n, p) for n in range(1, max_n + 1) for p in range(bell_number(n))]


def _task_spaces(tasks: list[tuple[int, int]]) -> Iterator[tuple]:
    """Each (n, partition index) task's space, full mask, and lower and upper tables."""
    spaces = {n: list(enum_spaces(n)) for n in {n for n, _ in tasks}}
    for n, pidx in tasks:
        space = spaces[n][pidx]
        full = space.universe.full_mask()
        yield (space, full, *zip(*(_lower_upper(space, m) for m in range(full + 1))))


def _space_descr(space: ApproxSpace) -> dict:
    return {"universe": list(space.universe.labels), "partition": partition_json(space.partition)}


def _approx_witness(space: ApproxSpace, x: int, y: int, bad: int) -> dict:
    u = space.universe
    return {**_space_descr(space), "A": list(Subset(u, x).labels()),
            "B": list(Subset(u, y).labels()), "witness": _witness(u, bad)}


def _approx_stream(law: str, tasks: list[tuple[int, int]]):
    """L1..L9 or P31 over every pair of subset masks of each task's space."""
    law_bad = _LAW_BAD[law]
    for space, full, lower, upper in _task_spaces(tasks):
        for x in range(full + 1):
            for y in range(full + 1):
                bad = law_bad(lower, upper, full, x, y)
                yield bad and partial(_approx_witness, space, x, y, bad)


def _p22_witness(space: ApproxSpace, tables: _Tables, cells: tuple, x: int, y: int,
                 failed: list[str], cong: bool) -> dict:
    u, table = space.universe, tables.table(cells)
    return {**_space_descr(space), "table": table_json(table)["rows"], "X": list(Subset(u, x).labels()),
            "Y": list(Subset(u, y).labels()), "failed": failed, "congruence": cong}


def _p22_stream(tasks: list[tuple[int, int]]):
    """Relations (a) and (b) over every total table on each task's universe, with its set
    products tabled over all mask pairs, and every pair of nonempty subset masks.  Returns the
    congruent instances and their failures of inclusion (a), a theorem there, and of the equality."""
    congruent = inclusion = equality = 0
    for space, full, lower, upper in _task_spaces(tasks):
        masks, blocks = range(full + 1), [b.mask for b in space.partition.blocks]
        tables = _Tables(space.universe, Subset.full(space.universe), False)
        k, pos = tables.k, tables.pos
        for cells in tables.walk():
            prods = [[_set_product(cells, k, pos, a, b) for b in masks] for a in masks]
            pr = lambda a, b: prods[a][b]
            cong = _congruent(blocks, pr)
            for x in masks[1:]:
                for y in masks[1:]:
                    bad = _product_relations(lower, upper, pr, x, y)
                    failed = [name for name, m in zip("ab", bad) if m]
                    if cong:
                        congruent += 1
                        inclusion += bool(bad[0])
                        equality += bool(failed)
                    yield failed and partial(_p22_witness, space, tables, cells, x, y, failed, cong)
    return {"congruent_instances": congruent, "congruent_inclusion_failures": inclusion,
            "congruent_equality_failures": equality}


def _composition_witness(tables: _Tables, cells: tuple, prop: str, phi1: Mapping, phi2: Mapping) -> dict:
    table = tables.table(cells)
    ce = next(_composition_outcomes(table, [(phi1, phi2)], prop))
    return {"table": table_json(table)["rows"], "phi1": [list(p) for p in ce.phi1.pairs()],
            "phi2": [list(p) for p in ce.phi2.pairs()], "pair": list(ce.pair)}


def _composition_stream(prop: str, allow_indet: bool, carriers: list[Subset]):
    """Every checked pair of self-maps of each carrier, over each of its tables.
    Returns the tables and the pairs skipped as not meeting the hypothesis."""
    ntables = skipped = 0
    for carrier in carriers:
        tables = _Tables(carrier.universe, carrier, allow_indet)
        k, pos = tables.k, tables.pos
        maps = list(enum_mappings(carrier, carrier))
        vals = [dict(zip(m.domain, m.graph)) for m in maps]
        index = {m.graph: i for i, m in enumerate(maps)}
        comp = [[index[tuple(va[v] for v in mb.graph)] for mb in maps] for va in vals]  # a o b
        for cells in tables.walk():
            raw = (cells, k, pos)
            rev, pres = zip(*(_behaviour(raw, raw, val) for val in vals))
            want2, claim = (pres, rev) if prop == "p41" else (rev, pres)
            firsts, seconds = ([i for i, ok in enumerate(col) if ok] for col in (rev, want2))
            ntables += 1
            skipped += len(maps) ** 2 - len(firsts) * len(seconds)
            for a, b in itertools.product(firsts, seconds):
                yield not claim[comp[a][b]] and partial(_composition_witness, tables, cells, prop,
                                                       maps[a], maps[b])
    return {"tables": ntables, "skipped_pairs": skipped}


# the law table


@dataclass(frozen=True)
class _SweepLaw:
    """One sweep law; the defaults but `block_good` are those of L1-L9 and P31."""

    stream: Callable[[bool], Callable]  # allow_indet -> stream of a task list
    tasks: Callable[[int, int], list] = lambda n, k: _space_tasks(n)  # at sizes n and k
    size: Callable[[int], int] = lambda max_n: max_n  # the suite's n
    suite_drops: tuple[str, ...] = ()  # witness keys the suite leaves out
    hypothesis: Optional[str] = None  # the extra count of instances meeting it
    block_good: Optional[Callable[[int], list]] = None  # n -> passing pairs on blocks of 0..n


def _good_pairs(law: str, max_n: int) -> list[int]:
    """For b = 0..max_n, the (X, Y) pairs on a one-block space of b elements where the
    law holds: the surjections of the elements onto each set S of states (neither, X,
    Y, both) where it holds for one element per state, which suffices if block-local."""
    good = [0] * (max_n + 1)
    for occurring in range(1, 16):  # S, as a set of bits
        states = [st for st in range(4) if occurring >> st & 1]
        s, full = len(states), (1 << len(states)) - 1
        x, y = (sum(1 << i for i, st in enumerate(states) if st & bit) for bit in (1, 2))
        if not _LAW_BAD[law]([0] * full + [full], [0] + [full] * full, full, x, y):
            good = [g + sum((-1) ** j * comb(s, j) * (s - j) ** b for j in range(s + 1))
                    for b, g in enumerate(good)]
    return good


def _approx_law(law: str) -> _SweepLaw:
    """Every pair of subsets of every space with up to n elements."""
    return _SweepLaw(lambda allow_indet: partial(_approx_stream, law),
                     block_good=partial(_good_pairs, law))


_SWEEP_LAWS = {
    **{law: _approx_law(law) for law in APPROX_LAWS},
    # every total table on the universe of each space with up to min(max_n, 2) elements
    "P22": _SweepLaw(lambda allow_indet: _p22_stream, size=partial(min, 2),
                     suite_drops=("failed",), hypothesis="congruent_instances"),
    "P31": _approx_law("P31"),
    # every table and pair of self-maps of each k-element carrier; the suite at n = k = 2
    **{law: _SweepLaw(partial(partial, _composition_stream, prop),
                      lambda n, k: _carriers(canonical_universe(n), k), lambda max_n: 2)
       for law, prop in (("P41", "p41"), ("P42", "p42"))},
}
COUNTEREXAMPLE_LAWS = tuple(_SWEEP_LAWS)


def _sweep_law(law: str) -> _SweepLaw:
    if law not in _SWEEP_LAWS:
        raise ValueError(f"no registered relation named {law!r}")
    return _SWEEP_LAWS[law]


# reducers


def _first(stream, budget: int) -> tuple[str, dict | None, int]:
    """(status, witness, examined) of the first failure within budget instances."""
    examined = 0
    for item in stream:
        if examined == budget:
            return "budget", None, examined
        examined += 1
        if item:
            return "found", item(), examined
    return "none", None, examined


def _count(stream) -> tuple[int, int, dict | None, dict]:
    """(instances, failures, first witness, extra counts) of a stream; the
    extra counts are what the stream returns, if anything."""
    instances = failures = 0
    first = None
    while True:
        try:
            item = next(stream)
        except StopIteration as end:
            return instances, failures, first, end.value or {}
        instances += 1
        if item:
            failures += 1
            if first is None:
                first = item()


# counterexample mining and exhaustive suites


@dataclass(frozen=True)
class FindOutcome:
    law: str
    status: str  # found | none | budget
    witness: dict | None
    examined: int


def find_counterexample(law: str, bounds: SearchSpec) -> FindOutcome:
    """Smallest-by-canonical-order counterexample within bounds, if any.

    BudgetExhausted is a status, never an error.  The budget counts what the
    law's suite counts as instances: subset pairs, or checked mapping pairs
    for P41 and P42, the only laws that read `carrier_size` and `allow_indet`.
    """
    record = _sweep_law(law)
    if bounds.law_constraints or bounds.structural_constraints or bounds.limit != 1:
        raise ValueError("find_counterexample takes no constraints, and a limit of 1")
    if bounds.allow_indet and law not in ("P41", "P42"):
        what = "total tables only" if law == "P22" else "subsets of spaces, with no table"
        raise ValueError(f"{law} sweeps {what}, so allow_indet must be False")
    tasks = record.tasks(bounds.universe_size, bounds.carrier_size)
    return FindOutcome(law, *_first(record.stream(bounds.allow_indet)(tasks), bounds.budget))


@dataclass(frozen=True)
class SuiteResult:
    law: str
    instances: int
    failures: int
    first_failure: dict | None
    extra: tuple[tuple[str, int], ...] = ()


def _block_count(record: _SweepLaw, max_n: int) -> tuple[int, int, dict | None, dict]:
    """`_count` of a block-local law over the spaces of up to max_n elements; a space's
    passing pairs are the product of its blocks' `block_good`.  Streams one space."""
    good = record.block_good(max_n)
    every, passing = _partition_sums([4 ** b for b in range(max_n + 1)]), _partition_sums(good)
    n = next((n for n in range(1, max_n + 1) if passing[n] < every[n]), None)
    first = None
    if n:
        pidx = next(p for p, rgs in enumerate(rgs_strings(n))
                    if prod(good[rgs.count(b)] for b in range(max(rgs) + 1)) < 4 ** n)
        first = _first(record.stream(False)([(n, pidx)]), 4 ** n)[1]
    return sum(every) - 1, sum(every) - sum(passing), first, {}


def law_suite(law: str, max_n: int) -> SuiteResult:
    """Exhaustive sweep of one law at its sweep size n, with the whole
    n-element universe as the carrier, in the calling process.
    """
    if not 1 <= max_n <= MAX_LAWS_N:
        raise SizeOutOfRangeError(f"max_n must be 1..{MAX_LAWS_N}")
    record = _sweep_law(law)
    n = record.size(max_n)
    instances, failures, first, extra = (_block_count(record, n) if record.block_good
                                         else _count(record.stream(False)(record.tasks(n, n))))
    first = first and {k: v for k, v in first.items() if k not in record.suite_drops}
    return SuiteResult(law, instances, failures, first, tuple(extra.items()))

"""Exhaustive generators, the constraint-driven searcher and the law sweeps.

Everything streams in one canonical order (partition restricted-growth
string, then carrier combination, then table cells row-major, then mapping
graph), so searches are reproducible and the space can be split into
ranges across workers without changing the output.

A law sweep is stream -> reducer -> `_pmap`.  Each law family has one
instance stream over a slice of its tasks, yielding per instance a falsy
item if it holds, else a callable that builds the witness, and returning
any extra counts: `_approx_stream` for L1-L9 and P31, `_p22_stream`, and
`_composition_stream` for P41/P42.  A `_SweepLaw` record per law of
COUNTEREXAMPLE_LAWS holds its stream, tasks, sweep size and hypothesis.
`_count` reduces a stream for `law_suite`, `_first` for
`find_counterexample` under a budget.  `_pmap` runs the slices, on worker
processes when jobs > 1, and returns results in task order.

`search` maps `_scan` over ranges of (carrier, table) rests the same way.
Law constraints see only a candidate's rest, so each rest is checked once,
on raw cells, by the one worker whose range holds it; `_scan` replays the
passing rests across partitions and returns hit indices, from which
`search` builds the hits.

Size caps: universes up to 6 elements, table carriers up to 4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

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
from .algebra import (STATUSES, TABLE_LAWS, OpTable, _has_status, _product_relations,
                      evaluate_law, is_congruence)  # noqa: F401 (bench/micro.py patches evaluate_law here)
from .errors import EmptyCarrierError, EmptySetError, SizeOutOfRangeError
from .morphisms import Mapping, _composition_outcomes
from .report import partition_json, table_json
from .rough_structures import check_rough_anti_semigroup

MAX_UNIVERSE = 6
MAX_TABLE_CARRIER = 4

_BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def bell_number(n: int) -> int:
    return _BELL[n]


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


def _table_values(universe: Universe, allow_indet: bool) -> list[Optional[int]]:
    vals: list[Optional[int]] = list(range(universe.size))
    if allow_indet:
        vals.append(None)
    return vals


def enum_tables(universe: Universe, carrier: Subset, allow_indet: bool = False) -> Iterator[OpTable]:
    """All (|U| + indet)^(k*k) tables on the carrier, row-major lexicographic."""
    if not carrier:
        raise EmptyCarrierError("carrier is empty")
    if universe.size > MAX_UNIVERSE or len(carrier) > MAX_TABLE_CARRIER:
        raise SizeOutOfRangeError(
            f"table enumeration supports universes up to {MAX_UNIVERSE} "
            f"and carriers up to {MAX_TABLE_CARRIER}"
        )
    k = len(carrier)
    for cells in itertools.product(_table_values(universe, allow_indet), repeat=k * k):
        yield OpTable.build(universe, carrier, cells)


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
        bad = [c for c in self.law_constraints if c[0] not in TABLE_LAWS or c[1] not in STATUSES]
        bad += [c for c in self.structural_constraints if c not in STRUCTURAL_CONSTRAINTS]
        if bad:
            raise ValueError(f"unknown constraint {bad[0]!r}: laws are C1..C10, statuses "
                             f"{'/'.join(STATUSES)}, structural {'/'.join(STRUCTURAL_CONSTRAINTS)}")


def _struct_congruence(space: ApproxSpace, table: OpTable) -> bool:
    if table.carrier.mask != table.universe.full_mask():
        return False
    return is_congruence(space, table).holds


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


@dataclass(frozen=True)
class SearchOutcome:
    hits: tuple[SearchHit, ...]
    examined: int
    total: int
    limit_reached: bool
    budget_exhausted: bool


def _carriers(universe: Universe, k: int) -> list[Subset]:
    return [Subset.from_indices(universe, c) for c in itertools.combinations(range(universe.size), k)]


def _search_fixture(spec: SearchSpec):
    universe = canonical_universe(spec.universe_size)
    spaces = [space_from_partition(p) for p in enum_partitions(spec.universe_size, universe)]
    ntables = (spec.universe_size + (1 if spec.allow_indet else 0)) ** (spec.carrier_size ** 2)
    return universe, spaces, _carriers(universe, spec.carrier_size), ntables


def _rest_table(spec: SearchSpec, fixture, rest: int) -> OpTable:
    """Decode a candidate's rest index: its carrier, then its enum_tables table."""
    universe, _, carriers, ntables = fixture
    cidx, tidx = divmod(rest, ntables)
    vals, ncells = _table_values(universe, spec.allow_indet), spec.carrier_size ** 2
    cells = (vals[tidx // len(vals) ** (ncells - 1 - slot) % len(vals)] for slot in range(ncells))
    return OpTable.build(universe, carriers[cidx], tuple(cells))


def _passing_rests(spec: SearchSpec, fixture, lo: int, hi: int) -> Iterator[int]:
    """Rest indices (carrier, then table) in lo..hi-1 whose table meets every
    law constraint, walking each carrier's tables in enum_tables order."""
    universe, _, carriers, ntables = fixture
    vals = _table_values(universe, spec.allow_indet)
    for cidx in range(lo // ntables, -(-hi // ntables)):
        order = tuple(carriers[cidx])
        pos = [order.index(i) if i in order else -1 for i in range(universe.size)]
        first = max(lo, cidx * ntables)
        tables = itertools.product(vals, repeat=spec.carrier_size ** 2)
        for rest, cells in zip(range(first, min(hi, (cidx + 1) * ntables)),
                               itertools.islice(tables, first - cidx * ntables, None)):
            if all(_has_status(law, status, cells, spec.carrier_size, order, pos)
                   for law, status in spec.law_constraints):
                yield rest


def _scan(spec: SearchSpec, lo: int, hi: int) -> list[int]:
    """Indices of the hits whose rest (carrier, then table) is in lo..hi-1, in
    canonical order, stopping at spec.limit or the budget.

    Law constraints see only the rest, so each rest is checked once, lazily
    in the first space, and the passing ones are replayed in the later
    spaces.  Only those get a table, for the structural constraints."""
    fixture = _search_fixture(spec)
    _, spaces, carriers, ntables = fixture
    per_space = len(carriers) * ntables
    end = min(len(spaces) * per_space, spec.budget)
    passing: list[int] = []
    hits = []
    for sidx, space in enumerate(spaces):
        first = sidx == 0
        for rest in _passing_rests(spec, fixture, lo, hi) if first else passing:
            idx = sidx * per_space + rest
            if idx >= end:
                return hits
            if first:
                passing.append(rest)
            if spec.structural_constraints:
                table = _rest_table(spec, fixture, rest)
                if not all(STRUCTURAL_CONSTRAINTS[name](space, table)
                           for name in spec.structural_constraints):
                    continue
            hits.append(idx)
            if len(hits) == spec.limit:
                return hits
    return hits


def search(spec: SearchSpec, jobs: int = 1) -> SearchOutcome:
    """Scan the candidate space in canonical order, up to limit and budget.

    Output is independent of the worker count.
    """
    fixture = _search_fixture(spec)
    _, spaces, carriers, ntables = fixture
    per_space = len(carriers) * ntables
    total = len(spaces) * per_space
    end = min(total, spec.budget)
    # Workers split the rests, so each rest is law-checked by one worker.
    # Each returns its own first `limit` hits, so the global first `limit`
    # hits are all in the union.
    ranges = _split(range(min(per_space, end)), jobs)
    parts = _pmap(_scan, [(spec, r.start, r.stop) for r in ranges], jobs)
    indices = sorted(idx for part in parts for idx in part)[: spec.limit]
    # hits that differ only in the partition share a table
    tables = {rest: _rest_table(spec, fixture, rest) for rest in {i % per_space for i in indices}}
    hits = [SearchHit(i, spaces[i // per_space], tables[i % per_space]) for i in indices]
    limit_reached = len(hits) == spec.limit
    return SearchOutcome(
        hits=tuple(hits),
        examined=indices[-1] + 1 if limit_reached else end,
        total=total,
        limit_reached=limit_reached,
        budget_exhausted=not limit_reached and end == spec.budget and spec.budget < total,
    )


# instance streams, one per law family


def _space_tasks(max_n: int) -> list[tuple[int, int]]:
    """(n, partition index) for every approximation space with n <= max_n."""
    return [(n, p) for n in range(1, max_n + 1) for p in range(bell_number(n))]


def _task_spaces(tasks: list[tuple[int, int]]) -> Iterator[ApproxSpace]:
    """The space of each (n, partition index) task."""
    spaces = {n: list(enum_spaces(n)) for n in {n for n, _ in tasks}}
    return (spaces[n][pidx] for n, pidx in tasks)


def _space_descr(space: ApproxSpace) -> dict:
    return {"universe": list(space.universe.labels), "partition": partition_json(space.partition)}


def _approx_witness(space: ApproxSpace, x: int, y: int, bad: int) -> dict:
    u = space.universe
    return {**_space_descr(space), "A": list(Subset(u, x).labels()),
            "B": list(Subset(u, y).labels()), "witness": _witness(u, bad)}


def _approx_stream(law: str, tasks: list[tuple[int, int]]):
    """L1..L9 or P31 over every pair of subset masks of each task's space,
    reading lower/upper tables built once per space over all its masks."""
    law_bad = _LAW_BAD[law]
    for space in _task_spaces(tasks):
        full = space.universe.full_mask()
        lower, upper = zip(*(_lower_upper(space, m) for m in range(full + 1)))
        for x in range(full + 1):
            for y in range(full + 1):
                bad = law_bad(lower, upper, full, x, y)
                yield bad and partial(_approx_witness, space, x, y, bad)


def _p22_witness(space: ApproxSpace, table: OpTable, x: Subset, y: Subset,
                 failed: list[str], cong: bool) -> dict:
    return {**_space_descr(space), "table": table_json(table)["rows"], "X": list(x.labels()),
            "Y": list(y.labels()), "failed": failed, "congruence": cong}


def _p22_stream(tasks: list[tuple[int, int]]):
    """Relations (a) and (b) over every total table on each task's universe
    and every pair of nonempty subsets.  Returns the congruent instances
    and their failures of inclusion (a), a theorem there, and of the equality."""
    congruent = inclusion = equality = 0
    for space in _task_spaces(tasks):
        universe = space.universe
        nonempty = [Subset(universe, m) for m in range(1, 1 << universe.size)]
        for table in enum_tables(universe, Subset.full(universe)):
            cong = is_congruence(space, table).holds
            for x in nonempty:
                for y in nonempty:
                    rels = _product_relations(space, table, x, y)
                    failed = [r.relation for r in rels[:2] if not r.holds]
                    if cong:
                        congruent += 1
                        inclusion += not rels[0].holds
                        equality += bool(failed)
                    yield failed and partial(_p22_witness, space, table, x, y, failed, cong)
    return {"congruent_instances": congruent, "congruent_inclusion_failures": inclusion,
            "congruent_equality_failures": equality}


def _composition_witness(table: OpTable, ce) -> dict:
    return {"table": table_json(table)["rows"], "phi1": [list(p) for p in ce.phi1.pairs()],
            "phi2": [list(p) for p in ce.phi2.pairs()], "pair": list(ce.pair)}


def _composition_stream(prop: str, allow_indet: bool, carriers: list[Subset]):
    """Every checked pair of self-maps of each carrier, over each of its tables.
    Returns the tables and the pairs skipped as not composable."""
    tables = skipped = 0
    for carrier in carriers:
        maps = list(enum_mappings(carrier, carrier))
        pairs = [(a, b) for a in maps for b in maps]
        for table in enum_tables(carrier.universe, carrier, allow_indet):
            tables += 1
            skipped += len(pairs)
            for ce in _composition_outcomes(table, pairs, prop):
                skipped -= 1
                yield ce and partial(_composition_witness, table, ce)
    return {"tables": tables, "skipped_pairs": skipped}


# the law table


@dataclass(frozen=True)
class _SweepLaw:
    """One sweep law; the defaults are those of L1-L9 and P31, at n = max_n."""

    stream: Callable[[bool], Callable]  # allow_indet -> picklable stream of a task slice
    tasks: Callable[[int, int], list] = lambda n, k: _space_tasks(n)  # at sizes n and k
    size: Callable[[int], int] = lambda max_n: max_n  # the suite's n
    suite_drops: tuple[str, ...] = ()  # witness keys the suite leaves out
    hypothesis: Optional[str] = None  # the extra count of instances meeting it


def _approx_law(law: str) -> _SweepLaw:
    """Every pair of subsets of every space with up to n elements."""
    return _SweepLaw(lambda allow_indet: partial(_approx_stream, law))


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


def _count(stream_fn: Callable, tasks: list) -> tuple[int, int, dict | None, dict]:
    """(instances, failures, first witness, extra counts) over stream_fn(tasks);
    the extra counts are what the stream returns, if anything.

    Takes the stream's function and tasks, not the stream, so that `_pmap`
    can send it to a worker process."""
    instances = failures = 0
    first = None
    stream = stream_fn(tasks)
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
    for P41 and P42.
    """
    record = _sweep_law(law)
    tasks = record.tasks(bounds.universe_size, bounds.carrier_size)
    return FindOutcome(law, *_first(record.stream(bounds.allow_indet)(tasks), bounds.budget))


@dataclass(frozen=True)
class SuiteResult:
    law: str
    instances: int
    failures: int
    first_failure: dict | None
    extra: tuple[tuple[str, int], ...] = ()


def law_suite(law: str, max_n: int, jobs: int = 1) -> SuiteResult:
    """Exhaustive sweep of one law at its sweep size n, with the whole
    n-element universe as the carrier, on up to `jobs` worker processes;
    the result does not depend on jobs.
    """
    if not 1 <= max_n <= MAX_UNIVERSE:
        raise SizeOutOfRangeError(f"max_n must be 1..{MAX_UNIVERSE}")
    record = _sweep_law(law)
    n = record.size(max_n)
    stream_fn = record.stream(False)
    parts = _pmap(_count, [(stream_fn, part) for part in _split(record.tasks(n, n), jobs)], jobs)
    instances = sum(p[0] for p in parts)
    failures = sum(p[1] for p in parts)
    first = next((p[2] for p in parts if p[2] is not None), None)
    extra = {name: sum(p[3][name] for p in parts) for name in parts[0][3]}
    first = first and {k: v for k, v in first.items() if k not in record.suite_drops}
    return SuiteResult(law, instances, failures, first, tuple(extra.items()))

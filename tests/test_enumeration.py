import dataclasses
import itertools
import pickle
import random
from functools import lru_cache
from math import comb

import pytest

from roughalg import (
    SearchSpec,
    Subset,
    canonical_universe,
    classify,
    enum_mappings,
    enum_partitions,
    enum_spaces,
    enum_tables,
    evaluate_law,
    find_counterexample,
    search,
)
from roughalg.algebra import STATUSES, TABLE_LAWS
from roughalg import enumeration
from roughalg.enumeration import COUNTEREXAMPLE_LAWS, STRUCTURAL_CONSTRAINTS, _scan, law_suite
from roughalg.errors import EmptyCarrierError, EmptySetError, SizeOutOfRangeError

from conftest import law_counts_oracle, status_oracle


def bell_oracle(n: int) -> int:
    # independent recursion: B(n) = sum C(n-1, k) B(k)
    b = [1]
    for m in range(1, n + 1):
        b.append(sum(comb(m - 1, k) * b[k] for k in range(m)))
    return b[n]


def test_partition_counts_match_bell():
    for n in range(1, 6):
        parts = list(enum_partitions(n))
        assert len(parts) == bell_oracle(n)
        # duplicate-free, canonical order reproducible
        keys = [tuple(b.mask for b in p.blocks) for p in parts]
        assert len(set(keys)) == len(keys)
        assert keys == [tuple(b.mask for b in p.blocks) for p in enum_partitions(n)]


def test_partition_order_starts_coarse():
    first = next(iter(enum_partitions(2)))
    assert [b.labels() for b in first.blocks] == [("1", "2")]


def test_partition_size_errors():
    with pytest.raises(SizeOutOfRangeError):
        list(enum_partitions(0))
    with pytest.raises(SizeOutOfRangeError):
        list(enum_partitions(7))


def test_table_counts():
    u3 = canonical_universe(3)
    assert sum(1 for _ in enum_tables(u3, Subset.from_labels(u3, ["1", "2"]))) == 81
    u2 = canonical_universe(2)
    assert sum(1 for _ in enum_tables(u2, Subset.from_labels(u2, ["1"]))) == 2
    assert sum(1 for _ in enum_tables(u2, Subset.full(u2), allow_indet=True)) == 81
    with pytest.raises(EmptyCarrierError):
        list(enum_tables(u2, Subset.empty(u2)))
    u6 = canonical_universe(6)
    with pytest.raises(SizeOutOfRangeError):
        list(enum_tables(u6, Subset.from_indices(u6, range(5))))


def test_table_stream_canonical():
    u = canonical_universe(2)
    tables = list(enum_tables(u, Subset.full(u), allow_indet=True))
    assert tables[0].cells == (0, 0, 0, 0)
    assert tables[-1].cells == (None, None, None, None)
    assert len({t.cells for t in tables}) == len(tables)


def surjections_oracle(m: int, d: int) -> int:
    # inclusion-exclusion
    return sum((-1) ** j * comb(m, j) * (m - j) ** d for j in range(m + 1))


def test_mapping_counts():
    u = canonical_universe(3)
    dom2 = Subset.from_labels(u, ["1", "2"])
    cod2 = Subset.from_labels(u, ["1", "2"])
    assert sum(1 for _ in enum_mappings(dom2, cod2)) == 4
    assert sum(1 for _ in enum_mappings(dom2, cod2, surjective_only=True)) == 2

    dom3 = Subset.full(u)
    assert sum(1 for _ in enum_mappings(dom3, cod2, surjective_only=True)) == \
        surjections_oracle(2, 3) == 6

    cod1 = Subset.from_labels(u, ["1"])
    maps = list(enum_mappings(dom3, cod1))
    assert len(maps) == 1 and maps[0].is_surjective()

    with pytest.raises(EmptySetError):
        list(enum_mappings(Subset.empty(u), cod1))


def test_search_matches_direct_scan():
    u = canonical_universe(2)
    full = Subset.full(u)
    expect = [i for i, t in enumerate(enum_tables(u, full))
              if evaluate_law(t, "C4").status == "AllFalse"]
    out = search(SearchSpec(universe_size=2, carrier_size=2,
                            law_constraints=(("C4", "AllFalse"),),
                            limit=10, budget=10_000))
    # two partitions of a 2-universe; same tables match under each
    assert [h.index for h in out.hits] == expect + [i + 16 for i in expect]
    assert all(classify(h.table).is_ag4 for h in out.hits)


def test_search_trivial_group_unique_at_size_one():
    out = search(SearchSpec(universe_size=1, carrier_size=1,
                            law_constraints=tuple((c, "AllTrue") for c in
                                                  ("C1", "C2", "C3", "C4")),
                            limit=5, budget=100))
    assert len(out.hits) == 1 and out.total == 1
    assert classify(out.hits[0].table).is_group


def test_search_budget_and_limit_flags():
    spec = SearchSpec(universe_size=2, carrier_size=2,
                      law_constraints=(("C4", "AllFalse"),), limit=10, budget=5)
    out = search(spec)
    assert out.examined == 5 and out.budget_exhausted and not out.limit_reached

    spec = SearchSpec(universe_size=2, carrier_size=2, limit=1, budget=10_000)
    out = search(spec)
    assert out.limit_reached and out.examined == 1


def test_search_parallel_identical():
    spec = SearchSpec(universe_size=2, carrier_size=2,
                      law_constraints=(("C4", "AllFalse"),), limit=10, budget=10_000)
    assert search(spec, jobs=3) == search(spec, jobs=1)
    truncated = SearchSpec(universe_size=2, carrier_size=2,
                           law_constraints=(("C4", "AllFalse"),), limit=10, budget=5)
    assert search(truncated, jobs=2) == search(truncated, jobs=1)


def test_enum_partitions_custom_universe():
    u = canonical_universe(3)
    parts = list(enum_partitions(3, u))
    assert len(parts) == 5 and all(p.universe == u for p in parts)
    with pytest.raises(SizeOutOfRangeError):
        list(enum_partitions(2, u))


def test_spec_validation():
    with pytest.raises(SizeOutOfRangeError):
        SearchSpec(universe_size=7, carrier_size=1)
    with pytest.raises(SizeOutOfRangeError):
        SearchSpec(universe_size=3, carrier_size=4)
    with pytest.raises(SizeOutOfRangeError):
        SearchSpec(universe_size=2, carrier_size=2, limit=0)


@pytest.mark.parametrize("kwargs", [
    {"law_constraints": (("C4", "Allfalse"),)},       # misspelt status
    {"law_constraints": (("C11", "AllTrue"),)},       # unknown law
    {"structural_constraints": ("congruent",)},       # unknown structural name
])
def test_spec_rejects_constraints_that_never_match(kwargs):
    with pytest.raises(ValueError):
        SearchSpec(universe_size=2, carrier_size=2, **kwargs)


def test_structural_constraint_registry():
    # congruence: every table on a 2-universe is compatible with both of
    # its (trivial) partitions, so constraining changes nothing at n=2
    base = SearchSpec(universe_size=2, carrier_size=2, limit=50, budget=10_000)
    cong = SearchSpec(universe_size=2, carrier_size=2, limit=50, budget=10_000,
                      structural_constraints=("congruence",))
    assert len(search(cong).hits) == len(search(base).hits) == 32

    # exact-carrier and rough-carrier split the candidates
    exact = SearchSpec(universe_size=2, carrier_size=1, limit=100, budget=10_000,
                       structural_constraints=("exact-carrier",))
    rough = SearchSpec(universe_size=2, carrier_size=1, limit=100, budget=10_000,
                       structural_constraints=("rough-carrier",))
    n_exact = len(search(exact).hits)
    n_rough = len(search(rough).hits)
    total = search(SearchSpec(universe_size=2, carrier_size=1,
                              limit=100, budget=10_000)).total
    assert n_exact + n_rough == total
    assert n_rough > 0


def test_find_counterexample_p31_minimal():
    out = find_counterexample("P31", SearchSpec(universe_size=2, carrier_size=1))
    assert out.status == "found"
    assert out.witness["partition"] == [["1", "2"]]
    assert out.witness["A"] == ["1"] and out.witness["B"] == ["2"]


def test_find_counterexample_l4_none():
    out = find_counterexample("L4", SearchSpec(universe_size=3, carrier_size=1,
                                               budget=10_000_000))
    assert out.status == "none"


def test_find_counterexample_p22():
    out = find_counterexample("P22", SearchSpec(universe_size=2, carrier_size=2,
                                                budget=1_000_000))
    assert out.status == "found"
    assert out.witness["failed"]           # at least one of the two directions


def test_find_counterexample_budget_status():
    out = find_counterexample("L1", SearchSpec(universe_size=4, carrier_size=1, budget=7))
    assert out.status == "budget" and out.examined == 7


def test_find_counterexample_budget_counts_checked_pairs():
    for law in ("P41", "P42"):
        out = find_counterexample(law, SearchSpec(universe_size=2, carrier_size=2, budget=7))
        assert out.status == "budget" and out.examined == 7
    out = find_counterexample("P41", SearchSpec(universe_size=2, carrier_size=2))
    assert out.status == "none" and out.examined == 60


@pytest.mark.parametrize("law, n, examined, witness", [
    ("P41", 2, 51, {"table": [["1", "1"], ["?", "2"]], "phi1": [["1", "1"], ["2", "2"]],
                    "phi2": [["1", "2"], ["2", "1"]], "pair": ["1", "2"]}),
    ("P42", 2, 258, {"table": [["2", "?"], ["?", "?"]], "phi1": [["1", "2"], ["2", "1"]],
                     "phi2": [["1", "2"], ["2", "2"]], "pair": ["1", "1"]}),
    ("P41", 3, 73, None),
    ("P42", 3, 443, None),
])
def test_find_counterexample_composition_allow_indet(law, n, examined, witness):
    # the only path where the stream reads allow_indet, and (at n = 3) where
    # the 2-element carriers are proper subsets of the universe
    out = find_counterexample(law, SearchSpec(universe_size=n, carrier_size=2,
                                              allow_indet=True, budget=10**6))
    assert (out.status, out.examined) == ("found", examined)
    if witness is not None:
        assert out.witness == witness


def test_approx_law_suite_counts():
    r = law_suite("L5", 3)
    assert (r.instances, r.failures) == (356, 0)

    p31 = law_suite("P31", 2)
    assert p31.instances == 36 and p31.failures == 2
    assert p31.first_failure["A"] == ["1"] and p31.first_failure["B"] == ["2"]


@pytest.mark.parametrize("law", COUNTEREXAMPLE_LAWS)
def test_law_suite_jobs_do_not_change_result(law):
    assert law_suite(law, 3, jobs=2) == law_suite(law, 3)
    # what a record hands _pmap must pickle; the P41/P42 suites have a
    # single task, so their sweeps above never start a pool
    for allow_indet in (False, True):
        pickle.dumps(enumeration._SWEEP_LAWS[law].stream(allow_indet))


@pytest.mark.parametrize("law", [
    pytest.param(law, marks=pytest.mark.xfail(
        reason="ROADMAP item 7: all 289 P22 instances at n = 2 are congruent") if law == "P22" else ())
    for law, record in enumeration._SWEEP_LAWS.items() if record.hypothesis])
def test_theorem_sweeps_reach_both_sides_of_their_hypothesis(law):
    # at the laws command's default --max-n, some instances meet the theorem's
    # hypothesis and some do not
    r = law_suite(law, 4)
    assert 0 < dict(r.extra)[enumeration._SWEEP_LAWS[law].hypothesis] < r.instances


def test_p22_suite_relation_a_holds_under_congruence():
    r = law_suite("P22", 2)
    extra = dict(r.extra)
    assert extra["congruent_inclusion_failures"] == 0
    assert r.failures > 0                  # the equality claim fails on magmas
    assert r.instances == 289


def test_composition_suites_find_nothing():
    for law in ("P41", "P42"):
        r = law_suite(law, 2)
        assert r.failures == 0 and r.instances > 0
        out = find_counterexample(law, SearchSpec(universe_size=2, carrier_size=2))
        assert out.status == "none"


def test_find_counterexample_witness_is_suite_first_failure():
    for law in ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "P31"):
        suite = law_suite(law, 3)
        out = find_counterexample(law, SearchSpec(universe_size=3, carrier_size=1))
        assert out.witness == suite.first_failure
    suite = law_suite("P22", 2)
    out = find_counterexample("P22", SearchSpec(universe_size=2, carrier_size=2))
    witness = dict(out.witness)
    assert witness.pop("failed")
    assert witness == suite.first_failure
    for law in ("P41", "P42"):
        suite = law_suite(law, 2)
        out = find_counterexample(law, SearchSpec(universe_size=2, carrier_size=2))
        assert out.witness == suite.first_failure


def test_law_suite_rejects_unknown_law_and_size():
    with pytest.raises(ValueError):
        law_suite("L10", 2)
    for max_n in (0, 7):
        with pytest.raises(SizeOutOfRangeError):
            law_suite("L1", max_n)
        with pytest.raises(SizeOutOfRangeError):
            law_suite("P41", max_n)


def test_find_counterexample_and_law_suite_reject_the_same_names():
    def rejects(run):
        try:
            run()
        except ValueError:
            return True
        return False

    bounds = SearchSpec(universe_size=1, carrier_size=1, budget=1)
    for law in COUNTEREXAMPLE_LAWS + ("C1", "L0", "L10", "P21", "p41", "l1", ""):
        by_find = rejects(lambda: find_counterexample(law, bounds))
        by_suite = rejects(lambda: law_suite(law, 1))
        assert by_find == by_suite == (law not in COUNTEREXAMPLE_LAWS), law


def test_law_suite_sweep_sizes():
    # L1-L9/P31 run at max_n, P22 at min(max_n, 2), P41/P42 always at 2
    assert law_suite("L1", 1).instances == 4
    assert law_suite("P22", 1).instances == 1
    assert law_suite("P22", 6) == law_suite("P22", 2)
    for law in ("P41", "P42"):
        r = law_suite(law, 1)
        assert r == law_suite(law, 6)
        extra = dict(r.extra)
        # 2 ** 4 tables on {1 2}, each with (2 ** 2) ** 2 pairs of self-maps
        assert extra["tables"] == 16 and r.instances + extra["skipped_pairs"] == 16 * 16


# Staged search against a naive oracle: every candidate decoded on its own
# in canonical order (partition, carrier, table) and scored by the
# label-dict law oracle.


@lru_cache(maxsize=None)
def _oracle_candidates(n: int, k: int, allow_indet: bool):
    """(space, table, {law: status}) for every candidate, in index order."""
    u = canonical_universe(n)
    out = []
    statuses = {}
    for space in enum_spaces(n, u):
        for carrier in itertools.combinations(range(n), k):
            for table in enum_tables(u, Subset.from_indices(u, carrier), allow_indet):
                key = (carrier, table.cells)
                if key not in statuses:
                    statuses[key] = {law: status_oracle(law, law_counts_oracle(table, law))
                                     for law in TABLE_LAWS}
                out.append((space, table, statuses[key]))
    return out


def _oracle_hits(spec: SearchSpec, start: int, end: int) -> list[int]:
    hits = []
    cands = _oracle_candidates(spec.universe_size, spec.carrier_size, spec.allow_indet)
    for idx in range(start, min(end, len(cands))):
        space, table, status = cands[idx]
        if all(status[law] == want for law, want in spec.law_constraints) and \
                all(STRUCTURAL_CONSTRAINTS[name](space, table) for name in spec.structural_constraints):
            hits.append(idx)
            if len(hits) == spec.limit:
                break
    return hits


def _assert_matches_oracle(spec: SearchSpec, jobs: int = 1):
    total = len(_oracle_candidates(spec.universe_size, spec.carrier_size, spec.allow_indet))
    expect = _oracle_hits(spec, 0, spec.budget)
    out = search(spec, jobs=jobs)
    assert [h.index for h in out.hits] == expect
    cands = _oracle_candidates(spec.universe_size, spec.carrier_size, spec.allow_indet)
    assert all((h.space, h.table) == cands[h.index][:2] for h in out.hits)
    limit_reached = len(expect) == spec.limit
    assert out.total == total and out.limit_reached == limit_reached
    assert out.examined == (expect[-1] + 1 if limit_reached else min(total, spec.budget))
    assert out.budget_exhausted == (not limit_reached and spec.budget < total)


SMALL_SIZES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.mark.parametrize("allow_indet", [False, True])
@pytest.mark.parametrize("n,k", SMALL_SIZES)
def test_search_every_law_status_matches_oracle(n, k, allow_indet):
    for law in TABLE_LAWS:
        for status in STATUSES:
            _assert_matches_oracle(SearchSpec(n, k, allow_indet, ((law, status),),
                                              limit=10**6, budget=10**6))


def _random_spec(rng: random.Random) -> SearchSpec:
    n, k = rng.choice(SMALL_SIZES[2:])
    allow_indet = rng.random() < 0.5
    laws = rng.sample(TABLE_LAWS, rng.randint(0, 3))
    total = len(_oracle_candidates(n, k, allow_indet))
    return SearchSpec(
        n, k, allow_indet,
        law_constraints=tuple((law, rng.choice(STATUSES)) for law in laws),
        structural_constraints=tuple(rng.sample(sorted(STRUCTURAL_CONSTRAINTS), rng.randint(0, 2))),
        limit=rng.choice([1, 3, 40, 10**6]),
        budget=rng.choice([1, rng.randint(1, total), total, 10**6]),
    )


def test_search_random_specs_match_oracle():
    rng = random.Random(4)
    for _ in range(60):
        _assert_matches_oracle(_random_spec(rng))


def _per_space(spec: SearchSpec) -> int:
    total = len(_oracle_candidates(spec.universe_size, spec.carrier_size, spec.allow_indet))
    return total // len(list(enum_partitions(spec.universe_size)))


def test_scan_ranges_match_oracle():
    # rest ranges [lo, hi) that start and end anywhere within one space; the
    # hits are those below the budget whose rest index % per_space is in range
    rng = random.Random(5)
    for _ in range(60):
        spec = _random_spec(rng)
        per_space = _per_space(spec)
        lo = rng.randrange(per_space)
        hi = rng.randint(lo + 1, per_space)
        every = _oracle_hits(dataclasses.replace(spec, limit=10**9), 0, spec.budget)
        expect = [idx for idx in every if lo <= idx % per_space < hi][: spec.limit]
        assert _scan(spec, lo, hi) == expect


@pytest.mark.parametrize("spec", [
    SearchSpec(3, 2, law_constraints=(("C4", "AllFalse"),), limit=10**6),
    SearchSpec(3, 2, True, (("C1", "Mixed"), ("C3", "AllFalse")), limit=10**6),
])
def test_scan_parts_check_each_rest_once(spec, monkeypatch):
    # search's _scan parts, run in-process: the law checks summed over the
    # parts do not grow with their number, and the parts find every hit
    calls = 0
    has_status = enumeration._has_status

    def counting(*args):
        nonlocal calls
        calls += 1
        return has_status(*args)

    monkeypatch.setattr(enumeration, "_has_status", counting)
    monkeypatch.setattr(enumeration, "_pmap", lambda fn, argsets, jobs: [fn(*a) for a in argsets])
    counts = []
    for parts in (1, 2, 3):
        calls = 0
        assert [h.index for h in search(spec, jobs=parts).hits] == _oracle_hits(spec, 0, spec.budget)
        counts.append(calls)
    # every rest is checked against its first law at least
    assert counts[0] >= _per_space(spec) and counts == [counts[0]] * 3


@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_search_matches_oracle(jobs):
    # n=3, k=2: 243 rests per space.  The workers split the rests below
    # min(243, budget) and replay their passing ones in the later spaces.
    # A budget of 1,000 stops them inside the fifth space, one of 200
    # inside the first.
    assert 1000 % 243 and 200 < 243
    specs = [
        SearchSpec(3, 2, law_constraints=(("C4", "AllFalse"),), limit=10**6, budget=1000),
        SearchSpec(3, 2, law_constraints=(("C4", "AllFalse"),), limit=10**6, budget=200),
        SearchSpec(3, 2, law_constraints=(("C1", "Mixed"), ("C3", "AllFalse")),
                   structural_constraints=("rough-carrier",), limit=10**6, budget=1000),
        SearchSpec(3, 2, True, (("C5", "AllTrue"),), limit=25, budget=10**6),
        SearchSpec(3, 2, law_constraints=(("C10", "AllTrue"),), limit=1, budget=1000),
    ]
    for spec in specs:
        _assert_matches_oracle(spec, jobs)

import dataclasses
import itertools
import json
import random
from array import array
from functools import lru_cache
from math import comb

import jsonschema
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
from roughalg.approx import _LAW_BAD, _lower_upper
from roughalg.cli import main
from roughalg.enumeration import (COUNTEREXAMPLE_LAWS, STRUCTURAL_CONSTRAINTS, SearchHit, SearchHits, _Tables,
                                  _approx_stream, _count, _scan, _space_tasks, bell_number, law_suite)
from roughalg.errors import EmptyCarrierError, EmptySetError, NotInCarrierError, SizeOutOfRangeError
from roughalg.report import REPORT_SCHEMA

from conftest import cell_masks_oracle, composition_stream_oracle, law_counts_oracle, status_oracle
from test_golden import STRUCTURAL_SPECS


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


def test_bell_number():
    assert [bell_number(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    assert bell_number(16) == 10_480_142_147
    assert all(bell_number(n) == bell_oracle(n) for n in range(17))


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


def test_table_carrier_must_lie_in_the_universe():
    # as in make_table: tables on u3 over a carrier of u2 would have the
    # wrong universe, and a carrier wider than the universe has no cells
    u2, u3 = canonical_universe(2), canonical_universe(3)
    for universe, carrier in ((u3, Subset.from_labels(u2, ["1", "2"])), (u2, Subset.full(u3))):
        with pytest.raises(NotInCarrierError, match="different universe"):
            next(enum_tables(universe, carrier))


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


@pytest.mark.parametrize("n, semigroups, commutative, groups", [(1, 1, 1, 1), (2, 8, 6, 2), (3, 113, 63, 3)])
def test_search_counts_labelled_semigroups(n, semigroups, commutative, groups):
    # counts from mathematics, not from enum_tables: in the first space, at
    # carrier = universe, the labelled semigroups of order n (OEIS A023814),
    # the commutative ones (A023815) and the groups among them (A034383)
    semigroup = (("C1", "AllTrue"), ("C2", "AllTrue"))
    first_space = dict(limit=10**6, budget=n ** (n * n))
    hits = search(SearchSpec(n, n, law_constraints=semigroup, **first_space)).hits
    assert len(hits) == semigroups and sum(classify(h.table).is_group for h in hits) == groups
    abelian = search(SearchSpec(n, n, law_constraints=semigroup + (("C5", "AllTrue"),), **first_space)).hits
    assert len(abelian) == commutative


def test_numbering_at_n6_k4_with_indeterminate_cells():
    # 7^16 tables per carrier, far past any walk: a table number's cells are
    # its 16 base-7 digits, first cell first, digit 6 the indeterminate cell
    out = search(SearchSpec(6, 4, True, limit=1, budget=1))
    hits, tables = out.hits, out.hits.tables[0]
    assert tables.count == 7 ** 16 and len(hits.tables) == comb(6, 4)
    digit = lambda cell: 6 if cell is None else cell
    rng = random.Random(6)
    for t in [rng.randrange(7 ** 16) for _ in range(200)]:
        cells = tables.cells(t)
        assert len(cells) == 16 and sum(digit(c) * 7 ** (15 - i) for i, c in enumerate(cells)) == t
    assert tables.cells(0) == (0,) * 16 and tables.cells(7 ** 16 - 1) == (None,) * 16
    for idx in [rng.randrange(hits.total) for _ in range(50)]:
        sidx, cidx, t = hits.split(idx)
        assert (sidx * comb(6, 4) + cidx) * 7 ** 16 + t == idx
    assert list(hits.indices) == [0] and hits[0].table.cells == (0,) * 16
    assert out.total == hits.total == bell_number(6) * comb(6, 4) * 7 ** 16 == 203 * 15 * 7 ** 16


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


def test_spec_rejects_allow_indet_that_is_not_bool():
    # a constraint tuple in the third positional slot is not "indeterminate cells"
    for allow_indet in ((("C4", "AllFalse"),), 1, "yes", None):
        with pytest.raises(ValueError, match="allow_indet"):
            SearchSpec(3, 2, allow_indet)
    assert SearchSpec(3, 2, True).allow_indet is True


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


def test_find_counterexample_rejects_search_only_bounds():
    # constraints and limit belong to search; the sweeps would silently ignore them
    for bounds in (dict(law_constraints=(("C1", "AllTrue"),)), dict(structural_constraints=("congruence",)),
                   dict(limit=7)):
        with pytest.raises(ValueError, match="no constraints, and a limit of 1"):
            find_counterexample("P41", SearchSpec(2, 2, budget=50, **bounds))


def test_find_counterexample_p22_rejects_indeterminate_cells():
    # P22 sweeps total tables only, so the flag would be silently ignored
    with pytest.raises(ValueError, match="P22 sweeps total tables"):
        find_counterexample("P22", SearchSpec(universe_size=2, carrier_size=2, allow_indet=True))


@pytest.mark.parametrize("law", ["L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "P31"])
def test_find_counterexample_subset_laws_reject_indeterminate_cells(law):
    # these laws sweep subsets of spaces and no table, so the flag would be silently ignored
    with pytest.raises(ValueError, match=f"{law} sweeps subsets of spaces"):
        find_counterexample(law, SearchSpec(universe_size=3, carrier_size=3, allow_indet=True))
    # carrier_size does not apply to them, and is accepted at any value
    assert (find_counterexample(law, SearchSpec(universe_size=3, carrier_size=1))
            == find_counterexample(law, SearchSpec(universe_size=3, carrier_size=3)))


def test_approx_law_suite_counts():
    r = law_suite("L5", 3)
    assert (r.instances, r.failures) == (356, 0)

    p31 = law_suite("P31", 2)
    assert p31.instances == 36 and p31.failures == 2
    assert p31.first_failure["A"] == ["1"] and p31.first_failure["B"] == ["2"]


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


def test_p22_stream_reaches_a_failure_of_inclusion_a_off_congruence():
    # every P22 instance at n <= 2 is congruent, so the suite never sees (a)
    # fail; on the n = 3 space {1 2}{3} it first fails at stream position 315
    stream = enumeration._p22_stream([(3, 1)])
    pos, witness = next((i, w) for i, item in enumerate(stream)
                        if item and "a" in (w := item())["failed"])
    assert pos == 315
    assert witness == {"universe": ["1", "2", "3"], "partition": [["1", "2"], ["3"]],
                       "table": [["1", "1", "1"], ["1", "1", "1"], ["1", "3", "1"]],
                       "X": ["3"], "Y": ["1"], "failed": ["a", "b"], "congruence": False}


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
    for max_n in (0, 17):
        with pytest.raises(SizeOutOfRangeError):
            law_suite("L1", max_n)
        with pytest.raises(SizeOutOfRangeError):
            law_suite("P41", max_n)


APPROX_SUITES = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "P31")


@pytest.mark.parametrize("law", APPROX_SUITES)
def test_block_counts_match_the_stream(law):
    # the counted suite against the instance stream it replaces: every
    # (space, X, Y) visited, the first failure taken in stream order
    for n in range(1, 6):
        instances, failures, first, extra = _count(_approx_stream(law, _space_tasks(n)))
        assert law_suite(law, n) == enumeration.SuiteResult(law, instances, failures, first)
        assert extra == {}


@pytest.mark.parametrize("law", APPROX_SUITES)
def test_law_formulas_are_block_local(law):
    # the precondition of the block count: on every space with up to 4
    # elements, a law's offenders inside a block are its offenders on that
    # block's own one-block space, for every pair of subsets
    bad = _LAW_BAD[law]

    def tables(space):
        full = space.universe.full_mask()
        return (*zip(*(_lower_upper(space, m) for m in range(full + 1))), full)

    for n in range(1, 5):
        # the first space in RGS order has a single block
        one_block = {b: tables(next(enum_spaces(b))) for b in range(1, n + 1)}
        for space in enum_spaces(n):
            lower, upper, full = tables(space)
            for block in space.partition.blocks:
                idx = list(block)

                def squeeze(mask):
                    return sum(1 << j for j, i in enumerate(idx) if mask >> i & 1)

                b_lower, b_upper, b_full = one_block[len(idx)]
                for x in range(full + 1):
                    for y in range(full + 1):
                        assert squeeze(bad(lower, upper, full, x, y)) == \
                            bad(b_lower, b_upper, b_full, squeeze(x), squeeze(y)), (space, x, y)


def test_p31_counts_beyond_the_stream():
    # instances = sum over n of Bell(n) * 4^n; failures as counted per block
    assert [(r.instances, r.failures) for r in (law_suite("P31", 7), law_suite("P31", 8))] == \
        [(15_257_700, 4_368_978), (286_576_740, 93_060_856)]
    assert law_suite("P31", 16).first_failure == law_suite("P31", 2).first_failure


def test_laws_report_at_max_n_16_validates(capsys):
    assert main(["--json", "laws", "--max-n", "16"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    p31 = next(s for s in report["suites"] if s["law"] == "P31")
    assert p31["instances"] == 46_549_981_208_729_669_732 > 2 ** 64
    assert p31["failures"] == 26_033_356_851_168_457_136 > 2 ** 64
    # Pawlak's properties hold on every space
    assert all(s["failures"] == 0 for s in report["suites"] if s["law"].startswith("L"))


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
        assert _scan(spec, lo, hi).tolist() == expect


@pytest.mark.parametrize("window", [1, 7, 64])
def test_search_oracles_in_small_windows(window, monkeypatch):
    # law-stage windows of 1, 7 and 64 tables end mid-row and mid-carrier,
    # and split ranges that start anywhere; the oracle searches still agree
    monkeypatch.setattr(enumeration, "_WINDOW", window)
    for n, k in SMALL_SIZES:
        for allow_indet in (False, True):
            test_search_every_law_status_matches_oracle(n, k, allow_indet)
    test_search_random_specs_match_oracle()
    test_scan_ranges_match_oracle()


@pytest.mark.parametrize("n, k, allow_indet", [(1, 1, False), (2, 2, True), (3, 2, False), (3, 3, False)])
def test_cell_masks_match_the_cells(n, k, allow_indet):
    # windows of 1 to 64 tables from every start below 300, windows at the
    # carrier's end, and the whole carrier, against the cells of each table
    u = canonical_universe(n)
    tables = _Tables(u, Subset.from_indices(u, range(k)), allow_indet)
    cells = [tables.cells(t) for t in range(tables.count)]
    assert cells == list(tables.walk())
    windows = [(lo, min(lo + w, tables.count)) for lo in range(min(300, tables.count))
               for w in (1, 2, 3, 5, 7, 64)]
    windows += [(tables.count - w, tables.count) for w in (1, 7, 64, 1000) if w <= tables.count]
    for lo, hi in [*windows, (0, tables.count)]:
        assert tables.masks(lo, hi) == cell_masks_oracle(cells[lo:hi]), (lo, hi)


@pytest.mark.parametrize("window", [7, 1 << 16])
@pytest.mark.parametrize("spec", [
    SearchSpec(3, 2, law_constraints=(("C4", "AllFalse"),), limit=10**6),
    SearchSpec(3, 2, True, (("C1", "Mixed"), ("C3", "AllFalse")), limit=10**6),
])
def test_scan_parts_check_each_rest_once(spec, window, monkeypatch):
    # search's _scan parts, run in-process: the windows handed to the law
    # kernel tile each carrier's tables once, whatever the number of parts,
    # and the parts find every hit
    seen = []
    masks = enumeration._Tables.masks

    def recording(tables, lo, hi):
        seen.append((tables.carrier.mask, lo, hi))
        return masks(tables, lo, hi)

    monkeypatch.setattr(enumeration, "_WINDOW", window)
    monkeypatch.setattr(enumeration._Tables, "masks", recording)
    monkeypatch.setattr(enumeration, "_pmap", lambda fn, argsets, jobs: [fn(*a) for a in argsets])
    hits = SearchHits(spec, array("q"))
    for parts in (1, 2, 3):
        seen.clear()
        assert [h.index for h in search(spec, jobs=parts).hits] == _oracle_hits(spec, 0, spec.budget)
        assert sum(hi - lo for _, lo, hi in seen) == hits.per_space
        for tables in hits.tables:
            windows = sorted((lo, hi) for mask, lo, hi in seen if mask == tables.carrier.mask)
            assert [lo for lo, _ in windows] == [0] + [hi for _, hi in windows[:-1]]
            assert windows[-1][1] == tables.count and all(hi - lo <= window for lo, hi in windows)


@lru_cache(maxsize=None)
def _candidates(n: int, k: int, allow_indet: bool) -> list:
    """(space, table) of every candidate, in index order, each built on its own."""
    u = canonical_universe(n)
    return [(space, table) for space in enum_spaces(n, u)
            for carrier in itertools.combinations(range(n), k)
            for table in enum_tables(u, Subset.from_indices(u, carrier), allow_indet)]


LAZY_SPECS = {**STRUCTURAL_SPECS,
              "indeterminate C1=Mixed": SearchSpec(3, 2, True, (("C1", "Mixed"),),
                                                   limit=10**6, budget=10**6)}


@pytest.mark.parametrize("name", LAZY_SPECS)
def test_lazy_hits_behave_as_the_decoded_tuple(name):
    # SearchOutcome.hits decodes each compact index on access; against the
    # tuple of hits decoded one by one, it gives the same len, items (negative
    # indices and slices too), iteration and equality, at every jobs
    spec = LAZY_SPECS[name]
    cands = _candidates(spec.universe_size, spec.carrier_size, spec.allow_indet)
    outcomes = [search(spec, jobs=jobs) for jobs in (1, 2, 3)]
    for out in outcomes:
        hits = out.hits
        decoded = tuple(SearchHit(i, *cands[i]) for i in hits.indices)
        n = len(hits)
        assert n == len(decoded) and bool(hits) == bool(decoded)
        assert list(hits) == list(decoded) and tuple(reversed(hits)) == decoded[::-1]
        for i in {0, 1, n // 2, -1, -2, -n} & set(range(-n, n)):
            assert hits[i] == decoded[i]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                hits[bad]
        assert hits[1:3] == decoded[1:3] and hits[::-7] == decoded[::-7]
        assert hits == decoded and decoded == hits and hits == outcomes[0].hits
        if n > 1:
            assert hits != decoded[:-1] and hits != decoded[1:] + decoded[:1]
        # outcome equality and hashing are those of the outcome holding the tuple
        eager = dataclasses.replace(out, hits=decoded)
        assert out == eager and hash(out) == hash(eager) and out == outcomes[0]
        assert out != dataclasses.replace(eager, examined=out.examined + 1)
        assert {out: 1}[eager] == 1


def test_lazy_hits_compare_by_decoded_hits_across_specs():
    # indices 0 and 1 decode to the same tables with or without indeterminate
    # cells, so those hits are equal, but not index 2; nor any hit at another
    # universe size
    plain, indet = (search(SearchSpec(2, 2, allow_indet, limit=3)).hits for allow_indet in (False, True))
    assert plain[:2] == indet[:2] and plain[2] != indet[2] and plain != indet
    assert search(SearchSpec(2, 2, limit=2)).hits == search(SearchSpec(2, 2, True, limit=2)).hits
    assert search(SearchSpec(2, 1, limit=1)).hits != search(SearchSpec(3, 1, limit=1)).hits


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


@pytest.mark.parametrize("law, checked, skipped", [("P41", 62445, 14286462), ("P42", 41145, 14307762)])
def test_composition_counts_at_n3(law, checked, skipped):
    # ROADMAP item 7: every total table on {1 2 3} and every pair of its
    # self-maps; the theorem holds on each checked pair
    out = find_counterexample(law, SearchSpec(3, 3))
    assert (out.status, out.witness, out.examined) == ("none", None, checked)
    record = enumeration._SWEEP_LAWS[law]
    assert _count(record.stream(False)(record.tasks(3, 3))) == (
        checked, 0, None, {"tables": 19683, "skipped_pairs": skipped})


def _drain(stream, limit=None):
    """(items, return value) of the first `limit` items of an instance stream,
    each item None if it holds or else the witness it builds; the return
    value is None when the limit stops the stream first."""
    items = []
    while len(items) != limit:
        try:
            item = next(stream)
        except StopIteration as end:
            return items, end.value
        items.append(item() if item else None)
    return items, None


@pytest.mark.parametrize("allow_indet", [False, True])
@pytest.mark.parametrize("prop", ["p41", "p42"])
def test_composition_stream_matches_object_oracle(prop, allow_indet):
    # every carrier at n <= 3, k <= 2: every item, every witness, the return value
    for n in range(1, 4):
        for k in range(1, min(n, 2) + 1):
            carriers = enumeration._carriers(canonical_universe(n), k)
            got = _drain(enumeration._composition_stream(prop, allow_indet, carriers))
            assert got == _drain(composition_stream_oracle(prop, allow_indet, carriers)), (n, k)


@pytest.mark.parametrize("prop", ["p41", "p42"])
def test_composition_stream_matches_object_oracle_n4_k3_prefix(prop):
    carriers = enumeration._carriers(canonical_universe(4), 3)
    got = _drain(enumeration._composition_stream(prop, True, carriers), 4000)
    assert got == _drain(composition_stream_oracle(prop, True, carriers), 4000)
    assert any(got[0])

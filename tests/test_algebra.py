import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from roughalg import (
    Subset,
    TABLE_LAWS,
    cancellation_failures,
    check_product_approx_laws,
    classify,
    enum_spaces,
    evaluate_law,
    is_congruence,
    local_neutrals,
    make_space,
    make_table,
    make_universe,
    set_product,
)
from roughalg.algebra import STATUSES, OpTable, _has_status, associativity_instance
from roughalg.errors import (
    CarrierNotFullError,
    EmptyCarrierError,
    EmptySubsetError,
    ExtraEntryError,
    MissingEntryError,
    NotInCarrierError,
    UniverseMismatchError,
    UnknownResultLabelError,
)

from conftest import (blocks_from_rgs, congruence_oracle, law_counts_oracle, product_relations_oracle,
                      random_rgs, status_oracle, table_dict)


def trivial_table():
    u = make_universe(["a"])
    return make_table(u, Subset.full(u), {("a", "a"): "a"})


def test_make_table(ex31):
    c = ex31["C"]
    assert c.product("1", "1") == "4"      # result outside the carrier
    assert c.product("3", "3") == "6"
    assert c.product("5", "3") == "3"

    t = trivial_table()
    assert t.product("a", "a") == "a"

    u = make_universe(["1", "2"])
    car = Subset.full(u)
    with pytest.raises(MissingEntryError):
        make_table(u, car, {("1", "1"): "1", ("1", "2"): "1", ("2", "1"): "1"})
    with pytest.raises(ExtraEntryError):
        make_table(u, Subset.from_labels(u, ["1"]), {("1", "1"): "1", ("1", "2"): "1"})
    with pytest.raises(UnknownResultLabelError):
        make_table(u, Subset.from_labels(u, ["1"]), {("1", "1"): "9"})
    with pytest.raises(EmptyCarrierError):
        make_table(u, Subset.empty(u), {})


FIXTURE_C_EXPECT = {
    # law: (status, true, false, indeterminate)  -- frozen from the brute
    # recount of the published 4x4 table
    "C1": ("Mixed", 12, 4, 0),
    "C2": ("Mixed", 10, 26, 28),
    "C3": ("Mixed", 1, 3, 0),
    "C4": ("AllFalse", 0, 4, 0),
    "C5": ("Mixed", 1, 5, 0),
    "C6": ("Mixed", 4, 12, 0),
    "C7": ("Mixed", 26, 10, 28),
    "C8": ("AllTrue", 1, 0, 0),
    "C9": ("AllTrue", 1, 0, 0),
    "C10": ("Mixed", 5, 1, 0),
}


def test_fixture_law_profile(ex31):
    c = ex31["C"]
    for law, (status, t, f, i) in FIXTURE_C_EXPECT.items():
        v = evaluate_law(c, law)
        assert (v.status, v.true_count, v.false_count, v.indet_count) == (status, t, f, i), law


def test_fixture_c2_instances(ex31):
    c = ex31["C"]
    assert associativity_instance(c, "1", "3", "5") == "true"
    assert associativity_instance(c, "2", "3", "5") == "false"
    assert associativity_instance(c, "1", "1", "1") == "indeterminate"
    v = evaluate_law(c, "C2")
    assert v.witness("true") == ("1", "2", "1")
    assert v.witness("false") == ("1", "2", "3")
    assert v.witness("indeterminate") == ("1", "1", "1")


def test_c2_against_brute_oracle(ex31):
    # independent recount over the plain label dict
    c = ex31["C"]
    d = table_dict(c)
    carrier = list(c.carrier.labels())
    counts = {"true": 0, "false": 0, "indeterminate": 0}
    for a, b, cc in itertools.product(carrier, repeat=3):
        def half(left):
            t = d[(a, b)] if left else d[(b, cc)]
            if t is None or t not in carrier:
                return None
            return d[(t, cc)] if left else d[(a, t)]
        l, r = half(True), half(False)
        if l is None or r is None:
            counts["indeterminate"] += 1
        elif l == r:
            counts["true"] += 1
        else:
            counts["false"] += 1
    v = evaluate_law(c, "C2")
    assert counts == {"true": v.true_count, "false": v.false_count,
                      "indeterminate": v.indet_count}


def test_trivial_table_profile():
    t = trivial_table()
    for law in ("C1", "C2", "C3", "C4", "C5"):
        assert evaluate_law(t, law).status == "AllTrue", law
    for law in ("C6", "C7", "C8", "C9", "C10"):
        assert evaluate_law(t, law).status == "AllFalse", law
    c = classify(t)
    assert c.is_group and c.is_commutative_group and c.is_semigroup
    assert not (c.is_anti_group or c.is_ag4 or c.is_anti_abelian)


def test_local_neutrals(ex31):
    c = ex31["C"]
    assert local_neutrals(c, "1").labels() == ("2",)
    assert local_neutrals(c, "5").labels() == ()
    t = trivial_table()
    assert local_neutrals(t, "a").labels() == ("a",)
    with pytest.raises(NotInCarrierError):
        local_neutrals(c, "4")


def test_classify_fixture(ex31):
    c = classify(ex31["C"])
    assert c.is_ag4 and c.is_strict_ag4 and c.is_anti_group
    assert not c.is_group and not c.is_semigroup and not c.is_anti_abelian

    b = classify(ex31["TB"])   # recorded for the audit; it is no group either
    assert not b.is_group
    assert b.verdict("C4").status == "AllFalse"


def test_strict_ag4_needs_mixed_commutativity():
    # AG(4) with C1-C3 Mixed through its indeterminate cells, but commutative
    u = make_universe(["1", "2", "3"])
    cells = ["?", "3", "3", "3", "1", "3", "3", "3", "?"]
    rows = {(x, y): None if v == "?" else v
            for (x, y), v in zip(itertools.product(u.labels, repeat=2), cells)}
    c = classify(make_table(u, Subset.full(u), rows))
    assert c.is_ag4
    assert [c.verdict(law).status for law in ("C1", "C2", "C3", "C5")] == [
        "Mixed", "Mixed", "Mixed", "AllTrue"]
    assert not c.is_strict_ag4


def test_counts_sum_to_domain(ex31):
    for table in (ex31["C"], ex31["TA"], ex31["TB"], trivial_table()):
        k = table.k
        domain = {"C1": k * k, "C6": k * k, "C2": k ** 3, "C7": k ** 3,
                  "C3": k, "C4": k, "C5": k * (k - 1) // 2, "C10": k * (k - 1) // 2,
                  "C8": 1, "C9": 1}
        for law in TABLE_LAWS:
            v = evaluate_law(table, law)
            assert v.true_count + v.false_count + v.indet_count == domain[law], law


@st.composite
def small_tables(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    u = make_universe([str(i) for i in range(n)])
    carrier = Subset.from_indices(u, range(k))
    cells = tuple(
        draw(st.one_of(st.none(), st.integers(0, n - 1)))
        for _ in range(k * k)
    )
    return OpTable.build(u, carrier, cells)


@settings(max_examples=150, deadline=None)
@given(small_tables())
def test_anti_law_mirrors(table):
    for pos, neg in (("C1", "C6"), ("C2", "C7"), ("C5", "C10")):
        p, q = evaluate_law(table, pos), evaluate_law(table, neg)
        assert (p.true_count, p.false_count) == (q.false_count, q.true_count)
        assert p.indet_count == q.indet_count
        if p.true_count + p.false_count + p.indet_count > 0:
            if p.status == "AllTrue":
                assert q.status == "AllFalse"
            if p.status == "AllFalse":
                assert q.status == "AllTrue"


@settings(max_examples=150, deadline=None)
@given(small_tables())
def test_law_counts_match_independent_oracle(table):
    for law in TABLE_LAWS:
        v = evaluate_law(table, law)
        assert law_counts_oracle(table, law) == v.counts, law


@settings(max_examples=150, deadline=None)
@given(small_tables())
def test_flag_implications(table):
    c = classify(table)
    assert not c.is_commutative_group or c.is_group
    assert not c.is_group or c.is_semigroup
    assert not c.is_anti_abelian or c.is_anti_group
    assert not c.is_strict_ag4 or c.is_ag4


@settings(max_examples=150, deadline=None)
@given(small_tables())
def test_group_flag_consequences(table):
    c = classify(table)
    if c.is_group:
        assert not cancellation_failures(table)
        assert not c.is_ag4
    assert not (c.is_group and c.is_ag4)


def test_cancellation_failures(ex31, z4):
    assert cancellation_failures(z4["table"]) == ()

    u = make_universe(["a", "b", "c"])
    carrier = Subset.from_labels(u, ["a", "b"])
    const = make_table(u, carrier, {(x, y): "c" for x in "ab" for y in "ab"})
    wit = cancellation_failures(const)
    assert [(w.side, w.g, w.x, w.y) for w in wit] == [
        ("left", "a", "a", "b"), ("right", "a", "a", "b"),
        ("left", "b", "a", "b"), ("right", "b", "a", "b"),
    ]

    # oracle recount on the published table
    c = ex31["C"]
    d = table_dict(c)
    carrier_labels = list(c.carrier.labels())
    expect = []
    for g in carrier_labels:
        for x, y in itertools.combinations(carrier_labels, 2):
            if d[(g, x)] is not None and d[(g, x)] == d[(g, y)]:
                expect.append(("left", g, x, y))
            if d[(x, g)] is not None and d[(x, g)] == d[(y, g)]:
                expect.append(("right", g, x, y))
    got = [(w.side, w.g, w.x, w.y) for w in cancellation_failures(c)]
    assert sorted(got) == sorted(expect)
    assert got  # an AG(4) table must fail cancellation somewhere


def test_set_product(ex31):
    c = ex31["C"]
    u = c.universe
    one = lambda lab: Subset.from_labels(u, [lab])
    assert set_product(c, one("1"), one("2")).labels() == ("1",)
    assert set_product(c, one("1"), one("1")).labels() == ("4",)
    assert set_product(c, one("1"), one("1"), "restricted").labels() == ()
    assert set_product(c, Subset.empty(u), c.carrier).labels() == ()
    with pytest.raises(NotInCarrierError):
        set_product(c, Subset.from_labels(u, ["4"]), one("1"))

    # monotone in both arguments; restricted inside outer
    a1, a2 = one("1"), Subset.from_labels(u, ["1", "2"])
    b = Subset.from_labels(u, ["2", "3"])
    assert set_product(c, a1, b).issubset(set_product(c, a2, b))
    assert set_product(c, a2, b, "restricted").issubset(set_product(c, a2, b))

    # restricted mode also clips a product that is the universe's element 0
    ab = make_universe(["a", "b"])
    t = make_table(ab, Subset.from_labels(ab, ["b"]), {("b", "b"): "a"})
    assert set_product(t, t.carrier, t.carrier).labels() == ("a",)
    assert set_product(t, t.carrier, t.carrier, "restricted").labels() == ()

    # every pair of carrier subsets of the non-commutative C, against its cells by label
    cells = table_dict(c)
    subsets = [Subset.from_indices(u, s) for r in range(c.k + 1)
               for s in itertools.combinations(c.order, r)]
    for a in subsets:
        for b in subsets:
            want = {cells[(h, k)] for h in a.labels() for k in b.labels()} - {None}
            assert set(set_product(c, a, b).labels()) == want, (a, b)


def test_is_congruence(z4):
    u, table = z4["universe"], z4["table"]
    assert is_congruence(z4["space"], table).holds

    bad = make_space(u, [Subset.from_labels(u, ["0"]),
                         Subset.from_labels(u, ["1", "2"]),
                         Subset.from_labels(u, ["3"])])
    rep = is_congruence(bad, table)
    assert not rep.holds
    x, x2, y, y2 = rep.witness
    # recheck the witness against the raw operation
    add = lambda a, b: str((int(a) + int(b)) % 4)
    cls = {lab: i for i, block in enumerate(bad.partition.blocks) for lab in block.labels()}
    assert cls[x] == cls[x2] and cls[y] == cls[y2]
    assert cls[add(x, y)] != cls[add(x2, y2)]

    ident = make_space(u, [Subset.from_labels(u, [lab]) for lab in u.labels])
    assert is_congruence(ident, table).holds

    small = make_universe(["a", "b"])
    part = make_space(small, [Subset.full(small)])
    half = make_table(small, Subset.from_labels(small, ["a"]), {("a", "a"): "a"})
    with pytest.raises(CarrierNotFullError):
        is_congruence(part, half)
    other = make_universe(["a", "c"])
    with pytest.raises(UniverseMismatchError, match="universes differ"):
        is_congruence(part, make_table(other, Subset.full(other), {(x, y): "a" for x in "ac" for y in "ac"}))


def test_is_congruence_matches_oracle_exhaustive_small():
    # every space and every full-carrier table with indeterminate cells at
    # n = 1 and 2; all of them are congruences, so this covers only that side
    for n in (1, 2):
        u = make_universe([str(i) for i in range(n)])
        for space in enum_spaces(n, u):
            for cells in itertools.product([None, *range(n)], repeat=n * n):
                table = OpTable.build(u, Subset.full(u), cells)
                assert is_congruence(space, table) == congruence_oracle(space, table), cells


def test_is_congruence_matches_oracle_random():
    # 300 seeded (space, table) pairs at each of n = 3 and 4, with
    # indeterminate cells; both verdicts must occur, so the failing side
    # (and its least witness) is compared too
    rng = random.Random(13)
    verdicts = set()
    for n in (3, 4):
        u = make_universe([str(i) for i in range(n)])
        for _ in range(300):
            space = make_space(u, blocks_from_rgs(u, random_rgs(rng, n)))
            cells = tuple(rng.choice([None, *range(n)]) for _ in range(n * n))
            table = OpTable.build(u, Subset.full(u), cells)
            report = is_congruence(space, table)
            assert report == congruence_oracle(space, table), (space.class_of, cells)
            verdicts.add(report.holds)
    assert verdicts == {True, False}


def test_product_approx_laws_z4(z4):
    u, table, space = z4["universe"], z4["table"], z4["space"]
    x = Subset.from_labels(u, ["1"])
    y = Subset.from_labels(u, ["2"])
    rep = check_product_approx_laws(space, table, x, y)
    assert rep.relation("a").holds and rep.relation("b").holds and rep.relation("c").holds
    assert rep.congruence.holds

    full = Subset.full(u)
    rep = check_product_approx_laws(space, table, full, full)
    assert rep.relation("a").holds and rep.relation("b").holds

    with pytest.raises(EmptySubsetError):
        check_product_approx_laws(space, table, Subset.empty(u), full)


def test_product_approx_lower_relations_can_fail():
    # one block {a, b}: only U is definable, so lower() is U or empty
    u = make_universe(["a", "b"])
    space = make_space(u, [Subset.full(u)])
    full, b = Subset.full(u), Subset.from_labels(u, ["b"])

    def table(*cells):
        return make_table(u, full, dict(zip(itertools.product("ab", repeat=2), cells)))

    # (c): lower(U) lower(U) = {a}, but lower(U U) = lower({a}) is empty
    rep = check_product_approx_laws(space, table("a", "a", "a", "a"), full, full)
    assert not rep.relation("c").holds and rep.relation("c").witness == "a"
    assert rep.relation("d").holds and rep.congruence.holds
    # (d): lower({b} U) = lower(U) = U, but lower({b}) lower(U) is empty
    rep = check_product_approx_laws(space, table("a", "a", "a", "b"), b, full)
    assert not rep.relation("d").holds and rep.relation("d").witness == "a"
    assert rep.relation("c").holds and rep.congruence.holds


def _product_relations_agree(space, table, x, y):
    rep = check_product_approx_laws(space, table, x, y)
    assert rep.relations == product_relations_oracle(space, table, x, y), (table.cells, x, y)


def test_product_approx_laws_match_oracle_exhaustive_small():
    # every space, every full-carrier table with indeterminate cells and
    # every nonempty X and Y, at n = 1 and 2
    for n in (1, 2):
        u = make_universe([str(i) for i in range(n)])
        full = Subset.full(u)
        nonempty = [Subset(u, m) for m in range(1, 1 << n)]
        for space in enum_spaces(n, u):
            for cells in itertools.product([None, *range(n)], repeat=n * n):
                table = OpTable.build(u, full, cells)
                for x in nonempty:
                    for y in nonempty:
                        _product_relations_agree(space, table, x, y)


def test_product_approx_laws_reject_subsets_and_tables_of_other_universes():
    u, v = make_universe(["a", "b"]), make_universe(["c", "d"])
    space = make_space(u, [Subset.full(u)])
    on_u, on_v = (OpTable.build(w, Subset.full(w), (0, 1, 1, 0)) for w in (u, v))
    for table, x, y in ((on_u, Subset.full(v), Subset.full(u)),
                        (on_u, Subset.full(u), Subset.full(v)),
                        (on_v, Subset.full(u), Subset.full(u))):
        for check in (check_product_approx_laws, product_relations_oracle):
            with pytest.raises(UniverseMismatchError):
                check(space, table, x, y)


@st.composite
def product_instances(draw):
    n = draw(st.integers(3, 4))
    u = make_universe([str(i) for i in range(n)])
    rgs = [0]
    for _ in range(n - 1):
        rgs.append(draw(st.integers(0, max(rgs) + 1)))
    space = make_space(u, blocks_from_rgs(u, rgs))
    cells = tuple(draw(st.one_of(st.none(), st.integers(0, n - 1))) for _ in range(n * n))
    x, y = (Subset(u, draw(st.integers(1, (1 << n) - 1))) for _ in range(2))
    return space, OpTable.build(u, Subset.full(u), cells), x, y


@settings(max_examples=300, deadline=None)
@given(product_instances())
def test_product_approx_laws_match_oracle(instance):
    _product_relations_agree(*instance)


def _status_reducer_agrees(table):
    args = (table.cells, table.k, table.order, table.pos)
    for law in TABLE_LAWS:
        status = evaluate_law(table, law).status
        assert status == status_oracle(law, law_counts_oracle(table, law)), law
        for asked in STATUSES:
            assert _has_status(law, asked, *args) == (asked == status), (law, asked)


def test_status_reducer_exhaustive_small():
    # every table with indeterminate cells on every carrier of size 1 and 2
    # (size 1 gives the empty C5/C10 domains) at n = 2 and n = 3
    for n in (2, 3):
        u = make_universe([str(i) for i in range(n)])
        for k in (1, 2):
            for carrier in itertools.combinations(range(n), k):
                for cells in itertools.product([None, *range(n)], repeat=k * k):
                    _status_reducer_agrees(OpTable.build(u, Subset.from_indices(u, carrier), cells))


@settings(max_examples=150, deadline=None)
@given(small_tables())
def test_status_reducer_matches_evaluate_law(table):
    _status_reducer_agrees(table)

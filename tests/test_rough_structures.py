import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from roughalg import (
    SearchSpec,
    Subset,
    approximate,
    check_intersection_relations,
    check_rough_anti_semigroup,
    check_rough_anti_subsemigroup,
    enum_spaces,
    evaluate_law,
    make_space,
    make_table,
    make_universe,
    search,
)
from roughalg.approx import _LAW_BAD, _lower_upper, _witness
from roughalg.errors import EmptySubsetError, NotInCarrierError

from conftest import blocks_from_rgs, random_rgs, table_dict


def test_def31_on_fixture(ex31):
    v = check_rough_anti_semigroup(ex31["space"], ex31["TA"], ambient=ex31["C"])
    assert not v.overall
    assert not v.condition1.holds
    assert v.condition1.witnesses[0] == ("1", "1", "4")
    assert v.upper_used.labels() == ("1", "2", "3", "5")
    # with upper(A) equal to the big carrier, the ambient table resolves
    # every product, so condition 2 sees the full associativity profile
    assert (v.condition2.true_count, v.condition2.false_count,
            v.condition2.indet_count) == (10, 26, 28)


def test_def31_ambient_changes_resolution(ex31):
    bare = check_rough_anti_semigroup(ex31["space"], ex31["TA"])
    assert bare.condition2.indet_count > 28
    assert bare.condition1.witnesses == check_rough_anti_semigroup(
        ex31["space"], ex31["TA"], ambient=ex31["C"]).condition1.witnesses


def test_def31_trivial():
    u = make_universe(["a"])
    space = make_space(u, [Subset.full(u)])
    t = make_table(u, Subset.full(u), {("a", "a"): "a"})
    v = check_rough_anti_semigroup(space, t)
    assert v.overall and v.condition1.holds and v.condition2.holds


def test_def31_indeterminate_product_falsifies_condition1():
    u = make_universe(["a", "b"])
    space = make_space(u, [Subset.full(u)])
    t = make_table(u, Subset.from_labels(u, ["a"]), {("a", "a"): None})
    v = check_rough_anti_semigroup(space, t)
    assert (v.condition1.holds, v.condition1.true_count, v.condition1.false_count) == (False, 0, 1)
    assert v.condition1.witnesses == (("a", "a", "?"),)
    assert not v.overall


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**30))
def test_def31_condition2_matches_plain_resolution(n, seed):
    rng = random.Random(seed)
    u = make_universe([str(i) for i in range(n)])
    space = make_space(u, blocks_from_rgs(u, random_rgs(rng, n)))

    def random_table(carrier):
        labels = carrier.labels()
        return make_table(u, carrier, {(x, y): rng.choice((None,) + u.labels)
                                       for x in labels for y in labels})

    table = random_table(Subset(u, rng.randrange(1, 1 << n)))
    ambient = random_table(Subset(u, rng.randrange(1, 1 << n)))
    v = check_rough_anti_semigroup(space, table, ambient)

    own, amb = table_dict(table), table_dict(ambient)

    def resolve(a, b):
        # the table's own cell wins over the ambient's, even when indeterminate
        return own[(a, b)] if (a, b) in own else amb.get((a, b))

    t = f = ind = 0
    wit = []
    for x, y, z in itertools.product(v.upper_used.labels(), repeat=3):
        xy, yz = resolve(x, y), resolve(y, z)
        left = resolve(xy, z) if xy is not None else None
        right = resolve(x, yz) if yz is not None else None
        if left is None or right is None:
            ind += 1
        elif left == right:
            t += 1
        else:
            f += 1
            wit.append((x, y, z))
    c2 = v.condition2
    assert (c2.true_count, c2.false_count, c2.indet_count) == (t, f, ind)
    assert c2.witnesses == tuple(wit)


def test_def31_passing_instance_found_by_search():
    spec = SearchSpec(universe_size=3, carrier_size=2,
                      structural_constraints=("rough-anti-semigroup", "rough-carrier"),
                      limit=1, budget=100_000)
    out = search(spec)
    assert out.hits
    hit = out.hits[0]
    space, table = hit.space, hit.table
    assert approximate(space, table.carrier).is_rough

    # independent recheck from the plain label dict
    d = table_dict(table)
    carrier = set(table.carrier.labels())
    up = set(approximate(space, table.carrier).upper.labels())
    assert all(v is not None and v in up for v in d.values())
    for x, y, z in itertools.product(sorted(up), repeat=3):
        def resolve(a, b):
            return d.get((a, b))
        t = resolve(x, y)
        left = resolve(t, z) if t is not None else None
        s = resolve(y, z)
        right = resolve(x, s) if s is not None else None
        if left is not None and right is not None:
            assert left == right


def test_def32_on_fixture(ex31):
    v = check_rough_anti_subsemigroup(ex31["space"], ex31["TB"], ex31["B"])
    assert not v.overall
    assert v.condition1.witnesses[0] == ("2", "2", "4")
    assert v.condition2 is None
    assert v.upper_used.labels() == ("1", "2", "3", "5")


def test_def32_whole_carrier_matches_condition1(ex31):
    for table in (ex31["TA"], ex31["TB"], ex31["C"]):
        semi = check_rough_anti_semigroup(ex31["space"], table)
        sub = check_rough_anti_subsemigroup(ex31["space"], table, table.carrier)
        assert sub.condition1 == semi.condition1


def test_def32_passing_instance_at_three():
    # take the carrier of a search-found rough anti-semigroup as H
    spec = SearchSpec(universe_size=3, carrier_size=2,
                      structural_constraints=("rough-anti-semigroup", "rough-carrier"),
                      limit=1, budget=100_000)
    hit = search(spec).hits[0]
    v = check_rough_anti_subsemigroup(hit.space, hit.table, hit.table.carrier)
    assert v.overall
    assert approximate(hit.space, hit.table.carrier).is_rough


def test_def32_errors(ex31):
    u = ex31["universe"]
    with pytest.raises(EmptySubsetError):
        check_rough_anti_subsemigroup(ex31["space"], ex31["TB"], Subset.empty(u))
    with pytest.raises(NotInCarrierError):
        check_rough_anti_subsemigroup(ex31["space"], ex31["TB"],
                                      Subset.from_labels(u, ["1"]))


def test_closure_plus_exact_carrier_is_classical_closure():
    # condition 1 with upper(A) = A forces every product into A itself
    u = make_universe(["1", "2", "3"])
    space = make_space(u, [Subset.from_labels(u, [lab]) for lab in u.labels])
    carrier = Subset.from_labels(u, ["1", "2"])
    t = make_table(u, carrier, {("1", "1"): "1", ("1", "2"): "2",
                                ("2", "1"): "2", ("2", "2"): "1"})
    v = check_rough_anti_semigroup(space, t)
    assert v.condition1.holds
    assert not approximate(space, carrier).is_rough
    assert evaluate_law(t, "C1").status == "AllTrue"


def test_intersection_relations_fixture(ex31):
    rep = check_intersection_relations(ex31["space"], ex31["A"], ex31["B"])
    assert rep.sub.holds and rep.sup.holds and rep.equal
    assert rep.upper_ab.labels() == ("1", "2", "3", "5")


def test_intersection_minimal_counterexample():
    u = make_universe(["1", "2"])
    space = make_space(u, [Subset.full(u)])
    a = Subset.from_labels(u, ["1"])
    b = Subset.from_labels(u, ["2"])
    rep = check_intersection_relations(space, a, b)
    assert rep.sub.holds            # the always-true direction
    assert not rep.sup.holds
    assert rep.sup.witnesses == (("1",), ("2",))

    same = check_intersection_relations(space, a, a)
    assert same.equal


def test_intersection_sup_is_the_p31_kernel():
    """The "sup" facet and the P31 sweep agree on every pair at n <= 4."""
    for n in (1, 2, 3, 4):
        for space in enum_spaces(n):
            u = space.universe
            lower, upper = zip(*(_lower_upper(space, m) for m in range(1 << n)))
            for a in range(1 << n):
                for b in range(1 << n):
                    sup = check_intersection_relations(space, Subset(u, a), Subset(u, b)).sup
                    bad = _LAW_BAD["P31"](lower, upper, u.full_mask(), a, b)
                    first = sup.witnesses[0][0] if sup.witnesses else None
                    assert (sup.holds, first) == (bad == 0, _witness(u, bad)), (space, a, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**30))
def test_intersection_sub_direction_never_fails(n, seed):
    rng = random.Random(seed)
    u = make_universe([str(i) for i in range(n)])
    space = make_space(u, blocks_from_rgs(u, random_rgs(rng, n)))
    a = Subset(u, rng.randrange(1 << n))
    b = Subset(u, rng.randrange(1 << n))
    assert check_intersection_relations(space, a, b).sub.holds

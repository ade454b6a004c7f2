import itertools
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from roughalg import (
    Mapping,
    OpTable,
    Subset,
    canonical_universe,
    check_anti_group_hom,
    check_hom,
    check_rough_hom,
    compose,
    enum_mappings,
    enum_tables,
    kernel,
    make_mapping,
    make_space,
    make_table,
    make_universe,
    neutral_pool,
    verify_composition_props,
)
from roughalg.morphisms import MORPHISM_KINDS, _behaviour, _check
from roughalg.errors import (
    CarrierMismatchError,
    DomainMismatchError,
    DomainNotUpperError,
    DuplicatePairError,
    MissingPairError,
    UnknownCodomainLabelError,
    UnknownElementError,
)

from conftest import behaviour_oracle, composition_outcomes_oracle, morphism_oracle


def test_make_mapping():
    u = make_universe(["a", "b"])
    ident = make_mapping(Subset.full(u), u, [("a", "a"), ("b", "b")])
    assert ident.apply("a") == "a" and ident.image().labels() == ("a", "b")

    u6 = make_universe(["1", "2", "5"])
    ua = make_universe(["a"])
    const = make_mapping(Subset.full(u6), ua, [(x, "a") for x in ("1", "2", "5")])
    assert const.image().labels() == ("a",)

    with pytest.raises(MissingPairError):
        make_mapping(Subset.full(u6), ua, [("1", "a"), ("2", "a")])
    with pytest.raises(DuplicatePairError):
        make_mapping(Subset.full(u), u, [("a", "a"), ("a", "b"), ("b", "b")])
    with pytest.raises(UnknownCodomainLabelError):
        make_mapping(Subset.full(u), u, [("a", "z"), ("b", "b")])


def test_apply_outside_domain():
    u = make_universe(["a", "b", "c"])
    phi = make_mapping(Subset.from_labels(u, ["a", "c"]), u, [("a", "b"), ("c", "a")])
    assert (phi.apply("c"), phi.apply_index(0)) == ("a", 1)
    with pytest.raises(UnknownElementError, match="^'b' not in the mapping domain$"):
        phi.apply("b")
    with pytest.raises(UnknownElementError, match="^'b' not in the mapping domain$"):
        phi.apply_index(1)
    with pytest.raises(UnknownElementError, match="not in universe"):
        phi.apply("z")
    for ix in (5, -1):  # indices outside the universe
        with pytest.raises(UnknownElementError, match=f"^index {ix} not in the mapping domain$"):
            phi.apply_index(ix)


def test_anti_group_hom_identity_on_group(z4):
    t = z4["table"]
    u = z4["universe"]
    ident = make_mapping(t.carrier, u, [(x, x) for x in u.labels])
    rep = check_anti_group_hom(ident, t, t)
    assert not rep.overall                      # everything is preserved
    assert rep.counts.preserved == 16 and rep.counts.violated == 16
    assert check_hom(ident, t, t).overall


def test_anti_group_hom_constant_map(ex31):
    c = ex31["C"]
    ua = make_universe(["a"])
    ta = make_table(ua, Subset.full(ua), {("a", "a"): "a"})
    const = make_mapping(c.carrier, ua, [(x, "a") for x in c.carrier.labels()])
    rep = check_anti_group_hom(const, c, ta)
    assert not rep.overall                      # constant maps preserve
    assert rep.counts.violated > 0
    assert rep.counts.indeterminate == 4        # products leaving the carrier


def test_anti_group_hom_true_instance_exists():
    u = canonical_universe(2)
    car = Subset.full(u)
    found = False
    for t in enum_tables(u, car):
        for phi in enum_mappings(car, car):
            rep = check_anti_group_hom(phi, t, t)
            if rep.overall and rep.counts.indeterminate == 0:
                found = True
                break
        if found:
            break
    assert found


def test_kernel(ex31):
    ua = make_universe(["e"])
    te = make_table(ua, Subset.full(ua), {("e", "e"): "e"})
    u = make_universe(["x", "y"])
    phi = make_mapping(Subset.full(u), ua, [("x", "e"), ("y", "e")])
    assert kernel(phi, te) == Subset.full(u)

    c = ex31["C"]
    assert neutral_pool(c).labels() == ("2",)
    phi2 = make_mapping(c.carrier, c.universe,
                        [("1", "2"), ("2", "3"), ("3", "2"), ("5", "5")])
    assert kernel(phi2, c).labels() == ("1", "3")

    # empty neutral pool forces an empty kernel
    u2 = make_universe(["a", "b"])
    t2 = make_table(u2, Subset.full(u2),
                    {("a", "a"): "b", ("a", "b"): "b", ("b", "a"): "a", ("b", "b"): "a"})
    assert neutral_pool(t2).labels() == ()
    ident = make_mapping(Subset.full(u2), u2, [("a", "a"), ("b", "b")])
    assert kernel(ident, t2).labels() == ()

    with pytest.raises(CarrierMismatchError):
        kernel(phi, ex31["C"])


def _z2():
    u = make_universe(["0", "1"])
    rows = {(a, b): str((int(a) + int(b)) % 2) for a in "01" for b in "01"}
    table = make_table(u, Subset.full(u), rows)
    space = make_space(u, [Subset.from_labels(u, ["0"]), Subset.from_labels(u, ["1"])])
    return u, table, space


def test_rough_hom_identity_on_commutative():
    u, table, space = _z2()
    ident = make_mapping(Subset.full(u), u, [("0", "0"), ("1", "1")],
                         target=Subset.full(u))
    for kind in ("rough-hom", "rough-anti-hom"):
        rep = check_rough_hom(space, space, ident, table, table, kind)
        assert rep.overall and rep.surjective


def test_rough_hom_requires_surjection():
    u, table, space = _z2()
    const = make_mapping(Subset.full(u), u, [("0", "0"), ("1", "0")],
                         target=Subset.full(u))
    for kind in ("rough-hom", "rough-anti-hom"):
        rep = check_rough_hom(space, space, const, table, table, kind)
        assert not rep.surjective and not rep.overall
        assert rep.counts.violated == 0         # constant maps still preserve


def test_rough_hom_domain_must_be_upper():
    u, table, space = _z2()
    half = make_mapping(Subset.from_labels(u, ["0"]), u, [("0", "0")],
                        target=Subset.full(u))
    with pytest.raises(DomainNotUpperError):
        check_rough_hom(space, space, half, table, table)


def test_rough_anti_hom_without_hom_exists_noncommutative():
    hit = None
    for n in (2, 3):
        u = canonical_universe(n)
        car = Subset.full(u)
        for t in enum_tables(u, car):
            comm = all(t.value_at(i, j) == t.value_at(j, i)
                       for i in range(n) for j in range(n))
            if comm:
                continue
            raw = (t.cells, t.k, t.pos)
            for phi in enum_mappings(car, car, surjective_only=True):
                if _behaviour(raw, raw, dict(zip(phi.domain, phi.graph))) == (True, False):
                    hit = (t, phi)
                    break
            if hit:
                break
        if hit:
            break
    assert hit is not None
    t, phi = hit
    space = make_space(t.universe, [Subset.from_labels(t.universe, [lab])
                                    for lab in t.universe.labels])
    rep = check_rough_hom(space, space, phi, t, t, "rough-anti-hom")
    assert rep.overall
    assert not check_rough_hom(space, space, phi, t, t, "rough-hom").overall


def test_compose():
    u = make_universe(["a", "b"])
    ident = make_mapping(Subset.full(u), u, [("a", "a"), ("b", "b")])
    swap = make_mapping(Subset.full(u), u, [("a", "b"), ("b", "a")])
    assert compose(ident, ident).graph == ident.graph
    assert compose(swap, swap).graph == ident.graph

    const = make_mapping(Subset.full(u), u, [("a", "a"), ("b", "a")])
    assert compose(const, swap).graph == const.graph

    # pointwise oracle over every pair of size-2 endomaps
    car = Subset.full(u)
    for f in enum_mappings(car, car):
        for g in enum_mappings(car, car):
            comp = compose(f, g)
            for lab in u.labels:
                assert comp.apply(lab) == f.apply(g.apply(lab))

    v = make_universe(["x", "y", "z"])
    into = make_mapping(Subset.from_labels(v, ["x"]), u, [("x", "a")])
    with pytest.raises(DomainMismatchError):
        compose(into, make_mapping(Subset.full(u), v, [("a", "x"), ("b", "z")]))


def test_compose_image_shrinks():
    u = canonical_universe(3)
    car = Subset.full(u)
    maps = list(enum_mappings(car, car))
    for f, g in itertools.product(maps[:9], maps[:9]):
        assert compose(f, g).image().issubset(f.image())


def test_verify_composition_props_identity():
    u, table, _ = _z2()
    ident = make_mapping(Subset.full(u), u, [("0", "0"), ("1", "1")])
    for prop in ("p41", "p42"):
        rep = verify_composition_props(table, [(ident, ident)], prop)
        assert rep.checked == 1 and rep.holds


@pytest.mark.parametrize("prop", ["p41", "p42"])
def test_verify_composition_props_rejects_maps_over_another_universe(prop):
    # the identity on 4 elements against a table on 2, in either place of a
    # pair, as check_hom rejects it, before any pair is read
    u, table, _ = _z2()
    u4 = make_universe(["0", "1", "2", "3"])
    wide = make_mapping(Subset.full(u4), u4, [(x, x) for x in "0123"])
    ident = make_mapping(Subset.full(u), u, [("0", "0"), ("1", "1")])
    with pytest.raises(CarrierMismatchError):
        check_hom(wide, table, table)
    for pair in ((wide, wide), (ident, wide), (wide, ident)):
        with pytest.raises(CarrierMismatchError):
            verify_composition_props(table, [(ident, ident), pair], prop)


def test_verify_composition_props_skips_nonconforming():
    u, table, _ = _z2()                              # commutative group table
    swap = make_mapping(Subset.full(u), u, [("0", "1"), ("1", "0")])
    ident = make_mapping(Subset.full(u), u, [("0", "0"), ("1", "1")])
    # swap is not a preserving map on Z2 (swap(0+0)=1 but swap(0)+swap(0)=0)
    rep = verify_composition_props(table, [(ident, swap)], "p41")
    assert rep.checked + rep.skipped == 1


def test_commutative_tables_hom_iff_anti_hom():
    u = canonical_universe(2)
    car = Subset.full(u)
    space = make_space(u, [Subset.from_labels(u, [lab]) for lab in u.labels])
    for t in enum_tables(u, car):
        if not all(t.value_at(i, j) == t.value_at(j, i) for i in range(2) for j in range(2)):
            continue
        for phi in enum_mappings(car, car, surjective_only=True):
            h = check_rough_hom(space, space, phi, t, t, "rough-hom").overall
            a = check_rough_hom(space, space, phi, t, t, "rough-anti-hom").overall
            assert h == a


@settings(max_examples=100, deadline=None)
@given(st.permutations(["p", "q", "r"]), st.permutations(["u", "v"]))
def test_kernel_image_invariant_under_relabeling(perm1, perm2):
    # the same mapping over re-indexed universes yields the same label sets
    rows = {("p", "p"): "q", ("p", "q"): "p", ("q", "p"): "p", ("q", "q"): "r",
            ("p", "r"): "r", ("r", "p"): "q", ("q", "r"): "p", ("r", "q"): "p",
            ("r", "r"): "r"}
    pairs = [("p", "u"), ("q", "v"), ("r", "u")]

    def build(order1, order2):
        u1 = make_universe(order1)
        u2 = make_universe(order2)
        t = make_table(u1, Subset.full(u1), rows)
        phi = make_mapping(Subset.full(u1), u2, pairs)
        tb = make_table(u2, Subset.full(u2),
                        {("u", "u"): "u", ("u", "v"): "v", ("v", "u"): "v", ("v", "v"): "u"})
        return phi, tb

    base_phi, base_tb = build(["p", "q", "r"], ["u", "v"])
    new_phi, new_tb = build(list(perm1), list(perm2))
    assert set(kernel(base_phi, base_tb).labels()) == set(kernel(new_phi, new_tb).labels())
    assert set(base_phi.image().labels()) == set(new_phi.image().labels())


def _check_counts(phi, table_a, table_b, kind):
    """`_check`'s report in the form `morphism_oracle` returns."""
    rep = _check(phi, table_a, table_b, kind)
    return tuple(vars(rep.counts).values()) + (rep.first_violation,)


def test_check_matches_morphism_oracle_exhaustive():
    # every table with INDET cells on each carrier of up to 2 of up to 3
    # elements; every map of the carrier into the universe, images outside the
    # carrier included, for every kind, and every map of the whole universe,
    # wider than the carrier as an upper approximation is, for the rough kinds
    for n in range(1, 4):
        u = canonical_universe(n)
        full = Subset.full(u)
        for k in range(1, min(n, 2) + 1):
            for carrier in map(partial(Subset.from_indices, u), itertools.combinations(range(n), k)):
                cases = [*itertools.product(enum_mappings(carrier, full), MORPHISM_KINDS),
                         *itertools.product(enum_mappings(full, full), ("rough-hom", "rough-anti-hom"))]
                for t in enum_tables(u, carrier, allow_indet=True):
                    for phi, kind in cases:
                        assert _check_counts(phi, t, t, kind) == morphism_oracle(phi, t, t, kind), (t.cells, phi, kind)


@st.composite
def _partial_tables(draw) -> OpTable:
    """A table on a carrier of up to 3 of up to 4 elements, its cells drawn
    from the whole universe and INDET."""
    n = draw(st.integers(1, 4))
    u = canonical_universe(n)
    carrier = Subset.from_indices(u, draw(st.lists(st.integers(0, n - 1), min_size=1,
                                                   max_size=min(n, 3), unique=True)))
    ncells = len(carrier) ** 2
    cells = draw(st.lists(st.none() | st.integers(0, n - 1), min_size=ncells, max_size=ncells))
    return OpTable.build(u, carrier, tuple(cells))


@st.composite
def _morphism_cases(draw):
    """Two tables, and a map from any subset of the first one's universe, so
    wider than its carrier or outside it, to any elements of the second's."""
    table_a, table_b = draw(_partial_tables()), draw(_partial_tables())
    ua, ub = table_a.universe, table_b.universe
    domain = Subset.from_indices(ua, draw(st.sets(st.integers(0, ua.size - 1))))
    graph = draw(st.lists(st.integers(0, ub.size - 1), min_size=len(domain), max_size=len(domain)))
    return Mapping(domain, ub, tuple(graph), Subset.full(ub)), table_a, table_b


@settings(max_examples=300, deadline=None)
@given(_morphism_cases())
def test_check_matches_morphism_oracle(case):
    phi, table_a, table_b = case
    for kind in MORPHISM_KINDS:
        assert _check_counts(phi, table_a, table_b, kind) == morphism_oracle(phi, table_a, table_b, kind)


@settings(max_examples=300, deadline=None)
@given(_partial_tables(), st.data())
def test_behaviour_matches_morphism_oracle(table, data):
    # the self-maps of the carrier, as the P41/P42 sweep judges them, and a
    # map of the whole universe, as verify_composition_props may be given one
    u, raw = table.universe, (table.cells, table.k, table.pos)
    wide = data.draw(st.lists(st.integers(0, u.size - 1), min_size=u.size, max_size=u.size))
    maps = [*enum_mappings(table.carrier, table.carrier), Mapping(Subset.full(u), u, tuple(wide), Subset.full(u))]
    for phi in maps:
        assert _behaviour(raw, raw, dict(zip(phi.domain, phi.graph))) == behaviour_oracle(dict(phi.pairs()), table)


@settings(max_examples=100, deadline=None)
@given(_partial_tables(), st.sampled_from(["p41", "p42"]))
def test_verify_composition_props_matches_oracle(table, prop):
    # every pair of the carrier's self-maps and the maps of one carrier
    # element into the universe, some of which do not compose
    u = table.universe
    maps = [*enum_mappings(table.carrier, table.carrier),
            *(Mapping(Subset.from_indices(u, [x]), u, (v,), Subset.full(u)) for x in table.carrier for v in range(u.size))]
    candidates = list(itertools.product(maps, maps))
    rep = verify_composition_props(table, candidates, prop)
    want = list(composition_outcomes_oracle(table, candidates, prop))
    assert (rep.checked, rep.skipped) == (len(want), len(candidates) - len(want))
    assert [(c.phi1, c.phi2, c.pair) for c in rep.counterexamples] == [w for w in want if w]

import random

import pytest
from hypothesis import given, settings, strategies as st

from roughalg import (
    APPROX_LAWS,
    Subset,
    approximate,
    check_approx_law,
    check_approx_laws,
    enum_spaces,
    equivalence_class,
    make_space,
    make_universe,
)
from roughalg.errors import (
    DuplicateLabelError,
    EmptyBlockError,
    EmptyUniverseError,
    IncompleteCoverError,
    OverlapError,
    UniverseMismatchError,
    UnknownElementError,
)

from roughalg import approx
from roughalg.approx import _LAW_BAD, _lower_upper, _Memo, _witness

from conftest import approx_law_oracle, blocks_from_rgs, naive_approx, random_rgs

SWEPT_LAWS = APPROX_LAWS + ("P31",)


def test_make_universe():
    u = make_universe(["1", "2", "3", "4", "5", "6"])
    assert u.size == 6
    assert make_universe(["a"]).size == 1
    with pytest.raises(DuplicateLabelError):
        make_universe(["1", "1", "2"])
    with pytest.raises(EmptyUniverseError):
        make_universe([])


def test_make_space_validation():
    u = make_universe(["1", "2", "3", "4", "5", "6"])
    blocks = [Subset.from_labels(u, labs) for labs in (["1", "2", "3"], ["4"], ["5"], ["6"])]
    space = make_space(u, blocks)
    assert len(space.partition.blocks) == 4

    with pytest.raises(IncompleteCoverError):
        make_space(u, blocks[:3])
    with pytest.raises(OverlapError):
        make_space(u, blocks + [Subset.from_labels(u, ["1"])])
    with pytest.raises(EmptyBlockError):
        make_space(u, blocks[:3] + [Subset.empty(u)])

    ua = make_universe(["a"])
    one = make_space(ua, [Subset.full(ua)])
    assert len(one.partition.blocks) == 1


def test_equivalence_class(ex31):
    space = ex31["space"]
    assert equivalence_class(space, "2").labels() == ("1", "2", "3")
    assert equivalence_class(space, "4").labels() == ("4",)
    with pytest.raises(UnknownElementError):
        equivalence_class(space, "7")

    ua = make_universe(["a", "b"])
    ident = make_space(ua, [Subset.from_labels(ua, ["a"]), Subset.from_labels(ua, ["b"])])
    assert equivalence_class(ident, "a").labels() == ("a",)


def test_approximate_fixture(ex31):
    space, u = ex31["space"], ex31["universe"]
    res = approximate(space, ex31["A"])
    assert res.lower.labels() == ("5",)
    assert res.upper.labels() == ("1", "2", "3", "5")
    assert res.boundary.labels() == ("1", "2", "3")
    assert res.is_rough

    assert approximate(space, ex31["B"]).upper.labels() == ("1", "2", "3", "5")

    empty = approximate(space, Subset.empty(u))
    assert not empty.lower and not empty.upper and not empty.is_rough

    other = make_universe(["x"])
    with pytest.raises(UniverseMismatchError):
        approximate(space, Subset.full(other))


def test_laws_on_fixture(ex31):
    rep = check_approx_laws(ex31["space"], ex31["A"], ex31["B"])
    assert rep.all_hold
    u = ex31["universe"]
    full = Subset.full(u)
    rep = check_approx_laws(ex31["space"], full, full)
    assert rep.all_hold


def test_laws_exhaustive_small():
    for n in (1, 2, 3):
        for space in enum_spaces(n):
            u = space.universe
            for xm in range(1 << n):
                for ym in range(1 << n):
                    rep = check_approx_laws(space, Subset(u, xm), Subset(u, ym))
                    assert rep.all_hold, (n, xm, ym, [c for c in rep.checks if not c.holds])
    assert len(APPROX_LAWS) == 9


@st.composite
def space_and_masks(draw):
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**30)))
    u = make_universe([str(i) for i in range(n)])
    space = make_space(u, blocks_from_rgs(u, random_rgs(rng, n)))
    x = draw(st.integers(0, (1 << n) - 1))
    y = draw(st.integers(0, (1 << n) - 1))
    return space, Subset(u, x), Subset(u, y)


@settings(max_examples=200, deadline=None)
@given(space_and_masks())
def test_containment_duality_idempotence(data):
    space, x, _ = data
    res = approximate(space, x)
    assert res.lower.issubset(x) and x.issubset(res.upper)
    # duality
    assert res.upper == approximate(space, x.complement()).lower.complement()
    # idempotence of upper
    assert approximate(space, res.upper).upper == res.upper


@settings(max_examples=200, deadline=None)
@given(space_and_masks())
def test_monotonicity(data):
    space, x, y = data
    small = x & y
    rs, rx = approximate(space, small), approximate(space, x)
    assert rs.lower.issubset(rx.lower)
    assert rs.upper.issubset(rx.upper)


def test_oracle_equivalence_exhaustive_small():
    for n in (1, 2, 3, 4, 5):
        for space in enum_spaces(n):
            u = space.universe
            blocks = [set(b.labels()) for b in space.partition.blocks]
            for mask in range(1 << n):
                x = Subset(u, mask)
                res = approximate(space, x)
                lower, upper = naive_approx(blocks, set(x.labels()))
                assert set(res.lower.labels()) == lower
                assert set(res.upper.labels()) == upper


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**30))
def test_oracle_equivalence(n, seed):
    rng = random.Random(seed)
    u = make_universe([str(i) for i in range(n)])
    blocks = blocks_from_rgs(u, random_rgs(rng, n))
    space = make_space(u, blocks)
    x = Subset(u, rng.randrange(1 << n))
    res = approximate(space, x)
    lower, upper = naive_approx([set(b.labels()) for b in blocks], set(x.labels()))
    assert set(res.lower.labels()) == lower
    assert set(res.upper.labels()) == upper


@pytest.mark.parametrize("law", APPROX_LAWS)
def test_check_approx_law_rejects_other_universe(ex31, law):
    other = Subset.full(make_universe(["x"]))
    for x, y in ((ex31["A"], other), (other, ex31["A"])):
        with pytest.raises(UniverseMismatchError):
            check_approx_law(ex31["space"], law, x, y)


@pytest.mark.parametrize("law", SWEPT_LAWS)
def test_law_kernel_matches_oracle_exhaustive(law):
    """The sweeps' kernel on per-space tables: the offender set, and so the
    verdict and the least witness, for every (space, X, Y) with n <= 4."""
    for n in (1, 2, 3, 4):
        for space in enum_spaces(n):
            u = space.universe
            blocks = [set(b.labels()) for b in space.partition.blocks]
            labels = [set(Subset(u, m).labels()) for m in range(1 << n)]
            lower, upper = zip(*(_lower_upper(space, m) for m in range(1 << n)))
            for x in range(1 << n):
                for y in range(1 << n):
                    bad = _LAW_BAD[law](lower, upper, u.full_mask(), x, y)
                    want = approx_law_oracle(blocks, set(u.labels), law, labels[x], labels[y])
                    assert set(Subset(u, bad).labels()) == want, (space, x, y)
                    assert _witness(u, bad) == min(want, key=u.index, default=None)


@settings(max_examples=200, deadline=None)
@given(st.integers(8, 32), st.integers(0, 2**30), st.sampled_from(SWEPT_LAWS))
def test_lazy_law_kernel_matches_oracle(n, seed, law):
    """check_approx_law, and the kernel on lazy lookups, on 8-32 elements."""
    rng = random.Random(seed)
    u = make_universe([str(i) for i in range(n)])
    blocks = blocks_from_rgs(u, random_rgs(rng, n))
    space = make_space(u, blocks)
    x, y = Subset(u, rng.getrandbits(n)), Subset(u, rng.getrandbits(n))
    want = approx_law_oracle([set(b.labels()) for b in blocks], set(u.labels), law,
                             set(x.labels()), set(y.labels()))
    bad = _LAW_BAD[law](_Memo(space, 0), _Memo(space, 1), u.full_mask(), x.mask, y.mask)
    assert set(Subset(u, bad).labels()) == want
    if law != "P31":
        chk = check_approx_law(space, law, x, y)
        assert (chk.holds, chk.witness) == (not want, min(want, key=u.index, default=None))


@pytest.mark.parametrize("law", APPROX_LAWS)
def test_check_approx_law_builds_no_table_on_32_elements(law, monkeypatch):
    reads = []
    block_loop = approx._lower_upper
    monkeypatch.setattr(approx, "_lower_upper",
                        lambda space, mask: reads.append(mask) or block_loop(space, mask))
    u = make_universe([str(i) for i in range(32)])
    space = make_space(u, [Subset.from_indices(u, range(i, i + 4)) for i in range(0, 32, 4)])
    chk = check_approx_law(space, law, Subset(u, 0x0F0F00FF), Subset(u, 0x00FFFF00))
    assert chk.holds and 1 <= len(reads) <= 8

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact and every runtime bound is enforced here.
"""

import random
import time
from contextlib import contextmanager

from roughalg import (
    SearchSpec,
    Subset,
    approximate,
    audit_paper,
    check_approx_laws,
    check_product_approx_laws,
    classify,
    enum_mappings,
    enum_partitions,
    enum_spaces,
    enum_tables,
    find_counterexample,
    fixture_scenario,
    local_neutrals,
    make_space,
    make_universe,
    parse_scenario,
    serialize_scenario,
    canonical_universe,
)
from roughalg.algebra import associativity_instance
from roughalg.enumeration import law_suite
from roughalg.scenario import ParseError, Scenario

from conftest import blocks_from_rgs, naive_approx, random_rgs


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {title}")
        raise
    print(f"[criterion {num:02d}] PASS  {title}")


def findings():
    return {f.item: f for f in audit_paper()}


def test_criterion_01_approx_law_suite():
    with criterion(1, "L1-L9 exhaustive for n <= 4, zero failures, < 5 s"):
        started = time.monotonic()
        spaces = 0
        instances = 0
        for n in range(1, 5):
            for space in enum_spaces(n):
                spaces += 1
                u = space.universe
                for xm in range(1 << n):
                    for ym in range(1 << n):
                        instances += 1
                        rep = check_approx_laws(space, Subset(u, xm), Subset(u, ym))
                        assert rep.all_hold, (n, xm, ym)
        assert spaces == 23
        assert instances == 1 * 4 + 2 * 16 + 5 * 64 + 15 * 256
        assert time.monotonic() - started < 5.0


def test_criterion_02_oracle_equivalence():
    with criterion(2, "engine matches the per-definition oracle on 1000 cases, < 2 s"):
        started = time.monotonic()
        rng = random.Random(0xA11CE)
        for _ in range(1000):
            n = rng.randint(1, 8)
            u = make_universe([str(i) for i in range(n)])
            blocks = blocks_from_rgs(u, random_rgs(rng, n))
            space = make_space(u, blocks)
            x = Subset(u, rng.randrange(1 << n))
            res = approximate(space, x)
            lower, upper = naive_approx([set(b.labels()) for b in blocks],
                                        set(x.labels()))
            assert tuple(sorted(lower, key=u.index)) == res.lower.labels()
            assert tuple(sorted(upper, key=u.index)) == res.upper.labels()
            assert repr(res.upper) == "{" + " ".join(sorted(upper, key=u.index)) + "}"
        assert time.monotonic() - started < 2.0


def test_criterion_03_audit_matches():
    with criterion(3, "audit MATCH for EX3.2-UPPER-B and EX3.3-INTERSECTION"):
        f = findings()
        assert f["EX3.2-UPPER-B"].status == "MATCH"
        assert f["EX3.2-UPPER-B"].derived == "{1 2 3 5}"
        assert f["EX3.3-INTERSECTION"].status == "MATCH"
        assert "{1 2 3 5}" in f["EX3.3-INTERSECTION"].derived


def test_criterion_04_audit_discrepancies():
    with criterion(4, "audit DISCREPANCY/NOT-WELL-FORMED items with recomputed witnesses"):
        f = findings()
        assert f["EX3.1-UPPER-A"].status == "DISCREPANCY"
        assert f["EX3.1-UPPER-A"].derived == "{1 2 3 5}"
        assert f["P-PARTITION-COVER"].status == "NOT-WELL-FORMED"
        assert "6" in f["P-PARTITION-COVER"].derived
        assert f["EX3.1-DEF31"].status == "DISCREPANCY"
        assert any("1*1 = 4" in note for note in f["EX3.1-DEF31"].notes)
        assert f["EX3.2-DEF32"].status == "DISCREPANCY"
        assert any("2*2 = 4" in note for note in f["EX3.2-DEF32"].notes)

        # the derived upper value re-verified through the naive oracle
        s = fixture_scenario()
        blocks = [set(b.labels()) for b in s.partitions["P"].partition.blocks]
        _, upper = naive_approx(blocks, set(s.sets["A"].subset.labels()))
        assert upper == {"1", "2", "3", "5"}


def test_criterion_05_ag4_classification(ex31):
    with criterion(5, "published 4x4 table classifies as strict AG(4) with stated witnesses"):
        cls = classify(ex31["C"])
        assert cls.verdict("C4").status == "AllFalse"
        for law in ("C1", "C2", "C3", "C5"):
            assert cls.verdict(law).status == "Mixed", law
        assert cls.is_ag4
        assert local_neutrals(ex31["C"], "1").labels() == ("2",)
        assert associativity_instance(ex31["C"], "1", "3", "5") == "true"
        assert associativity_instance(ex31["C"], "2", "3", "5") == "false"


def test_criterion_06_product_laws_under_congruence(z4):
    with criterion(6, "Z4 with coset partition: upper equality and lower inclusion, < 1 s"):
        started = time.monotonic()
        u, table, space = z4["universe"], z4["table"], z4["space"]
        pairs = 0
        for xm in range(1, 16):
            for ym in range(1, 16):
                rep = check_product_approx_laws(space, table, Subset(u, xm), Subset(u, ym))
                assert rep.relation("a").holds and rep.relation("b").holds
                assert rep.relation("c").holds
                pairs += 1
        assert pairs == 225
        assert time.monotonic() - started < 1.0


def test_criterion_07_p31_minimal_counterexample():
    with criterion(7, "minimal raw-set counterexample to the intersection claim"):
        out = find_counterexample("P31", SearchSpec(universe_size=2, carrier_size=1))
        assert out.status == "found"
        assert out.witness["universe"] == ["1", "2"]
        assert out.witness["partition"] == [["1", "2"]]
        assert out.witness["A"] == ["1"]
        assert out.witness["B"] == ["2"]


def test_criterion_08_composition_propositions():
    with criterion(8, "composition sweeps at size 2 find zero counterexamples, < 30 s"):
        started = time.monotonic()
        for law in ("P41", "P42"):
            r = law_suite(law, 2)
            assert r.failures == 0
            assert r.instances > 0
            assert dict(r.extra)["tables"] == 16
        assert time.monotonic() - started < 30.0


def test_criterion_09_generator_counts():
    with criterion(9, "generator streams match the closed-form counts"):
        assert [sum(1 for _ in enum_partitions(n)) for n in range(1, 6)] == [1, 2, 5, 15, 52]
        u3 = canonical_universe(3)
        assert sum(1 for _ in enum_tables(u3, Subset.from_labels(u3, ["1", "2"]))) == 81
        dom = Subset.full(u3)
        cod = Subset.from_labels(u3, ["1", "2"])
        assert sum(1 for _ in enum_mappings(dom, cod, surjective_only=True)) == 6


def test_criterion_10_dsl_roundtrip_and_fuzz():
    with criterion(10, "fixture round-trips; 10000 random inputs never crash, < 10 s"):
        started = time.monotonic()
        s = fixture_scenario()
        text = serialize_scenario(s)
        assert parse_scenario(text) == s
        assert serialize_scenario(parse_scenario(text)) == text

        rng = random.Random(0xF00D)
        alphabet = bytes(range(256))
        outcomes = {"scenario": 0, "diagnostic": 0}
        for _ in range(10_000):
            blob = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            try:
                out = parse_scenario(blob.decode("latin-1"))
            except ParseError as e:
                assert e.line >= 1 and e.col >= 1
                outcomes["diagnostic"] += 1
            else:
                assert isinstance(out, Scenario)
                outcomes["scenario"] += 1
        assert sum(outcomes.values()) == 10_000
        assert time.monotonic() - started < 10.0

"""Bundled worked-example fixtures and the claim audit.

The `.ras` text below transcribes the running examples of the source text
this toolkit operationalizes: a six-element universe, its classification
(completed with the block { 6 }, without which the stated classes are not
a partition), the three carriers and their Cayley tables.  `audit_paper`
recomputes every transcribed claim at run time and reports MATCH,
DISCREPANCY or NOT-WELL-FORMED per item; nothing derived is hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .approx import ApproxSpace, Subset, Universe, approximate, make_partition, space_from_partition
from .algebra import classify
from .errors import RoughAlgError
from .rough_structures import check_rough_anti_semigroup, check_rough_anti_subsemigroup
from .scenario import Scenario, parse_scenario

EXAMPLE31_RAS = """\
# Worked-example fixtures: completed classification, carriers, Cayley tables.
universe U = { 1 2 3 4 5 6 }
partition P on U = { { 1 2 3 } { 4 } { 5 } { 6 } }
set A on U = { 1 2 5 }
set B on U = { 2 3 5 }
table C on U carrier { 1 2 3 5 } = {
  1 : 4 1 3 5
  2 : 1 4 5 3
  3 : 2 1 6 5
  5 : 1 2 3 6
}
table TA on U carrier { 1 2 5 } = {
  1 : 4 1 5
  2 : 1 4 3
  5 : 1 2 6
}
table TB on U carrier { 2 3 5 } = {
  2 : 4 5 3
  3 : 1 6 5
  5 : 2 3 6
}
"""

# The classification as stated in the source text omits element 6.
STATED_BLOCKS = (("1", "2", "3"), ("4",), ("5",))

AUDIT_ITEMS = (
    "EX3.1-UPPER-A",
    "EX3.2-UPPER-B",
    "EX3.1-AG4",
    "EX3.1-DEF31",
    "EX3.2-DEF32",
    "EX3.3-INTERSECTION",
    "P-PARTITION-COVER",
)

# The published upper approximations of the fixture sets:
# (item, set, claimed value, citation, audit notes).
UPPER_CLAIMS = (
    ("EX3.1-UPPER-A", "A", ("1", "2", "3", "4"), 'Example 3.1: "~A = {1, 2, 3, 4}"',
     ("derived from the completed classification; "
      "no completion of the stated classes yields the claimed value",)),
    ("EX3.2-UPPER-B", "B", ("1", "2", "3", "5"), 'Example 3.2: "~B = {1, 2, 3, 5}"', ()),
)


def fixture_scenario() -> Scenario:
    return parse_scenario(EXAMPLE31_RAS)


def fixture_space(scenario: Scenario | None = None) -> ApproxSpace:
    s = scenario or fixture_scenario()
    return space_from_partition(s.partitions["P"].partition)


@dataclass(frozen=True)
class AuditFinding:
    item: str
    claim: str
    citation: str
    derived: str
    status: str  # MATCH | DISCREPANCY | NOT-WELL-FORMED
    notes: tuple[str, ...] = ()


def _fmt(labels) -> str:
    return "{" + " ".join(labels) + "}"


def audit_paper() -> tuple[AuditFinding, ...]:
    """Recompute every bundled claim against the fixtures."""
    s = fixture_scenario()
    u = s.universes["U"]
    space = fixture_space(s)
    a = s.sets["A"].subset
    b = s.sets["B"].subset
    table_c = s.tables["C"].table
    table_a = s.tables["TA"].table
    table_b = s.tables["TB"].table
    findings = [_value_claim(item, value, citation,
                             approximate(space, s.sets[name].subset).upper.labels(), notes)
                for item, name, value, citation, notes in UPPER_CLAIMS]

    cls = classify(table_c)
    mixed = [law for law in ("C1", "C2", "C3", "C5") if cls.verdict(law).status == "Mixed"]
    agrees = cls.verdict("C4").status == "AllFalse" and len(mixed) == 4 and cls.is_ag4
    findings.append(AuditFinding(
        "EX3.1-AG4",
        claim="C4 false for all elements; C1, C2, C3, C5 partially true or partially false",
        citation='Example 3.1: "C4 is false for all the elements"',
        derived=(f"C4={cls.verdict('C4').status}, "
                 + ", ".join(f"{law}={cls.verdict(law).status}" for law in ("C1", "C2", "C3", "C5"))
                 + f", ag4={str(cls.is_ag4).lower()}"),
        status="MATCH" if agrees else "DISCREPANCY",
    ))

    def31 = check_rough_anti_semigroup(space, table_a, ambient=table_c)
    notes = ()
    if def31.condition1.witnesses:
        x, y, v = def31.condition1.witnesses[0]
        notes = (f"witness: {x}*{y} = {v}, outside upper(A) = {approximate(space, a).upper!r}",)
    findings.append(AuditFinding(
        "EX3.1-DEF31",
        claim="A is a rough anti-semigroup over the classification",
        citation='Example 3.1: "A ⊆ U is a rough anti-semigroup"',
        derived=f"condition 1 {'holds' if def31.condition1.holds else 'fails'}, "
                f"condition 2 {'holds' if def31.condition2.holds else 'fails'}, "
                f"overall={str(def31.overall).lower()}",
        status="MATCH" if def31.overall else "DISCREPANCY",
        notes=notes,
    ))

    def32 = check_rough_anti_subsemigroup(space, table_b, b)
    notes = ()
    if def32.condition1.witnesses:
        x, y, v = def32.condition1.witnesses[0]
        notes = (f"witness: {x}*{y} = {v}, outside upper(H) = {def32.upper_used!r}",)
    findings.append(AuditFinding(
        "EX3.2-DEF32",
        claim="B is a rough anti-subsemigroup (HH inside ~H)",
        citation='Example 3.2: "B ⊆ U is a rough anti-semigroup"',
        derived=f"closure into upper(H) {'holds' if def32.overall else 'fails'}",
        status="MATCH" if def32.overall else "DISCREPANCY",
        notes=notes,
    ))

    ab = a & b
    upper_ab = approximate(space, ab).upper
    inter_ok = ab.labels() == ("2", "5") and upper_ab.labels() == ("1", "2", "3", "5")
    findings.append(AuditFinding(
        "EX3.3-INTERSECTION",
        claim="A n B = {2 5} and ~(A n B) = {1 2 3 5}",
        citation='Example 3.3: "A ∩ B = {2, 5}" / "~(A ∩ B) = {1, 2, 3, 5}"',
        derived=f"A n B = {_fmt(ab.labels())}, upper = {_fmt(upper_ab.labels())}",
        status="MATCH" if inter_ok else "DISCREPANCY",
    ))

    findings.append(_cover_finding(u))

    order = {item: i for i, item in enumerate(AUDIT_ITEMS)}
    findings.sort(key=lambda f: order[f.item])
    return tuple(findings)


def _value_claim(item: str, claim_value: tuple[str, ...], citation: str,
                 derived: tuple[str, ...], notes: tuple[str, ...] = ()) -> AuditFinding:
    return AuditFinding(
        item,
        claim=_fmt(claim_value),
        citation=citation,
        derived=_fmt(derived),
        status="MATCH" if tuple(derived) == claim_value else "DISCREPANCY",
        notes=notes,
    )


def _cover_finding(u: Universe) -> AuditFinding:
    blocks = [Subset.from_labels(u, labs) for labs in STATED_BLOCKS]
    try:
        make_partition(u, blocks)
        derived, status, notes = "validated as a partition", "MATCH", ()
    except RoughAlgError as e:
        derived, status = f"not a partition of U: {e}", "NOT-WELL-FORMED"
        notes = ("fixtures complete the cover with the block { 6 }",)
    return AuditFinding(
        "P-PARTITION-COVER",
        claim="U/~ = {E1, E2, E3} with E1 = {1 2 3}, E2 = {4}, E3 = {5}",
        citation='Example 3.1: "A classification of U"',
        derived=derived,
        status=status,
        notes=notes,
    )


def find_approx_claim(space: ApproxSpace, queried: Subset):
    """Published upper-approximation claim matching an approx query, if any.

    Returns (item, claimed-value-string, citation) or None.
    """
    s = fixture_scenario()
    if space != fixture_space(s):
        return None
    claims = {s.sets[name].subset: (item, _fmt(value), citation)
              for item, name, value, citation, _ in UPPER_CLAIMS}
    claims[s.sets["A"].subset & s.sets["B"].subset] = (
        "EX3.3-INTERSECTION", "{1 2 3 5}", 'Example 3.3: "~(A ∩ B) = {1, 2, 3, 5}"')
    return claims.get(queried)

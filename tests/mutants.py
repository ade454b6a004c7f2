"""Mutation check of the kernels: every mutant below must fail its tests.

    python tests/mutants.py              # every mutant
    python tests/mutants.py a-sides ...  # only the named ones

A mutant is a one-line edit of a module under src/roughalg: the old text,
which must occur there exactly once, and the new text.  For each, src/ is
copied to a temporary directory, the edit is applied to the copy, and the
test files that cover it run with `pytest -x` with PYTHONPATH at the copy.
The mutant is killed if they fail.  A mutant that survives fails the run,
unless it is marked equivalent, with the reason that no input the code can
reach tells it apart; those must survive, since a kill means the reason is
wrong.  The run prints one line per mutant and exits 1 on any miss.

Stdlib only.  pytest does not collect this file (it does not match
test_*.py), so it is not part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/roughalg
    old: str
    new: str
    tests: tuple[str, ...]  # test files under tests/
    equivalent: str = ""  # why no reachable input tells it apart; empty if one does


_RELATIONS = "return up_prod & ~up[xy], up[xy] & ~up_prod, lo_prod & ~lo[xy], lo[xy] & ~lo_prod"


def _relation(name: str, a: str, b: str, c: str, d: str) -> Mutant:
    """A mutant of the product-relation kernel's four bad masks."""
    return Mutant(name, "algebra.py", _RELATIONS, f"return {a}, {b}, {c}, {d}", ("test_algebra.py",))


def _law(name: str, old: str, new: str) -> Mutant:
    """A mutant of one law's formula in approx._LAW_BAD."""
    return Mutant(name, "approx.py", old, new, ("test_approx.py",))


_A, _B, _C, _D = "up_prod & ~up[xy]", "up[xy] & ~up_prod", "lo_prod & ~lo[xy]", "lo[xy] & ~lo_prod"

MUTANTS = (
    # relations (a)-(d): sides swapped, or the other approximation on both sides
    _relation("a-sides", _B, _B, _C, _D),
    _relation("a-lower", _C, _B, _C, _D),
    _relation("b-sides", _A, _A, _C, _D),
    _relation("b-lower", _A, _D, _C, _D),
    _relation("c-sides", _A, _B, _D, _D),
    _relation("c-upper", _A, _B, _A, _D),
    _relation("d-sides", _A, _B, _C, _C),
    _relation("d-upper", _A, _B, _C, _B),
    # (c) against upper(XY), (d) against the upper product
    _relation("c-upper-xy", _A, _B, "lo_prod & ~up[xy]", _D),
    _relation("d-upper-product", _A, _B, _C, "lo[xy] & ~up_prod"),
    # the set product, the one definition of a product
    Mutant("set-product-indet", "algebra.py", "            if v is not INDET:\n                mask |= 1 << v",
           "            mask |= 1 << v", ("test_algebra.py",)),
    Mutant("set-product-operands", "algebra.py", "if m >> i & 1] for m in (a, b))",
           "if m >> i & 1] for m in (b, a))", ("test_algebra.py",)),
    Mutant("set-product-restricted-0", "algebra.py", "        mask &= table.carrier.mask",
           "        mask &= table.carrier.mask | 1", ("test_algebra.py",)),
    # the congruence kernel on block products, and is_congruence's count of
    # indeterminate quadruples
    Mutant("congruence-skips-block-pair", "algebra.py", "(pr(a, b) for a in blocks for b in blocks)",
           "(pr(a, b) for a in blocks for b in blocks[1:])", ("test_algebra.py",)),
    Mutant("congruence-meets-a-block", "algebra.py", "any(not p & ~c for c in blocks)",
           "any(not p or p & c for c in blocks)", ("test_algebra.py",)),
    Mutant("congruence-indeterminate-unsquared", "algebra.py", "for b in blocks) ** 2 - checked",
           "for b in blocks) - checked", ("test_algebra.py",)),
    # the approximation block loop, the formula of each law that holds, and P31's
    Mutant("lower-as-upper", "approx.py", "return lower, upper", "return upper, upper", ("test_approx.py",)),
    _law("l1-x-inside-lower", "(x & ~up[x])", "(x & ~lo[x])"),
    _law("l2-full-upper-of-x", "lo[full] & up[full]", "lo[full] & up[x]"),
    _law("l3-lower-of-meet", "& ~lo[x | y]", "& ~lo[x & y]"),
    _law("l5-meet-of-uppers", "up[x | y] ^ (up[x] | up[y])", "up[x | y] ^ (up[x] & up[y])"),
    _law("l6-upper-of-join", "up[x & y] & ~(up[x] & up[y])", "up[x | y] & ~(up[x] & up[y])"),
    _law("l7-complement-lower-as-upper", "(up[full & ~x] ^ (full & ~lo[x]))", "(up[full & ~x] ^ (full & ~up[x]))"),
    _law("l8-upper-of-x", "(up[lo[x]] ^ lo[x])", "(up[x] ^ lo[x])"),
    _law("l9-lower-of-x", "(lo[up[x]] ^ up[x])", "(lo[x] ^ up[x])"),
    _law("p31-upper-of-join", "~up[x & y]", "~up[x | y]"),
    # the counted suites: passing pairs on one block, and the block-product sums
    Mutant("good-pairs-unsigned", "enumeration.py", "(-1) ** j * comb(s, j)", "comb(s, j)",
           ("test_enumeration.py",)),
    Mutant("partition-sums-comb-n", "enumeration.py", "comb(n - 1, b - 1)", "comb(n, b)",
           ("test_enumeration.py",)),
    # the P22 stream's count of congruent failures of inclusion (a)
    Mutant("p22-inclusion-counts-b", "enumeration.py", "inclusion += bool(bad[0])",
           "inclusion += bool(bad[1])", ("test_enumeration.py",)),
    Mutant("p22-names-swapped", "enumeration.py", 'zip("ab", bad)', 'zip("ba", bad)',
           ("test_enumeration.py", "test_golden.py")),
    Mutant("p22-empty-x", "enumeration.py", "for x in masks[1:]:", "for x in masks:",
           ("test_enumeration.py", "test_golden.py")),
    # the one morphism pair rule, its two folds (`_check`'s report and
    # `_behaviour`) and the composition check's hypothesis
    Mutant("pair-reverse-reads-forward", "morphisms.py", "cells_b[qy * kb + qx]", "cells_b[qx * kb + qy]",
           ("test_morphisms.py",)),
    Mutant("pair-operand-outside-carrier", "morphisms.py", "if px >= 0 and py >= 0 else None",
           "if px >= 0 else None", ("test_morphisms.py",)),
    Mutant("pair-product-outside-domain", "morphisms.py", "left = val.get(xy)", "left = val.get(xy, xy)",
           ("test_morphisms.py",)),
    Mutant("behaviour-forward-indet", "morphisms.py", "(fwd is None or fwd == left)", "(fwd == left)",
           ("test_morphisms.py",)),
    Mutant("behaviour-reverse-indet", "morphisms.py", "(back is None or back == left)", "(back == left)",
           ("test_morphisms.py",)),
    Mutant("check-anti-hom-sense", "morphisms.py", 'elif (left == side) == (kind == "anti-hom"):',
           "elif left != side:", ("test_morphisms.py",)),
    Mutant("check-rough-anti-hom-side", "morphisms.py", 'side = rev if kind == "rough-anti-hom" else fwd',
           "side = fwd", ("test_morphisms.py",)),
    Mutant("composition-p42-second-preserves", "morphisms.py", 'want2 = 1 if prop == "p41" else 0',
           "want2 = 1", ("test_morphisms.py",)),
    Mutant("composite-index-swapped", "enumeration.py", "claim[comp[a][b]]", "claim[comp[b][a]]",
           ("test_enumeration.py",)),
    Mutant("p42-second-preserves", "enumeration.py", 'if prop == "p41" else (rev, pres)',
           'if prop == "p41" else (pres, pres)', ("test_enumeration.py",)),
    # the reducers: the suites' first witness, and find_counterexample's budget
    Mutant("count-last-witness", "enumeration.py", "if first is None:", "if True:",
           ("test_enumeration.py",)),
    Mutant("first-past-budget", "enumeration.py", "if examined == budget:", "if examined > budget:",
           ("test_enumeration.py",)),
    # search: the scan's budget stop and range start, and the hit decoder and
    # renderer behind SearchOutcome.hits and the CLI report
    Mutant("scan-budget-one-past", "enumeration.py", "if idx >= end:", "if idx > end:",
           ("test_enumeration.py",)),
    Mutant("passing-rests-start-off-by-one", "enumeration.py", "start, stop = max(lo - base, 0), min(",
           "start, stop = max(lo - base, 0) + 1, min(", ("test_enumeration.py",)),
    Mutant("hit-rows-reversed", "enumeration.py", "number // base ** (self.k - 1 - d) % base",
           "number // base ** d % base", ("test_enumeration.py", "test_cli.py")),
    Mutant("hit-split-swapped", "enumeration.py", "sidx, rest = divmod(idx, self.per_space)",
           "rest, sidx = divmod(idx, self.per_space)", ("test_enumeration.py", "test_cli.py")),
    Mutant("row-memo-by-position", "cli.py",
           "[rows[v] if v in rows else rows.setdefault(v, row(v)) for v in tables.rows(t)]",
           "[rows[r] if r in rows else rows.setdefault(r, row(v)) for r, v in enumerate(tables.rows(t))]",
           ("test_cli.py",)),
    # search's law stage: the window's cell masks, the status masks' empty,
    # Mixed and uniform branches, each law family's mask formula, and the
    # decode of the passing tables
    Mutant("window-shift-by-run", "enumeration.py", "shift = base * r, lo % (base * r)",
           "shift = base * r, lo % r", ("test_enumeration.py", "test_algebra.py")),
    Mutant("two-value-split-late", "enumeration.py", "split = lo // r % base, r - lo % r",
           "split = lo // r % base, r - lo % r + 1", ("test_enumeration.py", "test_algebra.py")),
    Mutant("set-bit-decode-reversed", "enumeration.py", 'bits = format(mask, "b")[::-1]',
           'bits = format(mask, "b")', ("test_enumeration.py",)),
    Mutant("status-empty-all-true", "algebra.py", "return mask if _status(law, 0, 0, 0) == status else 0",
           'return mask if status == "AllTrue" else 0', ("test_algebra.py", "test_enumeration.py")),
    Mutant("status-mixed-without-indet", "algebra.py",
           "yield t, sum(left.values()) & sum(right.values()) & ~t", "yield t, ~t",
           ("test_algebra.py", "test_enumeration.py")),
    Mutant("status-mixed-keeps-all-false", "algebra.py",
           '| _status_mask(law, "AllFalse", cm, k, order, pos, mask))', ")",
           ("test_algebra.py", "test_enumeration.py")),
    Mutant("status-uniform-allows-other", "algebra.py", "mask & masks[side]", "mask & (masks[0] | masks[1])",
           ("test_algebra.py", "test_enumeration.py")),
    Mutant("c1-outside-with-indet", "algebra.py", "yield inside, ~(inside | c.get(INDET, 0))",
           "yield inside, ~inside", ("test_algebra.py", "test_enumeration.py")),
    Mutant("c2-left-side-transposed", "algebra.py", "lambda q: q * k + pz", "lambda q: pz * k + q",
           ("test_algebra.py", "test_enumeration.py")),
    Mutant("c2-carrier-check", "algebra.py", "if v is not INDET and pos[v] >= 0:",
           "if v is not INDET:", ("test_algebra.py", "test_enumeration.py")),
    Mutant("c3-second-side", "algebra.py", "& cm[pe * k + px].get(order[px], 0)",
           "& cm[px * k + pe].get(order[px], 0)", ("test_algebra.py", "test_enumeration.py")),
    Mutant("c4-inverse-one-side", "algebra.py", "& cm[pu * k + px].get(order[pe], 0)",
           "& cm[px * k + pu].get(order[pe], 0)",
           ("test_algebra.py", "test_enumeration.py")),
    Mutant("c5-one-indet-side", "algebra.py", "yield t, ~(t | a.get(INDET, 0) | b.get(INDET, 0))",
           "yield t, ~(t | a.get(INDET, 0))", ("test_algebra.py", "test_enumeration.py")),
    Mutant("c8-identity-absorbs", "algebra.py", "_neutral(cm, k, order, px, pe) for px in range(k)",
           "_neutral(cm, k, order, pe, px) for px in range(k)", ("test_algebra.py", "test_enumeration.py")),
    Mutant("c9-unnegated", "algebra.py", "yield ~f, f", "yield f, ~f", ("test_algebra.py", "test_enumeration.py")),
    Mutant("anti-laws-unswapped", "algebra.py", "            yield f, t\n", "            yield t, f\n",
           ("test_algebra.py", "test_enumeration.py")),
    # classification and the structure checks
    Mutant("strict-ag4-without-c5", "algebra.py", 'for c in ("C1", "C2", "C3", "C5"))',
           'for c in ("C1", "C2", "C3"))', ("test_algebra.py", "test_acceptance.py")),
    Mutant("closure-indet-true", "rough_structures.py",
           "if v is not INDET and target.contains_index(v):",
           "if v is INDET or target.contains_index(v):", ("test_rough_structures.py",)),
    Mutant("rough-anti-hom-without-surjection", "morphisms.py",
           'kind in ("hom", "anti-hom"))', 'kind in ("hom", "anti-hom", "rough-anti-hom"))',
           ("test_morphisms.py",)),
    # equivalent: each must survive
    Mutant("l4-and-not", "approx.py", "lo[x & y] ^ (lo[x] & lo[y])", "lo[x & y] & ~(lo[x] & lo[y])",
           ("test_approx.py", "test_enumeration.py"),
           "L4 holds on every input, so both formulas give 0"),
    Mutant("commutative-group-not-mixed", "algebra.py", 'is_group and all_true("C5")',
           'is_group and not mixed("C5")', ("test_algebra.py", "test_acceptance.py"),
           "in a group the identity commutes with every element, so C5 is never AllFalse"),
    Mutant("block-count-first-partition", "enumeration.py", "< 4 ** n)", "<= 4 ** n)",
           ("test_enumeration.py",),
           "P31, the only counted law that fails, first fails on partition 0 of its first failing n"),
)


def _killed(m: Mutant) -> bool:
    """Whether the mutant's tests fail on a mutated copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "roughalg" / m.module
        text = path.read_text()
        if text.count(m.old) != 1:
            raise SystemExit(f"{m.name}: the old text occurs {text.count(m.old)} times in {m.module}")
        path.write_text(text.replace(m.old, m.new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import roughalg; print(roughalg.__file__)"],
                               env=env, capture_output=True, text=True, check=True).stdout
        if not where.startswith(str(src)):
            raise SystemExit(f"{m.name}: roughalg imported from {where.strip()}, not the mutated copy")
        tests = [str(REPO / "tests" / t) for t in m.tests]
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # 1: a test failed; 2: collection failed, as when the edit breaks an import
        if done.returncode not in (0, 1, 2):
            raise SystemExit(f"{m.name}: pytest exited with {done.returncode}")
        return done.returncode != 0


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    misses = 0
    started = time.monotonic()
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        t = time.monotonic()
        killed = _killed(m)
        if m.equivalent:
            verdict = "KILLED, so not equivalent" if killed else f"survived, equivalent: {m.equivalent}"
        else:
            verdict = "killed" if killed else "SURVIVED"
        misses += killed == bool(m.equivalent)
        print(f"{m.name:36} {time.monotonic() - t:5.1f} s  {verdict}", flush=True)
    print(f"{misses} misses, {time.monotonic() - started:.0f} s")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

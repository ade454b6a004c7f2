"""Golden outputs: stdout digests of fixed CLI commands, pinned
find_counterexample outcomes and pinned search hits.

A refactor of the sweep engine must leave every byte of these outputs
unchanged.  After a change that is meant to alter output, re-record with

    PYTHONPATH=src python tests/test_golden.py

from the repository root and state the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import pytest

from roughalg import SearchSpec, find_counterexample, search
from roughalg.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CLI_GOLDENS = GOLDEN / "cli_stdout.json"
FIND_GOLDENS = GOLDEN / "find_counterexample.json"
SEARCH_GOLDENS = GOLDEN / "search_hits.json"

RAS = "fixtures/example31.ras"
LAWS = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "P22", "P31", "P41", "P42")
APPROX_SUITES = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "P31")
FULL = ["--limit", "1000000", "--budget", "1000000"]


def _commands() -> list[list[str]]:
    base = [["laws", "--max-n", "3", "--law", law] for law in LAWS]
    # the sweep size rule: at --max-n 1 P22 runs at n = 1 and P41/P42 stay
    # at n = 2; at --max-n 6 P22 is capped at n = 2
    base += [["laws", "--max-n", "1", "--law", law] for law in LAWS]
    base += [["laws", "--max-n", "6", "--law", law] for law in ("P22", "P41", "P42")]
    base += [["laws", "--max-n", "5", "--law", law] for law in APPROX_SUITES]
    # every suite in one report, at the default --max-n, around it and at 6
    base += [["laws", "--max-n", n] for n in ("2", "4", "6")]
    for n in ("2", "3"):
        scan = ["search", "--universe-size", n, "--carrier-size", "2",
                "--require", "C4=AllFalse"]
        base += [scan + FULL, scan + ["--limit", "1"]]
    # larger sizes: a full n=3, k=3 scan (98,415 candidates), the first
    # 20,000 candidates at n=4, k=3, and the n=4 early hit at index 66,560
    n3k3 = ["search", "--universe-size", "3", "--carrier-size", "3"]
    n4k3 = ["search", "--universe-size", "4", "--carrier-size", "3"]
    base += [
        n3k3 + ["--require", "C3=AllTrue", "--require", "C2=AllTrue"] + FULL,
        n4k3 + ["--require", "C5=AllTrue", "--limit", "1000000", "--budget", "20000"],
        n4k3 + ["--require", "C1=AllTrue", "--require", "C4=AllFalse", "--limit", "1"],
    ]
    base += [
        ["audit-paper"],
        ["parse", RAS],
        ["approx", RAS, "--space", "P", "--set", "A"],
        ["approx", RAS, "--space", "P", "--set", "B"],
        ["classify", RAS, "--table", "C"],
        ["check", "rough-semigroup", RAS, "--space", "P", "--table", "C"],
        ["check", "rough-semigroup", RAS, "--space", "P", "--table", "TA", "--ambient", "C"],
        ["check", "rough-subsemigroup", RAS, "--space", "P", "--table", "C", "--subset", "A"],
    ]
    # the 19,310-hit n=3, k=3 scan, where rendering the hits outweighs
    # finding them
    base.append(n3k3 + ["--require", "C4=AllFalse"] + FULL)
    # the two n = 6 sweeps, text only: L4 holds throughout, P31 pins a
    # first-failure witness
    text_only = [["laws", "--max-n", "6", "--law", law] for law in ("L4", "P31")]
    # a scan with no hits, which prints "hits": []
    json_only = [["--json"] + n4k3 + ["--require", "C4=AllFalse", "--budget", "30000"]]
    return base + [["--json"] + argv for argv in base] + text_only + json_only


def _stdout_digest(argv: list[str]) -> str:
    resolved = [str(ROOT / a) if a == RAS else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(resolved)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _find_outcome(law: str) -> dict:
    return dataclasses.asdict(find_counterexample(law, SearchSpec(universe_size=2,
                                                                  carrier_size=2)))


# Library searches over each structural constraint.  At n=3, k=2 the
# carrier is never the whole universe, so "congruence" also gets a full
# carrier, narrowed to the 113 associative tables.
STRUCTURAL_SPECS = {
    **{name: SearchSpec(3, 2, structural_constraints=(name,), limit=10**6, budget=10**6)
       for name in ("rough-carrier", "exact-carrier", "rough-anti-semigroup", "congruence")},
    "congruence n=3 k=3 C2=AllTrue": SearchSpec(3, 3, law_constraints=(("C2", "AllTrue"),),
                                                structural_constraints=("congruence",),
                                                limit=10**6, budget=10**6),
}


def _search_hits(name: str) -> dict:
    out = search(STRUCTURAL_SPECS[name])
    hits = [[h.index, [b.mask for b in h.space.partition.blocks], h.table.carrier.mask,
             list(h.table.cells)] for h in out.hits]
    return {"indices": [h.index for h in out.hits],
            "digest": hashlib.sha256(json.dumps(hits).encode()).hexdigest()}


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_cli_stdout_golden(argv):
    assert _stdout_digest(argv) == _load(CLI_GOLDENS)[" ".join(argv)]


@pytest.mark.parametrize("law", LAWS)
def test_find_counterexample_golden(law):
    assert _find_outcome(law) == _load(FIND_GOLDENS)[law]


@pytest.mark.parametrize("name", STRUCTURAL_SPECS)
def test_search_hits_golden(name):
    assert _search_hits(name) == _load(SEARCH_GOLDENS)[name]


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    cli = {" ".join(argv): _stdout_digest(argv) for argv in _commands()}
    CLI_GOLDENS.write_text(json.dumps(cli, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    find = {law: _find_outcome(law) for law in LAWS}
    FIND_GOLDENS.write_text(json.dumps(find, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    hits = {name: _search_hits(name) for name in STRUCTURAL_SPECS}
    SEARCH_GOLDENS.write_text(json.dumps(hits, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record()

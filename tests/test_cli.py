import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import roughalg
from roughalg import EXAMPLE31_RAS, SearchSpec, search
from roughalg.cli import _render_hits, _splice_hits, build_parser, main
from roughalg.enumeration import _SWEEP_LAWS, COUNTEREXAMPLE_LAWS
from roughalg.report import REPORT_SCHEMA, partition_json, table_json


@pytest.fixture()
def ras(tmp_path):
    f = tmp_path / "example31.ras"
    f.write_text(EXAMPLE31_RAS, encoding="utf-8")
    return str(f)


@pytest.fixture()
def morph_ras(tmp_path):
    f = tmp_path / "morph.ras"
    f.write_text(
        "universe U = { 0 1 }\n"
        "partition I on U = { { 0 } { 1 } }\n"
        "set D on U = { 0 1 }\n"
        "table Z2 on U carrier { 0 1 } = {\n"
        "  0 : 0 1\n"
        "  1 : 1 0\n"
        "}\n"
        "map ID from D to D = { 0 -> 0 1 -> 1 }\n",
        encoding="utf-8",
    )
    return str(f)


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_parse_ok(capsys, ras):
    rc, out, err = run(capsys, ["parse", ras])
    assert rc == 0 and out.startswith("ok:") and err == ""


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.ras"
    bad.write_text("universe U = {", encoding="utf-8")
    rc, out, err = run(capsys, ["parse", str(bad)])
    assert rc == 2 and "error:" in err and out == ""

    rc, _, err = run(capsys, ["parse", str(tmp_path / "missing.ras")])
    assert rc == 2 and "cannot read" in err


def test_usage_error_exit_2(ras):
    with pytest.raises(SystemExit) as e:
        main(["approx", ras])          # missing required --space/--set
    assert e.value.code == 2


def test_unknown_name_exit_2(capsys, ras):
    rc, _, err = run(capsys, ["classify", ras, "--table", "NOPE"])
    assert rc == 2 and "no table named" in err


def test_approx_output(capsys, ras):
    rc, out, _ = run(capsys, ["approx", ras, "--space", "P", "--set", "A"])
    assert rc == 0
    assert "upper = {1 2 3 5}" in out
    assert "{1 2 3 4}" in out and "derived value differs" in out

    rc, out, _ = run(capsys, ["approx", ras, "--space", "P", "--set", "B"])
    assert "derived value agrees" in out


def test_classify_output(capsys, ras):
    rc, out, _ = run(capsys, ["classify", ras, "--table", "C"])
    assert rc == 0
    flags = [l for l in out.splitlines() if l.startswith("flags:")]
    assert len(flags) == 1 and "ag4=true" in flags[0]
    assert "C4: AllFalse" in out


def test_check_rough_semigroup(capsys, ras):
    rc, out, _ = run(capsys, ["check", "rough-semigroup", ras,
                              "--space", "P", "--table", "TA", "--ambient", "C"])
    assert rc == 0
    assert "witness: (1,1) -> 4" in out
    assert "overall = false" in out


def test_check_rough_subsemigroup(capsys, ras):
    rc, out, _ = run(capsys, ["check", "rough-subsemigroup", ras,
                              "--space", "P", "--table", "TB", "--subset", "B"])
    assert rc == 0
    assert "witness: (2,2) -> 4" in out


def test_check_morphism(capsys, morph_ras):
    rc, out, _ = run(capsys, ["check", "morphism", morph_ras, "--map", "ID",
                              "--kind", "rough-hom", "--table-a", "Z2", "--table-b", "Z2",
                              "--space-a", "I", "--space-b", "I"])
    assert rc == 0 and "overall = true" in out

    rc, out, _ = run(capsys, ["check", "morphism", morph_ras, "--map", "ID",
                              "--kind", "anti-hom", "--table-a", "Z2", "--table-b", "Z2"])
    assert rc == 0 and "overall = false" in out

    with pytest.raises(SystemExit):
        main(["check", "morphism", morph_ras, "--map", "ID", "--kind", "bogus",
              "--table-a", "Z2", "--table-b", "Z2"])


def test_laws_output(capsys):
    rc, out, _ = run(capsys, ["laws", "--max-n", "3", "--law", "L5"])
    assert rc == 0
    assert "L5: 0 failures / 356 instances checked" in out


def test_laws_default_runs_every_suite(capsys):
    rc, out, _ = run(capsys, ["laws", "--max-n", "2"])
    assert rc == 0
    for law in ("L1", "L9", "P22", "P31", "P41", "P42"):
        assert f"{law}:" in out
    assert "P41: 0 failures" in out and "P42: 0 failures" in out


def _laws_option(dest: str) -> argparse.Action:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices["laws"]._actions if a.dest == dest)


def test_laws_choices_are_the_library_laws():
    assert tuple(_laws_option("law").choices) == COUNTEREXAMPLE_LAWS


def test_max_n_help_names_each_own_sweep_size():
    help_text = _laws_option("max_n").help
    capped = {law: r.size(6) for law, r in _SWEEP_LAWS.items() if r.size(6) != 6}
    assert capped                        # P22, P41 and P42 today
    for law, n in capped.items():
        assert f"{law} n = {n}" in help_text


def test_approx_note_absent_off_fixture(capsys, tmp_path):
    f = tmp_path / "s.ras"
    f.write_text("universe U = { a b }\npartition P on U = { { a b } }\n"
                 "set X on U = { a }\n", encoding="utf-8")
    rc, out, _ = run(capsys, ["approx", str(f), "--space", "P", "--set", "X"])
    assert rc == 0 and "note:" not in out
    rc, out, _ = run(capsys, ["--json", "approx", str(f), "--space", "P", "--set", "X"])
    assert json.loads(out)["note"] is None


def test_laws_assert_semantics(capsys):
    rc, _, _ = run(capsys, ["--assert", "laws", "--max-n", "2", "--law", "L5"])
    assert rc == 0
    rc, _, _ = run(capsys, ["--assert", "laws", "--max-n", "2", "--law", "P31"])
    assert rc == 1                       # the mined counterexamples exist


def test_audit_assert_both_positions(capsys):
    assert run(capsys, ["audit-paper"])[0] == 0
    assert run(capsys, ["--assert", "audit-paper"])[0] == 1
    assert run(capsys, ["audit-paper", "--assert"])[0] == 1


def test_audit_items_present(capsys):
    _, out, _ = run(capsys, ["audit-paper"])
    for item in ("EX3.1-UPPER-A", "EX3.2-UPPER-B", "EX3.1-AG4", "EX3.1-DEF31",
                 "EX3.2-DEF32", "EX3.3-INTERSECTION", "P-PARTITION-COVER"):
        assert out.count(item) == 1


def test_json_reports_validate(capsys, ras, morph_ras):
    cases = [
        ["--json", "parse", ras],
        ["--json", "approx", ras, "--space", "P", "--set", "A"],
        ["--json", "classify", ras, "--table", "C"],
        ["--json", "check", "rough-semigroup", ras, "--space", "P", "--table", "TA"],
        ["--json", "check", "rough-subsemigroup", ras, "--space", "P",
         "--table", "TB", "--subset", "B"],
        ["--json", "check", "morphism", morph_ras, "--map", "ID", "--kind", "rough-hom",
         "--table-a", "Z2", "--table-b", "Z2", "--space-a", "I", "--space-b", "I"],
        ["--json", "laws", "--max-n", "2"],
        ["--json", "search", "--universe-size", "2", "--carrier-size", "2",
         "--require", "C4=AllFalse", "--limit", "2"],
        ["--json", "audit-paper"],
    ]
    for argv in cases:
        rc, out, _ = run(capsys, argv)
        assert rc == 0, argv
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)


def test_byte_identical_runs(capsys, ras):
    for argv in (["audit-paper"],
                 ["--json", "classify", ras, "--table", "C"],
                 ["search", "--universe-size", "2", "--carrier-size", "2",
                  "--require", "C4=AllFalse", "--limit", "3"]):
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second


def test_jobs_do_not_change_output(capsys):
    argv = ["search", "--universe-size", "2", "--carrier-size", "2",
            "--require", "C4=AllFalse", "--limit", "3"]
    assert run(capsys, argv)[1] == run(capsys, ["--jobs", "2"] + argv)[1]
    for law in ("L4", "P22", "P41"):
        laws = ["laws", "--max-n", "3", "--law", law]
        assert run(capsys, laws)[1] == run(capsys, ["--jobs", "2"] + laws)[1]


def test_jobs_bounded_before_any_pool(capsys, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    laws = ["laws", "--max-n", "2", "--law", "L4"]
    for bad in ("0", "-1", "two", str((os.cpu_count() or 1) + 1)):
        for argv in (["--jobs", bad] + laws, laws + ["--jobs", bad]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("law, instances", [
    *((law, 57444) for law in ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "P31")),
    ("P22", 289), ("P41", 60), ("P42", 48)])
def test_laws_suites_start_no_pool(capsys, monkeypatch, law, instances):
    # every laws suite runs in process whatever --jobs says, and prints what --jobs 1 prints
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    rc, out, _ = run(capsys, ["--jobs", "2", "laws", "--max-n", "5", "--law", law])
    assert rc == 0 and f" {instances} instances checked" in out
    assert run(capsys, ["--jobs", "1", "laws", "--max-n", "5", "--law", law]) == (0, out, "")


def test_cli_import_leaves_multiprocessing_unloaded():
    # the process pool's modules load only when search runs on several jobs
    src = str(Path(roughalg.__file__).resolve().parents[1])
    code = "import sys, roughalg.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_bad_require_syntax(capsys):
    rc, _, err = run(capsys, ["search", "--universe-size", "2", "--carrier-size", "2",
                              "--require", "C99=Sometimes"])
    assert rc == 2 and "bad --require" in err


def test_verbose_goes_to_stderr(capsys, ras):
    rc, out, err = run(capsys, ["--verbose", "parse", ras])
    assert rc == 0 and "elapsed" in err and "elapsed" not in out


@pytest.mark.parametrize("argv", [
    ["search", "--universe-size", "3", "--carrier-size", "2", "--require", "C4=AllFalse",
     "--limit", "1000000", "--budget", "1000000"],
    ["--json", "search", "--universe-size", "3", "--carrier-size", "2",
     "--require", "C4=AllFalse", "--limit", "1000000", "--budget", "1000000"],
    ["laws", "--max-n", "2"],
    ["--json", "laws", "--max-n", "2"],
], ids=" ".join)
def test_verbose_leaves_stdout_unchanged(capsys, argv):
    quiet = run(capsys, argv)
    loud = run(capsys, argv + ["--verbose"])
    assert quiet[:2] == loud[:2] and quiet[2] == "" and "elapsed" in loud[2]


# The CLI's former per-hit rendering, the oracle for _render_hits and
# _splice_hits: every hit's text lines and JSON object, from partition_json
# and table_json each time.
def _per_hit_render(hits) -> tuple[list[str], list[dict]]:
    text, objects = [], []
    for hit in hits:
        pj, tj = partition_json(hit.space.partition), table_json(hit.table)
        objects.append({"index": hit.index, "partition": pj, "table": tj})
        text.append(f"hit (index {hit.index}):")
        text.append("  partition: " + " ".join("{" + " ".join(b) + "}" for b in pj))
        text.append("  carrier: {" + " ".join(tj["carrier"]) + "}")
        for lab, row in zip(tj["carrier"], tj["rows"]):
            text.append(f"    {lab} : " + " ".join(row))
    return text, objects


FULL_SCAN = {"limit": 10**6, "budget": 10**6}


@pytest.mark.parametrize("spec, jobs", [
    # indeterminate cells, which the CLI cannot ask for, print as "?"
    (SearchSpec(3, 2, allow_indet=True, law_constraints=(("C4", "AllFalse"),), **FULL_SCAN), 1),
    (SearchSpec(3, 3, law_constraints=(("C4", "AllFalse"),), limit=1), 1),
    (SearchSpec(2, 2, law_constraints=(("C1", "AllTrue"), ("C1", "AllFalse")), **FULL_SCAN), 1),
    (SearchSpec(3, 2, law_constraints=(("C4", "AllFalse"),), **FULL_SCAN), 2),
], ids=["indeterminate", "limit-1", "no-hits", "jobs-2"])
def test_rendered_hits_match_per_hit_render(spec, jobs):
    outcome = search(spec, jobs=jobs)
    text, objects = _per_hit_render(outcome.hits)
    assert "\n".join(_render_hits(outcome.hits, False)) == "\n".join(text)
    report = {"kind": "search", "universe_size": spec.universe_size,
              "carrier_size": spec.carrier_size,
              "requirements": [list(r) for r in spec.law_constraints],
              "limit": spec.limit, "budget": spec.budget, "hits": None,
              "examined": outcome.examined, "total": outcome.total,
              "limit_reached": outcome.limit_reached,
              "budget_exhausted": outcome.budget_exhausted}
    spliced = _splice_hits(report, _render_hits(outcome.hits, True))
    assert spliced == json.dumps({**report, "hits": objects}, indent=2, sort_keys=True)
    jsonschema.validate(json.loads(spliced), REPORT_SCHEMA)
    assert ("?" in spliced) == spec.allow_indet


def test_rough_kind_needs_spaces(capsys, morph_ras):
    rc, _, err = run(capsys, ["check", "morphism", morph_ras, "--map", "ID",
                              "--kind", "rough-hom", "--table-a", "Z2", "--table-b", "Z2"])
    assert rc == 2 and "--space-a" in err


def test_repo_fixture_file_in_sync():
    path = Path(__file__).resolve().parent.parent / "fixtures" / "example31.ras"
    assert path.read_text(encoding="utf-8") == EXAMPLE31_RAS

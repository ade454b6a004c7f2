import argparse
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import roughalg
from roughalg import EXAMPLE31_RAS, SearchSpec, search
from roughalg.cli import _write_hits, build_parser, main
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
    # 19,310 hits
    ["search", "--universe-size", "3", "--carrier-size", "3", "--require", "C4=AllFalse",
     "--limit", "1000000", "--budget", "1000000"],
    ["--json", "search", "--universe-size", "3", "--carrier-size", "3",
     "--require", "C4=AllFalse", "--limit", "1000000", "--budget", "1000000"],
    ["laws", "--max-n", "2"],
    ["--json", "laws", "--max-n", "2"],
], ids=" ".join)
def test_verbose_leaves_stdout_unchanged(capsys, argv):
    quiet = run(capsys, argv)
    loud = run(capsys, argv + ["--verbose"])
    assert quiet[:2] == loud[:2] and quiet[2] == "" and "elapsed" in loud[2]
    if "search" in argv:
        # search adds its scan and render times, and the hits and examined it reports
        if "--json" in argv:
            report = json.loads(quiet[1])
            hits, examined = len(report["hits"]), report["examined"]
        else:
            hits = int(re.search(r"^hits = (\d+)$", quiet[1], re.M)[1])
            examined = int(re.search(r"^examined = (\d+) /", quiet[1], re.M)[1])
        assert re.match(rf"scan: \d+\.\d{{3}}s examined={examined} hits={hits}\n"
                        r"render: \d+\.\d{3}s\nelapsed: ", loud[2])


# The CLI's former per-hit rendering, the oracle for the streamed search
# report (_write_hits): every hit's text lines and JSON object, from
# partition_json and table_json each time.
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


def _per_hit_stdout(spec: SearchSpec, as_json: bool) -> str:
    """What `search` prints for spec, built hit by hit by the oracle from the
    library's hits at jobs=1."""
    outcome = search(spec)
    text, objects = _per_hit_render(outcome.hits)
    if as_json:
        report = {"kind": "search", "universe_size": spec.universe_size,
                  "carrier_size": spec.carrier_size,
                  "requirements": [list(r) for r in spec.law_constraints],
                  "limit": spec.limit, "budget": spec.budget, "hits": objects,
                  "examined": outcome.examined, "total": outcome.total,
                  "limit_reached": outcome.limit_reached,
                  "budget_exhausted": outcome.budget_exhausted}
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    text += [f"hits = {len(outcome.hits)}", f"examined = {outcome.examined} / {outcome.total}",
             f"limit_reached = {str(outcome.limit_reached).lower()}",
             f"budget_exhausted = {str(outcome.budget_exhausted).lower()}"]
    return "".join(line + "\n" for line in text)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("spec, jobs", [
    # indeterminate cells, which the CLI cannot ask for: its SearchSpec is patched
    (SearchSpec(3, 2, True, (("C4", "AllFalse"),), **FULL_SCAN), 1),
    (SearchSpec(3, 3, law_constraints=(("C4", "AllFalse"),), limit=1), 1),
    (SearchSpec(2, 2, law_constraints=(("C1", "AllTrue"), ("C1", "AllFalse")), **FULL_SCAN), 1),
    (SearchSpec(3, 2, law_constraints=(("C4", "AllFalse"),), **FULL_SCAN), 2),
    # 19,310 hits
    (SearchSpec(3, 3, law_constraints=(("C4", "AllFalse"),), **FULL_SCAN), 1),
], ids=["indeterminate", "limit-1", "no-hits", "jobs-2", "many-hits"])
def test_search_stdout_matches_per_hit_render(capsys, monkeypatch, spec, jobs, as_json):
    from roughalg import cli

    monkeypatch.setattr(cli, "SearchSpec", functools.partial(SearchSpec, allow_indet=spec.allow_indet))
    argv = ["--jobs", str(jobs)] + ["--json"] * as_json + [
        "search", "--universe-size", str(spec.universe_size),
        "--carrier-size", str(spec.carrier_size),
        "--limit", str(spec.limit), "--budget", str(spec.budget)]
    for law, status in spec.law_constraints:
        argv += ["--require", f"{law}={status}"]
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "") and out == _per_hit_stdout(spec, as_json)
    assert ("?" in out) == spec.allow_indet
    if as_json and len(out) < 2**20:  # jsonschema takes about 3.6 s on the 9.7 MB many-hit report
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)


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
    written = []
    for as_json in (False, True):
        out = io.StringIO()
        _write_hits(out, outcome.hits, as_json)
        written.append(out.getvalue())
    assert written[0] == "".join(line + "\n" for line in text)
    # the hits array of an indented report, between its brackets
    array = '{\n  "hits": [' + written[1] + ("\n  ]" if objects else "]") + "\n}"
    assert array == json.dumps({"hits": objects}, indent=2, sort_keys=True)
    assert ("?" in written[1]) == spec.allow_indet


# The unconstrained n = 3, k = 3 scan: 98,415 hits and 49 MB of --json
# stdout.  This digest was recorded when each report was built in memory,
# which peaked at about 252 MB.
ALL_HITS_N3K3_JSON_SHA256 = "28f77ce67e1d53f796668e376ecd6d0e07de1d7a3b2bece8bba6c3759372da2d"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak from /proc")
def test_many_hit_json_search_streams_in_bounded_memory(tmp_path):
    # A fresh interpreter writes the report to a file and reports its own peak
    # resident set, VmHWM in KiB.  Not ru_maxrss: Linux carries the peak of the
    # forking process (here pytest, about 80 MB) across exec into it.
    src = str(Path(roughalg.__file__).resolve().parents[1])
    code = ("import sys; from roughalg.cli import main; rc = main(sys.argv[1:]); sys.stdout.flush(); "
            "print(rc, *(line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')), file=sys.stderr)")
    argv = ["--json", "search", "--universe-size", "3", "--carrier-size", "3",
            "--limit", "1000000", "--budget", "1000000"]
    out = tmp_path / "search.json"
    with out.open("wb") as fh:
        done = subprocess.run([sys.executable, "-c", code, *argv], stdout=fh, stderr=subprocess.PIPE,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    rc, peak_kib = map(int, done.stderr.split())
    assert rc == 0 and peak_kib < 48 * 1024
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ALL_HITS_N3K3_JSON_SHA256


def test_closed_stdout_exits_1_quietly():
    # a reader that stops early, as `| head` does, ends a streamed search
    # report with exit 1 and nothing on stderr, not an internal error
    src = str(Path(roughalg.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "roughalg.cli", "search", "--universe-size", "3",
                             "--carrier-size", "3", "--limit", "1000000", "--budget", "1000000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline() == b"hit (index 0):\n"
    proc.stdout.close()
    assert (proc.wait(timeout=60), proc.stderr.read()) == (1, b"")
    proc.stderr.close()


def test_rough_kind_needs_spaces(capsys, morph_ras):
    rc, _, err = run(capsys, ["check", "morphism", morph_ras, "--map", "ID",
                              "--kind", "rough-hom", "--table-a", "Z2", "--table-b", "Z2"])
    assert rc == 2 and "--space-a" in err


def test_repo_fixture_file_in_sync():
    path = Path(__file__).resolve().parent.parent / "fixtures" / "example31.ras"
    assert path.read_text(encoding="utf-8") == EXAMPLE31_RAS

"""roughalg benchmark: end-to-end workloads, per-layer micro-runs, traced runs.

    python3 bench/run.py --workload laws-sweep --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 0

Run from the repository root (the program is read from ./src).  With
--trace 0 the run measures the workload untraced and prints the end-to-end
metrics; with --trace 1 it runs the per-layer micro-runs, one untraced pass
and one traced pass, and prints the per-layer metrics.  Either way the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
A full record (environment, input properties, details, trace table and
spans) goes to bench/results/.  See bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
DEADLINE_S = 170  # every run must end within 180 s


def _child(args: list[str], cwd: Path, timeout: float) -> subprocess.CompletedProcess:
    """Run child.py in its own session; on timeout kill it with any pool workers it forked.

    Children may write bytecode, as an installed copy has it, so setup_s
    measures imports rather than compiling.
    """
    cmd = [sys.executable, str(BENCH / "child.py")] + args
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _child_json(mode: str, spec: dict, work: Path, timeout: float) -> dict:
    spec_path, result_path = work / f"{mode}-spec.json", work / f"{mode}-result.json"
    spec_path.write_text(json.dumps(spec))
    proc = _child([mode, str(spec_path), str(result_path)], work, timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(result_path.read_text())


def measure_setup(work: Path) -> list[float]:
    """Import roughalg.cli and build the parser, each time in a fresh interpreter.

    The first start is not timed: it writes the bytecode.
    """
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = _child(["setup", str(SRC)], work, 60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child exited {proc.returncode}: {proc.stderr[-3000:]}")
        if i:
            samples.append(float(proc.stdout.strip()))
    return samples


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it, if it is p90 or more."""
    pct = (100 * (n - 10)) // n
    return pct if pct >= 90 else None


def nearest_rank(values: list[float], pct: int) -> float:
    s = sorted(values)
    return s[-(-pct * len(s) // 100) - 1]


# verification


def load_goldens() -> dict[str, str]:
    return json.loads((BENCH / "goldens.json").read_text())


def verify(wl: workloads.Workload, res: dict, goldens: dict[str, str]) -> dict[int, str]:
    """Problem message by command index, for each command whose exit code or output is wrong."""
    problems = {}
    for i, cmd in enumerate(wl.commands):
        argv = cmd.argv
        if any(rc != 0 for rc in res["rcs"][i]):
            msg = f"exit codes {sorted(set(res['rcs'][i]))}: {res['stderr'][i].strip()[-300:]}"
        elif len(res["digests"][i]) != 1:
            msg = "output differs between passes"
        elif cmd.golden is not None:
            want = goldens.get(cmd.golden)
            if want is None:
                msg = "no golden digest recorded"
            elif res["digests"][i][0] != want:
                msg = "output differs from the golden digest"
            else:
                msg = oracle.check_summary(argv, res["summaries"][i])
        else:
            model = wl.models[cmd.check[0]]
            msg = oracle.check_scenario_output(model, cmd.check[1:], argv, res["first"][i])
        if msg:
            problems[i] = f"{' '.join(argv)}: {msg}"
    return problems


def tally(runs: list[tuple[dict, dict[int, str]]]) -> tuple[int, int, list[str]]:
    """attempted, failed and problem messages over (result, problems) pairs."""
    attempted = sum(len(rcs) for res, _ in runs for rcs in res["rcs"])
    failed = sum(len(res["rcs"][i]) for res, problems in runs for i in problems)
    return attempted, failed, [msg for _, problems in runs for msg in problems.values()]


# metrics


def end_to_end(wl: workloads.Workload, res: dict, setup: list[float]) -> tuple[dict, dict]:
    instances = inst_time = examined = exam_time = 0.0
    hits = 0
    for i, cmd in enumerate(wl.commands):
        s = res["summaries"][i] or {}
        reps, busy = len(res["times"][i]), sum(res["times"][i])
        if "suites" in s:
            instances += reps * sum(x[2] for x in s["suites"])
            inst_time += busy
        if "examined" in s:
            examined += reps * s["examined"]
            hits += reps * s["hits"]
            exam_time += busy
    main = [[t * 1e3 for t in ts] for cmd, ts in zip(wl.commands, res["times"])
            if not cmd.ride_along]
    cmd_ms = [t for ts in main for t in ts]
    tail_pct = tail_percentile(len(cmd_ms))
    if tail_pct is not None:
        tail_ms = nearest_rank(cmd_ms, tail_pct)
        tail_rule = f"p{tail_pct} of {len(cmd_ms)} commands"
    else:
        # Fewer than 100 samples: the slowest command of each pass, mean over passes.
        passes = len(res["pass_walls"])
        tail_ms = statistics.mean(max(ts[p] for ts in main) for p in range(passes))
        tail_rule = (f"slowest of {len(main)} commands per pass, mean over {passes} passes "
                     f"({len(cmd_ms)} commands)")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        # The mean, not the median: pass times cluster around two machine speeds,
        # and a median flips between them from run to run.
        "wall_s": (statistics.mean(res["pass_walls"]), "s"),
        "instances_per_s": (instances / inst_time, "1/s"),
        "candidates_per_s": (examined / exam_time, "1/s"),
        "cmd_ms_p50": (statistics.median(cmd_ms), "ms"),
        "cmd_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (res["rss_kb"] / 1024, "MB"),
    }
    details = {
        "passes": len(res["pass_walls"]),
        "commands_per_pass": len(wl.commands),
        "ride_along_per_pass": sum(c.ride_along for c in wl.commands),
        "cmd_samples": len(cmd_ms),
        "cmd_ms_tail_rule": tail_rule,
        "cmd_s": [[round(t, 6) for t in ts] for ts in res["times"]],
        "pass_walls": res["pass_walls"],
        "setup_samples": len(setup),
        "instances": instances,
        "candidates": examined,
        "search_hit_rate": hits / examined if examined else None,
    }
    return metrics, details


def per_layer(micro: dict, traced: dict, untraced: dict) -> tuple[dict, dict]:
    metrics = {f"layer.{k}": (v["value"], v["unit"]) for k, v in micro.items()}
    t = traced["trace"]
    selfs, counts = t["self_s"], t["counts"]
    for layer in ("scenario", "cli", "report", "approx", "algebra", "rough_structures",
                  "morphisms", "enumeration", "fixtures"):
        metrics[f"layer.{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
    metrics["layer.approx.approximate_calls"] = (counts.get("approx.approximate", 0), "count")
    metrics["layer.algebra.evaluate_law_calls"] = (counts.get("algebra.evaluate_law", 0), "count")
    overhead = sum(traced["pass_walls"]) - sum(untraced["pass_walls"])
    metrics["layer.trace.overhead_s"] = (overhead, "s")
    details = {
        "micro_samples": {k: v["samples"] for k, v in micro.items()},
        "micro_bases": {k: v["base"] for k, v in micro.items() if "base" in v},
        "traced_wall_s": t["wall_s"],
        "traced_pass_s": sum(traced["pass_walls"]),
        "untraced_pass_s": sum(untraced["pass_walls"]),
        "self_s": selfs,
        "self_sum_s": sum(selfs.values()),
        "calls": counts,
        "spans": t["spans"],
    }
    return metrics, details


def self_time_table(name: str, details: dict) -> list[str]:
    wall = details["traced_wall_s"]
    lines = [f"traced run, {name}: wall {wall:.3f} s, self times per layer "
             f"(sum {details['self_sum_s']:.3f} s)",
             f"  {'layer':<18}{'self_s':>10}{'share':>8}{'calls':>12}"]
    calls: dict[str, int] = {}
    for key, n in details["calls"].items():
        layer = key.split(".", 1)[0]
        if not key.endswith(".import"):
            calls[layer] = calls.get(layer, 0) + n
    for layer, s in sorted(details["self_s"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<18}{s:>10.3f}{s / wall:>8.1%}{calls.get(layer, 0):>12}")
    lines.append(f"  tracing overhead: {details['traced_pass_s'] - details['untraced_pass_s']:.3f} s "
                 f"(traced pass {details['traced_pass_s']:.3f} s, "
                 f"untraced pass {details['untraced_pass_s']:.3f} s)")
    return lines


# environment


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "roughalg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "loadavg_start": Path("/proc/loadavg").read_text().split()[:3],
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print its report and record; return the result object."""
    started = time.monotonic()
    env = environment()
    wl = workloads.build(name, seed)
    goldens = load_goldens()
    work = BENCH / ".work" / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for rel, text in wl.files.items():
            (work / rel).write_text(text)
        spec = {"src": str(SRC), "commands": [c.argv for c in wl.commands],
                "keep": [c.golden is None for c in wl.commands],
                "seconds": seconds, "max_passes": 1_000_000, "trace": False}

        def remaining() -> float:
            return DEADLINE_S - (time.monotonic() - started)

        if trace:
            micro = _child_json("micro", {"src": str(SRC), "seed": seed}, work, remaining())
            one = dict(spec, max_passes=1)
            untraced = _child_json("workload", one, work, remaining())
            # The traced pass runs serially: --jobs 1 replaces the workload's value.
            traced_cmds = [["--jobs", "1"] + workloads.golden_key(a).split(" ")
                           for a in spec["commands"]]
            traced = _child_json("workload", dict(one, commands=traced_cmds, trace=True),
                                 work, remaining())
            attempted, failed, problems = tally([(r, verify(wl, r, goldens))
                                                 for r in (untraced, traced)])
            metrics, details = per_layer(micro, traced, untraced)
            report = self_time_table(name, details)
        else:
            setup = measure_setup(work)
            res = _child_json("workload", spec, work, remaining())
            attempted, failed, problems = tally([(res, verify(wl, res, goldens))])
            metrics, details = end_to_end(wl, res, setup)
            report = [f"  cmd_ms_tail: {details['cmd_ms_tail_rule']}; {details['passes']} passes; "
                      f"setup_s: median of {details['setup_samples']} fresh interpreters"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work.parent.rmdir()

    env["loadavg_end"] = Path("/proc/loadavg").read_text().split()[:3]
    properties = dict(wl.properties)
    if details.get("search_hit_rate") is not None:
        properties["search_hit_rate"] = details["search_hit_rate"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "inputs": properties,
              "commands": [c.argv for c in wl.commands], "problems": problems,
              "details": details, "result": result}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"python {env['python']}  nproc {env['nproc']}  commit {env['commit'] or 'n/a'}  "
          f"loadavg {' '.join(env['loadavg_start'])} -> {' '.join(env['loadavg_end'])}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<52} {value:>16.6g} {unit}")
    for line in report:
        print(line)
    print(f"  failed_ops {failed / attempted:.6g} ratio ({failed} of {attempted} commands)")
    for p in problems:
        print(f"  FAILED {p}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "roughalg" / "cli.py").is_file():
        print(f"error: no roughalg sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    # Every workload in turn; the JSON line prefixes each metric with its workload.
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads.WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

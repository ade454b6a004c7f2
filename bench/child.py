"""One fresh interpreter per measurement; started by run.py, never by hand.

    child.py setup SRC                 time `import roughalg.cli` + build_parser()
    child.py workload SPEC RESULTS     run the pass loop (traced if SPEC says so)
    child.py micro SPEC RESULTS        per-layer micro-runs

The workload loop calls `roughalg.cli.main(argv)` with stdout and stderr
captured in memory, so rendering stays inside the measured time.
"""

import sys
import time

# Other imports stay inside the modes: setup must time every module that
# roughalg.cli pulls in, so none may be loaded before it starts its clock.


def setup(src: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from roughalg import cli
    cli.build_parser()
    elapsed = time.perf_counter() - t0
    print(repr(elapsed))


def _import_cli(src: str):
    sys.path.insert(0, src)
    import roughalg.cli
    if not roughalg.cli.__file__.startswith(src):
        raise SystemExit(f"imported roughalg from {roughalg.cli.__file__}, not {src}")
    return roughalg.cli


def workload(spec: dict) -> dict:
    import gc
    import hashlib
    import io
    import resource

    import oracle

    tracer = None
    start = time.perf_counter()
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_import_timer()
    cli = _import_cli(spec["src"])
    if tracer:
        tracer.patch()

    commands = spec["commands"]
    keep = spec["keep"]
    rcs = [[] for _ in commands]
    times = [[] for _ in commands]
    digests = [set() for _ in commands]
    first = [None] * len(commands)
    summaries = [None] * len(commands)
    errors = [""] * len(commands)
    pass_walls = []
    real_out, real_err = sys.stdout, sys.stderr
    loop_start = time.perf_counter()
    while True:
        pass_wall = 0.0
        for i, argv in enumerate(commands):
            gc.collect()  # start each command on a clean heap, as a fresh process would
            out, err = io.StringIO(), io.StringIO()
            sys.stdout, sys.stderr = out, err
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as e:  # argparse rejects bad argv this way
                rc = e.code if isinstance(e.code, int) else 2
            finally:
                dt = time.perf_counter() - t0
                sys.stdout, sys.stderr = real_out, real_err
            pass_wall += dt
            text = out.getvalue()
            rcs[i].append(rc)
            times[i].append(dt)
            digests[i].add(hashlib.sha256(text.encode()).hexdigest())
            if first[i] is None:
                summaries[i] = oracle.summarize(argv, text) if rc == 0 else {}
                first[i] = text if keep[i] else None
                errors[i] = err.getvalue()[-2000:]
        pass_walls.append(pass_wall)
        elapsed = time.perf_counter() - loop_start
        mean_pass = elapsed / len(pass_walls)
        if len(pass_walls) >= spec["max_passes"] or elapsed + mean_pass > spec["seconds"]:
            break

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "rcs": rcs, "times": times, "digests": [sorted(d) for d in digests],
        "first": first, "summaries": summaries, "stderr": errors,
        "pass_walls": pass_walls, "rss_kb": self_kb + children_kb,
    }
    if tracer:
        wall = time.perf_counter() - start
        selfs, counts = tracer.self_times()
        selfs["harness"] = wall - sum(c.busy for c in tracer.root.children.values())
        result["trace"] = {"wall_s": wall, "self_s": selfs, "counts": counts,
                           "spans": tracer.spans}
    return result


def main() -> None:
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2])
        return
    import json
    with open(sys.argv[2]) as fh:
        spec = json.load(fh)
    if mode == "workload":
        result = workload(spec)
    else:
        import micro
        _import_cli(spec["src"])
        result = micro.run(spec["seed"])
    with open(sys.argv[3], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

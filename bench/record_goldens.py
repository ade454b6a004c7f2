"""Record bench/goldens.json: the stdout digest of every fixed-argument command.

    python3 bench/record_goldens.py

Run from the repository root, at the commit whose output is the reference.
Commands run with --jobs 1; parallel runs must reproduce the same bytes.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    from roughalg import cli

    goldens = {}
    for cmd in workloads.fixed_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(cmd.argv)
        problem = oracle.check_summary(cmd.argv, oracle.summarize(cmd.argv, out.getvalue()))
        if rc != 0 or problem:
            print(f"refusing to record {cmd.golden}: exit {rc}, {problem}", file=sys.stderr)
            return 1
        goldens[cmd.golden] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(cmd.golden, flush=True)
    (BENCH / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

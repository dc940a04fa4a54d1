"""Self-check of the harness: two traced runs with one seed must agree exactly.

    python3 perfbench/selfcheck.py [--seed N]

Runs every workload twice, each time in a fresh interpreter with ``--trace 1``
on a truncated pass, and compares the deterministic counters, the failures
and the output digest of the two reports.  Exits 1 on any difference.  Takes
about half a minute.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Jobs per truncated pass; with the default seed the three variety jobs are
# the cheap Z2 -> GL(2) grevlex and lex and Z2 -> SL(2) lex bases.
MAX_JOBS = {"variety": 3, "words": 300, "cli_mix": 60}


def _deterministic_part(workload: str, seed: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", "1", "--max-jobs", str(MAX_JOBS[workload]),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload}: run failed\n{done.stdout[-3000:]}{done.stderr[-3000:]}")
    report = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    return {
        "digest": report["digest"],
        "failures_per_pass": report["failures_per_pass"],
        **report["counters"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    status = 0
    for workload in MAX_JOBS:
        first = _deterministic_part(workload, args.seed)
        second = _deterministic_part(workload, args.seed)
        differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        if differing:
            status = 1
            for key in differing:
                print(f"{workload}: {key} differs: {first.get(key)} vs {second.get(key)}")
        else:
            print(f"{workload}: {len(first)} counters and the digest agree ({first['digest'][:16]})")
    return status


if __name__ == "__main__":
    sys.exit(main())

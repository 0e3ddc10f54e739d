"""Check that per-layer counts repeat exactly between two traced runs.

    python3 bench/check_counts.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs `run.py --trace 1` twice per workload with the same seed, each in a
fresh process, and compares every count and ratio metric (units `count`
and `1`).  A run already fails when its own traced passes disagree; this
adds the check across processes.  Exits non-zero on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import NAMES

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(name, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{name}: traced run failed\n{proc.stderr}")
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "1")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*", default=list(NAMES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    status = 0
    for name in args.workloads:
        first = traced_counts(name, args.seed, args.seconds)
        second = traced_counts(name, args.seed, args.seconds)
        diff = sorted(k for k in first if first[k] != second.get(k))
        print(f"{name}: {len(first)} counts, "
              f"{'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}")
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())

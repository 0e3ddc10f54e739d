"""Rewrite the goldens under bench/goldens/ from the current program.

    python3 bench/regen_goldens.py [WORKLOAD ...]

Runs one pass of each workload at seed 0 and records its outputs in
canonical vertex labels, then runs one pass at seed 1 and refuses to write
unless the canonical outputs agree: the goldens must not depend on the
relabelling.  Regenerate only when the program's outputs are meant to
change, and review the diff.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import workloads  # noqa: E402
from clock import Clock  # noqa: E402


def observe(cls, seed):
    wl = cls(seed, golden=None)
    state = wl.setup()
    wl.verify(state, wl.run(state, Clock(calibrate=False)), workloads.Ops())
    return wl.observed


def main(names):
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    status = 0
    for name in names or workloads.WORKLOADS:
        cls = workloads.WORKLOADS[name]
        first, second = observe(cls, 0), observe(cls, 1)
        if first != second:
            bad = sorted(k for k in first if first[k] != second.get(k))
            print(f"{name}: outputs depend on the seed: {bad[:5]}",
                  file=sys.stderr)
            status = 1
            continue
        path = workloads.GOLDEN_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(first, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(first)} outputs -> {path.name}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

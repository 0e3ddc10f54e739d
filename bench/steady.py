"""Run-to-run spread of the benchmark's metrics.

    python3 bench/steady.py --seeds 1-10 [--workloads a,b] [--seconds S]
                            [--trace 0|1] [--out FILE]

Runs bench/run.py once per seed and workload, one run at a time, and
prints for each metric the median of the runs and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median.  With --out, the runs and the summary are written as
JSON.  Exits non-zero when any run fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: BENCHMARK.json's")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads \
        else [w["name"] for w in spec["workloads"]]
    report = {}
    ok = True
    for name in names:
        runs = []
        for seed in seeds_of(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace",
                 str(args.trace)], capture_output=True, text=True,
                timeout=900)
            took = time.perf_counter() - t0
            last = (proc.stdout.strip().splitlines() or ["{}"])[-1]
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{name} seed {seed}: FAILED (exit "
                      f"{proc.returncode})\n{proc.stderr[-2000:]}")
                continue
            values = {k: m["value"] for k, m in result["metrics"].items()}
            header = [x for x in proc.stdout.splitlines()
                      if x.startswith("# ")]
            runs.append({"seed": seed, "run_s": took,
                         "passes": header[0][2:] if header else "",
                         "metrics": values})
            print(f"{name} seed {seed}: {took:.1f} s  " + "  ".join(
                f"{k}={v:.4g}" for k, v in values.items()), flush=True)
        report[name] = {"runs": runs}
        if len(runs) < 2:
            continue
        summary = {k: summarize([r["metrics"][k] for r in runs])
                   for k in runs[0]["metrics"]}
        for k, s in summary.items():
            print(f"  {name:<14} {k:<14} median {s['median']:.6g}  "
                  f"spread {s['spread']:.3f}")
        report[name]["summary"] = summary
    if args.out:
        numpy = subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            capture_output=True, text=True).stdout.strip()
        machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
                   "numpy": numpy, "platform": platform.platform()}
        Path(args.out).write_text(json.dumps(
            {"machine": machine, "run_seconds": seconds, "trace": args.trace,
             "workloads": report}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

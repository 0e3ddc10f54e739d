"""Benchmark runner for tauseq.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all     # every workload, one child each

A run makes a fixed number of *passes* of one workload, set by --seconds
and the workload's typical pass time (see workloads.py): each pass sets up
from cold state, runs the timed phase, then checks every output.  With
--trace 0 the run reports the end-to-end metrics, timed in reference
seconds (clock.py); with --trace 1 passes alternate between the per-layer
tracer (layertrace.py) and no tracer, and the run reports the per-layer
metrics of the traced passes.  Traced passes must repeat their counts
exactly.

Human-readable lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only when
every output was correct.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
NAMES = ("enumerate", "psi-roundtrip", "cli-session", "large-point")
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]


IMPORT_TRIES = 5
IMPORT_CHILD = """
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = sys.argv[1:3]
import numpy
from tauseq import (algebra, cli, complexes, linalg, modules, reduction,
                    sequences, tautilt)
wall = time.perf_counter() - t0
import clock
print(wall, wall * clock.Clock().speed)
"""


def import_ref_s():
    """Reference seconds to import numpy and tauseq: the median over
    IMPORT_TRIES fresh child processes, each calibrated by its own probe."""
    refs = []
    for _ in range(IMPORT_TRIES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CHILD, str(BENCH_DIR),
             str(REPO_ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120)
        refs.append(float(proc.stdout.split()[1]))
    return statistics.median(refs)


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Pass:
    """One setup and one timed phase: (wall, reference) seconds of each,
    per-operation latencies, and the tracer's report of a traced pass."""

    def __init__(self, setup, run, ops, layers=None):
        self.setup = setup
        self.run = run
        self.ops = ops
        self.layers = layers

    @property
    def total_s(self):
        return self.setup[0] + self.run[0]


def run_pass(wl, calibrate, tracer=None):
    from clock import Clock
    from workloads import Ops

    ops = Ops()
    with Clock(calibrate) as clock, tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        clock.restart()
        state = wl.setup()
        setup = clock.lap()
        w0, r0 = clock.total()
        done = wl.run(state, clock)
        w1, r1 = clock.total()
        t1 = time.perf_counter()
    wl.verify(state, done, ops)
    layers = tracer.report(t1 - t0) if tracer is not None else None
    return Pass(setup, (w1 - w0, r1 - r0), ops, layers)


def run_workload(name, seed, seconds, trace):
    """All passes of one workload; returns (correct, attempted, failed,
    metrics, units)."""
    import layertrace
    import workloads

    cls = workloads.WORKLOADS[name]
    wl = cls(seed, workloads.load_golden(name))
    # The number of passes depends only on --seconds and the workload, so
    # that both sides of a comparison make the same number of tries.
    n_passes = max(4 if trace else 3, round(seconds / cls.pass_s))
    passes = []
    last_tracer = None
    for i in range(n_passes):
        tracer = layertrace.Tracer() if trace and i % 2 == 0 else None
        passes.append(run_pass(wl, not trace, tracer))
        last_tracer = tracer or last_tracer

    attempted = sum(p.ops.attempted for p in passes)
    failed = sum(p.ops.failed for p in passes)
    problems = [w for p in passes for w in p.ops.problems]
    if trace:
        traced = [p for p in passes if p.layers is not None]
        untraced = [p for p in passes if p.layers is None]
        units = dict(layertrace.metric_units())
        exact = [{k: v for k, v in p.layers.items()
                  if units[k] in ("count", "1")} for p in traced]
        if any(e != exact[0] for e in exact):
            failed += 1
            problems.append("per-layer counts differ between traced passes")
        overhead = (statistics.median(p.total_s for p in traced) -
                    statistics.median(p.total_s for p in untraced))
        metrics = {k: exact[0][k] if k in exact[0] else
                   overhead if k == "trace.overhead_s" else
                   statistics.median(p.layers[k] for p in traced)
                   for k in units}
        (BENCH_DIR / "out").mkdir(exist_ok=True)
        last_tracer.save(BENCH_DIR / "out" / f"spans-{name}.npz")
    else:
        units = dict(END_TO_END)
        # Every time in reference seconds (clock.py), each the median over
        # the passes: an operation's median over its tries, then the
        # median and tail of those over the operations.
        lat = [statistics.median(p.ops.latency[key][1] for p in passes)
               for key in passes[0].ops.latency]
        metrics = {
            "setup_s": import_ref_s() +
            statistics.median(p.setup[1] for p in passes),
            "wall_s": statistics.median(p.run[1] for p in passes),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * percentile(lat, cls.tail_pct),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    for what in problems[:10]:
        print(f"FAILED {name}: {what}", file=sys.stderr)
    print(f"# {name} seed={seed} passes={len(passes)} "
          f"pass_s={statistics.median(p.total_s for p in passes):.2f} "
          f"op_keys={len(passes[0].ops.latency)} tail=p{cls.tail_pct} "
          f"attempted={attempted} failed={failed}")
    return failed == 0, attempted, failed, metrics, units


def print_metrics(metrics, units, attempted, failed):
    for k, v in metrics.items():
        print(f"{k:<40} {v:>14.6f} {units[k]}")
    print(f"{'fail_ratio':<40} {failed / attempted:>14.6f} 1")


def run_all(args):
    """Each workload in a child process of its own, so that peak RSS is
    per workload; prints every metric and fails if any workload did."""
    ok = True
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            ok = False
            print(f"# {name}: exit code {proc.returncode}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (REPO_ROOT / "src" / "tauseq" / "__init__.py").is_file():
        print(f"error: no tauseq sources under {REPO_ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(BENCH_DIR), str(REPO_ROOT / "src")]
    correct, attempted, failed, metrics, units = run_workload(
        args.workload, args.seed, args.seconds, args.trace)
    print_metrics(metrics, units, attempted, failed)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

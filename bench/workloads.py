"""The four benchmark workloads.

A workload is built from a seed and offers `setup()` (make the inputs
ready), `run(state, clock)` (the timed phase, each operation timed with
clock.Clock.lap) and `verify(state, done, ops)`
(the output checks, kept out of the timing).  One *pass* is one setup
followed by one timed phase, always from cold program state, so every pass
does the same work and passes can be repeated to fill a run.

Outputs are checked against goldens under `goldens/`.  The goldens are
written in canonical vertex labels, so one golden file serves every seed:
each workload maps the program's outputs back through the seed's relabelling
before it compares them.  `regen_goldens.py` rewrites the files.
"""

import contextlib
import io
import json
import math
import random
import re
from pathlib import Path

import gen
from tauseq import cli, complexes, sequences, tautilt
from tauseq.algebra import parse_algebra
from tauseq.modules import parse_modules
from tauseq.reduction import root_context

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "goldens"

_DIMS_NAME = re.compile(r"M\((\d+(?:,\d+)*)\)")


class Ops:
    """Latency by operation key, and pass/fail tallies, of one pass.

    A latency is a (wall seconds, reference seconds) pair from
    clock.Clock.lap.  Keys name the same operation in every pass of a run,
    so that a run can compare each operation across its passes.
    """

    def __init__(self):
        self.latency = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, key, lat, ok, what):
        """Record one checked operation; key None records a check that
        is not a timed operation."""
        if key is not None:
            self.latency[key] = lat
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what not in self.problems and len(self.problems) < 5:
                self.problems.append(what)


@contextlib.contextmanager
def time_calls(module, attr, clock, sink):
    """Append the clock's lap of every call of module.attr to sink."""
    orig = getattr(module, attr)

    def timed(*args, **kw):
        clock.restart()
        try:
            return orig(*args, **kw)
        finally:
            sink.append(clock.lap())

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, orig)


def attempt(fn, *args):
    """fn(*args), or the exception it raised: a failing operation is
    counted against fail_ratio instead of ending the run."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any error fails the op
        return exc


def canon_dims(spec, dims):
    """Dimension vector listed in the spec's vertex order -> canonical
    order, as a comma-separated string."""
    pos = {v: i for i, v in enumerate(spec.vertices)}
    return ",".join(str(dims[pos[v]]) for v in spec.canonical_order())


def canon_name(spec, name):
    """A registry display name (P<v>, S<v>, I<v>, M(dims), optionally with
    [1]) rewritten in canonical vertex labels."""
    shift = name.endswith("[1]")
    base = name[:-3] if shift else name
    hit = _DIMS_NAME.fullmatch(base)
    if hit:
        dims = [int(x) for x in hit.group(1).split(",")]
        base = f"M({canon_dims(spec, dims)})"
    elif base[:1] in ("P", "S", "I") and base[1:] in spec.vmap.values():
        base = base[0] + spec.to_canonical(base[1:])
    return base + ("[1]" if shift else "")


def load_golden(name):
    path = GOLDEN_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Shared plumbing: golden lookup and recording of observed outputs."""

    name = None
    tail_pct = None  # op_tail_ms percentile; >= 10 op keys lie beyond it
    pass_s = None  # typical wall seconds of one pass, probes included, on
    # a 2-core x86-64 host in its fast spells

    def __init__(self, seed, golden):
        self.golden = golden
        self.observed = {}
        self.order_rng_seed = f"order:{self.name}:{seed}"

    def check(self, key, value):
        """Record an output; True when it matches the golden."""
        self.observed[key] = value
        return self.golden is not None and self.golden.get(key) == value

    def shuffled(self, items):
        items = list(items)
        random.Random(self.order_rng_seed).shuffle(items)
        return items


class Enumerate(Workload):
    """Cold enumeration of support tau-tilting objects (root_context)."""

    name = "enumerate"
    tail_pct = 90
    pass_s = 3.5
    cases = {"A3": (3, False), "rad2-A4": (4, True)}

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        self.specs = {k: gen.relabel(gen.linear_a(n, rad2), seed)
                      for k, (n, rad2) in self.cases.items()}
        self.texts = {k: gen.alg_text(s) for k, s in self.specs.items()}
        self.order = self.shuffled(self.cases)

    def setup(self):
        return {k: parse_algebra(self.texts[k])[1] for k in self.order}

    def run(self, algs, clock):
        done = []
        for key in self.order:
            lat = []
            with time_calls(tautilt, "mutate", clock, lat):
                root = attempt(root_context, algs[key])
            done.append((key, root, lat))
        return done

    def verify(self, algs, done, ops):
        for key, root, lat in done:
            ok = not isinstance(root, Exception) and self.check(
                key, sorted(sorted(self._item(key, root, it) for it in obj)
                            for obj in root.stt_objects))
            # a wrong object set fails every mutation that produced it
            for i, seconds in enumerate(lat or [(0.0, 0.0)]):
                ops.add((key, i), seconds, ok,
                        f"{key}: object set differs from golden")

    def _item(self, key, root, item):
        kind, val = item
        m = root.registry.module(val) if kind == "m" \
            else complexes.proj_list(root.gamma)[val]
        dims = canon_dims(self.specs[key], m.vertex_dims())
        return dims + ("[1]" if kind == "p" else "")


class PsiRoundtrip(Workload):
    """psi then phi over every ordered object, from freshly built roots."""

    name = "psi-roundtrip"
    tail_pct = 95
    pass_s = 6.5
    # (algebra, lengths of the ordered objects)
    cases = {"ex3": (gen.ex3, (1, 2, 3)),
             "rad2-A3": (lambda: gen.linear_a(3, rad2=True), (3,))}

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        self.specs = {k: gen.relabel(make(), seed)
                      for k, (make, _) in self.cases.items()}
        self.texts = {k: gen.alg_text(s) for k, s in self.specs.items()}

    def setup(self):
        return {k: root_context(parse_algebra(self.texts[k])[1])
                for k in self.cases}

    def run(self, roots, clock):
        todo = []
        for key, (_, lengths) in self.cases.items():
            for t in lengths:
                todo.extend((key, tup) for tup in
                            sequences.enumerate_ordered(roots[key], t))
        done = []
        for key, tup in self.shuffled(todo):
            root = roots[key]
            clock.restart()
            seq = attempt(sequences.psi, root, tup)
            back = seq if isinstance(seq, Exception) \
                else attempt(sequences.phi, root, seq.root_pairs())
            done.append((key, tup, seq, back, clock.lap()))
        return done

    def verify(self, roots, done, ops):
        for key, root in roots.items():
            n = root.gamma.idempotents.shape[0]
            got = len(sequences.enumerate_ordered(root, n))
            want = math.factorial(n) * len(root.stt_objects)
            ops.add(None, 0.0, got == want,
                    f"{key}: {got} full-length objects, want {want}")
        for key, tup, seq, back, lat in done:
            reg = roots[key].registry
            spec = self.specs[key]
            obj = ",".join(canon_name(spec, reg.display_item(i)) for i in tup)
            ok = back == tuple(tup) and self.check(
                f"{key}:{obj}",
                ",".join(canon_name(spec, x) for x in seq.names(reg)))
            ops.add((key, tup), lat, ok, f"{key}: psi/phi of {obj}")


class CliSession(Workload):
    """A fixed script of in-process CLI calls on the bundled examples."""

    name = "cli-session"
    tail_pct = 70
    pass_s = 5.5
    fx = "{fixtures}"
    script = [
        ["info", "--algebra", f"{fx}/ex1.alg"],
        ["info", "--algebra", f"{fx}/ex1.alg", "--format", "json"],
        ["tau", "--algebra", f"{fx}/ex1.alg", "--fixtures", f"{fx}/ex1.mods",
         "--module", "S1"],
        ["indec-tau-rigid", "--algebra", f"{fx}/ex1.alg"],
        ["st-pairs", "--algebra", f"{fx}/ex1.alg", "--fixtures",
         f"{fx}/ex1.mods"],
        ["st-pairs", "--algebra", f"{fx}/ex1.alg", "--ordered", "--format",
         "tsv"],
        ["bongartz", "--algebra", f"{fx}/ex1.alg", "--fixtures",
         f"{fx}/ex1.mods", "--module", "P2"],
        ["cobongartz", "--algebra", f"{fx}/ex1.alg", "--fixtures",
         f"{fx}/ex1.mods", "--module", "S1", "--format", "json"],
        ["correspond", "--algebra", f"{fx}/ex1.alg", "--fixtures",
         f"{fx}/ex1.mods", "--module", "P1"],
        ["reduce", "--algebra", f"{fx}/ex1.alg", "--fixtures",
         f"{fx}/ex1.mods", "--object", "P1"],
        ["psi", "--algebra", f"{fx}/ex1.alg", "--fixtures", f"{fx}/ex1.mods",
         "--object", "S1,P1"],
        ["phi", "--algebra", f"{fx}/ex1.alg", "--fixtures", f"{fx}/ex1.mods",
         "--sequence", "S1,P2", "--format", "json"],
        ["count", "--algebra", f"{fx}/ex1.alg", "--length", "2"],
        ["paper-example", "1"],
        ["paper-example", "1", "--format", "json"],
        ["info", "--algebra", f"{fx}/ex2.alg", "--format", "tsv"],
        ["tau", "--algebra", f"{fx}/ex2.alg", "--fixtures", f"{fx}/ex2.mods",
         "--module", "S1"],
        ["tau", "--algebra", f"{fx}/ex2.alg", "--fixtures", f"{fx}/ex2.mods",
         "--module", "I1", "--format", "json"],
        ["indec-tau-rigid", "--algebra", f"{fx}/ex2.alg", "--fixtures",
         f"{fx}/ex2.mods", "--format", "json"],
        ["st-pairs", "--algebra", f"{fx}/ex2.alg", "--length", "1"],
        ["bongartz", "--algebra", f"{fx}/ex2.alg", "--fixtures",
         f"{fx}/ex2.mods", "--module", "S1"],
        ["bongartz", "--algebra", f"{fx}/ex2.alg", "--fixtures",
         f"{fx}/ex2.mods", "--module", "I1"],
        ["cobongartz", "--algebra", f"{fx}/ex2.alg", "--fixtures",
         f"{fx}/ex2.mods", "--module", "S2", "--format", "tsv"],
        ["correspond", "--algebra", f"{fx}/ex2.alg", "--fixtures",
         f"{fx}/ex2.mods", "--module", "P1", "--format", "json"],
        ["reduce", "--algebra", f"{fx}/ex2.alg", "--fixtures",
         f"{fx}/ex2.mods", "--object", "P2[1]"],
        ["psi", "--algebra", f"{fx}/ex2.alg", "--fixtures", f"{fx}/ex2.mods",
         "--object", "P1,S1", "--format", "tsv"],
        ["phi", "--algebra", f"{fx}/ex2.alg", "--fixtures", f"{fx}/ex2.mods",
         "--sequence", "S2[1],P1"],
        ["count", "--algebra", f"{fx}/ex2.alg", "--fixtures",
         f"{fx}/ex2.mods", "--length", "2", "--last", "P1"],
        ["paper-example", "2", "--format", "tsv"],
        ["tau", "--algebra", f"{fx}/ex2.alg", "--fixtures", f"{fx}/ex2.mods",
         "--module", "Q9"],
        ["info", "--algebra", f"{fx}/missing.alg"],
        ["paper-example", "1", "--cap", "2"],
        ["info", "--algebra", f"{fx}/ex3.alg", "--format", "json"],
        ["tau", "--algebra", f"{fx}/ex3.alg", "--fixtures", f"{fx}/ex3.mods",
         "--module", "N", "--format", "tsv"],
        ["tau", "--algebra", f"{fx}/ex3.alg", "--fixtures", f"{fx}/ex3.mods",
         "--module", "I2"],
        ["paper-example", "3"],
        ["bongartz", "--algebra", f"{fx}/ex3.alg", "--fixtures",
         f"{fx}/ex3.mods", "--module", "M", "--format", "json"],
    ]

    def setup(self):
        fixtures = REPO_ROOT / "fixtures"
        for stem in ("ex1", "ex2", "ex3"):
            for ext in (".alg", ".mods"):
                if not (fixtures / (stem + ext)).is_file():
                    raise FileNotFoundError(fixtures / (stem + ext))
        return [(i, [a.replace(self.fx, str(fixtures)) for a in argv])
                for i, argv in enumerate(self.script)]

    def run(self, calls, clock):
        done = []
        for i, argv in self.shuffled(calls):
            out, err = io.StringIO(), io.StringIO()
            clock.restart()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = attempt(cli.main, argv)
            lat = clock.lap()
            done.append((i, code, out.getvalue(), lat))
        return done

    def verify(self, calls, done, ops):
        for i, code, stdout, lat in done:
            ok = self.check(str(i), {"exit": code, "stdout": stdout})
            ops.add(i, lat, ok, f"call {i}: {' '.join(self.script[i])}")


class LargePoint(Workload):
    """tau of every interval module of linear A10 on one Workspace."""

    name = "large-point"
    tail_pct = 80
    pass_s = 5.5
    n = 10

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        self.spec = gen.relabel(gen.linear_a(self.n), seed)
        self.alg_text = gen.alg_text(self.spec)
        self.order = self.shuffled(gen.intervals(self.n))
        self.mods_text = gen.interval_mods_text(self.spec, self.n, self.order)

    def setup(self):
        qp, alg = parse_algebra(self.alg_text)
        mods = parse_modules(self.mods_text, qp, alg)
        return cli.Workspace(qp, alg, mods, cap=10000)

    def run(self, ws, clock):
        done = []
        for i, j in self.order:
            name = gen.interval_name(i, j)
            clock.restart()
            t = attempt(self._tau, ws, name)
            done.append((name, t, clock.lap()))
        return done

    @staticmethod
    def _tau(ws, name):
        t = complexes.tau(ws.resolve_module(name))
        return t, ws.module_name(t)

    def verify(self, ws, done, ops):
        for name, t, lat in done:
            ok = not isinstance(t, Exception) and self.check(
                name, {"dims": canon_dims(self.spec, t[0].vertex_dims()),
                       "name": t[1]})
            ops.add(name, lat, ok, f"tau({name})")


WORKLOADS = {w.name: w for w in (Enumerate, PsiRoundtrip, CliSession,
                                  LargePoint)}

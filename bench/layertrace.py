"""Per-layer tracing taken from outside the package.

`Tracer.install()` wraps the public entry points of each layer listed in
TARGETS.  A module-level function is replaced in every `tauseq.*` namespace
that bound it (with `from ... import` the caller holds its own reference, so
patching only the defining module would miss those calls); methods are
replaced on their class.  Each call records a span (name, start, end,
parent) in compact arrays held in memory; `report()` turns them into call
counts, self time and the ratios below, and `save()` writes the spans out.

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded, so spans nest properly and a
layer's self time is the time it was busy.
"""

import functools
import hashlib
import sys
import time
from array import array

import numpy as np

LAYERS = ("linalg", "algebra", "modules", "complexes", "tautilt",
          "reduction", "sequences", "cli")

# (module, attribute, class or None, span name)
TARGETS = [
    ("linalg", "rref", None, "linalg.rref"),
    ("algebra", "multiply", "StructAlgebra", "algebra.multiply"),
    ("algebra", "__init__", "StructAlgebra", "algebra.struct_init"),
    ("algebra", "algebra_from_matrices", None,
     "algebra.algebra_from_matrices"),
    ("algebra", "quotient_by_ideal", None, "algebra.quotient_by_ideal"),
    ("modules", "hom_basis", None, "modules.hom_basis"),
    ("modules", "is_iso", None, "modules.is_iso"),
    ("modules", "decompose_grouped", None, "modules.decompose_grouped"),
    ("modules", "end_algebra", None, "modules.end_algebra"),
    ("complexes", "tau", None, "complexes.tau"),
    ("complexes", "min_presentation", None, "complexes.min_presentation"),
    ("complexes", "__init__", "HomK", "complexes.HomK"),
    ("complexes", "entry_compose", None, "complexes.entry_compose"),
    ("complexes", "end_K", None, "complexes.end_K"),
    ("complexes", "min_right_approx_K", None, "complexes.min_right_approx_K"),
    ("complexes", "min_left_approx_K", None, "complexes.min_left_approx_K"),
    ("tautilt", "mutate", None, "tautilt.mutate"),
    ("tautilt", "find", "Registry", "tautilt.Registry.find"),
    ("tautilt", "bongartz", None, "tautilt.bongartz"),
    ("tautilt", "cobongartz", None, "tautilt.cobongartz"),
    ("reduction", "_build_context", None, "reduction.build_context"),
    ("reduction", "child", "WideContext", "reduction.child"),
    ("reduction", "transport", None, "reduction.transport"),
    ("reduction", "e_map", None, "reduction.e_map"),
    ("reduction", "e_inverse", None, "reduction.e_inverse"),
    ("sequences", "psi", None, "sequences.psi"),
    ("sequences", "phi", None, "sequences.phi"),
    ("cli", "main", None, "cli.main"),
    ("cli", "_emit", None, "cli.render"),
    ("cli", "_emit_line", None, "cli.render"),
    ("cli", "_render_table", None, "cli.render"),
    ("cli", "_render_tsv", None, "cli.render"),
]

SPAN_NAMES = sorted({t[3] for t in TARGETS})

# extra counters: (name, unit)
EXTRAS = [("linalg.rref.cells", "count"),
          ("modules.hom_basis.unknowns", "count"),
          ("complexes.tau.distinct_ratio", "1"),
          ("complexes.end_K.per_mutate", "1"),
          ("tautilt.mutate.left_fallback_ratio", "1"),
          ("reduction.child.hit_ratio", "1")]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_pct", "%")]
    out += EXTRAS
    out += [(f"{layer}.self_pct", "%") for layer in LAYERS]
    out += [("trace.pass_s", "s"), ("trace.overhead_s", "s")]
    return out


def _rref_cells(tracer, args, kw):
    tracer.cells += int(np.prod(np.shape(args[0])))


def _hom_unknowns(tracer, args, kw):
    tracer.unknowns += args[0].dim * args[1].dim


def _tau_input(tracer, args, kw):
    action = args[0].action
    tracer.tau_inputs.add(hashlib.blake2b(
        repr(action.shape).encode() + action.tobytes(),
        digest_size=16).digest())


_HOOKS = {"linalg.rref": _rref_cells, "modules.hom_basis": _hom_unknowns,
          "complexes.tau": _tau_input}


class Tracer:
    def __init__(self):
        self.name_ids = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.cells = 0
        self.unknowns = 0
        self.tau_inputs = set()
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        nid = self.name_ids[name]
        hook = _HOOKS.get(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kw):
            if hook is not None:
                hook(self, args, kw)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kw)
            finally:
                ends[i] = clock()
                stack.pop()

        return span

    def install(self):
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "tauseq" or k.startswith("tauseq.")]
        for modname, attr, cls, name in TARGETS:
            home = sys.modules[f"tauseq.{modname}"]
            if cls is not None:
                owner = getattr(home, cls)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(name, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def report(self, pass_s):
        """Per-layer metrics of the traced interval of pass_s seconds."""
        name = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64) -
               np.frombuffer(self.span_start, dtype=np.float64))
        k = len(SPAN_NAMES)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=self_time, minlength=k)

        def pct(seconds):
            return 100.0 * float(seconds) / pass_s

        out = {}
        for i, n in enumerate(SPAN_NAMES):
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.self_pct"] = pct(busy[i])
        ids = self.name_ids
        n_mut = int(calls[ids["tautilt.mutate"]])
        n_child = int(calls[ids["reduction.child"]])
        under_mutate = self._under(name, parent, ids["tautilt.mutate"])
        left = int(np.sum(under_mutate &
                          (name == ids["complexes.min_left_approx_K"])))
        endk = int(np.sum(under_mutate & (name == ids["complexes.end_K"])))
        n_tau = int(calls[ids["complexes.tau"]])
        out["linalg.rref.cells"] = self.cells
        out["modules.hom_basis.unknowns"] = self.unknowns
        out["complexes.tau.distinct_ratio"] = \
            len(self.tau_inputs) / n_tau if n_tau else 0.0
        out["complexes.end_K.per_mutate"] = endk / n_mut if n_mut else 0.0
        out["tautilt.mutate.left_fallback_ratio"] = \
            left / n_mut if n_mut else 0.0
        out["reduction.child.hit_ratio"] = \
            1.0 - calls[ids["reduction.build_context"]] / n_child \
            if n_child else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_pct"] = pct(sum(
                busy[i] for i, n in enumerate(SPAN_NAMES)
                if n.startswith(layer + ".")))
        out["trace.pass_s"] = pass_s
        return out

    @staticmethod
    def _under(name, parent, target):
        """Mask of spans with an ancestor span named target.  Parents are
        recorded before their children, so one forward sweep suffices."""
        flag = [False] * len(name)
        hit = (name == target).tolist()
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                flag[i] = flag[p] or hit[p]
        return np.array(flag, dtype=bool)

    def save(self, path):
        np.savez(
            path, names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))

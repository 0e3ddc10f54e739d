"""Command line front end.

Loads an algebra file (and optionally a named-module fixture file), runs one
computation per invocation, and renders the result as an aligned table, TSV,
or JSON.  Exit codes: 0 success, 1 unreadable/unparsable input, 2 domain
errors (bad names, invalid objects), 3 enumeration cap exceeded or out of
memory.
"""

import argparse
import functools
import json
import re
import sys
from importlib import resources

from . import complexes as cxs
from . import reduction as red
from . import sequences as seqs
from .algebra import algebra_invariants, parse_algebra
from .errors import DomainError, InputError, TauseqError
from .modules import parse_modules
from .tautilt import (Registry, bongartz, cobongartz,
                      complement_correspondence)

_DIMS_RE = re.compile(r"^(?:dim|M)\((\d+(?:,\d+)*)\)$")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the package errors."""

    def error(self, message):
        raise InputError(message)


class Workspace:
    """A loaded algebra, its fixtures, and the lazily built root context."""

    def __init__(self, qp, alg, fixtures, cap):
        self.qp = qp
        self.alg = alg
        self.fixtures = fixtures
        self.cap = cap
        self.registry = Registry(alg)
        for name, m in fixtures.items():
            self.registry.ensure(m, name=name)
        self._root = None

    @property
    def root(self):
        if self._root is None:
            self._root = red.root_context(self.alg, cap=self.cap,
                                          registry=self.registry)
        return self._root

    # -- name resolution -----------------------------------------------------

    def resolve_module(self, name):
        name = name.strip()
        if not name:
            raise InputError("empty module name")
        if name in self.fixtures:
            return self.fixtures[name]
        if name in (vertex := cxs.vertex_modules(self.alg)):
            return vertex[name]
        if name in self.registry.names:
            return self.registry.module(self.registry.names.index(name))
        self.root  # enumeration may add the name or the dims literal target
        if name in self.registry.names:
            return self.registry.module(self.registry.names.index(name))
        mt = _DIMS_RE.match(name)
        if mt:
            dims = tuple(int(x) for x in mt.group(1).split(","))
            hits = [i for i in range(len(self.registry))
                    if self.registry.module(i).vertex_dims() == dims]
            if len(hits) == 1:
                return self.registry.module(hits[0])
            raise DomainError(f"dimension vector {name} matches "
                              f"{len(hits)} registered modules")
        raise DomainError(f"unknown module name {name!r}")

    def resolve_entry(self, token):
        """NAME or NAME[1] -> (module, shift flag)."""
        token = token.strip()
        shift = token.endswith("[1]")
        base = token[:-3] if shift else token
        return self.resolve_module(base), shift

    def root_item(self, module, shift):
        if shift:
            return ("p", red._find_proj_vertex(self.alg, module))
        idx = self.root.registry.find(module)
        if idx is None:
            raise DomainError("module is not a registered indecomposable")
        return ("m", idx)

    def module_name(self, m):
        if m.dim == 0:
            return "0"
        return self.registry.name(self.registry.ensure(m))

    def entry_json(self, m, shift):
        return {"name": self.module_name(m),
                "dims": list(m.vertex_dims()),
                "shift": bool(shift)}

    def item_json(self, item):
        return self.entry_json(*self.registry.realize(item))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_table(headers, rows):
    grid = [list(headers)] + [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in grid) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(grid[0], widths)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for r in grid[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_tsv(headers, rows):
    lines = ["\t".join(headers)]
    lines.extend("\t".join(str(c) for c in r) for r in rows)
    return "\n".join(lines) + "\n"


def _emit(fmt, headers, rows, payload, preamble=None):
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    body = _render_tsv(headers, rows) if fmt == "tsv" \
        else _render_table(headers, rows)
    if preamble and fmt == "table":
        return preamble + "\n\n" + body
    return body


def _emit_line(fmt, text, payload):
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "tsv" and isinstance(text, (list, tuple)):
        return "\t".join(text) + "\n"
    if isinstance(text, (list, tuple)):
        text = ", ".join(text)
    return str(text) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_info(ws, args):
    qp = ws.qp
    n, dim, arrows = algebra_invariants(ws.alg)
    rows = [("field", qp.p),
            ("vertices", " ".join(qp.vertices)),
            ("arrows", " ".join(f"{a}:{s}->{t}" for a, s, t in qp.arrows)),
            ("relations", "; ".join(" ".join(r) for r in qp.relations)
             or "(none)"),
            ("dimension", dim),
            ("invariants", f"({n}, {dim}, {arrows})")]
    payload = {"p": qp.p, "vertices": list(qp.vertices),
               "arrows": [{"name": a, "source": s, "target": t}
                          for a, s, t in qp.arrows],
               "relations": [list(r) for r in qp.relations],
               "dim": dim, "arrow_count": arrows}
    return _emit(args.format, ("key", "value"), rows, payload)


def cmd_tau(ws, args):
    m = ws.resolve_module(args.module)
    t = cxs.tau(m)
    rows = [(ws.module_name(m), ws.module_name(t),
             ",".join(str(d) for d in t.vertex_dims()))]
    payload = {"module": ws.entry_json(m, False),
               "tau": ws.entry_json(t, False)}
    return _emit(args.format, ("module", "tau", "tau dims"), rows, payload)


def cmd_indec_tau_rigid(ws, args):
    root = ws.root
    reg = root.registry
    rows = []
    payload = []
    for item in root.level_items:
        m, shift = reg.realize(item)
        rows.append((reg.display_item(item),
                     "shifted projective" if shift else "module",
                     ",".join(str(d) for d in m.vertex_dims())))
        payload.append(ws.entry_json(m, shift))
    return _emit(args.format, ("object", "kind", "dims"), rows, payload)


def cmd_st_pairs(ws, args):
    root = ws.root
    n = ws.alg.idempotents.shape[0]
    t = args.length if args.length is not None else n
    enum = seqs.enumerate_ordered if args.ordered else seqs.enumerate_unordered
    tuples = enum(root, t)
    reg = root.registry
    rows = [(",".join(reg.display_item(i) for i in tup),) for tup in tuples]
    payload = {"length": t, "ordered": bool(args.ordered),
               "total": len(tuples),
               "objects": [[ws.item_json(i) for i in tup] for tup in tuples]}
    return _emit(args.format, ("object",), rows, payload)


def cmd_bongartz(ws, args):
    u = ws.resolve_module(args.module)
    reg = ws.root.registry
    pieces = [reg.module(i) for i in bongartz(reg, u)]
    rows = [(ws.module_name(x),
             ",".join(str(d) for d in x.vertex_dims())) for x in pieces]
    payload = {"module": ws.entry_json(u, False),
               "complement": [ws.entry_json(x, False) for x in pieces]}
    return _emit(args.format, ("summand", "dims"), rows, payload)


def cmd_cobongartz(ws, args):
    u = ws.resolve_module(args.module)
    reg = ws.root.registry
    c_ids, q = cobongartz(reg, u)
    rows = [(reg.name(c), "module") for c in c_ids]
    rows += [(reg.display_item(("p", v)), "shifted projective") for v in q]
    payload = {"module": ws.entry_json(u, False),
               "c": [ws.item_json(("m", c)) for c in c_ids],
               "q": [ws.item_json(("p", v)) for v in q]}
    return _emit(args.format, ("summand", "kind"), rows, payload)


def cmd_correspond(ws, args):
    u = ws.resolve_module(args.module)
    reg = ws.root.registry
    _, records = complement_correspondence(reg, u)
    rows = []
    payload = []
    for rec in records:
        rows.append((reg.name(rec["b"]), rec["case"],
                     reg.display_item(rec["partner"]),
                     ws.module_name(rec["middle"])))
        payload.append({"b": ws.item_json(("m", rec["b"])),
                        "case": rec["case"],
                        "partner": ws.item_json(rec["partner"]),
                        "middle": ws.entry_json(rec["middle"], False)})
    return _emit(args.format, ("bongartz summand", "case", "partner",
                               "middle"), rows, payload)


def _tokens(text, what):
    """The tokens of text, split at the commas outside parentheses, so a
    dimension-vector name such as M(1,0,1) stays whole.  An empty token is
    refused, so "S1,,S2" is not read as "S1,S2"."""
    tokens = re.split(r",(?![^(]*\))", text)
    blank = [not t.strip() for t in tokens]
    if all(blank):
        raise InputError(f"empty {what} string")
    if any(blank):
        raise InputError(f"empty entry in {what} string")
    return tokens


def cmd_reduce(ws, args):
    tokens = _tokens(args.object, "object")
    if len(tokens) != 1:
        raise DomainError("reduce takes a single indecomposable summand")
    m, shift = ws.resolve_entry(tokens[0])
    item = ws.root_item(m, shift)
    ctx = ws.root.child(item)
    gn, gdim, garr = algebra_invariants(ctx.gamma)
    rows = []
    payload_objs = []
    reg = ws.root.registry
    for rec in ctx.records:
        robj = rec["reduced"]
        level = ctx.registry.display_item(robj.gamma_item)
        realization = ctx.display_root(robj.gamma_item, reg)
        rows.append((reg.display_item(rec["parent"]), level, realization))
        rm, rsh = ctx.realize_item(robj.gamma_item)
        payload_objs.append({"parent": ws.item_json(rec["parent"]),
                             "level": {"name": level,
                                       "shift": robj.gamma_item[0] == "p"},
                             "realization": ws.entry_json(rm, rsh)})
    payload = {"reducer": ws.item_json(item),
               "gamma": {"vertices": gn, "dim": gdim, "arrows": garr},
               "objects": payload_objs}
    pre = (f"reduced algebra: vertices={gn} dim={gdim} arrows={garr}")
    return _emit(args.format, ("object", "reduced", "realization"), rows,
                 payload, preamble=pre)


def cmd_psi(ws, args):
    tokens = _tokens(args.object, "object")
    items = [ws.root_item(*ws.resolve_entry(t)) for t in tokens]
    s = seqs.psi(ws.root, tuple(items))
    reg = ws.root.registry
    names = s.names(reg)
    payload = {"object": [ws.item_json(i) for i in items],
               "sequence": [ws.entry_json(*rec.realize_item(item))
                            for rec, item in s.entries]}
    return _emit_line(args.format, names, payload)


def cmd_phi(ws, args):
    tokens = _tokens(args.sequence, "sequence")
    pairs = [ws.resolve_entry(t) for t in tokens]
    items = seqs.phi(ws.root, pairs)
    reg = ws.root.registry
    names = [reg.display_item(i) for i in items]
    payload = {"sequence": [ws.entry_json(m, sh) for m, sh in pairs],
               "object": [ws.item_json(i) for i in items]}
    return _emit_line(args.format, names, payload)


def cmd_count(ws, args):
    root = ws.root
    total, per_last = seqs.count_sequences(root, args.length)
    reg = root.registry
    by_name = {reg.display_item(it): c
               for it, c in sorted(per_last.items())}
    if args.last:
        m, shift = ws.resolve_entry(args.last)
        item = ws.root_item(m, shift)
        value = per_last.get(item, 0)
        payload = {"length": args.length, "last": reg.display_item(item),
                   "count": value}
        return _emit_line(args.format, value, payload)
    payload = {"length": args.length, "total": total, "per_last": by_name}
    return _emit_line(args.format, total, payload)


def _bundled_text(stem):
    base = resources.files("tauseq").joinpath("data")
    return base.joinpath(stem).read_text(encoding="utf-8")


def cmd_paper_example(args):
    which = args.example
    if args.algebra:
        ws = _load_workspace(args)
    else:
        qp, alg = parse_algebra(_bundled_text(f"ex{which}.alg"))
        fixtures = parse_modules(_bundled_text(f"ex{which}.mods"), qp, alg)
        ws = Workspace(qp, alg, fixtures, args.cap)
    root = ws.root
    reg = root.registry
    n = ws.alg.idempotents.shape[0]
    total, per_last = seqs.count_sequences(root, n)
    sections = []
    payload = {"unordered": len(root.stt_objects), "ordered": total}
    sections.append(f"support tau-tilting objects: {len(root.stt_objects)} "
                    f"unordered, {total} ordered of length {n}")
    if which in ("1", "2"):
        rows = []
        table = []
        for tup in seqs.enumerate_ordered(root, n):
            s = seqs.psi(root, tup)
            rows.append((",".join(reg.display_item(i) for i in tup),
                         ",".join(s.names(reg))))
            table.append({"object": [ws.item_json(i) for i in tup],
                          "sequence": [ws.entry_json(*c.realize_item(it))
                                       for c, it in s.entries]})
        payload["table"] = table
        sections.append(_render_table(("ordered object", "sequence"), rows)
                        if args.format != "tsv"
                        else _render_tsv(("ordered object", "sequence"),
                                         rows))
    else:
        mod_items = [it for it in root.level_items if it[0] == "m"]
        jrows = []
        jpay = {}
        for kind, val in mod_items:
            u = reg.module(val)
            members = [name for name, x in ws.fixtures.items()
                       if x.dim and red.j_membership(u, x)]
            jrows.append((reg.name(val), ", ".join(members)))
            jpay[reg.name(val)] = members
        payload["j_membership"] = jpay
        sections.append("objects of J(U) among the fixtures:\n" +
                        _render_table(("U", "J(U)"), jrows))
        grows = []
        gpay = {}
        for item in mod_items:
            ctx = root.child(item)
            gn, gdim, garr = algebra_invariants(ctx.gamma)
            grows.append((reg.display_item(item), gn, gdim, garr))
            gpay[reg.display_item(item)] = [gn, gdim, garr]
        payload["gamma_invariants"] = gpay
        sections.append("reduced algebra invariants (vertices, dim, "
                        "arrows):\n" +
                        _render_table(("U", "vertices", "dim", "arrows"),
                                      grows))
        crows = [(reg.display_item(it), c)
                 for it, c in sorted(per_last.items())]
        payload["per_last"] = {k: v for k, v in crows}
        sections.append(f"sequences of length {n} by last entry:\n" +
                        _render_table(("last entry", "count"), crows))
        worked = []
        for names in (("M", "I2", "P1"), ("M", "P1", "I2")):
            if not all(nm in ws.fixtures for nm in names):
                continue
            items = tuple(ws.root_item(ws.fixtures[nm], False)
                          for nm in names)
            s = seqs.psi(root, items)
            worked.append((",".join(names), ",".join(s.names(reg))))
        if worked:
            payload["worked"] = {k: v for k, v in worked}
            sections.append(_render_table(("ordered object", "sequence"),
                                          worked))
    return _emit_line(args.format, "\n".join(sections), payload)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_workspace(args):
    if not args.algebra:
        raise InputError("an algebra file is required (--algebra FILE)")
    qp, alg = parse_algebra(_read_file(args.algebra))
    fixtures = {}
    if args.fixtures:
        fixtures = parse_modules(_read_file(args.fixtures), qp, alg)
    if args.cap <= 0:
        raise InputError("--cap must be positive")
    return Workspace(qp, alg, fixtures, args.cap)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on first use and reused by every call
    (parse_args keeps no state between calls)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", metavar="FILE",
                        help="algebra file (quiver with monomial relations)")
    common.add_argument("--fixtures", metavar="FILE",
                        help="named module fixture file")
    common.add_argument("--format", choices=("table", "tsv", "json"),
                        default="table", help="output format")
    common.add_argument("--cap", type=int, default=10000, metavar="N",
                        help="enumeration cap (default 10000)")

    ap = _Parser(prog="tauseq",
                 description="tau-tilting invariants and signed "
                             "tau-exceptional sequences over F_p")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("info", parents=[common],
                   help="summary of the loaded algebra")
    sp = sub.add_parser("tau", parents=[common],
                        help="Auslander-Reiten translate of a module")
    sp.add_argument("--module", required=True, metavar="NAME")
    sub.add_parser("indec-tau-rigid", parents=[common],
                   help="indecomposable tau-rigid summand items")
    sp = sub.add_parser("st-pairs", parents=[common],
                        help="support tau-rigid objects")
    sp.add_argument("--ordered", action="store_true",
                    help="enumerate ordered tuples")
    sp.add_argument("--length", type=int, default=None, metavar="T",
                    help="number of summands (default: number of vertices)")
    sp = sub.add_parser("bongartz", parents=[common],
                        help="Bongartz complement of a tau-rigid module")
    sp.add_argument("--module", required=True, metavar="NAME")
    sp = sub.add_parser("cobongartz", parents=[common],
                        help="co-Bongartz completion (C, Q[1]) of a module")
    sp.add_argument("--module", required=True, metavar="NAME")
    sp = sub.add_parser("correspond", parents=[common],
                        help="pair Bongartz summands with co-Bongartz "
                             "partners")
    sp.add_argument("--module", required=True, metavar="NAME")
    sp = sub.add_parser("reduce", parents=[common],
                        help="reduction at one summand: the smaller algebra "
                             "and the object bijection")
    sp.add_argument("--object", required=True, metavar="OBJ",
                    help='summand name, e.g. "P1" or "P1[1]"')
    sp = sub.add_parser("psi", parents=[common],
                        help="sequence attached to an ordered object")
    sp.add_argument("--object", required=True, metavar="OBJ",
                    help='comma-separated summands, e.g. "M,I2,P1"')
    sp = sub.add_parser("phi", parents=[common],
                        help="ordered object recovered from a sequence")
    sp.add_argument("--sequence", required=True, metavar="SEQ",
                    help='comma-separated entries, e.g. "S2[1],S3[1],P1"')
    sp = sub.add_parser("count", parents=[common],
                        help="count ordered objects / sequences")
    sp.add_argument("--length", type=int, required=True, metavar="T")
    sp.add_argument("--last", metavar="NAME", default=None,
                    help="restrict to sequences with this last entry")
    sp = sub.add_parser("paper-example", parents=[common],
                        help="reproduce a bundled worked example")
    sp.add_argument("example", choices=("1", "2", "3"))
    return ap


_HANDLERS = {
    "info": cmd_info,
    "tau": cmd_tau,
    "indec-tau-rigid": cmd_indec_tau_rigid,
    "st-pairs": cmd_st_pairs,
    "bongartz": cmd_bongartz,
    "cobongartz": cmd_cobongartz,
    "correspond": cmd_correspond,
    "reduce": cmd_reduce,
    "psi": cmd_psi,
    "phi": cmd_phi,
    "count": cmd_count,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.command == "paper-example":
            if args.cap <= 0:
                raise InputError("--cap must be positive")
            out = cmd_paper_example(args)
        else:
            ws = _load_workspace(args)
            out = _HANDLERS[args.command](ws, args)
    except TauseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:  # modules outgrew memory before the cap fired
        print("error: out of memory (the algebra may be tau-tilting "
              "infinite; try a smaller --cap)", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

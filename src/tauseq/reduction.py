"""Perpendicular reduction: J(u) membership, the bijection E_S between the
root items compatible with a set S and the signed objects of J(S), read in
one step off the root, and the reduced algebra Gamma with its transport
equivalence along a chain of single reductions.

E_S in one step (set_record).  Reduction composes (Jasso 2015; Buan-Marsh,
the E-maps), so E_S depends only on the set S of root items reduced.  With
M_S the module part of S, E_S sends a module x outside Gen M_S to f_{M_S}(x),
computed in mod A (J(S) is wide there).  It sends a shift, or a module in
Gen M_S, to a shifted projective, realized by f_{M_S}(b) for the summand b
of the Bongartz completion B(S) at which g(x), in the g-basis of B(S), has
its one coefficient -1 outside S (Demonet-Iyama-Jasso).  psi and phi read
these SetRecords, one per set, and build no Gamma.

Chains of contexts.  The root context holds the ambient algebra and the
full registry of indecomposable tau-rigid summand items; each child is cut
out by one reducer.  A reducer has a module u (P_v for a shifted reducer
P_v[1]) and its tops, parent items outside u: the summands of the
Bongartz completion B(u) outside u, in registry order, or the shifts
P_w[1], w != v, in vertex order.  The torsion-free quotients gens =
f_u(tops) are a projective generator of J(u) (Jasso), so at both kinds
Gamma = End(+ gens), and transport is Hom(+ gens, -) under precomposition.
Under P_v[1] the gens are the projectives of A/<e_v>.

Each context carries stt_objects, its support tau-tilting objects as tuples
of its level items: a child's are its parent's objects that contain the
reducer, mapped through the child's records, as s-tau-tilt J(u) is the
interval of objects containing u (Jasso).  So B(u) and C(u) come from
tautilt.completion at every depth.  E sends each partner of a top (an
item of C(u) outside u, paired by tautilt.g_pairing, or under P_v[1] the
shift P_w[1] itself) to the shifted projective at the top's vertex, and
any other compatible module x to f_u(x).  Gamma lives only in chains: the
`reduce` command, the Gamma invariants of the third paper example and
sequences.validate_sequence build them; psi and phi do not.
"""

import numpy as np

from . import complexes as cxs
from . import linalg
from .errors import DomainError
from .modules import (FdModule, end_algebra, hom_basis, hom_dim, is_iso,
                      quotient_module, torsion_free_quotient, zero_module)
from .tautilt import (Registry, SignedObject, canonical, completion,
                      g_pairing, g_partner, indec_tau_rigid_items)


def j_membership(u, x):
    """Is x an object of J(u)?

    For a module reducer u: Hom(u, x) = 0 and Hom(x, tau u) = 0; for a
    shifted reducer P[1]: Hom(P, x) = 0.
    """
    if x.dim == 0:
        return True
    if isinstance(u, SignedObject):
        if u.is_shift:
            proj = cxs.proj_list(x.algebra)[u.vertex]
            return hom_dim(proj, x) == 0
        u = u.module
    return hom_dim(u, x) == 0 and hom_dim(x, cxs.tau(u)) == 0


class ReducedObject:
    """One summand seen on both sides of a reduction step.

    lam_module describes the object inside J(reducer) as a module over the
    reducer's own level; gamma_item is the same object written over Gamma,
    as ('m', registry id) or ('p', vertex), a shift exactly when the object
    arises as a J-projective shifted once; root_module is the
    ambient-algebra module realizing the lambda side (the nested J's are
    wide subcategories of the ambient module category, so the realization
    is computed by ambient torsion-free quotients).
    """

    def __init__(self, lam_module, gamma_item, root_module):
        self.lam_module = lam_module
        self.gamma_item = gamma_item
        self.root_module = root_module


class _Realizing:
    """Lookup and display of the items that a view realizes as (ambient
    module, shift flag) pairs."""

    _index = None  # (shift, dimension vector) -> items, built on first match

    def match(self, module, shift):
        """The level item realized by (module, shift) up to isomorphism, or
        None: compared by shift flag and dimension vector, then by
        is_iso."""
        if self._index is None:
            self._index = {}
            for item in self.level_items:
                m, sh = self.realize_item(item)
                self._index.setdefault((sh, m.vertex_dims()), []).append(item)
        for item in self._index.get((shift, module.vertex_dims()), ()):
            if is_iso(self.realize_item(item)[0], module):
                return item
        return None

    def display_root(self, item, root_registry):
        m, shift = self.realize_item(item)
        name = root_registry.name(root_registry.ensure(m))
        return name + "[1]" if shift else name


class SetRecord(_Realizing):
    """E_S for one set S of root items, read off the root.

    level_items are the root items compatible with S and not in S, in root
    order; realize_item gives the (ambient module, shift flag) of E_S(x).
    """

    def __init__(self, pairs):
        self.pairs = pairs
        self.level_items = list(pairs)

    def realize_item(self, item):
        return self.pairs[item]


class WideContext(_Realizing):
    """One node of a reduction chain.

    The root node (reducer None) has gamma equal to the ambient algebra and
    a registry holding every indecomposable tau-rigid summand item; it also
    caches the SetRecord of each set asked of set_record.  A child node
    reduces its parent's gamma by one compatible summand.
    """

    def __init__(self, algebra, parent, reducer_item, gamma, registry,
                 level_items):
        self.algebra = algebra  # where the reducer lives (parent level)
        self.parent = parent
        self.reducer_item = reducer_item
        self.gamma = gamma
        self.registry = registry  # Registry over gamma
        self.level_items = level_items
        self.stt_objects = None  # support tau-tilting objects of level items
        self.records = []  # {"parent": item, "reduced": ReducedObject}
        self.record_of = {}  # level item -> its record
        self._children = {}
        self.u_module = None  # u, or P_v for a shifted reducer P_v[1]
        self.partners = {}  # parent item -> the vertex of its top
        self.tops = []  # parent items of the tops, in vertex order
        self.b_summands = []  # their modules over the parent level
        self.gens = []  # f_u(b_summands); gamma = End(+ gens)
        self._end = None
        if parent is None:
            self.set_records = {}
            self.trace_rows = {}  # (u id, x id) -> rows spanning t_u(x)

    @property
    def is_root(self):
        return self.reducer_item is None

    def child(self, reducer_item):
        if reducer_item not in self._children:
            self._children[reducer_item] = _build_context(self, reducer_item)
        return self._children[reducer_item]

    def record_for(self, gamma_item):
        if gamma_item not in self.record_of:
            raise DomainError("no preimage for the given reduced object")
        return self.record_of[gamma_item]

    def realize_item(self, item):
        """(root module, shift flag) for a level item of this context."""
        kind, val = item
        if self.is_root:
            if kind == "m":
                return self.registry.module(val), False
            return cxs.proj_list(self.gamma)[val], True
        return self.record_for(item)["reduced"].root_module, kind == "p"


def root_context(alg, cap=10000, registry=None):
    """The chain root: ambient algebra plus the full tau-rigid registry."""
    items, objs, reg = indec_tau_rigid_items(alg, cap=cap, registry=registry)
    ctx = WideContext(alg, None, None, alg, reg, items)
    ctx.stt_objects = objs
    return ctx


def set_record(root, s):
    """E_S for a frozenset S of root items, one SetRecord cached per set on
    the root; for S empty, E is the identity and the root answers."""
    if not s:
        return root
    rec = root.set_records.get(s)
    if rec is None:
        rec = root.set_records[s] = SetRecord(_one_step_pairs(root, s))
    return rec


def _one_step_pairs(root, s):
    """{x: (ambient module, shift flag)} of E_S, in root item order.  The
    trace of U = M_S + (the projectives of S's shifts) in an item x
    compatible with S is the trace of M_S, as Hom(P_v, x) = 0 for every
    shift P_v[1] in S; so f_U = f_{M_S} on x and on B(S)'s summands."""
    reg = root.registry
    u_ids = [v for kind, v in s if kind == "m"]
    want = reg.bits(s)
    pairs = {}
    for x in root.level_items:
        if x in s or reg.mask(x) & want != want:
            continue
        pairs[x] = None  # x in Gen M_S or a shift: filled below
        if x[0] == "m":
            fx = _torsion_free(root, u_ids, x[1])
            if fx.dim:
                pairs[x] = (fx, False)
    shifted = [x for x, pair in pairs.items() if pair is None]
    if shifted:
        top = completion(reg, root.stt_objects, s)
        for x in shifted:
            b = g_partner(reg, top, s, x)
            pairs[x] = (_torsion_free(root, u_ids, b), True)
    return pairs


def _torsion_free(root, u_ids, x):
    """f_{M_S}(x) = x / t_{M_S}(x) for registry ids: the trace of a sum is
    the sum of the traces of its summands, each cached per pair on the
    root."""
    for u in u_ids:
        if (u, x) not in root.trace_rows:
            homs = hom_basis(root.registry.module(u), root.registry.module(x))
            root.trace_rows[u, x] = [h.T for h in homs]
    rows = [r for u in u_ids for r in root.trace_rows[u, x]]
    xm = root.registry.module(x)
    return quotient_module(xm, np.vstack(rows))[0] if rows else xm


def _find_proj_vertex(alg, m):
    for w, pw in enumerate(cxs.proj_list(alg)):
        if is_iso(m, pw):
            return w
    raise DomainError("module is not isomorphic to an indecomposable "
                      "projective")


def _build_context(parent, reducer_item):
    a = parent.gamma
    preg = parent.registry
    kind, val = reducer_item
    if reducer_item not in parent.level_items:
        raise DomainError("reducer is not a registered tau-rigid summand")
    n_parent = a.idempotents.shape[0]
    projs = cxs.proj_list(a)
    if kind == "m":
        u = preg.module(val)
        b_ids, pairs = g_pairing(preg, parent.stt_objects, {reducer_item})
        tops = [("m", i) for i in b_ids]
        labels = [preg.name(i) for i in b_ids]
        partners = {x: tops.index(("m", b)) for x, b in pairs.items()}
    else:
        # J(P_v[1]) = J(P_v): the tops are the other shifts, each its own
        # partner, and f_{P_v}(P_w) are the projectives of A/<e_v>
        u = projs[val]
        tops = [("p", w) for w in range(n_parent) if w != val]
        labels = [a.vertex_labels[w] for _, w in tops]
        partners = {x: w for w, x in enumerate(tops)}
    if not tops:
        raise DomainError("quotient is the zero algebra")
    if len(tops) != n_parent - 1:
        raise DomainError("reduction did not drop exactly one vertex")
    b_summands = [preg.module(v) if k == "m" else projs[v] for k, v in tops]
    gens = [torsion_free_quotient(u, b)[0] for b in b_summands]
    if any(g.dim == 0 for g in gens):
        raise DomainError("reduced algebra lost a Bongartz vertex")
    end = end_algebra(gens, vertex_labels=labels)
    ctx = WideContext(a, parent, reducer_item, end.struct,
                      Registry(end.struct), None)
    ctx.u_module = u
    ctx.partners = partners
    ctx.tops = tops
    ctx.b_summands = b_summands
    ctx.gens = gens
    ctx._end = end
    for x_item in parent.level_items:
        if x_item != reducer_item and preg.compatible(x_item, reducer_item):
            ctx.records.append({"parent": x_item,
                                "reduced": _reduce_item(ctx, x_item)})
    ctx.record_of = {r["reduced"].gamma_item: r for r in ctx.records}
    if len(ctx.record_of) != len(ctx.records):
        raise DomainError("reduction produced a repeated level item")
    ctx.level_items = list(ctx.record_of)
    # s-tau-tilt J(u) is the interval of the objects containing u (Jasso)
    level = {r["parent"]: r["reduced"].gamma_item for r in ctx.records}
    ctx.stt_objects = [canonical(level[x] for x in obj if x != reducer_item)
                       for obj in parent.stt_objects if reducer_item in obj]
    return ctx


def make_context(parent, reducer):
    """Reduce by one summand; parent is a WideContext or a root algebra.

    The reducer is a SignedObject (or a registry item) over the parent's
    gamma, required to be an indecomposable tau-rigid summand there.
    Contexts are cached per (parent, reducer).
    """
    if not isinstance(parent, WideContext):
        parent = root_context(parent)
    if isinstance(reducer, SignedObject):
        reducer = parent.registry.signed_item(reducer)
    return parent.child(reducer)


def transport(ctx, x):
    """Rewrite a module x of J(reducer) over gamma = End(+ gens): the space
    Hom(+ gens, x), acted on by precomposition.  It is Hom(B, x) for the
    tops B, since every map B_i -> x kills t_u(B_i) when x lies in J(u)."""
    gamma = ctx.gamma
    p = gamma.p
    u_signed = ctx.parent.registry.item_signed(ctx.reducer_item)
    if not j_membership(u_signed, x):
        raise DomainError("module is not an object of J(reducer)")
    homs = [(h @ pr) % p for g, pr in zip(ctx.gens, ctx._end.prs)
            for h in hom_basis(g, x)]
    if not homs:
        return zero_module(gamma)
    homs = np.array(homs)
    # coords[j, h] = the coordinates of homs[h] @ mats[j] on homs
    imgs = (homs[None] @ np.array(ctx._end.mats)[:, None]) % p
    coords = linalg.SpanSolver(homs.reshape(len(homs), -1), p).coords(
        imgs.reshape(imgs.shape[:2] + (-1,)))
    if coords is None:
        raise DomainError("precomposition left the Hom space")
    return FdModule(gamma, coords.transpose(0, 2, 1))


def _reduce_item(ctx, x_item):
    """E(reducer) on one compatible parent item; the core of e_map.  A
    partner of the top at vertex w goes to P_w[1], realized as f_u of that
    top; any other x goes to f_u(x), transported."""
    parent = ctx.parent
    u_root, _ = parent.realize_item(ctx.reducer_item)
    w = ctx.partners.get(x_item)
    if w is not None:
        root_m, _ = torsion_free_quotient(
            u_root, parent.realize_item(ctx.tops[w])[0])
        return ReducedObject(ctx.gens[w], ("p", w), root_m)
    fx, _ = torsion_free_quotient(ctx.u_module,
                                  parent.registry.module(x_item[1]))
    root_m, _ = torsion_free_quotient(u_root, parent.realize_item(x_item)[0])
    tm = transport(ctx, fx)
    return ReducedObject(fx, ("m", ctx.registry.ensure(tm)), root_m)


def e_map(ctx, x):
    """E(reducer) applied to a compatible SignedObject (or item) over the
    parent level; returns the stored ReducedObject."""
    if isinstance(x, SignedObject):
        x = ctx.parent.registry.signed_item(x)
    for rec in ctx.records:
        if rec["parent"] == x:
            return rec["reduced"]
    if x == ctx.reducer_item:
        raise DomainError("cannot reduce the reducer by itself")
    raise DomainError("object is not compatible with the reducer")


def e_inverse(ctx, y):
    """The unique compatible parent item mapping to y under e_map.

    y may be a ReducedObject, a gamma-level item, or a SignedObject over
    gamma.  Raises when no preimage or more than one is found.
    """
    if isinstance(y, ReducedObject):
        y = y.gamma_item
    elif isinstance(y, SignedObject):
        y = ctx.registry.signed_item(y)
    rec = ctx.record_for(y)
    return rec["parent"]


def level_item_from_pair(ctx, module, shift):
    """The level item of a (gamma-module, shift) pair; errors when the pair
    is not a registered level object."""
    if shift:
        return ("p", _find_proj_vertex(ctx.gamma, module))
    idx = ctx.registry.find(module)
    if idx is None or ("m", idx) not in ctx.level_items:
        raise DomainError("module is not a registered tau-rigid level item")
    return ("m", idx)

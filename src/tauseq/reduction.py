"""Perpendicular reduction: J(u) membership, read off <g(u), dim x> and one
rank on u's presentation (no tau u is built), the bijection E_S between the
root items compatible with a set S and the signed objects of J(S), read in
one step off the root, and the reduced algebra Gamma with its transport
equivalence along a chain of single reductions.

E_S in one step (set_record).  Reduction composes (Jasso 2015; Buan-Marsh,
the E-maps), so E_S depends only on the set S of root items reduced.  With
M_S the module part of S, E_S sends each item x of the bottom completion
C(S) outside S (the shifts, and the modules in Gen M_S) to a shifted
projective, realized by f_{M_S}(b) for the summand b of the Bongartz
completion B(S) that tautilt.g_pairing pairs with x (Demonet-Iyama-Jasso).
Any other x goes to f_{M_S}(x), computed in mod A (J(S) is wide there).
psi and phi read these SetRecords, one per set, and build no Gamma.

Chains of contexts.  The root context holds the ambient algebra and the
full registry of indecomposable tau-rigid summand items; each child is cut
out by one reducer.  A reducer has a module u (P_v for a shifted reducer
P_v[1]) and its tops, parent items outside u: the summands of B(u) outside
u, in registry order, or the shifts P_w[1], w != v, in vertex order.  The
torsion-free quotients gens = f_u(tops) are a projective generator of J(u)
(Jasso), so at both kinds Gamma = End(+ gens), and transport is
Hom(+ gens, -) under precomposition.  Under P_v[1] the gens are the
projectives of A/<e_v>.  E sends each partner of a top (paired by
g_pairing, or under P_v[1] the shift P_w[1] itself) to the shifted
projective at the top's vertex, and any other compatible module x to
f_u(x).  Gamma lives only in chains: the `reduce` command, the Gamma
invariants of the third paper example and sequences.validate_sequence build
them; psi and phi do not.  A child builds Gamma at once, and its registry
and records on the first read of any of them, so the Gamma invariants
reduce no item.
"""

import numpy as np

from . import complexes as cxs
from . import linalg
from .errors import DomainError
from .modules import (FdModule, end_algebra, hom_basis, is_iso,
                      quotient_module, torsion_free_quotient, trace_rows,
                      zero_module)
from .tautilt import (Registry, SignedObject, g_pairing,
                      indec_tau_rigid_items)


def j_membership(u, x):
    """Is x an object of J(u)?

    For a module reducer u: Hom(u, x) = 0 and Hom(x, tau u) = 0, that is
    <g(u), dim x> = 0 and hom(x, tau u) = 0, as hom(u, x) = hom(x, tau u)
    + <g(u), dim x> (cxs.hom_to_tau); for a shifted reducer P_v[1]:
    Hom(P_v, x) = 0, that is (dim x)_v = 0.  A zero x passes both tests.
    """
    if isinstance(u, SignedObject):
        if u.is_shift:
            return x.vertex_dims()[u.vertex] == 0
        u = u.module
    return (not np.dot(cxs.g_vector(u), x.vertex_dims())
            and cxs.hom_to_tau(x, u) == 0)


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

    The root node (reducer None) has gamma equal to the ambient algebra, a
    registry holding every indecomposable tau-rigid summand item, its
    level_items and its support tau-tilting objects (stt_objects); it also
    caches the SetRecord of each set asked of set_record.  A child node
    (_ChildContext) reduces its parent's gamma by one compatible summand.
    """

    def __init__(self, algebra, parent, reducer_item, gamma):
        self.algebra = algebra  # where the reducer lives (parent level)
        self.parent = parent
        self.reducer_item = reducer_item
        self.gamma = gamma
        self.is_root = parent is None
        self._children = {}

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
        if self.is_root:
            return self.registry.realize(item)
        return self.record_for(item)["reduced"].root_module, item[0] == "p"


class _ChildContext(WideContext):
    """A child node.  _build_context sets gamma = End(+ gens) and u_module
    (u, or P_v for a shifted reducer P_v[1]), tops (parent items, in vertex
    order), b_summands (their modules over the parent level), gens =
    f_u(b_summands) and partners (parent item -> the vertex of its top).

    The registry over gamma, level_items, records ({"parent": item,
    "reduced": ReducedObject}, in parent order) and record_of (level item
    -> its record) are filled together on the first read of any of them.
    A fill that raises assigns none of them, so the next read raises again.
    """

    def __getattr__(self, name):
        if name not in ("registry", "level_items", "records", "record_of"):
            raise AttributeError(name)
        parent, u = self.parent, self.reducer_item
        reg = Registry(self.gamma)
        records = [{"parent": x, "reduced": _reduce_item(self, reg, x)}
                   for x in parent.level_items
                   if x != u and parent.registry.compatible(x, u)]
        record_of = {r["reduced"].gamma_item: r for r in records}
        if len(record_of) != len(records):
            raise DomainError("reduction produced a repeated level item")
        self.registry, self.records, self.record_of = reg, records, record_of
        self.level_items = list(record_of)
        return getattr(self, name)


def root_context(alg, cap=10000, registry=None):
    """The chain root: ambient algebra plus the full tau-rigid registry."""
    items, objs, reg = indec_tau_rigid_items(alg, cap=cap, registry=registry)
    ctx = WideContext(alg, None, None, alg)
    ctx.registry, ctx.level_items, ctx.stt_objects = reg, items, objs
    ctx.set_records = {}
    return ctx


def set_record(root, s):
    """E_S for a frozenset S of root items, one SetRecord cached per set on
    the root; for S empty, E is the identity and the root answers."""
    if s and s not in root.set_records:
        root.set_records[s] = SetRecord(_one_step_pairs(root, s))
    return root.set_records[s] if s else root


def _one_step_pairs(root, s):
    """{x: (ambient module, shift flag)} of E_S, in root item order, one
    torsion-free quotient each.  The trace of U = M_S + (the projectives of
    S's shifts) in an item x compatible with S is the trace of M_S, as
    Hom(P_v, x) = 0 for every shift P_v[1] in S; so f_U = f_{M_S} on x and
    on B(S)'s summands.  Outside C(S), x is a module with f_{M_S}(x) != 0."""
    reg, u_ids = root.registry, [v for kind, v in s if kind == "m"]
    want, partner, pairs = reg.bits(s), g_pairing(reg, s)[1], {}
    for x in root.level_items:
        if x in s or reg.mask(x) & want != want:
            continue
        if x in partner:
            pairs[x] = (_torsion_free(root, u_ids, partner[x]), True)
        elif x[0] == "m" and (fx := _torsion_free(root, u_ids, x[1])).dim:
            pairs[x] = (fx, False)
        else:
            raise DomainError("a shift or a Gen M_S module lies outside C(S)")
    return pairs


def _torsion_free(root, u_ids, x):
    """f_{M_S}(x) = x / t_{M_S}(x) for registry ids: the trace of a sum is
    the sum of the traces of its summands, each the images of the maps in
    its Hom basis (modules.trace_rows).  Most pairs have no trace, and then
    x is returned as it is."""
    xm = root.registry.module(x)
    rows = np.concatenate([np.zeros((0, xm.dim), dtype=np.int64)] + [
        trace_rows(root.registry.module(u), xm) for u in u_ids])
    return quotient_module(xm, rows)[0] if len(rows) else xm


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
        b_ids, pairs = g_pairing(preg, {reducer_item})
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
    ctx = _ChildContext(a, parent, reducer_item, end.struct)
    ctx.u_module = u
    ctx.partners = partners
    ctx.tops = tops
    ctx.b_summands = b_summands
    ctx.gens = gens
    ctx._end = end
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


def _reduce_item(ctx, reg, x_item):
    """E(reducer) on one compatible parent item, named in reg, the
    registry over ctx.gamma being filled; the core of e_map.  A
    partner of the top at vertex w goes to P_w[1], realized as f_u of that
    top; any other x goes to f_u(x), transported.  Under a root parent, u
    and the tops are root modules, so the realization is that f_u itself;
    deeper, it is f of the realized reducer on the realized item."""
    parent = ctx.parent
    w = ctx.partners.get(x_item)
    lam = ctx.gens[w] if w is not None else torsion_free_quotient(
        ctx.u_module, parent.registry.module(x_item[1]))[0]
    root_m = lam if parent.is_root else torsion_free_quotient(
        parent.realize_item(ctx.reducer_item)[0],
        parent.realize_item(x_item if w is None else ctx.tops[w])[0])[0]
    if w is not None:
        return ReducedObject(lam, ("p", w), root_m)
    return ReducedObject(lam, ("m", reg.ensure(transport(ctx, lam))), root_m)


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

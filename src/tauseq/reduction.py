"""Perpendicular reduction: J(u) membership, the reduced algebra Gamma with
its transport equivalence, and the bijection E between compatible summands
at one level and signed objects one level down.

A reduction chain is a linked list of WideContext nodes.  The root context
holds the ambient algebra and the full registry of indecomposable tau-rigid
summand items; each child is cut out by one reducer (a module u, giving
Gamma = End(B + u)/[u] for the Bongartz complement B, or a shifted
projective P[1], giving the idempotent quotient).

E sends the co-Bongartz partners of a module reducer u (the items in Gen u
and the shifts compatible with u) to the shifted projectives of Gamma, each
to the vertex of the Bongartz summand that
tautilt.complement_correspondence pairs it with.

Reduction composes (Jasso 2015; Buan-Marsh, the E-maps): J(U) and its item
bijection depend only on the set S of root items reduced, not on the order
of the chain.  So every context names its level items by their root
preimages, and the root indexes the first context built for each S.
"""

import numpy as np

from . import complexes as cxs
from . import linalg
from .algebra import (quotient_by_ideal, quotient_by_idempotent_ideal,
                      two_sided_ideal_rows)
from .errors import DomainError
from .modules import (FdModule, end_algebra, hom_basis, hom_dim, is_iso,
                      torsion_free_quotient, zero_module)
from .tautilt import (Registry, SignedObject, complement_correspondence,
                      indec_tau_rigid_items)


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

    lam_module/lam_shift describe the object inside J(reducer) as a module
    over the reducer's own level (tagged with a shift when it arises as a
    J-projective shifted once); gamma_item is the same object written over
    Gamma, as ('m', registry id) or ('p', vertex); root_module is the
    ambient-algebra module realizing the lambda side (the nested J's are
    wide subcategories of the ambient module category, so the realization
    is computed by ambient torsion-free quotients).
    """

    def __init__(self, lam_module, lam_shift, gamma_item, root_module):
        self.lam_module = lam_module
        self.lam_shift = lam_shift
        self.gamma_item = gamma_item
        self.root_module = root_module


class WideContext:
    """One node of a reduction chain.

    The root node (reducer None) has gamma equal to the ambient algebra and
    a registry holding every indecomposable tau-rigid summand item.  A child
    node reduces its parent's gamma by one compatible summand.  root_set is
    the set of root items reduced so far; root_of and level_of map level
    items to their root preimages and back; the root's by_set maps each
    root_set to the first context built for it.
    """

    def __init__(self, algebra, parent, reducer_item, gamma, registry,
                 level_items):
        self.algebra = algebra  # where the reducer lives (parent level)
        self.parent = parent
        self.reducer_item = reducer_item
        self.gamma = gamma
        self.registry = registry  # Registry over gamma
        self.level_items = level_items
        self.records = []  # {"parent": item, "reduced": ReducedObject}
        self.record_of = {}  # level item -> its record
        self._children = {}
        # module-reducer transport data
        self.u_module = None
        self.partners = {}  # co-Bongartz partner -> its Bongartz vertex
        self.b_ids = []  # parent registry ids of the Bongartz summands
        self.b_summands = []
        self._end = None
        self._quot = None
        self.root = self if parent is None else parent.root
        if parent is None:  # root items are their own preimages
            self.root_set = frozenset()
            self.root_of = {it: it for it in level_items}
            self.level_of = self.root_of
            self.by_set = {self.root_set: self}
        else:  # the maps are filled by _build_context
            self.root_set = parent.root_set | {parent.root_of[reducer_item]}
            self.root_of = {}
            self.level_of = {}

    @property
    def is_root(self):
        return self.reducer_item is None

    def child(self, reducer_item):
        if reducer_item not in self._children:
            self._children[reducer_item] = _build_context(self, reducer_item)
        return self._children[reducer_item]

    def narrow(self, root_item):
        """The context for root_set plus root_item: the first one built for
        that set, else this context's child at root_item's level item."""
        ctx = self.root.by_set.get(self.root_set | {root_item})
        return ctx if ctx is not None else self.child(self.level_of[root_item])

    def match(self, module, shift):
        """The level item whose ambient realization is (module, shift) up
        to isomorphism, or None."""
        for item in self.level_items:
            m, sh = self.realize_item(item)
            if sh == shift and is_iso(m, module):
                return item
        return None

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
        red_obj = self.record_for(item)["reduced"]
        return red_obj.root_module, red_obj.lam_shift

    def display_root(self, item, root_registry):
        m, shift = self.realize_item(item)
        name = root_registry.name(root_registry.ensure(m))
        return name + "[1]" if shift else name


def root_context(alg, cap=10000, registry=None):
    """The chain root: ambient algebra plus the full tau-rigid registry."""
    items, objs, reg = indec_tau_rigid_items(alg, cap=cap, registry=registry)
    ctx = WideContext(alg, None, None, alg, reg, items)
    ctx.stt_objects = objs
    return ctx


def _find_proj_vertex(alg, m):
    projs = cxs.proj_list(alg)
    for w, pw in enumerate(projs):
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
    if kind == "m":
        u = preg.module(val)
        b_ids, corr = complement_correspondence(preg, u)
        b_summands = [preg.module(i) for i in b_ids]
        end = end_algebra(b_summands + [u],
                          vertex_labels=[preg.name(i) for i in b_ids] + ["u"])
        e_u = end.struct.idempotents[-1]
        ideal = two_sided_ideal_rows(end.struct, [e_u])
        quot = quotient_by_ideal(end.struct, ideal)
        gamma = quot.algebra
        if gamma.idempotents.shape[0] != len(b_summands):
            raise DomainError("reduced algebra lost a Bongartz vertex")
        ctx = WideContext(a, parent, reducer_item, gamma, Registry(gamma),
                          None)
        ctx.u_module = u
        ctx.partners = {r["partner"]: b_ids.index(r["b"]) for r in corr}
        ctx.b_ids = b_ids
        ctx.b_summands = b_summands
        ctx._end = end
        ctx._quot = quot
    else:
        quot = quotient_by_idempotent_ideal(a, val)
        gamma = quot.algebra
        ctx = WideContext(a, parent, reducer_item, gamma, Registry(gamma),
                          None)
        ctx._quot = quot
    n_parent = a.idempotents.shape[0]
    if gamma.idempotents.shape[0] != n_parent - 1:
        raise DomainError("reduction did not drop exactly one vertex")
    for x_item in parent.level_items:
        if x_item != reducer_item and preg.compatible(x_item, reducer_item):
            ctx.records.append({"parent": x_item,
                                "reduced": _reduce_item(ctx, x_item)})
    ctx.record_of = {r["reduced"].gamma_item: r for r in ctx.records}
    if len(ctx.record_of) != len(ctx.records):
        raise DomainError("reduction produced a repeated level item")
    ctx.level_items = list(ctx.record_of)
    for y, rec in ctx.record_of.items():
        root_item = parent.root_of[rec["parent"]]
        ctx.root_of[y] = root_item
        ctx.level_of[root_item] = y
    ctx.root.by_set.setdefault(ctx.root_set, ctx)
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
    """Rewrite a module of J(reducer) over gamma.

    Module reducer: the space Hom(B + u, x) with Gamma acting by
    precomposition (the u-block is zero since Hom(u, x) = 0).  Shifted
    reducer: the same space with the quotient algebra acting through a
    linear section.
    """
    gamma = ctx.gamma
    p = gamma.p
    if x.dim == 0:
        return zero_module(gamma)
    u_signed = ctx.parent.registry.item_signed(ctx.reducer_item)
    if not j_membership(u_signed, x):
        raise DomainError("module is not an object of J(reducer)")
    if ctx.reducer_item[0] == "p":
        action = np.zeros((gamma.dim, x.dim, x.dim), dtype=np.int64)
        for k in range(gamma.dim):
            action[k] = x.act(ctx._quot.lift[:, k])
        return FdModule(gamma, action)
    blocks = []
    for i, b in enumerate(ctx.b_summands):
        pr = ctx._end.prs[i]
        for h in hom_basis(b, x):
            blocks.append((h @ pr) % p)
    if not blocks:
        return zero_module(gamma)
    m = len(blocks)
    flat = np.array([bl.reshape(-1) for bl in blocks])
    solver = linalg.SpanSolver(flat, p)
    action = np.zeros((gamma.dim, m, m), dtype=np.int64)
    for k in range(gamma.dim):
        lift = ctx._quot.lift[:, k]
        mat = np.zeros_like(ctx._end.mats[0])
        for j, c in enumerate(lift):
            if c:
                mat = (mat + int(c) * ctx._end.mats[j]) % p
        for jj, h in enumerate(blocks):
            coords = solver.coords(((h @ mat) % p).reshape(-1))
            if coords is None:
                raise DomainError("precomposition left the Hom space")
            action[k, :, jj] = coords
    return FdModule(gamma, action)


def _reduce_item(ctx, x_item):
    """E(reducer) on one compatible parent item; the core of e_map.  Under
    a module reducer u, x goes to f_u(x), unless x is the co-Bongartz
    partner of a Bongartz summand B_w: then to P_w[1], realized as f_u(B_w).
    Under P_v[1], P_w[1] goes to the shift at w's vertex of the quotient."""
    parent = ctx.parent
    kind, val = x_item
    u_root, _ = parent.realize_item(ctx.reducer_item)
    if ctx.reducer_item[0] == "p":
        v = ctx.reducer_item[1]
        x_root, _ = parent.realize_item(x_item)
        if kind == "m":
            x = parent.registry.module(val)
            tm = transport(ctx, x)
            return ReducedObject(x, False, ("m", ctx.registry.ensure(tm)),
                                 x_root)
        projs = cxs.proj_list(ctx.algebra)
        fq, _ = torsion_free_quotient(projs[v], projs[val])
        root_m, _ = torsion_free_quotient(u_root, x_root)
        return ReducedObject(fq, True, ("p", val - (val > v)), root_m)
    w = ctx.partners.get(x_item)
    y = x_item if w is None else ("m", ctx.b_ids[w])
    fy, _ = torsion_free_quotient(ctx.u_module, parent.registry.module(y[1]))
    root_m, _ = torsion_free_quotient(u_root, parent.realize_item(y)[0])
    if w is not None:
        return ReducedObject(fy, True, ("p", w), root_m)
    tm = transport(ctx, fy)
    return ReducedObject(fy, False, ("m", ctx.registry.ensure(tm)), root_m)


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


def lift_pair(ctx, module, shift):
    """Rewrite a (module, shift) pair over ctx's parent level as a pair over
    gamma.  Only the underlying module transports: a shift tag names a
    projective at the entry's own level, so it is carried along untouched
    and interpreted by level_item_from_pair once the entry's level is
    reached."""
    return transport(ctx, module), shift

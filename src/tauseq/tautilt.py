"""Support tau-rigid objects: rigidity tests, mutation, exchange-graph
enumeration, Bongartz and co-Bongartz complements, and the summand
correspondence between a Bongartz complement and its co-Bongartz partners.

Objects live in mod A together with shifted projectives (Ae_i)[1]; internally
a summand is an item ('m', registry id) or ('p', vertex index), and an object
is a tuple of items (sorted for the unordered form).
"""

from . import complexes as cxs
from .errors import CapExceededError, DomainError
from .modules import (decompose_grouped, direct_sum, hom_dim, in_gen, is_iso,
                      is_local_endo, min_left_approx, quotient_module,
                      simple_module, zero_module)


class SignedObject:
    """One indecomposable summand: a module, or a shifted projective."""

    def __init__(self, module=None, vertex=None):
        if (module is None) == (vertex is None):
            raise DomainError("exactly one of module/vertex must be given")
        if module is not None and module.dim == 0:
            raise DomainError("module part of a signed object must be nonzero")
        self.module = module
        self.vertex = vertex

    @property
    def is_shift(self):
        return self.vertex is not None


class Registry:
    """Iso-class registry of indecomposable modules with stable ids."""

    def __init__(self, alg):
        self.alg = alg
        self.mods = []
        self.names = []
        self._buckets = {}
        self._pres = {}
        self._compat = {}
        self._indec = set()  # known indecomposable; callers may add sums

    def __len__(self):
        return len(self.mods)

    def module(self, idx):
        return self.mods[idx]

    def name(self, idx):
        return self.names[idx]

    def find(self, m):
        key = (m.dim, m.vertex_dims())
        for idx in self._buckets.get(key, ()):
            if is_iso(self.mods[idx], m):
                return idx
        return None

    def _auto_name(self, m):
        alg = self.alg
        n = alg.idempotents.shape[0]
        for i in range(n):
            if is_iso(m, cxs.proj_list(alg)[i]):
                return f"P{alg.vertex_labels[i]}"
        for i in range(n):
            if is_iso(m, simple_module(alg, i)):
                return f"S{alg.vertex_labels[i]}"
        for i in range(n):
            if is_iso(m, cxs.inj_list(alg)[i]):
                return f"I{alg.vertex_labels[i]}"
        dims = ",".join(str(d) for d in m.vertex_dims())
        return f"M({dims})"

    def add(self, m, name=None):
        idx = len(self.mods)
        self.mods.append(m)
        self.names.append(name if name is not None else self._auto_name(m))
        key = (m.dim, m.vertex_dims())
        self._buckets.setdefault(key, []).append(idx)
        return idx

    def ensure(self, m, name=None, indec=False):
        idx = self.find(m)
        if idx is None:
            idx = self.add(m, name=name)
        if indec:
            self._indec.add(idx)
        return idx

    def compatible(self, a, b):
        """Is the sum of items a and b support tau-rigid?  For a == b: is a
        alone and indecomposable.  Cached per pair; registers nothing."""
        key = canonical((a, b))
        if key not in self._compat:
            (ka, va), (kb, vb) = key
            if ka == "p":
                ok = True
            elif kb == "p":
                ok = hom_dim(cxs.proj_list(self.alg)[vb], self.mods[va]) == 0
            else:
                ma, mb = self.mods[va], self.mods[vb]
                ok = hom_dim(ma, cxs.tau(mb)) == 0 and (
                    hom_dim(mb, cxs.tau(ma)) == 0 if va != vb
                    else va in self._indec or is_local_endo(ma))
            self._compat[key] = ok
        return self._compat[key]

    def pres(self, idx):
        if idx not in self._pres:
            self._pres[idx] = cxs.min_presentation(self.mods[idx])
        return self._pres[idx]

    def proj_id(self, v):
        return self.ensure(cxs.proj_list(self.alg)[v], indec=True)

    def display_item(self, item):
        kind, val = item
        if kind == "m":
            return self.name(val)
        return f"{self.name(self.proj_id(val))}[1]"

    def item_signed(self, item):
        kind, val = item
        if kind == "m":
            return SignedObject(module=self.mods[val])
        return SignedObject(vertex=val)

    def signed_item(self, so):
        if so.is_shift:
            return ("p", so.vertex)
        return ("m", self.ensure(so.module))


def item_sort_key(item):
    return (0 if item[0] == "m" else 1, item[1])


def canonical(items):
    return tuple(sorted(items, key=item_sort_key))


def item_cx(reg, item):
    kind, val = item
    if kind == "m":
        return reg.pres(val)
    return cxs.stalk_cx(reg.alg, [val], degree=-1)


def object_cx(reg, items):
    parts = [item_cx(reg, it) for it in items]
    if not parts:
        return cxs.Cx(reg.alg, {}, {}, check=False)
    total, _ = cxs.direct_sum_cx(parts)
    return total


# ---------------------------------------------------------------------------
# rigidity predicates
# ---------------------------------------------------------------------------


def is_tau_rigid(m):
    """Hom(m, tau m) = 0; the zero module counts as rigid."""
    if m.dim == 0:
        return True
    return hom_dim(m, cxs.tau(m)) == 0


def is_support_tau_rigid(objs):
    """Check a list of SignedObjects: basic, indecomposable, and rigid.

    Modules M must satisfy Hom(M, tau M') = 0 for all module summands M'
    (including themselves); shifted projectives P[1] need Hom(P, M') = 0.
    Both conditions are pairwise (tau and Hom are additive), so they are
    asked of a throwaway registry, which also tests indecomposability.
    """
    mods = [o.module for o in objs if not o.is_shift]
    verts = [o.vertex for o in objs if o.is_shift]
    if len(set(verts)) != len(verts):
        return False
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if is_iso(mods[i], mods[j]):
                return False
    if not mods:
        return True
    reg = Registry(mods[0].algebra)
    items = [("m", reg.add(m, name="")) for m in mods]
    return _items_support_tau_rigid(reg, items + [("p", v) for v in verts])


def _items_support_tau_rigid(reg, items):
    """Every pair of items, each item with itself included, is
    compatible."""
    return all(reg.compatible(a, b)
               for i, a in enumerate(items) for b in items[i:])


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------


def _cx_items(reg, cx):
    """Decompose a reduced two-term complex into registry items."""
    mod, shifted = cxs.cx_to_pair(cx)
    items = [("p", v) for v in shifted]
    if mod.dim:
        for piece, mult in decompose_grouped(mod):
            idx = reg.ensure(piece, indec=True)
            items.extend([("m", idx)] * mult)
    return items


def mutate(reg, items, k):
    """Exchange the k-th summand x of a support tau-tilting object x + U.

    U has exactly two completions (AIR Thm 2.18), so a known item outside
    x + U that is compatible with U is the partner, and nothing is
    computed.  Only when no known item fits does one exchange triangle
    discover it: over the minimal right add(U)-approximation of x when x
    is a shift or H^0(x) lies in Fac H^0(U), over the minimal left one
    otherwise (AIR §2.4).
    """
    items = list(items)
    n = reg.alg.idempotents.shape[0]
    if len(items) != n:
        raise DomainError("mutation requires a support tau-tilting object")
    x = items[k]
    others = items[:k] + items[k + 1 :]
    known = [("m", i) for i in range(len(reg))] + [("p", v) for v in range(n)]
    for y in known:
        if y not in items and _items_support_tau_rigid(reg, [y] + others):
            return canonical(others + [y])
    X = item_cx(reg, x)
    u_parts = [item_cx(reg, it) for it in others]
    if x[0] == "p" or in_gen(
            direct_sum(reg.alg, [reg.module(v) for kind, v in others
                                 if kind == "m"])[0], reg.module(x[1])):
        src, cmap, _ = cxs.min_right_approx_K(u_parts, X)
        cand = cxs.reduce_cx(cxs.shift_cx(cxs.cone(src, X, cmap), -1))
    else:
        tgt, cmap, _ = cxs.min_left_approx_K(X, u_parts)
        cand = cxs.reduce_cx(cxs.cone(X, tgt, cmap))
    new = _cx_items(reg, cand) if cand.is_two_term() else []
    if len(new) != 1 or new[0] in known \
            or not _items_support_tau_rigid(reg, new + others):
        raise DomainError("mutation failed to produce an exchange partner")
    return canonical(others + new)


def enumerate_support_tau_tilting(alg, cap=10000, registry=None):
    """All basic support tau-tilting objects reachable from (A, no shift).

    Returns (sorted list of canonical objects, registry).  Raises
    CapExceededError when more than cap objects appear (suspected
    tau-tilting infinite input).
    """
    reg = registry if registry is not None else Registry(alg)
    n = alg.idempotents.shape[0]
    start = canonical([("m", reg.proj_id(v)) for v in range(n)])
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop(0)
        for k in range(n):
            nb = mutate(reg, cur, k)
            if nb not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(
                        f"more than {cap} support tau-tilting objects; "
                        "the algebra may be tau-tilting infinite")
                seen.add(nb)
                queue.append(nb)
    return sorted(seen), reg


def indec_tau_rigid_items(alg, cap=10000, registry=None):
    """All indecomposable summand items appearing in some support
    tau-tilting object: the tau-rigid indecomposables and all shifts."""
    objs, reg = enumerate_support_tau_tilting(alg, cap=cap, registry=registry)
    items = sorted({it for obj in objs for it in obj}, key=item_sort_key)
    return items, objs, reg


# ---------------------------------------------------------------------------
# Bongartz and co-Bongartz complements
# ---------------------------------------------------------------------------


def _u_indec_ids(reg, u):
    ids = []
    for piece, mult in decompose_grouped(u):
        if mult != 1:
            raise DomainError("tau-rigid modules are basic")
        ids.append(reg.ensure(piece))
    return ids


def cobongartz(reg, u):
    """(C ids, Q vertex list) for a tau-rigid module u.

    C collects the registry indecomposables X outside add(u) with X in
    Gen u and X + u tau-rigid; Q the vertices v with P_v[1] compatible with
    every summand of u, i.e. Hom(P_v, u) = 0.  The registry must already
    hold every tau-rigid indecomposable (run enumerate_support_tau_tilting
    first).
    """
    if not is_tau_rigid(u):
        raise DomainError("cobongartz requires a tau-rigid module")
    u_items = [("m", i) for i in _u_indec_ids(reg, u)]
    c_ids = [idx for idx in range(len(reg))
             if ("m", idx) not in u_items and in_gen(u, reg.module(idx))
             and _items_support_tau_rigid(reg, u_items + [("m", idx)])]
    n = reg.alg.idempotents.shape[0]
    q = [v for v in range(n)
         if all(reg.compatible(("p", v), it) for it in u_items)]
    return c_ids, q


def bongartz(reg, u):
    """Bongartz complement B of a tau-rigid module u: B + u is tau-tilting.

    Built from the triangle over C_Q = (presentations of C) + Q[1] via the
    minimal right approximation by presentations of u-summands.
    """
    return _bongartz_from(reg, u, *cobongartz(reg, u))


def _bongartz_from(reg, u, c_ids, q):
    """Bongartz complement of u from its co-Bongartz part (C ids, Q)."""
    alg = reg.alg
    parts = [reg.pres(c) for c in c_ids]
    if q:
        parts.append(cxs.stalk_cx(alg, q, degree=-1))
    if not parts:
        return zero_module(alg)
    cq, _ = cxs.direct_sum_cx(parts)
    u_parts = [reg.pres(i) for i in _u_indec_ids(reg, u)] if u.dim else []
    src, cmap, _ = cxs.min_right_approx_K(u_parts, cq)
    y = cxs.reduce_cx(cxs.shift_cx(cxs.cone(src, cq, cmap), -1))
    if not y.is_two_term():
        raise DomainError("Bongartz triangle left the two-term window")
    b, _, _ = cxs.h0(y)
    return b


def complement_correspondence(reg, u):
    """Pair each indecomposable Bongartz summand B_i with its co-Bongartz
    partner.

    Returns records {"b": id, "case": "a"|"b", "partner": item,
    "middle": module} where case "a" pairs B_i with the cokernel C_i of its
    minimal left add(u)-approximation, and case "b" pairs a projective
    Q_i[1] with the target of the minimal left add(B)-approximation of Q_i.
    """
    alg = reg.alg
    c_ids, q = cobongartz(reg, u)
    b = _bongartz_from(reg, u, c_ids, q)
    b_ids = [reg.ensure(piece) for piece, _ in decompose_grouped(b)] \
        if b.dim else []
    u_ids = _u_indec_ids(reg, u) if u.dim else []
    u_mods = [reg.module(i) for i in u_ids]
    records = []
    remaining = list(b_ids)
    for v in q:
        p = cxs.proj_list(alg)[v]
        b_mods = [reg.module(i) for i in remaining]
        tgt, beta, used = min_left_approx(p, b_mods)
        groups = decompose_grouped(tgt)
        if len(groups) != 1 or groups[0][1] != 1:
            raise DomainError("case (b) approximation target not "
                              "indecomposable")
        bid = reg.ensure(groups[0][0])
        if bid not in remaining:
            raise DomainError("case (b) target is not a Bongartz summand")
        remaining.remove(bid)
        coker, _ = quotient_module(tgt, beta.image_rows())
        records.append({"b": bid, "case": "b", "partner": ("p", v),
                        "middle": coker})
    for bid in remaining:
        bi = reg.module(bid)
        tgt, beta, used = min_left_approx(bi, u_mods)
        coker, _ = quotient_module(tgt, beta.image_rows())
        groups = decompose_grouped(coker) if coker.dim else []
        if len(groups) != 1 or groups[0][1] != 1:
            raise DomainError("case (a) cokernel not indecomposable")
        cid = reg.ensure(groups[0][0])
        if cid not in c_ids:
            raise DomainError("case (a) cokernel is not a co-Bongartz "
                              "summand")
        records.append({"b": bid, "case": "a", "partner": ("m", cid),
                        "middle": tgt})
    partners = [r["partner"] for r in records]
    want = sorted([("m", c) for c in c_ids] + [("p", v) for v in q],
                  key=item_sort_key)
    if sorted(partners, key=item_sort_key) != want:
        raise DomainError("correspondence partners do not exhaust C and Q")
    return records

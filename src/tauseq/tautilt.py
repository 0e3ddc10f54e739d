"""Support tau-rigid objects: rigidity tests, mutation, exchange-graph
enumeration, and g-vectors, with everything about the interval of support
tau-tilting objects that contain a set S of items read off them: its top
B(S) and bottom C(S) (the Bongartz and co-Bongartz completions), and the
pairing of their summands outside S.  The same routines serve every
reduction level, given that level's registry and objects.

Objects live in mod A together with shifted projectives (Ae_i)[1]; internally
a summand is an item ('m', registry id) or ('p', vertex index), and an object
is a tuple of items (sorted for the unordered form).  Compatibility is a test
on bit masks of the registry's rigid items; mutation looks partners up, and
discovers new ones by cokernels in mod A, or on the right by K^b triangles.
"""

from fractions import Fraction

from . import complexes as cxs
from .errors import CapExceededError, DomainError
from .modules import (decompose, direct_sum, hom_dim, in_gen, is_iso,
                      is_local_endo, min_left_approx, quotient_module)


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
    """Iso-class registry of indecomposable modules with stable ids.

    The shift at vertex v is bit v and registry id i is bit n + i.  `rigid`
    masks the known items compatible with themselves, and `mask(item)` the
    rigid ones compatible with item; both cache `compatible` lazily."""

    def __init__(self, alg):
        self.alg = alg
        self.n = alg.idempotents.shape[0]
        self.mods = []
        self.names = []
        self._buckets = {}
        self._pres = {}
        self._compat = {}
        self._split = {}  # id(m) -> (m, summand ids); holding m pins its id
        self._g_inv = {}  # object -> inverse of its g-matrix
        self._signs = {}  # object -> g(A) sign masks in its g-basis
        self._rigid = (1 << self.n) - 1  # every shift is rigid
        self._ranked = 0  # registry ids already folded into _rigid
        self._masks = {}  # item -> (mask, the rigid mask it covers)

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
        for prefix, modules in (("P", cxs.proj_list), ("S", cxs.simple_list),
                                ("I", cxs.inj_list)):
            for label, x in zip(alg.vertex_labels, modules(alg)):
                if is_iso(m, x):
                    return f"{prefix}{label}"
        dims = ",".join(str(d) for d in m.vertex_dims())
        return f"M({dims})"

    def add(self, m, name=None):
        idx = len(self.mods)
        self.mods.append(m)
        self.names.append(name if name is not None else self._auto_name(m))
        key = (m.dim, m.vertex_dims())
        self._buckets.setdefault(key, []).append(idx)
        return idx

    def ensure(self, m, name=None):
        idx = self.find(m)
        return self.add(m, name=name) if idx is None else idx

    def summands(self, m):
        """Registry ids of m's indecomposable summands, with multiplicity,
        in decomposition order.  Each module object is split at most once;
        a summand, and the registry module it is found as, are recorded
        as indecomposable and never split."""
        if id(m) not in self._split:
            self._split[id(m)] = (m, [self._indecomposable(piece)
                                      for piece, _ in decompose(m)])
        return self._split[id(m)][1]

    def _indecomposable(self, m):
        if id(m) not in self._split:
            idx = self.ensure(m)
            for x in (m, self.mods[idx]):
                self._split[id(x)] = (x, [idx])
        return self._split[id(m)][1][0]

    def compatible(self, a, b):
        """Is the sum of items a and b support tau-rigid?  For a == b: is a
        alone and indecomposable, read from the summand record when a has
        been split.  Cached per pair; registers nothing."""
        key = (a, b) if a <= b else (b, a)
        if key not in self._compat:
            (ka, va), (kb, vb) = key
            if ka == "p":
                ok = True
            elif kb == "p":
                ok = hom_dim(cxs.proj_list(self.alg)[vb], self.mods[va]) == 0
            else:
                ma, mb = self.mods[va], self.mods[vb]
                split = self._split.get(id(ma))
                ok = hom_dim(ma, cxs.tau(mb)) == 0 and (
                    hom_dim(mb, cxs.tau(ma)) == 0 if va != vb
                    else len(split[1]) == 1 if split else is_local_endo(ma))
            self._compat[key] = ok
        return self._compat[key]

    def bits(self, items):
        out = 0
        for kind, val in items:
            out |= 1 << (val if kind == "p" else self.n + val)
        return out

    def item_at(self, bit):
        return ("p", bit) if bit < self.n else ("m", bit - self.n)

    @property
    def rigid(self):
        """Bits of the known items compatible with themselves."""
        for i in range(self._ranked, len(self.mods)):
            if self.compatible(("m", i), ("m", i)):
                self._rigid |= 1 << (self.n + i)
        self._ranked = len(self.mods)
        return self._rigid

    def mask(self, item):
        """Bits of the rigid known items compatible with item."""
        mask, covered = self._masks.get(item, (0, 0))
        if covered != self._rigid or self._ranked < len(self.mods):
            rigid = self.rigid
            new = rigid & ~covered
            for i in range(new.bit_length()):
                if new >> i & 1 and self.compatible(item, self.item_at(i)):
                    mask |= 1 << i
            self._masks[item] = (mask, rigid)
        return mask

    def pres(self, idx):
        if idx not in self._pres:
            self._pres[idx] = cxs.min_presentation(self.mods[idx])
        return self._pres[idx]

    def g_vector(self, item):
        """g = [P^0] - [P^-1] of the item's minimal presentation, counted
        per vertex; g(P_v[1]) = -e_v."""
        g = [0] * self.n
        kind, val = item
        if kind == "p":
            g[val] = -1
            return g
        cx = self.pres(val)
        for v in cx.at(0):
            g[v] += 1
        for v in cx.at(-1):
            g[v] -= 1
        return g

    def g_coords(self, obj, vec):
        """Exact coordinates of vec in the basis g(obj) of a support
        tau-tilting object, one per summand (ints, or Fractions where not
        integral).  The inverse of the g-matrix is cached per object."""
        if obj not in self._g_inv:
            self._g_inv[obj] = _exact_inverse(
                [self.g_vector(it) for it in obj])
        inv = self._g_inv[obj]
        return [sum(c * row[j] for c, row in zip(vec, inv) if c)
                for j in range(len(obj))]

    def g_signs(self, obj):
        """(bits of obj's summands where g(A) = sum of the g(P_v) has a
        positive, and where a negative, coordinate in the g-basis of obj)."""
        if obj not in self._signs:
            coords = self.g_coords(obj, [1] * self.n)
            self._signs[obj] = tuple(
                self.bits(it for it, c in zip(obj, coords) if c * sign > 0)
                for sign in (1, -1))
        return self._signs[obj]

    def proj_id(self, v):
        return self._indecomposable(cxs.proj_list(self.alg)[v])

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


def _exact_inverse(rows):
    """Inverse of a square integer matrix over Q, by Gauss-Jordan on
    fractions, with integral entries as ints; a singular matrix raises
    DomainError."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise DomainError("g-vectors of the object are not a basis")
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [[int(x) if x.denominator == 1 else x for x in row[n:]]
            for row in aug]


def canonical(items):
    """Items ('m'|'p', int) sort in registry order as plain tuples: every
    module before every shift."""
    return tuple(sorted(items))


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
    asked of a throwaway registry, whose summand ids also show a
    decomposable or repeated module.
    """
    mods = [o.module for o in objs if not o.is_shift]
    verts = [o.vertex for o in objs if o.is_shift]
    if len(set(verts)) != len(verts):
        return False
    if not mods:
        return True
    reg = Registry(mods[0].algebra)
    ids = [i for m in mods for i in reg.summands(m)]
    if len(ids) != len(mods) or len(set(ids)) != len(ids):
        return False
    return _items_support_tau_rigid(
        reg, [("m", i) for i in ids] + [("p", v) for v in verts])


def _items_support_tau_rigid(reg, items):
    """Every pair of items, each item with itself included, is
    compatible: the items are rigid and each one's mask holds them all."""
    b = reg.bits(items)
    return not b & ~reg.rigid and all(reg.mask(it) & b == b for it in items)


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------


def _cx_items(reg, cx):
    """Decompose a reduced two-term complex into registry items."""
    mod, shifted = cxs.cx_to_pair(cx)
    return [("p", v) for v in shifted] + [("m", i) for i in reg.summands(mod)]


def mutate(reg, items, k):
    """Exchange the k-th summand x of a support tau-tilting object x + U.

    U has exactly two completions (AIR Thm 2.18), so a known item outside
    x + U in the mask of every summand of U is the partner (modules first,
    in registry order), and nothing is computed.  Otherwise the partner is
    a new module: for x a module outside Fac U, the summand of the cokernel
    of the minimal left add(U)-approximation of x (AIR Thm 2.30), else the
    one of a K^b triangle over the minimal right approximation (AIR §2.4).
    """
    items = list(items)
    n = reg.n
    if not 0 <= k < n:
        raise DomainError(f"mutation index {k} is not in 0..{n - 1}")
    if len(items) != n or len(set(items)) != n:
        raise DomainError("mutation requires a support tau-tilting object")
    x = items[k]
    others = items[:k] + items[k + 1 :]
    common = reg.rigid
    for o in others:
        common &= reg.mask(o)
    b = reg.bits(items)
    if common & reg.mask(x) & b != b:  # not rigid, or not compatible
        raise DomainError("mutation requires a support tau-tilting object")
    hits = common & ~b
    if hits:
        h = hits >> n << n or hits  # the module hits, if there are any
        return canonical(others + [reg.item_at((h & -h).bit_length() - 1)])
    known = len(reg)  # a partner found below must be new
    u_mods = [reg.module(v) for kind, v in others if kind == "m"]
    if x[0] == "m" and not in_gen(direct_sum(reg.alg, u_mods)[0],
                                  reg.module(x[1])):
        tgt, beta, _ = min_left_approx(reg.module(x[1]), u_mods)
        y, _ = quotient_module(tgt, beta.image_rows())
        new = [("m", i) for i in dict.fromkeys(reg.summands(y))]
    else:
        X = item_cx(reg, x)
        u_parts = [item_cx(reg, it) for it in others]
        src, cmap, _ = cxs.min_right_approx_K(u_parts, X)
        cand = cxs.reduce_cx(cxs.shift_cx(cxs.cone(src, X, cmap), -1))
        new = _cx_items(reg, cand) if cand.is_two_term() else []
    if len(new) != 1 or new[0][0] == "p" or new[0][1] < known \
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
    items = sorted({it for obj in objs for it in obj})
    return items, objs, reg


# ---------------------------------------------------------------------------
# Bongartz and co-Bongartz completions
# ---------------------------------------------------------------------------


def completion(reg, objects, s, top=True):
    """B(S) (top) or C(S) (bottom): an end of the interval of support
    tau-tilting objects that contain a support tau-rigid set S of items.
    The g-cone of B(S) holds g(S) + eps g(A) for small eps > 0, and that of
    C(S) holds g(S) - eps g(A) (Demonet-Iyama-Jasso), so the answer is the
    one object of `objects` whose bits hold those of S and in whose g-basis
    g(A) has positive coordinates (negative for C(S)) on every summand
    outside S: the cached sign masks, read only for objects containing S."""
    want = reg.bits(s)
    hits = [obj for obj in objects if (b := reg.bits(obj)) & want == want
            and not b & ~want & ~reg.g_signs(obj)[0 if top else 1]]
    if len(hits) != 1:
        end = "Bongartz" if top else "co-Bongartz"
        raise DomainError(f"{len(hits)} objects qualify as the {end} "
                          "completion")
    return hits[0]


def g_partner(reg, top, s, x):
    """Registry id of the one summand b of top = B(S) outside S with a
    nonzero coefficient in g(x), written in the basis g(B(S)); that
    coefficient must be -1.  For x in C(S) outside S, E_S sends x to the
    shifted projective at b."""
    coords = reg.g_coords(top, reg.g_vector(x))
    hits = [(it, c) for it, c in zip(top, coords) if c and it not in s]
    if len(hits) != 1 or hits[0][1] != -1 or hits[0][0][0] != "m":
        raise DomainError("g-vector of a shifted entry is not minus one "
                          "Bongartz summand")
    return hits[0][0][1]


def g_pairing(reg, objects, s):
    """(ids of the summands of B(S) outside S, {x: g_partner of x} over the
    items x of C(S) outside S), both in registry order.  The g rule must
    pair the two sides one to one."""
    top = completion(reg, objects, s)
    pairs = {x: g_partner(reg, top, s, x)
             for x in completion(reg, objects, s, top=False) if x not in s}
    b_ids = [v for kind, v in top if (kind, v) not in s]
    if len(set(pairs.values())) != len(b_ids):
        raise DomainError("the g rule does not pair the Bongartz summands "
                          "one to one")
    return b_ids, pairs


def _rigid_items(reg, u):
    """The items of a tau-rigid module u, one per summand, sorted."""
    ids = reg.summands(u)
    items = sorted({("m", i) for i in ids})
    # tau and Hom are additive: u is tau-rigid iff its summands pairwise are
    if not _items_support_tau_rigid(reg, items):
        raise DomainError("the module is not tau-rigid")
    if len(items) != len(ids):
        raise DomainError("tau-rigid modules are basic")
    return items


def bongartz(reg, objects, u):
    """Registry ids of B(u) outside u, in registry order, for a tau-rigid
    module u: its Bongartz complement, with which u is tau-tilting.
    `objects` are every support tau-tilting object over reg."""
    s = _rigid_items(reg, u)
    return [v for kind, v in completion(reg, objects, s)
            if (kind, v) not in s]


def cobongartz(reg, objects, u):
    """(C ids, Q vertex list) of C(u) outside u, in registry order, for a
    tau-rigid module u: the modules X in Gen u with X + u tau-rigid, and
    the vertices v with Hom(P_v, u) = 0."""
    s = _rigid_items(reg, u)
    bottom = completion(reg, objects, s, top=False)
    return ([v for kind, v in bottom if kind == "m" and (kind, v) not in s],
            [v for kind, v in bottom if kind == "p"])


def complement_correspondence(reg, objects, u):
    """Pair each indecomposable Bongartz summand B_i of a tau-rigid module u
    with its co-Bongartz partner by the g rule; returns (b_ids, records),
    b_ids in registry order.

    Each record {"b": id, "case": "a"|"b", "partner": item, "middle": module}
    pairs B_i, in case "a", with a module C_i and holds the target of B_i's
    minimal left add(u)-approximation, or, in case "b", with a projective
    Q_i[1] and holds the cokernel of Q_i's minimal left
    add(B_i)-approximation.  Case "b" records come first, by vertex.
    """
    s = _rigid_items(reg, u)
    b_ids, pairs = g_pairing(reg, objects, s)
    records = []
    for x, b in pairs.items():
        if x[0] == "p":
            tgt, beta, _ = min_left_approx(cxs.proj_list(reg.alg)[x[1]],
                                           [reg.module(b)])
            coker, _ = quotient_module(tgt, beta.image_rows())
            records.append({"b": b, "case": "b", "partner": x,
                            "middle": coker})
    u_mods = [reg.module(v) for _, v in s]
    partner = {b: x for x, b in pairs.items()}
    for b in b_ids:
        if partner[b][0] == "m":
            tgt, _, _ = min_left_approx(reg.module(b), u_mods)
            records.append({"b": b, "case": "a", "partner": partner[b],
                            "middle": tgt})
    return b_ids, records

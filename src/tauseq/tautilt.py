"""Support tau-rigid objects: rigidity tests, mutation, exchange-graph
enumeration, and g-vectors, with everything about the interval of support
tau-tilting objects that contain a set S of items read off them: its top
B(S) and bottom C(S) (the Bongartz and co-Bongartz completions), and the
pairing of their summands outside S.  The same routines serve every
reduction level, given that level's registry.

Objects live in mod A together with shifted projectives (Ae_i)[1]; internally
a summand is an item ('m', registry id) or ('p', vertex index), and an object
is a tuple of items (sorted for the unordered form).  A `Core` holds the
items, their compatibility rows (whose cliques are the support tau-rigid
sets) and g-vectors: all that lookups, completions and counts read.  Its
subclass `Registry` adds the modules, tests each new pair once
(cxs.hom_to_tau), and discovers new partners by one route, the left
mutation: on the side that the sign of g(A) gives, over A or, through
the duality † of AIR Thm 2.14 (Tr X = D tau X), over A^op.
"""

import itertools
import weakref

import numpy as np

from . import complexes as cxs
from . import linalg
from .algebra import opposite
from .errors import CapExceededError, DomainError
from .modules import (decompose, dual, is_iso, is_local_endo,
                      min_left_approx, quotient_module)


class SignedObject:
    """One indecomposable summand: a module, or a shifted projective."""

    def __init__(self, module=None, vertex=None):
        if (module is None) == (vertex is None):
            raise DomainError("exactly one of module/vertex must be given")
        if module is not None and module.dim == 0:
            raise DomainError("module part of a signed object must be nonzero")
        self.module = module
        self.vertex = vertex

    is_shift = property(lambda self: self.vertex is not None)


class Core:
    """Items over n vertices, their compatibility rows and g-vectors, and no
    module: shift v is bit v, module item i bit n + i, and a subclass adds
    the modules.  A row holds the rigid items compatible with its item."""

    def __init__(self, n):
        self.n = n
        self._g_inv = {}  # object -> inverse of its g-matrix
        self._signs = {}  # object -> g(A) sign masks in its g-basis
        self._rigid = (1 << n) - 1  # every shift is rigid
        self._rows = [self._rigid] * n  # and shifts are compatible
        self._faces = {0: [1]}  # mask -> face numbers of its cliques

    rigid = property(lambda self: self._rigid)  # rigid items' bits

    def cliques(self, t):
        """The sets of t rigid items, pairwise compatible (so support
        tau-rigid, AIR §2), as canonical tuples in lexicographic order: a
        depth-first walk takes module bits ascending, then shift bits."""
        n, rows, out = self.n, self._rows, []

        def walk(prefix, free, k):
            while free.bit_count() >= k:
                h = free >> n << n or free  # the module bits, if any
                i = (h & -h).bit_length() - 1
                free ^= 1 << i
                if k == 1:
                    out.append(prefix + (self.item_at(i),))
                else:
                    walk(prefix + (self.item_at(i),), free & rows[i], k - 1)
        walk((), self.rigid, t)
        return out

    def face_numbers(self, mask):
        """[the number of k-cliques inside a mask of rigid items, k = 0, 1,
        ..]: each misses the lowest bit, or holds it and lies in its row.
        Memoized: an entry reads only rows inside its mask, so stays valid."""
        faces, low = self._faces, []
        while mask not in faces:  # peel the lowest bits to a known suffix
            low.append(mask & -mask)
            mask ^= low[-1]
        for b in reversed(low):
            link = self.face_numbers(mask & self._rows[b.bit_length() - 1])
            f, mask = faces[mask], mask | b
            faces[mask] = [x + y for x, y in itertools.zip_longest(
                f, [0] + link, fillvalue=0)]
        return faces[mask]

    def bits(self, items):
        out = 0
        for kind, val in items:
            out |= 1 << (val if kind == "p" else self.n + val)
        return out

    def item_at(self, bit):
        return ("p", bit) if bit < self.n else ("m", bit - self.n)

    def mask(self, item):
        """Bits of the rigid known items compatible with item: its row."""
        kind, val = item
        self.rigid  # a registry folds any new module, so the row is current
        return self._rows[val if kind == "p" else self.n + val]

    def g_vector(self, item):
        """g(P_v[1]) = -e_v; a subclass gives its modules' g-vectors."""
        return [-int(w == item[1]) for w in range(self.n)]

    def g_coords(self, obj, vec):
        """Coordinates of an integer vector vec in the basis g(obj) of a
        support tau-tilting object, one int per summand.  The g-matrix is
        unimodular (AIR Thm 5.1), so its inverse, cached per object, is
        integral."""
        if obj not in self._g_inv:
            self._g_inv[obj] = _integer_inverse(
                [self.g_vector(it) for it in obj])
        return (vec @ self._g_inv[obj]).tolist()

    def g_signs(self, obj):
        """(bits of obj's summands where g(A) = sum of the g(P_v) has a
        positive, and where a negative, coordinate in the g-basis of obj)."""
        if obj not in self._signs:
            coords = self.g_coords(obj, [1] * self.n)
            self._signs[obj] = tuple(
                self.bits(it for it, c in zip(obj, coords) if c * sign > 0)
                for sign in (1, -1))
        return self._signs[obj]

    def discover(self, items, k):
        """`mutate` found no known partner: a plain core has no other."""
        raise DomainError("the exchange partner is not an item of the core")


class Registry(Core):
    """The core of mod A: an iso-class registry of indecomposable modules
    with stable ids.  `rigid` folds new modules in on read, each getting
    its row of compatible rigid items (none unless rigid): every row is
    current whenever it returns."""

    def __init__(self, alg):
        super().__init__(alg.idempotents.shape[0])
        self.alg = alg
        self.mods = []
        self.names = []
        self._buckets = {}
        self._split = weakref.WeakKeyDictionary()  # module -> summand ids
        self._op = None  # the registry over A^op
        self._dagger = weakref.WeakKeyDictionary()  # registry -> {item: †}

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
        dims = ",".join(str(d) for d in m.vertex_dims())
        return next((name for name, x in cxs.vertex_modules(self.alg).items()
                     if is_iso(m, x)), f"M({dims})")

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
        if m not in self._split:
            self._split[m] = [self._indecomposable(piece)
                              for piece, _ in decompose(m)]
        return self._split[m]

    def _indecomposable(self, m):
        if m not in self._split:
            idx = self.ensure(m)
            for x in (m, self.mods[idx]):
                self._split[x] = [idx]
        return self._split[m][0]

    def compatible(self, a, b):
        """Is the sum of items a and b support tau-rigid?  Read off a row
        when both are folded and rigid, else tested, uncached: modules need
        Hom(a, tau b) = Hom(b, tau a) = 0 (cxs.hom_to_tau), and a == b
        indecomposable, read from its summand record once split; P_v[1]
        needs (dim a)_v = 0.  Registers nothing."""
        (ka, va), (kb, vb) = (a, b) if a <= b else (b, a)
        ia, ib = va + self.n * (ka == "m"), vb + self.n * (kb == "m")
        if self._rigid >> ia & self._rigid >> ib & 1:
            return bool(self._rows[ia] >> ib & 1)
        if kb == "p":  # shifts sort last, so ka == "p" pairs two shifts
            return ka == "p" or self.mods[va].vertex_dims()[vb] == 0
        ma, mb = self.mods[va], self.mods[vb]
        split = self._split.get(ma)
        return cxs.hom_to_tau(ma, mb) == 0 and (
            cxs.hom_to_tau(mb, ma) == 0 if va != vb
            else len(split) == 1 if split is not None else is_local_endo(ma))

    @property
    def rigid(self):
        """Bits of the known items compatible with themselves, once every
        module registered since the last call has its row."""
        rows = self._rows
        while len(rows) < self.n + len(self.mods):
            x, bit = self.item_at(len(rows)), 1 << len(rows)
            rows.append(0)
            if self.compatible(x, x):
                for i in range(len(rows) - 1):
                    if self._rigid >> i & 1 and self.compatible(
                            self.item_at(i), x):
                        rows[i] |= bit
                        rows[-1] |= 1 << i
                rows[-1] |= bit
                self._rigid |= bit
        return self._rigid

    def g_vector(self, item):
        """g = [P^0] - [P^-1] of a module's minimal presentation, counted
        per vertex (cxs.g_vector); a shift's from the core."""
        return list(cxs.g_vector(self.mods[item[1]])) if item[0] == "m" \
            else super().g_vector(item)

    def discover(self, items, k):
        """The new module partner of the k-th summand x of a support
        tau-tilting T = x + U.  Where g(A) is positive at x in the g-basis of
        T (`g_signs`), x is a module outside Fac U: the partner is a summand
        of the cokernel of x's minimal left add(U)-approximation (AIR Thm
        2.30).  Else the exchange is a left one over A^op: the duality †
        (`dagger`, AIR Thm 2.14) reverses the order and negates g-vectors,
        so the partner is the image of x†'s left partner in T†, and x† must
        read on the left side there."""
        x, others = items[k], items[:k] + items[k + 1 :]
        known = len(self)  # a partner found below must be new
        if self.g_signs(tuple(items))[0] & self.bits([x]):
            u_mods = [self.mods[v] for kind, v in others if kind == "m"]
            tgt, beta, _ = min_left_approx(self.mods[x[1]], u_mods)
            y = quotient_module(tgt, beta.image_rows())[0]
            new = [("m", i) for i in dict.fromkeys(self.summands(y))]
        else:
            op = self.opposite()
            dual = [self.dagger(it, op) for it in items]
            obj = canonical(dual)
            if not op.g_signs(obj)[0] & op.bits([dual[k]]):
                raise DomainError("the dual exchange is not a left mutation")
            new = [op.dagger(it, self) for it in
                   mutate(op, obj, obj.index(dual[k])) if it not in obj]
        if len(new) != 1 or new[0][0] == "p" or new[0][1] < known \
                or not _items_support_tau_rigid(self, new + others):
            raise DomainError("mutation failed to produce an exchange partner")
        return canonical(others + new)

    def opposite(self):
        """The registry over A^op, built on first use; its opposite is this
        one."""
        if self._op is None:
            self._op = Registry(opposite(self.alg))
            self._op._op = self
        return self._op

    def dagger(self, item, other):
        """The image of an item under † in other, the registry over A^op: Tr X
        = D tau X for a non-projective module X (Auslander-Reiten-Smalø
        §IV.1), P_v[1] for P_v, and the projective at v for P_v[1].  Tr Tr X
        = X, so the same rule maps back, and g(x†) = -g(x).  Each item is
        mapped once per pair of registries, and its image maps back to it."""
        memo = self._dagger.setdefault(other, {})
        if item not in memo:
            kind, v = item
            if kind == "p":
                memo[item] = ("m", other.proj_id(v))
            elif not cxs.presentation(self.mods[v]).at(-1):  # P_v
                memo[item] = ("p", cxs.presentation(self.mods[v]).at(0)[0])
            else:
                memo[item] = ("m", other._indecomposable(
                    dual(cxs.tau(self.mods[v]))))
            other._dagger.setdefault(self, {})[memo[item]] = item
        return memo[item]

    def proj_id(self, v):
        return self._indecomposable(cxs.proj_list(self.alg)[v])

    def realize(self, item):
        """(module, shift flag) of an item: (P_v, True) for P_v[1]."""
        kind, val = item
        return (self.mods[val], False) if kind == "m" \
            else (cxs.proj_list(self.alg)[val], True)

    def display_item(self, item):
        kind, val = item
        return self.name(val) if kind == "m" \
            else f"{self.name(self.proj_id(val))}[1]"

    def item_signed(self, item):
        kind, val = item
        return SignedObject(module=self.mods[val]) if kind == "m" \
            else SignedObject(vertex=val)

    def signed_item(self, so):
        return ("p", so.vertex) if so.is_shift \
            else ("m", self.ensure(so.module))


def _integer_inverse(rows):
    """Inverse of a square integer matrix with an integral inverse: the
    F_p inverse (the identity's coordinates in the rows, None when they
    do not span) lifted to (-p/2, p/2), checked exactly in int64.  Any
    other matrix raises DomainError."""
    p = linalg.DEFAULT_PRIME
    g = np.array(rows, dtype=np.int64)
    eye = np.eye(len(g), dtype=np.int64)
    inv = linalg.SpanSolver(g, p).coords(eye)
    if inv is not None:
        inv = np.where(inv > p // 2, inv - p, inv)
        if np.array_equal(g @ inv, eye):
            return inv
    raise DomainError("g-vectors of the object are not a basis")


def canonical(items):
    """Items ('m'|'p', int) sort in registry order as plain tuples: every
    module before every shift."""
    return tuple(sorted(items))


# ---------------------------------------------------------------------------
# rigidity predicates
# ---------------------------------------------------------------------------


def is_tau_rigid(m):
    """Hom(m, tau m) = 0 (cxs.hom_to_tau); the zero module counts."""
    return cxs.hom_to_tau(m, m) == 0


def is_support_tau_rigid(objs):
    """Check a list of SignedObjects: basic, indecomposable, and rigid.

    Hom(M, tau M') = 0 for module summands M, M' (M = M' included) and
    Hom(P, M') = 0 for shifts P[1] are pairwise, as tau and Hom are
    additive, so they are asked of a throwaway registry, whose summand ids
    also show a decomposable or repeated module.
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
    compatible: each one's row, empty unless it is rigid, holds them all."""
    b = reg.bits(items)
    return all(reg.mask(it) & b == b for it in items)


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------


def mutate(reg, items, k):
    """Exchange the k-th summand x of a support tau-tilting object x + U.

    U has exactly two completions (AIR Thm 2.18), so a known item outside
    x + U in the row of every summand of U is the partner (modules first,
    in registry order), read off the core.  Else `reg.discover` finds a new
    one (a registry) or refuses (a plain core).
    """
    items = list(items)
    n = reg.n
    if not 0 <= k < n:
        raise DomainError(f"mutation index {k} is not in 0..{n - 1}")
    common, rows = reg.rigid, reg._rows  # rigid brings every row up to date
    size, b = len(rows), 0
    for i, (kind, v) in enumerate(items):
        bit = n + v if kind == "m" else v if kind == "p" and v < n else -1
        if v < 0 or not 0 <= bit < size:  # not an item the registry holds
            raise DomainError("mutation requires a support tau-tilting object")
        b |= 1 << bit
        if i != k:  # U's rows must hold x
            common &= rows[bit]
    if len(items) != n or b.bit_count() != n or common & b != b:
        raise DomainError("mutation requires a support tau-tilting object")
    hits = common & ~b
    if hits:
        h = hits >> n << n or hits  # the module hits, if there are any
        items[k] = reg.item_at((h & -h).bit_length() - 1)
        items.sort()  # canonical(items), without a second copy
        return tuple(items)
    return reg.discover(items, k)


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
    for cur in queue:  # FIFO: the loop reads what it appends
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


def completion(reg, s, top=True):
    """B(S) (top) or C(S) (bottom): an end of the interval of support
    tau-tilting objects that contain a support tau-rigid set S of items.
    A greedy maximal clique of the rows over S, modules first for B(S) and
    shifts first for C(S), is an object once the registry holds every item
    (AIR §2).  g(A) has positive coordinates in the g-basis of B(S), and
    negative ones in that of C(S), on every summand outside S
    (Demonet-Iyama-Jasso).  A summand with the other sign is exchanged by
    `mutate`, a step up (negative) or down (positive) in the finite
    interval, whose one top (bottom) has no such summand: the walk ends."""
    n, want = reg.n, reg.bits(s)
    free, rows, obj = reg.rigid & ~want, reg._rows, list(s)
    for it in s:
        free &= reg.mask(it)
    while free:  # take the lowest bit on the wanted side
        h = (free >> n << n or free) if top else (free & (1 << n) - 1 or free)
        i = (h & -h).bit_length() - 1
        obj.append(reg.item_at(i))
        free &= rows[i] & ~(1 << i)
    obj = canonical(obj)
    if len(obj) != n or not _items_support_tau_rigid(reg, obj):
        raise DomainError("the items have no support tau-tilting completion")
    # g_signs is (positive, negative): B(S) exchanges the negative summands
    while wrong := reg.bits(obj) & ~want & reg.g_signs(obj)[top]:
        obj = mutate(reg, obj, obj.index(reg.item_at(
            (wrong & -wrong).bit_length() - 1)))
    return obj


def g_pairing(reg, s):
    """(ids of the summands of B(S) outside S, {x: b} over the items x of
    C(S) outside S), both in registry order: b is the one summand of B(S)
    outside S with a nonzero coefficient in g(x), written in the basis
    g(B(S)), and that coefficient must be -1; E_S sends x to the shifted
    projective at b.  The g rule must pair the two sides one to one."""
    top, pairs = completion(reg, s), {}
    for x in completion(reg, s, top=False):
        if x in s:
            continue
        hits = [(it, c) for it, c in zip(top, reg.g_coords(
            top, reg.g_vector(x))) if c and it not in s]
        if len(hits) != 1 or hits[0][1] != -1 or hits[0][0][0] != "m":
            raise DomainError("g-vector of a shifted entry is not minus one "
                              "Bongartz summand")
        pairs[x] = hits[0][0][1]
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


def bongartz(reg, u):
    """Registry ids of B(u) outside u, in registry order, for a tau-rigid
    module u: its Bongartz complement, with which u is tau-tilting."""
    s = _rigid_items(reg, u)
    return [v for kind, v in completion(reg, s) if (kind, v) not in s]


def cobongartz(reg, u):
    """(C ids, Q vertex list) of C(u) outside u, in registry order, for a
    tau-rigid module u: the modules X in Gen u with X + u tau-rigid, and
    the vertices v with Hom(P_v, u) = 0."""
    s = _rigid_items(reg, u)
    bottom = completion(reg, s, top=False)
    return ([v for kind, v in bottom if kind == "m" and (kind, v) not in s],
            [v for kind, v in bottom if kind == "p"])


def complement_correspondence(reg, u):
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
    b_ids, pairs = g_pairing(reg, s)
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

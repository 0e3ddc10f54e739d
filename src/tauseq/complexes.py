"""Bounded complexes of projectives and the two-term homotopy category.

A complex is stored degree-by-degree: each degree holds a list of vertex
indices (summands A e_i), and each differential is an entry tensor whose
(r, c) slot is an algebra element x in e_a A e_b giving the map
A e_a -> A e_b, m -> m * x (a = source summand vertex, b = target summand
vertex).  Composition of entry maps is plain algebra multiplication with the
first-applied entry on the left: phi_y . phi_x = phi_{x*y}.

Provides Hom spaces in the homotopy category (including shifted ones),
endomorphism rings of two-term objects, minimal left and right
approximations in the homotopy category, minimal presentations (cached on
the module) and g-vectors, Hom(y, tau x) by one rank on x's presentation,
the AR translate itself (for the tau command and for Tr = D tau, read at
the pivots of the injectives' RREF bases), and Ext^1.  An empty
degree is the zero direct sum, so no route branches on it, and Cx alone
normalizes a complex.  Exchange partners come from module-level
approximations (tautilt), not from triangles of these complexes.
"""

import functools

import numpy as np

from . import linalg
from .algebra import StructAlgebra, block_terms
from .errors import DomainError
from .modules import (ModuleMap, direct_sum, hom_basis, injective_module,
                      projective_module, right_mult_module_map, submodule,
                      top_quotient)


def proj_list(alg):
    """Indecomposable projectives A e_i, cached on the algebra."""
    if not hasattr(alg, "_tauseq_projs"):
        alg._tauseq_projs = [projective_module(alg, i)
                             for i in range(alg.idempotents.shape[0])]
    return alg._tauseq_projs


def simple_list(alg):
    """Simple modules, the tops of the cached projectives, cached on the
    algebra."""
    if not hasattr(alg, "_tauseq_simples"):
        alg._tauseq_simples = [top_quotient(pm)[0] for pm in proj_list(alg)]
    return alg._tauseq_simples


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


class Cx:
    """A bounded complex of projective left modules.

    Attributes:
        algebra: the StructAlgebra.
        comps: dict degree -> list of vertex indices.
        diffs: dict degree k -> entry tensor of d^k : C^k -> C^{k+1}, with
            shape (len(comps[k+1]), len(comps[k]), algebra.dim).
    """

    def __init__(self, algebra, comps, diffs, check=True):
        self.algebra = algebra
        self.comps = {k: list(v) for k, v in comps.items() if v}
        self.diffs = {}
        for k, t in diffs.items():
            nr = len(self.comps.get(k + 1, ()))
            nc = len(self.comps.get(k, ()))
            if nr and nc:
                t = linalg.asmod(t, algebra.p)
                if t.shape != (nr, nc, algebra.dim):
                    raise DomainError("differential tensor shape mismatch")
                self.diffs[k] = t
        if check:
            self._validate()

    def at(self, k):
        return self.comps.get(k, [])

    def diff(self, k):
        if k in self.diffs:
            return self.diffs[k]
        return tensor_zeros(self.algebra, len(self.at(k + 1)), len(self.at(k)))

    def support(self):
        return sorted(self.comps)

    def is_two_term(self):
        return all(k in (-1, 0) for k in self.support())

    def total_summands(self):
        return sum(len(v) for v in self.comps.values())

    def _validate(self):
        alg = self.algebra
        for k, t in self.diffs.items():
            for r, b in enumerate(self.at(k + 1)):
                for c, a in enumerate(self.at(k)):
                    x = t[r, c]
                    ea = alg.idempotents[a]
                    eb = alg.idempotents[b]
                    if not np.array_equal(alg.multiply(alg.multiply(ea, x), eb), x):
                        raise DomainError(
                            f"entry ({r},{c}) of d^{k} is not in its corner")
        for k in self.diffs:
            if (k + 1) in self.diffs:
                comp = entry_compose(alg, self.diff(k), self.diff(k + 1))
                if np.any(comp):
                    raise DomainError(f"d^{k+1} . d^{k} != 0")


def tensor_zeros(alg, nrows, ncols):
    return np.zeros((nrows, ncols, alg.dim), dtype=np.int64)


def entry_compose(alg, first, then):
    """Entry tensor of (then . first); first: A->B, then: B->C.

    Entry (s, c) is sum_r first[r, c] * then[s, r].  Gathering first
    through the algebra's (j, k) layers gives left[r, c, j, k], the
    coordinate at b_k of first[r, c] * b_j, with one gather per layer and
    no dense structure tensor; a product with `then` over (r, j) finishes.
    Each sum has at most (inner length) * p^2 in it.  Leading axes of
    either operand are batch axes and broadcast against each other.  An
    empty axis needs no branch: the product is then zeros of its shape.
    """
    p, d = alg.p, alg.dim
    *fb, nr, nc, _ = first.shape
    *tb, ns, _, _ = then.shape
    fb, tb = tuple(fb), tuple(tb)
    (idx, coef), *more = alg.jk_layers()
    left = first.take(idx, -1) * coef
    for idx, coef in more:
        left += first.take(idx, -1) * coef
    left = np.swapaxes((left % p).reshape(fb + (nr, nc, d, d)), -3, -2)
    out = (then.reshape(tb + (ns, nr * d)) @
           left.reshape(fb + (nr * d, nc * d))) % p  # r, j, c, k above
    return out.reshape(out.shape[:-2] + (ns, nc, d))


def direct_sum_cx(cxs):
    """Direct sum; returns (sum, offsets) with offsets[i][k] the start of
    summand i inside degree k."""
    if not cxs:
        raise DomainError("empty complex sum")
    alg = cxs[0].algebra
    comps = {}
    offsets = []
    for cx in cxs:
        off = {}
        for k, v in cx.comps.items():
            off[k] = len(comps.setdefault(k, []))
            comps[k].extend(v)
        offsets.append(off)
    diffs = {}
    degs = {k for cx in cxs for k in cx.diffs}
    for k in degs:
        t = tensor_zeros(alg, len(comps.get(k + 1, ())), len(comps.get(k, ())))
        for cx, off in zip(cxs, offsets):
            if k in cx.diffs:
                r0 = off[k + 1]
                c0 = off[k]
                d = cx.diffs[k]
                t[r0 : r0 + d.shape[0], c0 : c0 + d.shape[1]] = d
        diffs[k] = t
    return Cx(alg, comps, diffs, check=False), offsets


def concrete_map(alg, src_verts, tgt_verts, tensor):
    """Realize an entry tensor as a ModuleMap between sums of projectives."""
    projs = proj_list(alg)
    src, s_embs, _ = direct_sum(alg, [projs[v] for v in src_verts])
    tgt, t_embs, _ = direct_sum(alg, [projs[v] for v in tgt_verts])
    mat = np.zeros((tgt.dim, src.dim), dtype=np.int64)
    for r, b in enumerate(tgt_verts):
        for c, a in enumerate(src_verts):
            block = right_mult_module_map(projs[a], projs[b], tensor[r, c])
            mat = (mat + t_embs[r] @ block.matrix @ s_embs[c].T) % alg.p
    return src, tgt, ModuleMap(src, tgt, mat)


class EntrySpace:
    """Coordinates for block tensors whose (r, c) entry lives in the corner
    e_{src[c]} A e_{tgt[r]}.

    Corner bases are in RREF, so an entry's coordinates are its values at
    the pivot columns: to_vec gathers them, from_vec multiplies by the
    stacked block basis.  Both take leading batch axes; `basis` holds the
    tensor of every basis vector.
    """

    def __init__(self, alg, src_verts, tgt_verts):
        self.alg = alg
        self.src = list(src_verts)
        self.tgt = list(tgt_verts)
        nt, ns, d = len(self.tgt), len(self.src), alg.dim
        slots = [(r * ns + c, alg.corner(a, b))
                 for r, b in enumerate(self.tgt) for c, a in enumerate(self.src)]
        self.dim = sum(len(pivots) for _, (_, pivots) in slots)
        block = np.zeros((self.dim, nt * ns, d), dtype=np.int64)
        gather = [np.zeros(0, dtype=np.int64)]
        off = 0
        for slot, (basis, pivots) in slots:
            block[off : off + len(pivots), slot] = basis
            gather.append(slot * d + pivots)
            off += len(pivots)
        self.shape = (nt, ns, d)
        self.basis = block.reshape((self.dim,) + self.shape)
        self.block = block.reshape(self.dim, nt * ns * d)
        self.gather = np.concatenate(gather)

    def to_vec(self, tensor):
        tensor = linalg.asmod(tensor, self.alg.p)
        flat = tensor.reshape(tensor.shape[:-3] + (self.block.shape[1],))
        vec = flat[..., self.gather]
        if ((vec @ self.block) % self.alg.p != flat).any():
            raise DomainError("tensor entry lies outside its corner")
        return vec

    def from_vec(self, vec):
        out = (vec @ self.block) % self.alg.p
        return out.reshape(out.shape[:-1] + self.shape)


# ---------------------------------------------------------------------------
# chain maps
# ---------------------------------------------------------------------------


def compose_chain(alg, first, then):
    """Per-degree composition of chain maps given as dicts deg -> tensor."""
    out = {}
    for k, t in first.items():
        if k in then:
            out[k] = entry_compose(alg, t, then[k])
    return out


# ---------------------------------------------------------------------------
# Hom in the homotopy category (two-term objects)
# ---------------------------------------------------------------------------


class HomK:
    """Hom of two-term complexes in the homotopy category.

    cycles and h_count are the dimensions of the chain maps and of the
    null-homotopic ones among them, so dim = cycles - h_count.  rep_vecs
    (representatives (f0, fm1)) and the solver behind coords() (coordinates
    modulo null-homotopic maps) are built on first use.
    """

    def __init__(self, X, Y):
        alg = X.algebra
        self.alg = alg
        self.X = X
        self.Y = Y
        p = alg.p
        self.es0 = EntrySpace(alg, X.at(0), Y.at(0))
        self.esm = EntrySpace(alg, X.at(-1), Y.at(-1))
        self.escross = EntrySpace(alg, X.at(-1), Y.at(0))
        self.eshtp = EntrySpace(alg, X.at(0), Y.at(-1))
        n0, nm = self.es0.dim, self.esm.dim
        total = n0 + nm
        dX = X.diff(-1)
        dY = Y.diff(-1)
        if total == 0:
            zrows = np.zeros((0, 0), dtype=np.int64)
        elif self.escross.dim == 0:
            zrows = np.eye(total, dtype=np.int64)
        else:
            # chain maps: the pairs (f0, fm) with f0 . dX = dY . fm
            cond = np.concatenate([
                self.escross.to_vec(entry_compose(alg, dX, self.es0.basis)),
                self.escross.to_vec(-entry_compose(alg, self.esm.basis, dY))])
            zrows = linalg.kernel_basis(cond.T, p)
        hstack = np.zeros((0, total), dtype=np.int64)
        if total and self.eshtp.dim:
            # null-homotopic ones: (dY . h, h . dX) for h: X^0 -> Y^{-1}
            h = self.eshtp.basis
            hstack = np.concatenate(
                [self.es0.to_vec(entry_compose(alg, h, dY)),
                 self.esm.to_vec(entry_compose(alg, dX, h))], axis=1)
        self._hspan, self._zrows = linalg.row_space(hstack, p), zrows
        self.h_count = self._hspan.shape[0]
        self.cycles = zrows.shape[0]
        self.dim = self.cycles - self.h_count
        self.total = total

    @functools.cached_property
    def rep_vecs(self):
        return self._zrows[linalg.extend_basis(self._hspan, self._zrows,
                                               self.alg.p)]

    @functools.cached_property
    def _solver(self):
        return linalg.SpanSolver(np.vstack([self._hspan, self.rep_vecs]),
                                 self.alg.p)

    def rep_tensor(self, i):
        return self._split(self.rep_vecs[i])

    def _split(self, v):
        """Chain map(s) of coordinate vector(s) v over es0 ++ esm."""
        n0 = self.es0.dim
        return {0: self.es0.from_vec(v[..., :n0]),
                -1: self.esm.from_vec(v[..., n0:])}

    def vec_of(self, cmap):
        f0 = cmap.get(0)
        fm = cmap.get(-1)
        if f0 is None:
            f0 = tensor_zeros(self.alg, len(self.Y.at(0)), len(self.X.at(0)))
        if fm is None:
            fm = tensor_zeros(self.alg, len(self.Y.at(-1)), len(self.X.at(-1)))
        return np.concatenate([self.es0.to_vec(f0), self.esm.to_vec(fm)],
                              axis=-1)

    def coords(self, cmap):
        """Coordinates of chain map(s) modulo homotopy; leading axes of the
        tensors are batch axes."""
        vec = self.vec_of(cmap)
        if self.total == 0:
            return np.zeros(vec.shape[:-1] + (0,), dtype=np.int64)
        c = self._solver.coords(vec)
        if c is None:
            raise DomainError("not a chain map modulo homotopy")
        return c[..., self.h_count :]


def hom_K_dim(X, Y, shift=0):
    """dim Hom(X, Y[shift]) in the homotopy category; X, Y two-term.  Every
    shift is read off HomK(X, Y): shift 1 is the cokernel of the chain
    condition es0 + esm -> escross, shift -1 the kernel of the homotopy map
    h -> (dY h, h dX) out of eshtp, and |shift| >= 2 leaves no degree."""
    if not (X.is_two_term() and Y.is_two_term()):
        raise DomainError("hom_K_dim expects two-term complexes")
    h = HomK(X, Y)
    return {0: h.dim, 1: h.escross.dim - h.total + h.cycles,
            -1: h.eshtp.dim - h.h_count}.get(shift, 0)


# ---------------------------------------------------------------------------
# presentations, H^0, tau, Ext^1
# ---------------------------------------------------------------------------


def _generator_rows(m, rows):
    """Generators of the stable span of the RREF rows inside m, as (vector
    in m, vertex), sorted by vertex: one per top basis element of the span.

    The candidates are the nonzero e_i b over the rows b, by (vertex, row).
    They span the span, so the greedy extension of its radical, spanned by
    the nonzero g b over the generators g past the idempotents (unreduced:
    only their span counts), picks a basis of its top, each in one e_i of
    it.  A linear dependence holds in m as in the span: these are the
    span's own generators, mapped into m.
    """
    n, p = m.algebra.idempotents.shape[0], m.algebra.p
    images = (rows @ m.gen_actions().transpose(0, 2, 1)) % p
    verts, ks = np.nonzero(images[:n].any(axis=2))
    cands, rad = images[verts, ks], np.concatenate([rows[:0], *images[n:]])
    return [(cands[j], int(verts[j])) for j in linalg.extend_basis(
        rad[rad.any(axis=1)], cands, p)]


def min_presentation(m):
    """Minimal projective presentation of m as a two-term complex; the
    generators of the syzygy are read off its RREF basis in P^0."""
    alg = m.algebra
    p = alg.p
    projs = proj_list(alg)
    gens = _generator_rows(m, np.eye(m.dim, dtype=np.int64))
    zer = [i for _, i in gens]
    p0, embs, _ = direct_sum(alg, [projs[i] for i in zer])
    # column c of generator g's block is amb_basis[c] acting on g; reducing
    # between the two products keeps every int64 sum exact
    flat = m.action.reshape(alg.dim, -1)
    blocks = [((((projs[i].amb_basis @ flat) % p).reshape(-1, m.dim) @ g)
               % p).reshape(-1, m.dim).T for g, i in gens]
    cover = ModuleMap(p0, m, np.concatenate(
        [np.zeros((m.dim, 0), dtype=np.int64)] + blocks, axis=1))
    ker_rows = linalg.row_space(cover.kernel_rows(), p)
    if p0.dim - len(ker_rows) != m.dim:
        raise DomainError("projective cover is not onto")
    kgens = _generator_rows(p0, ker_rows)
    neg = [i for _, i in kgens]
    # a generator at vertex i lies in e_i K, so its component in P_vert
    # already lies in e_i A e_vert
    inside = np.array([g for g, _ in kgens], dtype=np.int64).reshape(
        len(neg), p0.dim).T
    diff = tensor_zeros(alg, len(zer), len(neg))
    for r, (emb, vert) in enumerate(zip(embs, zer)):
        diff[r] = ((projs[vert].amb_basis.T @ (emb.T @ inside % p)) % p).T
    return Cx(alg, {-1: neg, 0: zer}, {-1: diff}, check=False)


def presentation(m):
    """min_presentation(m), cached on m."""
    if not hasattr(m, "_tauseq_pres"):
        m._tauseq_pres = min_presentation(m)
    return m._tauseq_pres


def g_vector(m):
    """g = [P^0] - [P^-1] of m's minimal presentation, counted per vertex;
    a tuple, cached on m."""
    if not hasattr(m, "_tauseq_g"):
        pres, n = presentation(m), m.algebra.idempotents.shape[0]
        m._tauseq_g = tuple((np.bincount(pres.at(0), minlength=n) -
                             np.bincount(pres.at(-1), minlength=n)).tolist())
    return m._tauseq_g


def hom_to_tau(y, x):
    """dim Hom(y, tau x) by one rank, with no tau x and no Hom system:
    Hom(P^0, y) -> Hom(P^-1, y) -> D Hom(y, tau x) -> 0 is exact for x's
    minimal presentation d (Adachi-Iyama-Reiten, Prop 2.4).  Hom(P_b, y) =
    e_b y and m -> m t sends v to t v, so Hom(d, y) is y's action on d's
    entries; dropping zero rows and columns keeps its rank in any basis."""
    neg, p = presentation(x).at(-1), y.algebra.p
    if not neg or not y.dim:
        return 0
    mat = np.einsum("rci,iab->carb", presentation(x).diff(-1), y.action)
    mat = mat.reshape(len(neg) * y.dim, -1) % p
    mat = mat[mat.any(axis=1)][:, mat.any(axis=0)]
    return sum(y.vertex_dims()[a] for a in neg) - (
        linalg.rank(mat, p) if mat.size else 0)


def inj_list(alg):
    """Indecomposable injectives I_j, cached on the algebra."""
    if not hasattr(alg, "_tauseq_injs"):
        alg._tauseq_injs = [injective_module(alg, j)
                            for j in range(alg.idempotents.shape[0])]
    return alg._tauseq_injs


def vertex_modules(alg):
    """{name: module}: every P<label>, then every S<label>, then every
    I<label>, the order in which a module takes the first name it is
    isomorphic to."""
    return {f"{prefix}{label}": x for prefix, mods in (
        ("P", proj_list), ("S", simple_list), ("I", inj_list))
        for label, x in zip(alg.vertex_labels, mods(alg))}


def tau(m):
    """AR translate of m: the kernel of nu applied to its cached minimal
    presentation.  nu sends the entry x in e_a A e_b of the differential to
    the map I_a -> I_b whose column w holds the coordinates of
    x * amb_rows_b[w] on I_a's RREF amb_rows, read at their pivots (each
    row's first nonzero column), written in place: nu(P^0) is not built.
    amb_rows is the basis of e_a A of the A^op projective that I_a is D of.
    With no P^-1 the empty sum gives the zero kernel."""
    alg, p = m.algebra, m.algebra.p
    pres = presentation(m)
    neg, zer = pres.at(-1), pres.at(0)
    injs = inj_list(alg)
    nsrc = direct_sum(alg, [injs[v] for v in neg])[0]
    ro, co = (np.cumsum([0] + [injs[v].dim for v in vs]) for vs in (zer, neg))
    mat = np.zeros((ro[-1], co[-1]), dtype=np.int64)
    d = pres.diff(-1)
    for r, b in enumerate(zer):
        for c, a in enumerate(neg):
            if np.any(d[r, c]):
                piv = (injs[a].amb_rows != 0).argmax(axis=1)
                mat[ro[r] : ro[r + 1], co[c] : co[c + 1]] = ((
                    alg.left_mult_matrix(d[r, c]) @ injs[b].amb_rows.T)
                    % p)[piv].T
    return submodule(nsrc, linalg.kernel_basis(mat, p))[0]


def ext1_dim(m, n):
    """dim Ext^1(m, n), via the syzygy of a minimal presentation P^-1 ->
    P^0, the image of its differential: the maps om -> n modulo those that
    extend to P^0.  A zero m, n or syzygy gives no map, so 0."""
    pres = presentation(m)
    _, p0, d = concrete_map(m.algebra, pres.at(-1), pres.at(0), pres.diff(-1))
    om, om_incl = submodule(p0, d.image_rows())
    rows = [h @ om_incl.matrix for h in hom_basis(p0, n)]
    return len(hom_basis(om, n)) - linalg.rank(
        np.reshape(rows, (len(rows), n.dim * om.dim)), m.algebra.p)


# ---------------------------------------------------------------------------
# End rings and minimal left and right approximations in the homotopy
# category
# ---------------------------------------------------------------------------


class EndKData:
    def __init__(self, total, homk, struct):
        self.total = total
        self.homk = homk
        self.struct = struct


def _block_cmap(alg, total, offsets, cxs, j):
    """The idempotent chain map of block j inside the direct sum."""
    out = {}
    for k, verts in total.comps.items():
        t = tensor_zeros(alg, len(verts), len(verts))
        if k in cxs[j].comps:
            off = offsets[j][k]
            for i, v in enumerate(cxs[j].at(k)):
                t[off + i, off + i] = alg.idempotents[v]
        out[k] = t
    return out


def end_K(cxs):
    """End ring of a direct sum of two-term complexes, with the opposite
    product so Hom(total, -) spaces become left modules."""
    alg = cxs[0].algebra
    p = alg.p
    total, offsets = direct_sum_cx(cxs)
    homk = HomK(total, total)
    d = homk.dim
    if d == 0:
        raise DomainError("End ring of a zero object")
    reps = homk._split(homk.rep_vecs)
    blocks = []
    for i in range(d):
        # row j: coordinates of reps[i] first, then reps[j], for every j
        first = {k: t[i] for k, t in reps.items()}
        blocks.append(homk.coords(compose_chain(alg, first, reps)))
    idem = []
    for j in range(len(cxs)):
        idem.append(homk.coords(_block_cmap(alg, total, offsets, cxs, j)))
    # the identity of the sum is the sum of its block idempotents
    unit = np.sum(idem, axis=0) % p
    struct = StructAlgebra(p, [f"k{i}" for i in range(d)], block_terms(blocks),
                           np.array(idem), unit=unit, check=False)
    return EndKData(total, homk, struct), offsets


def _cmap_from_coords(homk, coords):
    """Chain map(s) with the given coordinates on homk's representatives."""
    return homk._split((coords @ homk.rep_vecs) % homk.alg.p)


def _outer(cmaps, axis):
    """A batch of chain maps as axis 0 or 1 of a two-axis outer batch."""
    return {k: (t[:, None] if axis == 0 else t[None]) for k, t in cmaps.items()}


def _min_approx_K(X, cxs, right):
    """Minimal right (sum -> X) or left (X -> sum) approximation of X by
    sums of the given two-term complexes, inside the homotopy category.

    Blocks are cut from tensors oriented as X <- sum; a left map's tensors
    are transposed for that and transposed back at the end.
    Returns (the sum, chain map dict, list of indices used).
    """
    alg = X.algebra
    p = alg.p
    empty = Cx(alg, {}, {}, check=False), {}, []
    cxs = [c for c in cxs if c.total_summands()]
    if not cxs:
        return empty
    (end, offsets) = end_K(cxs)
    homk = HomK(end.total, X) if right else HomK(X, end.total)
    if homk.dim == 0:
        return empty

    def compose(e, f):
        # f after the End(sum) element e on the right side, e after f on
        # the left side
        return compose_chain(alg, e, f) if right else compose_chain(alg, f, e)

    def turn(t):
        return t if right else t.swapaxes(0, 1)

    rad = _cmap_from_coords(end.homk, end.struct.radical_rows())
    idem = _cmap_from_coords(end.homk, end.struct.idempotents)
    hom = homk._split(homk.rep_vecs)
    # every f composed with every r, and with each block idempotent
    rad_vecs = homk.coords(compose(_outer(rad, 1), _outer(hom, 0)))
    cands = compose(_outer(idem, 0), _outer(hom, 1))
    vecs = homk.coords(cands)
    kept = [np.unravel_index(i, vecs.shape[:2]) for i in linalg.extend_basis(
        rad_vecs.reshape(-1, homk.dim), vecs.reshape(-1, homk.dim), p)]
    # kept is nonempty: Hom = Hom.rad would force Hom = 0 (Nakayama)
    used = [j for j, _ in kept]
    summ, s_offsets = direct_sum_cx([cxs[j] for j in used])
    cmap = {}
    for k in (-1, 0):
        t = tensor_zeros(alg, len(X.at(k)), len(summ.at(k)))
        for idx, (j, f) in enumerate(kept):
            if k in cxs[j].comps:
                n = len(cxs[j].at(k))
                off, s_off = offsets[j][k], s_offsets[idx][k]
                part = turn(cands[k][j, f])
                t[:, s_off : s_off + n] = part[:, off : off + n]
        cmap[k] = turn(t)
    return summ, cmap, used


def min_right_approx_K(cxs, X):
    """Minimal right approximation of X by sums of the given two-term
    complexes: (source complex, chain map to X, list of indices used)."""
    return _min_approx_K(X, cxs, right=True)


def min_left_approx_K(X, cxs):
    """Minimal left approximation of X by sums of the given two-term
    complexes: (target complex, chain map from X, list of indices used)."""
    return _min_approx_K(X, cxs, right=False)

"""Bounded complexes of projectives and the two-term homotopy category.

A complex is stored degree-by-degree: each degree holds a list of vertex
indices (summands A e_i), and each differential is an entry tensor whose
(r, c) slot is an algebra element x in e_a A e_b giving the map
A e_a -> A e_b, m -> m * x (a = source summand vertex, b = target summand
vertex).  Composition of entry maps is plain algebra multiplication with the
first-applied entry on the left: phi_y . phi_x = phi_{x*y}.

Provides Gaussian reduction to minimal complexes, cones and shifts, Hom
spaces in the homotopy category (including shifted ones), endomorphism rings
of two-term objects, minimal left and right approximations in the homotopy
category, minimal projective presentations, the AR translate, and Ext^1.
"""

import numpy as np

from . import linalg
from .algebra import StructAlgebra, block_terms
from .errors import DomainError
from .modules import (ModuleMap, direct_sum, hom_basis, identity_map,
                      injective_module, projective_module, quotient_module,
                      right_mult_module_map, submodule, top_quotient,
                      zero_module)


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
    either operand are batch axes and broadcast against each other.
    """
    p, d = alg.p, alg.dim
    *fb, nr, nc, _ = first.shape
    *tb, ns, _, _ = then.shape
    fb, tb = tuple(fb), tuple(tb)
    if first.size == 0 or then.size == 0:
        return np.zeros(np.broadcast_shapes(fb, tb) + (ns, nc, d),
                        dtype=np.int64)
    (idx, coef), *more = alg.jk_layers()
    left = first.take(idx, -1) * coef
    for idx, coef in more:
        left += first.take(idx, -1) * coef
    left = np.swapaxes((left % p).reshape(fb + (nr, nc, d, d)), -3, -2)
    out = (then.reshape(tb + (ns, nr * d)) @
           left.reshape(fb + (nr * d, nc * d))) % p  # r, j, c, k above
    return out.reshape(out.shape[:-2] + (ns, nc, d))


def shift_cx(cx, s):
    """cx[s]: degree k holds what was in degree k + s; odd shifts flip signs."""
    comps = {k - s: v for k, v in cx.comps.items()}
    sign = -1 if s % 2 else 1
    diffs = {k - s: (sign * t) % cx.algebra.p for k, t in cx.diffs.items()}
    return Cx(cx.algebra, comps, diffs, check=False)


def stalk_cx(alg, verts, degree=0):
    return Cx(alg, {degree: list(verts)}, {}, check=False)


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


def cx_concrete(cx, k):
    projs = proj_list(cx.algebra)
    mod, _, _ = direct_sum(cx.algebra, [projs[v] for v in cx.at(k)])
    return mod


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
# Gaussian reduction
# ---------------------------------------------------------------------------


def _invertible_entry(cx):
    alg = cx.algebra
    for k in sorted(cx.diffs):
        t = cx.diffs[k]
        for r, b in enumerate(cx.at(k + 1)):
            for c, a in enumerate(cx.at(k)):
                if not np.any(t[r, c]):
                    continue
                projs = proj_list(alg)
                if projs[a].dim != projs[b].dim:
                    continue
                mat = right_mult_module_map(projs[a], projs[b],
                                            t[r, c]).matrix
                if linalg.rank(mat, alg.p) == mat.shape[0]:
                    return k, r, c, mat
    return None


def _inverse_entry(alg, a, b, mat):
    """Entry of the inverse of A e_a -> A e_b with concrete matrix mat."""
    projs = proj_list(alg)
    pa, pb = projs[a], projs[b]
    minv = linalg.inverse(mat, alg.p)
    gen_b = linalg.solve(pb.amb_basis.T, alg.idempotents[b], alg.p)
    back = (minv @ gen_b) % alg.p
    return (pa.amb_basis.T @ back) % alg.p


def reduce_cx(cx):
    """Iterated cancellation of invertible entries; the result is minimal."""
    alg = cx.algebra
    comps = {k: list(v) for k, v in cx.comps.items()}
    diffs = {k: t.copy() for k, t in cx.diffs.items()}

    def current():
        return Cx(alg, comps, diffs, check=False)

    while True:
        hit = _invertible_entry(current())
        if hit is None:
            return current()
        k, r0, c0, mat = hit
        a = comps[k][c0]
        b = comps[k + 1][r0]
        ainv = _inverse_entry(alg, a, b, mat)
        t = diffs[k]
        nr, nc = t.shape[0], t.shape[1]
        keep_r = [r for r in range(nr) if r != r0]
        keep_c = [c for c in range(nc) if c != c0]
        # entry (r, c) loses t[r0, c] * ainv * t[r, c0]
        via = entry_compose(alg, t[[r0]][:, keep_c], ainv.reshape(1, 1, -1))
        corr = entry_compose(alg, via, t[keep_r][:, [c0]])
        new = (t[keep_r][:, keep_c] - corr) % alg.p
        if new.size:
            diffs[k] = new
        else:
            diffs.pop(k, None)
        if (k - 1) in diffs:
            lower = np.delete(diffs[k - 1], c0, axis=0)
            if lower.size:
                diffs[k - 1] = lower
            else:
                diffs.pop(k - 1)
        if (k + 1) in diffs:
            upper = np.delete(diffs[k + 1], r0, axis=1)
            if upper.size:
                diffs[k + 1] = upper
            else:
                diffs.pop(k + 1)
        comps[k].pop(c0)
        comps[k + 1].pop(r0)
        for kk in (k, k + 1):
            if not comps[kk]:
                comps.pop(kk)


# ---------------------------------------------------------------------------
# chain maps and cones
# ---------------------------------------------------------------------------


def compose_chain(alg, first, then):
    """Per-degree composition of chain maps given as dicts deg -> tensor."""
    out = {}
    for k, t in first.items():
        if k in then:
            out[k] = entry_compose(alg, t, then[k])
    return out


def cone(src, tgt, cmap):
    """Mapping cone of a chain map; degree k is src^{k+1} ++ tgt^k."""
    alg = src.algebra
    degs = set()
    for k in list(src.comps) + list(tgt.comps):
        degs.add(k)
        degs.add(k - 1)
    comps = {}
    for k in sorted(degs):
        comps[k] = list(src.at(k + 1)) + list(tgt.at(k))
    diffs = {}
    for k in sorted(degs):
        nr = len(comps.get(k + 1, ()))
        nc = len(comps.get(k, ()))
        if not (nr and nc):
            continue
        t = tensor_zeros(alg, nr, nc)
        sx1 = len(src.at(k + 2))
        sx0 = len(src.at(k + 1))
        dsrc = src.diff(k + 1)
        t[:sx1, :sx0] = (-dsrc) % alg.p
        f = cmap.get(k + 1)
        if f is not None and f.size:
            t[sx1:, :sx0] = f
        dtgt = tgt.diff(k)
        t[sx1:, sx0:] = dtgt
        diffs[k] = t
    return Cx(alg, comps, diffs, check=False)


# ---------------------------------------------------------------------------
# Hom in the homotopy category (two-term objects)
# ---------------------------------------------------------------------------


class HomK:
    """Hom of two-term complexes in the homotopy category.

    reps holds chain-map representatives (f0, fm1); coords() computes the
    coordinates of a chain map modulo null-homotopic ones.
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
        hspan = linalg.row_space(hstack, p)
        self.h_count = hspan.shape[0]
        self.rep_vecs = zrows[linalg.extend_basis(hspan, zrows, p)]
        self._solver = linalg.SpanSolver(
            np.vstack([hspan, self.rep_vecs]) if total else
            np.zeros((0, 0), dtype=np.int64), p)
        self.dim = self.rep_vecs.shape[0]
        self.total = total

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
    """dim Hom(X, Y[shift]) in the homotopy category; X, Y two-term."""
    alg = X.algebra
    p = alg.p
    if not (X.is_two_term() and Y.is_two_term()):
        raise DomainError("hom_K_dim expects two-term complexes")
    if shift == 0:
        return HomK(X, Y).dim
    if abs(shift) >= 2:
        return 0
    if shift == 1:
        es = EntrySpace(alg, X.at(-1), Y.at(0))
        if es.dim == 0:
            return 0
        dX = X.diff(-1)
        dY = Y.diff(-1)
        esm = EntrySpace(alg, X.at(-1), Y.at(-1))
        es0 = EntrySpace(alg, X.at(0), Y.at(0))
        rows = np.concatenate([es.to_vec(entry_compose(alg, esm.basis, dY)),
                               es.to_vec(entry_compose(alg, dX, es0.basis))])
        return es.dim - linalg.rank(rows, p)
    # shift == -1: maps X^0 -> Y^{-1} commuting on both sides, no homotopies
    es = EntrySpace(alg, X.at(0), Y.at(-1))
    if es.dim == 0:
        return 0
    dX = X.diff(-1)
    dY = Y.diff(-1)
    esa = EntrySpace(alg, X.at(-1), Y.at(-1))
    esb = EntrySpace(alg, X.at(0), Y.at(0))
    cols = np.concatenate([esa.to_vec(entry_compose(alg, dX, es.basis)),
                           esb.to_vec(entry_compose(alg, es.basis, dY))],
                          axis=1)
    return linalg.kernel_basis(cols, p).shape[0]


# ---------------------------------------------------------------------------
# presentations, H^0, tau, Ext^1
# ---------------------------------------------------------------------------


def _generator_rows(m):
    """Generator vectors of m: one per top basis element, sorted by vertex."""
    alg = m.algebra
    p = alg.p
    top, proj = top_quotient(m)
    gens = []
    for i in range(alg.idempotents.shape[0]):
        ei_top = top.act(alg.idempotents[i])
        tbasis = linalg.row_space(ei_top.T, p)
        ei_m = m.act(alg.idempotents[i])
        for trow in tbasis:
            sol = linalg.solve((proj.matrix @ ei_m) % p, trow, p)
            if sol is None:
                raise DomainError("projective cover lift failed")
            gens.append(((ei_m @ sol) % p, i))
    return gens


def min_presentation(m):
    """Minimal projective presentation of m as a two-term complex.

    The result carries .conc0 (the concrete degree-0 module) and .cover
    (the ModuleMap conc0 -> m).
    """
    alg = m.algebra
    p = alg.p
    projs = proj_list(alg)
    gens = _generator_rows(m)
    zer = [i for _, i in gens]
    p0, embs, _ = direct_sum(alg, [projs[i] for i in zer])
    cols = []
    for (g, i), emb in zip(gens, embs):
        img = np.zeros((m.dim, projs[i].dim), dtype=np.int64)
        for col, v in enumerate(projs[i].amb_basis):
            img[:, col] = (m.act(v) @ g) % p
        cols.append((img, emb))
    cover_mat = np.zeros((m.dim, p0.dim), dtype=np.int64)
    for img, emb in cols:
        cover_mat = (cover_mat + img @ emb.T) % p
    cover = ModuleMap(p0, m, cover_mat)
    ker_rows = cover.kernel_rows()
    ker_mod, ker_incl = submodule(p0, ker_rows)
    kgens = _generator_rows(ker_mod)
    neg = [i for _, i in kgens]
    diff = tensor_zeros(alg, len(zer), len(neg))
    for c, (kg, i) in enumerate(kgens):
        inside = (ker_incl.matrix @ kg) % p
        left_ei = alg.left_mult_matrix(alg.idempotents[i])
        for r, (emb, vert) in enumerate(zip(embs, zer)):
            comp = (embs[r].T @ inside) % p
            v = (projs[vert].amb_basis.T @ comp) % p
            diff[r, c] = (left_ei @ v) % p
    cx = Cx(alg, {-1: neg, 0: zer}, {-1: diff} if neg and zer else {},
            check=False)
    cx.conc0 = p0
    cx.cover = cover
    return cx


def h0(cx):
    """(H^0 module, projection from the concrete degree-0 module)."""
    if not cx.is_two_term():
        raise DomainError("h0 expects a two-term complex")
    alg = cx.algebra
    if not cx.at(0):
        z = zero_module(alg)
        return z, ModuleMap(z, z, np.zeros((0, 0), dtype=np.int64)), z
    if not cx.at(-1):
        conc = cx_concrete(cx, 0)
        return conc, identity_map(conc), conc
    src, tgt, dmap = concrete_map(alg, cx.at(-1), cx.at(0), cx.diff(-1))
    quo, proj = quotient_module(tgt, dmap.image_rows())
    return quo, proj, tgt


def hminus1(cx):
    """H^{-1} as a submodule of the concrete degree -1 module."""
    if not cx.is_two_term():
        raise DomainError("hminus1 expects a two-term complex")
    alg = cx.algebra
    if not cx.at(-1):
        return zero_module(alg)
    if not cx.at(0):
        return cx_concrete(cx, -1)
    src, tgt, dmap = concrete_map(alg, cx.at(-1), cx.at(0), cx.diff(-1))
    sub, _ = submodule(src, dmap.kernel_rows())
    return sub


def inj_list(alg):
    if not hasattr(alg, "_tauseq_injs"):
        injs = []
        for j in range(alg.idempotents.shape[0]):
            inj = injective_module(alg, j)
            rows = alg.left_mult_matrix(alg.idempotents[j]).T  # e_j * b_k
            inj.amb_rows = linalg.row_space(rows, alg.p)
            injs.append(inj)
        alg._tauseq_injs = injs
    return alg._tauseq_injs


def _nakayama_entry(alg, a, b, x):
    """Matrix of nu(phi_x): I_a -> I_b on dual coordinates."""
    injs = inj_list(alg)
    rows_a = injs[a].amb_rows
    rows_b = injs[b].amb_rows
    p = alg.p
    # column w holds the coordinates of x * rows_b[w] in rows_a
    imgs = (alg.left_mult_matrix(x) @ rows_b.T) % p
    lmat = linalg.solve_matrix(rows_a.T, imgs, p)
    if lmat is None:
        raise DomainError("Nakayama image left the expected corner")
    return lmat.T % p


def tau(m):
    """AR translate of m: kernel of nu applied to its minimal presentation,
    cached on m."""
    if not hasattr(m, "_tauseq_tau"):
        m._tauseq_tau = _tau(m)
    return m._tauseq_tau


def _tau(m):
    alg = m.algebra
    p = alg.p
    if m.dim == 0:
        return zero_module(alg)
    pres = min_presentation(m)
    neg, zer = pres.at(-1), pres.at(0)
    if not neg:
        return zero_module(alg)
    injs = inj_list(alg)
    nsrc, n_embs, _ = direct_sum(alg, [injs[v] for v in neg])
    ntgt, t_embs, _ = direct_sum(alg, [injs[v] for v in zer])
    mat = np.zeros((ntgt.dim, nsrc.dim), dtype=np.int64)
    d = pres.diff(-1)
    for r, b in enumerate(zer):
        for c, a in enumerate(neg):
            if np.any(d[r, c]):
                blk = _nakayama_entry(alg, a, b, d[r, c])
                mat = (mat + t_embs[r] @ blk @ n_embs[c].T) % p
    nd = ModuleMap(nsrc, ntgt, mat)
    ker, _ = submodule(nsrc, nd.kernel_rows())
    return ker


def ext1_dim(m, n):
    """dim Ext^1(m, n), via the syzygy of a minimal presentation."""
    if m.dim == 0 or n.dim == 0:
        return 0
    pres = min_presentation(m)
    om_rows = pres.cover.kernel_rows()
    om, om_incl = submodule(pres.conc0, om_rows)
    if om.dim == 0:
        return 0
    hom_om = hom_basis(om, n)
    if not hom_om:
        return 0
    p = m.algebra.p
    rows = []
    for h in hom_basis(pres.conc0, n):
        rows.append(((h @ om_incl.matrix) % p).reshape(-1))
    rk = linalg.rank(np.array(rows), p) if rows else 0
    return len(hom_om) - rk


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


# ---------------------------------------------------------------------------
# two-term complexes -> pairs (module, shifted projectives)
# ---------------------------------------------------------------------------


def cx_to_pair(cx):
    """(module part H^0, shifted projective vertex list) of a two-term
    complex, after reduction to minimal form."""
    red = reduce_cx(cx)
    if not red.is_two_term():
        raise DomainError("complex is not two-term after reduction")
    d = red.diff(-1)
    keep_cols = [c for c in range(len(red.at(-1))) if np.any(d[:, c])]
    shifted = [red.at(-1)[c] for c in range(len(red.at(-1)))
               if c not in keep_cols]
    core = Cx(red.algebra,
              {-1: [red.at(-1)[c] for c in keep_cols], 0: red.at(0)},
              {-1: d[:, keep_cols]} if keep_cols and red.at(0) else {},
              check=False)
    mod, _, _ = h0(core)
    return mod, shifted

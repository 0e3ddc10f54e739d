"""Finite-dimensional left modules over a StructAlgebra.

A module is an action tensor (one matrix per algebra basis element) over
F_p, never written after construction.  Provides Hom spaces, each solved
once per pair of module objects: hom_basis is the one cache of Hom bases,
a table on the source keyed weakly by the target (so a cached basis never
keeps a module alive) holding read-only arrays.  Also endomorphism rings,
indecomposable direct-sum decomposition by idempotents of End(M), t_u(x),
f_u(x) and Gen u from one set of trace rows, the duality D onto
A^op-modules, and minimal left add(U)-approximations, with rad End(⊕U)
read off the summands; a right one is D of a left one over A^op, and an
injective I_j = D(A^op e_j) is D of a projective over A^op.  Coordinates
on an RREF basis are read at its pivots.  Every action is stored in C
order, as einsum reads a strided one up to 1.8 times slower.

The idempotents of a split are Fermat powers.  One Berlekamp split of
the top of End(M) (on the whole top when that is commutative and on F_p[z]
otherwise; none when End(M) = k) takes z with z^p = z, so its eigenvalues
lie in F_p, and 1 - (z - lambda)^(p-1) is the idempotent at the eigenvalue
lambda, and the split when the radical is 0.  Else a lift x of that has
x^2 - x in the radical, whose p-th power is 0 as p exceeds dim End(M);
F_p[x] is commutative, so x^(2p) = x^p, and x^p is the idempotent of
End(M) over it (the only one in F_p[x]).
"""

import weakref

import numpy as np

from . import linalg
from .algebra import algebra_from_matrices, opposite, quotient_by_ideal
from .errors import DomainError, InputError

# seeds the random elements tried when no basis element of a noncommutative
# top splits it; nothing in the tests reaches them
_RNG_SEED = 90377


class FdModule:
    """A left module given by its action tensor.

    The basis is adapted when every idempotent acts as a 0/1 diagonal
    matrix: each basis vector lies in one e_v M.  module_from_arrows,
    direct_sum, and projective_module and injective_module over a path or
    End algebra give adapted bases, and so do submodule and quotient_module
    of an adapted module (an RREF basis of ⊕ U_v, U_v in e_v M, is the
    union of the RREF bases of the U_v).  hom_basis and vertex_dims read
    the property through basis_vertices.

    Attributes:
        algebra: the StructAlgebra acting.
        dim: total dimension.
        action: (algebra.dim, dim, dim) tensor; action[i] is the matrix of
            the i-th basis element (matrices act on column coordinate
            vectors).
    """

    def __init__(self, algebra, action, check=True):
        self.algebra = algebra
        self.action = np.ascontiguousarray(linalg.asmod(action, algebra.p))
        if self.action.ndim != 3 or self.action.shape[0] != algebra.dim:
            raise DomainError("action tensor has wrong shape")
        self.dim = self.action.shape[1]
        if self.action.shape[1] != self.action.shape[2]:
            raise DomainError("action matrices must be square")
        self._vdims = None
        self._gen_act = None
        self._vertex_of = False  # not read yet
        self._summands = None  # set by direct_sum
        self._rad_end = None  # set by _end_radical
        self._dual = None  # set by dual
        self._homs = weakref.WeakKeyDictionary()  # n -> Hom(self, n) basis
        if check and self.dim:
            self._validate()

    def _validate(self):
        """Check that 1 acts as the identity and rho(g) rho(b_j) =
        rho(g b_j) for every generator g and basis element b_j.

        That suffices, since the generator vectors and 1 generate A (see
        StructAlgebra.generator_vectors): the x with rho(x) rho(y) =
        rho(x y) for all y form a subspace holding 1 and the generators, and
        closed under products, since rho(x x') rho(y) = rho(x) rho(x' y) =
        rho(x x' y).  So they are all of A.  This holds G*d*m^2 entries,
        not the d^2*m^2 of checking every pair of basis elements; rho(g b_j)
        sums c * rho(b_k) over the nonzero coordinates c at b_k of the
        algebra's generator products g b_j."""
        p, alg = self.algebra.p, self.algebra
        unit_act = self.act(alg.unit)
        if not np.array_equal(unit_act, np.eye(self.dim, dtype=np.int64)):
            raise DomainError("unit does not act as identity")
        prod = (self.gen_actions()[:, None] @ self.action[None]) % p
        cells, starts, k, c = alg.generator_products()
        want = np.zeros((prod.shape[0] * alg.dim,) + prod.shape[2:],
                        dtype=np.int64)
        want[cells] = np.add.reduceat(
            c[:, None, None] * self.action[k], starts) % p
        if not np.array_equal(prod, want.reshape(prod.shape)):
            raise DomainError("action does not respect multiplication")

    def act(self, x):
        x = linalg.asmod(x, self.algebra.p)
        return np.einsum("i,iab->ab", x, self.action) % self.algebra.p

    def gen_actions(self):
        """(G, dim, dim) stack of the actions of the algebra's generator
        vectors, idempotents first; computed once (action is never written
        after construction).  A direct sum takes it from its summands'
        cached ones, as a block diagonal, and submodule sets it from its
        ambient module's."""
        if self._gen_act is None and self._summands is not None:
            self._gen_act = np.zeros((len(self.algebra.generator_vectors()),
                                      self.dim, self.dim), dtype=np.int64)
            offset = 0
            for m in self._summands:
                self._gen_act[:, offset : offset + m.dim,
                              offset : offset + m.dim] = m.gen_actions()
                offset += m.dim
        elif self._gen_act is None:
            gens = np.array(self.algebra.generator_vectors())
            self._gen_act = np.einsum("gi,iab->gab", gens,
                                      self.action) % self.algebra.p
        return self._gen_act

    def basis_vertices(self):
        """The vertex of each basis vector, or None unless every idempotent
        acts diagonally (then by orthogonal 0/1 matrices summing to 1, so
        the basis is adapted); read once off gen_actions."""
        if self._vertex_of is False:
            idem = self.gen_actions()[: self.algebra.idempotents.shape[0]]
            diag = np.einsum("vii->vi", idem)
            self._vertex_of = diag.argmax(axis=0) if np.count_nonzero(
                idem) == np.count_nonzero(diag) else None
        return self._vertex_of

    def vertex_dims(self):
        """dim e_v M per vertex: a bincount of basis_vertices when the
        basis is adapted, else the rank of each idempotent's action."""
        if self._vdims is None:
            n = self.algebra.idempotents.shape[0]
            vert = self.basis_vertices()
            self._vdims = tuple(
                np.bincount(vert, minlength=n).tolist() if vert is not None
                else [linalg.rank(e, self.algebra.p)
                      for e in self.gen_actions()[:n]])
        return self._vdims


class ModuleMap:
    """A homomorphism of modules; matrix is (target.dim, source.dim)."""

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = linalg.asmod(matrix, source.algebra.p)
        if self.matrix.shape != (target.dim, source.dim):
            raise DomainError("module map matrix has wrong shape")

    def compose(self, other):
        """self after other."""
        if other.target is not self.source:
            raise DomainError("composition mismatch")
        return ModuleMap(other.source, self.target,
                         (self.matrix @ other.matrix) % self.source.algebra.p)

    def kernel_rows(self):
        return linalg.kernel_basis(self.matrix, self.source.algebra.p)

    def image_rows(self):
        return linalg.row_space(self.matrix.T, self.source.algebra.p)


def zero_module(algebra):
    return FdModule(algebra,
                    np.zeros((algebra.dim, 0, 0), dtype=np.int64), check=False)


def identity_map(m):
    return ModuleMap(m, m, np.eye(m.dim, dtype=np.int64))


def direct_sum(algebra, summands):
    """(sum module, embeddings, projections) of a list of modules."""
    total = sum(m.dim for m in summands)
    action = np.zeros((algebra.dim, total, total), dtype=np.int64)
    offset = 0
    embs, prs = [], []
    for m in summands:
        action[:, offset : offset + m.dim, offset : offset + m.dim] = m.action
        e = np.zeros((total, m.dim), dtype=np.int64)
        e[offset : offset + m.dim] = np.eye(m.dim, dtype=np.int64)
        embs.append(e)
        prs.append(e.T.copy())
        offset += m.dim
    out = FdModule(algebra, action, check=False)
    out._summands = tuple(summands)
    return out, embs, prs


def dual(m):
    """D m = Hom_k(m, k) over A^op: the transposed action ((a f)(v) =
    f(a v)); cached both ways."""
    if m._dual is None:
        m._dual = FdModule(opposite(m.algebra), m.action.transpose(0, 2, 1),
                           check=False)
        m._dual._dual = m
    return m._dual


# ---------------------------------------------------------------------------
# sub/quotient structure
# ---------------------------------------------------------------------------


def _close_under_action(m, rows):
    """RREF basis of the submodule generated by rows.

    The coordinates of a vector v on an RREF basis are its entries at the
    pivots, so the residual v - v[piv] @ rows is zero exactly when v lies
    in the span.  Each round row-reduces only the nonzero residuals of the
    generator images, stacked with the rows; the RREF of a span is unique,
    so a span that is already closed costs one product.
    """
    p = m.algebra.p
    rows = linalg.row_space(rows, p)
    gens_t = m.gen_actions().transpose(0, 2, 1)
    while True:
        pieces = ((rows @ gens_t) % p).reshape(-1, m.dim)
        res = (pieces - pieces[:, (rows != 0).argmax(axis=1)] @ rows) % p
        res = res[res.any(axis=1)]
        if not len(res):
            return rows
        rows = linalg.row_space(np.vstack([rows, res]), p)


def submodule(m, rows):
    """(submodule spanned by rows after closing under the action,
    inclusion).  Its action and generator stack are m's read at the pivot
    rows of the span's RREF basis: gen_actions runs no einsum on it."""
    p = m.algebra.p
    if np.asarray(rows).size == 0:
        sub = zero_module(m.algebra)
        return sub, ModuleMap(sub, m, np.zeros((m.dim, 0), dtype=np.int64))
    bt = _close_under_action(m, rows).T
    sub = FdModule(m.algebra, _restricted_action(
        (m.action @ bt) % p, bt, p, "span is not action-stable"), check=False)
    sub._gen_act = ((m.gen_actions() @ bt) % p)[:, (bt != 0).argmax(axis=0)]
    return sub, ModuleMap(sub, m, bt)


def _restricted_action(imgs, bt, p, error):
    """The matrices of maps x on the span of the columns of bt, given their
    images imgs[x] = map_x @ bt; error when the span is not stable.

    bt's columns must be an RREF basis (the rows of linalg.row_space): the
    coordinates of a vector in their span are then its entries at the
    pivot rows, and one product checks that every image lies in the span.
    """
    sol = imgs[:, (bt != 0).argmax(axis=0)]
    if ((bt @ sol) % p != imgs).any():
        raise DomainError(error)
    return sol


def quotient_module(m, rows):
    """(quotient of m by the submodule generated by rows, projection); the
    projection is the RREF complement of the submodule's basis."""
    p = m.algebra.p
    rows = linalg.asmod(rows, p)
    if rows.size == 0:
        return m, identity_map(m)
    r = _close_under_action(m, rows)  # RREF: a pivot is a row's first nonzero
    proj, free = linalg.complement_rows(r, (r != 0).argmax(axis=1), p)
    quo = FdModule(m.algebra, (proj @ m.action[..., free]) % p, check=False)
    return quo, ModuleMap(m, quo, proj)


def radical_rows(m):
    """RREF basis of rad m = sum of g m over the generators g past the
    idempotents: they span rad A modulo rad^2, so rad A = sum of g A."""
    gens = m.gen_actions()[m.algebra.idempotents.shape[0]:]
    return linalg.row_space(gens.transpose(0, 2, 1).reshape(
        len(gens) * m.dim, m.dim), m.algebra.p)


def top_quotient(m):
    return quotient_module(m, radical_rows(m))


# ---------------------------------------------------------------------------
# projectives, simples, injectives
# ---------------------------------------------------------------------------


def projective_module(algebra, i):
    """P_i = A e_i with left multiplication; remembers its basis inside A."""
    p = algebra.p
    rows = algebra.right_mult_matrix(algebra.idempotents[i]).T  # b_k * e_i
    basis = linalg.row_space(rows, p)
    act, src, k, c = algebra.terms  # b_act sends b_src to c b_k and more
    imgs = np.zeros((algebra.dim, algebra.dim, len(basis)), dtype=np.int64)
    np.add.at(imgs, (act, k), c[:, None] * basis.T[src])
    out = FdModule(algebra, _restricted_action(
        imgs % p, basis.T, p, "A e_i is not closed under left multiplication"),
        check=False)
    out.amb_basis = basis
    return out


def simple_module(algebra, i):
    top, _ = top_quotient(projective_module(algebra, i))
    return top


def right_mult_module_map(pa, pb, x):
    """The map A e_a -> A e_b, m -> m*x, for x in e_a A e_b.

    Both modules must come from projective_module (they carry amb_basis).
    amb_basis is in RREF, so the coordinates of amb_basis[v] * x in pb are
    its values at pb's pivots, each row's first nonzero column.
    """
    imgs = (pa.algebra.right_mult_matrix(x) @ pa.amb_basis.T) % pa.algebra.p
    return ModuleMap(pa, pb, imgs[(pb.amb_basis != 0).argmax(axis=1)])


def injective_module(algebra, j):
    """I_j = nu(P_j) = D(e_j A) = D(A^op e_j), the dual of the projective
    at j over A^op; remembers that projective's RREF basis of e_j A inside
    A as amb_rows."""
    pj = projective_module(opposite(algebra), j)
    out = dual(pj)
    out.amb_rows = pj.amb_basis
    return out


# ---------------------------------------------------------------------------
# Hom spaces and endomorphism rings
# ---------------------------------------------------------------------------


def hom_basis(m, n):
    """Basis of Hom(m, n) as a fresh list of read-only (n.dim, m.dim)
    matrices, solved on the first call for the pair and kept in m._homs."""
    if m.algebra is not n.algebra:
        raise DomainError("modules over different algebras")
    homs = m._homs.get(n)
    if homs is not None:
        return list(homs)
    if m.dim == 0 or n.dim == 0:
        return []
    # X a_g = b_g X for every generator g.  The unknowns are the X[r, c]
    # with r and c at one vertex when both bases are adapted (X e_v = e_v X
    # forces the others to 0, so they are never free columns and the kernel
    # basis is the full system's), else every X[r, c], in the order r*m + c;
    # equation (g, r, i) is row (g*n + r)*m + i, and zero rows are dropped
    a, b = m.gen_actions(), n.gen_actions()
    vm, vn = m.basis_vertices(), n.basis_vertices()
    same = np.ones((n.dim, m.dim), dtype=bool) if vm is None or vn is None \
        else vn[:, None] == vm
    rk, ck = np.nonzero(same)
    col = np.arange(len(rk))
    system = np.zeros((len(a), n.dim, m.dim, len(rk)), dtype=np.int64)
    system[:, rk, :, col] = a[:, ck].transpose(1, 0, 2)
    system[:, :, ck, col] -= b[:, :, rk]
    system = system.reshape(len(a) * n.dim * m.dim, -1)
    ker = linalg.kernel_basis(system[system.any(axis=1)], m.algebra.p)
    out = np.zeros((len(ker), n.dim, m.dim), dtype=np.int64)
    out[:, rk, ck] = ker
    out.flags.writeable = False
    m._homs[n] = list(out)
    return list(out)


def hom_dim(m, n):
    return len(hom_basis(m, n))


class EndData:
    """An endomorphism ring of a direct sum, coordinatized.

    Attributes:
        mats: basis matrices.
        struct: StructAlgebra with the opposite product, so that Hom(sum, X)
            becomes a left struct-module under precomposition.
        prs: the projections onto the summands.
    """

    def __init__(self, mats, struct, prs):
        self.mats = mats
        self.struct = struct
        self.prs = prs


def end_algebra(summands, vertex_labels=None):
    """End(⊕ summands) with the opposite product and block idempotents."""
    if not summands:
        raise DomainError("empty summand list")
    alg = summands[0].algebra
    p = alg.p
    _, embs, prs = direct_sum(alg, summands)
    mats = []
    for i, mi in enumerate(summands):
        for j, mj in enumerate(summands):
            for h in hom_basis(mi, mj):
                mats.append((embs[j] @ h @ prs[i]) % p)
    idem_mats = [(embs[i] @ prs[i]) % p for i in range(len(summands))]
    # extend the pairwise Hom basis so the block idempotents are honest
    # basis elements: they already are sums of End(m_i) elements, so instead
    # pass them as idempotent matrices to coordinate lookup.
    struct = algebra_from_matrices(mats, p, vertex_labels=vertex_labels,
                                   idempotent_mats=idem_mats)
    return EndData(mats, struct, prs)


def _semisimple_top(struct):
    """(struct / rad, the lift of its coordinates into struct or None when
    the radical is zero, whether the quotient is commutative)."""
    rad = struct.radical_rows()
    if rad.shape[0]:
        quo = quotient_by_ideal(struct, rad, check=False)
        bar, lift = quo.algebra, quo.lift
    else:
        bar, lift = struct, None
    # commutative iff swapping i and j maps the sorted terms onto themselves
    i, j, k, c = bar.terms
    swapped = (j * bar.dim + i) * bar.dim + k
    order = np.argsort(swapped)
    key = (i * bar.dim + j) * bar.dim + k
    return bar, lift, (np.array_equal(swapped[order], key) and
                       np.array_equal(c[order], c))


def _frobenius_kernel(bar, rows):
    """Basis of {x in span(rows) : x^p = x}, where the independent rows
    span a commutative subalgebra C of bar.  On C, x -> x^p is F_p-linear,
    and the kernel has one dimension per local factor of C (Berlekamp)."""
    p = bar.p
    coef = linalg.kernel_basis((bar.power(rows, p) - rows).T % p, p)
    return coef @ rows % p


def is_local_endo(m):
    """True iff End(m) is a local ring, that is, m is nonzero and
    indecomposable: decompose leaves it whole.  A local ring's top is a
    finite division ring, hence a field (Wedderburn), so a noncommutative
    top is split there like any other."""
    return m.dim > 0 and len(decompose(m)) == 1


# ---------------------------------------------------------------------------
# indecomposable decomposition
# ---------------------------------------------------------------------------


def _berlekamp_split(struct, bar, lift, ker):
    """A nontrivial idempotent of struct, given a Frobenius kernel ker of
    dimension at least 2 in its semisimple top bar; lift maps bar's
    coordinates into struct, None when the radical is zero.  It is the
    module docstring's Fermat power (two of them under a radical), at the
    first row z of ker outside F_p (a kernel of dimension at least 2 has
    one) and the least root lambda of mu_z."""
    p = bar.p
    z = ker[linalg.extend_basis(bar.unit.reshape(1, -1), ker, p)[0]]
    mu = bar.element_min_poly(z)
    roots = linalg.poly_eval_many(mu, np.arange(p), p) == 0
    lam = int(np.flatnonzero(roots)[0])
    ebar = bar.unit - bar.power(z - lam * bar.unit, p - 1)
    return ebar % p if lift is None else struct.power(lift @ ebar, p)


def _noncommutative_kernel(bar):
    """The Frobenius kernel of F_p[z] = span(1, z, ..., z^(deg mu_z - 1))
    for the first candidate z where it has dimension at least 2, that is,
    where mu_z has two distinct irreducible factors.  The candidates are the
    basis elements, then seeded random elements once all of those fail."""
    def candidates():
        yield from np.eye(bar.dim, dtype=np.int64)
        rng = np.random.default_rng(_RNG_SEED)
        for _ in range(200):
            yield rng.integers(0, bar.p, size=bar.dim, dtype=np.int64)

    for z in candidates():
        powers = [bar.unit]
        for _ in range(len(bar.element_min_poly(z)) - 2):
            powers.append(bar.multiply(powers[-1], z))
        ker = _frobenius_kernel(bar, np.array(powers))
        if ker.shape[0] > 1:
            return ker
    raise DomainError("failed to split a noncommutative semisimple quotient")


def decompose(m):
    """Indecomposable direct summands of m, as (module, inclusion) pairs."""
    if m.dim == 0:
        return []
    p = m.algebra.p
    mats = hom_basis(m, m)
    if len(mats) == 1:
        return [(m, identity_map(m))]  # End(m) = k
    struct = algebra_from_matrices(mats, p)
    bar, lift, commutative = _semisimple_top(struct)
    if commutative:
        ker = _frobenius_kernel(bar, np.eye(bar.dim, dtype=np.int64))
        if ker.shape[0] == 1:
            return [(m, identity_map(m))]
    else:
        ker = _noncommutative_kernel(bar)
    e = _berlekamp_split(struct, bar, lift, ker)
    emat = np.tensordot(e, np.array(mats), axes=1) % p
    rest = (np.eye(m.dim, dtype=np.int64) - emat) % p
    out = []
    for part in (emat, rest):
        sub, incl = submodule(m, linalg.row_space(part.T, p))
        if sub.dim == 0:
            raise DomainError("idempotent splitting produced a zero part")
        for piece, sub_incl in decompose(sub):
            out.append((piece, incl.compose(sub_incl)))
    return out


def decompose_grouped(m):
    """[(indecomposable, multiplicity)] with one representative per iso class."""
    return _grouped(decompose(m))


def _grouped(parts):
    groups = []
    for piece, _ in parts:
        for rep in groups:
            if is_iso(rep[0], piece):
                rep[1] += 1
                break
        else:
            groups.append([piece, 1])
    return [(g[0], g[1]) for g in groups]


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------


def is_iso(m, n):
    """Exact.  If f: m -> n is invertible and m indecomposable, the f^-1 g
    over a basis g of Hom(m, n) span the local ring End(m), so some g is
    invertible (likewise for n); two decomposable sides are compared by
    their summands with multiplicity (Krull-Schmidt)."""
    if m is n:
        return True
    if m.dim != n.dim:
        return False
    if m.dim == 0:
        return True
    if m.vertex_dims() != n.vertex_dims():
        return False
    p = m.algebra.p
    homs = hom_basis(m, n)
    if not homs:
        return False
    if any(linalg.rank(h, p) == m.dim for h in homs):
        return True
    pm = decompose(m)  # one split per side; one piece is indecomposable
    pn = pm if len(pm) == 1 else decompose(n)
    gm, gn = _grouped(pm), _grouped(pn)
    return len(pn) > 1 and len(gm) == len(gn) and all(
        any(k == kn and is_iso(x, y) for y, kn in gn) for x, k in gm)


# ---------------------------------------------------------------------------
# torsion pairs
# ---------------------------------------------------------------------------


def trace_rows(u, x):
    """Rows spanning t_u(x), the sum of the images of all maps u -> x: the
    h.T over hom_basis(u, x), with shape (0, x.dim) when there are none.
    A sum of images of module maps is a submodule, so the span is closed."""
    return np.concatenate([np.zeros((0, x.dim), dtype=np.int64)] +
                          [h.T for h in hom_basis(u, x)])


def trace_submodule(u, x):
    """t_u(x), with inclusion."""
    return submodule(x, trace_rows(u, x))


def torsion_free_quotient(u, x):
    """f_u(x) = x / t_u(x), with projection."""
    return quotient_module(x, trace_rows(u, x))


def in_gen(u, x):
    """True iff x lies in Gen u (the trace is everything)."""
    return linalg.rank(trace_rows(u, x), x.algebra.p) == x.dim


# ---------------------------------------------------------------------------
# minimal approximations
# ---------------------------------------------------------------------------


def _end_radical(m):
    """rad End(m) as (r, dim, dim) matrices, cached: none when End(m) = k,
    else from End(m) coordinatized (its residue field may be larger)."""
    if m._rad_end is None:
        mats = np.array(hom_basis(m, m))
        m._rad_end = mats[:0] if len(mats) == 1 else np.tensordot(
            algebra_from_matrices(mats, m.algebra.p).radical_rows(), mats,
            axes=1) % m.algebra.p
    return m._rad_end


def _sum_radical(summands, embs, prs):
    """rad End(⊕ summands) as (r, t, t) block matrices emb_j g pr_i: g in
    Hom(u_i, u_j) for i != j, and in rad End(u_i) for i = j."""
    p, t = summands[0].algebra.p, embs[0].shape[0]
    rad = [(embs[j] @ g @ prs[i]) % p
           for i, ui in enumerate(summands)
           for j, uj in enumerate(summands)
           for g in (_end_radical(ui) if i == j else hom_basis(ui, uj))]
    return np.array(rad, dtype=np.int64).reshape(-1, t, t)


def min_left_approx(x, u_summands):
    """Minimal left add(⊕u_summands)-approximation of x: (target module,
    ModuleMap beta from x, list of summand indices used).  Keeps the maps
    e_j h (h in a basis of Hom(x, sum), e_j a block idempotent) outside the
    span of the r h and of the maps before them, r in rad End(⊕u_i) =
    every map between distinct u_i plus each rad End(u_i)
    (Auslander-Reiten-Smalø §V.7), for pairwise non-isomorphic
    indecomposable u_i or one module, as every caller passes."""
    alg, p = x.algebra, x.algebra.p
    u_summands = [u for u in u_summands if u.dim]
    total, embs, prs = direct_sum(alg, u_summands)
    kept, homs = [], hom_basis(x, total)  # kept: (summand index, x -> u_j)
    if homs:
        homs = np.array(homs)
        rad = _sum_radical(u_summands, embs, prs)
        idem = np.array([e @ pr for e, pr in zip(embs, prs)])
        new = linalg.extend_basis(
            ((rad[None] @ homs[:, None]) % p).reshape(-1, homs[0].size),
            ((idem[:, None] @ homs[None]) % p).reshape(-1, homs[0].size), p)
        for j, f in (divmod(i, len(homs)) for i in new):
            kept.append((j, (prs[j] @ homs[f]) % p))
    used = [j for j, _ in kept]
    summ, _, _ = direct_sum(alg, [u_summands[j] for j in used])
    mat = np.vstack([np.zeros((0, x.dim), dtype=np.int64)] +
                    [mp for _, mp in kept])
    return summ, ModuleMap(x, summ, mat), used


def min_right_approx(u_summands, x):
    """Minimal right add(⊕u_summands)-approximation of x: (source module,
    ModuleMap alpha to x, list of summand indices used), D of the minimal
    left approximation of D x by the D u_i over A^op."""
    tgt, beta, used = min_left_approx(dual(x), [dual(u) for u in u_summands])
    return dual(tgt), ModuleMap(dual(tgt), x, beta.matrix.T), used


# ---------------------------------------------------------------------------
# fixture file parsing
# ---------------------------------------------------------------------------


def module_from_arrows(qp, alg, vdims, arrow_mats, name=None):
    """Build an FdModule over a path algebra from per-arrow matrices.

    Args:
        vdims: dict vertex label -> dimension.
        arrow_mats: dict arrow name -> matrix (target rows, source cols).
    """
    p = alg.p
    vlabels = list(qp.vertices)
    dims = {v: int(vdims.get(v, 0)) for v in vlabels}
    offsets = {}
    total = 0
    for v in vlabels:
        offsets[v] = total
        total += dims[v]
    arrow_info = {a[0]: (a[1], a[2]) for a in qp.arrows}
    mats = {}
    for aname, (src, dst) in arrow_info.items():
        shape = (dims[dst], dims[src])
        if aname in arrow_mats:
            mat = linalg.asmod(arrow_mats[aname], p)
            if mat.size == 0:
                mat = np.zeros(shape, dtype=np.int64)
            if mat.shape != shape:
                raise InputError(
                    f"module {name or '?'}: arrow {aname} matrix shape "
                    f"{mat.shape} != {shape}")
        else:
            mat = np.zeros(shape, dtype=np.int64)
        mats[aname] = mat
    action = np.zeros((alg.dim, total, total), dtype=np.int64)
    for idx, (src, dst, seq) in enumerate(alg.path_info):
        if not seq:
            s = offsets[src]
            action[idx, s : s + dims[src], s : s + dims[src]] = np.eye(
                dims[src], dtype=np.int64)
            continue
        mat = np.eye(dims[src], dtype=np.int64)
        for aname in seq:
            mat = (mats[aname] @ mat) % p
        r, c = offsets[dst], offsets[src]
        action[idx, r : r + dims[dst], c : c + dims[src]] = mat
    for rel in qp.relations:
        src = arrow_info[rel[0]][0]
        mat = np.eye(dims[src], dtype=np.int64)
        for aname in rel:
            mat = (mats[aname] @ mat) % p
        if np.any(mat):
            raise InputError(f"module {name or '?'}: relation "
                             f"{' '.join(rel)} does not act as zero")
    out = FdModule(alg, action, check=True)
    out.name = name
    return out


def parse_modules(text, qp, alg):
    """Parse a module fixture file into an ordered dict name -> FdModule."""
    import ast

    out = {}
    cur_name = None
    cur_dims = None
    cur_arrows = None

    def flush():
        if cur_name is None:
            return
        if cur_dims is None:
            raise InputError(f"module {cur_name}: missing dims line")
        out[cur_name] = module_from_arrows(qp, alg, cur_dims, cur_arrows,
                                           name=cur_name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        kind = parts[0]
        if kind == "module":
            flush()
            cur_name = parts[1].strip() if len(parts) > 1 else None
            if not cur_name:
                raise InputError(f"line {lineno}: module needs a name")
            if cur_name in out:
                raise InputError(f"line {lineno}: duplicate module {cur_name}")
            cur_dims = None
            cur_arrows = {}
        elif kind == "dims":
            if cur_name is None:
                raise InputError(f"line {lineno}: dims outside a module block")
            cur_dims = {}
            for tok in parts[1].split():
                if ":" not in tok:
                    raise InputError(f"line {lineno}: bad dims token {tok!r}")
                v, d = tok.rsplit(":", 1)
                if v not in qp.vertices:
                    raise InputError(f"line {lineno}: unknown vertex {v!r}")
                try:
                    cur_dims[v] = int(d)
                except ValueError:
                    raise InputError(f"line {lineno}: dimension {d!r} is not "
                                     f"an integer")
                if cur_dims[v] < 0:
                    raise InputError(f"line {lineno}: negative dimension {d}")
        elif kind == "arrow":
            if cur_name is None:
                raise InputError(f"line {lineno}: arrow outside a module block")
            body = parts[1]
            if "=" not in body:
                raise InputError(f"line {lineno}: arrow line needs '='")
            aname, mat_text = body.split("=", 1)
            aname = aname.strip()
            if aname not in {a[0] for a in qp.arrows}:
                raise InputError(f"line {lineno}: unknown arrow {aname!r}")
            try:
                mat = ast.literal_eval(mat_text.strip())
            except (ValueError, SyntaxError):
                raise InputError(f"line {lineno}: cannot parse matrix")
            try:
                arr = np.array(mat) if mat else np.zeros((0, 0), dtype=np.int64)
            except ValueError:  # ragged rows
                arr = None
            if arr is None or arr.dtype.kind != "i":
                raise InputError(f"line {lineno}: matrix is not a "
                                 f"rectangular array of 64-bit integers")
            cur_arrows[aname] = arr.astype(np.int64)
        else:
            raise InputError(f"line {lineno}: unknown directive {kind!r}")
    flush()
    return out

"""Finite-dimensional left modules over a StructAlgebra.

A module is an action tensor (one matrix per algebra basis element) over
F_p.  Provides Hom spaces, endomorphism rings, indecomposable direct-sum
decomposition via idempotent splitting, trace submodules and torsion-free
quotients, and minimal left/right add(U)-approximations.
"""

import numpy as np

from . import linalg
from .algebra import algebra_from_matrices, quotient_by_ideal
from .errors import DomainError, InputError

_RNG_SEED = 90377  # fixed seed: all randomized fallbacks are reproducible


class FdModule:
    """A left module given by its action tensor.

    Attributes:
        algebra: the StructAlgebra acting.
        dim: total dimension.
        action: (algebra.dim, dim, dim) tensor; action[i] is the matrix of
            the i-th basis element (matrices act on column coordinate
            vectors).
    """

    def __init__(self, algebra, action, check=True):
        self.algebra = algebra
        self.action = linalg.asmod(action, algebra.p)
        if self.action.ndim != 3 or self.action.shape[0] != algebra.dim:
            raise DomainError("action tensor has wrong shape")
        self.dim = self.action.shape[1]
        if self.action.shape[1] != self.action.shape[2]:
            raise DomainError("action matrices must be square")
        self._vdims = None
        self._gen_act = None
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
        after construction)."""
        if self._gen_act is None:
            gens = np.array(self.algebra.generator_vectors())
            self._gen_act = np.einsum("gi,iab->gab", gens,
                                      self.action) % self.algebra.p
        return self._gen_act

    def vertex_dims(self):
        if self._vdims is None:
            n = self.algebra.idempotents.shape[0]
            self._vdims = tuple(linalg.rank(e, self.algebra.p)
                                for e in self.gen_actions()[:n])
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
    return out, embs, prs


# ---------------------------------------------------------------------------
# sub/quotient structure
# ---------------------------------------------------------------------------


def _close_under_action(m, rows):
    p = m.algebra.p
    rows = linalg.row_space(linalg.asmod(rows, p), p)
    gens_t = m.gen_actions().transpose(0, 2, 1)
    while True:
        pieces = (rows @ gens_t) % p
        closed = linalg.row_space(
            np.vstack([rows, pieces.reshape(-1, m.dim)]), p)
        if closed.shape[0] == rows.shape[0]:
            return closed
        rows = closed


def submodule(m, rows):
    """(submodule spanned by rows after closing under the action, inclusion)."""
    p = m.algebra.p
    if np.asarray(rows).size == 0:
        sub = zero_module(m.algebra)
        return sub, ModuleMap(sub, m, np.zeros((m.dim, 0), dtype=np.int64))
    bt = _close_under_action(m, rows).T
    sub = FdModule(m.algebra, _restricted_action(
        (m.action @ bt) % p, bt, p, "span is not action-stable"), check=False)
    return sub, ModuleMap(sub, m, bt)


def _term_images(algebra, act, src, k, c, bt):
    """(dim, dim, cols) images of bt's columns under the maps x = 0..dim-1
    that send b_src to the sum of c b_k over the terms with act = x."""
    imgs = np.zeros((algebra.dim, algebra.dim, bt.shape[1]), dtype=np.int64)
    np.add.at(imgs, (act, k), c[:, None] * bt[src])
    return imgs % algebra.p


def _restricted_action(imgs, bt, p, error):
    """The matrices of maps x on the span of the independent columns of
    bt, given their images imgs[x] = map_x @ bt, found by one solve for all
    of them; error when the span is not stable."""
    n, k = bt.shape
    sol = linalg.solve_matrix(bt, imgs.transpose(1, 0, 2).reshape(n, -1), p)
    if sol is None:
        raise DomainError(error)
    return sol.reshape(k, len(imgs), k).transpose(1, 0, 2)


def quotient_module(m, rows):
    """(quotient of m by the submodule generated by rows, projection)."""
    p = m.algebra.p
    rows = linalg.asmod(rows, p)
    if rows.size == 0:
        return m, identity_map(m)
    basis = _close_under_action(m, rows)
    r, piv = linalg.rref(basis, p)
    r = r[: len(piv)]
    nonpiv = [c for c in range(m.dim) if c not in piv]
    eye = np.eye(m.dim, dtype=np.int64)
    proj, lift = eye[nonpiv], eye[:, nonpiv]
    for i, c in enumerate(piv):
        proj[:, c] = (-r[i, nonpiv]) % p
    quo = FdModule(m.algebra, (proj @ m.action @ lift) % p, check=False)
    return quo, ModuleMap(m, quo, proj)


def radical_rows(m):
    rad = m.algebra.radical_rows()
    if rad.shape[0] == 0 or m.dim == 0:
        return np.zeros((0, m.dim), dtype=np.int64)
    pieces = [m.act(r).T for r in rad]
    return linalg.row_space(np.vstack(pieces), m.algebra.p)


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
    out = FdModule(algebra, _restricted_action(
        _term_images(algebra, act, src, k, c, basis.T), basis.T, p,
        "A e_i is not closed under left multiplication"), check=False)
    out.amb_basis = basis
    return out


def simple_module(algebra, i):
    top, _ = top_quotient(projective_module(algebra, i))
    return top


def right_mult_module_map(pa, pb, x):
    """The map A e_a -> A e_b, m -> m*x, for x in e_a A e_b.

    Both modules must come from projective_module (they carry amb_basis).
    """
    alg = pa.algebra
    p = alg.p
    # column v holds the coordinates of amb_basis[v] * x in pb
    imgs = (alg.right_mult_matrix(x) @ pa.amb_basis.T) % p
    mat = linalg.solve_matrix(pb.amb_basis.T, imgs, p)
    if mat is None:
        raise DomainError("right multiplication leaves the target projective")
    return ModuleMap(pa, pb, mat)


def injective_module(algebra, j):
    """I_j = dual of the right module e_j A, with the transpose action."""
    p = algebra.p
    rows = algebra.left_mult_matrix(algebra.idempotents[j]).T  # e_j * b_k
    basis = linalg.row_space(rows, p)
    src, act, k, c = algebra.terms  # b_src * b_act has c at b_k
    right = _restricted_action(
        _term_images(algebra, act, src, k, c, basis.T), basis.T, p,
        "e_j A is not closed under right multiplication")
    return FdModule(algebra, right.transpose(0, 2, 1), check=False)


# ---------------------------------------------------------------------------
# Hom spaces and endomorphism rings
# ---------------------------------------------------------------------------


def hom_basis(m, n):
    """Basis of Hom(m, n) as a list of (n.dim, m.dim) matrices."""
    if m.algebra is not n.algebra:
        raise DomainError("modules over different algebras")
    p = m.algebra.p
    if m.dim == 0 or n.dim == 0:
        return []
    # X a_g = b_g X for every generator g: unknown X[r, c] is column
    # r*m + c, equation (g, r, i) is row (g*n + r)*m + i; the einsum calls
    # are writeable diagonal views, so the system is filled in place
    a, b = m.gen_actions(), n.gen_actions()
    system = np.zeros((len(a), n.dim, m.dim, n.dim, m.dim), dtype=np.int64)
    np.einsum("grirc->gric", system)[...] += a.transpose(0, 2, 1)[:, None]
    np.einsum("grcsc->gcrs", system)[...] -= b[:, None]
    system %= p
    ker = linalg.kernel_basis(system.reshape(-1, n.dim * m.dim), p)
    return [row.reshape(n.dim, m.dim) for row in ker]


def hom_dim(m, n):
    return len(hom_basis(m, n))


class EndData:
    """An endomorphism ring, coordinatized.

    Attributes:
        module: the underlying module (a direct sum when built from a list).
        mats: basis matrices.
        struct: StructAlgebra with the opposite product, so that Hom(module, X)
            becomes a left struct-module under precomposition.
        embs, prs: the embeddings/projections of the summands.
        idem_mats: the block projection idempotents (one per summand).
    """

    def __init__(self, module, mats, struct, embs, prs, idem_mats):
        self.module = module
        self.mats = mats
        self.struct = struct
        self.embs = embs
        self.prs = prs
        self.idem_mats = idem_mats

    def radical_mats(self):
        rad = self.struct.radical_rows()
        return list(np.tensordot(rad, np.array(self.mats), axes=1)
                    % self.struct.p)


def end_algebra(summands, vertex_labels=None):
    """End(⊕ summands) with the opposite product and block idempotents."""
    if not summands:
        raise DomainError("empty summand list")
    alg = summands[0].algebra
    p = alg.p
    total, embs, prs = direct_sum(alg, summands)
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
    return EndData(total, mats, struct, embs, prs, idem_mats)


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


def _frobenius_kernel(bar):
    """Kernel of x -> x^p - x on a commutative semisimple algebra: its
    dimension is the number of simple factors (Berlekamp)."""
    p = bar.p
    eye = np.eye(bar.dim, dtype=np.int64)
    frob = bar.power(eye, p).T  # column i is e_i^p
    return linalg.kernel_basis((frob - eye) % p, p)


def is_local_endo(m):
    """True iff End(m) is a local ring (so m is indecomposable)."""
    if m.dim == 0:
        return False
    mats = hom_basis(m, m)
    if len(mats) == 1:
        return True  # End(m) = k
    bar, _, commutative = _semisimple_top(
        algebra_from_matrices(mats, m.algebra.p))
    if not commutative:
        return False  # noncommutative semisimple quotient: not a division ring
    return _frobenius_kernel(bar).shape[0] == 1


# ---------------------------------------------------------------------------
# indecomposable decomposition
# ---------------------------------------------------------------------------


def _berlekamp_split_commutative(bar, ker):
    """A nontrivial idempotent of a commutative semisimple algebra, given
    its Frobenius kernel."""
    p = bar.p
    unit_solver = linalg.SpanSolver(bar.unit.reshape(1, -1), p)
    z = next((row for row in ker if not unit_solver.contains(row)), None)
    if z is None:
        raise DomainError("no splitting element found in Berlekamp kernel")
    mu = bar.element_min_poly(z)
    # mu divides X^p - X, hence splits into distinct linear factors
    roots = np.nonzero(linalg.poly_eval_many(mu, np.arange(p), p) == 0)[0]
    lam = int(roots[0])
    g, _ = linalg.poly_divmod(mu, np.array([(-lam) % p, 1], dtype=np.int64), p)
    glam = int(linalg.poly_eval_many(g, np.array([lam]), p)[0])
    epoly = (g * pow(glam, -1, p)) % p
    return _poly_at_element(bar, epoly, z)


def _poly_at_element(struct, f, z):
    acc = np.zeros(struct.dim, dtype=np.int64)
    for c in f[::-1]:
        acc = struct.multiply(acc, z)
        acc = (acc + int(c) * struct.unit) % struct.p
    return acc


def _find_idempotent_noncommutative(bar, rng):
    """Search for a nontrivial idempotent via element minimal polynomials."""
    p = bar.p
    eye = np.eye(bar.dim, dtype=np.int64)
    candidates = [eye[i] for i in range(bar.dim)]
    for _ in range(200):
        candidates.append(rng.integers(0, p, size=bar.dim, dtype=np.int64))
    for z in candidates:
        mu = bar.element_min_poly(z)
        if linalg.poly_deg(mu) < 2:
            continue
        split = _coprime_split(mu, p, rng)
        if split is None:
            continue
        f_part, g_part = split
        d, u, v = linalg.poly_ext_gcd(f_part, g_part, p)
        if linalg.poly_deg(d) != 0:
            continue
        dinv = pow(int(d[0]), -1, p)
        e_poly = linalg.poly_mod(
            (linalg.poly_mul(u, f_part, p) * dinv) % p, mu, p)
        e = _poly_at_element(bar, e_poly, z)
        if np.any(e) and not np.array_equal(e, bar.unit):
            if np.array_equal(bar.multiply(e, e), e):
                return e
    raise DomainError("failed to split a noncommutative semisimple quotient")


def _coprime_split(mu, p, rng):
    """mu = F*G with F, G coprime nonconstant, or None if mu is an
    irreducible power."""
    s = linalg.poly_squarefree_part(mu, p)
    f = _ddf_smallest_factor(s, p, rng)
    if f is None or linalg.poly_deg(f) == linalg.poly_deg(mu):
        return None
    f_power = f.copy()
    while True:
        q, r = linalg.poly_divmod(mu, linalg.poly_mul(f_power, f, p), p)
        if linalg.poly_is_zero(r):
            f_power = linalg.poly_mul(f_power, f, p)
        else:
            break
    g, r = linalg.poly_divmod(mu, f_power, p)
    if linalg.poly_is_zero(g) or linalg.poly_deg(g) < 1 or not linalg.poly_is_zero(r):
        return None
    return f_power, g


def _ddf_smallest_factor(s, p, rng):
    """Smallest-degree irreducible factor of a squarefree monic s."""
    if linalg.poly_deg(s) < 1:
        return None
    x = np.array([0, 1], dtype=np.int64)
    t = x.copy()
    rem = linalg.poly_monic(s, p)
    for d in range(1, linalg.poly_deg(s) + 1):
        if linalg.poly_deg(rem) < 1:
            return None
        if linalg.poly_deg(rem) == d:
            return rem
        t = linalg.poly_pow_mod(t, p, rem, p)
        diff = linalg.poly_trim((linalg.poly_sub(t, x, p)))
        g = linalg.poly_gcd(diff, rem, p)
        if linalg.poly_deg(g) >= 1:
            if linalg.poly_deg(g) == d:
                return g
            return _equal_degree_split(g, d, p, rng)
        # no factor of this degree; continue with rem unchanged
    return None


def _equal_degree_split(h, d, p, rng):
    """One irreducible factor of h, where h is a product of distinct
    irreducibles all of degree d (Cantor–Zassenhaus)."""
    if linalg.poly_deg(h) == d:
        return linalg.poly_monic(h, p)
    e = (pow(p, d) - 1) // 2
    while True:
        a = rng.integers(0, p, size=linalg.poly_deg(h), dtype=np.int64)
        a = linalg.poly_trim(a)
        if linalg.poly_deg(a) < 1:
            continue
        b = linalg.poly_pow_mod(a, e, h, p)
        b = linalg.poly_sub(b, np.array([1], dtype=np.int64), p)
        g = linalg.poly_gcd(b, h, p)
        if 0 < linalg.poly_deg(g) < linalg.poly_deg(h):
            part = g if linalg.poly_deg(g) <= linalg.poly_deg(h) - linalg.poly_deg(g) \
                else linalg.poly_divmod(h, g, p)[0]
            return _equal_degree_split(part, d, p, rng)


def _lift_idempotent(struct, e0):
    """Newton iteration e <- 3e^2 - 2e^3 until exactly idempotent."""
    p = struct.p
    e = e0.copy()
    for _ in range(2 * struct.dim + 8):
        e2 = struct.multiply(e, e)
        if np.array_equal(e2, e):
            return e
        e3 = struct.multiply(e2, e)
        e = (3 * e2 - 2 * e3) % p
    raise DomainError("idempotent lifting did not stabilize")


def decompose(m):
    """Indecomposable direct summands of m, as (module, inclusion) pairs."""
    if m.dim == 0:
        return []
    rng = np.random.default_rng(_RNG_SEED)
    return _decompose_inner(m, rng)


def _decompose_inner(m, rng):
    p = m.algebra.p
    mats = hom_basis(m, m)
    struct = algebra_from_matrices(mats, p)
    bar, lift, commutative = _semisimple_top(struct)
    if commutative:
        ker = _frobenius_kernel(bar)
        if ker.shape[0] == 1:
            return [(m, identity_map(m))]
        ebar = _berlekamp_split_commutative(bar, ker)
    else:
        ebar = _find_idempotent_noncommutative(bar, rng)
    e = _lift_idempotent(struct, ebar if lift is None else (lift @ ebar) % p)
    emat = np.tensordot(e, np.array(mats), axes=1) % p
    rest = (np.eye(m.dim, dtype=np.int64) - emat) % p
    out = []
    for part in (emat, rest):
        sub, incl = submodule(m, linalg.row_space(part.T, p))
        if sub.dim == 0:
            raise DomainError("idempotent splitting produced a zero part")
        for piece, sub_incl in _decompose_inner(sub, rng):
            out.append((piece, incl.compose(sub_incl)))
    return out


def decompose_grouped(m):
    """[(indecomposable, multiplicity)] with one representative per iso class."""
    parts = decompose(m)
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
    if is_local_endo(m) or is_local_endo(n):
        return False
    gm, gn = decompose_grouped(m), decompose_grouped(n)
    return len(gm) == len(gn) and all(
        any(k == kn and is_iso(x, y) for y, kn in gn) for x, k in gm)


# ---------------------------------------------------------------------------
# torsion pairs
# ---------------------------------------------------------------------------


def trace_submodule(u, x):
    """t_u(x): sum of images of all maps u -> x, with inclusion."""
    homs = hom_basis(u, x)
    if not homs:
        sub = zero_module(x.algebra)
        return sub, ModuleMap(sub, x, np.zeros((x.dim, 0), dtype=np.int64))
    rows = np.vstack([h.T for h in homs])
    return submodule(x, linalg.row_space(rows, x.algebra.p))


def torsion_free_quotient(u, x):
    """f_u(x) = x / t_u(x), with projection."""
    homs = hom_basis(u, x)
    if not homs:
        return x, identity_map(x)
    rows = np.vstack([h.T for h in homs])
    return quotient_module(x, rows)


def in_gen(u, x):
    """True iff x lies in Gen u (the trace is everything)."""
    sub, _ = trace_submodule(u, x)
    return sub.dim == x.dim


# ---------------------------------------------------------------------------
# minimal approximations
# ---------------------------------------------------------------------------


def _min_approx(x, u_summands, right):
    """Minimal right (sum -> x) or left (x -> sum) add(⊕u_summands)-
    approximation of x.

    Maps are handled as matrices x <- sum: a left map is transposed, which
    permutes the flattened entries of every candidate in the same way and
    so changes no rank test, and the result is transposed back.
    Returns (the sum, ModuleMap, list of summand indices used).
    """
    alg = x.algebra
    p = alg.p
    u_summands = [u for u in u_summands if u.dim]
    kept = []  # (summand index, map x <- u_j)
    if u_summands:
        end = end_algebra(u_summands)
        homs = hom_basis(end.module, x) if right else \
            [h.T for h in hom_basis(x, end.module)]
        rad_mats = [r if right else r.T for r in end.radical_mats()]
        width = x.dim * end.module.dim
        w_rows = [(h @ r) % p for h in homs for r in rad_mats]
        cands = [(h @ pj) % p for pj in end.idem_mats for h in homs]
        new = linalg.extend_basis(
            np.array(w_rows, dtype=np.int64).reshape(len(w_rows), width),
            np.array(cands, dtype=np.int64).reshape(len(cands), width), p)
        for j, f in (divmod(i, len(homs)) for i in new):
            kept.append((j, (homs[f] @ end.embs[j]) % p))
    used = [j for j, _ in kept]
    summ, _, _ = direct_sum(alg, [u_summands[j] for j in used])
    mat = np.hstack([np.zeros((x.dim, 0), dtype=np.int64)] +
                    [mp for _, mp in kept]) % p
    return summ, (ModuleMap(summ, x, mat) if right else
                  ModuleMap(x, summ, mat.T)), used


def min_right_approx(u_summands, x):
    """Minimal right add(⊕u_summands)-approximation of x: (source module,
    ModuleMap alpha to x, list of summand indices used)."""
    return _min_approx(x, u_summands, right=True)


def min_left_approx(x, u_summands):
    """Minimal left add(⊕u_summands)-approximation of x: (target module,
    ModuleMap beta from x, list of summand indices used)."""
    return _min_approx(x, u_summands, right=False)


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

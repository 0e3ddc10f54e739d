"""Exact dense linear algebra over a prime field F_p.

All matrices are numpy int64 arrays with entries reduced mod p.  Row
reduction is plain Gauss-Jordan with the first nonzero pivot, so every
routine is deterministic.  Also provides the small amount of univariate
polynomial arithmetic over F_p needed for splitting endomorphism rings
(minimal polynomials, gcds, modular exponentiation).
"""

import numpy as np

from .errors import DomainError

DEFAULT_PRIME = 32003
# Entries are reduced into [0, p).  With p < 2**16 a product of two entries
# is below p**2 < 2**32, so any sum of fewer than 2**31 such products stays
# below 2**63: every int64 accumulation of reduced entries is exact.
FIELD_BOUND = 2 ** 16


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p):
    if p >= FIELD_BOUND:
        raise DomainError(f"field order {p} is not below 2^16, the bound "
                          "for exact int64 arithmetic")
    if not is_prime(p):
        raise DomainError(f"field order {p} is not prime")
    return p


def asmod(a, p):
    """Coerce to an int64 array with entries in [0, p)."""
    return np.asarray(a, dtype=np.int64) % p


def rref(a, p):
    """Reduced row echelon form.

    Returns:
        (r, pivots): the RREF matrix and the list of pivot column indices.
    """
    r = asmod(a, p).copy()
    rows, cols = r.shape
    pivots = []
    pr = 0
    for c in range(cols):
        if pr >= rows:
            break
        nz = np.nonzero(r[pr:, c])[0]
        if nz.size == 0:
            continue
        i = pr + int(nz[0])
        if i != pr:
            r[[pr, i]] = r[[i, pr]]
        inv = pow(int(r[pr, c]), -1, p)
        r[pr] = (r[pr] * inv) % p
        other = np.nonzero(r[:, c])[0]
        for j in other:
            if j != pr:
                r[j] = (r[j] - r[j, c] * r[pr]) % p
        pivots.append(c)
        pr += 1
    return r, pivots


def rank(a, p):
    a = asmod(a, p)
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def extend_basis(base, cands, p):
    """Indices of the candidate rows outside the span of the base rows and
    of the candidates before them (a greedy basis extension).

    Column c of an RREF is a pivot exactly when it lies outside the span of
    the columns before it, so these are the pivots of the stacked rows'
    transpose that fall among the candidates.
    """
    nb = base.shape[0]
    if not len(cands):
        return []
    _, piv = rref(np.vstack([base, cands]).T, p)
    return [c - nb for c in piv if c >= nb]


def row_space(a, p):
    """Canonical (RREF) basis of the row space, as rows."""
    a = asmod(a, p)
    if a.size == 0:
        return np.zeros((0, a.shape[1] if a.ndim == 2 else 0), dtype=np.int64)
    r, piv = rref(a, p)
    return r[: len(piv)].copy()


def kernel_basis(a, p):
    """Basis of the right null space {x : a @ x = 0}, returned as rows."""
    a = asmod(a, p)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, piv = rref(a, p)
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(piv):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


def solve(a, b, p):
    """Some x with a @ x = b, or None if inconsistent.  b is a vector."""
    a = asmod(a, p)
    b = asmod(b, p)
    x = solve_matrix(a, b.reshape(-1, 1), p)
    return None if x is None else x[:, 0]


def solve_matrix(a, b, p):
    """Some X with a @ X = b, or None.  b has one column per system."""
    a = asmod(a, p)
    b = asmod(b, p)
    rows, cols = a.shape
    aug = np.hstack([a, b.reshape(rows, -1)])
    r, piv = rref(aug, p)
    k = b.shape[1]
    for i, c in enumerate(piv):
        if c >= cols:
            return None
    x = np.zeros((cols, k), dtype=np.int64)
    for i, c in enumerate(piv):
        x[c] = r[i, cols:]
    return x


def inverse(a, p):
    a = asmod(a, p)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        return None
    x = solve_matrix(a, np.eye(n, dtype=np.int64), p)
    return x


class SpanSolver:
    """Repeated membership/coordinate queries against a fixed row span.

    coords(v) returns c with c @ rows = v (coefficients in the original
    generating rows), or None when v lies outside the span.  Leading axes
    of v are batch axes; then None means some vector lies outside.
    """

    def __init__(self, rows, p):
        rows = asmod(rows, p)
        self.p = p
        n = rows.shape[0]
        aug = np.hstack([rows, np.eye(n, dtype=np.int64)])
        r, piv = rref(aug, p)
        width = rows.shape[1]
        piv_in = [c for c in piv if c < width]
        self.red = r[: len(piv_in), :width]
        self.tr = r[: len(piv_in), width:]
        self.pivots = piv_in
        self.dim = len(piv_in)

    def coords(self, v):
        # red is in RREF, so the coefficients on its rows are v's values at
        # the pivot columns
        v = asmod(v, self.p)
        y = v[..., self.pivots]
        if ((y @ self.red) % self.p != v).any():
            return None
        return (y @ self.tr) % self.p

    def contains(self, v):
        return self.coords(v) is not None


# ---------------------------------------------------------------------------
# univariate polynomials over F_p: coefficient vectors, ascending degree
# ---------------------------------------------------------------------------


def poly_trim(f):
    f = np.asarray(f, dtype=np.int64)
    nz = np.nonzero(f)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=np.int64)
    return f[: int(nz[-1]) + 1].copy()


def poly_deg(f):
    f = poly_trim(f)
    if f.shape[0] == 1 and f[0] == 0:
        return -1
    return f.shape[0] - 1


def poly_is_zero(f):
    return poly_deg(f) < 0


def poly_monic(f, p):
    f = poly_trim(asmod(f, p))
    if poly_is_zero(f):
        return f
    inv = pow(int(f[-1]), -1, p)
    return (f * inv) % p


def poly_mul(f, g, p):
    f = asmod(f, p)
    g = asmod(g, p)
    if poly_is_zero(f) or poly_is_zero(g):
        return np.zeros(1, dtype=np.int64)
    out = np.convolve(f, g) % p
    return poly_trim(out)


def poly_sub(f, g, p):
    n = max(f.shape[0], g.shape[0])
    out = np.zeros(n, dtype=np.int64)
    out[: f.shape[0]] = f
    out[: g.shape[0]] = (out[: g.shape[0]] - g) % p
    return out % p


def poly_divmod(f, g, p):
    f = poly_trim(asmod(f, p))
    g = poly_trim(asmod(g, p))
    if poly_is_zero(g):
        raise DomainError("polynomial division by zero")
    df, dg = poly_deg(f), poly_deg(g)
    if df < dg:
        return np.zeros(1, dtype=np.int64), f
    inv = pow(int(g[-1]), -1, p)
    rem = f.copy()
    q = np.zeros(df - dg + 1, dtype=np.int64)
    for k in range(df - dg, -1, -1):
        c = (rem[k + dg] * inv) % p
        if c:
            q[k] = c
            rem[k : k + dg + 1] = (rem[k : k + dg + 1] - c * g) % p
    return poly_trim(q), poly_trim(rem)


def poly_mod(f, g, p):
    return poly_divmod(f, g, p)[1]


def poly_gcd(f, g, p):
    f = poly_trim(asmod(f, p))
    g = poly_trim(asmod(g, p))
    while not poly_is_zero(g):
        f, g = g, poly_mod(f, g, p)
    return poly_monic(f, p)


def poly_ext_gcd(f, g, p):
    """(d, u, v) with u*f + v*g = d = gcd(f, g)."""
    r0, r1 = poly_trim(asmod(f, p)), poly_trim(asmod(g, p))
    s0, s1 = np.array([1], dtype=np.int64), np.array([0], dtype=np.int64)
    t0, t1 = np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)
    while not poly_is_zero(r1):
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, poly_trim((poly_sub(s0, poly_mul(q, s1, p), p)))
        t0, t1 = t1, poly_trim((poly_sub(t0, poly_mul(q, t1, p), p)))
    if poly_is_zero(r0):
        return r0, s0, t0
    lead_inv = pow(int(r0[-1]), -1, p)
    return (r0 * lead_inv) % p, (s0 * lead_inv) % p, (t0 * lead_inv) % p


def poly_pow_mod(f, e, g, p):
    """f^e mod g over F_p by square and multiply."""
    result = np.array([1], dtype=np.int64)
    base = poly_mod(f, g, p)
    while e > 0:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), g, p)
        base = poly_mod(poly_mul(base, base, p), g, p)
        e >>= 1
    return result


def poly_derivative(f, p):
    f = poly_trim(asmod(f, p))
    if poly_deg(f) < 1:
        return np.zeros(1, dtype=np.int64)
    ks = np.arange(1, f.shape[0], dtype=np.int64)
    return poly_trim((f[1:] * ks) % p)


def poly_eval_many(f, xs, p):
    """Evaluate f at every entry of xs (Horner, vectorized)."""
    f = asmod(f, p)
    xs = asmod(xs, p)
    acc = np.zeros_like(xs)
    for c in f[::-1]:
        acc = (acc * xs + int(c)) % p
    return acc


def poly_squarefree_part(f, p):
    f = poly_monic(f, p)
    d = poly_derivative(f, p)
    if poly_is_zero(d):
        # f is a p-th power; at our degrees (< p) this cannot happen for
        # nonconstant f, so only constants land here.
        return f
    g = poly_gcd(f, d, p)
    return poly_divmod(f, g, p)[0]

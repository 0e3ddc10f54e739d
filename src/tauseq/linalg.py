"""Exact dense linear algebra over a prime field F_p.

All matrices are numpy int64 arrays.  rref is the one reduction mod p:
it takes any integer array, and every routine here that row-reduces hands
its input to rref unreduced, so each input is reduced once; results have
entries in [0, p).  Row reduction is Gauss-Jordan with the first nonzero
pivot, so every routine is deterministic.  It runs on Python int lists for
rows of at most LIST_COLS entries and as numpy row operations for longer
rows; the RREF is unique, so both kernels return the same arrays.
SpanSolver is the one solver: a linear system, an inverse or a membership
question is a coordinate query against a row span.  Polynomials over F_p
are evaluated only to find the roots of a minimal polynomial.
"""

import math

import numpy as np

from .errors import DomainError

DEFAULT_PRIME = 32003
# Entries are reduced into [0, p).  With p < 2**16 a product of two entries
# is below p**2 < 2**32, so any sum of fewer than 2**31 such products stays
# below 2**63: every int64 accumulation of reduced entries is exact.
FIELD_BOUND = 2 ** 16
# A list row operation costs O(cols) interpreted steps and a numpy one a fixed
# few calls: dense 32 x 32 systems take about as long either way.
LIST_COLS = 32


def is_prime(n):
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


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
    r = asmod(a, p)
    rows, cols = r.shape
    if cols <= LIST_COLS:
        return _rref_lists(r.tolist(), rows, cols, p)
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


def _rref_lists(m, rows, cols, p):
    """rref on a list of int rows, reduced in place."""
    pivots = []
    for c in range(cols):
        pr = len(pivots)
        if pr == rows:
            break
        for i in range(pr, rows):
            if m[i][c]:
                break
        else:
            continue
        m[pr], m[i] = m[i], m[pr]
        row = m[pr]
        inv = pow(row[c], -1, p)
        if inv != 1:
            row = m[pr] = [x * inv % p for x in row]
        for j, other in enumerate(m):
            f = other[c]
            if f and j != pr:
                m[j] = [(x - f * y) % p for x, y in zip(other, row)]
        pivots.append(c)
    return np.array(m, dtype=np.int64).reshape(rows, cols), pivots


def rank(a, p):
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
    r, piv = rref(a, p)
    return r[: len(piv)].copy()


def complement_rows(r, pivots, p):
    """(rows, free columns) of the RREF r: row k is e_c - sum_i r[i, c]
    e_{pivots[i]} for the k-th free column c.  The rows span r's null space
    and project onto the quotient by r's row span, read at the free columns.
    pivots is a list or an array; like rref, a narrow r is read as int
    lists."""
    cols = r.shape[1]
    if cols <= LIST_COLS:
        pivots = list(map(int, pivots))
        m = r[: len(pivots)].tolist()
        free = [c for c in range(cols) if c not in pivots]
        rows = []
        for c in free:
            row = [0] * cols
            row[c] = 1
            for pc, prow in zip(pivots, m):
                row[pc] = -prow[c] % p
            rows.append(row)
        return (np.array(rows, dtype=np.int64).reshape(len(free), cols),
                np.array(free, dtype=np.int64))
    keep = np.ones(cols, dtype=bool)
    keep[pivots] = False
    free = np.flatnonzero(keep)
    rows = np.zeros((len(free), cols), dtype=np.int64)
    rows[np.arange(len(free)), free] = 1
    rows[:, pivots] = (-r[: len(pivots), free].T) % p
    return rows, free


def kernel_basis(a, p):
    """Right null space {x : a @ x = 0} as rows: the RREF complement of a."""
    return complement_rows(*rref(a, p), p)[0]


class SpanSolver:
    """Repeated membership/coordinate queries against a fixed row span.

    coords(v) returns c with c @ rows = v (coefficients in the original
    generating rows), or None when v lies outside the span.  Leading axes
    of v are batch axes; then None means some vector lies outside.
    """

    def __init__(self, rows, p):
        self.p = p
        n, width = np.shape(rows)
        r, piv = rref(np.hstack([rows, np.eye(n, dtype=np.int64)]), p)
        piv_in = [c for c in piv if c < width]
        self.red = r[: len(piv_in), :width]
        self.tr = r[: len(piv_in), width:]
        self.pivots = piv_in
        self.dim = len(piv_in)

    def coords(self, v):
        # red is in RREF, so the coefficients on its rows are v's values at
        # the pivot columns
        y = v[..., self.pivots]
        if ((y @ self.red - v) % self.p).any():
            return None
        return (y @ self.tr) % self.p


# ---------------------------------------------------------------------------
# univariate polynomials over F_p: coefficient vectors, ascending degree; only
# evaluation is needed (the roots of a minimal polynomial in a Berlekamp split)
# ---------------------------------------------------------------------------


def poly_eval_many(f, xs, p):
    """Evaluate f at every entry of xs (Horner, vectorized)."""
    f = asmod(f, p)
    xs = asmod(xs, p)
    acc = np.zeros_like(xs)
    for c in f[::-1]:
        acc = (acc * xs + int(c)) % p
    return acc

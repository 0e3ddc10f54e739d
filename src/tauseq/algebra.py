"""Basic finite-dimensional algebras as structure constants.

An algebra is stored as a basis with its nonzero structure constants plus
a distinguished complete set of orthogonal idempotents.  Constructors:
path algebras of quivers with monomial relations (parsed from text),
quotients by two-sided ideals (in particular ideals generated by an
idempotent), and matrix algebras coordinatized from a spanning set
(used for endomorphism rings).

Multiplication convention: for paths, x*y is "traverse y, then x", i.e.
composition in function order, so that a left module action satisfies
act(x*y) = act(x) @ act(y).
"""

import numpy as np

from . import linalg
from .errors import DomainError, InputError


class QuiverPresentation:
    """A quiver with monomial relations.

    Attributes:
        vertices: list of vertex labels (strings).
        arrows: list of (name, source label, target label).
        relations: list of arrow-name lists in traversal order
            (first-traversed arrow first).
        p: field order.
    """

    def __init__(self, vertices, arrows, relations, p=linalg.DEFAULT_PRIME):
        self.vertices = list(vertices)
        self.arrows = list(arrows)
        self.relations = [list(r) for r in relations]
        self.p = p
        names = [a[0] for a in self.arrows]
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex label")
        if len(set(names)) != len(names):
            raise InputError("duplicate arrow name")
        arrow_by_name = {a[0]: a for a in self.arrows}
        for name, src, dst in self.arrows:
            if src not in self.vertices or dst not in self.vertices:
                raise InputError(f"arrow {name} references unknown vertex")
        for rel in self.relations:
            if len(rel) < 2:
                raise InputError("relation of length < 2 is not admissible")
            for name in rel:
                if name not in arrow_by_name:
                    raise InputError(f"relation references unknown arrow {name}")
            for a, b in zip(rel, rel[1:]):
                if arrow_by_name[a][2] != arrow_by_name[b][1]:
                    raise InputError(
                        f"relation {' '.join(rel)} is not a composable path"
                    )


def parse_quiver(text):
    """Parse the line-oriented algebra file format into a QuiverPresentation."""
    vertices = []
    arrows = []
    relations = []
    p = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "field":
            if len(parts) != 2:
                raise InputError(f"line {lineno}: field takes one argument")
            if p is not None:
                raise InputError(f"line {lineno}: duplicate field line")
            try:
                p = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: field order must be an integer")
        elif kind == "vertex":
            if len(parts) != 2:
                raise InputError(f"line {lineno}: vertex takes one argument")
            vertices.append(parts[1])
        elif kind == "arrow":
            if len(parts) != 4:
                raise InputError(f"line {lineno}: arrow takes name src dst")
            arrows.append((parts[1], parts[2], parts[3]))
        elif kind == "rel":
            if len(parts) < 3:
                raise InputError(f"line {lineno}: relation needs at least 2 arrows")
            relations.append(parts[1:])
        else:
            raise InputError(f"line {lineno}: unknown directive {kind!r}")
    if p is None:
        p = linalg.DEFAULT_PRIME
    linalg.check_prime(p)
    if not vertices:
        raise InputError("algebra file defines no vertices")
    return QuiverPresentation(vertices, arrows, relations, p)


# at most this many cells, a join compares every pair and a sum by key
# goes through a dense count; above it both sort
_SMALL = 1 << 16

# (i, j, l, m) join keys of the associativity check are below dim^4 < 2^63
_MAX_CHECKED_DIM = 55108

# about this many join rows per chunk of the rad^2 join
_JOIN_ROWS = 1 << 18


def _join(left, right, size):
    """Index pairs (a, b) with left[a] == right[b], for keys in [0, size),
    sorted by a and then b."""
    if len(left) * len(right) <= _SMALL:
        return (left[:, None] == right).nonzero()
    order = np.argsort(right, kind="stable")
    counts = np.bincount(right, minlength=size)
    n = counts[left]
    a = np.repeat(np.arange(len(left)), n)
    skip = (counts.cumsum() - counts)[left] - (n.cumsum() - n)
    return a, order[np.repeat(skip, n) + np.arange(len(a))]


def _sum_by_key(keys, vals, p, size):
    """(sorted distinct keys in [0, size), vals summed per key mod p),
    keeping only the keys whose sum is nonzero."""
    vals = vals % p
    if size <= _SMALL:
        sums = np.zeros(size, dtype=np.int64)
        np.add.at(sums, keys, vals)
        sums %= p
        keys = sums.nonzero()[0]
        return keys, sums[keys]
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first = _run_starts(keys).nonzero()[0]
    sums = np.add.reduceat(vals, first) % p
    keep = sums != 0
    return keys[first[keep]], sums[keep]


def _run_starts(keys):
    """Mask of the entries of sorted keys that differ from the one before."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return new


class StructAlgebra:
    """A finite-dimensional algebra with structure constants over F_p.

    Only the nonzero structure constants are stored: a monomial algebra has
    at most one per pair of basis paths, so about d^2 of the d^3 entries of
    a dense table (220 of 166,375 for linear A10).

    Attributes:
        p: field order.
        dim: vector-space dimension.
        labels: basis element names.
        terms: (i, j, k, c) int64 arrays sorted by (i, j, k), one entry per
            nonzero structure constant: b_i * b_j has c in [1, p) at b_k.
        idempotents: (n, dim) rows, a complete set of orthogonal idempotents.
        unit: coordinates of 1.
        vertex_labels: display labels aligned with the idempotents.
    """

    def __init__(self, p, labels, terms, idempotents, unit=None,
                 vertex_labels=None, check=True):
        self.p = linalg.check_prime(p)
        self.labels = list(labels)
        self.dim = d = len(self.labels)
        i, j, k, c = (np.asarray(a, dtype=np.int64).reshape(-1) for a in terms)
        try:
            if not len(i) == len(j) == len(k) == len(c):
                raise ValueError
            key, c = np.ravel_multi_index((i, j, k), (d, d, d)), c % p
        except ValueError:
            raise DomainError("structure constant index out of range")
        if not (c.all() and (key[1:] > key[:-1]).all()):
            # duplicates of one (i, j, k) add up; zero sums drop out
            key, c = _sum_by_key(key, c, p, d ** 3)
            i, j, k = key // (d * d), key // d % d, key % d
        self.terms = (i, j, k, c)
        self.idempotents = linalg.asmod(idempotents, p)
        if unit is None:
            unit = self.idempotents.sum(axis=0) % p
        self.unit = linalg.asmod(unit, p)
        n = self.idempotents.shape[0]
        if vertex_labels is None:
            vertex_labels = [f"v{i}" for i in range(n)]
        self.vertex_labels = list(vertex_labels)
        self._radical = None
        self._corners = {}
        self._gens = None
        self._gen_terms = None
        if self.p <= self.dim:
            raise DomainError(
                f"field order {self.p} must exceed algebra dimension {self.dim}"
            )
        if check:
            self._validate()

    # -- construction checks ------------------------------------------------

    def _validate(self):
        p, d = self.p, self.dim
        if d > _MAX_CHECKED_DIM:
            raise DomainError(f"algebra dimension {d} is above "
                              f"{_MAX_CHECKED_DIM}, the checked bound")
        i, j, k, c = self.terms
        # (b_i b_j) b_l = sum of c_ijk c_klm b_m: join (i, j, k) to
        # (k, l, m); b_i (b_j b_l) = sum of c_jlk' c_ik'm b_m: join
        # (j, l, k') to (i, k', m).  Summed over the key (i, j, l, m), the
        # two sides must cancel.
        a, b = _join(k, i, d)
        a2, b2 = _join(k, j, d)
        ij = i * d + j
        keys = np.concatenate((ij[a] * d * d + (j * d + k)[b],
                               ij[a2] * d + (i * d ** 3 + k)[b2]))
        vals = np.concatenate((c[a] * c[b], -(c[a2] * c[b2])))
        if len(_sum_by_key(keys, vals, p, d ** 4)[0]):
            raise DomainError("multiplication is not associative")
        idem = self.idempotents
        left = self.left_mult_matrix(np.vstack([self.unit, idem]))
        ident = np.eye(d, dtype=np.int64)
        if not ((left[0] == ident).all() and
                (self.right_mult_matrix(self.unit) == ident).all()):
            raise DomainError("unit law fails")
        # prods[a, :, b] = e_a * e_b: e_a when a = b and 0 otherwise
        prods = left[1:] @ idem.T % p
        want = np.zeros_like(prods)
        want[np.arange(len(idem)), :, np.arange(len(idem))] = idem
        if not (prods == want).all():
            raise DomainError("distinguished idempotents are not orthogonal")
        if not np.array_equal(self.idempotents.sum(axis=0) % p, self.unit):
            raise DomainError("idempotents do not sum to the unit")

    # -- arithmetic ----------------------------------------------------------

    def multiply(self, x, y):
        """x*y on coordinates; leading axes of x and y broadcast as a batch."""
        p = self.p
        x = linalg.asmod(x, p)
        y = linalg.asmod(y, p)
        i, j, k, c = self.terms
        vals = (x.take(i, -1) * y.take(j, -1)) % p * c % p
        out = np.zeros(vals.shape[:-1] + (self.dim,), dtype=np.int64)
        np.add.at(out.T, k, vals.T)  # transposed: k indexes the first axis
        return out % p

    def left_mult_matrix(self, x):
        """Matrix of y -> x*y on coordinates; a stack of them for a batch x."""
        i, j, k, c = self.terms
        return self._scatter(k, j, linalg.asmod(x, self.p)[..., i] * c)

    def right_mult_matrix(self, y):
        """Matrix of x -> x*y on coordinates."""
        i, j, k, c = self.terms
        return self._scatter(k, i, linalg.asmod(y, self.p)[j] * c)

    def _scatter(self, rows, cols, vals):
        """(..., dim, dim) matrices summing vals mod p into the (rows, cols)
        cells, one for each leading index of vals."""
        out = np.zeros(vals.shape[:-1] + (self.dim, self.dim), dtype=np.int64)
        np.add.at(out, (..., rows, cols), vals % self.p)
        return out % self.p

    def power(self, x, e):
        """x^e on coordinates, for each row of a batch x."""
        base = linalg.asmod(x, self.p)
        result = np.broadcast_to(self.unit, base.shape).copy()
        while e > 0:
            if e & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            e >>= 1
        return result

    def element_min_poly(self, x):
        """Monic minimal polynomial of x, ascending coefficients."""
        rows = [self.unit.copy()]
        cur = self.unit.copy()
        while True:
            cur = self.multiply(cur, x)
            solver = linalg.SpanSolver(np.array(rows), self.p)
            c = solver.coords(cur)
            if c is not None:
                k = len(rows)
                f = np.zeros(k + 1, dtype=np.int64)
                f[k] = 1
                f[:k] = (-c) % self.p
                return f
            rows.append(cur.copy())

    # -- structure -----------------------------------------------------------

    def radical_rows(self):
        """RREF basis of the Jacobson radical (trace-form kernel)."""
        if self._radical is None:
            # trace form: tr(L_x L_y) = sum of c_xba c_yab over the pairs of
            # terms (x, b, a) and (y, a, b), with L_x[a, b] = c_xba
            d = self.dim
            i, j, k, c = self.terms
            a, b = _join(k * d + j, j * d + k, d * d)
            gram = self._scatter(i[a], i[b], c[a] * c[b])
            self._radical = linalg.row_space(linalg.kernel_basis(gram, self.p), self.p)
        return self._radical

    def _radical_products(self):
        """Rows spanning rad^2: the distinct nonzero products r*s of radical
        basis rows.  Each entry of r times a term times an entry of s is one
        join row; the left factors r go in chunks of about _JOIN_ROWS join
        rows on average."""
        rad, p, d = self.radical_rows(), self.p, self.dim
        i, j, k, c = self.terms
        nr = rad.shape[0]
        if not nr:
            return rad
        rr, rc = np.nonzero(rad)  # sorted by row
        rv = rad[rr, rc]
        step = nr
        if len(rr) * len(i) * nr > _JOIN_ROWS:  # a bound on the join rows
            # join rows of each radical entry: its terms times the entries
            # on each term's right factor
            per_col = np.bincount(i, np.bincount(rc, minlength=d)[j], d)
            step = max(1, int(nr * _JOIN_ROWS // max(1, per_col[rc].sum())))
        cuts = np.searchsorted(rr, np.arange(0, nr + step, step))
        keys, vals = [], []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            a, t = _join(rc[lo:hi], i, d)
            q, b = _join(j[t], rc, d)
            a, t = a[q] + lo, t[q]
            key, val = _sum_by_key((rr[a] * nr + rr[b]) * d + k[t],
                                   rv[a] * c[t] % p * rv[b], p, nr * nr * d)
            keys.append(key)
            vals.append(val)
        key = np.concatenate(keys)
        # one row per distinct pair (r, s), in order
        row = _run_starts(key // d).cumsum() - 1
        out = np.zeros((row[-1] + 1 if len(row) else 0, d), dtype=np.int64)
        out[row, key % d] = np.concatenate(vals)
        return out

    def arrow_count(self):
        """dim rad/rad^2: the generator vectors past the idempotents lift a
        basis of it."""
        return len(self.generator_vectors()) - self.idempotents.shape[0]

    def invariants(self):
        """(number of idempotents, dimension, arrow count)."""
        return (self.idempotents.shape[0], self.dim, self.arrow_count())

    def generator_vectors(self):
        """Idempotents plus a lift of rad/rad^2; they generate the algebra."""
        if self._gens is None:
            rad = self.radical_rows()
            keep = linalg.extend_basis(self._radical_products(), rad, self.p)
            gens = [rad[i] for i in keep]
            self._gens = [self.idempotents[i]
                          for i in range(self.idempotents.shape[0])] + gens
        return self._gens

    def generator_products(self):
        """(cells, starts, k, c): the nonzero coordinates of the products
        g * b_j of the generator vectors with the basis, computed once.
        They are sorted by the cell g * dim + j; the run of cells[r] starts
        at starts[r], and its entries give g * b_j = sum of c b_k."""
        if self._gen_terms is None:
            d = self.dim
            i, j, k, c = self.terms
            gens = np.array(self.generator_vectors())
            gg, gi = np.nonzero(gens)
            a, t = _join(gi, i, d)
            key, val = _sum_by_key((gg[a] * d + j[t]) * d + k[t],
                                   gens[gg[a], gi[a]] * c[t], self.p,
                                   len(gens) * d * d)
            new = _run_starts(key // d)
            self._gen_terms = (key[new] // d, new.nonzero()[0], key % d, val)
        return self._gen_terms

    def corner(self, a, b):
        """(RREF basis, pivot columns) of e_a * A * e_b as a subspace of A."""
        key = (a, b)
        if key not in self._corners:
            flank = (self.left_mult_matrix(self.idempotents[a]) @
                     self.right_mult_matrix(self.idempotents[b])) % self.p
            basis = linalg.row_space(flank.T, self.p)
            self._corners[key] = (basis, np.argmax(basis != 0, axis=1))
        return self._corners[key]


# ---------------------------------------------------------------------------
# path algebra construction
# ---------------------------------------------------------------------------


def _path_walks(qp):
    """(count, successors) of the relation-avoiding paths, or (None, None)
    when there are infinitely many.

    A path avoids the relations when no relation ends at any of its arrows,
    which depends only on its target and its last L - 1 arrows, L the
    longest relation.  So the paths are the walks from the states
    (vertex, ()) over the states (vertex, last L - 1 arrows), and there are
    infinitely many exactly when a reachable state lies on a cycle.  The
    walks are counted by one depth-first search, without listing them;
    successors maps each reachable state to its (arrow, next state) pairs.
    """
    keep = max((len(r) for r in qp.relations), default=1) - 1
    rels = [tuple(r) for r in qp.relations]
    out = {}
    for name, src, dst in qp.arrows:
        out.setdefault(src, []).append((name, dst))
    succ, count = {}, {}  # count: walks from a finished state
    total = 0
    for v in qp.vertices:
        stack = [(v, ())]
        while stack:
            state = stack[-1]
            if state not in succ:
                succ[state] = []
                for name, dst in out.get(state[0], ()):
                    ext = state[1] + (name,)
                    if not any(ext[-len(r):] == r for r in rels):
                        succ[state].append(
                            (name, (dst, ext[max(0, len(ext) - keep):])))
            todo = [nxt for _, nxt in succ[state] if nxt not in count]
            if any(nxt in succ for nxt in todo):
                return None, None  # an unfinished state: on the stack
            if todo:
                stack.append(todo[0])
            else:
                count[state] = 1 + sum(count[nxt] for _, nxt in succ[state])
                stack.pop()
        total += count[v, ()]
    return total, succ


def path_algebra(qp):
    """StructAlgebra of the quiver modulo its monomial relations.

    The basis is the set of relation-avoiding paths; raises InputError when
    that set is infinite.
    """
    p = qp.p
    vidx = {v: i for i, v in enumerate(qp.vertices)}
    d, succ = _path_walks(qp)
    if d is None:
        raise InputError(
            "path basis is infinite: relations are not admissible")
    if p <= d:
        raise InputError(
            f"field order {p} is too small: it must exceed the algebra "
            f"dimension {d}")

    # paths as (source, target, tuple of arrow names in traversal order),
    # each extended along its state
    paths = []
    frontier = [(v, v, (), (v, ())) for v in qp.vertices]
    while frontier:
        paths.extend(t[:3] for t in frontier)
        frontier = [(src, nxt[0], seq + (name,), nxt)
                    for src, _, seq, state in frontier
                    for name, nxt in succ[state]]
    paths.sort(key=lambda t: (len(t[2]), vidx[t[0]], t[2]))
    index = {(t[0], t[2]): i for i, t in enumerate(paths)}
    terms = []
    for i, (isrc, idst, iseq) in enumerate(paths):
        for j, (jsrc, jdst, jseq) in enumerate(paths):
            # b_i * b_j = "traverse j, then i"; composable iff src(i) = dst(j),
            # and zero unless the composite avoids the relations
            if isrc != jdst:
                continue
            k = index.get((jsrc, jseq + iseq))
            if k is not None:
                terms.append((i, j, k, 1))

    labels = []
    for src, dst, seq in paths:
        labels.append(f"e_{src}" if not seq else "*".join(seq))
    idem = np.zeros((len(qp.vertices), d), dtype=np.int64)
    for v, i in vidx.items():
        idem[i, index[(v, ())]] = 1
    alg = StructAlgebra(p, labels, np.array(terms, dtype=np.int64).T, idem,
                        vertex_labels=list(qp.vertices))
    alg.path_info = paths
    return alg


def parse_algebra(text):
    """Parse algebra-file text into (QuiverPresentation, StructAlgebra)."""
    qp = parse_quiver(text)
    return qp, path_algebra(qp)


def opposite(alg):
    """A^op: A's basis, idempotents, unit and labels, with the terms
    (j, i, k, c); cached both ways, so the opposite of A^op is A itself."""
    if not hasattr(alg, "_tauseq_op"):
        i, j, k, c = alg.terms
        alg._tauseq_op = StructAlgebra(
            alg.p, alg.labels, (j, i, k, c), alg.idempotents, unit=alg.unit,
            vertex_labels=alg.vertex_labels, check=False)
        alg._tauseq_op._tauseq_op = alg
    return alg._tauseq_op


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def two_sided_ideal_rows(alg, generator_vectors):
    """Row basis of the two-sided ideal generated by the given elements."""
    rows = linalg.row_space(np.array(generator_vectors), alg.p)
    while True:
        new_rows = [rows]
        for g in rows:
            new_rows.append(alg.right_mult_matrix(g).T)  # b_i * g
            new_rows.append(alg.left_mult_matrix(g).T)   # g * b_i
        stacked = np.vstack(new_rows)
        closed = linalg.row_space(stacked, alg.p)
        if closed.shape[0] == rows.shape[0]:
            return closed
        rows = closed


class AlgebraQuotient:
    """A quotient algebra with its projection and a linear section.

    Attributes:
        algebra: the quotient StructAlgebra.
        proj: (q, d) matrix, coordinates of the class of an element.
        lift: (d, q) matrix, a linear section of proj.
    """

    def __init__(self, algebra, proj, lift):
        self.algebra = algebra
        self.proj = proj
        self.lift = lift


def quotient_by_ideal(alg, ideal_rows, check=True):
    """Quotient of alg by a two-sided ideal given as a row span; the
    projection is the ideal's RREF complement."""
    p = alg.p
    proj, nonpiv = linalg.complement_rows(*linalg.rref(ideal_rows, p), p)
    q = len(nonpiv)
    if q == 0:
        raise DomainError("quotient is the zero algebra")
    lift = np.eye(alg.dim, dtype=np.int64)[:, nonpiv]

    # lift sends basis element k to b_{nonpiv[k]}; a term (i, j, k, c) with
    # i and j kept adds c * proj[:, k] to the product of their classes
    pos = np.full(alg.dim, -1)
    pos[nonpiv] = np.arange(q)
    i, j, k, c = alg.terms
    kept = (pos[i] >= 0) & (pos[j] >= 0)
    pk, pc = np.nonzero(proj.T)  # proj[pc, pk] != 0
    t, b = _join(k[kept], pk, alg.dim)
    i, j, c = pos[i[kept]][t], pos[j[kept]][t], c[kept][t]
    terms = (i, j, pc[b], c * proj[pc[b], pk[b]])
    idem = []
    vlabels = []
    for i in range(alg.idempotents.shape[0]):
        image = (proj @ alg.idempotents[i]) % p
        if np.any(image):
            idem.append(image)
            vlabels.append(alg.vertex_labels[i])
    if not idem:
        raise DomainError("quotient killed every idempotent")
    unit = (proj @ alg.unit) % p
    labels = [alg.labels[c] for c in nonpiv]
    out = StructAlgebra(p, labels, terms, np.array(idem), unit=unit,
                        vertex_labels=vlabels, check=check)
    return AlgebraQuotient(out, proj, lift)


def quotient_by_idempotent_ideal(alg, k):
    """The quotient of alg by the ideal generated by its k-th idempotent."""
    n = alg.idempotents.shape[0]
    if not 0 <= k < n:
        raise DomainError(f"idempotent index {k} out of range")
    return quotient_by_ideal(alg,
                             two_sided_ideal_rows(alg, [alg.idempotents[k]]))


# ---------------------------------------------------------------------------
# algebras spanned by concrete matrices (endomorphism rings)
# ---------------------------------------------------------------------------


def block_terms(blocks):
    """(i, j, k, c) of the nonzero entries of a list of (dim, dim) blocks,
    block i row j holding the coordinates of b_i * b_j."""
    rows = np.concatenate(blocks)
    ij, k = rows.nonzero()
    d = len(blocks)
    return ij // d, ij % d, k, rows[ij, k]


def algebra_from_matrices(mats, p, idempotent_mats=None, vertex_labels=None):
    """Coordinatize a unital matrix algebra from a spanning list of matrices,
    with the opposite product: b_i * b_j comes from mats[j] @ mats[i], so
    that Hom(G, -) spaces become left modules under precomposition.

    Args:
        mats: linearly independent matrices spanning an algebra.
        idempotent_mats: matrices (inside the span) forming the distinguished
            orthogonal idempotents; when None, the identity becomes the
            single idempotent.
    """
    d = len(mats)
    if d == 0:
        raise DomainError("empty matrix algebra")
    flat = np.array([m.reshape(-1) for m in mats]) % p
    solver = linalg.SpanSolver(flat, p)
    if solver.dim != d:
        raise DomainError("matrix spanning set is not linearly independent")
    stack = np.array(mats) % p
    blocks = []
    for i in range(d):
        # row j: coordinates of b_i * b_j, for every j at once
        c = solver.coords(((stack @ stack[i]) % p).reshape(d, -1))
        if c is None:
            raise DomainError("matrix set is not multiplicatively closed")
        blocks.append(c)
    ident = np.eye(mats[0].shape[0], dtype=np.int64)
    unit = solver.coords(ident.reshape(-1))
    if unit is None:
        raise DomainError("identity matrix not in the span")
    if idempotent_mats is None:
        idem = unit.reshape(1, -1)
    else:
        idem = np.zeros((len(idempotent_mats), d), dtype=np.int64)
        for r, mat in enumerate(idempotent_mats):
            c = solver.coords((mat % p).reshape(-1))
            if c is None:
                raise DomainError("idempotent matrix not in the span")
            idem[r] = c
    return StructAlgebra(p, [f"f{i}" for i in range(d)], block_terms(blocks),
                         idem, unit=unit, vertex_labels=vertex_labels)


def algebra_invariants(alg):
    """(idempotent count, dimension, arrow count) of the algebra."""
    return alg.invariants()

"""Independent oracles for the two ends of the interval of support
tau-tilting objects that contain a tau-rigid module u, and for the pairing
of their summands outside u.  The library reads all three off g-vectors
(tautilt.completion, tautilt.g_partner); these build them from modules and
complexes instead:

- the co-Bongartz side by a Gen u scan of the registry;
- the Bongartz complement by the K^b(proj) Bongartz triangle;
- the pairing by minimal approximations.

Each works over any registry that holds every tau-rigid indecomposable,
so over the registry of any reduction context too.

The library keeps only the nonzero structure constants of an algebra and
checks them by sparse joins; `dense_mult` and `terms_of` convert to and
from the dense (d, d, d) table, and `dense_algebra_check` and
`dense_radical_rows` are the dense checks it replaced.
"""

import numpy as np

from tauseq import complexes as cxs
from tauseq import linalg
from tauseq.modules import in_gen, min_left_approx, quotient_module
from tauseq.tautilt import _items_support_tau_rigid


def gen_scan_cobongartz(reg, u):
    """(C ids, Q vertices): the registered X outside add(u) with X in Gen u
    and X + u tau-rigid, and the v with P_v[1] compatible with u."""
    u_items = [("m", i) for i in dict.fromkeys(reg.summands(u))]
    c_ids = [idx for idx in range(len(reg))
             if ("m", idx) not in u_items and in_gen(u, reg.module(idx))
             and _items_support_tau_rigid(reg, u_items + [("m", idx)])]
    n = reg.alg.idempotents.shape[0]
    q = [v for v in range(n)
         if all(reg.compatible(("p", v), it) for it in u_items)]
    return c_ids, q


def triangle_bongartz(reg, u):
    """Registry ids of the Bongartz complement of u, with multiplicity:
    H^0 of the cocone of the minimal right add(u)-approximation of
    C + Q[1] in K^b(proj), split into summands."""
    c_ids, q = gen_scan_cobongartz(reg, u)
    parts = [reg.pres(c) for c in c_ids]
    if q:
        parts.append(cxs.stalk_cx(reg.alg, q, degree=-1))
    if not parts:
        return []
    cq, _ = cxs.direct_sum_cx(parts)
    u_parts = [reg.pres(i) for i in reg.summands(u)]
    src, cmap, _ = cxs.min_right_approx_K(u_parts, cq)
    y = cxs.reduce_cx(cxs.shift_cx(cxs.cone(src, cq, cmap), -1))
    assert y.is_two_term()
    b, _, _ = cxs.h0(y)
    return reg.summands(b) if b.dim else []


def approximation_pairing(reg, u):
    """{co-Bongartz partner item: Bongartz summand id}.  A shift Q_v[1]
    pairs with the target of the minimal left approximation of Q_v by the
    Bongartz summands not yet paired; each remaining summand B_i pairs with
    the cokernel of its minimal left add(u)-approximation."""
    c_ids, q = gen_scan_cobongartz(reg, u)
    remaining = list(dict.fromkeys(triangle_bongartz(reg, u)))
    u_mods = [reg.module(i) for i in reg.summands(u)]
    pairs = {}
    for v in q:
        tgt, _, _ = min_left_approx(cxs.proj_list(reg.alg)[v],
                                    [reg.module(i) for i in remaining])
        b = reg.find(tgt)
        assert b in remaining
        remaining.remove(b)
        pairs["p", v] = b
    for b in remaining:
        tgt, beta, _ = min_left_approx(reg.module(b), u_mods)
        c = reg.find(quotient_module(tgt, beta.image_rows())[0])
        assert c in c_ids
        pairs["m", c] = b
    assert sorted(pairs) == [("m", c) for c in sorted(c_ids)] + \
        [("p", v) for v in q]
    return pairs


def dense_mult(alg):
    """The dense table of alg: [i, j] holds the coordinates of b_i * b_j."""
    i, j, k, c = alg.terms
    out = np.zeros((alg.dim,) * 3, dtype=np.int64)
    out[i, j, k] = c
    return out


def terms_of(table):
    """(i, j, k, c) arrays of the nonzero entries of a dense table."""
    i, j, k = np.nonzero(table)
    return i, j, k, table[i, j, k]


def dense_algebra_check(p, mult, idempotents, unit):
    """The DomainError message of the first failing construction check on
    a dense table, or None: associativity by blocks of i, so that no
    product holds more than about 2^18 entries, then the unit law, the
    orthogonality of the idempotents and their sum."""
    mult, idem, unit = (linalg.asmod(a, p) for a in (mult, idempotents, unit))
    d = mult.shape[0]
    step = max(1, (1 << 18) // d ** 3)
    for i0 in range(0, d, step):
        blk = mult[i0 : i0 + step]
        out_l = np.flatnonzero(blk.any(axis=(0, 1)))  # l in a b_i b_j
        in_l = np.flatnonzero(blk.any(axis=(0, 2)))   # l with b_i b_l != 0
        lhs = (blk[:, :, out_l] @ mult[out_l].reshape(-1, d * d)) % p
        rhs = (mult.reshape(d * d, d)[:, in_l] @ blk[:, in_l]) % p
        if (lhs.reshape(-1) != rhs.reshape(-1)).any():
            return "multiplication is not associative"
    ident = np.eye(d, dtype=np.int64)
    left = np.einsum("i,ijk->jk", unit, mult) % p
    right = np.einsum("j,ijk->ik", unit, mult) % p
    if not np.array_equal(left, ident) or not np.array_equal(right, ident):
        return "unit law fails"
    ei_times = (idem @ mult.reshape(d, d * d)) % p  # e_a * b_j
    prods = (idem @ ei_times.reshape(-1, d, d)) % p
    want = np.zeros_like(prods)
    want[np.arange(len(idem)), np.arange(len(idem))] = idem
    if not np.array_equal(prods, want):
        return "distinguished idempotents are not orthogonal"
    if not np.array_equal(idem.sum(axis=0) % p, unit):
        return "idempotents do not sum to the unit"
    return None


def dense_radical_rows(mult, p):
    """RREF basis of the kernel of the trace form tr(L_i L_j), with
    L_i[k, j] = mult[i, j, k], by one d^4 contraction."""
    gram = np.einsum("iba,jab->ij", mult, mult) % p
    return linalg.row_space(linalg.kernel_basis(gram, p), p)


def bounded_path_search(qp, cap):
    """The breadth-first walk over relation-avoiding paths that the library
    used before it decided finiteness on states: the basis is called
    infinite once a path reaches length n * (sum of relation lengths + 1)
    + 1.  Returns "infinite", the sorted (source, arrows) of every path, or
    None when more than cap paths are seen first."""
    def contains_relation(seq):
        return any(list(seq[s : s + len(r)]) == r for r in qp.relations
                   for s in range(len(seq) - len(r) + 1))

    bound = len(qp.vertices) * (sum(len(r) for r in qp.relations) + 1) + 1
    frontier = [(v, v, ()) for v in qp.vertices]
    paths = list(frontier)
    while frontier:
        frontier = [(src, a_dst, seq + (name,))
                    for src, dst, seq in frontier
                    for name, a_src, a_dst in qp.arrows
                    if a_src == dst and not contains_relation(seq + (name,))]
        if any(len(seq) >= bound for _, _, seq in frontier):
            return "infinite"
        paths += frontier
        if len(paths) > cap:
            return None
    return sorted((src, seq) for src, _, seq in paths)

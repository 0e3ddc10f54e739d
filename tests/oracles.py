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

Modules read coordinates in an RREF basis at its pivots and take rad m
from the generator actions; `solve_restricted_action` and
`act_radical_rows` are the dense solve and the per-radical-row action they
replaced.

Presentations close spans under the action by pivot residuals and pick
generators by one greedy extension of a basis of rad m; `close_by_stacking`
and `generator_rows_by_top` are the stacked row reduction and the
top-quotient-and-solve route they replaced.

The registry answers compatibility questions with bit masks;
`scan_support_tau_rigid`, `scan_partner` and `scan_completion` are the
pairwise scans over `Registry.compatible` and the g-coordinate scan they
replaced.

A child context builds its reduced algebra as End(+ f_u(B_i)) at both
reducer kinds; `quotient_gamma` is the pair of quotient routes it replaced,
End(B + u)/[u] for a module reducer and A/<e_v> for a shifted one, each
with its transport.
"""

import numpy as np

from tauseq import complexes as cxs
from tauseq import linalg
from tauseq.algebra import (quotient_by_ideal, quotient_by_idempotent_ideal,
                            two_sided_ideal_rows)
from tauseq.errors import DomainError
from tauseq.modules import (FdModule, end_algebra, hom_basis, in_gen,
                            min_left_approx, quotient_module, top_quotient)


def scan_support_tau_rigid(reg, items):
    """Every pair of items, each item with itself included, is
    compatible."""
    return all(reg.compatible(a, b)
               for i, a in enumerate(items) for b in items[i:])


def scan_partner(reg, items, k):
    """The first known item outside items, modules in registry order
    before shifts, that is compatible with the items other than the k-th;
    None if there is none."""
    others = list(items[:k]) + list(items[k + 1 :])
    known = [("m", i) for i in range(len(reg))] + \
        [("p", v) for v in range(reg.alg.idempotents.shape[0])]
    return next((y for y in known if y not in items
                 and scan_support_tau_rigid(reg, [y] + others)), None)


def scan_completion(reg, objects, s, top=True):
    """B(S) (top) or C(S) (bottom) by a containment test and the g(A) sign
    test on every object; raises DomainError unless one object passes."""
    sign = 1 if top else -1
    ones = [sign] * reg.alg.idempotents.shape[0]
    hits = [obj for obj in objects if all(it in obj for it in s)
            and all(c > 0 for it, c in zip(obj, reg.g_coords(obj, ones))
                    if it not in s)]
    if len(hits) != 1:
        raise DomainError(f"{len(hits)} objects qualify")
    return hits[0]


def gen_scan_cobongartz(reg, u):
    """(C ids, Q vertices): the registered X outside add(u) with X in Gen u
    and X + u tau-rigid, and the v with P_v[1] compatible with u."""
    u_items = [("m", i) for i in dict.fromkeys(reg.summands(u))]
    c_ids = [idx for idx in range(len(reg))
             if ("m", idx) not in u_items and in_gen(u, reg.module(idx))
             and scan_support_tau_rigid(reg, u_items + [("m", idx)])]
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


def solve_restricted_action(imgs, bt, p, error):
    """The matrices of maps x on the span of the independent columns of
    bt, given their images imgs[x] = map_x @ bt, by one solve of the
    n x (k + len(imgs) * k) augmented system; error when the span is not
    stable."""
    n, k = bt.shape
    sol = linalg.solve_matrix(bt, imgs.transpose(1, 0, 2).reshape(n, -1), p)
    if sol is None:
        raise DomainError(error)
    return sol.reshape(k, len(imgs), k).transpose(1, 0, 2)


def act_radical_rows(m):
    """RREF basis of rad m: the columns of the action of every radical row
    of the algebra."""
    rad = m.algebra.radical_rows()
    if rad.shape[0] == 0 or m.dim == 0:
        return np.zeros((0, m.dim), dtype=np.int64)
    return linalg.row_space(np.vstack([m.act(r).T for r in rad]),
                            m.algebra.p)


def close_by_stacking(m, rows):
    """RREF basis of the submodule generated by rows: row-reduce the rows
    stacked with all their generator images until the rank stops growing."""
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


def generator_rows_by_top(m):
    """(vector, vertex) generators of m: at each vertex i, lifts into e_i m
    of the RREF basis of e_i top m, by one solve through the projection
    onto the top quotient."""
    alg = m.algebra
    p = alg.p
    top, proj = top_quotient(m)
    gens = []
    for i in range(alg.idempotents.shape[0]):
        tbasis = linalg.row_space(top.act(alg.idempotents[i]).T, p)
        if not len(tbasis):
            continue
        ei_m = m.act(alg.idempotents[i])
        sols = linalg.solve_matrix((proj.matrix @ ei_m) % p, tbasis.T, p)
        if sols is None:
            raise DomainError("projective cover lift failed")
        gens += [((ei_m @ sol) % p, i) for sol in sols.T]
    return gens


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


def quotient_gamma(ctx):
    """(Gamma, transport) of a child context by the quotient routes.  A
    module reducer u gives End(B + u)/[u], and x goes to Hom(B + u, x)
    under precomposition; a shifted reducer P_v[1] gives A/<e_v>, and x
    keeps its action.  Either action is read along the quotient's linear
    section."""
    kind, val = ctx.reducer_item
    p = ctx.gamma.p
    if kind == "p":
        quot = quotient_by_idempotent_ideal(ctx.parent.gamma, val)

        def action(x):
            return x.action
    else:
        end = end_algebra(ctx.b_summands + [ctx.u_module])
        quot = quotient_by_ideal(end.struct, two_sided_ideal_rows(
            end.struct, [end.struct.idempotents[-1]]))

        def action(x):
            homs = np.array([(h @ pr) % p
                             for b, pr in zip(ctx.b_summands, end.prs)
                             for h in hom_basis(b, x)])
            imgs = (homs[None] @ np.array(end.mats)[:, None]) % p
            coords = linalg.SpanSolver(homs.reshape(len(homs), -1), p).coords(
                imgs.reshape(imgs.shape[:2] + (-1,)))
            return coords.transpose(0, 2, 1)

    def transport(x):
        return FdModule(quot.algebra,
                        np.tensordot(quot.lift.T, action(x), axes=1) % p)
    return quot.algebra, transport

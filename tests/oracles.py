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
"""

from tauseq import complexes as cxs
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

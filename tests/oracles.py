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
top-quotient-and-solve route they replaced.  The syzygy's generators are
read off its basis in P^0, and tau fills the matrix of nu(d) in place;
`min_presentation_by_syzygy_module` (with `greedy_generator_rows`, the
greedy extension in a module's own basis) and `tau_by_target_sum` are the
routes through a syzygy module and a direct sum of the target injectives
that they replaced.

The registry answers compatibility questions with bit masks;
`scan_support_tau_rigid`, `scan_partner` and `scan_completion` are the
pairwise scans over `Registry.compatible` and the g-coordinate scan over
the objects containing S that they replaced; `completion` walks on the
rows instead.  `objects_by_item` indexes the objects by item, so the scan
reads only the interval of S.
Only the root context keeps its objects; `context_objects` gives a child's
by the filter that each child once applied to its parent's list.

A child context builds its reduced algebra as End(+ f_u(B_i)) at both
reducer kinds; `quotient_gamma` is the pair of quotient routes it replaced,
End(B + u)/[u] for a module reducer and A/<e_v> for a shifted one, each
with its transport.

Rigidity and J(u) are read off hom dimensions and g-vectors by the AR
formula; `tau_hom`, `tau_rigid`, `tau_compatible` and `tau_j_membership`
are the definitions through the AR translate tau that they replaced.

Minimal approximations take rad End(+ u_i) as the maps between distinct
summands and each summand's own rad End; `end_radical_mats` and
`min_approx_by_end` are the coordinatized End(+ u_i) route they replaced.
It keeps both sides, and so also checks `modules.min_right_approx`, D of
a left approximation over A^op.

Locality of End(m) is read off `decompose`; `local_endo_by_top` is the
test on the semisimple top of End(m) that it replaced.  `decompose` splits
by two Fermat powers; `lagrange_split_idempotent` (g(z)/g(lambda) with
g = mu_z/(X - lambda)) and `newton_lift` (e <- 3e^2 - 2e^3) are the
idempotent and the lift it took before.

Right mutations are left mutations over A^op, through the duality † of
AIR Thm 2.14 (`tautilt.Registry.dagger`); the K^b triangle route is what
it replaced: `shift_cx`, `stalk_cx`, `cone`, the Gaussian reduction
`reduce_cx` (with `_invertible_entry` and `_inverse_entry`), `hminus1`,
`cx_to_pair`, the item complexes `pres`, `item_cx` and `object_cx`, and
`right_cocone`, the cocone on the minimal right approximation.  † takes
Tr X as D tau X (`modules.dual` of `complexes.tau`); `h0` and
`transpose` are the H^0 of a two-term complex and the Tr as H^0 of the
presentation dualized over A^op that it replaced, and `tau_by_transpose`
is tau as D Tr through them, a second route to `complexes.tau`.
An injective is D of the projective at its vertex over A^op
(`modules.injective_module`); `injective_by_right_action` is the
transposed action of e_j A under right multiplication that it replaced.

A complex is normalized only by `Cx`, and null spaces and quotients come
from one RREF complement (`linalg.complement_rows`); `reduce_cx_by_loop`
is the cancellation loop on mutable copies that `reduce_cx` replaced, and
`kernel_basis_by_loop` and `quotient_by_ideal_by_loop` build the
complement rows column by column, as `kernel_basis` and
`quotient_by_ideal` did.

`linalg.rref` row-reduces matrices of at most `linalg.LIST_COLS` columns
on Python int lists; `rref_by_row_loop` is the numpy row loop that it ran
on every matrix.

A child reduction context fills its registry and records on the first
read of any of them; `eager_level` builds the same level by its own loop
on the unfilled child, naming each compatible parent item's image in a
fresh registry over Gamma.

`g_fan_check` checks an enumeration with no closed form to compare with:
the g-vector cones of the objects must tile space exactly once, by exact
integer determinants (`int_det`).

A Dynkin quiver's items and their rows need no module at all: the
indecomposables are the positive roots (Gabriel), and compatibility and
g-vectors are read off the Euler form.  `dynkin_roots`, `euler_rows` and
`euler_g_vector` give them, a route that shares nothing with the module
layer, and `RootCore` is the `tautilt.Core` they make, with no algebra.

`sequences` lists and counts the support tau-rigid sets as the cliques of
the core's rows; `subsets_of_objects` is the route through the subsets of
the support tau-tilting objects that it replaced.  A psi set record takes
its shifted entries from C(S) (`tautilt.g_pairing`); `shifted_by_quotient`
is the rule by torsion-free quotients that it replaced.
"""

import itertools

import numpy as np

from tauseq import complexes as cxs
from tauseq import linalg, modules
from tauseq.algebra import (algebra_from_matrices, opposite,
                            quotient_by_ideal, quotient_by_idempotent_ideal,
                            two_sided_ideal_rows)
from tauseq.errors import DomainError
from tauseq.modules import (FdModule, ModuleMap, direct_sum, end_algebra,
                            hom_basis, hom_dim, in_gen, is_local_endo,
                            min_left_approx, quotient_module, radical_rows,
                            submodule, top_quotient, torsion_free_quotient)
from tauseq.reduction import transport
from tauseq.tautilt import Core, Registry, canonical


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


def objects_by_item(objects):
    """(objects, item -> set of the objects that contain it): the index
    that scan_completion reads an interval from."""
    by_item = {}
    for obj in objects:
        for it in obj:
            by_item.setdefault(it, set()).add(obj)
    return objects, by_item


def scan_completion(reg, index, s, top=True):
    """B(S) (top) or C(S) (bottom) by the g(A) sign test on every object
    that contains S, the intersection of the index's sets of S's items
    (every object when S is empty), with index = objects_by_item(objects);
    raises DomainError unless one object passes."""
    objects, by_item = index
    sign = 1 if top else -1
    ones = [sign] * reg.n
    pool = set.intersection(*sorted((by_item.get(it, set()) for it in s),
                                    key=len)) if s else objects
    hits = [obj for obj in pool
            if all(c > 0 for it, c in zip(obj, reg.g_coords(obj, ones))
                   if it not in s)]
    if len(hits) != 1:
        raise DomainError(f"{len(hits)} objects qualify")
    return hits[0]


def context_objects(ctx):
    """The support tau-tilting objects of a reduction context, as tuples of
    its level items: the root's list, or the parent's objects that contain
    the reducer, mapped through the records, as s-tau-tilt J(u) is the
    interval of the objects containing u (Jasso)."""
    if ctx.is_root:
        return ctx.stt_objects
    level = {r["parent"]: r["reduced"].gamma_item for r in ctx.records}
    return [canonical(level[x] for x in obj if x != ctx.reducer_item)
            for obj in context_objects(ctx.parent) if ctx.reducer_item in obj]


def eager_level(ctx):
    """(Gamma registry names, level items, [(parent item, Gamma item)]) of
    an unfilled child context, from its Gamma, u, partners and transport
    alone: in parent order, a partner of the top at vertex w goes to P_w[1]
    and any other compatible item x to f_u(x) over Gamma, named in a fresh
    registry."""
    parent, u = ctx.parent, ctx.reducer_item
    reg = Registry(ctx.gamma)
    pairs = []
    for x in parent.level_items:
        if x == u or not parent.registry.compatible(x, u):
            continue
        w = ctx.partners.get(x)
        if w is None:
            fx = torsion_free_quotient(ctx.u_module,
                                       parent.registry.module(x[1]))[0]
            pairs.append((x, ("m", reg.ensure(transport(ctx, fx)))))
        else:
            pairs.append((x, ("p", w)))
    return reg.names, [y for _, y in pairs], pairs


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
    parts = [pres(reg, c) for c in c_ids]
    if q:
        parts.append(stalk_cx(reg.alg, q, degree=-1))
    if not parts:
        return []
    cq, _ = cxs.direct_sum_cx(parts)
    u_parts = [pres(reg, i) for i in reg.summands(u)]
    src, cmap, _ = cxs.min_right_approx_K(u_parts, cq)
    y = reduce_cx(shift_cx(cone(src, cq, cmap), -1))
    assert y.is_two_term()
    b, _, _ = h0(y)
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
    bt, given their images imgs[x] = map_x @ bt, by one batch of coordinate
    queries of the images' columns against bt's columns; error when the
    span is not stable."""
    sol = linalg.SpanSolver(bt.T, p).coords(imgs.transpose(0, 2, 1))
    if sol is None:
        raise DomainError(error)
    return sol.transpose(0, 2, 1)


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
    onto the top quotient.  The solve takes the solution supported on the
    pivot columns of the system (the first independent ones), as
    Gauss-Jordan elimination of the augmented system does."""
    alg = m.algebra
    p = alg.p
    top, proj = top_quotient(m)
    gens = []
    for i in range(alg.idempotents.shape[0]):
        tbasis = linalg.row_space(top.act(alg.idempotents[i]).T, p)
        if not len(tbasis):
            continue
        ei_m = m.act(alg.idempotents[i])
        cols = ((proj.matrix @ ei_m) % p).T
        piv = linalg.extend_basis(cols[:0], cols, p)
        coords = linalg.SpanSolver(cols[piv], p).coords(tbasis)
        if coords is None:
            raise DomainError("projective cover lift failed")
        gens += [((ei_m[:, piv] @ c) % p, i) for c in coords]
    return gens


def greedy_generator_rows(m):
    """(vector, vertex) generators of m in its own basis: the greedy
    extension of a basis of rad m by the nonzero e_i b over m's basis
    vectors b, vertex by vertex."""
    n = m.algebra.idempotents.shape[0]
    idem_t = m.gen_actions()[:n].transpose(0, 2, 1)
    verts, ks = np.nonzero(idem_t.any(axis=2))
    cands = idem_t[verts, ks]
    return [(cands[j], int(verts[j])) for j in linalg.extend_basis(
        radical_rows(m), cands, m.algebra.p)]


def min_presentation_by_syzygy_module(m):
    """Minimal projective presentation of m with its syzygy built as a
    submodule of P^0 and its generators read in the syzygy's own basis,
    then mapped through the inclusion.  The syzygy is rebuilt from its
    action tensor alone, so its generator stack is the einsum over it."""
    alg = m.algebra
    p = alg.p
    projs = cxs.proj_list(alg)
    gens = greedy_generator_rows(m)
    zer = [i for _, i in gens]
    p0, embs, _ = direct_sum(alg, [projs[i] for i in zer])
    flat = m.action.reshape(alg.dim, -1)
    blocks = [((((projs[i].amb_basis @ flat) % p).reshape(-1, m.dim) @ g)
               % p).reshape(-1, m.dim).T for g, i in gens]
    cover = ModuleMap(p0, m, np.concatenate(
        [np.zeros((m.dim, 0), dtype=np.int64)] + blocks, axis=1))
    ker_rows = cover.kernel_rows()
    if p0.dim - len(ker_rows) != m.dim:
        raise DomainError("projective cover is not onto")
    ker_mod, ker_incl = submodule(p0, ker_rows)
    ker_mod = FdModule(alg, ker_mod.action, check=False)
    kgens = greedy_generator_rows(ker_mod)
    neg = [i for _, i in kgens]
    kg = np.array([g for g, _ in kgens], dtype=np.int64)
    inside = (ker_incl.matrix @ kg.reshape(len(neg), ker_mod.dim).T) % p
    diff = cxs.tensor_zeros(alg, len(zer), len(neg))
    for r, (emb, vert) in enumerate(zip(embs, zer)):
        diff[r] = ((projs[vert].amb_basis.T @ (emb.T @ inside % p)) % p).T
    return cxs.Cx(alg, {-1: neg, 0: zer}, {-1: diff}, check=False)


def tau_by_target_sum(m):
    """tau m as the kernel of the module map nu(P^-1) -> nu(P^0) between
    direct sums of injectives, each block placed by the sums' embeddings
    and projections; the presentation is min_presentation_by_syzygy_module's."""
    alg, p = m.algebra, m.algebra.p
    pres = min_presentation_by_syzygy_module(m)
    neg, zer = pres.at(-1), pres.at(0)
    injs = cxs.inj_list(alg)
    nsrc, n_embs, _ = direct_sum(alg, [injs[v] for v in neg])
    ntgt, t_embs, _ = direct_sum(alg, [injs[v] for v in zer])
    mat = np.zeros((ntgt.dim, nsrc.dim), dtype=np.int64)
    d = pres.diff(-1)
    for r, b in enumerate(zer):
        for c, a in enumerate(neg):
            if np.any(d[r, c]):
                piv = (injs[a].amb_rows != 0).argmax(axis=1)
                blk = ((alg.left_mult_matrix(d[r, c]) @ injs[b].amb_rows.T)
                       % p)[piv].T
                mat = (mat + t_embs[r] @ blk @ n_embs[c].T) % p
    return submodule(nsrc, ModuleMap(nsrc, ntgt, mat).kernel_rows())[0]


def injective_by_right_action(alg, j):
    """I_j = D(e_j A) built on A itself: the right action of A on the RREF
    basis of e_j A (amb_rows), transposed."""
    p = alg.p
    basis = linalg.row_space(alg.left_mult_matrix(alg.idempotents[j]).T, p)
    src, act, k, c = alg.terms  # b_src * b_act has c at b_k
    imgs = np.zeros((alg.dim, alg.dim, len(basis)), dtype=np.int64)
    np.add.at(imgs, (act, k), c[:, None] * basis.T[src])
    right = modules._restricted_action(
        imgs % p, basis.T, p, "e_j A is not closed under right multiplication")
    out = FdModule(alg, right.transpose(0, 2, 1), check=False)
    out.amb_rows = basis
    return out


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


_TAUS = {}  # id(x) -> (x, tau x); holding x pins its id


def tau_hom(y, x):
    """dim Hom(y, tau x), with tau x built once per module object."""
    if id(x) not in _TAUS:
        _TAUS[id(x)] = (x, cxs.tau(x))
    return hom_dim(y, _TAUS[id(x)][1])


def tau_rigid(m):
    return m.dim == 0 or tau_hom(m, m) == 0


def tau_by_transpose(m):
    """tau m = D Tr m (Auslander-Reiten-Smalø §IV.1): D turns the A^op-module
    Tr m (`transpose`) into an A-module by the transposed action."""
    return FdModule(m.algebra, transpose(m).action.transpose(0, 2, 1))


def tau_compatible(reg, a, b):
    """Registry.compatible by tau: Hom(a, tau b) = Hom(b, tau a) = 0 for
    modules, with an item alone also indecomposable, and Hom(P_v, a) = 0
    beside a shift P_v[1]."""
    (ka, va), (kb, vb) = sorted((a, b))
    if ka == "p":
        return True
    ma = reg.module(va)
    if kb == "p":
        return hom_dim(cxs.proj_list(reg.alg)[vb], ma) == 0
    mb = reg.module(vb)
    return tau_hom(ma, mb) == 0 and tau_hom(mb, ma) == 0 and (
        va != vb or is_local_endo(ma))


def tau_j_membership(u, x):
    """x in J(u): Hom(u, x) = 0 = Hom(x, tau u) for a module u, and
    Hom(P_v, x) = 0 for a vertex v standing for P_v[1]."""
    if isinstance(u, int):
        return hom_dim(cxs.proj_list(x.algebra)[u], x) == 0
    return hom_dim(u, x) == 0 and tau_hom(x, u) == 0


def end_radical_mats(u_summands):
    """rad End(+ u_summands) as matrices on the sum: the trace-form radical
    rows of the coordinatized End algebra times its basis matrices."""
    end = end_algebra(u_summands)
    return np.tensordot(end.struct.radical_rows(), np.array(end.mats),
                        axes=1) % end.struct.p


def min_approx_by_end(x, u_summands, right):
    """(the sum, ModuleMap, used) of the minimal right (sum -> x) or left
    (x -> sum) approximation, with the radical of end_algebra: keep the
    candidates h e_j outside the span of the h r, r in rad End, and of the
    candidates before them."""
    p = x.algebra.p
    u_summands = [u for u in u_summands if u.dim]
    kept = []  # (summand index, map x <- u_j)
    if u_summands:
        total, embs, prs = direct_sum(x.algebra, u_summands)
        homs = hom_basis(total, x) if right else \
            [h.T for h in hom_basis(x, total)]
        rad = [r if right else r.T for r in end_radical_mats(u_summands)]
        width = x.dim * total.dim
        w_rows = [(h @ r) % p for h in homs for r in rad]
        cands = [(h @ e @ pr) % p for e, pr in zip(embs, prs) for h in homs]
        new = linalg.extend_basis(
            np.array(w_rows, dtype=np.int64).reshape(len(w_rows), width),
            np.array(cands, dtype=np.int64).reshape(len(cands), width), p)
        for j, f in (divmod(i, len(homs)) for i in new):
            kept.append((j, (homs[f] @ embs[j]) % p))
    used = [j for j, _ in kept]
    summ, _, _ = direct_sum(x.algebra, [u_summands[j] for j in used])
    mat = np.hstack([np.zeros((x.dim, 0), dtype=np.int64)] +
                    [mp for _, mp in kept]) % p
    return summ, (ModuleMap(summ, x, mat) if right else
                  ModuleMap(x, summ, mat.T)), used


def local_endo_by_top(m):
    """True iff End(m) is a local ring: End(m) = k, or a commutative top
    whose Frobenius kernel is one-dimensional (a field).  A noncommutative
    semisimple top is no division ring, so False at once."""
    if m.dim == 0:
        return False
    mats = hom_basis(m, m)
    if len(mats) == 1:
        return True
    bar, _, commutative = modules._semisimple_top(
        algebra_from_matrices(mats, m.algebra.p))
    return commutative and modules._frobenius_kernel(
        bar, np.eye(bar.dim, dtype=np.int64)).shape[0] == 1


def lagrange_split_idempotent(bar, ker):
    """The idempotent of z's lambda-eigenspace in bar, for the first row z
    of the Frobenius kernel ker outside F_p and the least root lambda of
    mu_z: g(z)/g(lambda) with g = mu_z/(X - lambda), by synthetic division
    and Horner's rule in bar."""
    p = bar.p
    unit = linalg.SpanSolver(bar.unit.reshape(1, -1), p)
    z = next(row for row in ker if unit.coords(row) is None)
    mu = bar.element_min_poly(z)
    lam = int(np.flatnonzero(
        linalg.poly_eval_many(mu, np.arange(p), p) == 0)[0])
    g = mu[1:].copy()  # synthetic division: g[k-1] = mu[k] + lam g[k]
    for k in range(len(g) - 1, 0, -1):
        g[k - 1] = (g[k - 1] + lam * g[k]) % p
    glam = int(linalg.poly_eval_many(g, np.array([lam]), p)[0])
    acc = np.zeros(bar.dim, dtype=np.int64)
    for c in ((g * pow(glam, -1, p)) % p)[::-1]:
        acc = (bar.multiply(acc, z) + int(c) * bar.unit) % p
    return acc


def newton_lift(struct, e0):
    """The idempotent over e0 (with e0^2 - e0 nilpotent) by the Newton
    iteration e <- 3e^2 - 2e^3, until exactly idempotent."""
    p = struct.p
    e = e0 % p
    for _ in range(2 * struct.dim + 8):
        e2 = struct.multiply(e, e)
        if np.array_equal(e2, e):
            return e
        e = (3 * e2 - 2 * struct.multiply(e2, e)) % p
    raise AssertionError("idempotent lifting did not stabilize")


def shift_cx(cx, s):
    """cx[s]: degree k holds what was in degree k + s; odd shifts flip signs."""
    comps = {k - s: v for k, v in cx.comps.items()}
    sign = -1 if s % 2 else 1
    diffs = {k - s: (sign * t) % cx.algebra.p for k, t in cx.diffs.items()}
    return cxs.Cx(cx.algebra, comps, diffs, check=False)


def stalk_cx(alg, verts, degree=0):
    return cxs.Cx(alg, {degree: list(verts)}, {}, check=False)


def pres(reg, idx):
    """The minimal presentation of registry module idx."""
    return cxs.presentation(reg.module(idx))


def item_cx(reg, item):
    kind, val = item
    if kind == "m":
        return pres(reg, val)
    return stalk_cx(reg.alg, [val], degree=-1)


def object_cx(reg, items):
    parts = [item_cx(reg, it) for it in items]
    return cxs.direct_sum_cx(parts)[0] if parts \
        else cxs.Cx(reg.alg, {}, {}, check=False)


def _invertible_entry(cx):
    alg = cx.algebra
    for k in sorted(cx.diffs):
        t = cx.diffs[k]
        for r, b in enumerate(cx.at(k + 1)):
            for c, a in enumerate(cx.at(k)):
                if not np.any(t[r, c]):
                    continue
                projs = cxs.proj_list(alg)
                if projs[a].dim != projs[b].dim:
                    continue
                mat = modules.right_mult_module_map(projs[a], projs[b],
                                                    t[r, c]).matrix
                if linalg.rank(mat, alg.p) == mat.shape[0]:
                    return k, r, c, mat
    return None


def _inverse_entry(alg, a, b, mat):
    """Entry of the inverse of A e_a -> A e_b with concrete matrix mat:
    the preimage of e_b, whose coordinates in P_b are its values at the
    pivots of P_b's RREF basis."""
    projs = cxs.proj_list(alg)
    pa, pb = projs[a], projs[b]
    gen_b = alg.idempotents[b][(pb.amb_basis != 0).argmax(axis=1)]
    back = linalg.SpanSolver(mat.T, alg.p).coords(gen_b)
    return (pa.amb_basis.T @ back) % alg.p


def reduce_cx(cx):
    """Iterated cancellation of invertible entries; the result is minimal.
    Each step cancels one entry and leaves dropping what it empties to Cx;
    with nothing to cancel, cx itself is returned."""
    hit = _invertible_entry(cx)
    if hit is None:
        return cx
    alg, (k, r0, c0, mat) = cx.algebra, hit
    comps, diffs = dict(cx.comps), dict(cx.diffs)
    ainv = _inverse_entry(alg, comps[k][c0], comps[k + 1][r0], mat)
    t = diffs[k]
    rest_r, rest_c = np.delete(t, r0, axis=0), np.delete(t, c0, axis=1)
    # entry (r, c) loses t[r0, c] * ainv * t[r, c0]
    via = cxs.entry_compose(alg, rest_c[[r0]], ainv.reshape(1, 1, -1))
    corr = cxs.entry_compose(alg, via, rest_r[:, [c0]])
    diffs[k] = (np.delete(rest_r, c0, axis=1) - corr) % alg.p
    if k - 1 in diffs:
        diffs[k - 1] = np.delete(diffs[k - 1], c0, axis=0)
    if k + 1 in diffs:
        diffs[k + 1] = np.delete(diffs[k + 1], r0, axis=1)
    comps[k] = comps[k][:c0] + comps[k][c0 + 1 :]
    comps[k + 1] = comps[k + 1][:r0] + comps[k + 1][r0 + 1 :]
    return reduce_cx(cxs.Cx(alg, comps, diffs, check=False))


def cone(src, tgt, cmap):
    """Mapping cone of a chain map; degree k is src^{k+1} ++ tgt^k.  Every
    degree's block is built, and Cx drops the empty ones."""
    alg = src.algebra
    degs = sorted({j for k in [*src.comps, *tgt.comps] for j in (k, k - 1)})
    comps = {k: src.at(k + 1) + tgt.at(k) for k in degs}
    diffs = {}
    for k in degs:
        t = cxs.tensor_zeros(alg, len(comps.get(k + 1, ())), len(comps[k]))
        sx1, sx0 = len(src.at(k + 2)), len(src.at(k + 1))
        t[:sx1, :sx0] = (-src.diff(k + 1)) % alg.p
        t[sx1:, :sx0] = cmap.get(k + 1, 0)
        t[sx1:, sx0:] = tgt.diff(k)
        diffs[k] = t
    return cxs.Cx(alg, comps, diffs, check=False)


def h0(cx):
    """(H^0 module, projection from the concrete degree-0 module, that
    module): the cokernel of the concrete differential.  An empty degree is
    the zero direct sum, so a stalk or the zero complex needs no branch."""
    if not cx.is_two_term():
        raise DomainError("h0 expects a two-term complex")
    _, tgt, dmap = cxs.concrete_map(cx.algebra, cx.at(-1), cx.at(0),
                                    cx.diff(-1))
    quo, proj = quotient_module(tgt, dmap.image_rows())
    return quo, proj, tgt


def transpose(m):
    """Tr m over A^op: H^0 of m's minimal presentation dualized by Hom(-, A)
    (Auslander-Reiten-Smalø §IV.1).  Hom(A e_a, A) = e_a A = A^op e_a, and
    m -> m x becomes right multiplication by x in A^op, so P^0's vertices
    go to degree -1 and the entries stay, transposed.  A projective m has
    Tr m = 0."""
    pres = cxs.presentation(m)
    return h0(cxs.Cx(opposite(m.algebra), {-1: pres.at(0), 0: pres.at(-1)},
                     {-1: pres.diff(-1).transpose(1, 0, 2)}, check=False))[0]


def hminus1(cx):
    """H^{-1} as a submodule of the concrete degree -1 module: the kernel of
    the concrete differential, by the same route as h0."""
    if not cx.is_two_term():
        raise DomainError("hminus1 expects a two-term complex")
    src, _, dmap = cxs.concrete_map(cx.algebra, cx.at(-1), cx.at(0),
                                    cx.diff(-1))
    return submodule(src, dmap.kernel_rows())[0]


def cx_to_pair(cx):
    """(module part H^0, shifted projective vertex list) of a two-term
    complex, after reduction to minimal form.  The shifts are the zero
    columns of the reduced differential; they add nothing to its image, so
    H^0 is taken of the reduced complex itself."""
    red = reduce_cx(cx)
    if not red.is_two_term():
        raise DomainError("complex is not two-term after reduction")
    d = red.diff(-1)
    shifted = [v for c, v in enumerate(red.at(-1)) if not d[:, c].any()]
    return h0(red)[0], shifted


def right_cocone(reg, items, k):
    """The cocone of the minimal right add(U)-approximation of the k-th
    summand x of the support tau-tilting object items = x + U in K^b(proj):
    its `cx_to_pair` is x's right partner (AIR §2.4), the route right
    exchanges took before they became left exchanges over A^op."""
    X = item_cx(reg, items[k])
    src, cmap, _ = cxs.min_right_approx_K(
        [item_cx(reg, it) for it in items[:k] + items[k + 1 :]], X)
    return shift_cx(cone(src, X, cmap), -1)


def reduce_cx_by_loop(cx):
    """Iterated cancellation of invertible entries on mutable copies of the
    degrees and differentials, popping each block and degree it empties."""
    alg = cx.algebra
    comps = {k: list(v) for k, v in cx.comps.items()}
    diffs = {k: t.copy() for k, t in cx.diffs.items()}

    def current():
        return cxs.Cx(alg, comps, diffs, check=False)

    while True:
        hit = _invertible_entry(current())
        if hit is None:
            return current()
        k, r0, c0, mat = hit
        ainv = _inverse_entry(alg, comps[k][c0], comps[k + 1][r0], mat)
        t = diffs[k]
        keep_r = [r for r in range(t.shape[0]) if r != r0]
        keep_c = [c for c in range(t.shape[1]) if c != c0]
        # entry (r, c) loses t[r0, c] * ainv * t[r, c0]
        via = cxs.entry_compose(alg, t[[r0]][:, keep_c],
                                ainv.reshape(1, 1, -1))
        corr = cxs.entry_compose(alg, via, t[keep_r][:, [c0]])
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


def kernel_basis_by_loop(a, p):
    """Right null space of a as rows: for each free column of its RREF, a
    one there and minus the column's entries at the pivots."""
    a = linalg.asmod(a, p)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, piv = linalg.rref(a, p)
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(piv):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


def quotient_by_ideal_by_loop(alg, ideal_rows):
    """(proj, lift, dense table) of alg modulo a two-sided ideal: proj and
    lift built column by column from the ideal's RREF, and the quotient's
    table as proj applied to the products of the lifted basis elements."""
    p = alg.p
    r, piv = linalg.rref(ideal_rows, p)
    r = r[: len(piv)]
    nonpiv = [c for c in range(alg.dim) if c not in piv]
    q = len(nonpiv)
    proj = np.zeros((q, alg.dim), dtype=np.int64)
    for k, c in enumerate(nonpiv):
        proj[k, c] = 1
    for i, c in enumerate(piv):
        proj[:, c] = (-r[i, nonpiv]) % p
    lift = np.zeros((alg.dim, q), dtype=np.int64)
    for k, c in enumerate(nonpiv):
        lift[c, k] = 1
    kept = dense_mult(alg)[np.ix_(nonpiv, nonpiv)]
    return proj, lift, (kept @ proj.T) % p


def rref_by_row_loop(a, p):
    """Reduced row echelon form.

    Returns:
        (r, pivots): the RREF matrix and the list of pivot column indices.
    """
    r = linalg.asmod(a, p).copy()
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


def int_det(rows):
    """Determinant of a square integer matrix by Bareiss elimination on
    Python ints, where every division is exact."""
    m = [[int(x) for x in row] for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def g_fan_check(reg, objects):
    """Assert that the g-vector cones of the support tau-tilting objects
    (canonical item tuples, over reg) tile R^n exactly once, as the g-fan of
    a tau-tilting finite algebra does (Demonet-Iyama-Jasso):

    - each g-matrix has determinant +-1 (AIR Thm 5.1);
    - each wall, an object less one summand, lies in exactly two objects,
      and their exchanged g-vectors lie on opposite sides of it;
    - one generic vector lies in exactly one open cone.  Its coordinates
      in a g-basis have the signs of Cramer's determinants, and it lies on
      no wall: its entries are powers of -2^40, far above any cofactor of
      the small g-vectors.
    """
    n = reg.n
    g = {it: reg.g_vector(it) for obj in objects for it in obj}
    walls = {}
    for obj in objects:
        assert len(obj) == n and abs(int_det([g[x] for x in obj])) == 1, obj
        for k, x in enumerate(obj):
            walls.setdefault(obj[:k] + obj[k + 1:], []).append(x)
    for wall, xs in walls.items():
        assert len(xs) == 2, ("wall not in two objects", wall, xs)
        sides = [int_det([g[y] for y in wall] + [g[x]]) for x in xs]
        assert sides[0] * sides[1] < 0, ("exchange on one side", wall, xs)
    v = [(-2 ** 40) ** i for i in range(n)]
    inside = []
    for obj in objects:
        cols = [g[x] for x in obj]
        signs = [int_det(cols[:k] + [v] + cols[k + 1:]) * int_det(cols)
                 for k in range(n)]
        assert all(signs), ("generic vector on a wall", obj)
        if all(s > 0 for s in signs):
            inside.append(obj)
    assert len(inside) == 1, ("generic vector in one cone", inside)


def _euler_matrix(arrows, n):
    """M with <a, b> = a M b^T = sum_v a_v b_v - sum_{arrows s->t} a_s b_t,
    the Euler form of the path algebra of a quiver without relations."""
    m = np.eye(n, dtype=np.int64)
    for s, t in arrows:
        m[s, t] -= 1
    return m


def dynkin_roots(arrows, n):
    """The positive roots of a Dynkin quiver on vertices 0..n-1 with these
    arrows (source, target): the d >= 0 with q(d) = <d, d> = 1, the
    dimension vectors of its indecomposables (Gabriel).  Every positive
    root is a simple root plus simple roots added one at a time through
    roots, so a walk from the simple roots finds them all.  Tuples, by
    height, then as tuples."""
    m = _euler_matrix(arrows, n)
    roots = layer = {tuple(int(v == w) for w in range(n)) for v in range(n)}
    while layer:
        bigger = {d[:v] + (d[v] + 1,) + d[v + 1:] for d in layer
                  for v in range(n)}
        layer = {d for d in bigger - roots if np.array(d) @ m @ d == 1}
        roots = roots | layer
    return sorted(roots, key=lambda d: (sum(d), d))


def euler_rows(arrows, n):
    """The compatibility rows of a Dynkin quiver's items, with no module:
    shift v is bit v and the i-th root of `dynkin_roots` is bit n + i, and
    every item is rigid.  The algebra is hereditary and representation
    directed: at most one of Hom(X, Y) and Ext^1(X, Y) is nonzero,
    ext(X, Y) = max(0, -<X, Y>), and Hom(Y, tau X) = D Ext^1(X, Y).  So two
    modules are compatible iff <X, Y> >= 0 and <Y, X> >= 0; P_v[1] and X
    iff (dim X)_v = 0; two shifts always."""
    roots = np.array(dynkin_roots(arrows, n), dtype=np.int64).reshape(-1, n)
    form = roots @ _euler_matrix(arrows, n) @ roots.T
    bits = np.block([[np.ones((n, n), dtype=bool), roots.T == 0],
                     [roots == 0, (form >= 0) & (form.T >= 0)]])
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in bits]


def euler_g_vector(arrows, dims):
    """g(X)_u = (dim X)_u - sum over arrows s -> u of (dim X)_s, read off
    the standard resolution 0 -> sum over arrows s -> t of P_t^{(dim X)_s}
    -> sum over v of P_v^{(dim X)_v} -> X -> 0 of a path-algebra module.
    g = [P^0] - [P^-1] does not change when a summand common to both terms
    cancels, so the minimal presentation gives the same vector, and
    <g(X), dim Y> = <dim X, dim Y>."""
    g = list(dims)
    for s, t in arrows:
        g[t] -= dims[s]
    return g


class RootCore(Core):
    """The `tautilt.Core` of a Dynkin quiver, built from its positive roots
    and Euler form alone: no algebra and no module.  Module item i is the
    i-th root of `dynkin_roots`, with its row from `euler_rows` and its
    g-vector from `euler_g_vector`."""

    def __init__(self, arrows, n):
        super().__init__(n)
        self.arrows, self.roots = arrows, dynkin_roots(arrows, n)
        self._rows = euler_rows(arrows, n)
        self._rigid = (1 << len(self._rows)) - 1

    def g_vector(self, item):
        kind, val = item
        if kind == "m":
            return euler_g_vector(self.arrows, self.roots[val])
        return super().g_vector(item)


def subsets_of_objects(objects, t):
    """Every support tau-rigid set of t items, as sorted tuples in
    lexicographic order: the t-subsets of the support tau-tilting objects,
    as each such set lies in one (its Bongartz completion)."""
    return sorted({sub for obj in objects
                   for sub in itertools.combinations(obj, t)})


def shifted_by_quotient(root, s):
    """The root items x compatible with S and outside S that E_S sends to a
    shifted projective: the shifts, and the modules x with f_{M_S}(x) = 0,
    M_S the direct sum of S's modules."""
    reg = root.registry
    mods = [reg.module(v) for kind, v in s if kind == "m"]
    m_s = direct_sum(root.gamma, mods)[0] if mods else None
    return {x for x in root.level_items
            if x not in s and all(reg.compatible(x, y) for y in s)
            and (x[0] == "p" or m_s is not None and not torsion_free_quotient(
                m_s, reg.module(x[1]))[0].dim)}

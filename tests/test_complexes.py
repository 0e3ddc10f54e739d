"""Two-term complexes of projectives: presentations, the AR translate,
homotopy Hom, cones, Gaussian reduction, and minimal approximations."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from conftest import (dynkin_text, load_example, monomial_quiver_texts,
                      nakayama_text, rebased_algebra)
from oracles import (cone, cx_to_pair, dense_mult, generator_rows_by_top,
                     h0, hminus1, item_cx, min_presentation_by_syzygy_module,
                     reduce_cx, reduce_cx_by_loop, right_cocone, shift_cx,
                     stalk_cx, tau_by_target_sum, tau_compatible, tau_hom,
                     tau_j_membership, tau_rigid, transpose)
from tauseq import complexes as cxs
from tauseq import linalg
from tauseq.algebra import parse_algebra
from tauseq.complexes import (Cx, EntrySpace, HomK, compose_chain,
                              direct_sum_cx, entry_compose, ext1_dim,
                              hom_K_dim, inj_list, min_left_approx_K,
                              min_presentation, min_right_approx_K,
                              proj_list, simple_list, tau, tensor_zeros)
from tauseq.errors import CapExceededError, DomainError
from tauseq.modules import (FdModule, dual, hom_dim, is_iso, radical_rows,
                            submodule, zero_module)
from tauseq.reduction import j_membership, root_context
from tauseq.tautilt import (Registry, SignedObject,
                            enumerate_support_tau_tilting,
                            indec_tau_rigid_items, is_tau_rigid)
from test_algebra import linear_quiver_text
from test_tautilt import _SmallModules

TAU_TABLE = {
    # AR meshes of the three example algebras, read off by hand
    "ex1": {"S1": "P2"},
    "ex2": {"S1": "S2", "S2": "S1", "I1": "P1"},
    "ex3": {"S1": "N", "S2": "M", "M": "S2", "N": "S3", "I2": "P2",
            "I3": "P1"},
}


@pytest.mark.parametrize("stem", ["ex1", "ex2", "ex3"])
def test_tau_matches_the_ar_meshes(stem, request):
    _, alg, mods = request.getfixturevalue(stem)
    for name, want in TAU_TABLE[stem].items():
        assert is_iso(tau(mods[name]), mods[want]), (name, want)


@pytest.mark.parametrize("stem", ["ex1", "ex2", "ex3"])
def test_tau_of_projectives_is_zero(stem, request):
    _, alg, _ = request.getfixturevalue(stem)
    for pr in proj_list(alg):
        assert tau(pr).dim == 0


PAIRING_CASES = {
    "A4": linear_quiver_text(4), "rad2-A5": linear_quiver_text(5, True),
    "Lambda4^4": nakayama_text(4, 4), "Lambda4^2": nakayama_text(4, 2),
    "D4": dynkin_text("D", 4)}


def _pairing_levels(case):
    """(algebra, modules, registry) per level: the root, with the fixtures
    of an example, and for ex1-ex3 every child of the root too."""
    if case.startswith("ex"):
        _, alg, fixtures = load_example(case)
    else:
        alg, fixtures = parse_algebra(PAIRING_CASES[case])[1], {}
    root = root_context(alg)
    ctxs = [root] + ([root.child(it) for it in root.level_items]
                     if case.startswith("ex") else [])
    for ctx in ctxs:
        g = ctx.gamma
        mods = list(fixtures.values()) if ctx is root else []
        mods += ctx.registry.mods + cxs.inj_list(g) + cxs.simple_list(g)
        yield g, mods + [zero_module(g)], ctx.registry


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3"] + list(PAIRING_CASES))
def test_ar_formula_matches_tau(case):
    """hom_to_tau, is_tau_rigid, j_membership at both reducer kinds and
    Registry.compatible against their definitions through tau, on every
    ordered pair of fixture, registry, injective and simple modules."""
    for alg, mods, reg in _pairing_levels(case):
        n = alg.idempotents.shape[0]
        for x in mods:
            assert is_tau_rigid(x) == tau_rigid(x)
            for y in mods:
                assert cxs.hom_to_tau(y, x) == tau_hom(y, x)
                assert j_membership(x, y) == tau_j_membership(x, y)
            for v in range(n):
                assert j_membership(SignedObject(vertex=v), x) == \
                    tau_j_membership(v, x)
        items = [("m", i) for i in range(len(reg))] + [
            ("p", v) for v in range(n)]
        for a in items:
            for b in items:
                assert reg.compatible(a, b) == tau_compatible(reg, a, b)


def test_min_presentation_recovers_the_module(ex3):
    _, alg, mods = ex3
    for m in mods.values():
        pres = min_presentation(m)
        assert pres.is_two_term()
        back, _, _ = h0(pres)
        assert is_iso(back, m)


def test_min_presentation_is_already_minimal(ex3):
    _, alg, mods = ex3
    for m in mods.values():
        pres = min_presentation(m)
        assert reduce_cx(pres).comps == pres.comps


@pytest.mark.parametrize("case,least", [
    ("ex1", 16), ("ex2", 22), ("ex3", 42), ("A4", 34), ("rad2-A5", 28)])
def test_generator_rows_match_the_top_route(case, least, monkeypatch):
    """Every span whose generators are read while enumerating and then
    presenting every registered module (the registered modules, the
    modules tau is taken of, and their syzygies in P^0) gets the same
    generators, vector for vector, as the route through the top quotient
    of the span built as a module, mapped through its inclusion."""
    real, seen = cxs._generator_rows, []

    def both(m, rows):
        got, p = real(m, rows), m.algebra.p
        if len(rows) == m.dim:  # the identity rows: m itself
            want = generator_rows_by_top(m)
        else:
            sub, incl = submodule(m, rows)
            want = [((incl.matrix @ g) % p, i)
                    for g, i in generator_rows_by_top(sub)]
        assert [i for _, i in got] == [i for _, i in want]
        for (g, _), (h, _) in zip(got, want):
            assert g.dtype == h.dtype and np.array_equal(g, h)
        seen.append(m)
        return got

    monkeypatch.setattr(cxs, "_generator_rows", both)
    if case.startswith("ex"):
        _, alg, mods = load_example(case)
        for m in mods.values():
            min_presentation(m)
    else:
        alg = parse_algebra(linear_quiver_text(
            int(case[-1]), rad_square_zero=case.startswith("rad2")))[1]
    _, reg = enumerate_support_tau_tilting(alg)
    for m in reg.mods:  # afresh: enumeration cached every presentation
        min_presentation(m)
    assert len(seen) >= least


ROUTE_CASES = {
    "A4": linear_quiver_text(4), "rad2-A5": linear_quiver_text(5, True),
    "Lambda4^4": nakayama_text(4, 4), "D4": dynkin_text("D", 4),
    "E6alt": dynkin_text("E", 6, alt=True)}


def _check_module_routes(m):
    """m's presentation and tau equal those of the routes through a
    syzygy module and a direct sum of the target injectives."""
    got, want = min_presentation(m), min_presentation_by_syzygy_module(m)
    assert got.comps == want.comps and got.diffs.keys() == want.diffs.keys()
    d, e = got.diff(-1), want.diff(-1)
    assert d.dtype == e.dtype and np.array_equal(d, e)
    t, u = tau(m), tau_by_target_sum(m)
    assert t.action.dtype == u.action.dtype and np.array_equal(t.action,
                                                               u.action)


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3"] + list(ROUTE_CASES))
def test_presentations_and_tau_match_the_module_routes(case):
    """Every fixture of an example, and every registered module of the
    other cases."""
    if case.startswith("ex"):
        mods = list(load_example(case)[2].values())
    else:
        alg = parse_algebra(ROUTE_CASES[case])[1]
        mods = enumerate_support_tau_tilting(alg)[1].mods
    assert len(mods) >= 3
    for m in mods:
        _check_module_routes(m)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(case=monomial_quiver_texts())
def test_presentations_and_tau_match_the_module_routes_on_drawn_quivers(
        case):
    # draws that pass 300 objects, or grow a module past dimension 16
    # (_SmallModules), are tau-tilting infinite or too large and skipped
    alg = parse_algebra(case[0])[1]
    try:
        _, reg = enumerate_support_tau_tilting(alg, cap=300,
                                               registry=_SmallModules(alg))
    except CapExceededError:
        assume(False)
    for m in reg.mods:
        _check_module_routes(m)


def _conjugate_by(m, g):
    """m in the basis given by the columns of g: the action g^-1 rho(b) g."""
    p = m.algebra.p
    ginv = linalg.SpanSolver(g, p).coords(np.eye(len(g), dtype=np.int64))
    return FdModule(m.algebra, (ginv @ m.action @ g) % p)


def _changes_of_basis(k, p, rng):
    """The upper unitriangular all-ones matrix, the reversal and a seeded
    invertible matrix, all k x k."""
    g = None
    while g is None or linalg.SpanSolver(g, p).coords(
            np.eye(k, dtype=np.int64)) is None:
        g = rng.integers(0, p, (k, k))
    return [np.triu(np.ones((k, k), dtype=np.int64)),
            np.eye(k, dtype=np.int64)[::-1], g]


@pytest.mark.parametrize("stem", ["ex1", "ex2", "ex3"])
def test_presentations_in_other_bases(stem, request):
    """A module in another basis has the same presentation terms, one
    summand of P^0 per top basis element, a cover onto it, an isomorphic
    tau, the same dimension vector, the same Hom(-, tau -) both ways with
    every fixture module and the same tau-rigidity; vertex_dims equals the
    rank of each idempotent's action on every basis."""
    _, alg, mods = request.getfixturevalue(stem)
    p, n = alg.p, alg.idempotents.shape[0]
    rng = np.random.default_rng(11)
    mixed = 0
    for m in mods.values():
        assert m.basis_vertices() is not None
        pm = min_presentation(m)
        for g in _changes_of_basis(m.dim, p, rng):
            c = _conjugate_by(m, g)
            mixed += c.basis_vertices() is None
            pc = min_presentation(c)
            assert (pc.at(0), pc.at(-1)) == (pm.at(0), pm.at(-1))
            assert len(pc.at(0)) == c.dim - len(radical_rows(c))
            assert is_iso(h0(pc)[0], c)
            assert is_iso(tau(c), tau(m))
            for x in (m, c):
                assert x.vertex_dims() == tuple(
                    linalg.rank(e, p) for e in x.gen_actions()[:n])
            assert c.vertex_dims() == m.vertex_dims()
            assert is_tau_rigid(c) == is_tau_rigid(m)
            for x in mods.values():
                assert cxs.hom_to_tau(c, x) == cxs.hom_to_tau(m, x)
                assert cxs.hom_to_tau(x, c) == cxs.hom_to_tau(x, m)
    assert mixed >= 2


def _contractible(alg, v):
    ident = np.zeros((1, 1, alg.dim), dtype=np.int64)
    ident[0, 0] = alg.idempotents[v]
    return Cx(alg, {-1: [v], 0: [v]}, {-1: ident})


def test_reduce_strips_contractible_summands(ex3):
    _, alg, mods = ex3
    pres = min_presentation(mods["N"])
    fat, _ = direct_sum_cx([pres, _contractible(alg, 0),
                            _contractible(alg, 2)])
    slim = reduce_cx(fat)
    assert sorted(slim.at(0)) == sorted(pres.at(0))
    assert sorted(slim.at(-1)) == sorted(pres.at(-1))
    back, _, _ = h0(slim)
    assert is_iso(back, mods["N"])


def _identity_cmap(cx):
    alg = cx.algebra
    out = {}
    for k, verts in cx.comps.items():
        t = tensor_zeros(alg, len(verts), len(verts))
        for i, v in enumerate(verts):
            t[i, i] = alg.idempotents[v]
        out[k] = t
    return out


def test_cone_of_identity_is_contractible(ex3):
    _, alg, mods = ex3
    x = min_presentation(mods["P2"])
    red = reduce_cx(cone(x, x, _identity_cmap(x)))
    assert red.total_summands() == 0


def test_cohomology_of_shifted_stalk(ex3):
    _, alg, _ = ex3
    st = stalk_cx(alg, [1], degree=-1)
    assert h0(st)[0].dim == 0
    assert is_iso(hminus1(st), proj_list(alg)[1])


def test_hom_k_detects_rigidity_of_modules(ex3):
    # Hom_K(P_X, P_U[1]) vanishes exactly when Hom(U, tau X) does
    _, alg, mods = ex3
    pres = {k: min_presentation(m) for k, m in mods.items()}
    for xn, un in itertools.product(mods, repeat=2):
        lhs = hom_K_dim(pres[xn], pres[un], 1) == 0
        rhs = hom_dim(mods[un], tau(mods[xn])) == 0
        assert lhs == rhs, (xn, un)


def test_hom_k_from_a_projective_counts_module_homs(ex1):
    _, alg, mods = ex1
    for yn, y in mods.items():
        d = hom_K_dim(min_presentation(mods["P1"]), min_presentation(y), 0)
        assert d == hom_dim(mods["P1"], y), yn


def test_hom_k_vanishes_beyond_shift_one(ex3):
    _, alg, mods = ex3
    a = min_presentation(mods["N"])
    b = min_presentation(mods["I2"])
    assert hom_K_dim(a, b, 2) == 0
    assert hom_K_dim(a, b, -2) == 0


def _shift_cases(alg, mods):
    """Every item's complex, the fixtures' minimal presentations, and the
    stalk of each projective in degrees 0 and -1."""
    items, _, reg = indec_tau_rigid_items(alg)
    n = alg.idempotents.shape[0]
    return ([item_cx(reg, it) for it in items] +
            [min_presentation(m) for m in mods.values()] +
            [stalk_cx(alg, [v], d) for v in range(n) for d in (0, -1)])


@pytest.mark.parametrize("stem", ["ex1", "ex2", "ex3"])
def test_every_hom_k_shift_matches_shifted_stalks(stem, request):
    """Hom(X, Y[s]) = Hom(X[-s], Y): hom_K_dim(X, Y, s) is HomK(X[-s],
    Y).dim when X is a stalk that X[-s] keeps in degrees -1 and 0, and
    HomK(X, Y[s]).dim when Y is such a stalk, for s = 1 and s = -1."""
    _, alg, mods = request.getfixturevalue(stem)
    # (s, shifted side) -> the one degree that keeps the shift two-term
    degree = {(-1, "X"): 0, (-1, "Y"): -1, (1, "X"): -1, (1, "Y"): 0}
    checked = dict.fromkeys(degree, 0)
    for X, Y in itertools.product(_shift_cases(alg, mods), repeat=2):
        for (s, side), deg in degree.items():
            if (X if side == "X" else Y).support() == [deg]:
                want = (HomK(shift_cx(X, -s), Y) if side == "X" else
                        HomK(X, shift_cx(Y, s))).dim
                assert hom_K_dim(X, Y, s) == want, (s, side)
                checked[s, side] += 1
    assert all(checked.values())


@pytest.mark.parametrize("stem", ["ex1", "ex2", "ex3"])
def test_hom_k_shift_minus_one_is_hom_from_h0_to_hminus1(stem, request):
    """A map X^0 -> Y^-1 killed by dY that kills the image of dX is a
    module map coker dX -> ker dY, so Hom(X, Y[-1]) = Hom(H^0 X, H^-1 Y)
    for every pair; no homotopy reaches it."""
    _, alg, mods = request.getfixturevalue(stem)
    for X, Y in itertools.product(_shift_cases(alg, mods), repeat=2):
        assert hom_K_dim(X, Y, -1) == hom_dim(h0(X)[0], hminus1(Y))


def test_ext1_oracles(ex1, ex3):
    _, _, mods1 = ex1
    assert ext1_dim(mods1["S1"], mods1["P2"]) == 1  # the extension is P1
    assert ext1_dim(mods1["P2"], mods1["S1"]) == 0
    _, _, mods3 = ex3
    assert ext1_dim(mods3["S1"], mods3["S2"]) == 1  # the extension is I2
    assert ext1_dim(mods3["S2"], mods3["S1"]) == 0
    for m in mods3.values():
        assert ext1_dim(m, m) == 0 or not is_tau_rigid_single(m)


def is_tau_rigid_single(m):
    return hom_dim(m, tau(m)) == 0


def test_pair_complex_round_trip(ex3):
    _, alg, mods = ex3
    cx, _ = direct_sum_cx([min_presentation(mods["N"]),
                           stalk_cx(alg, [0, 2], -1)])
    m, verts = cx_to_pair(cx)
    assert is_iso(m, mods["N"])
    assert sorted(verts) == [0, 2]


def test_min_right_approx_K_covers_all_homs(ex3):
    # every map from a summand of u to x factors through the approximation;
    # for N by S1 + P2 it uses block 1 twice, placed after block 0 is dropped
    _, alg, mods = ex3
    for x_name, u_names, want in (("N", ["P1", "P2"], [0, 1]),
                                  ("N", ["S1", "P2"], [1, 1])):
        u_parts = [min_presentation(mods[n]) for n in u_names]
        x = min_presentation(mods[x_name])
        src, alpha, used = min_right_approx_K(u_parts, x)
        assert used == want
        for u in u_parts:
            homk = HomK(u, x)
            gs = HomK(u, src)
            rows = [homk.coords(compose_chain(alg, gs.rep_tensor(i), alpha))
                    for i in range(gs.dim)]
            got = linalg.rank(np.array(rows), alg.p) if rows else 0
            assert got == homk.dim


def test_min_left_approx_K_covers_all_homs(ex3):
    _, alg, mods = ex3
    for x_name, u_names, want in (("S2", ["P1", "M"], [0]),
                                  ("S3", ["P1", "P2"], [0, 1]),
                                  ("N", ["S1", "I2"], [1, 1])):
        x = min_presentation(mods[x_name])
        u_parts = [min_presentation(mods[n]) for n in u_names]
        tgt, beta, used = min_left_approx_K(x, u_parts)
        assert used == want
        for u in u_parts:
            homk = HomK(x, u)
            gs = HomK(tgt, u)
            rows = [homk.coords(compose_chain(alg, beta, gs.rep_tensor(i)))
                    for i in range(gs.dim)]
            got = linalg.rank(np.array(rows), alg.p) if rows else 0
            assert got == homk.dim


def test_min_approx_K_by_nothing_is_empty(ex3):
    # no nonzero summand, or no chain map either way (P1 in degree 0, the
    # shift of P1 in degree -1): both sides give the empty approximation
    _, alg, mods = ex3
    x = stalk_cx(alg, [0], degree=-1)
    p1 = min_presentation(mods["P1"])
    assert HomK(p1, x).dim == 0 and HomK(x, p1).dim == 0
    for u_parts in ([], [Cx(alg, {}, {})], [p1]):
        for summ, cmap, used in (min_right_approx_K(u_parts, x),
                                 min_left_approx_K(x, u_parts)):
            assert summ.comps == {} and summ.diffs == {}
            assert cmap == {} and used == []


def test_exchange_triangle_for_a_generated_module(ex3):
    # M lies in Gen P1, so the cone over the minimal right approximation
    # of presentations, shifted back, reduces to the stalk complex of P2
    _, alg, mods = ex3
    src, cmap, _ = min_right_approx_K([min_presentation(mods["P1"])],
                                      min_presentation(mods["M"]))
    y = reduce_cx(shift_cx(cone(src, min_presentation(mods["M"]), cmap), -1))
    assert y.is_two_term()
    b, _, _ = h0(y)
    assert is_iso(b, mods["P2"])
    assert hminus1(y).dim == 0


# -- batched kernels against the per-entry formulas -------------------------


def _dense_multiply(alg, x, y):
    return (np.einsum("i,j,ijk->k", x, y, dense_mult(alg).astype(object))
            % alg.p).astype(np.int64)


def _random_corner_tensor(alg, src, tgt, rng):
    """Entry (r, c) is e_{src[c]} * x * e_{tgt[r]} for a random x."""
    t = tensor_zeros(alg, len(tgt), len(src))
    for r, b in enumerate(tgt):
        for c, a in enumerate(src):
            x = rng.integers(0, alg.p, alg.dim)
            ax = _dense_multiply(alg, alg.idempotents[a], x)
            t[r, c] = _dense_multiply(alg, ax, alg.idempotents[b])
    return t


def _oracle_algebras(ex2, ex3):
    return [ex2[1], ex3[1], rebased_algebra(ex3[1], 5)]


VERTS = ([0, 1, 1], [1, 0], [0, 1, 0, 1])  # source, middle, target


def test_entry_compose_matches_the_triple_loop(ex2, ex3):
    rng = np.random.default_rng(17)
    for alg in _oracle_algebras(ex2, ex3):
        src, mid, tgt = VERTS
        first = _random_corner_tensor(alg, src, mid, rng)
        then = _random_corner_tensor(alg, mid, tgt, rng)
        want = tensor_zeros(alg, len(tgt), len(src))
        for s, c in itertools.product(range(len(tgt)), range(len(src))):
            for r in range(len(mid)):
                want[s, c] += _dense_multiply(alg, first[r, c], then[s, r])
        assert np.any(want)
        assert np.array_equal(entry_compose(alg, first, then), want % alg.p)


def test_entry_space_coordinates_solve_each_corner(ex2, ex3):
    rng = np.random.default_rng(19)
    for alg in _oracle_algebras(ex2, ex3):
        src, _, tgt = VERTS
        es = EntrySpace(alg, src, tgt)
        t = _random_corner_tensor(alg, src, tgt, rng)
        vec = es.to_vec(t)
        assert vec.shape == (es.dim,) and np.any(vec)
        want = [linalg.SpanSolver(alg.corner(a, b)[0], alg.p).coords(t[r, c])
                for r, b in enumerate(tgt) for c, a in enumerate(src)]
        assert np.array_equal(vec, np.concatenate(want))
        assert np.array_equal(es.from_vec(vec), t)


def test_entry_space_rejects_an_entry_outside_its_corner(ex3):
    _, alg, _ = ex3
    es = EntrySpace(alg, [0, 2], [1])
    t = tensor_zeros(alg, 1, 2)
    t[0, 1] = alg.idempotents[2]  # e_2 is not in e_2 A e_1
    with pytest.raises(DomainError):
        es.to_vec(t)


def _unit_rows(rows):
    return bool(((rows != 0).sum(axis=1) == 1).all())


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("case", ["ex3", "A4", "rad2-A5"])
def test_tau_and_h0_in_a_rebased_algebra(case, seed, request):
    """In a random algebra basis the RREF amb_basis of a projective and
    amb_rows of an injective have rows that are not unit vectors, so their
    coordinates must be read at each row's first nonzero column.  Over it,
    hom_to_tau(y, x) = hom(y, tau x) for every projective, injective and
    simple y and x, tau x has the dimension it has over the algebra's own
    basis, H^0 of x's minimal presentation is x, and D tau x is Tr x over
    A^op (the transpose built from the dualized presentation)."""
    base = request.getfixturevalue(case)[1] if case == "ex3" else \
        parse_algebra(linear_quiver_text(
            int(case[-1]), rad_square_zero=case.startswith("rad2")))[1]
    alg = rebased_algebra(base, seed)
    assert not any(_unit_rows(pm.amb_basis) for pm in proj_list(alg))
    assert not any(_unit_rows(im.amb_rows) for im in inj_list(alg))

    def standard(a):
        return proj_list(a) + inj_list(a) + simple_list(a)

    mods = standard(alg)
    for x, x0 in zip(mods, standard(base)):
        tx = tau(x)
        assert tx.dim == tau(x0).dim
        for y in mods:
            assert cxs.hom_to_tau(y, x) == hom_dim(y, tx)
        assert is_iso(h0(min_presentation(x))[0], x)
        assert is_iso(dual(tx), transpose(x))


@pytest.mark.parametrize("stem", ["ex1", "ex2", "ex3"])
def test_empty_inputs_take_the_general_route(stem, request):
    """H^0 and H^-1 of the zero complex and of the stalks P_v and P_v[1],
    tau of the zero module and of each projective, and Ext^1 with a zero
    module on either side, through the routes every other input takes."""
    _, alg, mods = request.getfixturevalue(stem)
    zero = zero_module(alg)
    cx0 = Cx(alg, {}, {})
    quo, proj, conc = h0(cx0)
    assert (quo.dim, proj.matrix.shape, conc.dim) == (0, (0, 0), 0)
    assert hminus1(cx0).dim == 0
    assert tau(zero).dim == 0
    for v, pv in enumerate(proj_list(alg)):
        quo, proj, conc = h0(stalk_cx(alg, [v]))
        assert is_iso(quo, pv) and is_iso(conc, pv)
        assert np.array_equal(proj.matrix, np.eye(pv.dim, dtype=np.int64))
        assert hminus1(stalk_cx(alg, [v])).dim == 0
        quo, proj, conc = h0(stalk_cx(alg, [v], degree=-1))
        assert (quo.dim, proj.matrix.shape, conc.dim) == (0, (0, 0), 0)
        assert is_iso(hminus1(stalk_cx(alg, [v], degree=-1)), pv)
        assert tau(pv).dim == 0
    for m in list(mods.values()) + [zero]:
        assert ext1_dim(zero, m) == 0
        assert ext1_dim(m, zero) == 0


def _assert_same_cx(a, b):
    """Array for array: the same degrees in the same order, the same
    differential keys, and equal int64 tensors."""
    assert list(a.comps.items()) == list(b.comps.items())
    assert list(a.diffs) == list(b.diffs)
    for k, t in a.diffs.items():
        assert t.dtype == b.diffs[k].dtype == np.int64
        assert np.array_equal(t, b.diffs[k]), k


def _exchange_triangles(reg, objs):
    """For each summand x of each object, the cone of the minimal left
    approximation of x by the other summands and the cocone of the
    minimal right one."""
    for obj in objs:
        for k, x in enumerate(obj):
            X = item_cx(reg, x)
            u_parts = [item_cx(reg, it) for it in obj[:k] + obj[k + 1 :]]
            tgt, cmap, _ = min_left_approx_K(X, u_parts)
            yield cone(X, tgt, cmap)
            src, cmap, _ = min_right_approx_K(u_parts, X)
            yield shift_cx(cone(src, X, cmap), -1)


def _e6_alt_right_triangles(monkeypatch):
    """The cocones of the K^b triangles on the minimal right
    approximations, at the (object, k) where enumerating E6 alt discovers
    a partner on the right side (over A^op), in discovery order."""
    seen, real = [], Registry.discover

    def recording(reg, items, k):
        if not reg.g_signs(tuple(items))[0] & reg.bits([items[k]]):
            seen.append((reg, list(items), k))
        return real(reg, items, k)

    monkeypatch.setattr(Registry, "discover", recording)
    _, alg = parse_algebra(dynkin_text("E", 6, alt=True))
    enumerate_support_tau_tilting(alg)
    monkeypatch.undo()
    return [right_cocone(reg, items, k) for reg, items, k in seen]


REDUCE_CASES = {"ex1": None, "ex2": None, "ex3": None,
                "A4": linear_quiver_text(4),
                "rad2-A4": linear_quiver_text(4, True)}


@pytest.mark.parametrize("case", sorted(REDUCE_CASES))
def test_reduce_matches_the_cancellation_loop(case):
    """reduce_cx is the loop on mutable copies, array for array, on every
    exchange cone and cocone, on the cone of each item complex's identity
    (which reduces to the zero complex) and on cones from and to the zero
    complex."""
    text = REDUCE_CASES[case]
    alg = (load_example(case)[1] if text is None
           else parse_algebra(text)[1])
    objs, reg = enumerate_support_tau_tilting(alg)
    zero = Cx(alg, {}, {}, check=False)
    cases = list(_exchange_triangles(reg, objs))
    for item in indec_tau_rigid_items(alg, registry=reg)[0]:
        x = item_cx(reg, item)
        ident = cone(x, x, _identity_cmap(x))
        assert reduce_cx(ident).total_summands() == 0
        from_zero, to_zero = cone(zero, x, {}), cone(x, zero, {})
        _assert_same_cx(reduce_cx(from_zero), x)
        _assert_same_cx(reduce_cx(to_zero), shift_cx(x, 1))
        cases += [ident, from_zero, to_zero]
    cases.append(cone(zero, zero, {}))
    for cx in cases:
        _assert_same_cx(reduce_cx(cx), reduce_cx_by_loop(cx))


def test_reduce_matches_the_loop_on_e6_alt_right_triangles(monkeypatch):
    # the first cocone is minimal; the second cancels one entry
    cocones = _e6_alt_right_triangles(monkeypatch)
    assert [cx.total_summands() - reduce_cx(cx).total_summands()
            for cx in cocones] == [0, 2]
    for cx in cocones:
        _assert_same_cx(reduce_cx(cx), reduce_cx_by_loop(cx))


def test_entry_compose_gives_zeros_on_empty_axes(ex3):
    _, alg, _ = ex3
    rng = np.random.default_rng(7)

    def entries(*shape):
        return rng.integers(0, alg.p, shape + (alg.dim,))

    # (first, then, shape of then . first)
    cases = [(entries(0, 2), entries(3, 0), (3, 2)),  # no inner summand
             (entries(2, 0), entries(3, 2), (3, 0)),  # no column
             (entries(2, 3), entries(0, 2), (0, 3)),  # no row
             (entries(0, 2, 3), entries(4, 2), (0, 4, 3)),  # batch of none
             (entries(2, 3), entries(0, 4, 2), (0, 4, 3)),
             (entries(1, 0, 3), entries(5, 4, 0), (5, 4, 3))]
    for first, then, shape in cases:
        out = entry_compose(alg, first, then)
        assert out.dtype == np.int64
        assert np.array_equal(out, np.zeros(shape + (alg.dim,), np.int64))


@pytest.mark.parametrize("stem", ["ex1", "ex2", "ex3"])
def test_zero_module_lies_in_every_j(stem):
    _, alg, _ = load_example(stem)
    _, reg = enumerate_support_tau_tilting(alg)
    zero = zero_module(alg)
    for i in range(len(reg)):
        assert j_membership(SignedObject(module=reg.module(i)), zero)
        assert j_membership(reg.module(i), zero)
    for v in range(alg.idempotents.shape[0]):
        assert j_membership(SignedObject(vertex=v), zero)

"""Two-term complexes of projectives: presentations, the AR translate,
homotopy Hom, cones, Gaussian reduction, and minimal approximations."""

import itertools

import numpy as np
import pytest

from conftest import rebased_algebra
from oracles import dense_mult
from tauseq import linalg
from tauseq.complexes import (Cx, EntrySpace, HomK, compose_chain, cone,
                              cx_to_pair, direct_sum_cx, entry_compose,
                              ext1_dim, h0, hminus1, hom_K_dim,
                              min_left_approx_K, min_presentation,
                              min_right_approx_K, proj_list, reduce_cx,
                              shift_cx, stalk_cx, tau, tensor_zeros)
from tauseq.errors import DomainError
from tauseq.modules import hom_dim, is_iso

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
        want = [linalg.solve(alg.corner(a, b)[0].T, t[r, c], alg.p)
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

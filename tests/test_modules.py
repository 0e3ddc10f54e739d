"""Module arithmetic: hom spaces, decomposition, iso testing, torsion,
approximations, and endomorphism algebras."""

import itertools

import numpy as np
import pytest

from tauseq.algebra import algebra_invariants
from tauseq.errors import InputError
from tauseq.modules import (decompose, decompose_grouped, direct_sum,
                            end_algebra, hom_basis, hom_dim, in_gen,
                            injective_embedding, injective_module, is_iso,
                            is_local_endo, min_left_approx, min_right_approx,
                            parse_modules, projective_module, radical_rows,
                            simple_module, submodule, top_quotient,
                            torsion_free_quotient, trace_submodule,
                            zero_module)


def test_fixture_dimension_vectors(ex3):
    mods = ex3[2]
    assert mods["P1"].vertex_dims() == (1, 1, 1)
    assert mods["N"].vertex_dims() == (1, 2, 1)
    assert mods["I2"].vertex_dims() == (1, 1, 0)
    assert len(mods) == 9


def test_projective_hom_counts_vertex_dimension(ex3):
    alg, mods = ex3[1], ex3[2]
    for m in mods.values():
        for i in range(3):
            assert hom_dim(projective_module(alg, i), m) == \
                m.vertex_dims()[i]


def test_injective_hom_counts_vertex_dimension(ex3):
    alg, mods = ex3[1], ex3[2]
    for m in mods.values():
        for j in range(3):
            assert hom_dim(m, injective_module(alg, j)) == \
                m.vertex_dims()[j]


def test_injectives_of_the_commutative_triangle(ex3):
    alg, mods = ex3[1], ex3[2]
    assert is_iso(injective_module(alg, 0), mods["S1"])
    assert is_iso(injective_module(alg, 1), mods["I2"])
    assert is_iso(injective_module(alg, 2), mods["I3"])


def test_hom_basis_elements_intertwine(ex3):
    alg, mods = ex3[1], ex3[2]
    m, n = mods["P1"], mods["N"]
    eye = np.eye(alg.dim, dtype=np.int64)
    for h in hom_basis(m, n):
        for i in range(alg.dim):
            lhs = (h @ m.action[i]) % alg.p
            rhs = (n.action[i] @ h) % alg.p
            assert np.array_equal(lhs, rhs)


def test_fixtures_are_pairwise_non_isomorphic(ex3):
    mods = list(ex3[2].values())
    for a, b in itertools.combinations(mods, 2):
        assert not is_iso(a, b)
    for m in mods:
        assert is_iso(m, m)
        assert is_local_endo(m)


def test_iso_is_basis_independent(ex3):
    from tauseq.modules import FdModule

    alg, mods = ex3[1], ex3[2]
    m = mods["N"]
    rng = np.random.default_rng(11)
    while True:
        g = rng.integers(0, alg.p, (m.dim, m.dim))
        from tauseq import linalg
        ginv = linalg.inverse(g, alg.p)
        if ginv is not None:
            break
    conj = np.stack([(g @ m.action[i] @ ginv) % alg.p
                     for i in range(alg.dim)])
    assert is_iso(m, FdModule(alg, conj))


def test_decompose_recovers_multiplicities(ex3):
    alg, mods = ex3[1], ex3[2]
    total, _, _ = direct_sum(alg, [mods["P1"], mods["M"], mods["M"],
                                   mods["S2"]])
    groups = {}
    for piece, mult in decompose_grouped(total):
        key = [k for k, v in mods.items() if is_iso(v, piece)]
        assert len(key) == 1
        groups[key[0]] = mult
    assert groups == {"P1": 1, "M": 2, "S2": 1}
    assert not is_local_endo(total)


def test_decompose_indecomposable_is_identity(ex3):
    mods = ex3[2]
    parts = decompose(mods["N"])
    assert len(parts) == 1
    assert is_iso(parts[0][0], mods["N"])


def test_radical_and_top_of_projective(ex3):
    alg, mods = ex3[1], ex3[2]
    p1 = mods["P1"]
    top, _ = top_quotient(p1)
    assert is_iso(top, mods["S1"])
    rad, _ = submodule(p1, radical_rows(p1))
    names = sorted(k for k, v in mods.items()
                   for piece, _ in decompose_grouped(rad) if is_iso(v, piece))
    assert names == ["S2", "S3"]


def test_trace_and_torsion_free_quotient(ex3):
    alg, mods = ex3[1], ex3[2]
    # M is generated by P1 (it is a quotient), S1 is not generated by P2
    assert in_gen(mods["P1"], mods["M"])
    assert not in_gen(mods["P2"], mods["S1"])
    f, _ = torsion_free_quotient(mods["P1"], mods["M"])
    assert f.dim == 0
    f, _ = torsion_free_quotient(mods["P2"], mods["S1"])
    assert is_iso(f, mods["S1"])


def test_torsion_free_quotient_kills_all_maps_for_rigid_u(ex3):
    # Gen u is extension-closed exactly when u is tau-rigid here; for the
    # one non-rigid fixture (I3) the trace is not a radical and the
    # property genuinely fails, so I3 is only used on the x side.
    from tauseq.tautilt import is_tau_rigid

    mods = ex3[2]
    rigid = [u for u in mods.values() if is_tau_rigid(u)]
    assert len(rigid) == 8
    for u in rigid:
        for x in mods.values():
            f, _ = torsion_free_quotient(u, x)
            assert hom_dim(u, f) == 0


def test_trace_is_idempotent(ex3):
    mods = ex3[2]
    for u, x in itertools.product(mods.values(), repeat=2):
        sub, _ = trace_submodule(u, x)
        sub2, _ = trace_submodule(u, sub)
        assert sub2.dim == sub.dim


def _factors_through(x, tgt, beta, maps_to):
    """Every map x -> maps_to factors through beta: x -> tgt."""
    from tauseq import linalg

    p = x.algebra.p
    gs = hom_basis(tgt, maps_to)
    if not gs:
        return all(h.size == 0 or not h.any()
                   for h in hom_basis(x, maps_to))
    rows = np.array([((g @ beta.matrix) % p).reshape(-1) for g in gs])
    solver = linalg.SpanSolver(rows, p)
    return all(solver.contains(h.reshape(-1))
               for h in hom_basis(x, maps_to))


def test_min_left_approx_factorization(ex3):
    mods = ex3[2]
    for x_name, summands in (("S3", ["P2", "M"]), ("S2", ["P1", "N"]),
                             ("I3", ["P2"])):
        x = mods[x_name]
        us = [mods[s] for s in summands]
        tgt, beta, _ = min_left_approx(x, us)
        for u in us:
            assert _factors_through(x, tgt, beta, u)


def test_min_left_approx_oracles(ex1):
    alg, mods = ex1[1], ex1[2]
    tgt, _, _ = min_left_approx(mods["P1"], [mods["P2"]])
    assert tgt.dim == 0
    tgt, _, _ = min_left_approx(mods["P2"], [mods["P1"]])
    assert is_iso(tgt, mods["P1"])


def test_min_approx_by_nothing_is_the_zero_map(ex3):
    # no nonzero summand, or no map either way between S1 and S2
    alg, mods = ex3[1], ex3[2]
    x = mods["S1"]
    assert hom_dim(mods["S2"], x) == 0 and hom_dim(x, mods["S2"]) == 0
    for us in ([], [zero_module(alg)], [mods["S2"]]):
        src, alpha, used = min_right_approx(us, x)
        assert (src.dim, alpha.source, alpha.target) == (0, src, x)
        assert alpha.matrix.shape == (x.dim, 0) and used == []
        tgt, beta, used = min_left_approx(x, us)
        assert (tgt.dim, beta.source, beta.target) == (0, x, tgt)
        assert beta.matrix.shape == (0, x.dim) and used == []


def test_min_right_approx_is_epi_onto_trace(ex3):
    mods = ex3[2]
    u, x = mods["P1"], mods["M"]
    src, alpha, _ = min_right_approx([u], x)
    # M lies in Gen P1, so the approximation is onto
    assert np.linalg.matrix_rank(alpha.matrix) == x.dim
    assert is_iso(src, mods["P1"])


def test_end_algebra_of_the_regular_module(ex1):
    alg, mods = ex1[1], ex1[2]
    end = end_algebra([mods["P1"], mods["P2"]])
    assert algebra_invariants(end.struct) == (2, 3, 1)


def test_end_algebra_opposite_composition(ex3):
    alg, mods = ex3[1], ex3[2]
    end = end_algebra([mods["P1"], mods["P2"]])
    mats, struct = end.mats, end.struct
    eye = np.eye(struct.dim, dtype=np.int64)
    for i in range(struct.dim):
        for j in range(struct.dim):
            prod = struct.multiply(eye[i], eye[j])
            concrete = (mats[j] @ mats[i]) % alg.p
            built = np.zeros_like(concrete)
            for c, mat in zip(prod, mats):
                if c:
                    built = (built + int(c) * mat) % alg.p
            assert np.array_equal(built, concrete)


def test_injective_embedding_is_injective(ex3):
    from tauseq import linalg

    alg, mods = ex3[1], ex3[2]
    for m in mods.values():
        emb = injective_embedding(m)
        assert linalg.rank(emb.matrix, alg.p) == m.dim


def test_simple_modules_have_dim_one(ex3):
    alg = ex3[1]
    for i in range(3):
        s = simple_module(alg, i)
        assert s.dim == 1
        dims = [0, 0, 0]
        dims[i] = 1
        assert s.vertex_dims() == tuple(dims)


def test_zero_module_behaves(ex3):
    alg, mods = ex3[1], ex3[2]
    z = zero_module(alg)
    assert z.dim == 0
    assert hom_dim(z, mods["P1"]) == 0
    assert hom_dim(mods["P1"], z) == 0


def test_parse_modules_rejects_bad_blocks(ex3):
    qp, alg = ex3[0], ex3[1]
    with pytest.raises(InputError):
        parse_modules("module X\narrow alpha = [[1]]\n", qp, alg)
    with pytest.raises(InputError):
        parse_modules("module X\ndims 9:1\n", qp, alg)

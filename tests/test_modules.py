"""Module arithmetic: hom spaces, decomposition, iso testing, torsion,
approximations, and endomorphism algebras."""

import itertools

import numpy as np
import pytest

from conftest import rebased_algebra
from oracles import dense_mult
from tauseq.algebra import algebra_invariants, parse_algebra
from tauseq.complexes import simple_list
from tauseq.errors import DomainError, InputError
from tauseq.modules import (FdModule, decompose, decompose_grouped,
                            direct_sum, end_algebra, hom_basis, hom_dim,
                            in_gen, injective_module, is_iso,
                            is_local_endo, min_left_approx,
                            min_right_approx, parse_modules,
                            projective_module, radical_rows, simple_module,
                            submodule, top_quotient, torsion_free_quotient,
                            trace_submodule, zero_module)
from test_algebra import linear_quiver_text


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


def test_iso_of_indecomposables_needs_no_random_search(ex2, monkeypatch):
    # P1 and I1 share the dimension vector (1, 1) and Hom(P1, I1) is
    # nonzero, yet no map is invertible: the basis scan alone decides
    mods = ex2[2]
    p1, i1 = mods["P1"], mods["I1"]
    assert p1.vertex_dims() == i1.vertex_dims()
    assert hom_dim(p1, i1) == hom_dim(i1, p1) == 1

    def no_draws(*args, **kw):
        raise AssertionError("is_iso drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    assert not is_iso(p1, i1) and not is_iso(i1, p1)


def test_iso_of_direct_sums_compares_summands(ex2):
    alg, mods = ex2[1], ex2[2]

    def total(*names):
        return direct_sum(alg, [mods[n] for n in names])[0]

    assert is_iso(total("P1", "I1", "S2"), total("S2", "I1", "P1"))
    assert is_iso(total("P1", "P1", "I1"), total("I1", "P1", "P1"))
    assert not is_iso(total("P1", "P1"), total("P1", "I1"))
    assert not is_iso(total("P1", "S2"), total("I1", "S2"))
    assert not is_iso(total("S1", "P2"), total("P1", "I1"))


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


def test_simple_modules_have_dim_one(ex3):
    alg = ex3[1]
    for i in range(3):
        s = simple_module(alg, i)
        assert s.dim == 1
        dims = [0, 0, 0]
        dims[i] = 1
        assert s.vertex_dims() == tuple(dims)
        # the simples cached on the algebra are the same modules
        assert np.array_equal(simple_list(alg)[i].action, s.action)
    assert simple_list(alg) is simple_list(alg)


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


# -- the batched Hom system against the Kronecker construction -------------


def _kron_hom_basis(m, n):
    """Hom(m, n) from the stacked kron(I, a^T) - kron(b, I) blocks, one per
    generator: the construction the batched system replaced."""
    from tauseq import linalg

    p = m.algebra.p
    if m.dim == 0 or n.dim == 0:
        return []
    im = np.eye(n.dim, dtype=np.int64)
    imm = np.eye(m.dim, dtype=np.int64)
    blocks = [(np.kron(im, m.act(g).T) - np.kron(n.act(g), imm)) % p
              for g in m.algebra.generator_vectors()]
    ker = linalg.kernel_basis(np.vstack(blocks), p)
    return [row.reshape(n.dim, m.dim) for row in ker]


def _assert_same_hom_bases(mods):
    for m, n in itertools.product(mods, repeat=2):
        got, want = hom_basis(m, n), _kron_hom_basis(m, n)
        assert len(got) == len(want)
        for h, k in zip(got, want):
            assert h.shape == k.shape and np.array_equal(h, k)
    for m in mods:
        g = m.gen_actions()
        vecs = m.algebra.generator_vectors()
        assert g.shape == (len(vecs), m.dim, m.dim)
        for a, v in zip(g, vecs):
            assert np.array_equal(a, m.act(v))


def test_hom_basis_matches_kronecker_on_fixtures(ex1, ex2, ex3):
    for ex in (ex1, ex2, ex3):
        alg, mods = ex[1], ex[2]
        _assert_same_hom_bases(list(mods.values()) + [zero_module(alg)])


def test_hom_basis_matches_kronecker_over_a_reduced_algebra(root3, ex3):
    from conftest import item_of

    ctx = root3.child(item_of(root3, ex3[2], "I2"))
    gamma = ctx.gamma
    mods = [projective_module(gamma, i) for i in range(len(gamma.idempotents))]
    mods += [injective_module(gamma, i) for i in range(len(gamma.idempotents))]
    mods += list(ctx.registry.mods) + [zero_module(gamma)]
    assert all(m.algebra is gamma for m in mods)
    _assert_same_hom_bases(mods)


def test_hom_basis_matches_kronecker_over_a_rebased_algebra(ex3):
    alg = rebased_algebra(ex3[1], 5)
    assert any(np.count_nonzero(g) > 1 for g in alg.generator_vectors())
    mods = [f(alg, i) for f in (projective_module, injective_module,
                                simple_module) for i in range(3)]
    _assert_same_hom_bases(mods + [zero_module(alg)])


def _full_action_check(m):
    """The d^2 oracle: 1 acts as the identity and rho(b_i) rho(b_j) =
    rho(b_i b_j) for every pair of basis elements."""
    p, act, d = m.algebra.p, m.action, m.algebra.dim
    if not np.array_equal(m.act(m.algebra.unit), np.eye(m.dim, dtype=np.int64)):
        return False
    prod = (act[:, None] @ act[None]) % p
    want = (dense_mult(m.algebra).reshape(d * d, d) @
            act.reshape(d, -1)) % p
    return np.array_equal(prod.reshape(d * d, -1), want)


def _interval_modules(n):
    """Linear A_n and its n(n+1)/2 interval modules, each arrow acting by 1."""
    qp, alg = parse_algebra(linear_quiver_text(n))
    blocks = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            dims = " ".join(f"{v}:1" for v in range(i, j + 1))
            arrows = "".join(f"arrow a{v} = [[1]]\n" for v in range(i, j))
            blocks.append(f"module M{i}_{j}\ndims {dims}\n{arrows}")
    return alg, parse_modules("\n".join(blocks), qp, alg)


def _agrees_on(alg, act):
    try:
        FdModule(alg, act)
        accepted = True
    except DomainError:
        accepted = False
    assert accepted == _full_action_check(FdModule(alg, act, check=False))
    return accepted


def _perturbed_actions(m, rng, count):
    """m's action and count copies with one entry shifted."""
    p, cases = m.algebra.p, [m.action]
    for _ in range(count):
        act = m.action.copy()
        i, a, b = (rng.integers(0, s) for s in act.shape)
        act[i, a, b] = (act[i, a, b] + rng.integers(1, p)) % p
        cases.append(act)
    return cases


def test_generator_validation_agrees_with_the_full_check(ex3):
    alg, mods = ex3[1], ex3[2]
    rng = np.random.default_rng(17)
    answers = [_agrees_on(alg, act) for m in mods.values()
               for act in _perturbed_actions(m, rng, 20)]
    assert True in answers and False in answers
    # linear A10 (dim 55): the check gathers rho(b_k) over the sparse
    # generator products, and the oracle contracts the dense table
    alg, mods = _interval_modules(10)
    assert alg.dim == 55 and len(mods) == 55
    answers = [_agrees_on(alg, act) for m in mods.values()
               for act in _perturbed_actions(m, rng, 2)]
    assert answers[::3] == [True] * 55 and False in answers
    # wrong only on the path a2 a3 a4 of length 3: every arrow and vertex
    # acts as before, so only the products of generators catch it
    m = mods["M1_10"]
    k = alg.labels.index("a2*a3*a4")
    act = m.action.copy()
    assert act[k].any()
    act[k] = 2 * act[k] % alg.p
    assert not _agrees_on(alg, act)
    # a rebased basis: each g * b_j has many terms to sum
    alg = rebased_algebra(ex3[1], 5)
    mods = [f(alg, v) for f in (projective_module, injective_module,
                                simple_module) for v in range(3)]
    answers = [_agrees_on(alg, act) for m in mods
               for act in _perturbed_actions(m, rng, 5)]
    assert answers[::6] == [True] * 9 and False in answers


def test_commutativity_of_the_top_matches_the_dense_table(ex1, ex3):
    from tauseq.modules import _semisimple_top

    s1 = ex3[2]["S1"]
    m2 = end_algebra([s1, s1]).struct  # the 2 x 2 matrices
    algs = [ex1[1], ex3[1], m2, rebased_algebra(m2, 4),
            rebased_algebra(ex3[1], 3),
            end_algebra([ex3[2][n] for n in ("N", "M", "P1")]).struct]
    seen = set()
    for alg in algs:
        bar, _, commutative = _semisimple_top(alg)
        table = dense_mult(bar)
        assert commutative == np.array_equal(table, table.transpose(1, 0, 2))
        seen.add(commutative)
    assert seen == {True, False}

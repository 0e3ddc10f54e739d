"""Module arithmetic: hom spaces, decomposition, iso testing, torsion,
approximations, and endomorphism algebras."""

import functools
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dynkin_text, item_of, load_example, nakayama_text,
                      rebased_algebra)
from oracles import (act_radical_rows, close_by_stacking, dense_mult,
                     injective_by_right_action, lagrange_split_idempotent,
                     local_endo_by_top, newton_lift, solve_restricted_action)
from tauseq import linalg, modules
from tauseq.algebra import algebra_invariants, opposite, parse_algebra
from tauseq.complexes import min_presentation, simple_list, tau
from tauseq.errors import DomainError, InputError
from tauseq.modules import (FdModule, decompose, decompose_grouped,
                            direct_sum, dual, end_algebra, hom_basis, hom_dim,
                            in_gen, injective_module, is_iso,
                            is_local_endo, min_left_approx,
                            min_right_approx, parse_modules,
                            projective_module, quotient_module,
                            radical_rows, simple_module, submodule,
                            top_quotient, torsion_free_quotient,
                            trace_submodule, zero_module)
from tauseq.reduction import transport
from tauseq.tautilt import Registry, enumerate_support_tau_tilting
from test_algebra import linear_quiver_text


def test_cached_hom_basis_dies_with_its_target(ex3):
    # a registry module keeps its Hom bases keyed weakly by the target, so
    # a basis toward a temporary module goes when the module is freed
    _, alg, mods = ex3
    reg = Registry(alg)
    u = reg.module(reg.ensure(mods["P1"]))
    before = len(u._homs)
    tmp = FdModule(alg, u.action)
    assert len(hom_basis(u, tmp)) == 1 and tmp in u._homs
    gone = weakref.ref(tmp)
    del tmp
    gc.collect()
    assert gone() is None and len(u._homs) == before


def test_hom_bases_are_read_only_in_fresh_lists(ex3):
    _, alg, mods = ex3
    m = FdModule(alg, mods["M"].action)
    first = hom_basis(m, m)
    again = hom_basis(m, m)
    assert first is not again and len(first) == 1
    first.clear()
    assert len(hom_basis(m, m)) == 1
    for h in again + hom_basis(m, mods["P1"]):
        with pytest.raises(ValueError):
            h[0, 0] = 1


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
    m = ex3[2]["N"]
    assert is_iso(m, _rebased_module(m, 11))


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


KRONECKER = """field 32003
vertex 1
vertex 2
arrow a 1 2
arrow b 1 2
"""


@functools.lru_cache(maxsize=None)
def _kronecker_modules():
    """The Kronecker algebra with R, the regular module at the irreducible
    quadratic point X^2 - n for a non-residue n (End R = F_{p^2}), and Q,
    the regular module at the rational point 0 (End Q = F_p)."""
    qp, alg = parse_algebra(KRONECKER)
    p = alg.p
    n = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
    mods = parse_modules(f"""module R
dims 1:2 2:2
arrow a = [[1, 0], [0, 1]]
arrow b = [[0, {n}], [1, 0]]

module Q
dims 1:1 2:1
arrow a = [[1]]
arrow b = [[0]]
""", qp, alg)
    return alg, mods


def _decomposition_cases():
    """(sum module, {name: multiplicity}, reference modules by name): S1^3
    on ex1, R^2, R^3 and R + Q + R over the Kronecker algebra, and
    P1 + M + M + S2 on ex3.  Only modules are decomposed: the Kronecker
    algebra is tau-tilting infinite."""
    cases = []
    for stem, names in (("ex1", ["S1"] * 3),
                        ("ex3", ["P1", "M", "M", "S2"])):
        _, alg, mods = load_example(stem)
        cases.append((alg, mods, names))
    alg, mods = _kronecker_modules()
    cases += [(alg, mods, names) for names in
              (["R"] * 2, ["R"] * 3, ["R", "Q", "R"])]
    return [(direct_sum(alg, [mods[n] for n in names])[0],
             {n: names.count(n) for n in names}, mods)
            for alg, mods, names in cases]


def _rebased_module(m, seed):
    """m in a random basis: its Hom bases, and so the basis of its top, are
    no longer made of block matrices."""
    p = m.algebra.p
    rng = np.random.default_rng(seed)
    ginv = None
    while ginv is None:  # the identity's coordinates in g's rows
        g = rng.integers(0, p, (m.dim, m.dim))
        ginv = linalg.SpanSolver(g, p).coords(np.eye(m.dim, dtype=np.int64))
    return FdModule(m.algebra, (g @ m.action % p) @ ginv % p)


def test_decompose_recovers_multiplicities():
    # each case also in a random basis, but R^3 (dim 12), whose Hom systems
    # without vertex blocks take a second
    cases = _decomposition_cases()
    for total, want, mods in cases + [(_rebased_module(total, 11), want, mods)
                                      for total, want, mods in cases
                                      if total.dim <= 10]:
        p = total.algebra.p
        parts = decompose(total)
        names = []
        for piece, _ in parts:
            key = [k for k, v in mods.items() if is_iso(v, piece)]
            assert len(key) == 1 and is_local_endo(piece)
            names += key
        assert {n: names.count(n) for n in names} == want
        assert not is_local_endo(total)
        # the inclusions [i_1 | ... | i_k] are an isomorphism onto total
        incl = np.hstack([i.matrix for _, i in parts])
        assert incl.shape == (total.dim, total.dim)
        assert linalg.rank(incl, p) == total.dim


def test_decompose_draws_no_random_numbers(monkeypatch):
    # R^3 and S1^3 have noncommutative tops (M_3(F_{p^2}) and M_3(F_p)),
    # and a basis element of each splits it, so the seeded fallback is
    # never reached
    cases = [c for c in _decomposition_cases() if c[1] in (
        {"R": 3}, {"S1": 3}, {"P1": 1, "M": 2, "S2": 1})]
    assert len(cases) == 3

    def no_draws(*args, **kw):
        raise AssertionError("decompose drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for total, want, _ in cases:
        assert len(decompose(total)) == sum(want.values())


def test_split_idempotents_match_lagrange_and_newton(monkeypatch):
    """Every split that decompose makes on the decomposition tests' sums
    and on every sum of two of ex3's fixtures, each also in a random basis:
    the Fermat powers give the Lagrange idempotent g(z)/g(lambda) of the
    top, lifted by Newton's iteration.  Some End rings have a radical, and
    on some of those (sums with N in a random basis) the lift of the top's
    idempotent is not yet idempotent, so the lift is exercised too."""
    real, seen = modules._berlekamp_split, []

    def both(struct, bar, lift, ker):
        got = real(struct, bar, lift, ker)
        ebar = lagrange_split_idempotent(bar, ker)
        x = ebar if lift is None else (lift @ ebar) % bar.p
        assert np.array_equal(got, newton_lift(struct, x))
        seen.append((lift is not None,
                     not np.array_equal(struct.multiply(x, x), x)))
        return got

    monkeypatch.setattr(modules, "_berlekamp_split", both)
    fix3 = list(load_example("ex3")[2].values())
    mods = [c[0] for c in _decomposition_cases()] + [
        direct_sum(fix3[0].algebra, [a, b])[0]
        for a, b in itertools.combinations_with_replacement(fix3, 2)]
    mods += [_rebased_module(m, 11) for m in mods if m.dim <= 10]
    for m in mods:
        decompose(m)
    assert len(seen) >= len(mods)
    assert any(radical for radical, _ in seen)
    assert any(needs_lift for _, needs_lift in seen)


def test_is_local_endo_matches_the_top_route(monkeypatch):
    """is_local_endo (decompose leaves m whole) against the test on the
    semisimple top of End(m), on the fixtures of ex1-3, the registry
    modules of linear A4, every sum of two of ex3's fixtures, and S1^3 and
    R^3, whose tops are noncommutative; neither route draws a random
    element."""
    mods = [m for stem in ("ex1", "ex2", "ex3")
            for m in load_example(stem)[2].values()]
    mods += enumerate_support_tau_tilting(
        parse_algebra(linear_quiver_text(4))[1])[1].mods
    fix3 = list(load_example("ex3")[2].values())
    alg3 = fix3[0].algebra
    mods += [direct_sum(alg3, [a, b])[0]
             for a, b in itertools.combinations_with_replacement(fix3, 2)]
    mods += [c[0] for c in _decomposition_cases()
             if c[1] in ({"R": 3}, {"S1": 3})]

    def no_draws(*args, **kw):
        raise AssertionError("a random element was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    got = [is_local_endo(m) for m in mods]
    assert got == [local_endo_by_top(m) for m in mods]
    assert got.count(True) == 17 + 10 and got.count(False) == 45 + 2


def test_direct_sum_takes_generator_actions_from_its_summands(
        ex3, monkeypatch):
    """Every direct sum that a presentation or tau builds over ex1-3 and
    linear A5 and A6 has the generator actions and basis vertices of the
    einsum over its own action tensor."""
    from tauseq import complexes

    sums, real = [], modules.direct_sum

    def recording(alg, summands):
        out = real(alg, summands)
        sums.append(out[0])
        return out

    monkeypatch.setattr(complexes, "direct_sum", recording)
    cases = [load_example(stem)[2].values() for stem in ("ex1", "ex2", "ex3")]
    cases += [_interval_modules(n)[1].values() for n in (5, 6)]
    for mods in cases:
        for m in mods:
            min_presentation(m)
            complexes.tau(m)
    # a basis that is not adapted: the sum's basis vertices are None too
    alg = rebased_algebra(ex3[1], 5)
    sums.append(real(alg, [f(alg, v) for f in (projective_module,
                                               injective_module)
                           for v in range(3)])[0])
    assert len(sums) > 100
    for s in sums:
        fresh = FdModule(s.algebra, s.action, check=False)
        got, want = s.gen_actions(), fresh.gen_actions()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        v, w = s.basis_vertices(), fresh.basis_vertices()
        assert (v is None) == (w is None)
        assert v is None or (v.dtype == w.dtype and np.array_equal(v, w))
    assert sums[-1].basis_vertices() is None


def test_submodules_take_generator_actions_from_their_ambient(monkeypatch):
    """Every submodule built for a trace, a tau kernel, a decompose piece
    or the kernel of a minimal right approximation (criterion 5's
    Wakamatsu kernels) over ex1-3 and the registry of linear A4, and over
    an ex3 module in a basis that is not adapted, has, as soon as it is
    built, the generator actions and basis vertices of the einsum over a
    fresh module with its action."""
    from tauseq import complexes
    from test_complexes import _conjugate_by

    subs, real = [], modules.submodule

    def checked(m, rows):
        out = real(m, rows)
        s = out[0]
        fresh = FdModule(s.algebra, s.action, check=False)
        got, want = s.gen_actions(), fresh.gen_actions()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        v, w = s.basis_vertices(), fresh.basis_vertices()
        assert (v is None) == (w is None)
        assert v is None or (v.dtype == w.dtype and np.array_equal(v, w))
        subs.append(s)
        return out

    monkeypatch.setattr(modules, "submodule", checked)
    monkeypatch.setattr(complexes, "submodule", checked)
    cases = [list(load_example(stem)[2].values())
             for stem in ("ex1", "ex2", "ex3")]
    cases.append(list(enumerate_support_tau_tilting(
        parse_algebra(linear_quiver_text(4))[1])[1].mods))
    big = max(cases[2], key=lambda m: m.dim)
    mixed = _conjugate_by(big, np.triu(np.ones((big.dim, big.dim),
                                                dtype=np.int64)))
    assert mixed.basis_vertices() is None
    cases[2].append(mixed)
    for mods in cases:
        alg = mods[0].algebra
        decompose(direct_sum(alg, mods)[0])
        for u in mods:
            tau(u)
            for x in mods:
                trace_submodule(u, x)
                src, alpha, _ = min_right_approx([u], x)
                if src.dim:
                    modules.submodule(src, alpha.kernel_rows())
    assert len(subs) >= 400
    assert any(s.basis_vertices() is None for s in subs)


def test_decompose_indecomposable_is_identity(ex3):
    mods = ex3[2]
    parts = decompose(mods["N"])
    assert len(parts) == 1
    assert is_iso(parts[0][0], mods["N"])


@pytest.mark.parametrize("text", [linear_quiver_text(5),
                                  linear_quiver_text(5, True),
                                  dynkin_text("D", 4)])
def test_decompose_of_a_brick_builds_no_end_algebra(text, monkeypatch):
    # every indecomposable of these algebras has End = k
    _, reg = enumerate_support_tau_tilting(parse_algebra(text)[1])

    def refuse(*args, **kw):
        raise AssertionError("decompose built an End algebra")

    monkeypatch.setattr(modules, "algebra_from_matrices", refuse)
    for i in range(len(reg)):
        m = reg.module(i)
        (piece, incl), = decompose(m)
        assert piece is m and incl.source is m and incl.target is m
        assert np.array_equal(incl.matrix, np.eye(m.dim, dtype=np.int64))


def test_decompose_of_a_local_non_brick_builds_its_end_algebra(monkeypatch):
    # the projectives of Lambda_3^4 have End of dimension 2, local
    alg = parse_algebra(nakayama_text(3, 4))[1]
    built, real = [], modules.algebra_from_matrices

    def counted(*args, **kw):
        built.append(args[0])
        return real(*args, **kw)

    monkeypatch.setattr(modules, "algebra_from_matrices", counted)
    for v in range(3):
        pv = projective_module(alg, v)
        (piece, _), = decompose(pv)
        assert piece is pv and len(built) == v + 1 and len(built[v]) == 2


def test_is_iso_decomposes_each_side_once(ex3, monkeypatch):
    # no basis map of Hom(m, n) is invertible, so both sides are split and
    # compared summand by summand; locality is read off the one split of
    # each side, so each 8 x 8 self-Hom system is solved once
    _, alg, mods = ex3
    m = direct_sum(alg, [mods[k] for k in ("P1", "M", "M", "S2")])[0]
    n = direct_sum(alg, [mods[k] for k in ("S2", "M", "P1", "M")])[0]
    calls, real = [], modules.hom_basis

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(modules, "hom_basis", counted)
    assert m.dim == 8 and is_iso(m, n)
    assert len(calls) < 22
    assert sum(a is b and a.dim == 8 for a, b in calls) == 2


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
    return all(solver.coords(h.reshape(-1)) is not None
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


def _conjugate(m):
    """m in the basis given by the columns of the invertible upper
    unitriangular all-ones matrix g: the action g^-1 rho(b) g."""
    p = m.algebra.p
    g = np.triu(np.ones((m.dim, m.dim), dtype=np.int64))
    ginv = linalg.SpanSolver(g, p).coords(np.eye(m.dim, dtype=np.int64))
    return FdModule(m.algebra, (ginv @ m.action @ g) % p)


def test_hom_basis_matches_kronecker_on_fixtures(ex1, ex2, ex3):
    for ex in (ex1, ex2, ex3):
        alg, mods = ex[1], ex[2]
        assert all(m.basis_vertices() is not None for m in mods.values())
        _assert_same_hom_bases(list(mods.values()) + [zero_module(alg)])
    # every ex3 fixture of dimension >= 2 lies over two or more vertices,
    # so a basis that mixes them is not adapted: each pair with one of
    # these takes every entry of the map as an unknown
    conj = [_conjugate(m) for m in ex3[2].values() if m.dim >= 2]
    assert len(conj) == 6
    assert all(c.basis_vertices() is None for c in conj)
    _assert_same_hom_bases(list(ex3[2].values()) + conj)


@pytest.mark.parametrize("stem", ["ex1", "ex2", "ex3"])
def test_dual_is_an_involution_that_reverses_hom(stem, request):
    # D m is m's transposed action over A^op, cached both ways; D of a fresh
    # A^op-module with D m's action has A and m's action bytes again; and
    # Hom(D y, D x) = Hom(x, y)^T, so the dimensions agree on every pair
    _, alg, mods = request.getfixturevalue(stem)
    for m in mods.values():
        dm = dual(m)
        assert dm.algebra is opposite(alg) and dual(dm) is m
        back = dual(FdModule(opposite(alg), dm.action))
        assert back.algebra is alg
        assert back.action.tobytes() == m.action.tobytes()
    for x, y in itertools.product(mods.values(), repeat=2):
        assert hom_dim(dual(y), dual(x)) == hom_dim(x, y)


@functools.lru_cache(maxsize=None)
def _vertex_module_algebras():
    """ex1-3, linear A3-A6, rad^2=0 A4-A6, Lambda_4^4, D5 alt and E6 alt,
    and ex3, linear A4 and rad^2=0 A5 in the random bases (seeds 3 and 8)
    of test_complexes::test_tau_and_h0_in_a_rebased_algebra; built once."""
    texts = [linear_quiver_text(n) for n in range(3, 7)] + [
        linear_quiver_text(n, rad_square_zero=True) for n in range(4, 7)] + [
        nakayama_text(4, 4), dynkin_text("D", 5, alt=True),
        dynkin_text("E", 6, alt=True)]
    algs = [load_example(stem)[1] for stem in ("ex1", "ex2", "ex3")] + [
        parse_algebra(t)[1] for t in texts]
    return tuple(algs + [rebased_algebra(algs[i], seed)
                         for i in (2, 4, 8) for seed in (3, 8)])


def test_injectives_are_duals_of_the_opposite_projectives():
    # I_j = D(A^op e_j) has the action and the RREF basis amb_rows of e_j A
    # that the right action of A on e_j A, transposed, gives, byte for byte
    for alg in _vertex_module_algebras():
        for j in range(len(alg.idempotents)):
            got = injective_module(alg, j)
            want = injective_by_right_action(alg, j)
            assert got.algebra is alg
            for a, b in ((got.action, want.action),
                         (got.amb_rows, want.amb_rows)):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()


def test_every_constructor_stores_its_action_in_c_order(root3, ex3):
    # a strided action makes einsum (hom_to_tau) read it up to 1.8 times
    # slower; the transposes of dual, injective_module and transport are the
    # strided views that FdModule copies
    built = []
    for alg in _vertex_module_algebras():
        for v in range(len(alg.idempotents)):
            pv, iv = projective_module(alg, v), injective_module(alg, v)
            built += [pv, iv, simple_module(alg, v), dual(pv), dual(iv),
                      direct_sum(alg, [pv, iv])[0],
                      submodule(iv, radical_rows(iv))[0],
                      quotient_module(pv, radical_rows(pv))[0]]
    for name in ("S2", "M", "I2"):
        ctx = root3.child(item_of(root3, ex3[2], name))
        built += [transport(ctx, torsion_free_quotient(ctx.u_module, b)[0])
                  for b in ctx.b_summands]
    assert sum(m.dim > 1 for m in built) > 300
    assert all(m.action.flags.c_contiguous for m in built)


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


def test_restricted_action_matches_the_solve(ex1, ex2, ex3, root3,
                                             monkeypatch):
    """Every restricted action built for a projective, an injective, a
    trace submodule or the kernel that tau takes equals the dense solve,
    over ex1-3, ex3 in a random basis and the reduced algebra of ex3 at I2;
    and rad m equals the span of the radical rows' actions on all of them
    and on every tau."""
    real, seen = modules._restricted_action, []

    def both(imgs, bt, p, error):
        got = real(imgs, bt, p, error)
        assert np.array_equal(got, solve_restricted_action(imgs, bt, p,
                                                            error))
        seen.append(bt.shape)
        return got

    monkeypatch.setattr(modules, "_restricted_action", both)
    rebased = rebased_algebra(ex3[1], 5)
    ctx = root3.child(item_of(root3, ex3[2], "I2"))
    cases = [(ex[1], list(ex[2].values())) for ex in (ex1, ex2, ex3)] + [
        (rebased, [f(rebased, i) for f in (projective_module,
                                           injective_module, simple_module)
                   for i in range(3)]),
        (ctx.gamma, list(ctx.registry.mods))]
    built = []
    for alg, mods in cases:
        n = len(alg.idempotents)
        built += [projective_module(alg, i) for i in range(n)]
        built += [injective_module(alg, i) for i in range(n)]
        built += [trace_submodule(u, x)[0] for u in mods for x in mods]
        built += mods + [tau(m) for m in mods]
    assert len(seen) >= 150 and len(built) >= 250
    for m in built:
        assert np.array_equal(radical_rows(m), act_radical_rows(m))


@functools.lru_cache(maxsize=None)
def _closure_modules():
    """The ex1-3 fixtures and the projectives and injectives of linear A4,
    built once."""
    alg = parse_algebra(linear_quiver_text(4))[1]
    return tuple(m for stem in ("ex1", "ex2", "ex3")
                 for m in load_example(stem)[2].values()) + tuple(
        f(alg, i) for f in (projective_module, injective_module)
        for i in range(4))


def _assert_closure_matches_stacking(m, rows):
    got, want = modules._close_under_action(m, rows), close_by_stacking(m, rows)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_close_under_action_matches_stacking(data):
    m = data.draw(st.sampled_from(_closure_modules()))
    p = m.algebra.p
    kind = st.sampled_from(["zero", "unit", "radical", "random"])
    rows = []
    for k in data.draw(st.lists(kind, max_size=4)):
        if k == "zero":
            rows.append(np.zeros(m.dim, dtype=np.int64))
        elif k == "unit":
            rows.append(np.eye(m.dim, dtype=np.int64)[
                data.draw(st.integers(0, m.dim - 1))])
        elif k == "radical":
            rows.extend(radical_rows(m))
        elif k == "random":
            rows.append(np.array(data.draw(st.lists(
                st.sampled_from([0, 1, 2, p - 1]), min_size=m.dim,
                max_size=m.dim)), dtype=np.int64))
    _assert_closure_matches_stacking(m, np.array(rows).reshape(-1, m.dim))


def test_close_under_action_row_reduces_only_new_residuals(monkeypatch):
    """A closed span (zero rows, rad m, all of m) costs its first row
    reduction alone; the top vector of P1 over linear A4 generates the
    length-4 uniserial in three rounds, one row reduction each."""
    alg = parse_algebra(linear_quiver_text(4))[1]
    p1 = projective_module(alg, 0)
    rad = radical_rows(p1)
    eye = np.eye(4, dtype=np.int64)
    top = eye[[c for c in range(4) if c not in (rad != 0).argmax(axis=1)]]
    real, calls = linalg.row_space, []
    for rows, rounds in [(np.zeros((2, 4), dtype=np.int64), 0), (rad, 0),
                         (eye, 0), (top, 3)]:
        _assert_closure_matches_stacking(p1, rows)
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "row_space",
                       lambda a, p: calls.append(1) or real(a, p))
            del calls[:]
            modules._close_under_action(p1, rows)
        assert len(calls) == 1 + rounds


def test_restricted_action_raises_the_callers_message(ex3):
    m = ex3[2]["P1"]
    p = m.algebra.p
    # a basis vector that some arrow moves: its span is not stable
    arrows = m.gen_actions()[len(m.algebra.idempotents):]
    c = int(np.flatnonzero(arrows.any(axis=1).any(axis=0))[0])
    bt = np.eye(m.dim, dtype=np.int64)[:, [c]]
    imgs = (m.action @ bt) % p
    for route in (modules._restricted_action, solve_restricted_action):
        with pytest.raises(DomainError, match="^the caller's message$"):
            route(imgs, bt, p, "the caller's message")


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

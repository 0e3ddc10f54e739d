"""Support tau-tilting objects: enumeration, mutation, Bongartz and
co-Bongartz complements, and the complement correspondence."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (FIXDIR, dynkin_text, item_of, monomial_quiver_texts,
                      nakayama_text)
from oracles import (cone, context_objects, cx_to_pair, end_radical_mats,
                     g_fan_check, hminus1, item_cx, min_approx_by_end,
                     object_cx, objects_by_item, reduce_cx, right_cocone,
                     scan_completion, scan_partner, scan_support_tau_rigid,
                     tau_by_transpose, tau_compatible, triangle_bongartz)
from test_algebra import linear_quiver_text
import gc
import itertools
import math
import random
import weakref

from tauseq import complexes as cxs
from tauseq import cli, linalg, modules, tautilt
from tauseq.algebra import opposite, parse_algebra
from tauseq.complexes import (end_K, hom_K_dim, min_presentation,
                              proj_list, tau)
from tauseq.errors import CapExceededError, DomainError
from tauseq.modules import (FdModule, decompose_grouped, direct_sum,
                            hom_basis, hom_dim, in_gen, is_iso,
                            min_left_approx, min_right_approx, submodule,
                            trace_rows)
from tauseq.reduction import _find_proj_vertex
from tauseq.reduction import root_context
from tauseq.sequences import enumerate_ordered, phi, psi
from tauseq.tautilt import (Registry, SignedObject, _items_support_tau_rigid,
                            bongartz, canonical, cobongartz,
                            complement_correspondence, completion,
                            enumerate_support_tau_tilting,
                            indec_tau_rigid_items, is_support_tau_rigid,
                            is_tau_rigid, mutate)

EXPECTED_COUNTS = {"root1": 5, "root2": 6, "root3": 18}
RIGID_NAMES = {
    "root1": {"P1", "P2", "S1"},
    "root2": {"S1", "S2", "P1", "P2"},
    "root3": {"S1", "S2", "S3", "P1", "P2", "M", "N", "I2"},
}


def _rigid_fixture_mods(mods):
    return {k: m for k, m in mods.items() if is_tau_rigid(m)}


@pytest.mark.parametrize("stem", ["root1", "root2", "root3"])
def test_object_counts(stem, request):
    root = request.getfixturevalue(stem)
    assert len(root.stt_objects) == EXPECTED_COUNTS[stem]


@pytest.mark.parametrize("stem", ["root1", "root2", "root3"])
def test_objects_are_basic_rigid_and_full_rank(stem, request):
    root = request.getfixturevalue(stem)
    reg = root.registry
    n = root.gamma.idempotents.shape[0]
    for items in root.stt_objects:
        assert len(items) == n
        assert len(set(items)) == n
        assert is_support_tau_rigid([reg.item_signed(it) for it in items])


@pytest.mark.parametrize(
    "stem,exname", [("root1", "ex1"), ("root2", "ex2"), ("root3", "ex3")])
def test_indec_tau_rigid_inventory(stem, exname, request):
    root = request.getfixturevalue(stem)
    _, alg, mods = request.getfixturevalue(exname)
    items, _, reg = indec_tau_rigid_items(alg, registry=root.registry)
    module_names = {reg.display_item(it) for it in items if it[0] == "m"}
    assert module_names == RIGID_NAMES[stem]
    shift_count = sum(1 for it in items if it[0] == "p")
    assert shift_count == alg.idempotents.shape[0]


def test_non_rigid_fixtures(ex2, ex3):
    _, _, mods2 = ex2
    _, alg3, mods3 = ex3
    assert not is_tau_rigid(mods2["I1"])
    assert not is_tau_rigid(mods3["I3"])

    def rigid(*parts):
        return is_support_tau_rigid(
            [SignedObject(vertex=x) if isinstance(x, int)
             else SignedObject(module=x) for x in parts])

    p1 = _find_proj_vertex(alg3, mods3["P1"])
    assert not rigid(mods2["I1"])
    assert not rigid(mods3["S2"], mods3["S3"])
    assert not rigid(mods3["P1"], p1)
    assert not rigid(p1, p1)
    assert rigid(mods3["P1"], mods3["P2"]) and rigid(p1)


def _direct_sum_rigid(alg, mods, verts):
    """The definition read off the direct sum: Hom(M, tau M) = 0 and
    Hom(P_v, M) = 0 for M the sum of mods."""
    if not mods:
        return True
    total, _, _ = direct_sum(alg, mods)
    return hom_dim(total, tau(total)) == 0 and all(
        hom_dim(proj_list(alg)[v], total) == 0 for v in verts)


@pytest.mark.parametrize(
    "stem,exname", [("root1", "ex1"), ("root2", "ex2"), ("root3", "ex3")])
def test_pairwise_compatibility_matches_direct_sum(stem, exname, request):
    # the registry holds every fixture module, the non-tau-rigid ones too
    root = request.getfixturevalue(stem)
    _, alg, mods = request.getfixturevalue(exname)
    reg = Registry(alg)
    for m in root.registry.mods:
        reg.add(m, name="")
    assert all(reg.find(m) is not None for m in mods.values())
    items = [("m", i) for i in range(len(reg))] + \
        [("p", v) for v in range(alg.idempotents.shape[0])]
    negatives = 0
    for i, a in enumerate(items):
        for b in items[i:]:
            want = _direct_sum_rigid(
                alg, [reg.module(x) for k, x in (a, b) if k == "m"],
                [x for k, x in (a, b) if k == "p"])
            assert _items_support_tau_rigid(reg, [a, b]) == want, (a, b)
            assert _items_support_tau_rigid(reg, [b, a]) == want, (b, a)
            negatives += not want
    assert negatives


@pytest.mark.parametrize("case", ["ex3", "A4"])
def test_compatibility_solves_no_hom_system(case, request, monkeypatch):
    """With every presentation cached, compatibility of two distinct
    registry modules is one rank each way on a presentation: no
    hom_basis call."""
    alg = _algebra_case(case, request)
    reg = Registry(alg)
    for m in enumerate_support_tau_tilting(alg)[1].mods:
        cxs.presentation(reg.module(reg.add(m, name="")))
    calls = []

    def counting(*args):
        calls.append(args)
        return hom_basis(*args)

    monkeypatch.setattr(modules, "hom_basis", counting)
    monkeypatch.setattr(cxs, "hom_basis", counting)
    for a, b in itertools.combinations(range(len(reg)), 2):
        reg.compatible(("m", a), ("m", b))
    assert len(reg) > 5 and calls == []


@pytest.mark.parametrize("stem", ["ex1", "ex2", "ex3"])
def test_projectives_are_tau_rigid(stem, request):
    _, alg, _ = request.getfixturevalue(stem)
    for pr in proj_list(alg):
        assert is_tau_rigid(pr)


def test_mutation_oracles_on_the_smallest_example(root1, ex1):
    _, alg, mods = ex1
    reg = root1.registry
    start = canonical([item_of(root1, mods, "P1"), item_of(root1, mods, "P2")])
    at_p2 = start.index(item_of(root1, mods, "P2"))
    assert mutate(reg, start, at_p2) == canonical(
        [item_of(root1, mods, "P1"), item_of(root1, mods, "S1")])
    at_p1 = start.index(item_of(root1, mods, "P1"))
    assert mutate(reg, start, at_p1) == canonical(
        [item_of(root1, mods, "P2"), item_of(root1, mods, "P1[1]")])


def test_mutation_rejects_partial_objects(root1, ex1):
    _, _, mods = ex1
    with pytest.raises(DomainError):
        mutate(root1.registry, [item_of(root1, mods, "P1")], 0)


def test_mutation_validates_its_input(root3, ex3):
    _, _, mods = ex3
    reg = root3.registry
    p1, p2, s2, s3 = (item_of(root3, mods, name)
                      for name in ("P1", "P2", "S2", "S3"))
    # a repeated summand is not a basic object
    with pytest.raises(DomainError, match="support tau-tilting object"):
        mutate(reg, (p1, p1, p2), 2)
    # S2 + S3 is not tau-rigid
    with pytest.raises(DomainError, match="support tau-tilting object"):
        mutate(reg, (p1, s2, s3), 0)
    for k in (3, -1):
        with pytest.raises(DomainError, match="index"):
            mutate(reg, (p1, p2, s3), k)


def test_mutation_refuses_items_the_registry_does_not_hold(root1):
    # an unknown kind, a negative index, a module id past the registry and
    # a vertex past n are no items; none may be read as another item's bit
    reg = root1.registry
    for obj in [(("m", 0), ("m", 99)), (("m", 0), ("p", 5)),
                (("m", 0), ("x", 1)), (("m", -1), ("p", 0))]:
        for k in (0, 1):
            with pytest.raises(DomainError,
                               match="support tau-tilting object"):
                mutate(reg, obj, k)


@pytest.mark.parametrize("stem", ["root1", "root2", "root3"])
def test_mutation_involution_and_regularity(stem, request):
    root = request.getfixturevalue(stem)
    reg = root.registry
    objset = set(root.stt_objects)
    n = root.gamma.idempotents.shape[0]
    for obj in root.stt_objects:
        neighbors = set()
        for k in range(n):
            other = mutate(reg, obj, k)
            assert other in objset
            fresh = [it for it in other if it not in obj]
            assert len(fresh) == 1
            assert mutate(reg, other, other.index(fresh[0])) == obj
            neighbors.add(other)
        assert len(neighbors) == n


@pytest.mark.parametrize("stem", ["root1", "root2", "root3"])
def test_mutation_answers_in_canonical_order_from_any_order(stem, request):
    # k indexes the summands as given; the partner object comes back sorted
    root = request.getfixturevalue(stem)
    reg = root.registry
    for obj in root.stt_objects:
        back = list(reversed(obj))
        for k in range(len(obj)):
            assert mutate(reg, back, k) == mutate(reg, obj, len(obj) - 1 - k)


@pytest.mark.parametrize("stem", ["root1", "root2", "root3"])
def test_mutation_refuses_any_swap_but_the_two_completions(stem, request):
    # U + z is support tau-tilting only for U's two completions z = x and
    # its partner (AIR Thm 2.18); any other known item is refused at every
    # position, the swapped one included
    root = request.getfixturevalue(stem)
    reg = root.registry
    n = root.gamma.idempotents.shape[0]
    known = [reg.item_at(bit) for bit in range(n + len(reg))]
    for obj in root.stt_objects:
        for k in range(n):
            completions = {obj[k], *mutate(reg, obj, k)} - set(obj[:k]) \
                - set(obj[k + 1 :])
            assert len(completions) == 2
            for z in known:
                if z in completions:
                    continue
                swapped = obj[:k] + (z,) + obj[k + 1 :]
                for j in range(n):
                    with pytest.raises(DomainError,
                                       match="support tau-tilting object"):
                        mutate(reg, swapped, j)


def _check_rows(reg):
    """Every bit of the compatibility matrix against the oracle: the rigid
    items are those compatible with themselves, a row bit between rigid
    items is tau_compatible, rows are symmetric, and the row of an item
    that is not rigid is empty."""
    size = reg.n + len(reg)
    items = [reg.item_at(bit) for bit in range(size)]
    rigid = reg.rigid
    rows = [reg.mask(it) for it in items]
    for i, a in enumerate(items):
        assert bool(rigid >> i & 1) == tau_compatible(reg, a, a), a
        assert rows[i] >> size == 0 and (rows[i] == 0 or rigid >> i & 1)
        for j, b in enumerate(items[:i]):
            assert rows[i] >> j & 1 == rows[j] >> i & 1, (a, b)
            if rigid >> i & rigid >> j & 1:
                assert bool(rows[i] >> j & 1) == tau_compatible(reg, a, b)


def _count_triangles(monkeypatch, alg):
    """Count the exchange sequences mutate runs, per side: each is a left
    approximation, over A on the left side and over A^op on the right."""
    counts, real = {"right": 0, "left": 0}, tautilt.min_left_approx
    op = opposite(alg)

    def counted(x, u_summands):
        counts["right" if x.algebra is op else "left"] += 1
        return real(x, u_summands)

    monkeypatch.setattr(tautilt, "min_left_approx", counted)
    return counts


def _algebra_case(case, request):
    """ex1-3, linear A_n ("A4"), rad^2 = 0 A_n ("rad2-A4"), Dynkin quivers
    ("D4", "E6alt" in the alternating orientation), and the
    Nakayama algebras Lambda_n^ell ("Lambda4" is Lambda_4^4, "Lambda3-4"
    is Lambda_3^4)."""
    if case.startswith("ex"):
        return request.getfixturevalue(case)[1]
    if case.startswith("Lambda"):
        n, _, ell = case[len("Lambda"):].partition("-")
        return parse_algebra(nakayama_text(int(n), int(ell or n)))[1]
    if case[0] in "DE":  # "D4", "E6alt"
        return parse_algebra(dynkin_text(case[0], int(case[1]),
                                         alt=case.endswith("alt")))[1]
    return parse_algebra(linear_quiver_text(int(case[-1]),
                                            case.startswith("rad2-")))[1]


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3", "A4", "rad2-A4"])
def test_exchange_triangle_finds_every_partner(case, request, monkeypatch):
    # a registry holding only the object's own modules leaves every module
    # partner unknown, so each one is found by a triangle, on both sides,
    # but a projective right partner P_v: over A^op it is P_v[1], an item
    # of every core, so the lookup there finds it
    alg = _algebra_case(case, request)
    n = alg.idempotents.shape[0]
    objs, full = enumerate_support_tau_tilting(alg)
    projs = {full.proj_id(v) for v in range(n)}
    counts = _count_triangles(monkeypatch, alg)
    module_partners = dual_shifts = 0
    for obj in objs:
        for k in range(n):
            want = [it for it in mutate(full, obj, k) if it not in obj]
            bare = Registry(alg)
            own = [("m", bare.add(full.module(v))) if kind == "m"
                   else (kind, v) for kind, v in obj]
            got = [it for it in mutate(bare, own, k) if it not in own]
            assert len(want) == len(got) == 1
            # the discovering call folds its new module in before returning
            assert len(bare._rows) == n + len(bare)
            _check_rows(bare)
            (wk, wv), (gk, gv) = want[0], got[0]
            assert wk == gk, (obj, k)
            if wk == "m":
                module_partners += 1
                dual_shifts += wv in projs and not (
                    full.g_signs(obj)[0] & full.bits([obj[k]]))
                assert is_iso(full.module(wv), bare.module(gv)), (obj, k)
            else:
                assert wv == gv, (obj, k)
    assert counts["right"] > 0 and counts["left"] > 0
    assert counts["right"] + counts["left"] + dual_shifts == module_partners


@pytest.mark.parametrize("case,triangles", [("A4", 6), ("rad2-A4", 3)])
def test_enumeration_runs_triangles_only_to_discover_items(
        case, triangles, request, monkeypatch):
    alg = _algebra_case(case, request)
    counts = _count_triangles(monkeypatch, alg)
    _, reg = enumerate_support_tau_tilting(alg)
    assert counts["right"] + counts["left"] == triangles
    assert triangles == len(reg) - alg.idempotents.shape[0]


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3", "A3", "A4",
                                  "rad2-A4", "Lambda4"])
def test_left_exchange_by_cokernel_matches_the_triangle(case, request):
    # with a bare registry every module partner of a left mutation (x a
    # module outside Fac U) is discovered as a cokernel; the K^b cone of
    # the minimal left add(U)-approximation of x is the same partner
    alg = _algebra_case(case, request)
    objs, full = enumerate_support_tau_tilting(alg)
    module_partners = 0
    for obj in objs:
        for k, x in enumerate(obj):
            others = obj[:k] + obj[k + 1 :]
            u_mods = [full.module(v) for kind, v in others if kind == "m"]
            if x[0] == "p" or in_gen(direct_sum(alg, u_mods)[0],
                                     full.module(x[1])):
                continue
            bare = Registry(alg)
            own = [("m", bare.add(full.module(v))) if kind == "m"
                   else (kind, v) for kind, v in obj]
            (kind, v), = [it for it in mutate(bare, own, k) if it not in own]
            xc = item_cx(full, x)
            tgt, cmap, _ = cxs.min_left_approx_K(
                xc, [item_cx(full, it) for it in others])
            mod, shifted = cx_to_pair(reduce_cx(cone(xc, tgt, cmap)))
            if kind == "m":
                module_partners += 1
                assert shifted == [] and is_iso(mod, bare.module(v)), (obj, k)
            else:
                assert mod.dim == 0 and shifted == [v], (obj, k)
    assert module_partners > 0


DUALITY_CASES = ["ex1", "ex2", "ex3", "A3", "A4", "A5", "rad2-A4", "rad2-A5",
                 "rad2-A6", "Lambda4", "Lambda3-5", "D5alt", "E6alt"]


@pytest.mark.parametrize("case", DUALITY_CASES)
def test_dagger_is_a_g_negating_bijection_onto_the_opposite(case, request):
    # AIR Thm 2.14: † is a bijection from the objects over A onto those over
    # A^op with g(x†) = -g(x), and †† = 1 as Tr Tr X = X; and tau X is
    # D Tr X, a second route to tau
    alg = _algebra_case(case, request)
    objs, full = enumerate_support_tau_tilting(alg)
    objs_op, op = enumerate_support_tau_tilting(opposite(alg))
    assert opposite(opposite(alg)) is alg and len(objs_op) == len(objs)
    assert {canonical(full.dagger(it, op) for it in obj)
            for obj in objs} == set(objs_op)
    op._dagger.clear()  # so op.dagger computes Tr over A^op, not the memo
    for it in sorted({it for obj in objs for it in obj}):
        dual = full.dagger(it, op)
        assert op.g_vector(dual) == [-c for c in full.g_vector(it)], it
        assert op.dagger(dual, full) == it
    for i in range(len(full)):
        m = full.module(i)
        t, dt = tau(m), tau_by_transpose(m)
        assert t.dim == dt.dim and (t.dim == 0 or is_iso(t, dt)), i


# (right-side pairs compared with the lookup, how many of them also with
# the K^b triangle): every pair, or a seeded sample (D5 alt has 455 and E6
# alt 2,499); the triangle takes about 8 ms a pair on D5 alt, and 0.02 to
# 1.1 s on E6 alt
RIGHT_SAMPLES = {"ex1": (None, None), "ex2": (None, None),
                 "ex3": (None, None), "A4": (None, None),
                 "Lambda4": (None, None), "Lambda3-5": (None, None),
                 "D5alt": (60, 20), "E6alt": (30, 1)}


@pytest.mark.parametrize("case", sorted(RIGHT_SAMPLES))
def test_right_exchange_over_the_opposite_matches_the_triangle(case,
                                                               request):
    # with a bare registry every right-side partner (g(A) not positive at
    # x) is discovered over A^op; it is the full registry's partner and
    # H^0 of the K^b cocone on x's minimal right add(U)-approximation
    alg = _algebra_case(case, request)
    objs, full = enumerate_support_tau_tilting(alg)
    pairs = [(obj, k) for obj in objs for k, x in enumerate(obj)
             if not full.g_signs(obj)[0] & full.bits([x])]
    sample, triangles = RIGHT_SAMPLES[case]
    if sample:
        pairs = random.Random(11).sample(pairs, sample)
    for i, (obj, k) in enumerate(pairs):
        (wk, wv), = [it for it in mutate(full, obj, k) if it not in obj]
        bare = Registry(alg)
        own = [("m", bare.add(full.module(v))) if kind == "m"
               else (kind, v) for kind, v in obj]
        (gk, gv), = [it for it in mutate(bare, own, k) if it not in own]
        assert wk == gk == "m", (obj, k)
        assert is_iso(bare.module(gv), full.module(wv)), (obj, k)
        if triangles is None or i < triangles:
            mod, shifted = cx_to_pair(right_cocone(full, obj, k))
            assert shifted == [] and is_iso(mod, full.module(wv)), (obj, k)
    assert pairs


def _flip_opposite_signs(monkeypatch):
    """Make each registry that `Registry.opposite` builds read g(A)'s signs
    the other way round, so that x† reads on the right side there."""
    real = Registry.opposite

    def flipped(reg):
        built, op = reg._op is None, real(reg)
        if built:
            op.g_signs = lambda obj: tautilt.Core.g_signs(op, obj)[::-1]
        return op

    monkeypatch.setattr(Registry, "opposite", flipped)


def test_a_dual_exchange_on_the_right_is_refused(ex3, monkeypatch, capsys,
                                                 tmp_path):
    # x† reads on the left over A^op; if it did not, discovery would bounce
    # between A and A^op, so it stops with a DomainError (exit 2).  The
    # partner is not projective, so A^op's lookup cannot find it as a shift
    _, alg, _ = ex3
    objs, full = enumerate_support_tau_tilting(alg)
    projs = {("m", full.proj_id(v)) for v in range(full.n)}
    obj, k = next((obj, k) for obj in objs for k, x in enumerate(obj)
                  if not full.g_signs(obj)[0] & full.bits([x])
                  and not set(mutate(full, obj, k)) - set(obj) <= projs)
    _flip_opposite_signs(monkeypatch)
    bare = Registry(alg)
    own = [("m", bare.add(full.module(v))) if kind == "m" else (kind, v)
           for kind, v in obj]
    with pytest.raises(DomainError, match="not a left mutation"):
        mutate(bare, own, k)
    path = tmp_path / "e6alt.alg"
    path.write_text(dynkin_text("E", 6, alt=True))
    assert cli.main(["indec-tau-rigid", "--algebra", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: the dual exchange is not a left mutation\n")


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3", "A3", "A4", "A5",
                                  "rad2-A4", "rad2-A5", "Lambda4",
                                  "Lambda3-4", "Lambda2-3", "D4"])
def test_approximation_radical_matches_the_end_algebra(case, request,
                                                       monkeypatch):
    # every left approximation that enumeration and the correspondence of
    # each registry module ask for: rad End(+ U) from the blocks spans the
    # End algebra's radical, and the approximation is the End route's; the
    # right approximation of x by the same U, D of a left one over A^op,
    # uses the End route's summands, and alpha's image is the trace of U
    alg = _algebra_case(case, request)
    p = alg.p
    calls, real = [], tautilt.min_left_approx

    def recording(x, u_summands):
        calls.append((x, list(u_summands)))
        return real(x, u_summands)

    monkeypatch.setattr(tautilt, "min_left_approx", recording)
    _, reg = enumerate_support_tau_tilting(alg)
    for i in range(len(reg)):
        complement_correspondence(reg, reg.module(i))
    seen, local_radicals = set(), 0
    for x, us in calls:
        if (key := (id(x),) + tuple(map(id, us))) in seen:
            continue
        seen.add(key)
        total, embs, prs = direct_sum(alg, us)
        width = total.dim * total.dim
        block = modules._sum_radical(us, embs, prs).reshape(-1, width)
        want = end_radical_mats(us).reshape(-1, width)
        assert np.array_equal(linalg.row_space(block, p),
                              linalg.row_space(want, p)), (case, key)
        local_radicals += sum(len(modules._end_radical(u)) > 0 for u in us)
        tgt, beta, used = real(x, us)
        tgt2, beta2, used2 = min_approx_by_end(x, us, right=False)
        assert np.array_equal(tgt.action, tgt2.action)
        assert np.array_equal(beta.matrix, beta2.matrix) and used == used2
        src, alpha, used = min_right_approx(us, x)
        src2, _, used2 = min_approx_by_end(x, us, right=True)
        assert used == used2 and is_iso(src, src2), (case, key)
        assert np.array_equal(linalg.row_space(alpha.matrix.T, p),
                              linalg.row_space(trace_rows(total, x), p))
    assert seen
    # the projectives of Lambda_3^4 and Lambda_2^3 have End of dimension
    # 2, local with a nonzero radical
    assert local_radicals > 0 or case not in ("Lambda3-4", "Lambda2-3")


def test_cached_hom_bases_are_fresh_hom_bases(ex2, ex3, monkeypatch,
                                             capsys):
    """Each Hom basis cached while enumerating E6 alt, building every child
    of ex3's root, running psi then phi over every ordered object of ex2,
    and the reduce, correspond and paper-example 3 commands, is the basis
    solved afresh on copies of both modules, both as stored and as a
    cache hit returns it."""
    made, init = [], FdModule.__init__

    def recording(self, *args, **kw):
        init(self, *args, **kw)
        made.append(self)

    monkeypatch.setattr(FdModule, "__init__", recording)
    enumerate_support_tau_tilting(
        parse_algebra(dynkin_text("E", 6, alt=True))[1])
    root = root_context(ex3[1])
    for item in root.level_items:
        root.child(item)
    root = root_context(ex2[1])
    for t in range(1, root.gamma.idempotents.shape[0] + 1):
        for tup in enumerate_ordered(root, t):
            assert phi(root, psi(root, tup).root_pairs()) == tup
    ex = [str(FIXDIR / f"ex{k}.{ext}") for k in (2, 3)
          for ext in ("alg", "mods")]
    for argv in (["reduce", "--algebra", ex[2], "--fixtures", ex[3],
                  "--object", "M"],
                 ["correspond", "--algebra", ex[0], "--fixtures", ex[1],
                  "--module", "S1"],
                 ["paper-example", "3"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    monkeypatch.undo()
    cached = [(m, n, homs) for m in made for n, homs in m._homs.items()]
    assert sum(len(homs) > 0 for _, _, homs in cached) > 100
    for m, n, homs in cached:
        want = hom_basis(FdModule(m.algebra, m.action),
                         FdModule(n.algebra, n.action))
        for got in (homs, hom_basis(m, n)):  # as stored, and as a hit reads
            assert len(got) == len(want)
            assert all(np.array_equal(g, h) for g, h in zip(got, want))


class _SmallModules(Registry):
    """A registry that splits no module of dimension above 16.  Modules of
    the tau-tilting infinite quivers drawn (a Kronecker subquiver, say)
    grow without bound, several times over per mutation for parallel
    arrows, so such draws are skipped before they grow large."""

    def summands(self, m):
        assume(m.dim <= 16)
        return super().summands(m)


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3", "A4", "rad2-A5",
                                  "D4", "E6alt"])
def test_compatibility_rows_match_the_oracle(case, request):
    _check_rows(enumerate_support_tau_tilting(_algebra_case(case, request))[1])


def test_modules_registered_after_a_fold_get_current_rows(ex3):
    # ex3's fixtures hold modules enumeration never meets, some of them not
    # tau-rigid, and a direct sum, whose row stays empty
    _, alg, mods = ex3
    _, reg = enumerate_support_tau_tilting(alg)
    _check_rows(reg)
    known = len(reg)
    for name, m in mods.items():
        reg.ensure(m, name=name)
    u = reg.ensure(direct_sum(alg, proj_list(alg)[:2])[0], name="U")
    assert len(reg) > known + 1 and reg.mask(("m", u)) == 0
    _check_rows(reg)


@pytest.mark.parametrize("case", ["ex3", "A4", "rad2-A5", "D4"])
def test_enumeration_asks_each_hom_to_tau_pair_once(case, request,
                                                     monkeypatch):
    alg = _algebra_case(case, request)
    calls, real = [], cxs.hom_to_tau

    def counting(y, x):
        calls.append((y, x))  # held, so no id is reused
        return real(y, x)

    monkeypatch.setattr(cxs, "hom_to_tau", counting)
    enumerate_support_tau_tilting(alg)
    assert calls
    assert len({(id(y), id(x)) for y, x in calls}) == len(calls)


def test_summand_records_do_not_keep_modules_alive(ex3):
    # a split module is recorded weakly: once dropped, it is collected
    _, alg, _ = ex3
    reg = Registry(alg)
    m = direct_sum(alg, proj_list(alg)[:2])[0]
    ref = weakref.ref(m)
    assert len(reg.summands(m)) == 2 and reg.summands(m) is reg._split[m]
    del m
    gc.collect()
    assert ref() is None and len(reg._split) == len(reg)


@pytest.mark.parametrize("named_sum", [False, True])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(case=monomial_quiver_texts(), data=st.data())
def test_mask_lookup_matches_the_scan(named_sum, case, data):
    # with the registry complete, every mutation is a lookup; the masks
    # pick what the pairwise scan picks, and a named direct sum, which is
    # compatible with its own summands, is never taken
    alg = parse_algebra(case[0])[1]
    n = alg.idempotents.shape[0]
    reg = _SmallModules(alg)
    if named_sum:
        assume(n >= 2)
        reg.ensure(direct_sum(alg, proj_list(alg)[:2])[0], name="U")
    try:
        objs, _ = enumerate_support_tau_tilting(alg, cap=60, registry=reg)
    except CapExceededError:
        assume(False)
    _check_rows(reg)
    for obj in objs:
        for k in range(n):
            y = scan_partner(reg, obj, k)
            assert y is not None
            assert mutate(reg, obj, k) == canonical(obj[:k] + obj[k + 1 :]
                                                    + (y,))
    items = [("m", i) for i in range(len(reg))] + \
        [("p", v) for v in range(n)]
    for _ in range(20):
        sub = data.draw(st.lists(st.sampled_from(items), max_size=n + 1,
                                 unique=True))
        assert _items_support_tau_rigid(reg, sub) == \
            scan_support_tau_rigid(reg, sub)


@pytest.mark.parametrize("case", [
    "ex1", "ex2", "ex3", "A3", "A4", "rad2-A3", "rad2-A4", "rad2-A5",
    "Lambda4", "Lambda5-3", "D4", "ex3-contexts", "A3-contexts"])
def test_completion_masks_match_the_scan(case, request):
    # the walk against the scan over every object, for every subset S of
    # every object, both ends of its interval; "-contexts" does it in every
    # context below the root too, over context_objects
    name, _, below = case.partition("-contexts")
    root = root_context(_algebra_case(name, request))
    contexts, layer = [root], [root]
    for _ in range(root.registry.n - 1 if below else 0):
        layer = [ctx.child(y) for ctx in layer for y in ctx.level_items]
        contexts += layer
    for ctx in contexts:
        reg, objs = ctx.registry, context_objects(ctx)
        index = objects_by_item(objs)
        sets = {frozenset(sub) for obj in objs for r in range(len(obj) + 1)
                for sub in itertools.combinations(obj, r)}
        for s in sorted(sets, key=sorted):
            for top in (True, False):
                assert completion(reg, s, top) == \
                    scan_completion(reg, index, s, top), (s, top)


def test_completion_walk_matches_the_scan_on_sampled_sets(request):
    # E6 alt: 2,000 seeded subsets S of random objects, both ends
    objs, reg = enumerate_support_tau_tilting(_algebra_case("E6alt", request))
    index = objects_by_item(objs)
    rng = random.Random(37)
    for _ in range(2000):
        obj = rng.choice(objs)
        s = frozenset(rng.sample(obj, rng.randrange(len(obj) + 1)))
        for top in (True, False):
            assert completion(reg, s, top) == \
                scan_completion(reg, index, s, top), (s, top)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(case=monomial_quiver_texts(), data=st.data())
def test_completion_walk_matches_the_scan_on_drawn_quivers(case, data):
    # both ends of the interval of drawn subsets S of drawn objects
    alg = parse_algebra(case[0])[1]
    try:
        objs, reg = enumerate_support_tau_tilting(
            alg, cap=60, registry=_SmallModules(alg))
    except CapExceededError:
        assume(False)
    index = objects_by_item(objs)
    for _ in range(10):
        obj = data.draw(st.sampled_from(objs))
        s = frozenset(data.draw(st.lists(st.sampled_from(obj), unique=True)))
        for top in (True, False):
            assert completion(reg, s, top) == \
                scan_completion(reg, index, s, top), (s, top)


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3", "A4", "rad2-A5",
                                  "Lambda4", "D5alt", "E6", "E6alt"])
def test_exchange_side_is_the_sign_of_g_a(case, request):
    # at every (object, k), the exchange of summand x of T = x + U is a left
    # mutation (x a module outside Fac U) exactly when g(A) has a positive
    # coordinate at x in the g-basis of T: the side Registry.discover reads
    alg = _algebra_case(case, request)
    objs, reg = enumerate_support_tau_tilting(alg)
    for obj in objs:
        positive = reg.g_signs(obj)[0]
        for k, x in enumerate(obj):
            u_mods = [reg.module(v) for kind, v in obj[:k] + obj[k + 1 :]
                      if kind == "m"]
            left = x[0] == "m" and not in_gen(
                direct_sum(alg, u_mods)[0], reg.module(x[1]))
            assert bool(positive & reg.bits([x])) == left, (obj, k)


def test_decomposable_registry_entries_are_never_summands(ex1, ex3):
    # a named direct sum such as P1 + P2 is compatible with its own
    # summands, so a scan that took it would return a non-basic object
    def names(r, objects):
        return sorted(tuple(r.display_item(it) for it in obj)
                      for obj in objects)

    for _, alg, _ in (ex1, ex3):
        objs, plain = enumerate_support_tau_tilting(alg)
        reg = Registry(alg)
        u, _, _ = direct_sum(alg, proj_list(alg)[:2])
        assert reg.ensure(u, name="U") == 0
        got, reg = enumerate_support_tau_tilting(alg, registry=reg)
        assert names(reg, got) == names(plain, objs)
        assert reg.names[1:] == plain.names
        for m in [u] + plain.mods:
            c_ids, q = cobongartz(reg, m)
            assert [c - 1 for c in c_ids] == cobongartz(plain, m)[0]
            assert q == cobongartz(plain, m)[1]


@pytest.mark.parametrize("stem", ["root1", "root2", "root3"])
def test_object_complexes_are_silting_rigid(stem, request):
    root = request.getfixturevalue(stem)
    for items in root.stt_objects:
        total = object_cx(root.registry, items)
        assert hom_K_dim(total, total, 1) == 0


def _has_projective_summand(alg, m):
    if m.dim == 0:
        return False
    projs = proj_list(alg)
    return any(any(is_iso(piece, pr) for pr in projs)
               for piece, _ in decompose_grouped(m))


@pytest.mark.parametrize("stem", ["root1", "root2", "root3"])
def test_shifted_parts_leave_projective_kernel_summands(stem, request):
    root = request.getfixturevalue(stem)
    for items in root.stt_objects:
        if all(kind == "m" for kind, _ in items):
            continue
        hm = hminus1(object_cx(root.registry, items))
        assert _has_projective_summand(root.gamma, hm)


def test_hereditary_case_kernel_free_iff_tilting(root1):
    # with no relations a minimal presentation is injective in degree -1,
    # so projective kernel summands appear exactly with the shifted parts
    for items in root1.stt_objects:
        hm = hminus1(object_cx(root1.registry, items))
        full = all(kind == "m" for kind, _ in items)
        assert full == (not _has_projective_summand(root1.gamma, hm))


def test_presentation_kernels_can_be_projective(root2, root3, ex2, ex3):
    # relations make kernels of minimal presentations projective without
    # forcing a shifted part: S1 + P1 is tau-tilting over ex2 although
    # H^{-1} of its complex is rad P2, which is isomorphic to P1
    _, alg2, mods2 = ex2
    obj = canonical([item_of(root2, mods2, "S1"), item_of(root2, mods2, "P1")])
    assert obj in set(root2.stt_objects)
    hm = hminus1(object_cx(root2.registry, obj))
    assert is_iso(hm, mods2["P1"])
    # same shape over ex3: ker(pres M) is S3 = P3 (vertex 3 is a sink)
    _, alg3, mods3 = ex3
    hm3 = hminus1(object_cx(root3.registry, canonical(
        [item_of(root3, mods3, n) for n in ("P1", "M", "I2")])))
    assert is_iso(hm3, mods3["S3"])
    assert _has_projective_summand(alg3, hm3)


@pytest.mark.parametrize(
    "rootname,exname", [("root1", "ex1"), ("root3", "ex3")])
def test_gen_of_bongartz_completion_is_perp_tau(rootname, exname, request):
    root = request.getfixturevalue(rootname)
    _, alg, mods = request.getfixturevalue(exname)
    reg = root.registry
    for un, u in _rigid_fixture_mods(mods).items():
        b = [reg.module(i) for i in bongartz(reg, u)]
        total, _, _ = direct_sum(alg, [u] + b)
        tu = tau(u)
        for xn, x in mods.items():
            assert in_gen(total, x) == (hom_dim(x, tu) == 0), (un, xn)


@pytest.mark.parametrize(
    "rootname,exname", [("root1", "ex1"), ("root3", "ex3")])
def test_ext_projectives_of_gen_u_match_cobongartz(rootname, exname, request):
    root = request.getfixturevalue(rootname)
    _, alg, mods = request.getfixturevalue(exname)
    reg = root.registry
    for un, u in _rigid_fixture_mods(mods).items():
        c_ids, _ = cobongartz(reg, u)
        expected = {reg.name(c) for c in c_ids} | {un}
        got = set()
        for xn, x in mods.items():
            if not in_gen(u, x):
                continue
            both, _, _ = direct_sum(alg, [x, u])
            if hom_dim(both, tau(both)) == 0:
                got.add(xn)
        assert got == expected, un


def test_cobongartz_oracles(root1, ex1):
    _, alg, mods = ex1
    reg = root1.registry
    c_ids, q = cobongartz(reg, mods["P1"])
    assert [reg.name(c) for c in c_ids] == ["S1"] and q == []
    c_ids, q = cobongartz(reg, mods["P2"])
    assert c_ids == [] and q == [0]
    c_ids, q = cobongartz(reg, mods["S1"])
    assert c_ids == [] and q == [1]
    lam, _, _ = direct_sum(alg, list(proj_list(alg)))
    c_ids, q = cobongartz(reg, lam)
    assert c_ids == [] and q == []
    assert bongartz(reg, lam) == [] == triangle_bongartz(reg, lam)
    assert complement_correspondence(reg, lam) == ([], [])


def test_cobongartz_rejects_non_rigid_input(root2, ex2):
    _, _, mods = ex2
    with pytest.raises(DomainError):
        cobongartz(root2.registry, mods["I1"])


def test_bongartz_oracles(root1, root3, ex1, ex3):
    _, _, mods1 = ex1
    reg1 = root1.registry
    for un, bn in (("P1", "P2"), ("P2", "P1"), ("S1", "P1")):
        b_ids = bongartz(reg1, mods1[un])
        assert len(b_ids) == 1 and is_iso(reg1.module(b_ids[0]), mods1[bn])
        assert b_ids == triangle_bongartz(reg1, mods1[un])
    _, _, mods3 = ex3
    reg3 = root3.registry
    b_ids = bongartz(reg3, mods3["S2"])
    assert {reg3.name(i) for i in b_ids} == {"N", "P2"}
    assert b_ids == sorted(triangle_bongartz(reg3, mods3["S2"]))


@pytest.mark.parametrize(
    "rootname,exname", [("root1", "ex1"), ("root3", "ex3")])
def test_bongartz_completion_is_tau_tilting(rootname, exname, request):
    root = request.getfixturevalue(rootname)
    _, alg, mods = request.getfixturevalue(exname)
    n = alg.idempotents.shape[0]
    reg = root.registry
    for un, u in _rigid_fixture_mods(mods).items():
        b = [reg.module(i) for i in bongartz(reg, u)]
        total, _, _ = direct_sum(alg, [u] + b)
        assert hom_dim(total, tau(total)) == 0, un
        count = sum(mult for _, mult in decompose_grouped(total))
        assert count == n, un


def _rigid_sets(objs):
    """Every nonempty proper subset of a support tau-tilting object."""
    return {frozenset(sub) for obj in objs
            for t in range(1, len(obj)) for sub in itertools.combinations(obj, t)}


def test_integer_inverse_is_exact_or_refuses():
    # the F_p inverse of diag(2, 1) lifts to diag(-16001, 1), which is no
    # inverse over Z; a singular matrix has no F_p inverse at all
    for rows in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 0], [0, 0]]):
        with pytest.raises(DomainError, match="not a basis"):
            tautilt._integer_inverse(rows)
    g = [[1, 1, 0], [0, 1, 1], [2, 3, 2]]
    inv = tautilt._integer_inverse(g)
    assert inv.tolist() == [[-1, -2, 1], [2, 2, -1], [-2, -1, 1]]


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3", "D4"])
def test_g_coords_are_ints(case, request):
    # the g-matrix of every object is unimodular, so coordinates in its
    # basis are plain ints: the summands' own g-vectors give the unit rows
    alg = _algebra_case(case, request)
    _, objs, reg = indec_tau_rigid_items(alg)
    n = alg.idempotents.shape[0]
    for obj in objs:
        for vec in [reg.g_vector(it) for it in obj] + [[1] * n, [-3] * n]:
            assert all(type(c) is int for c in reg.g_coords(obj, vec))
        assert [reg.g_coords(obj, reg.g_vector(it)) for it in obj] == \
            np.eye(n, dtype=int).tolist()


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3", "A3", "A4",
                                  "rad2-A3", "rad2-A4"])
def test_g_vectors_are_distinct_and_unimodular(case, request):
    # g(M) = [P^0] - [P^-1], g(P_v[1]) = -e_v: distinct on the items, and
    # a basis of Z^n with integral inverse (|det| = 1) on every object
    alg = _algebra_case(case, request)
    items, objs, reg = indec_tau_rigid_items(alg)
    assert len({tuple(reg.g_vector(it)) for it in items}) == len(items)
    n = alg.idempotents.shape[0]
    for obj in objs:
        for v in range(n):
            e_v = [int(w == v) for w in range(n)]
            coords = reg.g_coords(obj, e_v)
            assert all(c.denominator == 1 for c in coords)
            back = [sum(c * g[w] for c, g in zip(
                coords, (reg.g_vector(it) for it in obj))) for w in range(n)]
            assert back == e_v
    for kind, v in items:
        if kind == "p":
            assert reg.g_vector(("p", v)) == [-int(w == v) for w in range(n)]
        elif any(is_iso(reg.module(v), p) for p in proj_list(alg)):
            assert sorted(reg.g_vector(("m", v))) == [0] * (n - 1) + [1]


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3", "A4", "rad2-A5",
                                  "Lambda4", "Lambda4-2", "D4", "E6-alt"])
def test_g_vector_cones_tile_space_once(case, request):
    alg = parse_algebra(dynkin_text("E", 6, alt=True))[1] \
        if case == "E6-alt" else _algebra_case(case, request)
    objs, reg = enumerate_support_tau_tilting(alg)
    g_fan_check(reg, objs)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(case=monomial_quiver_texts())
def test_g_vector_cones_tile_space_once_on_drawn_quivers(case):
    # draws that pass 300 objects, or grow a module past dimension 16
    # (_SmallModules), are tau-tilting infinite or too large and skipped
    alg = parse_algebra(case[0])[1]
    try:
        objs, reg = enumerate_support_tau_tilting(alg, cap=300,
                                                  registry=_SmallModules(alg))
    except CapExceededError:
        assume(False)
    g_fan_check(reg, objs)


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3", "A3", "A4",
                                  "rad2-A3", "rad2-A4"])
def test_bongartz_completion_by_g_vectors_matches_the_triangle(
        case, request):
    # B(S) read off g-vectors contains S and is support tau-tilting; for a
    # module-only S its summands outside S are those of the Bongartz
    # complement that the K^b triangle builds
    alg = _algebra_case(case, request)
    _, objs, reg = indec_tau_rigid_items(alg)
    modules_only = 0
    for s in _rigid_sets(objs):
        b_obj = completion(reg, s)
        assert b_obj in objs and s <= set(b_obj)
        if all(kind == "m" for kind, _ in s):
            u, _, _ = direct_sum(alg, [reg.module(v) for _, v in s])
            want = {("m", i) for i in triangle_bongartz(reg, u)}
            assert set(b_obj) - s == want - s
            modules_only += 1
    assert modules_only > 0
    # a set of 2..n items that is not support tau-rigid, such as a pair of
    # incompatible items, has no completion at either end; a pair is also
    # refused by the clique size or a singular g-matrix, but some sets of
    # n items are refused only by the rigidity check
    items = [reg.item_at(bit) for bit in range(reg.n + len(reg))]
    for t in range(2, reg.n + 1):
        for s in itertools.combinations(items, t):
            if not scan_support_tau_rigid(reg, s):
                for top in (True, False):
                    with pytest.raises(DomainError):
                        completion(reg, set(s), top)


def test_correspondence_splits_nothing_but_u(ex3, monkeypatch):
    # past enumeration, correspond reads both completions and the pairing
    # off g-vectors: on every module item u it splits no module but u, and
    # the registry records no new split
    _, alg, mods = ex3
    root = root_context(alg)
    reg = root.registry
    split, real_split = [], tautilt.decompose

    def decompose(m):
        split.append(m)
        return real_split(m)

    monkeypatch.setattr(tautilt, "decompose", decompose)
    before = set(reg._split)
    calls = 0
    for kind, v in root.level_items:
        if kind == "m":
            u = reg.module(v)
            complement_correspondence(reg, u)
            assert all(m is u for m in split)
            split.clear()
            calls += 1
    assert calls == 8
    assert set(reg._split) - before <= set(reg.mods)


def test_correspondence_oracles(root1, root3, ex1, ex3):
    _, _, mods1 = ex1
    reg1 = root1.registry
    _, recs = complement_correspondence(reg1, mods1["P1"])
    assert len(recs) == 1
    assert recs[0]["case"] == "a"
    assert reg1.name(recs[0]["b"]) == "P2"
    assert reg1.display_item(recs[0]["partner"]) == "S1"
    assert is_iso(recs[0]["middle"], mods1["P1"])
    _, recs = complement_correspondence(reg1, mods1["S1"])
    assert len(recs) == 1
    assert recs[0]["case"] == "b"
    assert reg1.name(recs[0]["b"]) == "P1"
    assert recs[0]["partner"] == ("p", 1)
    assert is_iso(recs[0]["middle"], mods1["S1"])
    _, _, mods3 = ex3
    reg3 = root3.registry
    _, recs = complement_correspondence(reg3, mods3["S2"])
    pairing = {r["partner"]: reg3.name(r["b"]) for r in recs}
    assert pairing == {("p", 0): "N", ("p", 2): "P2"}
    for r in recs:
        assert r["case"] == "b"
        assert is_iso(r["middle"], mods3["S2"])


@pytest.mark.parametrize(
    "rootname,exname", [("root1", "ex1"), ("root2", "ex2"), ("root3", "ex3")])
def test_correspondence_middles_lie_in_add_u(rootname, exname, request):
    root = request.getfixturevalue(rootname)
    _, alg, mods = request.getfixturevalue(exname)
    reg = root.registry
    for un, u in _rigid_fixture_mods(mods).items():
        u_pieces = [piece for piece, _ in decompose_grouped(u)]
        for rec in complement_correspondence(reg, u)[1]:
            mid = rec["middle"]
            if mid.dim == 0:
                continue
            for piece, _ in decompose_grouped(mid):
                assert any(is_iso(piece, up) for up in u_pieces), un


@pytest.mark.parametrize(
    "rootname,exname", [("root1", "ex1"), ("root3", "ex3")])
def test_right_approx_kernels_avoid_tau_u(rootname, exname, request):
    root = request.getfixturevalue(rootname)
    _, alg, mods = request.getfixturevalue(exname)
    for un, u in _rigid_fixture_mods(mods).items():
        tu = tau(u)
        for xn, x in mods.items():
            src, alpha, _ = min_right_approx([u], x)
            if src.dim == 0:
                continue
            ker, _ = submodule(src, alpha.kernel_rows())
            if ker.dim:
                assert hom_dim(ker, tu) == 0, (un, xn)


def _factors_through(alg, f, beta, tgt, v):
    """f: src(beta) -> v factors as g . beta for some g: tgt -> v."""
    p = alg.p
    gs = hom_basis(tgt, v)
    rows = [((g @ beta.matrix) % p).reshape(-1) for g in gs]
    if not rows:
        return not np.any(f)
    solver = linalg.SpanSolver(np.array(rows), p)
    return solver.coords(f.reshape(-1) % p) is not None


@pytest.mark.parametrize(
    "rootname,exname", [("root1", "ex1"), ("root3", "ex3")])
def test_case_a_approximations_cover_gen_u(rootname, exname, request):
    # maps from a Bongartz summand into Gen u factor through the minimal
    # left add(u)-approximation
    root = request.getfixturevalue(rootname)
    _, alg, mods = request.getfixturevalue(exname)
    reg = root.registry
    for un, u in _rigid_fixture_mods(mods).items():
        u_pieces = [piece for piece, _ in decompose_grouped(u)]
        for rec in complement_correspondence(reg, u)[1]:
            if rec["case"] != "a":
                continue
            bi = reg.module(rec["b"])
            tgt, beta, _ = min_left_approx(bi, u_pieces)
            for vn, v in mods.items():
                if not in_gen(u, v):
                    continue
                for f in hom_basis(bi, v):
                    assert _factors_through(alg, f, beta, tgt, v), (un, vn)


@pytest.mark.parametrize(
    "rootname,exname", [("root1", "ex1"), ("root3", "ex3")])
def test_bongartz_summands_are_split_projective(rootname, exname, request):
    root = request.getfixturevalue(rootname)
    _, alg, mods = request.getfixturevalue(exname)
    reg = root.registry
    for un, u in _rigid_fixture_mods(mods).items():
        tu = tau(u)
        for bi in map(reg.module, bongartz(reg, u)):
            for yn, y in mods.items():
                if hom_dim(y, tu) != 0 or not in_gen(y, bi):
                    continue
                assert any(is_iso(piece, bi)
                           for piece, _ in decompose_grouped(y)), (un, yn)


def _end_k_local_rank(parts):
    data, _ = end_K(parts)
    rad = data.struct.radical_rows()
    rk = linalg.rank(np.array(rad), data.struct.p) if len(rad) else 0
    return data.struct.dim - rk


def test_presentation_complexes_inherit_indecomposability(ex3):
    _, alg, mods = ex3
    for m in mods.values():
        assert _end_k_local_rank([min_presentation(m)]) == 1
    assert _end_k_local_rank([min_presentation(mods["P1"]),
                              min_presentation(mods["P2"])]) == 2


def test_enumeration_cap_flags_infinite_type():
    text = """field 32003
vertex 1
vertex 2
arrow a 1 2
arrow b 1 2
"""
    _, kron = parse_algebra(text)
    with pytest.raises(CapExceededError):
        enumerate_support_tau_tilting(kron, cap=12)


def _pell(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, 2 * b + a
    return a


@pytest.mark.parametrize("kind,n", [("A", n) for n in range(2, 6)] +
                         [("rad2-A", n) for n in range(2, 7)] +
                         [("Lambda", n) for n in range(2, 5)] +
                         [(d, n) for n in (4, 5, 6) for d in ("D", "D-alt")] +
                         [("E", 6), ("E-alt", 6)])
def test_counts_match_closed_forms(kind, n):
    """Support tau-tilting objects and their items against closed forms:
    type-A clusters, Pell numbers, C(2n, n) for the self-injective
    Nakayama algebra Lambda_n^n (Adachi), and for the hereditary D_n and
    E_6 the cluster counts (3n - 2)/n C(2n - 2, n - 1) and 833 (Fomin-
    Zelevinsky), with the n(n - 1) and 36 positive roots and n shifts as
    items, in either orientation.  The items of Lambda_n^n are
    its n^2 indecomposables and n shifts: an indecomposable is a uniserial
    M = [i, i + k - 1] with k <= n, projective when k = n, and otherwise
    tau M = [i + 1, i + k]; the image of a nonzero M -> tau M would be a
    quotient [i, i + j - 1] of M and a submodule of tau M, so i = i + k -
    j + 1 mod n, impossible for 1 <= j <= k < n."""
    if kind == "Lambda":
        text, objects, items = nakayama_text(n, n), math.comb(2 * n, n), \
            n * (n + 1)
    elif kind.startswith("D"):
        text, objects, items = dynkin_text("D", n, kind.endswith("alt")), \
            (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n, n * n
    elif kind.startswith("E"):
        text, objects, items = dynkin_text("E", n, kind.endswith("alt")), \
            833, 42
    elif kind == "A":
        text, objects, items = linear_quiver_text(n), \
            math.comb(2 * n + 2, n + 1) // (n + 2), n * (n + 3) // 2
    else:
        text, objects, items = linear_quiver_text(n, True), _pell(n + 1), \
            3 * n - 1
    got_items, objs, _ = indec_tau_rigid_items(parse_algebra(text)[1])
    assert (len(objs), len(got_items)) == (objects, items)

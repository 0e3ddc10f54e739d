"""Support tau-tilting objects: enumeration, mutation, Bongartz and
co-Bongartz complements, and the complement correspondence."""

import numpy as np
import pytest

from conftest import item_of
from test_algebra import linear_quiver_text
from tauseq import complexes as cxs
from tauseq import linalg
from tauseq.algebra import parse_algebra
from tauseq.complexes import (end_K, hminus1, hom_K_dim, min_presentation,
                              proj_list, tau)
from tauseq.errors import CapExceededError, DomainError
from tauseq.modules import (decompose_grouped, direct_sum, hom_basis,
                            hom_dim, in_gen, is_iso, min_left_approx,
                            min_right_approx, submodule)
from tauseq.reduction import _find_proj_vertex
from tauseq.tautilt import (Registry, SignedObject, _items_support_tau_rigid,
                            bongartz, canonical, cobongartz,
                            complement_correspondence,
                            enumerate_support_tau_tilting,
                            indec_tau_rigid_items, is_support_tau_rigid,
                            is_tau_rigid, mutate, object_cx)

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


def _count_triangles(monkeypatch):
    """Count the exchange triangles mutate runs, per side."""
    counts = {"right": 0, "left": 0}
    for side in counts:
        name = f"min_{side}_approx_K"
        real = getattr(cxs, name)

        def counted(*args, _side=side, _real=real):
            counts[_side] += 1
            return _real(*args)

        monkeypatch.setattr(cxs, name, counted)
    return counts


def _algebra_case(case, request):
    if case.startswith("ex"):
        return request.getfixturevalue(case)[1]
    n, rad2 = {"A4": (4, False), "rad2-A4": (4, True)}[case]
    return parse_algebra(linear_quiver_text(n, rad2))[1]


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3", "A4", "rad2-A4"])
def test_exchange_triangle_finds_every_partner(case, request, monkeypatch):
    # a registry holding only the object's own modules leaves every module
    # partner unknown, so each one is found by a triangle, on both sides
    alg = _algebra_case(case, request)
    n = alg.idempotents.shape[0]
    objs, full = enumerate_support_tau_tilting(alg)
    counts = _count_triangles(monkeypatch)
    module_partners = 0
    for obj in objs:
        for k in range(n):
            want = [it for it in mutate(full, obj, k) if it not in obj]
            bare = Registry(alg)
            own = [("m", bare.add(full.module(v))) if kind == "m"
                   else (kind, v) for kind, v in obj]
            got = [it for it in mutate(bare, own, k) if it not in own]
            assert len(want) == len(got) == 1
            (wk, wv), (gk, gv) = want[0], got[0]
            assert wk == gk, (obj, k)
            if wk == "m":
                module_partners += 1
                assert is_iso(full.module(wv), bare.module(gv)), (obj, k)
            else:
                assert wv == gv, (obj, k)
    assert counts["right"] > 0 and counts["left"] > 0
    assert counts["right"] + counts["left"] == module_partners


@pytest.mark.parametrize("case,triangles", [("A4", 6), ("rad2-A4", 3)])
def test_enumeration_runs_triangles_only_to_discover_items(
        case, triangles, request, monkeypatch):
    alg = _algebra_case(case, request)
    counts = _count_triangles(monkeypatch)
    _, reg = enumerate_support_tau_tilting(alg)
    assert counts["right"] + counts["left"] == triangles
    assert triangles == len(reg) - alg.idempotents.shape[0]


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
        b = bongartz(reg, u)
        total, _, _ = direct_sum(alg, [u, b] if b.dim else [u])
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
    assert bongartz(reg, lam).dim == 0
    assert complement_correspondence(reg, lam) == []


def test_cobongartz_rejects_non_rigid_input(root2, ex2):
    _, _, mods = ex2
    with pytest.raises(DomainError):
        cobongartz(root2.registry, mods["I1"])


def test_bongartz_oracles(root1, root3, ex1, ex3):
    _, _, mods1 = ex1
    reg1 = root1.registry
    assert is_iso(bongartz(reg1, mods1["P1"]), mods1["P2"])
    assert is_iso(bongartz(reg1, mods1["P2"]), mods1["P1"])
    assert is_iso(bongartz(reg1, mods1["S1"]), mods1["P1"])
    _, _, mods3 = ex3
    b = bongartz(root3.registry, mods3["S2"])
    names = {root3.registry.name(root3.registry.ensure(piece))
             for piece, _ in decompose_grouped(b)}
    assert names == {"N", "P2"}


@pytest.mark.parametrize(
    "rootname,exname", [("root1", "ex1"), ("root3", "ex3")])
def test_bongartz_completion_is_tau_tilting(rootname, exname, request):
    root = request.getfixturevalue(rootname)
    _, alg, mods = request.getfixturevalue(exname)
    n = alg.idempotents.shape[0]
    for un, u in _rigid_fixture_mods(mods).items():
        b = bongartz(root.registry, u)
        total, _, _ = direct_sum(alg, [u, b] if b.dim else [u])
        assert hom_dim(total, tau(total)) == 0, un
        count = sum(mult for _, mult in decompose_grouped(total))
        assert count == n, un


def test_correspondence_oracles(root1, root3, ex1, ex3):
    _, _, mods1 = ex1
    reg1 = root1.registry
    recs = complement_correspondence(reg1, mods1["P1"])
    assert len(recs) == 1
    assert recs[0]["case"] == "a"
    assert reg1.name(recs[0]["b"]) == "P2"
    assert reg1.display_item(recs[0]["partner"]) == "S1"
    assert is_iso(recs[0]["middle"], mods1["P1"])
    recs = complement_correspondence(reg1, mods1["S1"])
    assert len(recs) == 1
    assert recs[0]["case"] == "b"
    assert reg1.name(recs[0]["b"]) == "P1"
    assert recs[0]["partner"] == ("p", 1)
    assert is_iso(recs[0]["middle"], mods1["S1"])
    _, _, mods3 = ex3
    reg3 = root3.registry
    recs = complement_correspondence(reg3, mods3["S2"])
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
        for rec in complement_correspondence(reg, u):
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
        for rec in complement_correspondence(reg, u):
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
        b = bongartz(reg, u)
        if b.dim == 0:
            continue
        tu = tau(u)
        for bi, _ in decompose_grouped(b):
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

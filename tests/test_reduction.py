"""Perpendicular reduction: J(u) membership, reduced algebras, transport,
and the summand bijection E with its inverse."""

import math
from collections import Counter

import pytest

from conftest import (FIXDIR, dynkin_text, item_of, load_example,
                      nakayama_text)
from oracles import (approximation_pairing, cone, context_objects,
                     eager_level, gen_scan_cobongartz, h0, pres,
                     quotient_gamma, reduce_cx, shift_cx, shifted_by_quotient,
                     triangle_bongartz)
from test_algebra import linear_quiver_text
from tauseq import cli
from tauseq import complexes as cxs
from tauseq import reduction as red
from tauseq.algebra import algebra_invariants, parse_algebra
from tauseq.errors import DomainError
from tauseq.modules import (direct_sum, hom_dim, in_gen, is_iso,
                            min_left_approx, simple_module, zero_module)
from tauseq.complexes import proj_list, tau
from tauseq.reduction import (WideContext, _build_context,
                              _find_proj_vertex, e_inverse, e_map,
                              j_membership, level_item_from_pair,
                              make_context, root_context, set_record,
                              transport)
from tauseq.sequences import enumerate_ordered, enumerate_unordered
from tauseq.tautilt import (Registry, SignedObject, _items_support_tau_rigid,
                            bongartz, canonical, completion,
                            enumerate_support_tau_tilting, g_pairing,
                            is_tau_rigid)

# membership of the nine bundled ex3 modules in each J(u), worked out from
# the Hom/tau tables of the algebra
J_TABLE = {
    "S2": {"P2", "I3", "S1"},
    "S3": {"S2", "I2", "S1"},
    "P1": {"S3", "P2", "S2"},
    "P2": {"S3", "M", "S1"},
    "M": {"S3", "P1", "I2"},
    "N": {"M", "P2"},
    "I2": {"P1", "M", "N", "I3", "S2"},
    "S1": {"I2", "M"},
}

# (vertex count, total dimension, arrow count) of each reduced algebra
GAMMA_SHAPES = {
    "S2": (2, 3, 1),
    "S3": (2, 3, 1),
    "P1": (2, 3, 1),
    "P2": (2, 3, 1),
    "M": (2, 3, 1),
    "N": (2, 2, 0),
    "S1": (2, 2, 0),
    "I2": (2, 5, 2),
}


def test_j_membership_table(ex3):
    _, alg, mods = ex3
    for un, wanted in J_TABLE.items():
        got = {xn for xn, x in mods.items() if j_membership(mods[un], x)}
        assert got == wanted, un


def test_j_membership_edge_cases(ex3):
    _, alg, mods = ex3
    assert j_membership(mods["S2"], zero_module(alg))
    assert not j_membership(mods["S2"], mods["S2"])
    # shifted reducer: perpendicularity to the projective alone
    shifted = SignedObject(vertex=0)
    for xn, x in mods.items():
        assert j_membership(shifted, x) == (hom_dim(proj_list(alg)[0], x) == 0)


def test_reduced_algebra_shapes(root3, ex3):
    _, alg, mods = ex3
    for un, shape in GAMMA_SHAPES.items():
        ctx = root3.child(item_of(root3, mods, un))
        assert algebra_invariants(ctx.gamma) == shape, un


@pytest.mark.parametrize("stem,exname",
                         [("root1", "ex1"), ("root2", "ex2"),
                          ("root3", "ex3")])
def test_reduction_drops_exactly_one_vertex(stem, exname, request):
    root = request.getfixturevalue(stem)
    _, alg, mods = request.getfixturevalue(exname)
    n = alg.idempotents.shape[0]
    for reducer in root.level_items:
        ctx = root.child(reducer)
        assert ctx.gamma.idempotents.shape[0] == n - 1


def test_make_context_accepts_signed_objects_and_caches(root3, ex3):
    _, alg, mods = ex3
    via_item = make_context(root3, item_of(root3, mods, "S2"))
    via_signed = make_context(root3, SignedObject(module=mods["S2"]))
    assert via_item is via_signed


def test_e_map_oracles_reducing_by_p1(root3, ex3):
    _, alg, mods = ex3
    ctx = root3.child(item_of(root3, mods, "P1"))
    reg0 = root3.registry

    def root_name(name):
        red = e_map(ctx, item_of(root3, mods, name))
        return ctx.display_root(red.gamma_item, reg0)

    assert root_name("S3") == "S3"
    assert root_name("P2") == "P2"
    assert root_name("N") == "S2"
    assert root_name("M") == "P2[1]"
    assert root_name("I2") == "S3[1]"
    assert e_map(ctx, item_of(root3, mods, "M")).gamma_item[0] == "p"
    assert e_map(ctx, item_of(root3, mods, "N")).gamma_item[0] == "m"


def test_e_map_fixes_perpendicular_modules_outside_gen(root3, ex3):
    _, alg, mods = ex3
    ctx = root3.child(item_of(root3, mods, "I2"))
    for name in ("M", "P1"):
        red = e_map(ctx, item_of(root3, mods, name))
        assert red.gamma_item[0] != "p"
        assert is_iso(red.root_module, mods[name])


def test_e_map_rejects_incompatible_input(root3, ex3):
    _, alg, mods = ex3
    ctx = root3.child(item_of(root3, mods, "S2"))
    with pytest.raises(DomainError):
        e_map(ctx, item_of(root3, mods, "S2"))
    with pytest.raises(DomainError):
        e_map(ctx, item_of(root3, mods, "S3"))  # S3 + S2 is not tau-rigid


@pytest.mark.parametrize("stem", ["root1", "root2", "root3"])
def test_e_map_e_inverse_round_trip(stem, request):
    root = request.getfixturevalue(stem)
    for reducer in root.level_items:
        ctx = root.child(reducer)
        for rec in ctx.records:
            red = rec["reduced"]
            assert e_inverse(ctx, red.gamma_item) == rec["parent"]
            assert e_inverse(ctx, red) == rec["parent"]
            again = e_map(ctx, rec["parent"])
            assert again.gamma_item == red.gamma_item


def test_e_inverse_rejects_unknown_items(root3, ex3):
    _, alg, mods = ex3
    ctx = root3.child(item_of(root3, mods, "S2"))
    with pytest.raises(DomainError):
        e_inverse(ctx, ("m", 999))


@pytest.mark.parametrize("stem", ["root1", "root2", "root3"])
def test_reduced_level_matches_independent_enumeration(stem, request):
    # the E image of the compatible items is exactly the indecomposable
    # tau-rigid inventory of the reduced algebra
    from tauseq.tautilt import indec_tau_rigid_items

    root = request.getfixturevalue(stem)
    for reducer in root.level_items:
        ctx = root.child(reducer)
        fresh_items, _, fresh_reg = indec_tau_rigid_items(ctx.gamma)
        fresh = set()
        for kind, val in fresh_items:
            if kind == "p":
                fresh.add(("p", val))
            else:
                idx = ctx.registry.find(fresh_reg.module(val))
                assert idx is not None
                fresh.add(("m", idx))
        assert set(ctx.level_items) == fresh, reducer
        assert len(set(ctx.level_items)) == len(ctx.level_items)


def test_bongartz_summands_transport_to_projectives(root3, ex3):
    # images of the Bongartz complement summands are the indecomposable
    # projectives of the reduced algebra, in vertex order
    from tauseq.modules import torsion_free_quotient

    _, alg, mods = ex3
    for name in ("S2", "M", "I2"):
        ctx = root3.child(item_of(root3, mods, name))
        for i, b in enumerate(ctx.b_summands):
            fb, _ = torsion_free_quotient(ctx.u_module, b)
            assert is_iso(transport(ctx, fb), proj_list(ctx.gamma)[i])


def test_transported_modules_stay_tau_rigid(root3, ex3):
    _, alg, mods = ex3
    for reducer in root3.level_items:
        ctx = root3.child(reducer)
        for rec in ctx.records:
            kind, val = rec["reduced"].gamma_item
            if kind == "m":
                assert is_tau_rigid(ctx.registry.module(val))


def test_transport_oracle_simple_over_gamma(root3, ex3):
    # S1 lies in J(S2); over Gamma it becomes the simple at the N vertex
    _, alg, mods = ex3
    ctx = root3.child(item_of(root3, mods, "S2"))
    idx_n = next(i for i, b in enumerate(ctx.b_summands)
                 if is_iso(b, mods["N"]))
    t = transport(ctx, mods["S1"])
    assert is_iso(t, simple_module(ctx.gamma, idx_n))


def test_transport_rejects_non_members(root3, ex3):
    _, alg, mods = ex3
    ctx = root3.child(item_of(root3, mods, "S2"))
    with pytest.raises(DomainError):
        transport(ctx, mods["S3"])


def test_level_item_from_pair_round_trip(root3, ex3):
    _, alg, mods = ex3
    ctx = root3.child(item_of(root3, mods, "P1"))
    for item in ctx.level_items:
        kind, val = item
        if kind == "m":
            back = level_item_from_pair(ctx, ctx.registry.module(val), False)
        else:
            back = level_item_from_pair(ctx, proj_list(ctx.gamma)[val], True)
        assert back == item
    with pytest.raises(DomainError):
        level_item_from_pair(ctx, zero_module(ctx.gamma), False)


@pytest.mark.parametrize("first", ["S2", "M", "P2[1]"])
def test_nested_records_realize_consistently(first, root3, ex3):
    # the stored ambient realization of a depth-two record transports down
    # one level to the module recorded there
    _, alg, mods = ex3
    ctx1 = root3.child(item_of(root3, mods, first))
    for y in ctx1.level_items:
        ctx2 = ctx1.child(y)
        for rec in ctx2.records:
            red = rec["reduced"]
            down = transport(ctx1, red.root_module)
            assert is_iso(down, red.lam_module)


def _climb(ctx, item):
    """Root preimage of a level item, by e_inverse up the chain."""
    while not ctx.is_root:
        item, ctx = e_inverse(ctx, item), ctx.parent
    return item


@pytest.mark.parametrize("case", ["root1", "root2", "root3", "A3",
                                  "rad2-A3"])
def test_reduction_depends_only_on_the_root_set(case, request):
    # the composition rule at record level: every chain of reducers built
    # through child alone, grouped by its set of root reducers, sees the
    # same root preimages with isomorphic realizations and equal shifts
    if case.startswith("root"):
        root = request.getfixturevalue(case)
    else:
        text = linear_quiver_text(3, rad_square_zero=case == "rad2-A3")
        root = root_context(parse_algebra(text)[1])
    n = root.gamma.idempotents.shape[0]
    layer, by_set = [root], {}
    for _ in range(n - 1):
        layer = [ctx.child(y) for ctx in layer for y in ctx.level_items]
        for ctx in layer:
            chain = []
            node = ctx
            while not node.is_root:
                chain.append(_climb(node.parent, node.reducer_item))
                node = node.parent
            seen = {_climb(ctx, y): ctx.realize_item(y)
                    for y in ctx.level_items}
            assert len(seen) == len(ctx.level_items)
            by_set.setdefault(frozenset(chain), []).append(seen)
    compared = 0
    for first, *others in by_set.values():
        for other in others:
            assert other.keys() == first.keys()
            for key, (m, shift) in first.items():
                assert other[key][1] == shift
                assert is_iso(other[key][0], m)
                compared += 1
    # with three vertices some sets are reached by two chains
    assert compared > 0 or n < 3


def _triangle_bongartz_summand(ctx, x_item):
    """The Bongartz summand at the other end of x's exchange triangle: for
    a module x in Gen u, H^0 of the cocone of the minimal right
    add(u)-approximation of x's presentation in K^b(proj); for a shift
    P[1], the target of the minimal left add(B)-approximation of P."""
    preg = ctx.parent.registry
    kind, val = x_item
    if kind == "p":
        bx, _, _ = min_left_approx(proj_list(ctx.algebra)[val],
                                   ctx.b_summands)
        return bx
    src, cmap, _ = cxs.min_right_approx_K([pres(preg, ctx.reducer_item[1])],
                                          pres(preg, val))
    cocone = shift_cx(cone(src, pres(preg, val), cmap), -1)
    bx, _, _ = h0(reduce_cx(cocone))
    return bx


def _chain_contexts(root):
    """{S: the chain context first built for S} over the sets S of later
    summands of every ordered object, in enumeration order, each new set
    reached through child from the context of its first chain."""
    built = {}
    for t in range(2, root.gamma.idempotents.shape[0] + 1):
        for tup in enumerate_ordered(root, t):
            ctx, key = root, frozenset()
            for x in reversed(tup[1:]):
                key = key | {x}
                if key not in built:
                    built[key] = ctx.child(next(
                        y for y in ctx.level_items if _climb(ctx, y) == x))
                ctx = built[key]
    return built


@pytest.mark.parametrize("case,module_shifts,shift_items", [
    ("ex1", 3, 2), ("ex2", 4, 2), ("ex3", 40, 9), ("A3", 29, 10),
    ("rad2-A3", 25, 9)])
def test_e_map_shifts_agree_with_the_exchange_triangle(
        case, module_shifts, shift_items, request):
    # the shifted records, read off the Bongartz correspondence, against
    # the exchange triangle and transport on one chain context per set of
    # later summands of an ordered object
    if case.startswith("ex"):
        alg = request.getfixturevalue(case)[1]
    else:
        alg = parse_algebra(linear_quiver_text(
            3, rad_square_zero=case == "rad2-A3"))[1]
    counts = [0, 0]
    for ctx in _chain_contexts(root_context(alg)).values():
        preg = ctx.parent.registry
        for rec in ctx.records:
            (kind, val), red = rec["parent"], rec["reduced"]
            if ctx.reducer_item[0] == "p":
                if kind == "p":
                    w = _find_proj_vertex(ctx.gamma,
                                          transport(ctx, red.lam_module))
                    assert red.gamma_item == ("p", w)
                    counts[1] += 1
                continue
            if kind == "m":
                assert in_gen(ctx.u_module, preg.module(val)) == \
                    (red.gamma_item[0] == "p")
            if red.gamma_item[0] == "p":
                bx = _triangle_bongartz_summand(ctx, rec["parent"])
                assert is_iso(bx, ctx.b_summands[red.gamma_item[1]])
                counts[0] += 1
    assert counts == [module_shifts, shift_items]


@pytest.mark.parametrize("case,pairs", [
    ("root1", 10), ("root2", 12), ("root3", 108), ("A3", 84), ("A4", 532),
    ("rad2-A3", 72), ("rad2-A4", 370)])
def test_one_step_records_match_the_chain_contexts(case, pairs, request):
    # E_S read off the root against the records of a chain of reduced
    # algebras for S, on every (S, x): the same items, shift flags and
    # realizations up to isomorphism
    if case.startswith("root"):
        root = request.getfixturevalue(case)
    else:
        text = linear_quiver_text(int(case[-1]),
                                  rad_square_zero=case.startswith("rad2"))
        root = root_context(parse_algebra(text)[1])
    compared = 0
    for s, ctx in _chain_contexts(root).items():
        rec = set_record(root, s)
        preimages = [_climb(ctx, y) for y in ctx.level_items]
        assert sorted(rec.level_items) == sorted(preimages)
        for y, x in zip(ctx.level_items, preimages):
            m, shift = rec.realize_item(x)
            chain_m, chain_shift = ctx.realize_item(y)
            assert shift == chain_shift
            assert is_iso(m, chain_m)
            compared += 1
    assert compared == pairs


def _every_context(root):
    """(depth, context) for the root and every context reached from it
    through child, at each depth up to n - 1."""
    out, layer = [(0, root)], [root]
    for depth in range(1, root.gamma.idempotents.shape[0]):
        layer = [ctx.child(y) for ctx in layer for y in ctx.level_items]
        out += [(depth, ctx) for ctx in layer]
    return out


def _case_root(case, request):
    if case.startswith("root"):
        return request.getfixturevalue(case)
    return root_context(parse_algebra(linear_quiver_text(
        3, rad_square_zero=case == "rad2-A3"))[1])


@pytest.mark.parametrize("case,contexts", [
    ("root1", 6), ("root2", 7), ("root3", 66), ("A3", 52),
    ("rad2-A3", 45)])
def test_context_objects_are_the_objects_of_gamma(case, contexts, request):
    # s-tau-tilt J(u) is the interval of the parent's objects containing u
    # (Jasso): mapped through the records, they are exactly the support
    # tau-tilting objects of Gamma, found here by a fresh enumeration
    root = _case_root(case, request)
    n = root.gamma.idempotents.shape[0]
    every = _every_context(root)
    for depth, ctx in every:
        objs = context_objects(ctx)
        assert len(set(objs)) == len(objs)
        for obj in objs:
            assert len(obj) == n - depth and obj == canonical(obj)
            assert _items_support_tau_rigid(ctx.registry, list(obj))
        if depth:
            assert len(objs) == sum(ctx.reducer_item in obj
                                    for obj in context_objects(ctx.parent))
        fresh, fresh_reg = enumerate_support_tau_tilting(ctx.gamma)
        assert set(objs) == {canonical(
            ("m", ctx.registry.find(fresh_reg.module(v))) if kind == "m"
            else (kind, v) for kind, v in obj) for obj in fresh}
    assert len(every) == contexts


@pytest.mark.parametrize("case,reducers", [
    ("root1", 8), ("root2", 10), ("root3", 94), ("A3", 72),
    ("rad2-A3", 61)])
def test_completions_match_the_oracles_at_every_level(case, reducers,
                                                      request):
    # at each module reducer u of every context: B(u) read off g-vectors
    # against the K^b Bongartz triangle, C(u) against the Gen u scan, the
    # g rule against the approximation pairing; bongartz lists B(u) minus u
    # in registry order
    root = _case_root(case, request)
    seen = 0
    for _, ctx in _every_context(root):
        reg = ctx.registry
        for y in ctx.level_items:
            if y[0] != "m":
                continue
            u, s = reg.module(y[1]), {y}
            top = completion(reg, s)
            bottom = completion(reg, s, top=False)
            b_ids = triangle_bongartz(reg, u)
            assert set(top) - s == {("m", b) for b in b_ids}
            c_ids, q = gen_scan_cobongartz(reg, u)
            assert [x for x in bottom if x not in s] == \
                [("m", c) for c in c_ids] + [("p", v) for v in q]
            assert g_pairing(reg, s)[1] == approximation_pairing(reg, u)
            got = bongartz(reg, u)
            assert got == sorted(set(b_ids))
            seen += 1
    assert seen == reducers


@pytest.mark.parametrize("case", [
    "ex1", "ex2", "ex3", "A3", "A4", "rad2-A4", "nakayama-4-2"])
def test_gamma_matches_the_quotient_routes(case, request):
    # End(+ f_u(B_i)) against End(B + u)/[u] or A/<e_v> at every root child
    # and every depth-2 child, and the transport of every module record
    # against the quotient's
    if case.startswith("ex"):
        alg = request.getfixturevalue(case)[1]
    elif case.startswith("nakayama"):
        alg = parse_algebra(nakayama_text(4, 2))[1]
    else:
        alg = parse_algebra(linear_quiver_text(
            int(case[-1]), rad_square_zero=case.startswith("rad2")))[1]
    root = root_context(alg)
    contexts = [root.child(x) for x in root.level_items]
    if alg.idempotents.shape[0] > 2:
        contexts += [c.child(y) for c in contexts for y in c.level_items]
    kinds = set()
    for ctx in contexts:
        gamma, move = quotient_gamma(ctx)
        assert algebra_invariants(ctx.gamma) == algebra_invariants(gamma)
        for rec in ctx.records:
            kind, val = rec["reduced"].gamma_item
            if kind == "m":
                lam = rec["reduced"].lam_module
                assert ctx.registry.module(val).vertex_dims() == \
                    move(lam).vertex_dims()
        kinds.add(ctx.reducer_item[0])
    assert kinds == {"m", "p"}


WIDE_CASES = {
    "A3": linear_quiver_text(3), "A4": linear_quiver_text(4),
    "rad2-A5": linear_quiver_text(5, True), "Lambda4^2": nakayama_text(4, 2),
    "Lambda4^4": nakayama_text(4, 4), "D4": dynkin_text("D", 4)}


@pytest.mark.parametrize("case", ["ex1", "ex2", "ex3"] + list(WIDE_CASES))
def test_wide_subcategories_match_the_objects(case):
    """J(S) is keyed by the modules that E_S realizes unshifted: the tau-
    rigid modules of J(S), which generate it.  For a tau-tilting finite
    algebra the wide subcategories are the J(S) (Marks-Stovicek, Buan-
    Hanson) and are as many as the support tau-tilting objects, those of
    rank k as many as the objects with k left mutations (Asai); in type A
    by rank they are the Narayana numbers (Ingalls-Thomas).  Each key
    comes with one rank n - |S|."""
    alg = (load_example(case)[1] if case.startswith("ex")
           else parse_algebra(WIDE_CASES[case])[1])
    root = root_context(alg)
    reg, n = root.registry, alg.idempotents.shape[0]
    keys = Registry(alg)
    ranks = {}
    for t in range(n + 1):
        for s in enumerate_unordered(root, t) if t else [()]:
            rec = set_record(root, frozenset(s))
            key = frozenset(keys.ensure(m) for m, shift in map(
                rec.realize_item, rec.level_items) if not shift)
            assert ranks.setdefault(key, n - t) == n - t, (case, s)
    assert len(ranks) == len(root.stt_objects)
    left = Counter()
    for obj in root.stt_objects:
        mods = [reg.module(v) for kind, v in obj if kind == "m"]
        left[sum(not in_gen(direct_sum(alg, mods[:i] + mods[i + 1:])[0], m)
                 for i, m in enumerate(mods))] += 1
    assert Counter(ranks.values()) == left
    if case in ("A3", "A4"):
        nara = {k: math.comb(n + 1, k + 1) * math.comb(n + 1, k) // (n + 1)
                for k in range(n + 1)}
        assert Counter(ranks.values()) == nara


DEFERRED = ("records", "level_items", "record_of", "registry")


def _count_reduced_items(monkeypatch):
    calls = []
    real = red._reduce_item

    def counting(ctx, reg, x_item):
        calls.append(x_item)
        return real(ctx, reg, x_item)
    monkeypatch.setattr(red, "_reduce_item", counting)
    return calls


def test_gamma_invariants_reduce_no_item(monkeypatch, capsys):
    calls = _count_reduced_items(monkeypatch)
    assert cli.main(["paper-example", "3"]) == 0
    assert "reduced algebra invariants" in capsys.readouterr().out
    assert calls == []


@pytest.mark.parametrize("name", sorted(J_TABLE) + ["P1[1]", "S3[1]"])
def test_reduce_reduces_each_compatible_item_once(name, ex3, monkeypatch,
                                                  capsys):
    _, alg, mods = ex3
    root = root_context(alg)
    item = item_of(root, mods, name)
    want = sum(x != item and root.registry.compatible(x, item)
               for x in root.level_items)
    calls = _count_reduced_items(monkeypatch)
    assert cli.main(["reduce", "--algebra", str(FIXDIR / "ex3.alg"),
                     "--fixtures", str(FIXDIR / "ex3.mods"),
                     "--object", name]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == want > 0


def _fresh_children(root):
    """Every context below the root, each yielded right after its build,
    before anything reads its registry or records; a layer's children are
    built only after the whole layer above was yielded."""
    layer = [root]
    for _ in range(1, root.gamma.idempotents.shape[0]):
        built = []
        for ctx in layer:
            for y in ctx.level_items:
                child = ctx.child(y)
                yield child
                built.append(child)
        layer = built


@pytest.mark.parametrize("case,contexts", [
    ("ex1", 5), ("ex2", 6), ("ex3", 65), ("A4", 630), ("rad2-A4", 439)])
def test_filled_children_match_the_eager_build(case, contexts):
    """A child fills its Gamma registry, level items and records on first
    read, with the names, order and Gamma items of an eager build."""
    alg = (load_example(case)[1] if case.startswith("ex")
           else parse_algebra(linear_quiver_text(
               4, rad_square_zero=case == "rad2-A4"))[1])
    seen = 0
    for ctx in _fresh_children(root_context(alg)):
        assert not set(DEFERRED) & set(vars(ctx))
        names, level_items, pairs = eager_level(ctx)
        assert ctx.registry.names == names
        assert ctx.level_items == level_items
        assert [(r["parent"], r["reduced"].gamma_item)
                for r in ctx.records] == pairs
        assert all(ctx.record_of[y]["parent"] == x for x, y in pairs)
        seen += 1
    assert seen == contexts


def test_a_repeated_level_item_raises_on_every_read(ex3, monkeypatch):
    """The fill checks that E is injective on the records, and a failed
    fill assigns nothing: each first read raises, and so does the next."""
    _, alg, mods = ex3
    root = root_context(alg)
    item = item_of(root, mods, "P1")
    real = red._reduce_item

    def repeating(ctx, reg, x_item):
        got = real(ctx, reg, x_item)
        return red.ReducedObject(got.lam_module, ("p", 0), got.root_module)
    monkeypatch.setattr(red, "_reduce_item", repeating)
    for name in DEFERRED:
        ctx = _build_context(root, item)
        for _ in range(2):
            with pytest.raises(DomainError, match="repeated level item"):
                getattr(ctx, name)
            assert not set(DEFERRED) & set(vars(ctx))


def test_the_root_reads_plain_attributes(root3):
    # psi and phi read the root's registry and items many times per call
    assert "__getattr__" not in vars(WideContext)
    assert not any(isinstance(v, property) for v in vars(WideContext).values())
    assert {"registry", "level_items", "is_root"} <= set(vars(root3))


PSI_RULE_CASES = {
    "ex1": None, "ex2": None, "ex3": None, "A4": linear_quiver_text(4),
    "rad2-A4": linear_quiver_text(4, rad_square_zero=True),
    "rad2-A5": linear_quiver_text(5, rad_square_zero=True),
    "Lambda_4^4": nakayama_text(4, 4), "D5-alt": dynkin_text("D", 5, True)}


def _fresh_root(case):
    """A root with no set record read yet."""
    text = PSI_RULE_CASES[case] or (FIXDIR / f"{case}.alg").read_text()
    return root_context(parse_algebra(text)[1])


@pytest.mark.parametrize("case", sorted(PSI_RULE_CASES))
def test_set_records_shift_the_quotient_rule_entries(case, monkeypatch):
    # over every set S with a record (1 <= |S| < n): the entries that the
    # record shifts, read off C(S), are the shifts and the modules with
    # f_{M_S}(x) = 0, and the record takes one torsion-free quotient per
    # entry
    root = _fresh_root(case)
    calls = []
    quotient = red._torsion_free

    def counted(*args):
        calls.append(args)
        return quotient(*args)

    monkeypatch.setattr(red, "_torsion_free", counted)
    n = root.gamma.idempotents.shape[0]
    for t in range(1, n):
        for s in map(frozenset, enumerate_unordered(root, t)):
            del calls[:]
            pairs = red.set_record(root, s).pairs
            assert len(calls) == len(pairs)
            assert {x for x, (_, shift) in pairs.items() if shift} == \
                shifted_by_quotient(root, s), s


@pytest.mark.parametrize("case", sorted(PSI_RULE_CASES))
def test_a_dropped_g_partner_is_refused(case, monkeypatch):
    # with the g pairing made to lose each partner in turn, every set
    # record raises instead of reading the lost entry as unshifted
    root = _fresh_root(case)
    pairing, drop = red.g_pairing, []

    def dropping(reg, s):
        b_ids, pairs = pairing(reg, s)
        return b_ids, {x: b for x, b in pairs.items() if x not in drop}

    monkeypatch.setattr(red, "g_pairing", dropping)
    n = root.gamma.idempotents.shape[0]
    for t in range(1, n):
        for s in map(frozenset, enumerate_unordered(root, t)):
            for x in pairing(root.registry, s)[1]:
                drop[:] = [x]
                with pytest.raises(DomainError, match="outside C"):
                    red._one_step_pairs(root, s)

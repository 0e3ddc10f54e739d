"""The combinatorial core with no module: Dynkin quivers' items, rows and
g-vectors from roots and the Euler form (oracles.RootCore), checked against
the module route bit for bit, and the library's own lookups, completions,
pairings, clique listings and face numbers run on them at E8 scale.  The
face numbers are checked by a second route: the h-vector they give is the
histogram of g(A)'s negative coordinates over the objects."""

import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dynkin_arrows, nakayama_text, quiver_text
from oracles import (RootCore, dynkin_roots, euler_g_vector, euler_rows,
                     subsets_of_objects,
                     objects_by_item, scan_completion)
from test_algebra import linear_quiver_text
from tauseq.algebra import parse_algebra
from tauseq import tautilt
from tauseq.errors import DomainError
from tauseq.tautilt import (Core, canonical, completion,
                            enumerate_support_tau_tilting, g_pairing, mutate)

# every name tautilt takes from the module layer
MODULE_NAMES = ("cxs", "decompose", "is_iso", "is_local_endo",
                "min_left_approx", "quotient_module")
# the h-vector of E8's cluster complex: the Narayana numbers of type E8
E8_H = [1, 120, 1540, 6120, 9518, 6120, 1540, 120, 1]
CLUSTERS = {("D", 4): 50, ("D", 5): 182, ("D", 6): 672, ("E", 6): 833,
            ("E", 7): 4160, ("E", 8): 25080}


def _lookup_bfs(core):
    """Every object reached from the shifts by `mutate`, in BFS order."""
    start = tuple(("p", v) for v in range(core.n))
    seen, queue = {start}, [start]
    for cur in queue:
        for k in range(core.n):
            nb = mutate(core, cur, k)
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return queue


def _check_against_registry(arrows, n):
    """Map the registry's modules to roots by dimension vector; then every
    row bit and every g-vector is the Euler form's."""
    _, reg = enumerate_support_tau_tilting(
        parse_algebra(quiver_text(n, arrows))[1])
    roots = dynkin_roots(arrows, n)
    at = {d: n + i for i, d in enumerate(roots)}
    bit = list(range(n)) + [at[tuple(m.vertex_dims())] for m in reg.mods]
    assert sorted(bit) == list(range(n + len(roots)))  # one module a root
    want = euler_rows(arrows, n)
    for i in range(n + len(reg)):
        item, row = reg.item_at(i), want[bit[i]]
        assert reg.mask(item) == sum(1 << j for j in range(len(bit))
                                     if row >> bit[j] & 1), item
        dims = roots[bit[i] - n] if item[0] == "m" else None
        assert reg.g_vector(item) == (
            euler_g_vector(arrows, dims) if dims else
            [-int(w == i) for w in range(n)]), item


@pytest.mark.parametrize("kind,n,alt", [
    ("D", 4, False), ("D", 5, False), ("D", 5, True), ("D", 6, False),
    ("E", 6, False), ("E", 6, True)])
def test_euler_rows_and_g_vectors_match_the_registry(kind, n, alt):
    _check_against_registry(dynkin_arrows(kind, n, alt), n)


@settings(max_examples=6, deadline=None)
@given(flips=st.lists(st.booleans(), min_size=5, max_size=5))
def test_euler_rows_match_the_registry_on_drawn_e6_orientations(flips):
    arrows = [(t, s) if f else (s, t)
              for f, (s, t) in zip(flips, dynkin_arrows("E", 6))]
    _check_against_registry(arrows, 6)


@pytest.mark.parametrize("kind,n,alt", [
    ("D", 4, False), ("E", 6, False), ("E", 7, True), ("E", 8, False),
    ("E", 8, True)])
def test_lookups_completions_and_pairings_on_a_root_core(kind, n, alt,
                                                         monkeypatch):
    # the library's own routines on a core with no algebra and no module,
    # with every name tautilt takes from the module layer unusable
    for name in MODULE_NAMES:
        monkeypatch.setattr(tautilt, name, None)
    core = RootCore(dynkin_arrows(kind, n, alt), n)
    assert isinstance(core, Core)
    assert not hasattr(core, "alg") and not hasattr(core, "mods")
    objs = _lookup_bfs(core)
    assert len(objs) == CLUSTERS[kind, n]
    objset, rng = set(objs), random.Random(41)
    index = objects_by_item(objs) if len(objs) < 1000 else None
    for trial in range(300):
        obj = rng.choice(objs)
        s = frozenset(rng.sample(obj, rng.randrange(len(obj) + 1)))
        for top in (True, False):
            got = completion(core, s, top)
            assert got in objset and s <= set(got)
            if index is not None:
                assert got == scan_completion(core, index, s, top)
        if trial % 6 == 0:
            b_ids, pairs = g_pairing(core, s)
            bottom = completion(core, s, top=False)
            assert len(b_ids) == n - len(s)
            assert sorted(pairs) == sorted(set(bottom) - s)
            assert sorted(pairs.values()) == sorted(b_ids)


def test_a_core_missing_a_root_refuses_its_exchanges():
    # E6 with one non-projective root dropped: each exchange whose partner
    # is that root raises DomainError, the others are the full core's
    arrows = dynkin_arrows("E", 6)
    full, cut = RootCore(arrows, 6), RootCore(arrows, 6)
    i = next(i for i, d in enumerate(full.roots)
             if sorted(euler_g_vector(arrows, d)) != [0] * 5 + [1]
             and sum(d) > 2)
    bit = 1 << (6 + i)
    cut._rigid &= ~bit
    cut._rows = [row & ~bit for row in cut._rows]
    cut._rows[6 + i] = 0
    refused = 0
    for obj in _lookup_bfs(full):
        if ("m", i) in obj:
            with pytest.raises(DomainError, match="support tau-tilting"):
                mutate(cut, obj, 0)
            continue
        for k in range(6):
            want = mutate(full, obj, k)
            if ("m", i) in want:
                with pytest.raises(DomainError, match="not an item of"):
                    mutate(cut, obj, k)
                refused += 1
            else:
                assert mutate(cut, obj, k) == want
    assert refused > 0


def test_a_plain_core_holds_only_the_shifts():
    core = Core(3)
    shifts = canonical(("p", v) for v in range(3))
    assert core.g_signs(shifts) == (0, 0b111)
    with pytest.raises(DomainError, match="not an item of"):
        mutate(core, shifts, 0)


def h_vector(f):
    """h_k = sum over i of (-1)^(k-i) C(n-i, k-i) f_i, from the face
    numbers f_0, .., f_n of a complex whose facets have n items."""
    n = len(f) - 1
    return [sum((-1) ** (k - i) * comb(n - i, k - i) * f[i]
                for i in range(k + 1)) for k in range(n + 1)]


def check_h_vector(core, objects):
    """h from the core's clique counts is palindromic, and h_k objects have
    k summands at which g(A) is negative in their g-basis: the g-fan is
    complete, and a generic functional orders its facets (a second route
    that reads no clique).  Returns h."""
    h = h_vector(core.face_numbers(core.rigid))
    signs = Counter(core.g_signs(obj)[1].bit_count() for obj in objects)
    assert h == [signs[k] for k in range(core.n + 1)]
    assert h == h[::-1]
    return h


@pytest.mark.parametrize("kind,n,alt", [
    ("D", 4, False), ("E", 6, True), ("E", 7, False)])
def test_cliques_and_face_numbers_on_a_root_core(kind, n, alt, monkeypatch):
    # with no module name usable, the cliques at every size are the
    # subsets of the lookup objects, and the face numbers give the
    # g-sign histogram
    for name in MODULE_NAMES:
        monkeypatch.setattr(tautilt, name, None)
    core = RootCore(dynkin_arrows(kind, n, alt), n)
    objs = sorted(_lookup_bfs(core))
    faces = core.face_numbers(core.rigid)
    assert faces[n] == len(objs) == CLUSTERS[kind, n]
    for t in range(1, n + 1):
        got = core.cliques(t)
        assert got == subsets_of_objects(objs, t) and len(got) == faces[t]
    check_h_vector(core, objs)


@pytest.mark.parametrize("alt", [False, True])
def test_face_numbers_of_e8(alt, monkeypatch):
    # 25,080 clusters, each wall in two of them, and the Narayana numbers
    # of type E8 as h, read off the root core's rows alone
    for name in MODULE_NAMES:
        monkeypatch.setattr(tautilt, name, None)
    core = RootCore(dynkin_arrows("E", 8, alt), 8)
    f = core.face_numbers(core.rigid)
    assert f == [1, 128, 2408, 17936, 67488, 140448, 163856, 100320, 25080]
    assert 2 * f[7] == 8 * f[8]
    h = h_vector(f)
    assert h == h[::-1] and sum(h) == 25080 and h == E8_H


@pytest.mark.parametrize("n", range(3, 9))
def test_face_numbers_of_linear_a(n):
    # Kirkman-Cayley: the cluster complex of A_n has
    # C(n, i) C(n + i + 2, i) / (i + 1) faces of i items
    reg = enumerate_support_tau_tilting(
        parse_algebra(linear_quiver_text(n))[1])[1]
    assert reg.face_numbers(reg.rigid) == [
        comb(n, i) * comb(n + i + 2, i) // (i + 1) for i in range(n + 1)]


@pytest.mark.parametrize("n", range(2, 7))
def test_h_vector_of_the_self_injective_nakayama(n):
    # Lambda_n^n has C(2n, n) objects, C(n, k)^2 of them with k summands
    # where g(A) is negative
    objs, reg = enumerate_support_tau_tilting(
        parse_algebra(nakayama_text(n, n))[1])
    assert check_h_vector(reg, objs) == [comb(n, k) ** 2
                                         for k in range(n + 1)]

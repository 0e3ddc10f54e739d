"""The combinatorial core with no module: Dynkin quivers' items, rows and
g-vectors from roots and the Euler form (oracles.RootCore), checked against
the module route bit for bit, and the library's own lookups, completions
and pairings run on them at E8 scale."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dynkin_arrows, quiver_text
from oracles import (RootCore, dynkin_roots, euler_g_vector, euler_rows,
                     objects_by_item, scan_completion)
from tauseq.algebra import parse_algebra
from tauseq import tautilt
from tauseq.errors import DomainError
from tauseq.tautilt import (Core, canonical, completion,
                            enumerate_support_tau_tilting, g_pairing, mutate)

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
    for name in ("cxs", "decompose", "is_iso", "is_local_endo",
                 "min_left_approx", "quotient_module"):
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

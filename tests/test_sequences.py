"""The bijection between ordered support tau-rigid objects and signed
tau-exceptional sequences, with golden tables for the two rank-2 examples."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings

from conftest import (dynkin_text, item_of, monomial_quiver_texts,
                      nakayama_text)
from oracles import subsets_of_objects
from test_algebra import linear_quiver_text
from test_core import check_h_vector
from test_tautilt import _SmallModules
from tauseq import algebra, modules, reduction, sequences
from tauseq.algebra import parse_algebra
from tauseq.complexes import ext1_dim, proj_list
from tauseq.errors import CapExceededError, DomainError
from tauseq.modules import hom_dim, zero_module
from tauseq.reduction import (e_inverse, level_item_from_pair, root_context,
                              transport)
from tauseq.sequences import (count_sequences, enumerate_ordered,
                              enumerate_sequences, enumerate_unordered,
                              ordered_names, phi, psi, sequence_names,
                              validate_sequence)

# ordered object -> sequence, by display name at the ambient level
GOLDEN_EX1 = {
    ("P2", "P1"): ("P2", "P1"),
    ("S1", "P1"): ("P2[1]", "P1"),
    ("P1", "P2"): ("S1", "P2"),
    ("P1[1]", "P2"): ("S1[1]", "P2"),
    ("P1", "S1"): ("P1", "S1"),
    ("P2[1]", "S1"): ("P1[1]", "S1"),
    ("P2", "P1[1]"): ("P2", "P1[1]"),
    ("P2[1]", "P1[1]"): ("P2[1]", "P1[1]"),
    ("S1", "P2[1]"): ("S1", "P2[1]"),
    ("P1[1]", "P2[1]"): ("S1[1]", "P2[1]"),
}

GOLDEN_EX2 = {
    ("P1", "P2"): ("S1", "P2"),
    ("S2", "P2"): ("S1[1]", "P2"),
    ("P2", "P1"): ("S2", "P1"),
    ("S1", "P1"): ("S2[1]", "P1"),
    ("P2", "S2"): ("I1", "S2"),
    ("P1[1]", "S2"): ("I1[1]", "S2"),
    ("P2[1]", "S1"): ("P1[1]", "S1"),
    ("P1", "S1"): ("P1", "S1"),
    ("S2", "P1[1]"): ("S2", "P1[1]"),
    ("P2[1]", "P1[1]"): ("S2[1]", "P1[1]"),
    ("S1", "P2[1]"): ("S1", "P2[1]"),
    ("P1[1]", "P2[1]"): ("S1[1]", "P2[1]"),
}

EX3_PER_LAST = {
    "S2": 10, "S3": 10, "P1": 10, "P2": 10, "M": 10,
    "P1[1]": 10, "P2[1]": 10, "S3[1]": 10,
    "N": 8, "S1": 8, "I2": 12,
}


def _golden_map(root, t):
    reg = root.registry
    return {tuple(ordered_names(root, tup)): tuple(seq.names(reg))
            for tup, seq in enumerate_sequences(root, t)}


def test_golden_table_ex1(root1):
    assert _golden_map(root1, 2) == GOLDEN_EX1


def test_golden_table_ex2(root2):
    assert _golden_map(root2, 2) == GOLDEN_EX2


def test_counts_ex1_ex2(root1, root2):
    assert count_sequences(root1, 1)[0] == 5
    assert count_sequences(root1, 2)[0] == 10
    assert count_sequences(root2, 1)[0] == 6
    assert count_sequences(root2, 2)[0] == 12
    total, per_last = count_sequences(root1, 2)
    named = {root1.registry.display_item(it): c for it, c in per_last.items()}
    assert named == {"P1": 2, "P2": 2, "S1": 2, "P1[1]": 2, "P2[1]": 2}


def test_counts_ex3(root3):
    assert count_sequences(root3, 1)[0] == 11
    assert count_sequences(root3, 2)[0] == 54
    total, per_last = count_sequences(root3, 3)
    assert total == 108
    named = {root3.registry.display_item(it): c for it, c in per_last.items()}
    assert named == EX3_PER_LAST


@pytest.mark.parametrize("case", ["root1", "root2", "root3", "A4", "A5",
                                  "rad2-A4"])
def test_counts_match_the_ordered_enumeration(case, request):
    # the closed form t!|U| and (t-1)!#{U containing X} against the
    # materialised ordered tuples and their last-entry tally
    if case.startswith("root"):
        root = request.getfixturevalue(case)
    else:
        n, rad2 = {"A4": (4, False), "A5": (5, False),
                   "rad2-A4": (4, True)}[case]
        root = root_context(parse_algebra(linear_quiver_text(n, rad2))[1])
    for t in range(1, root.gamma.idempotents.shape[0] + 1):
        ordered = enumerate_ordered(root, t)
        assert count_sequences(root, t) == (
            len(ordered), dict(Counter(tup[-1] for tup in ordered)))


SUBSET_CASES = {
    **{f"A{n}": linear_quiver_text(n) for n in range(3, 7)},
    **{f"rad2-A{n}": linear_quiver_text(n, rad_square_zero=True)
       for n in range(3, 7)},
    "Lambda_4^4": nakayama_text(4, 4), "Lambda_5^3": nakayama_text(5, 3),
    "D4": dynkin_text("D", 4), "E6-alt": dynkin_text("E", 6, alt=True)}


def _check_against_the_object_subsets(root):
    """At every length t, the listing, the total and the per-last counts
    read off the core's cliques against the t-subsets of the objects."""
    for t in range(1, root.gamma.idempotents.shape[0] + 1):
        subsets = subsets_of_objects(root.stt_objects, t)
        assert enumerate_unordered(root, t) == subsets
        last = Counter(it for sub in subsets for it in sub)
        assert count_sequences(root, t) == (
            math.factorial(t) * len(subsets),
            {it: math.factorial(t - 1) * c for it, c in last.items()})


@pytest.mark.parametrize("case", ["root1", "root2", "root3"]
                         + sorted(SUBSET_CASES))
def test_listing_and_counts_match_the_object_subsets(case, request):
    # and the h-vector of the face numbers is the g-sign histogram
    root = request.getfixturevalue(case) if case.startswith("root") else \
        root_context(parse_algebra(SUBSET_CASES[case])[1])
    _check_against_the_object_subsets(root)
    check_h_vector(root.registry, root.stt_objects)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(case=monomial_quiver_texts())
def test_listing_and_counts_match_the_object_subsets_on_drawn_quivers(case):
    # draws past 60 objects, or with a module past dimension 16, are
    # skipped
    alg = parse_algebra(case[0])[1]
    try:
        root = root_context(alg, cap=60, registry=_SmallModules(alg))
    except CapExceededError:
        assume(False)
    _check_against_the_object_subsets(root)


def test_worked_rows_ex3(root3, ex3):
    _, alg, mods = ex3
    reg = root3.registry
    row1 = tuple(item_of(root3, mods, n) for n in ("M", "I2", "P1"))
    seq1 = psi(root3, row1)
    assert sequence_names(root3, seq1) == ["S2[1]", "S3[1]", "P1"]
    assert phi(root3, seq1) == row1
    assert phi(root3, seq1.root_pairs()) == row1
    row2 = tuple(item_of(root3, mods, n) for n in ("M", "P1", "I2"))
    seq2 = psi(root3, row2)
    assert sequence_names(root3, seq2) == ["S2[1]", "P1", "I2"]
    assert phi(root3, seq2) == row2
    assert phi(root3, seq2.root_pairs()) == row2


@pytest.mark.parametrize("stem", ["root1", "root2", "root3"])
def test_phi_inverts_psi_everywhere(stem, request):
    root = request.getfixturevalue(stem)
    n = root.gamma.idempotents.shape[0]
    for t in range(1, n + 1):
        for tup, seq in enumerate_sequences(root, t):
            assert phi(root, seq) == tup
            assert phi(root, seq.root_pairs()) == tup


@pytest.mark.parametrize("stem", ["root1", "root2", "root3", "D4", "D4-alt"])
def test_every_generated_sequence_validates(stem, request):
    # D4 and D4 alt up to length 3, 748 outputs each: the validator asks
    # every shifted entry to be a projective of its own level's Gamma,
    # apart from the one-step records that psi realizes it with
    if stem.startswith("D4"):
        root = root_context(parse_algebra(dynkin_text("D", 4,
                                                      stem == "D4-alt"))[1])
        n = 3
    else:
        root = request.getfixturevalue(stem)
        n = root.gamma.idempotents.shape[0]
    for t in range(1, n + 1):
        for tup, seq in enumerate_sequences(root, t):
            ok, why = validate_sequence(root, seq.root_pairs())
            assert ok, (tup, why)


def _check_sampled_psi(root, rng, lengths, per_length):
    """psi of per_length ordered objects of each length, drawn by rng (a
    random object, then an ordered choice of its summands): each output
    passes validate_sequence, and phi of its pairs gives the object back."""
    for t in lengths:
        for _ in range(per_length):
            tup = tuple(rng.sample(rng.choice(root.stt_objects), t))
            pairs = psi(root, tup).root_pairs()
            ok, why = validate_sequence(root, pairs)
            assert ok, (tup, why)
            assert phi(root, pairs) == tup


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(case=monomial_quiver_texts())
def test_psi_outputs_validate_on_drawn_quivers(case):
    # draws past 60 objects, or with a module past dimension 16, are
    # skipped; three ordered objects of each length, seeded by the draw
    alg = parse_algebra(case[0])[1]
    try:
        root = root_context(alg, cap=60, registry=_SmallModules(alg))
    except CapExceededError:
        assume(False)
    n = alg.idempotents.shape[0]
    _check_sampled_psi(root, random.Random(case[0]), range(1, n + 1), 3)


SAMPLED = {"Lambda_4^4": nakayama_text(4, 4),
           "Lambda_5^3": nakayama_text(5, 3),
           "rad2-A5": linear_quiver_text(5, rad_square_zero=True),
           "D5": dynkin_text("D", 5), "E6-alt": dynkin_text("E", 6, alt=True)}


@pytest.mark.parametrize("case", sorted(SAMPLED))
def test_psi_outputs_validate_on_complete_samples(case):
    # 20 seeded complete ordered objects
    alg = parse_algebra(SAMPLED[case])[1]
    n = alg.idempotents.shape[0]
    _check_sampled_psi(root_context(alg), random.Random(case), [n], 20)


@pytest.mark.parametrize(
    "stem,exname,count",
    [("root1", "ex1", 10), ("root2", "ex2", 12)])
def test_valid_sequences_are_exactly_the_images(stem, exname, count,
                                                request):
    # brute force over all pairs of (indecomposable, shift) entries: the
    # candidates accepted by the independent validator are whole image of
    # the enumeration, nothing more
    root = request.getfixturevalue(stem)
    _, alg, mods = request.getfixturevalue(exname)
    pool = [(m, False) for m in mods.values()]
    pool += [(m, True) for m in mods.values()]
    valid = set()
    for a in pool:
        for b in pool:
            ok, _ = validate_sequence(root, [a, b])
            if ok:
                names = []
                for m, sh in (a, b):
                    nm = root.registry.name(root.registry.ensure(m))
                    names.append(nm + "[1]" if sh else nm)
                valid.add(tuple(names))
    images = {tuple(seq.names(root.registry))
              for _, seq in enumerate_sequences(root, 2)}
    assert valid == images
    assert len(valid) == count


def test_entries_have_no_self_extensions(root3):
    # every realized entry is exceptional over the ambient algebra
    seen = {}
    for t in (1, 2, 3):
        for _, seq in enumerate_sequences(root3, t):
            for m, _ in seq.root_pairs():
                key = root3.registry.ensure(m)
                if key not in seen:
                    seen[key] = ext1_dim(m, m)
                assert seen[key] == 0


def test_validation_diagnoses_bad_pairs(root2, ex2):
    _, alg, mods = ex2
    ok, why = validate_sequence(root2, [(mods["I1"], False),
                                        (mods["P2"], False)])
    assert not ok and why.startswith("entry 1")
    ok, why = validate_sequence(root2, [(mods["P2"], False),
                                        (mods["I1"], False)])
    assert not ok and "not tau-rigid" in why
    ok, why = validate_sequence(root2, [(mods["P1"], False),
                                        (mods["S2"], True)])
    assert not ok and "projective" in why and why.startswith("entry 2")
    too_long = [(mods["P1"], False)] * 3
    ok, why = validate_sequence(root2, too_long)
    assert not ok and "length" in why


def test_psi_input_validation(root2, root3, ex2, ex3):
    _, _, mods2 = ex2
    _, _, mods3 = ex3
    i1 = root2.registry.find(mods2["I1"])
    assert i1 is not None
    with pytest.raises(DomainError):
        psi(root2, [("m", i1)])
    p1 = item_of(root3, mods3, "P1")
    with pytest.raises(DomainError):
        psi(root3, [p1, p1])
    with pytest.raises(DomainError):
        psi(root3, [])
    four = [item_of(root3, mods3, n) for n in ("S2", "P2", "P1", "M")]
    with pytest.raises(DomainError):
        psi(root3, four)
    # S3 + S2 is not support tau-rigid, so no ordered object contains both
    with pytest.raises(DomainError):
        psi(root3, [item_of(root3, mods3, "S3"), item_of(root3, mods3, "S2")])
    with pytest.raises(DomainError):
        enumerate_ordered(root3, 0)


def test_psi_phi_read_one_record_per_root_set(ex3, monkeypatch):
    # psi then phi over every ordered object of ex3 build no reduction
    # context and read one record per set of later summands, whatever
    # their order
    root = root_context(ex3[1])
    built = []
    build = reduction._build_context

    def counted(parent, item):
        built.append(item)
        return build(parent, item)

    monkeypatch.setattr(reduction, "_build_context", counted)
    sets = set()
    for t in (1, 2, 3):
        for tup in enumerate_ordered(root, t):
            assert phi(root, psi(root, tup).root_pairs()) == tup
            sets.update(frozenset(tup[i:]) for i in range(1, t))
    assert len(sets) == 38
    assert built == []
    assert set(root.set_records) == sets


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return refused


@pytest.mark.parametrize("exname", ["ex1", "ex2", "ex3"])
def test_psi_phi_build_no_reduced_algebra(exname, request, monkeypatch):
    # psi and phi read E_S off the root: with every step that builds or
    # uses a reduced algebra Gamma refused, phi(psi(x)) = x still holds
    alg = request.getfixturevalue(exname)[1]
    root = root_context(alg)
    for owner, name in ((reduction, "_build_context"),
                        (reduction, "transport"),
                        (reduction, "end_algebra"),
                        (modules, "end_algebra"),
                        (algebra, "quotient_by_ideal")):
        monkeypatch.setattr(owner, name, _refuse(name))
    for t in range(1, alg.idempotents.shape[0] + 1):
        for tup in enumerate_ordered(root, t):
            seq = psi(root, tup)
            assert phi(root, seq) == tup
            assert phi(root, seq.root_pairs()) == tup


def _check_unsigned_complete(text, n, want):
    """Dropping the signs from psi's length-n outputs gives want complete
    sequences, each of exceptional modules (End = k, no self-extension)
    with no Hom or Ext^1 from a later entry to an earlier one."""
    root = root_context(parse_algebra(text)[1])
    reg = root.registry
    unsigned = {tuple(reg.ensure(m) for m, _ in psi(root, tup).root_pairs())
                for tup in enumerate_ordered(root, n)}
    assert len(unsigned) == want
    for i in set().union(*unsigned):
        assert hom_dim(reg.module(i), reg.module(i)) == 1
        assert ext1_dim(reg.module(i), reg.module(i)) == 0
    for ids in unsigned:
        mods = [reg.module(i) for i in ids]
        for i, j in itertools.combinations(range(n), 2):
            assert hom_dim(mods[j], mods[i]) == 0
            assert ext1_dim(mods[j], mods[i]) == 0


@pytest.mark.parametrize("n,want", [(2, 3), (3, 16), (4, 125)])
def test_unsigned_complete_sequences_of_linear_a(n, want):
    # Seidel (2001): linear A_n has (n+1)^(n-1) complete exceptional
    # sequences; psi's outputs give each of them, and only those
    _check_unsigned_complete(linear_quiver_text(n), n, want)


@pytest.mark.parametrize("alt", [False, True])
def test_unsigned_complete_sequences_of_d4(alt):
    # for a hereditary algebra the signed tau-exceptional sequences are
    # the signed exceptional sequences (Igusa-Todorov), and a Dynkin
    # quiver has n! h^n / |W| complete exceptional sequences (Obaid,
    # Nauman, Shammakh, Fakieh and Ringel): 4! 6^4 / 192 = 162 for D4
    _check_unsigned_complete(dynkin_text("D", 4, alt), 4, 162)


def _phi_by_chain(ctx, pairs):
    """phi by transport down the chain of the entries' own reducers."""
    last = level_item_from_pair(ctx, *pairs[-1])
    if len(pairs) == 1:
        return (last,)
    child = ctx.child(last)
    inner = _phi_by_chain(child, [(transport(child, m), sh)
                                  for m, sh in pairs[:-1]])
    return tuple(e_inverse(child, y) for y in inner) + (last,)


def _outcome(fn, root, pairs):
    try:
        return fn(root, pairs)
    except DomainError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("stem", ["root1", "root2", "root3"])
def test_phi_lookup_matches_the_chain_route(stem, request):
    root = request.getfixturevalue(stem)
    n = root.gamma.idempotents.shape[0]
    for t in range(1, n + 1):
        for tup, seq in enumerate_sequences(root, t):
            pairs = seq.root_pairs()
            assert sequences._phi_by_lookup(root, pairs) == tup
            assert _phi_by_chain(root, pairs) == tup


@pytest.mark.parametrize("exname,stem", [("ex1", "root1"), ("ex2", "root2"),
                                         ("ex3", "root3")])
def test_phi_errors_match_the_chain_route(exname, stem, request):
    # every ordered pair of fixture entries, shifted or not, the shifted
    # projectives and the zero module (the CLI snapshot's phi rows and
    # more), and on ex3 a fixed sample of triples: the same object or the
    # same DomainError message
    root = request.getfixturevalue(stem)
    _, alg, mods = request.getfixturevalue(exname)
    entries = [(m, shift) for shift in (False, True) for m in mods.values()]
    entries += [(p, True) for p in proj_list(alg)]
    entries += [(zero_module(alg), False)]
    tuples = list(itertools.permutations(entries, 2))
    if exname == "ex3":
        tuples += random.Random(3).sample(
            list(itertools.permutations(entries, 3)), 300)
    outcomes = Counter()
    for pairs in tuples:
        want = _outcome(_phi_by_chain, root, list(pairs))
        assert _outcome(phi, root, list(pairs)) == want
        outcomes[want if isinstance(want, str) else "object"] += 1
    # every outcome occurs: an object and the three errors of a miss
    assert len(outcomes) == 4, outcomes


def test_phi_rejects_invalid_pairs_like_the_chain_route(root3, ex3):
    _, alg, mods = ex3
    m = mods
    cases = {
        # M is not in J(S2)
        "module is not an object of J(reducer)":
            [(m["M"], False), (m["S2"], False)],
        # I3 lies in J(I2) but is not tau-rigid there
        "module is not a registered tau-rigid level item":
            [(m["I3"], False), (m["I2"], False)],
        # S1 lies in J(S2) but is not projective there
        "module is not isomorphic to an indecomposable projective":
            [(m["S1"], True), (m["S2"], False)],
    }
    for message, pairs in cases.items():
        assert _outcome(phi, root3, pairs) == f"error: {message}"
        assert _outcome(_phi_by_chain, root3, pairs) == f"error: {message}"
    odd = [[(zero_module(alg), False)], [(m["S2"], True)],
           [(m["P1"], False)] * 2]
    for pairs in odd:
        assert _outcome(phi, root3, pairs) == \
            _outcome(_phi_by_chain, root3, pairs)
    # lists longer than the vertex count are refused by their length
    too_long = [[(m["S2"], False)] * 4,
                [(m["S3"], False), (m["P1"], False), (m["P2"], False),
                 (m["M"], False)]]
    for pairs in too_long:
        assert _outcome(phi, root3, pairs) == \
            "error: sequence length 4 is outside 1..3"

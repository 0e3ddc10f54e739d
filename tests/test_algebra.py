"""Quiver parsing, path algebra construction, and quotients."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rebased_algebra
from oracles import (bounded_path_search, dense_algebra_check, dense_mult,
                     dense_radical_rows, terms_of)
from tauseq.algebra import (StructAlgebra, algebra_invariants, parse_algebra,
                            parse_quiver, path_algebra, quotient_by_ideal,
                            quotient_by_idempotent_ideal,
                            two_sided_ideal_rows)
from tauseq.complexes import end_K, min_presentation
from tauseq.errors import DomainError, InputError
from tauseq.reduction import root_context


def linear_quiver_text(n, rad_square_zero=False):
    """Linear A_n, 1 -> 2 -> ... -> n, optionally with rad^2 = 0."""
    lines = ["field 32003"] + [f"vertex {v}" for v in range(1, n + 1)]
    lines += [f"arrow a{v} {v} {v + 1}" for v in range(1, n)]
    if rad_square_zero:
        lines += [f"rel a{v} a{v + 1}" for v in range(1, n - 1)]
    return "\n".join(lines) + "\n"


def test_invariants_of_the_three_examples(ex1, ex2, ex3):
    assert algebra_invariants(ex1[1]) == (2, 3, 1)
    assert algebra_invariants(ex2[1]) == (2, 5, 2)
    assert algebra_invariants(ex3[1]) == (3, 6, 3)


def test_idempotents_frame_the_arrows(ex3):
    qp, alg = ex3[0], ex3[1]
    eye = np.eye(alg.dim, dtype=np.int64)
    for name, src, dst in qp.arrows:
        x = eye[alg.labels.index(name)]
        s = qp.vertices.index(src)
        t = qp.vertices.index(dst)
        assert np.array_equal(alg.multiply(alg.idempotents[t], x), x)
        assert np.array_equal(alg.multiply(x, alg.idempotents[s]), x)


def test_relations_multiply_to_zero(ex3):
    qp, alg = ex3[0], ex3[1]
    eye = np.eye(alg.dim, dtype=np.int64)
    for rel in qp.relations:
        prod = eye[alg.labels.index(rel[0])]
        for name in rel[1:]:
            prod = alg.multiply(eye[alg.labels.index(name)], prod)
        assert not prod.any()


def test_longer_composite_survives_when_unrelated(ex2):
    # alpha: 1->2 then beta: 2->1 is a relation; the other composite
    # beta-then-alpha is a basis path of the 5-dimensional algebra
    qp, alg = ex2[0], ex2[1]
    eye = np.eye(alg.dim, dtype=np.int64)
    a = eye[alg.labels.index("alpha")]
    b = eye[alg.labels.index("beta")]
    assert not alg.multiply(b, a).any()
    assert alg.multiply(a, b).any()


def test_parse_rejects_bad_input():
    with pytest.raises(InputError):
        parse_quiver("field 32003\nvertex 1\nvertex 1\n")
    with pytest.raises(InputError):
        parse_quiver("field 32003\nvertex 1\narrow a 1 2\n")
    with pytest.raises(InputError):
        parse_quiver("field 32003\nvertex 1\nvertex 2\narrow a 1 2\n"
                     "rel a a\n")
    with pytest.raises((InputError, DomainError)):
        parse_algebra("field 15\nvertex 1\n")


def test_single_vertex_no_arrows():
    _, alg = parse_algebra("field 32003\nvertex 1\n")
    assert algebra_invariants(alg) == (1, 1, 0)


def test_quotient_by_idempotent_drops_one_vertex(ex3):
    alg = ex3[1]
    quot = quotient_by_idempotent_ideal(alg, 2)
    assert algebra_invariants(quot.algebra) == (2, 3, 1)
    assert quot.algebra.vertex_labels == ["1", "2"]
    # proj is a retraction of lift
    q = quot.algebra.dim
    assert np.array_equal((quot.proj @ quot.lift) % alg.p,
                          np.eye(q, dtype=np.int64))


def test_quotient_multiplication_descends(ex3):
    alg = ex3[1]
    quot = quotient_by_idempotent_ideal(alg, 0)
    bar, proj, lift = quot.algebra, quot.proj, quot.lift
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.integers(0, alg.p, alg.dim)
        y = rng.integers(0, alg.p, alg.dim)
        lhs = (proj @ alg.multiply(x, y)) % alg.p
        rhs = bar.multiply(proj @ x % alg.p, proj @ y % alg.p)
        assert np.array_equal(lhs, rhs)


def test_ideal_generated_by_idempotent_contains_flanked_paths(ex3):
    alg = ex3[1]
    rows = two_sided_ideal_rows(alg, [alg.idempotents[1]])
    # e2, alpha (into 2) and beta (out of 2) all lie in the ideal
    assert rows.shape[0] == 3
    quot = quotient_by_ideal(alg, rows)
    assert algebra_invariants(quot.algebra) == (2, 3, 1)
    # gamma survives: the quotient keeps the arrow 1 -> 3
    assert "gamma" in quot.algebra.labels


def test_quotient_of_everything_is_rejected(ex1):
    alg = ex1[1]
    rows = np.eye(alg.dim, dtype=np.int64)
    with pytest.raises(DomainError):
        quotient_by_ideal(alg, rows)


# -- sparse structure constants against the dense einsum formulas ----------


def _oracle_algebras(ex1, ex2, ex3):
    _, alg3, mods3 = ex3
    parts = [min_presentation(mods3[n]) for n in ("M", "N", "I2", "S2")]
    return [ex1[1], ex2[1], alg3, rebased_algebra(alg3, 3),
            parse_algebra(linear_quiver_text(5))[1],
            parse_algebra(linear_quiver_text(4, rad_square_zero=True))[1],
            end_K(parts)[0].struct]


def test_products_match_the_dense_formulas(ex1, ex2, ex3):
    rng = np.random.default_rng(11)
    for alg in _oracle_algebras(ex1, ex2, ex3):
        p, mult = alg.p, dense_mult(alg)
        for _ in range(5):
            x = rng.integers(0, p, alg.dim)
            y = rng.integers(0, p, alg.dim)
            xy = np.einsum("i,j,ijk->k", x, y, mult.astype(object)) % p
            assert np.array_equal(alg.multiply(x, y), xy.astype(np.int64))
            left = np.einsum("i,ijk->kj", x, mult) % p
            right = np.einsum("j,ijk->ki", y, mult) % p
            assert np.array_equal(alg.left_mult_matrix(x), left)
            assert np.array_equal(alg.right_mult_matrix(y), right)


def test_batched_power_matches_the_row_loop(ex3):
    alg3 = ex3[1]
    rng = np.random.default_rng(13)
    for alg in (alg3, rebased_algebra(alg3, 3),
                parse_algebra(linear_quiver_text(5))[1]):
        rows = np.vstack([np.eye(alg.dim, dtype=np.int64),
                          rng.integers(0, alg.p, (4, alg.dim))])
        for e in (0, 1, 2, 5, alg.p):
            loop = np.array([alg.power(r, e) for r in rows])
            assert np.array_equal(alg.power(rows, e), loop)


def test_validation_rejects_a_non_associative_table():
    # b0 = 1, b1 * b1 = b1 + b2, b2 * b1 = b2 and nothing else:
    # (b1 b1) b1 = b1 + 2 b2 but b1 (b1 b1) = b1 + b2
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    for a in range(3):
        mult[0, a, a] = mult[a, 0, a] = 1
    mult[1, 1, 1] = mult[1, 1, 2] = 1
    mult[2, 1, 2] = 1
    with pytest.raises(DomainError, match="associative"):
        StructAlgebra(7, ["b0", "b1", "b2"], terms_of(mult),
                      np.eye(3, dtype=np.int64)[:1])


def test_root_context_multiplies_in_bulk(monkeypatch):
    # a return to per-pair multiplication loops shows as thousands of calls
    _, alg = parse_algebra(linear_quiver_text(3))
    calls = [0]
    dense = StructAlgebra.multiply

    def counted(self, x, y):
        calls[0] += 1
        return dense(self, x, y)

    monkeypatch.setattr(StructAlgebra, "multiply", counted)
    root = root_context(alg)
    assert len(root.stt_objects) == 14
    assert calls[0] <= 2000


# -- sparse construction checks against the dense oracles -------------------


def _constructed_algebras(ex1, ex2, ex3):
    """The output of every constructor: path algebras, quotients, matrix
    algebras (End rings of modules) and an End ring in K^b(proj)."""
    from tauseq.modules import end_algebra

    alg3, mods3 = ex3[1], ex3[2]
    algs = [ex1[1], ex2[1], alg3, rebased_algebra(alg3, 3)]
    algs += [parse_algebra(linear_quiver_text(n, rad2))[1]
             for n in range(2, 7) for rad2 in (False, True)]
    algs += [quotient_by_idempotent_ideal(alg3, k).algebra for k in range(3)]
    a4 = parse_algebra(linear_quiver_text(4))[1]
    path = np.eye(a4.dim, dtype=np.int64)[a4.labels.index("a1*a2")]
    algs.append(quotient_by_ideal(a4, two_sided_ideal_rows(a4, [path]))
                .algebra)
    algs.append(end_algebra([mods3[n] for n in ("N", "M", "P1")]).struct)
    algs.append(end_algebra([mods3["P1"], mods3["P1"]]).struct)
    parts = [min_presentation(mods3[n]) for n in ("M", "N", "I2", "S2")]
    algs.append(end_K(parts)[0].struct)
    return algs


def _sparse_verdict(p, labels, table, idem, unit):
    try:
        StructAlgebra(p, labels, terms_of(table), idem, unit=unit)
    except DomainError as exc:
        return str(exc)
    return None


def _perturbed(rng, table, idem, unit, p):
    """Copies with one or two entries of the table, the idempotents or the
    unit changed: shifted by a random nonzero amount, or zeroed."""
    table, idem, unit = table.copy(), idem.copy(), unit.copy()
    for _ in range(rng.integers(1, 3)):
        r = rng.random()
        flat = (table if r < 0.8 else idem if r < 0.92 else unit).reshape(-1)
        nz = np.flatnonzero(flat)
        pos = (rng.choice(nz) if len(nz) and rng.random() < 0.5
               else rng.integers(len(flat)))
        if flat[pos] and rng.random() < 0.3:
            flat[pos] = 0
        else:
            flat[pos] = (flat[pos] + rng.integers(1, p)) % p
    return table, idem, unit


def test_sparse_checks_agree_with_the_dense_oracle(ex1, ex2, ex3):
    algs = _constructed_algebras(ex1, ex2, ex3)
    for alg in algs:
        table = dense_mult(alg)
        args = (alg.p, alg.labels, table, alg.idempotents, alg.unit)
        assert _sparse_verdict(*args) is None
        assert dense_algebra_check(*args[:1], *args[2:]) is None
        assert np.array_equal(alg.radical_rows(),
                              dense_radical_rows(table, alg.p))
    rng = np.random.default_rng(29)
    small = [alg for alg in algs if alg.dim <= 21]
    verdicts = {}
    for _ in range(1200):
        alg = small[rng.integers(len(small))]
        table, idem, unit = _perturbed(rng, dense_mult(alg), alg.idempotents,
                                       alg.unit, alg.p)
        want = dense_algebra_check(alg.p, table, idem, unit)
        assert _sparse_verdict(alg.p, alg.labels, table, idem, unit) == want
        verdicts[want] = verdicts.get(want, 0) + 1
    # every verdict occurs, so each check is compared on inputs it rejects
    assert set(verdicts) == {
        None, "multiplication is not associative", "unit law fails",
        "distinguished idempotents are not orthogonal",
        "idempotents do not sum to the unit"}, verdicts


@pytest.mark.parametrize("size", [97, 1 << 20])
def test_join_and_key_sums_match_plain_loops(size):
    # sizes on both sides of the dense/sorted switch, with many repeats
    from tauseq.algebra import _SMALL, _join, _sum_by_key

    rng = np.random.default_rng(size)
    pool = rng.choice(size, 40, replace=False)
    for n in (5, 300):
        left, right = rng.choice(pool, n), rng.choice(pool, n + 7)
        a, b = _join(left, right, size)
        assert list(zip(a.tolist(), b.tolist())) == [
            (x, y) for x in range(n) for y in range(n + 7)
            if left[x] == right[y]]
    assert (len(left) * len(right) > _SMALL) == (n == 300)
    p = 101
    keys = rng.choice(pool, 500)
    vals = rng.integers(-3 * p, 3 * p, 500)
    vals[keys == pool[0]] = 0  # a key whose sum is zero drops out
    sums = {}
    for key, val in zip(keys.tolist(), vals.tolist()):
        sums[key] = (sums.get(key, 0) + val) % p
    got_keys, got = _sum_by_key(keys, vals, p, size)
    assert (size > _SMALL) == (size == 1 << 20)
    assert list(zip(got_keys.tolist(), got.tolist())) == sorted(
        (key, val) for key, val in sums.items() if val)


def test_linear_a18_keeps_only_its_nonzero_constants():
    # one constant per pair of composable paths: C(n + 2, 3) of them
    _, alg = parse_algebra(linear_quiver_text(18))
    assert alg.invariants() == (18, 171, 17)
    assert len(alg.terms[0]) == 18 * 19 * 20 // 6


def test_terms_are_stored_sorted_merged_and_nonzero(ex3):
    alg = rebased_algebra(ex3[1], 3)  # constants other than 1
    i, j, k, c = alg.terms
    rng = np.random.default_rng(7)
    # each constant split in two, a pair that cancels, all shuffled
    half = rng.integers(1, alg.p, len(c))
    parts = [np.concatenate(x) for x in ((i, i, [0, 0]), (j, j, [1, 1]),
                                         (k, k, [2, 2]),
                                         (half, c - half, [3, alg.p - 3]))]
    perm = rng.permutation(len(parts[0]))
    again = StructAlgebra(alg.p, alg.labels, [x[perm] for x in parts],
                          alg.idempotents)
    assert all(np.array_equal(x, y) for x, y in zip(again.terms, alg.terms))
    for bad in (alg.dim, -1):
        with pytest.raises(DomainError, match="index out of range"):
            StructAlgebra(alg.p, alg.labels, (i, j, np.append(k[1:], bad), c),
                          alg.idempotents)


def test_radical_products_do_not_depend_on_the_chunk_size(monkeypatch, ex3):
    import tauseq.algebra as algebra_module

    algs = [rebased_algebra(ex3[1], 3),
            parse_algebra(linear_quiver_text(6))[1],
            parse_algebra(linear_quiver_text(6, rad_square_zero=True))[1]]
    whole = [alg._radical_products() for alg in algs]
    monkeypatch.setattr(algebra_module, "_JOIN_ROWS", 8)
    for alg, want in zip(algs, whole):
        fresh = StructAlgebra(alg.p, alg.labels, alg.terms, alg.idempotents)
        assert np.array_equal(fresh._radical_products(), want)


@st.composite
def monomial_quiver_texts(draw):
    """Algebra text of an acyclic quiver on up to 4 vertices with up to 5
    arrows (parallel arrows allowed) and monomial relations of length 2 or
    3, with its arrow count."""
    n = draw(st.integers(1, 4))
    ends = [(s, t) for s, t in draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n)), max_size=5)) if s < t]
    lines = ["field 32003"] + [f"vertex {v}" for v in range(1, n + 1)]
    lines += [f"arrow x{a} {s} {t}" for a, (s, t) in enumerate(ends)]
    for _ in range(draw(st.integers(0, 6))):
        path = [draw(st.integers(0, len(ends) - 1))] if ends else []
        for _ in range(draw(st.integers(1, 2)) if path else 0):
            nxt = [a for a, (s, _) in enumerate(ends)
                   if s == ends[path[-1]][1]]
            if not nxt:
                break
            path.append(draw(st.sampled_from(nxt)))
        if len(path) >= 2:
            lines.append("rel " + " ".join(f"x{a}" for a in path))
    return "\n".join(lines) + "\n", len(ends)


@settings(max_examples=60, deadline=None)
@given(monomial_quiver_texts())
def test_generated_path_algebras_pass_the_dense_oracles(case):
    text, arrows = case
    _, alg = parse_algebra(text)
    table = dense_mult(alg)
    assert dense_algebra_check(alg.p, table, alg.idempotents, alg.unit) is None
    assert np.array_equal(alg.radical_rows(), dense_radical_rows(table, alg.p))
    # relations have length >= 2, so every arrow survives in rad / rad^2
    assert alg.arrow_count() == arrows


@st.composite
def cyclic_quiver_texts(draw):
    """Algebra text of a quiver on up to 3 vertices with up to 5 arrows,
    loops and 2-cycles allowed, and monomial relations of length 2 or 3."""
    n = draw(st.integers(1, 3))
    ends = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                         max_size=5))
    lines = ["field 32003"] + [f"vertex {v}" for v in range(1, n + 1)]
    lines += [f"arrow x{a} {s} {t}" for a, (s, t) in enumerate(ends)]
    for _ in range(draw(st.integers(0, 6)) if ends else 0):
        path = [draw(st.integers(0, len(ends) - 1))]
        for _ in range(draw(st.integers(1, 2))):
            nxt = [a for a, (s, _) in enumerate(ends)
                   if s == ends[path[-1]][1]]
            if not nxt:
                break
            path.append(draw(st.sampled_from(nxt)))
        if len(path) >= 2:
            lines.append("rel " + " ".join(f"x{a}" for a in path))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(cyclic_quiver_texts())
def test_path_basis_finiteness_matches_the_bounded_search(text):
    # the basis is infinite exactly when the old length-bounded walk says
    # so; draws whose walk passes 2,000 paths first are skipped
    want = bounded_path_search(parse_quiver(text), 2000)
    assume(want is not None)
    if want == "infinite":
        with pytest.raises(InputError, match="path basis is infinite"):
            parse_algebra(text)
        return
    _, alg = parse_algebra(text)
    assert sorted((src, seq) for src, _, seq in alg.path_info) == want
    assert dense_algebra_check(alg.p, dense_mult(alg), alg.idempotents,
                               alg.unit) is None

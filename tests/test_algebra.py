"""Quiver parsing, path algebra construction, and quotients."""

import numpy as np
import pytest

from conftest import rebased_algebra
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
        p, mult = alg.p, alg.mult
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
        StructAlgebra(7, ["b0", "b1", "b2"], mult, np.eye(3, dtype=np.int64)[:1])


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

"""Exact linear algebra over F_p: row reduction, spans, the span solver
and polynomial evaluation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import kernel_basis_by_loop, rref_by_row_loop
from tauseq import linalg
from tauseq.errors import DomainError

P = 97  # small prime keeps hypothesis examples readable


def mats(rows, cols):
    return arrays(np.int64, (rows, cols), elements=st.integers(0, P - 1))


@given(st.integers(2, 40))
def test_is_prime_agrees_with_trial_division(n):
    naive = n > 1 and all(n % d for d in range(2, n))
    assert linalg.is_prime(n) == naive


def test_is_prime_matches_a_sieve():
    sieve = [True] * 5000
    sieve[:2] = [False, False]
    for d in range(2, 71):
        sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [linalg.is_prime(n) for n in range(-3, 5000)] == [False] * 3 + sieve


def test_check_prime_rejects_composites():
    with pytest.raises(Exception):
        linalg.check_prime(10)
    assert linalg.check_prime(32003) == 32003


def test_check_prime_bounds_the_order():
    assert linalg.check_prime(65521) == 65521  # the largest prime < 2^16
    for p in (65537, 1000000000039, 2 ** 16):
        with pytest.raises(DomainError, match=r"not below 2\^16"):
            linalg.check_prime(p)


@settings(max_examples=60)
@given(mats(4, 5))
def test_rref_pivots_match_rank_and_row_space_is_stable(a):
    r, piv = linalg.rref(a, P)
    assert len(piv) == linalg.rank(a, P)
    rs = linalg.row_space(a, P)
    assert rs.shape[0] == len(piv)
    assert np.array_equal(linalg.row_space(rs, P), rs)


def _extend_by_rank(base, cands):
    """Keep each candidate that raises the rank of everything kept so far."""
    cur, kept = base, []
    for i, row in enumerate(cands):
        stacked = np.vstack([cur, row[None]])
        if linalg.rank(stacked, P) > linalg.rank(cur, P):
            cur = stacked
            kept.append(i)
    return kept


@settings(max_examples=80)
@given(st.integers(0, 3), st.integers(0, 5), st.integers(0, 4), st.data())
def test_extend_basis_matches_rank_per_candidate(nb, nc, width, data):
    elems = st.sampled_from([0, 1, 2, P - 1])
    base = data.draw(arrays(np.int64, (nb, width), elements=elems))
    cands = data.draw(arrays(np.int64, (nc, width), elements=elems))
    assert linalg.extend_basis(base, cands, P) == _extend_by_rank(base, cands)


@pytest.mark.parametrize("base,cands,want", [
    (np.zeros((0, 2)), [[1, 2], [2, 4], [0, 1]], [0, 2]),  # empty base
    ([[1, 0, 0]], np.zeros((0, 3)), []),                   # no candidates
    ([[1, 0]], [[0, 0], [2, 0], [0, 5]], [2]),             # zero rows
    (np.zeros((2, 0)), np.zeros((3, 0)), []),              # width 0
])
def test_extend_basis_edge_shapes(base, cands, want):
    base = np.array(base, dtype=np.int64)
    cands = np.array(cands, dtype=np.int64)
    assert linalg.extend_basis(base, cands, P) == want
    assert _extend_by_rank(base, cands) == want


@settings(max_examples=60)
@given(mats(4, 5))
def test_rank_nullity(a):
    k = linalg.kernel_basis(a, P)
    assert linalg.rank(a, P) + k.shape[0] == a.shape[1]
    if k.shape[0]:
        assert not ((a @ k.T) % P).any()


@settings(max_examples=60)
@given(mats(5, 4), mats(5, 1))
def test_solve_consistency(a, b):
    # a @ x = b asks for b's coordinates in the rows of a's transpose
    b = b[:, 0]
    x = linalg.SpanSolver(a.T, P).coords(b)
    in_span = linalg.rank(a, P) == linalg.rank(
        np.hstack([a, b[:, None]]).T, P)
    if x is None:
        assert not in_span
    else:
        assert np.array_equal((a @ x) % P, b % P)


@settings(max_examples=40)
@given(mats(4, 4))
def test_inverse_round_trip(a):
    # the inverse is the identity's coordinates in a's rows
    eye = np.eye(4, dtype=np.int64)
    inv = linalg.SpanSolver(a, P).coords(eye)
    if linalg.rank(a, P) < 4:
        assert inv is None
        return
    assert np.array_equal((inv @ a) % P, eye)
    assert np.array_equal((a @ inv) % P, np.eye(4, dtype=np.int64))


@settings(max_examples=60)
@given(mats(3, 6), st.lists(st.integers(0, P - 1), min_size=3, max_size=3))
def test_span_solver_matches_membership(rows, coeffs):
    solver = linalg.SpanSolver(rows, P)
    v = (np.array(coeffs) @ rows) % P
    c = solver.coords(v)
    assert c is not None
    assert np.array_equal((np.asarray(c) @ rows) % P, v)
    # a batch of vectors gives each vector's coordinates
    w = (3 * v + rows[0]) % P
    assert np.array_equal(solver.coords(np.stack([v, w])),
                          np.stack([c, solver.coords(w)]))


def test_span_solver_rejects_outside_vector():
    rows = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    solver = linalg.SpanSolver(rows, P)
    assert solver.coords(np.array([0, 0, 1])) is None
    assert solver.coords(np.array([[1, 0, 0], [0, 0, 1]])) is None


def _kernel_inputs():
    """Empty shapes, RREF matrices and random ones of every rank."""
    rng = np.random.default_rng(11)
    yield from (np.zeros(s, dtype=np.int64)
                for s in [(0, 5), (5, 0), (0, 0), (1, 1), (3, 3)])
    for rows, cols, rank in [(2, 5, 2), (4, 4, 2), (6, 3, 3), (5, 8, 1),
                             (7, 7, 7), (3, 9, 0)]:
        a = (rng.integers(0, P, (rows, rank)) @
             rng.integers(0, P, (rank, cols))) % P
        yield a
        yield linalg.rref(a, P)[0]
        yield linalg.rref(a, P)[0][:, ::-1]


def test_kernel_basis_matches_the_column_loop():
    for a in _kernel_inputs():
        want = kernel_basis_by_loop(a, P)
        got = linalg.kernel_basis(a, P)
        assert got.dtype == np.int64 and np.array_equal(got, want), a.shape
        assert not ((a @ got.T) % P).any()


@pytest.mark.parametrize("list_cols", [linalg.LIST_COLS, -1, 40],
                         ids=["by-width", "numpy-rows", "int-lists"])
def test_complement_rows_kernels_match_the_column_loop(list_cols):
    """Either kernel gives the column loop's rows and the free columns as
    int64 arrays, for pivots passed as a list or as an array."""
    rng = np.random.default_rng(12)
    wide = [rng.integers(0, P, (r, c)) * (rng.random((r, c)) < .3)
            for r, c in [(3, 32), (20, 33), (1, 40), (0, 33)]]
    for a in [*_kernel_inputs(), *wide]:
        r, piv = linalg.rref(a, P)
        want = kernel_basis_by_loop(a, P)
        free = [c for c in range(a.shape[1]) if c not in piv]
        for pivots in (piv, np.array(piv, dtype=np.int64)):
            with mock.patch.object(linalg, "LIST_COLS", list_cols):
                rows, got = linalg.complement_rows(r, pivots, P)
            assert rows.dtype == got.dtype == np.int64, a.shape
            assert np.array_equal(rows, want) and got.tolist() == free


def _rref_input(rows, cols, p, kind, seed):
    """A seeded (rows, cols) matrix over F_p: mostly zeros, entries across
    [0, p), or a product through an inner dimension of at most 3."""
    rng = np.random.default_rng(seed)
    if kind == "sparse":
        return rng.integers(1, p, (rows, cols)) * (rng.random((rows, cols)) < .1)
    if kind == "full":
        return rng.integers(0, p, (rows, cols))
    inner = int(rng.integers(0, 4))
    return rng.integers(0, p, (rows, inner)) @ rng.integers(0, p, (inner, cols))


WIDTHS = st.one_of(st.sampled_from([linalg.LIST_COLS, linalg.LIST_COLS + 1]),
                   st.integers(0, 40))


@pytest.mark.parametrize("list_cols", [linalg.LIST_COLS, -1, 40],
                         ids=["by-width", "numpy-rows", "int-lists"])
@settings(max_examples=80, deadline=None)
@given(st.integers(0, 40), WIDTHS, st.sampled_from([2, 97, 65521]),
       st.sampled_from(["sparse", "full", "low-rank"]),
       st.integers(0, 2 ** 32 - 1))
@example(32, 32, 65521, "full", 0)
@example(33, 33, 2, "full", 1)
@example(40, 32, 97, "sparse", 2)
@example(20, 33, 65521, "low-rank", 3)
@example(0, 33, 2, "full", 4)
@example(5, 0, 97, "full", 5)
def test_rref_kernels_match_the_row_loop(list_cols, rows, cols, p, kind,
                                         seed):
    """Either kernel, on either side of LIST_COLS, gives the row loop's RREF
    and pivots as a new int64 array and leaves its input as it was."""
    a = _rref_input(rows, cols, p, kind, seed)
    before = a.copy()
    want, want_piv = rref_by_row_loop(a, p)
    with mock.patch.object(linalg, "LIST_COLS", list_cols):
        got, piv = linalg.rref(a, p)
    assert got.dtype == np.int64 and got.shape == (rows, cols)
    assert np.array_equal(got, want) and piv == want_piv
    assert np.array_equal(a, before) and not np.shares_memory(got, a)


def _same(got, want):
    """Equal results: both None, equal ints, or int64 arrays of one shape
    with equal entries."""
    if want is None or isinstance(want, int):
        return got == want
    return got is not None and got.dtype == want.dtype == np.int64 and \
        got.shape == want.shape and np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 40), WIDTHS, st.sampled_from([2, 97, 65521]),
       st.sampled_from(["sparse", "full", "low-rank"]), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
@example(0, 33, 97, "full", 1, 0)
@example(3, 0, 2, "full", 2, 1)
@example(33, 33, 65521, "low-rank", 3, 2)
@example(32, 32, 2, "full", 1, 3)
def test_routines_on_unreduced_input_match_reduced_input(rows, cols, p, kind,
                                                         k, seed):
    """rref reduces every input once, for every routine built on it: on
    int64 entries in [-3p, 3p), each routine gives exactly what it gives on
    the entries mod p."""
    rng = np.random.default_rng(seed)

    def lift(r):  # a representative in [-3p, 3p) of each entry of r mod p
        return r % p + p * rng.integers(-3, 3, np.shape(r))

    red = _rref_input(rows, cols, p, kind, seed) % p
    a = lift(red)
    assert linalg.rank(a, p) == linalg.rank(red, p)
    for fn in (linalg.row_space, linalg.kernel_basis):
        assert _same(fn(a, p), fn(red, p)), fn.__name__
    # row vectors in the span of a (a batch of k) and at random
    lifted, reduced = linalg.SpanSolver(a, p), linalg.SpanSolver(red, p)
    for v in ((rng.integers(0, p, (k, rows)) @ red) % p,
              rng.integers(0, p, (k, cols)), rng.integers(0, p, cols)):
        assert _same(lifted.coords(lift(v)), reduced.coords(v))

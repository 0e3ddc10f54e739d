"""Shared fixtures: the three bundled example algebras, their named module
files, and session-scoped root contexts (enumeration is the slow part)."""

import pathlib

import numpy as np
import pytest
from hypothesis import strategies as st

from oracles import dense_mult, terms_of
from tauseq import linalg
from tauseq.algebra import StructAlgebra, parse_algebra
from tauseq.modules import parse_modules
from tauseq.reduction import root_context

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load_example(stem):
    qp, alg = parse_algebra((FIXDIR / f"{stem}.alg").read_text())
    mods = parse_modules((FIXDIR / f"{stem}.mods").read_text(), qp, alg)
    return qp, alg, mods


@pytest.fixture(scope="session")
def ex1():
    return load_example("ex1")


@pytest.fixture(scope="session")
def ex2():
    return load_example("ex2")


@pytest.fixture(scope="session")
def ex3():
    return load_example("ex3")


def _root_with_names(alg, mods):
    from tauseq.tautilt import Registry

    reg = Registry(alg)
    for name, m in mods.items():
        reg.ensure(m, name=name)
    return root_context(alg, registry=reg)


@pytest.fixture(scope="session")
def root1(ex1):
    _, alg, mods = ex1
    return _root_with_names(alg, mods)


@pytest.fixture(scope="session")
def root2(ex2):
    _, alg, mods = ex2
    return _root_with_names(alg, mods)


@pytest.fixture(scope="session")
def root3(ex3):
    _, alg, mods = ex3
    return _root_with_names(alg, mods)


def item_of(root, mods, name):
    """Registry item for a named fixture module (or NAME[1] for shifts)."""
    from tauseq.reduction import _find_proj_vertex

    if name.endswith("[1]"):
        m = mods[name[:-3]]
        return ("p", _find_proj_vertex(root.gamma, m))
    idx = root.registry.find(mods[name])
    assert idx is not None, name
    return ("m", idx)


def nakayama_text(n, ell):
    """The self-injective Nakayama algebra: the cyclic quiver 1 -> 2 ->
    ... -> n -> 1 with every path of length ell zero."""
    lines = ["field 32003"] + [f"vertex {v}" for v in range(1, n + 1)]
    lines += [f"arrow c{v} {v} {v % n + 1}" for v in range(1, n + 1)]
    lines += ["rel " + " ".join(f"c{(v + s - 1) % n + 1}" for s in range(ell))
              for v in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def dynkin_arrows(kind, n, alt=False):
    """The arrows (source, target) of D_n or E_n on vertices 0..n-1.  D_n
    is the path 1 -> ... -> n-2 with arrows n-2 -> n-1 and n-2 -> n; E_n
    is the path 1 -> ... -> n-1 with an arrow 3 -> n (vertices counted
    from 1).  alt reverses every second arrow of that list."""
    ends = [(v, v + 1) for v in range(n - 2)]
    ends.append((n - 3 if kind == "D" else 2, n - 1))
    return [(t, s) if alt and a % 2 else (s, t)
            for a, (s, t) in enumerate(ends)]


def quiver_text(n, arrows):
    """The path algebra, with no relations, of the quiver on vertices
    1..n with these arrows (source, target) counted from 0."""
    lines = ["field 32003"] + [f"vertex {v}" for v in range(1, n + 1)]
    lines += [f"arrow x{a} {s + 1} {t + 1}" for a, (s, t) in enumerate(arrows)]
    return "\n".join(lines) + "\n"


def dynkin_text(kind, n, alt=False):
    """The hereditary path algebra of D_n or E_n (`dynkin_arrows`)."""
    return quiver_text(n, dynkin_arrows(kind, n, alt))


def rebased_algebra(alg, seed):
    """alg in a random basis: dense structure constants, so many terms
    share each pair (i, j) and each bin k."""
    p = alg.p
    rng = np.random.default_rng(seed)
    ginv = None
    while ginv is None:  # the identity's coordinates in g's rows
        g = rng.integers(0, p, (alg.dim, alg.dim))
        ginv = linalg.SpanSolver(g, p).coords(np.eye(alg.dim, dtype=np.int64))
    g, ginv = g.astype(object), ginv.astype(object)
    mult = np.einsum("ia,jb,abk->ijk", g, g,
                     dense_mult(alg).astype(object)) % p
    mult = np.einsum("ijk,kl->ijl", mult, ginv) % p
    idem = (alg.idempotents.astype(object) @ ginv) % p
    return StructAlgebra(p, alg.labels, terms_of(mult.astype(np.int64)),
                         idem.astype(np.int64))


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

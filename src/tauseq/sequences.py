"""Signed tau-exceptional sequences: the bijection with ordered support
tau-rigid objects (both directions), independent validation of candidate
sequences, and listing and counting by the cliques of the root's rows.

An ordered object is a tuple of root-level items.  A sequence entry is a
(record, root item) pair: entry i of psi(T_1, .., T_t) is T_i with the
reduction.SetRecord of S = {T_{i+1}, .., T_t}, which realizes E_S(T_i) as an
ambient module, possibly shifted once (the last entry uses the root, as E
of the empty set is the identity).  psi and phi read these records off the
root in one step and build no reduced algebra; validate_sequence checks the
recursive definition down a chain of reduced algebras instead, so it does
not share psi's route.
"""

import itertools
import math

from . import reduction as red
from .errors import DomainError
from .modules import is_local_endo
from .tautilt import _items_support_tau_rigid, is_tau_rigid


class SignedSequence:
    """Entries (record, root item), innermost level first."""

    def __init__(self, entries):
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def root_pairs(self):
        """[(ambient module, shift flag)] for each entry."""
        return [ctx.realize_item(item) for ctx, item in self.entries]

    def names(self, root_registry):
        return [ctx.display_root(item, root_registry)
                for ctx, item in self.entries]


def _as_root(ctx_or_alg):
    if isinstance(ctx_or_alg, red.WideContext):
        if not ctx_or_alg.is_root:
            raise DomainError("sequence operations start from a root context")
        return ctx_or_alg
    return red.root_context(ctx_or_alg)


def _check_ordered(root, items):
    n = root.gamma.idempotents.shape[0]
    if not 1 <= len(items) <= n:
        raise DomainError("ordered object length must be between 1 and the "
                          "number of vertices")
    if len(set(items)) != len(items):
        raise DomainError("ordered object has a repeated summand")
    for it in items:
        if it not in root.level_items:
            raise DomainError("summand is not a registered tau-rigid item")
    if not _items_support_tau_rigid(root.registry, list(items)):
        raise DomainError("underlying object is not support tau-rigid")


def psi(root, ordered):
    """The sequence (U_1, .., U_t) attached to an ordered object
    (T_1, .., T_t): U_i = E_S(T_i) for S = {T_{i+1}, .., T_t}, so
    U_t = T_t."""
    root = _as_root(root)
    ordered = [root.registry.signed_item(x) if not isinstance(x, tuple)
               else x for x in ordered]
    _check_ordered(root, ordered)
    return SignedSequence([
        (red.set_record(root, frozenset(ordered[i + 1:])), x)
        for i, x in enumerate(ordered)])


def phi(root, seq):
    """Inverse of psi: a SignedSequence, or a list of (ambient module,
    shift) pairs, back to the tuple of root-level items."""
    root = _as_root(root)
    if isinstance(seq, SignedSequence):
        return tuple(item for _, item in seq.entries)
    pairs = list(seq)
    n = root.gamma.idempotents.shape[0]
    if not pairs:
        raise DomainError("empty sequence")
    if len(pairs) > n:
        raise DomainError(f"sequence length {len(pairs)} is outside 1..{n}")
    return _phi_by_lookup(root, pairs)


def _phi_by_lookup(root, pairs):
    """Name each pair, last first, by the root item x with E_S(x) realized
    by it, S the set of later entries' root items.  A matched pair lies in
    J of every later entry, so only a miss is examined further."""
    out = []
    for module, shift in reversed(pairs):
        item = red.set_record(root, frozenset(out)).match(module, shift)
        if item is None:
            raise _phi_miss(root, pairs, out)
        out.append(item)
    return tuple(out[::-1])


def _phi_miss(root, pairs, named):
    """The error a walk down the chain of reductions raises first when the
    pair before those that name the root items `named` matches nothing: a
    pair up to it lies outside J of a named item (J(S + u) = J(S) meet J(u)
    in mod A), else that pair is not an item at its level."""
    rest = pairs[:len(pairs) - len(named)]
    if not all(red.j_membership(root.registry.item_signed(it), m)
               for it in named for m, _ in rest):
        return DomainError("module is not an object of J(reducer)")
    if rest[-1][1]:
        return DomainError("module is not isomorphic to an indecomposable "
                           "projective")
    return DomainError("module is not a registered tau-rigid level item")


def validate_sequence(root, pairs):
    """Check the recursive definition directly, without psi.

    pairs: [(ambient module, shift flag)].  The last entry must be tau-rigid
    at the current level (shifted entries must be indecomposable
    projectives); the prefix must lie in J(last) and validate one level
    down, transported.  Returns (ok, diagnosis).
    """
    root = _as_root(root)
    n = root.gamma.idempotents.shape[0]
    if not 1 <= len(pairs) <= n:
        return False, (f"length {len(pairs)} is outside 1..{n}")
    return _validate(root, list(pairs), len(pairs))


def _validate(ctx, pairs, total):
    pos = len(pairs)
    m, shift = pairs[-1]
    if not shift:
        if m.dim == 0:
            return False, f"entry {pos}: zero module"
        if not is_local_endo(m):
            return False, f"entry {pos}: not indecomposable"
        if not is_tau_rigid(m):
            return False, f"entry {pos}: not tau-rigid at its level"
    try:
        item = red.level_item_from_pair(ctx, m, shift)
    except DomainError:
        return False, f"entry {pos}: " + (
            "shifted entry is not an indecomposable projective at its level"
            if shift else "not a registered tau-rigid item")
    if len(pairs) == 1:
        return True, "valid"
    child = ctx.child(item)
    lifted = []
    for j, (x, xsh) in enumerate(pairs[:-1]):
        try:
            # a shift tag names a projective at the entry's own level, so
            # only the module transports
            lifted.append((red.transport(child, x), xsh))
        except DomainError as exc:
            return False, f"entry {j + 1}: {exc}"
    return _validate(child, lifted, total)


def _core(root, t):
    """The root's registry, once t is a length in 1..n."""
    reg = _as_root(root).registry
    if not 1 <= t <= reg.n:
        raise DomainError(f"length {t} is outside 1..{reg.n}")
    return reg


def enumerate_unordered(root, t):
    """All support tau-rigid objects with t summands, as sorted item tuples
    in lexicographic registry order: the t-cliques of the root's rows."""
    return _core(root, t).cliques(t)


def enumerate_ordered(root, t):
    """All ordered support tau-rigid objects of length t, as item tuples in
    lexicographic registry order."""
    return sorted(perm for sub in enumerate_unordered(root, t)
                  for perm in itertools.permutations(sub))


def enumerate_sequences(root, t):
    """[(ordered object, its sequence)] for every ordered object."""
    root = _as_root(root)
    return [(tup, psi(root, tup)) for tup in enumerate_ordered(root, t)]


def count_sequences(root, t):
    """(total, per-last-entry counts) over ordered objects of length t:
    t! times the t-cliques of the root's rows, and (t-1)! times the
    (t-1)-cliques in the row of the last entry x, less x; none is listed."""
    reg, f = _core(root, t), math.factorial
    per_last = {x: f(t - 1) * k for (x,) in reg.cliques(1) if (k := sum(
        reg.face_numbers(reg.mask(x) & ~reg.bits([x]))[t - 1:t]))}
    return f(t) * sum(reg.face_numbers(reg.rigid)[t:t + 1]), per_last


def sequence_names(root, seq):
    return seq.names(root.registry)


def ordered_names(root, items):
    return [root.display_root(it, root.registry) for it in items]

"""Acceptance gate.

One test per criterion, each printing a single timed PASS/FAIL line (run
with ``pytest tests/test_acceptance.py -v -s`` to see every line).  The
expected values are the externally supplied reference numbers; where the
engine disagrees with them the test fails with an expected-vs-computed
message rather than being adjusted to pass.

Two reference entries were corrected because the source's own data
contradicts them, never from engine output: the length-3 total and the
counts ending in N and S1 for the third example (derived next to
``REF3_TOTAL``), and the claimed converse in criterion 5's ``nokernel``
check (see ``_c5_nokernel``).
"""

import io
import time
from contextlib import redirect_stdout
from importlib import resources

from conftest import _root_with_names, item_of, load_example
from oracles import (cone, cx_to_pair, h0, hminus1, item_cx, object_cx,
                     reduce_cx, shift_cx)
from test_reduction import GAMMA_SHAPES, J_TABLE
from test_sequences import GOLDEN_EX1, GOLDEN_EX2
from test_tautilt import _factors_through, _has_projective_summand

from tauseq import cli
from tauseq.algebra import algebra_invariants
from tauseq.complexes import (hom_K_dim, min_left_approx_K, min_presentation,
                              min_right_approx_K, proj_list, tau)
from tauseq.modules import (decompose_grouped, direct_sum, hom_basis,
                            hom_dim, in_gen, is_iso, min_left_approx,
                            min_right_approx, submodule,
                            torsion_free_quotient)
from tauseq.reduction import j_membership, transport
from tauseq.sequences import (count_sequences, enumerate_ordered,
                              enumerate_sequences, ordered_names, phi, psi,
                              sequence_names, validate_sequence)
from tauseq.tautilt import (bongartz, cobongartz, indec_tau_rigid_items,
                            is_tau_rigid, mutate)

# reference per-last-entry counts for length-3 sequences over the third
# example; the shift of the third projective prints as S3[1] because the
# simple at the sink vertex is projective (S3 = P3)
#
# The source gave a total of 100 and 4 apiece for N and S1; those cannot
# hold, and the values below follow from the source's other data alone:
# - the source's 54 length-2 sequences are 27 almost-complete objects in
#   both orders, each with exactly two completions (Adachi-Iyama-Reiten,
#   arXiv:1210.1036, Thm 2.18), so there are 2 * 54 = 108 of length 3,
#   a multiple of 3! as the rank-3 count must be (100 is not);
# - the count ending in X is 2 * |s-tau-tilt| of the rank-2 reduction at X
#   (Jasso, arXiv:1302.2709); a rank-2 exchange graph is a cycle through A
#   and A[1], which share no summand, so it has at least 4 vertices and
#   every per-last count is at least 8;
# - the other nine entries sum to 92, so N + S1 = 16 and each is 8.
REF2_TOTAL = 54
REF3_TOTAL = 108
REF3_PER_LAST = {
    "S2": 10, "S3": 10, "P1": 10, "P2": 10, "M": 10,
    "P1[1]": 10, "P2[1]": 10, "S3[1]": 10,
    "N": 8, "S1": 8, "I2": 12,
}


def _load(stem):
    _, alg, mods = load_example(stem)
    return alg, mods, _root_with_names(alg, mods)


def _criterion(num, label, limit, body):
    started = time.perf_counter()
    failures = body()
    elapsed = time.perf_counter() - started
    if limit is not None and elapsed >= limit:
        failures.append(f"runtime {elapsed:.2f}s exceeded the {limit}s budget")
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} {status} {label} [{elapsed:.2f}s]")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


def _rigid_mods(mods):
    return {k: m for k, m in mods.items() if is_tau_rigid(m)}


def _pair_iso(a, b):
    if not (a.is_two_term() and b.is_two_term()):
        return False
    ma, sa = cx_to_pair(a)
    mb, sb = cx_to_pair(b)
    if sorted(sa) != sorted(sb) or ma.dim != mb.dim:
        return False
    return ma.dim == 0 or is_iso(ma, mb)


def _summand_count(m):
    if m.dim == 0:
        return 0
    return sum(mult for _, mult in decompose_grouped(m))


# ---------------------------------------------------------------------------
# criteria 1-3: the worked examples
# ---------------------------------------------------------------------------


def test_criterion_1_example_1():
    def body():
        failures = []
        alg, mods, root = _load("ex1")
        if len(root.stt_objects) != 5:
            failures.append(f"unordered objects: expected 5, "
                            f"computed {len(root.stt_objects)}")
        ordered = enumerate_ordered(root, 2)
        if len(ordered) != 10:
            failures.append(f"ordered objects: expected 10, "
                            f"computed {len(ordered)}")
        table = {tuple(ordered_names(root, tup)):
                 tuple(seq.names(root.registry))
                 for tup, seq in enumerate_sequences(root, 2)}
        if table != GOLDEN_EX1:
            diff = set(table.items()) ^ set(GOLDEN_EX1.items())
            failures.append(f"psi table mismatch: {sorted(diff)}")
        return failures

    _criterion(1, "worked example 1 (A2 quiver)", 1, body)


def test_criterion_2_example_2():
    def body():
        failures = []
        alg, mods, root = _load("ex2")
        if len(root.stt_objects) != 6:
            failures.append(f"unordered objects: expected 6, "
                            f"computed {len(root.stt_objects)}")
        ordered = enumerate_ordered(root, 2)
        if len(ordered) != 12:
            failures.append(f"ordered objects: expected 12, "
                            f"computed {len(ordered)}")
        if is_tau_rigid(mods["I1"]):
            failures.append("I1 should not be tau-rigid")
        table = {tuple(ordered_names(root, tup)):
                 tuple(seq.names(root.registry))
                 for tup, seq in enumerate_sequences(root, 2)}
        if table != GOLDEN_EX2:
            diff = set(table.items()) ^ set(GOLDEN_EX2.items())
            failures.append(f"psi table mismatch: {sorted(diff)}")
        return failures

    _criterion(2, "worked example 2", 1, body)


def _ref3_consistency():
    """The reference table checked against itself (see REF3_TOTAL)."""
    failures = []
    if sum(REF3_PER_LAST.values()) != REF3_TOTAL:
        failures.append(f"reference per-last entries sum to "
                        f"{sum(REF3_PER_LAST.values())}, not {REF3_TOTAL}")
    if REF3_TOTAL != 2 * REF2_TOTAL:
        failures.append(f"reference total {REF3_TOTAL} is not twice the "
                        f"{REF2_TOTAL} length-2 sequences")
    if REF3_TOTAL % 6:
        failures.append(f"reference total {REF3_TOTAL} is not a multiple "
                        f"of 3! = 6")
    small = sorted(n for n, c in REF3_PER_LAST.items() if c < 8)
    if small:
        failures.append(f"reference per-last counts below 8: {small}")
    return failures


def test_criterion_3_example_3():
    def body():
        failures = _ref3_consistency()
        alg, mods, root = _load("ex3")
        total, per_last = count_sequences(root, 3)
        if total != REF3_TOTAL:
            failures.append(f"length-3 sequence total: expected "
                            f"{REF3_TOTAL}, computed {total}")
        named = {root.registry.display_item(it): c
                 for it, c in per_last.items()}
        for name in sorted(set(named) | set(REF3_PER_LAST)):
            want = REF3_PER_LAST.get(name)
            got = named.get(name, 0)
            if want is None:
                failures.append(f"unexpected last entry {name} "
                                f"(count {got})")
            elif got != want:
                failures.append(f"sequences ending in {name}: expected "
                                f"{want}, computed {got}")
        for un, wanted in J_TABLE.items():
            got = {xn for xn, x in mods.items()
                   if j_membership(mods[un], x)}
            if got != wanted:
                failures.append(f"J({un}): expected {sorted(wanted)}, "
                                f"computed {sorted(got)}")
        for un, shape in GAMMA_SHAPES.items():
            ctx = root.child(item_of(root, mods, un))
            got = algebra_invariants(ctx.gamma)
            if got != shape:
                failures.append(f"reduced algebra at {un}: expected "
                                f"{shape}, computed {got}")
        for names, wanted in ((("M", "I2", "P1"), ["S2[1]", "S3[1]", "P1"]),
                              (("M", "P1", "I2"), ["S2[1]", "P1", "I2"])):
            seq = psi(root, tuple(item_of(root, mods, n) for n in names))
            got = sequence_names(root, seq)
            if got != wanted:
                failures.append(f"psi{names}: expected {wanted}, "
                                f"computed {got}")
        return failures

    _criterion(3, "worked example 3", 30, body)


# ---------------------------------------------------------------------------
# criterion 4: the bijection, both directions, against an independent
# validator
# ---------------------------------------------------------------------------


def _valid_tuples(root, mods, t, shorter):
    """All entry tuples of length t accepted by validate_sequence.

    The candidate pool is every (indecomposable, shift) pair; a tuple can
    only validate when the tuple with its innermost entry dropped does, so
    the search extends the valid length-(t-1) tuples.  The validator walks
    the defining recursion directly and never calls psi.
    """
    pool = [(m, False) for m in mods.values()]
    pool += [(m, True) for m in mods.values()]
    out = []
    for rest in shorter:
        for entry in pool:
            cand = (entry,) + rest
            if validate_sequence(root, list(cand))[0]:
                out.append(cand)
    return out


def test_criterion_4_bijection_suite():
    def body():
        failures = []
        for stem in ("ex1", "ex2", "ex3"):
            alg, mods, root = _load(stem)
            reg = root.registry
            n = alg.idempotents.shape[0]

            def key(pairs):
                return tuple((reg.ensure(m), bool(s)) for m, s in pairs)

            valid = [()]
            for t in range(1, n + 1):
                pairs = enumerate_sequences(root, t)
                for tup, seq in pairs:
                    if phi(root, seq) != tup:
                        failures.append(f"{stem} t={t}: phi(psi{tup}) "
                                        f"!= identity")
                    if phi(root, seq.root_pairs()) != tup:
                        failures.append(f"{stem} t={t}: phi on realized "
                                        f"pairs of psi{tup} != identity")
                valid = _valid_tuples(root, mods, t, valid)
                ordered = enumerate_ordered(root, t)
                if len(valid) != len(ordered):
                    failures.append(f"{stem} t={t}: {len(ordered)} ordered "
                                    f"objects vs {len(valid)} valid "
                                    f"sequences")
                image = {key(seq.root_pairs()) for _, seq in pairs}
                if image != {key(v) for v in valid}:
                    failures.append(f"{stem} t={t}: psi image differs from "
                                    f"the validated set")
                for v in valid:
                    items = phi(root, list(v))
                    back = psi(root, items)
                    if key(back.root_pairs()) != key(v):
                        failures.append(f"{stem} t={t}: psi(phi(.)) moved "
                                        f"a valid sequence")
        return failures

    _criterion(4, "bijection property suite", 60, body)


# ---------------------------------------------------------------------------
# criterion 5: lemma-level invariants
# ---------------------------------------------------------------------------


def _c5_rigid_rigid(state):
    failures = []
    for stem, alg, mods, root in state:
        pres = {n: min_presentation(m) for n, m in mods.items()}
        taus = {n: tau(m) for n, m in mods.items()}
        for xn in mods:
            for un, u in mods.items():
                lhs = hom_dim(u, taus[xn]) == 0
                rhs = hom_K_dim(pres[xn], pres[un], 1) == 0
                if lhs != rhs:
                    failures.append(f"{stem}: ({xn},{un}) module test "
                                    f"{lhs} vs complex test {rhs}")
    return failures


def _c5_nokernel(state):
    # the module part of an enumerated object is tau-tilting on its own
    # exactly when the complex has no shifted projective summand P[1], as a
    # support tau-tilting pair (M, P) has |M| + |P| = n by definition (AIR).
    # H^-1 having no projective summand implies the module part is
    # tau-tilting; the converse is false
    # (test_presentation_kernels_can_be_projective)
    failures = []
    for stem, alg, mods, root in state:
        n = alg.idempotents.shape[0]
        reg = root.registry
        for obj in root.stt_objects:
            cx = object_cx(reg, obj)
            h = h0(cx)[0]
            tilting = (_summand_count(h) == n
                       and (h.dim == 0 or hom_dim(h, tau(h)) == 0))
            shifted = cx_to_pair(cx)[1]
            hm = hminus1(cx)
            kernel_free = not _has_projective_summand(alg, hm)
            names = ",".join(reg.display_item(i) for i in obj)
            if tilting == bool(shifted):
                failures.append(
                    f"{stem} object {{{names}}}: module part "
                    f"{'is' if tilting else 'is not'} tau-tilting but the "
                    f"complex has {len(shifted)} shifted projective "
                    f"summands")
            if kernel_free and not tilting:
                failures.append(
                    f"{stem} object {{{names}}}: H^-1 (dims "
                    f"{hm.vertex_dims()}) has no projective summand but "
                    f"the module part is not tau-tilting")
    return failures


def _c5_exchange(state):
    failures = []
    for stem, alg, mods, root in state:
        reg = root.registry
        objset = set(root.stt_objects)
        n = alg.idempotents.shape[0]
        for obj in root.stt_objects:
            for k in range(n):
                x_it = obj[k]
                others = obj[:k] + obj[k + 1:]
                X = item_cx(reg, x_it)
                u_parts = [item_cx(reg, it) for it in others]
                result = mutate(reg, obj, k)
                where = (f"{stem} "
                         f"{{{','.join(reg.display_item(i) for i in obj)}}}"
                         f" at {reg.display_item(x_it)}")
                fresh = [it for it in result if it not in others]
                if len(fresh) != 1 or fresh[0] == x_it:
                    failures.append(f"{where}: exchange partner not unique")
                    continue
                Y = item_cx(reg, fresh[0])
                # (b) the result stays rigid
                rigid = hom_K_dim(Y, Y, 1) == 0 and all(
                    hom_K_dim(Y, c, 1) == 0 and hom_K_dim(c, Y, 1) == 0
                    for c in u_parts)
                if not rigid:
                    failures.append(f"{where}: (b) mutated object not rigid")
                # (c) the new summand is add-disjoint from the rest
                if fresh[0] in others:
                    failures.append(f"{where}: (c) partner lies in add of "
                                    f"the fixed part")
                # (d) the two approximation triangles match up
                src, cmap, used = min_right_approx_K(u_parts, X)
                cand = reduce_cx(shift_cx(cone(src, X, cmap), -1))
                if _pair_iso(cand, Y):
                    tgt2, cmap2, used2 = min_left_approx_K(Y, u_parts)
                    if sorted(used2) != sorted(used):
                        failures.append(f"{where}: (d) left approximation "
                                        f"of the partner uses a different "
                                        f"middle term")
                    elif not _pair_iso(reduce_cx(cone(Y, tgt2, cmap2)), X):
                        failures.append(f"{where}: (d) cone of the left "
                                        f"approximation is not the removed "
                                        f"summand")
                else:
                    tgt2, cmap2, used2 = min_left_approx_K(X, u_parts)
                    cand2 = reduce_cx(cone(X, tgt2, cmap2))
                    if not _pair_iso(cand2, Y):
                        failures.append(f"{where}: (d) neither triangle "
                                        f"produces the exchange partner")
                    else:
                        src3, cmap3, used3 = min_right_approx_K(u_parts, Y)
                        back = reduce_cx(shift_cx(cone(src3, Y, cmap3), -1))
                        if sorted(used3) != sorted(used2):
                            failures.append(f"{where}: (d) dual "
                                            f"approximation middle term "
                                            f"differs")
                        elif not _pair_iso(back, X):
                            failures.append(f"{where}: (d) dual triangle "
                                            f"does not return the removed "
                                            f"summand")
                # (e) the partner completes to a silting-sized object
                if result not in objset or len(result) != n:
                    failures.append(f"{where}: (e) mutation left the "
                                    f"enumerated exchange graph")
    return failures


def _c5_two_pairs_a(state):
    failures = []
    for stem, alg, mods, root in state:
        reg = root.registry
        for un, u in _rigid_mods(mods).items():
            b = [reg.module(i) for i in bongartz(reg, u)]
            total = direct_sum(alg, [u] + b)[0]
            tu = tau(u)
            for xn, x in mods.items():
                if in_gen(total, x) != (hom_dim(x, tu) == 0):
                    failures.append(f"{stem}: Gen(u+B) vs perp(tau u) "
                                    f"disagree at u={un}, x={xn}")
    return failures


def _c5_two_pairs_b(state):
    failures = []
    for stem, alg, mods, root in state:
        reg = root.registry
        for un, u in _rigid_mods(mods).items():
            c_ids, _ = cobongartz(reg, u)
            expected = {reg.name(c) for c in c_ids} | {un}
            got = set()
            for xn, x in mods.items():
                if not in_gen(u, x):
                    continue
                both = direct_sum(alg, [x, u])[0]
                if hom_dim(both, tau(both)) == 0:
                    got.add(xn)
            if got != expected:
                failures.append(f"{stem} u={un}: Ext-projectives of Gen u "
                                f"{sorted(got)} != C+u {sorted(expected)}")
    return failures


def _c5_wakamatsu(state):
    failures = []
    for stem, alg, mods, root in state:
        for un, u in _rigid_mods(mods).items():
            tu = tau(u)
            for xn, x in mods.items():
                src, alpha, _ = min_right_approx([u], x)
                if src.dim == 0:
                    continue
                ker, _ = submodule(src, alpha.kernel_rows())
                if ker.dim and hom_dim(ker, tu) != 0:
                    failures.append(f"{stem}: kernel of the approximation "
                                    f"of {xn} by {un} maps to tau {un}")
    return failures


def _c5_gen_app(state):
    from tauseq.tautilt import complement_correspondence

    failures = []
    for stem, alg, mods, root in state:
        reg = root.registry
        for un, u in _rigid_mods(mods).items():
            u_pieces = [piece for piece, _ in decompose_grouped(u)]
            records = complement_correspondence(reg, u)[1]
            for rec in records:
                if rec["case"] != "a":
                    continue
                bi = reg.module(rec["b"])
                tgt, beta, _ = min_left_approx(bi, u_pieces)
                for vn, v in mods.items():
                    if not in_gen(u, v):
                        continue
                    for f in hom_basis(bi, v):
                        if not _factors_through(alg, f, beta, tgt, v):
                            failures.append(f"{stem} u={un}: map "
                                            f"B->{vn} misses the left "
                                            f"approximation")
    return failures


def _c5_split_projectivity(state):
    failures = []
    for stem, alg, mods, root in state:
        reg = root.registry
        for un, u in _rigid_mods(mods).items():
            tu = tau(u)
            for bi in map(reg.module, bongartz(reg, u)):
                for yn, y in mods.items():
                    if hom_dim(y, tu) != 0 or not in_gen(y, bi):
                        continue
                    if not any(is_iso(piece, bi)
                               for piece, _ in decompose_grouped(y)):
                        failures.append(f"{stem} u={un}: Bongartz summand "
                                        f"covered by {yn} without "
                                        f"splitting off")
    return failures


def _compatible(alg, mods, u):
    """Fixture indecomposables x with x + u tau-rigid and x not iso u."""
    out = {}
    for xn, x in mods.items():
        if is_iso(x, u):
            continue
        both = direct_sum(alg, [x, u])[0]
        if hom_dim(both, tau(both)) == 0:
            out[xn] = x
    return out


def _c5_pres_ind(state):
    failures = []
    for stem, alg, mods, root in state:
        for un, u in _rigid_mods(mods).items():
            for xn, x in _compatible(alg, mods, u).items():
                fx = torsion_free_quotient(u, x)[0]
                if fx.dim and _summand_count(fx) != 1:
                    failures.append(f"{stem} u={un}: torsion-free part of "
                                    f"{xn} decomposes")
    return failures


def _c5_inclusive(state):
    failures = []
    for stem, alg, mods, root in state:
        for un, u in _rigid_mods(mods).items():
            images = []
            for xn, x in _compatible(alg, mods, u).items():
                if in_gen(u, x):
                    continue
                images.append((xn, torsion_free_quotient(u, x)[0]))
            for i, (xn, fx) in enumerate(images):
                for yn, fy in images[i + 1:]:
                    if fx.dim == fy.dim and (fx.dim == 0
                                             or is_iso(fx, fy)):
                        failures.append(f"{stem} u={un}: f({xn}) iso "
                                        f"f({yn}) for non-iso modules")
    return failures


def _module_items(root):
    return [it for it in root.level_items if it[0] == "m"]


def _c5_pres_rig(state):
    failures = []
    for stem, alg, mods, root in state:
        reg = root.registry
        for it in _module_items(root):
            ctx = root.child(it)
            u = ctx.u_module
            un = reg.display_item(it)
            for xn, x in _compatible(alg, mods, u).items():
                fx = torsion_free_quotient(u, x)[0]
                if fx.dim == 0:
                    if not in_gen(u, x):
                        failures.append(f"{stem} u={un}: f({xn}) = 0 "
                                        f"outside Gen u")
                    continue
                if not j_membership(u, fx):
                    failures.append(f"{stem} u={un}: f({xn}) escapes J(u)")
                    continue
                g = transport(ctx, fx)
                if hom_dim(g, tau(g)) != 0:
                    failures.append(f"{stem} u={un}: f({xn}) not tau-rigid "
                                    f"over the reduced algebra")
    return failures


def _c5_object_bijection(state):
    failures = []
    for stem, alg, mods, root in state:
        reg = root.registry
        for it in _module_items(root):
            ctx = root.child(it)
            u = ctx.u_module
            un = reg.display_item(it)
            images = []
            for xn, x in _compatible(alg, mods, u).items():
                if in_gen(u, x):
                    continue
                images.append(transport(ctx, torsion_free_quotient(u,
                                                                   x)[0]))
            fresh_items, _, fresh_reg = indec_tau_rigid_items(ctx.gamma)
            targets = [fresh_reg.module(v) for kind, v in fresh_items
                       if kind == "m"]
            if len(images) != len(targets):
                failures.append(f"{stem} u={un}: {len(images)} f-images vs "
                                f"{len(targets)} tau-rigid reduced modules")
                continue
            remaining = list(targets)
            for g in images:
                hit = next((t for t in remaining if is_iso(g, t)), None)
                if hit is None:
                    failures.append(f"{stem} u={un}: an f-image is not "
                                    f"tau-rigid over the reduced algebra")
                    break
                remaining.remove(hit)
    return failures


def _c5_red(state):
    failures = []
    for stem, alg, mods, root in state:
        reg = root.registry
        for it in _module_items(root):
            ctx = root.child(it)
            un = reg.display_item(it)
            projs = proj_list(ctx.gamma)
            if len(ctx.b_summands) != len(projs):
                failures.append(f"{stem} u={un}: {len(ctx.b_summands)} "
                                f"Bongartz summands vs {len(projs)} "
                                f"reduced projectives")
                continue
            for i, b in enumerate(ctx.b_summands):
                fb = torsion_free_quotient(ctx.u_module, b)[0]
                if not is_iso(transport(ctx, fb), projs[i]):
                    failures.append(f"{stem} u={un}: f(B_{i}) is not the "
                                    f"{i}-th reduced projective")
    return failures


def _c5_exceptionality(state):
    from tauseq.complexes import ext1_dim

    failures = []
    for stem, alg, mods, root in state:
        reg = root.registry
        n = alg.idempotents.shape[0]
        seen = {}
        for t in range(1, n + 1):
            for tup, seq in enumerate_sequences(root, t):
                for m, _ in seq.root_pairs():
                    key = reg.ensure(m)
                    if key not in seen:
                        seen[key] = ext1_dim(m, m)
                    if seen[key] != 0:
                        failures.append(f"{stem}: sequence entry "
                                        f"{reg.name(key)} has a "
                                        f"self-extension")
    return failures


def test_criterion_5_lemma_suite():
    def body():
        state = [(stem,) + _load(stem) for stem in ("ex1", "ex2", "ex3")]
        checks = [
            ("rigid-rigid", _c5_rigid_rigid),
            ("nokernel", _c5_nokernel),
            ("exchange", _c5_exchange),
            ("two-pairs-a", _c5_two_pairs_a),
            ("two-pairs-b", _c5_two_pairs_b),
            ("wakamatsu", _c5_wakamatsu),
            ("gen-app", _c5_gen_app),
            ("split-projectivity", _c5_split_projectivity),
            ("pres-ind", _c5_pres_ind),
            ("inclusive", _c5_inclusive),
            ("pres-rig", _c5_pres_rig),
            ("object-bijection", _c5_object_bijection),
            ("red", _c5_red),
            ("exceptionality", _c5_exceptionality),
        ]
        failures = []
        for name, fn in checks:
            subfail = fn(state)
            print(f"    5 {name}: {'ok' if not subfail else 'FAIL'}")
            failures.extend(f"{name}: {msg}" for msg in subfail)
        return failures

    _criterion(5, "lemma-level invariant suite", 60, body)


# ---------------------------------------------------------------------------
# criterion 6: determinism
# ---------------------------------------------------------------------------


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_criterion_6_determinism():
    def body():
        data = resources.files("tauseq").joinpath("data")
        common = ["--algebra", str(data / "ex3.alg"),
                  "--fixtures", str(data / "ex3.mods")]
        invocations = [
            ["paper-example", "1"],
            ["paper-example", "2"],
            ["paper-example", "3"],
            ["paper-example", "3", "--format", "json"],
            ["count", *common, "--length", "3", "--format", "json"],
            ["st-pairs", *common, "--ordered", "--format", "tsv"],
            ["reduce", *common, "--object", "P1"],
        ]
        failures = []
        for argv in invocations:
            first = _run_cli(argv)
            second = _run_cli(argv)
            if first[0] != 0:
                failures.append(f"{' '.join(argv)}: exit code {first[0]}")
            if first != second:
                failures.append(f"{' '.join(argv)}: outputs differ "
                                f"between runs")
        return failures

    _criterion(6, "determinism of repeated runs", None, body)

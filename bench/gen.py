"""Input generators for the benchmark.

Each generator returns a quiver *spec* in canonical form: vertex labels
"1".."n", arrows (name, source, target) and monomial relations.  `relabel`
turns a spec into an isomorphic one with seeded random vertex and arrow
names and a shuffled declaration order, and keeps the map back to the
canonical labels so that outputs can be compared across seeds.  The
program under test only ever sees the text that `alg_text` and
`interval_mods_text` produce, in the existing `.alg`/`.mods` formats.
"""

import random
import string

FIELD = 32003


class Spec:
    def __init__(self, vertices, arrows, relations):
        self.vertices = list(vertices)
        self.arrows = list(arrows)
        self.relations = [list(r) for r in relations]
        # canonical label -> label in this spec (identity for canonical specs)
        self.vmap = {v: v for v in self.vertices}
        self.amap = {a: a for a, _, _ in self.arrows}

    def to_canonical(self, label):
        """Canonical vertex label of a label of this spec."""
        back = {new: old for old, new in self.vmap.items()}
        return back[label]

    def canonical_order(self):
        """Labels of this spec listed in canonical vertex order."""
        return [self.vmap[v] for v in sorted(self.vmap, key=_canon_key)]


def _canon_key(label):
    return int(label)


def linear_a(n, rad2=False):
    """Linear A_n: 1 -> 2 -> ... -> n; with rad2, every length-2 path is 0."""
    vs = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    rels = [[f"a{i}", f"a{i + 1}"] for i in range(1, n - 1)] if rad2 else []
    return Spec(vs, arrows, rels)


def ex3():
    """The third worked example: alpha 1->2, beta 2->3, gamma 1->3, and
    alpha then beta is zero."""
    return Spec(["1", "2", "3"],
                [("alpha", "1", "2"), ("beta", "2", "3"),
                 ("gamma", "1", "3")],
                [["alpha", "beta"]])


def _names(rng, count, first, length):
    tail = string.ascii_lowercase + string.digits
    out = set()
    while len(out) < count:
        out.add(rng.choice(first) +
                "".join(rng.choice(tail) for _ in range(length - 1)))
    return sorted(out)


def relabel(spec, seed):
    """An isomorphic copy of a canonical spec with seeded names and order.

    Vertex labels have three characters and arrow names four, whatever the
    seed, so that text sizes do not vary between seeds.
    """
    rng = random.Random(f"relabel:{seed}")
    vnew = _names(rng, len(spec.vertices), string.ascii_lowercase, 3)
    anew = _names(rng, len(spec.arrows), string.ascii_lowercase, 4)
    rng.shuffle(vnew)
    rng.shuffle(anew)
    vmap = dict(zip(spec.vertices, vnew))
    amap = {a: anew[i] for i, (a, _, _) in enumerate(spec.arrows)}
    out = Spec([vmap[v] for v in spec.vertices],
               [(amap[a], vmap[s], vmap[t]) for a, s, t in spec.arrows],
               [[amap[a] for a in r] for r in spec.relations])
    rng.shuffle(out.vertices)
    rng.shuffle(out.arrows)
    rng.shuffle(out.relations)
    out.vmap = vmap
    out.amap = amap
    return out


def alg_text(spec):
    lines = [f"field {FIELD}"]
    lines += [f"vertex {v}" for v in spec.vertices]
    lines += [f"arrow {a} {s} {t}" for a, s, t in spec.arrows]
    lines += ["rel " + " ".join(r) for r in spec.relations]
    return "\n".join(lines) + "\n"


def intervals(n):
    """Canonical intervals [i, j] of linear A_n, 1 <= i <= j <= n."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def interval_name(i, j):
    return f"M{i}_{j}"


def interval_mods_text(spec, n, order):
    """Module file with the interval modules of linear A_n (no relations),
    written over the (possibly relabelled) spec in the given order."""
    blocks = []
    for i, j in order:
        dims = " ".join(f"{spec.vmap[str(v)]}:1" for v in range(i, j + 1))
        lines = [f"module {interval_name(i, j)}", f"dims {dims}"]
        for k in range(i, j):
            lines.append(f"arrow {spec.amap[f'a{k}']} = [[1]]")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"

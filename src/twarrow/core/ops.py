"""Products, joins, opposites, and a generic gluing engine.

The gluing engine implements colimits we need (pushouts, quotients by a
labelling congruence, disjoint unions) as one union-find pass over the
simplices of the pieces, closed under faces and degeneracies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .complex import Cell, SimplicialSet
from .maps import SimplicialMap, unwrap_label
from .simplex import (
    Simplex,
    collapses_to_word,
    degenerate,
    degenerate_word,
    nondeg,
    op_word,
    strip_collapse,
)


# -- opposite ----------------------------------------------------------


def op_simplex(x: Simplex) -> Simplex:
    return Simplex(op_word(x.word, x.dim), x.base)


def opposite(X: SimplicialSet) -> SimplicialSet:
    """Same cells, reversed orientation.  Tuple labels are reversed."""
    faces = {}
    for (d, i), fs in X.faces.items():
        faces[(d, i)] = tuple(op_simplex(fs[d - k]) for k in range(d + 1))
    labels = {c: (lab[::-1] if isinstance(lab, tuple) else lab)
              for c, lab in X.labels.items()}
    return SimplicialSet(dict(X.counts), faces, labels)


# -- products ----------------------------------------------------------


@dataclass
class ProductData:
    complex: SimplicialSet
    pr1: SimplicialMap
    pr2: SimplicialMap
    pairs: dict[Cell, tuple[Simplex, Simplex]]
    index: dict[tuple[Simplex, Simplex], Cell]


def pair_simplex(index: dict[tuple[Simplex, Simplex], Cell],
                 sx: Simplex, sy: Simplex) -> Simplex:
    """The simplex of a product with components sx and sy, in canonical
    form: the collapses both share come off into the word, and the
    jointly nondegenerate rest is looked up in ``index``."""
    common = sorted(set(sx.word) & set(sy.word), reverse=True)
    for t in common:
        sx, sy = strip_collapse(sx, t), strip_collapse(sy, t)
    return Simplex(tuple(common), index[(sx, sy)])


def product(X: SimplicialSet, Y: SimplicialSet,
            top_dim: int | None = None) -> ProductData:
    """Product complex; cells are jointly nondegenerate simplex pairs."""
    cap = X.top_dim + Y.top_dim
    if top_dim is not None:
        cap = min(cap, top_dim)
    counts, faces, labels = {}, {}, {}
    index: dict[tuple[Simplex, Simplex], Cell] = {}
    pairs: dict[Cell, tuple[Simplex, Simplex]] = {}
    per_dim: dict[int, list[tuple[Simplex, Simplex]]] = {}
    for m in range(cap + 1):
        found = []
        for sx in X.simplices(m):
            free = [t for t in range(m) if t not in sx.word]
            for k in range(len(free) + 1):
                for extra in itertools.combinations(free, k):
                    sy_dim = m - len(extra)
                    for cy in Y.cells(sy_dim):
                        found.append((sx, Simplex(collapses_to_word(extra), cy)))
        found.sort()
        if not found:
            continue
        per_dim[m] = found
        counts[m] = len(found)
        for i, pair in enumerate(found):
            index[pair] = (m, i)
            pairs[(m, i)] = pair

    labelled = (all(c in X.labels for c in X.cells(0)) and
                all(c in Y.labels for c in Y.cells(0)))
    for m, found in per_dim.items():
        for i, (sx, sy) in enumerate(found):
            if labelled:
                vx = [unwrap_label(X.labels[v]) for v in X.vertices(sx)]
                vy = [unwrap_label(Y.labels[v]) for v in Y.vertices(sy)]
                labels[(m, i)] = tuple(zip(vx, vy))
            if m >= 1:
                faces[(m, i)] = tuple(
                    pair_simplex(index, X.face(sx, k), Y.face(sy, k))
                    for k in range(m + 1))

    XY = SimplicialSet(counts, faces, labels)
    pr1 = SimplicialMap(XY, X, {c: p[0] for c, p in pairs.items()}, check=False)
    pr2 = SimplicialMap(XY, Y, {c: p[1] for c, p in pairs.items()}, check=False)
    return ProductData(XY, pr1, pr2, pairs, index)


# -- joins -------------------------------------------------------------


@dataclass
class JoinData:
    complex: SimplicialSet
    parts: dict[Cell, tuple[Cell | None, Cell | None]]
    index: dict[tuple[Cell | None, Cell | None], Cell]

    def cell_of(self, cx: Cell | None, cy: Cell | None) -> Cell:
        return self.index[(cx, cy)]


def join(X: SimplicialSet, Y: SimplicialSet,
         top_dim: int | None = None) -> JoinData:
    """Join complex; cells are pairs of cells, either side possibly empty."""
    cap = X.top_dim + Y.top_dim + 1
    if top_dim is not None:
        cap = min(cap, top_dim)
    entries: dict[int, list[tuple[Cell | None, Cell | None]]] = {}
    for cx in X.all_cells():
        if cx[0] <= cap:
            entries.setdefault(cx[0], []).append((cx, None))
    for cy in Y.all_cells():
        if cy[0] <= cap:
            entries.setdefault(cy[0], []).append((None, cy))
    for cx in X.all_cells():
        for cy in Y.all_cells():
            m = cx[0] + cy[0] + 1
            if m <= cap:
                entries.setdefault(m, []).append((cx, cy))
    index, parts, counts = {}, {}, {}
    for m in sorted(entries):
        es = sorted(entries[m], key=lambda e: (e[0] is None, e[0] or (0, 0),
                                               e[1] is None, e[1] or (0, 0)))
        counts[m] = len(es)
        for i, e in enumerate(es):
            index[e] = (m, i)
            parts[(m, i)] = e

    faces, labels = {}, {}
    for (m, i), (cx, cy) in parts.items():
        lab_parts = []
        if cx is not None and X.labels.get(cx) is not None:
            lab_parts.extend(X.labels[cx] if isinstance(X.labels[cx], tuple)
                             else (X.labels[cx],))
        if cy is not None and Y.labels.get(cy) is not None:
            lab_parts.extend(Y.labels[cy] if isinstance(Y.labels[cy], tuple)
                             else (Y.labels[cy],))
        if lab_parts and ((cx is None or cx in X.labels) and
                          (cy is None or cy in Y.labels)):
            labels[(m, i)] = tuple(lab_parts)
        if m == 0:
            continue
        a = cx[0] if cx is not None else -1
        row = []
        for k in range(m + 1):
            if k <= a:
                if a == 0:
                    row.append(Simplex((), index[(None, cy)]))
                else:
                    f = X.faces[cx][k]
                    row.append(Simplex(f.word, index[(f.base, cy)]))
            else:
                j = k - a - 1
                b = cy[0] if cy is not None else -1
                if cy is None:
                    f = X.faces[cx][k]
                    row.append(Simplex(f.word, index[(f.base, None)]))
                elif cx is None:
                    f = Y.faces[cy][k]
                    row.append(Simplex(f.word, index[(None, f.base)]))
                elif b == 0:
                    row.append(Simplex((), index[(cx, None)]))
                else:
                    f = Y.faces[cy][j]
                    word = tuple(w + a + 1 for w in f.word)
                    row.append(Simplex(word, index[(cx, f.base)]))
        faces[(m, i)] = tuple(row)

    return JoinData(SimplicialSet(counts, faces, labels), parts, index)


# -- glue engine -------------------------------------------------------

Member = tuple[int, Simplex]


class _UnionFind:
    def __init__(self):
        self.parent: dict[Member, Member] = {}

    def find(self, x: Member) -> Member:
        parent = self.parent
        root = x
        while (up := parent.get(root, root)) != root:
            root = up
        # path compression: point every member on the way at the root
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: Member, b: Member) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


@dataclass
class GlueResult:
    complex: SimplicialSet
    maps: list[SimplicialMap]
    classes: dict[int, list[list[Member]]] = field(repr=False, default=None)


def glue(pieces: list[SimplicialSet], relations,
         top_dim: int | None = None) -> GlueResult:
    """Colimit of the pieces under the given simplex identifications.

    ``relations`` is an iterable of member pairs ((p, x), (q, y)) with x
    a simplex of pieces[p] and y one of pieces[q], of equal dimension.
    The identification is closed under faces and degeneracies.
    """
    cap = max((X.top_dim for X in pieces), default=-1)
    if top_dim is not None:
        cap = min(cap, top_dim)
    uf = _UnionFind()
    queue = [(a, b) for a, b in relations]
    while queue:
        a, b = queue.pop()
        (pa, xa), (pb, xb) = a, b
        if xa.dim != xb.dim:
            raise ValueError("identified simplices of different dimension")
        if not uf.union(a, b):
            continue
        m = xa.dim
        for i in range(m + 1):
            if m >= 1:
                queue.append(((pa, pieces[pa].face(xa, i)),
                              (pb, pieces[pb].face(xb, i))))
            if m + 1 <= cap:
                queue.append(((pa, degenerate(xa, i)),
                              (pb, degenerate(xb, i))))

    classes: dict[int, list[list[Member]]] = {}
    root_of: dict[Member, Member] = {}
    for m in range(cap + 1):
        groups: dict[Member, list[Member]] = {}
        for p, X in enumerate(pieces):
            for s in X.simplices(m):
                mem = (p, s)
                groups.setdefault(uf.find(mem), []).append(mem)
        classes[m] = [sorted(g) for g in groups.values()]
        classes[m].sort()
        for g in classes[m]:
            for mem in g:
                root_of[mem] = g[0]

    new_id: dict[Member, Cell] = {}
    counts: dict[int, int] = {}
    degen_rep: dict[Member, Member] = {}
    for m in range(cap + 1):
        idx = 0
        for g in classes[m]:
            degs = [mem for mem in g if mem[1].is_degenerate]
            if degs:
                degen_rep[g[0]] = min(degs)
            else:
                new_id[g[0]] = (m, idx)
                idx += 1
        if idx:
            counts[m] = idx

    nf_cache: dict[Member, Simplex] = {}

    def nf(mem: Member) -> Simplex:
        """Canonical form, in the glued complex, of a member simplex."""
        p, s = mem
        if s.word:
            base_nf = nf((p, Simplex((), s.base)))
            return degenerate_word(base_nf, s.word)
        root = root_of[mem]
        if root in nf_cache:
            return nf_cache[root]
        if root in new_id:
            out = nondeg(*new_id[root])
        else:
            q, t = degen_rep[root]
            out = degenerate_word(nf((q, Simplex((), t.base))), t.word)
        nf_cache[root] = out
        return out

    faces, labels = {}, {}
    for m in range(cap + 1):
        for g in classes[m]:
            root = g[0]
            if root not in new_id:
                continue
            cell = new_id[root]
            p, s = root
            for q, t in g:
                if not t.word and t.base in pieces[q].labels:
                    labels[cell] = pieces[q].labels[t.base]
                    break
            if m >= 1:
                faces[cell] = tuple(nf((p, pieces[p].face(s, i)))
                                    for i in range(m + 1))

    out = SimplicialSet(counts, faces, labels)
    maps = []
    for p, X in enumerate(pieces):
        data = {c: nf((p, nondeg(*c))) for c in X.all_cells() if c[0] <= cap}
        maps.append(SimplicialMap(X, out, data, check=False))
    return GlueResult(out, maps, classes)


def disjoint_union(pieces: list[SimplicialSet]) -> GlueResult:
    return glue(pieces, [])


def pushout(f: SimplicialMap, g: SimplicialMap) -> GlueResult:
    """Pushout of X <-f- A -g-> Y; pieces of the result are [X, Y]."""
    rels = [((0, f.data[c]), (1, g.data[c])) for c in f.source.all_cells()]
    return glue([f.target, g.target], rels)


def quotient_by_key(X: SimplicialSet, key_fn,
                    top_dim: int | None = None) -> GlueResult:
    """Quotient identifying simplices with equal keys.

    ``key_fn(simplex) -> hashable``.  After closure, every class must
    still be key-homogeneous; if face or degeneracy propagation merged
    two differently-keyed simplices the relation was not simplicial and
    a ValueError is raised.
    """
    cap = X.top_dim if top_dim is None else min(X.top_dim, top_dim)
    rels = []
    for m in range(cap + 1):
        by_key: dict[object, Simplex] = {}
        for s in X.simplices(m):
            k = key_fn(s)
            if k in by_key:
                rels.append(((0, by_key[k]), (0, s)))
            else:
                by_key[k] = s
    res = glue([X], rels, top_dim=cap)
    for m, groups in res.classes.items():
        for g in groups:
            keys = {key_fn(s) for _, s in g}
            if len(keys) > 1:
                raise ValueError(
                    f"key relation is not a simplicial congruence: dimension {m} "
                    f"class mixes keys {sorted(map(repr, keys))[:4]}")
    return res

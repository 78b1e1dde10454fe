"""Products, joins, opposites, a generic gluing engine, and quotients.

All these constructions work on nondegenerate cells, which fix them by
the Eilenberg-Zilber lemma.  A product cell is a pair (s_I x, s_J y) of
degeneracies of nondegenerate cells with I and J disjoint.  The gluing
engine implements the true colimits we need (pushouts, disjoint unions,
realizations): it closes the relations under faces, then glues one
dimension at a time with a union-find over the pieces' nondegenerate
cells and the degenerate forms already fixed below.  A quotient by
equal keys needs none of that: its classes are the key classes, so it
is built one dimension at a time from the images below, with three
checks that the keys form a simplicial congruence.  A new cell's members
are its nondegenerate preimages under the result's maps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

from .. import CAPS, check_cap
from .complex import Cell, SimplicialSet
from .maps import SimplicialMap, unwrap_label
from .simplex import (
    Simplex,
    collapses_to_word,
    degenerate_word,
    face_rule,
    flag_map,
    nondeg,
    nondeg_row,
    op_word,
    simplex_on,
)


# -- opposite ----------------------------------------------------------


def op_simplex(x: Simplex) -> Simplex:
    return simplex_on(op_word(x.word, x.dim), x.base)


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
    common, wx, wy = _split_shared(sx.word, sy.word)
    if common:
        sx, sy = Simplex(wx, sx.base), Simplex(wy, sy.base)
    return simplex_on(common, index[(sx, sy)])


@functools.lru_cache(maxsize=None)
def _split_shared(wx: tuple[int, ...], wy: tuple[int, ...]):
    """(shared collapses, wx and wy with them stripped), highest first so
    the lower positions keep their meaning."""
    common = tuple(t for t in wx if t in wy)
    for t in common:
        wx, wy = face_rule(wx, t)[0], face_rule(wy, t)[0]
    return common, wx, wy


PRODUCT_CAP = CAPS["PRODUCT_CAP"].value


@functools.lru_cache(maxsize=None)
def shuffle_words(p: int, q: int, m: int) -> tuple:
    """The word pairs (I, J) making (s_I x, s_J y) a nondegenerate
    m-simplex of a product, for x and y nondegenerate of dimensions p
    and q: I and J are disjoint, |I| = m - p and |J| = m - q."""
    out = []
    for I in itertools.combinations(range(m), m - p):
        rest = [t for t in range(m) if t not in I]
        for J in itertools.combinations(rest, m - q):
            out.append((collapses_to_word(I), collapses_to_word(J)))
    return tuple(out)


def _vertex_label_rows(X: SimplicialSet) -> dict[Cell, tuple]:
    """Each cell's vertex labels, singleton chains unwrapped."""
    return {c: tuple(unwrap_label(X.labels[v])
                     for v in X.vertices(nondeg(*c))) for c in X.all_cells()}


def product(X: SimplicialSet, Y: SimplicialSet,
            top_dim: int | None = None) -> ProductData:
    """Product complex; cells are jointly nondegenerate simplex pairs
    (s_I x, s_J y), x and y nondegenerate and I, J disjoint."""
    cap = X.top_dim + Y.top_dim
    if top_dim is not None:
        cap = min(cap, top_dim)
    check_cap("PRODUCT_CAP", sum(
        nx * ny * comb(m, m - p) * comb(p, m - q)
        for p, nx in X.counts.items() for q, ny in Y.counts.items()
        for m in range(max(p, q), min(p + q, cap) + 1)), "product")
    per_dim: dict[int, list[tuple[Simplex, Simplex]]] = {}
    for p in sorted(X.counts):
        for q in sorted(Y.counts):
            for m in range(max(p, q), min(p + q, cap) + 1):
                found = per_dim.setdefault(m, [])
                words = shuffle_words(p, q, m)
                for cx in X.cells(p):
                    for cy in Y.cells(q):
                        found.extend((simplex_on(wx, cx), simplex_on(wy, cy))
                                     for wx, wy in words)
    counts, faces, labels = {}, {}, {}
    index: dict[tuple[Simplex, Simplex], Cell] = {}
    pairs: dict[Cell, tuple[Simplex, Simplex]] = {}
    for m in sorted(per_dim):
        found = per_dim[m]
        found.sort()
        counts[m] = len(found)
        for h, pair in zip(nondeg_row(m, len(found)), found):
            index[pair] = h.base
            pairs[h.base] = pair

    labelled = (all(c in X.labels for c in X.cells(0)) and
                all(c in Y.labels for c in Y.cells(0)))
    if labelled:
        vlx, vly = _vertex_label_rows(X), _vertex_label_rows(Y)
    # the face row of each component simplex, built once
    rows_x: dict[Simplex, tuple[Simplex, ...]] = {}
    rows_y: dict[Simplex, tuple[Simplex, ...]] = {}
    for (m, i), (sx, sy) in pairs.items():
        if labelled:
            vx = vlx[sx.base]
            vy = vly[sy.base]
            labels[(m, i)] = tuple(zip(
                map(vx.__getitem__, flag_map(sx.word, sx.base[0])),
                map(vy.__getitem__, flag_map(sy.word, sy.base[0]))))
        if m >= 1:
            fx = rows_x.get(sx)
            if fx is None:
                fx = rows_x[sx] = X.face_row(sx)
            fy = rows_y.get(sy)
            if fy is None:
                fy = rows_y[sy] = Y.face_row(sy)
            faces[(m, i)] = tuple([pair_simplex(index, a, b)
                                   for a, b in zip(fx, fy)])

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


def join(X: SimplicialSet, Y: SimplicialSet) -> JoinData:
    """Join complex; cells are pairs of cells, either side possibly empty."""
    entries: dict[int, list[tuple[Cell | None, Cell | None]]] = {}
    for cx in X.all_cells():
        entries.setdefault(cx[0], []).append((cx, None))
    for cy in Y.all_cells():
        entries.setdefault(cy[0], []).append((None, cy))
    for cx in X.all_cells():
        for cy in Y.all_cells():
            entries.setdefault(cx[0] + cy[0] + 1, []).append((cx, cy))
    index, parts, counts = {}, {}, {}
    for m in sorted(entries):
        es = sorted(entries[m], key=lambda e: (e[0] is None, e[0] or (0, 0),
                                               e[1] is None, e[1] or (0, 0)))
        counts[m] = len(es)
        for h, e in zip(nondeg_row(m, len(es)), es):
            index[e] = h.base
            parts[h.base] = e

    faces, labels = {}, {}
    for cell, (cx, cy) in parts.items():
        m = cell[0]
        lab_parts = []
        if cx is not None and X.labels.get(cx) is not None:
            lab_parts.extend(X.labels[cx] if isinstance(X.labels[cx], tuple)
                             else (X.labels[cx],))
        if cy is not None and Y.labels.get(cy) is not None:
            lab_parts.extend(Y.labels[cy] if isinstance(Y.labels[cy], tuple)
                             else (Y.labels[cy],))
        if lab_parts and ((cx is None or cx in X.labels) and
                          (cy is None or cy in Y.labels)):
            labels[cell] = tuple(lab_parts)
        if m == 0:
            continue
        a = cx[0] if cx is not None else -1
        # faces k <= a cut into X's part; the others, which exist only
        # when cy is a cell, cut into Y's
        row = []
        for k in range(m + 1):
            if k <= a:
                if a == 0:
                    row.append(nondeg(*index[(None, cy)]))
                else:
                    f = X.faces[cx][k]
                    row.append(simplex_on(f.word, index[(f.base, cy)]))
            elif cy[0] == 0:
                row.append(nondeg(*index[(cx, None)]))
            else:
                f = Y.faces[cy][k - a - 1]
                word = tuple(w + a + 1 for w in f.word)
                row.append(simplex_on(word, index[(cx, f.base)]))
        faces[cell] = tuple(row)

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
    """A colimit and the map from each piece into it.  A new cell's
    members are its nondegenerate preimages under ``maps``."""
    complex: SimplicialSet
    maps: list[SimplicialMap]


GLUE_CAP = CAPS["GLUE_CAP"].value


def _face_closure(pieces: list[SimplicialSet], relations) -> dict[int, list]:
    """The relations closed under faces, as a spanning forest per
    dimension: the pairs that joined two classes, highest dimension
    first, so a pair already implied adds nothing and its faces are
    implied too."""
    by_dim: dict[int, list[tuple[Member, Member]]] = {}
    for a, b in relations:
        if a[1].dim != b[1].dim:
            raise ValueError("identified simplices of different dimension")
        by_dim.setdefault(a[1].dim, []).append((a, b))
    forest: dict[int, list[tuple[Member, Member]]] = {}
    for m in range(max(by_dim, default=-1), -1, -1):
        uf = _UnionFind()
        kept = forest[m] = []
        below = by_dim.setdefault(m - 1, []) if m >= 1 else None
        for a, b in by_dim.get(m, ()):
            if not uf.union(a, b):
                continue
            kept.append((a, b))
            if m >= 1:
                (pa, xa), (pb, xb) = a, b
                X, Y = pieces[pa], pieces[pb]
                below.extend(((pa, X.face(xa, i)), (pb, Y.face(xb, i)))
                             for i in range(m + 1))
    return forest


def glue(pieces: list[SimplicialSet], relations,
         top_dim: int | None = None) -> GlueResult:
    """Colimit of the pieces under the given simplex identifications.

    ``relations`` is an iterable of member pairs ((p, x), (q, y)) with x
    a simplex of pieces[p] and y one of pieces[q], of equal dimension.
    The relations are closed under faces, above ``top_dim`` too, then
    the dimensions are glued upward on nondegenerate cells: by the
    Eilenberg-Zilber lemma a degenerate member s_w (b) is the final
    degenerate form s_w nf(b) of its base's class, so one union-find
    per dimension over the pieces' m-cells and those forms also closes
    the relation under degeneracies.  A class holding a form is that
    degenerate simplex; every other class is a new cell, numbered in
    the sorted order of its least member.
    """
    cap = max((X.top_dim for X in pieces), default=-1)
    if top_dim is not None:
        cap = min(cap, top_dim)
    check_cap("GLUE_CAP", sum(X.n_cells(d) for X in pieces
                              for d in range(cap + 1)), "glue")
    forest = _face_closure(pieces, relations)

    # member cell (p, c) -> its simplex in the glued complex
    nf: dict[tuple[int, Cell], Simplex] = {}

    def node(mem: Member):
        # a degenerate member is keyed by its form, which sorts first
        p, s = mem
        if not s.word:
            return (p, s.base)
        return (-1, degenerate_word(nf[(p, s.base)], s.word))

    counts, faces, labels = {}, {}, {}
    for m in range(cap + 1):
        uf = _UnionFind()
        for a, b in forest.get(m, ()):
            ra, rb = uf.find(node(a)), uf.find(node(b))
            if ra != rb and ra[0] < 0 and rb[0] < 0:
                raise ValueError(f"glue merged two degenerate forms "
                                 f"{ra[1]} and {rb[1]} in dimension {m}")
            uf.union(ra, rb)
        # a root is its class's least node, so the first member met of
        # each class is its root and the groups come out sorted
        groups: dict[tuple, list[tuple[int, Cell]]] = {}
        for p, X in enumerate(pieces):
            for c in X.cells(m):
                root = uf.find((p, c))
                if root[0] < 0:
                    nf[(p, c)] = root[1]
                else:
                    groups.setdefault(root, []).append((p, c))
        for h, members in zip(nondeg_row(m, len(groups)), groups.values()):
            cell = h.base
            for mem in members:
                nf[mem] = h
            for p, c in members:
                if c in pieces[p].labels:
                    labels[cell] = pieces[p].labels[c]
                    break
            if m >= 1:
                p, c = members[0]
                faces[cell] = tuple(degenerate_word(nf[(p, f.base)], f.word)
                                    for f in pieces[p].faces[c])
        if groups:
            counts[m] = len(groups)

    out = SimplicialSet(counts, faces, labels)
    maps = []
    for p, X in enumerate(pieces):
        data = {c: nf[(p, c)] for c in X.all_cells() if c[0] <= cap}
        maps.append(SimplicialMap(X, out, data, check=False))
    return GlueResult(out, maps)


def disjoint_union(pieces: list[SimplicialSet]) -> GlueResult:
    return glue(pieces, [])


def pushout(f: SimplicialMap, g: SimplicialMap) -> GlueResult:
    """Pushout of X <-f- A -g-> Y; pieces of the result are [X, Y]."""
    rels = [((0, f.data[c]), (1, g.data[c])) for c in f.source.all_cells()]
    return glue([f.target, g.target], rels)


QUOTIENT_CAP = CAPS["QUOTIENT_CAP"].value


def quotient_by_key(X: SimplicialSet, key_fn,
                    top_dim: int | None = None) -> GlueResult:
    """Quotient identifying simplices with equal keys.

    ``key_fn(simplex) -> hashable``.  Every simplex up to the cap is
    keyed, so a p-cell's comb(m, p) degeneracies in dimension m are
    counted against ``QUOTIENT_CAP`` first.  The quotient is then built
    one dimension at a time from the images below.  A key class that
    holds a degenerate simplex s_w (b) is that simplex's image, s_w of
    b's image; every other class is a new cell, numbered in the order of
    its first member, with that member's faces and the label of its
    first labelled member.  The result is what ``glue`` gives on the key
    relation.

    Equal keys must form a simplicial congruence, and three tests on
    each dimension check that they do: (a) the degenerate members of a
    class have one image, (b) no two classes have the same degenerate
    image, which with (a) closes the relation under degeneracies, and
    (c) every member's faces have the images of its class's faces,
    which closes it under faces.  Any failure raises a ValueError.
    """
    cap = X.top_dim if top_dim is None else min(X.top_dim, top_dim)
    check_cap("QUOTIENT_CAP", sum(n * comb(m, p) for p, n in X.counts.items()
                                  for m in range(p, cap + 1)),
              "quotient_by_key")
    image: dict[Cell, Simplex] = {}

    def image_of(s: Simplex) -> Simplex:
        return degenerate_word(image[s.base], s.word)

    def refuse(m: int, what: str):
        raise ValueError(f"key relation is not a simplicial congruence: "
                         f"dimension {m} {what}")

    counts, faces, labels = {}, {}, {}
    for m in range(cap + 1):
        # key -> (first degenerate member, its image); image -> member
        degen: dict[object, tuple[Simplex, Simplex]] = {}
        owner: dict[Simplex, Simplex] = {}
        # key -> the faces its degenerate image has; key -> new cell
        wanted: dict[object, tuple] = {}
        new: dict[object, Cell] = {}
        named: dict[Cell, object] = {}
        # the degenerate simplices come first, the m-cells last
        for s in X.simplices(m):
            k = key_fn(s)
            if s.word:
                img = image_of(s)
                got = degen.get(k)
                if got is None:
                    if img in owner:
                        refuse(m, f"simplices {owner[img]} and {s} have "
                                  f"different keys and one image {img}")
                    degen[k] = (s, img)
                    owner[img] = s
                elif got[1] != img:
                    refuse(m, f"simplices {got[0]} and {s} have one key and "
                              f"images {got[1]} and {img}")
                continue
            c = s.base
            row = tuple(map(image_of, X.faces[c])) if m else ()
            got = degen.get(k)
            if got is not None:
                t, image[c] = got
                if k not in wanted:
                    wanted[k] = tuple(image_of(X.face(t, i))
                                      for i in range(m + 1))
                want = wanted[k]
            else:
                if k not in new:
                    new[k] = nondeg(m, len(new)).base
                    if m:
                        faces[new[k]] = row
                cell = new[k]
                image[c] = nondeg(*cell)
                if cell not in named and c in X.labels:
                    named[cell] = X.labels[c]
                want = faces.get(cell, ())
            if row != want:
                refuse(m, f"cell {c} has face images {row}, its class "
                          f"{want}")
        if new:
            counts[m] = len(new)
        # in cell order, as glue lists them
        labels.update(sorted(named.items()))

    out = SimplicialSet(counts, faces, labels)
    return GlueResult(out, [SimplicialMap(X, out, image, check=False)])

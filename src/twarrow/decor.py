"""Thin-triangle (scaled) and marked-edge structure on complexes.

A decoration names a set of nondegenerate 2-cells as thin and a set of
nondegenerate 1-cells as marked.  Degenerate triangles and edges always
count as thin resp. marked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core.complex import SimplicialSet, point, subcomplex
from .core.maps import SimplicialMap, unwrap_label
from .core.ops import GLUE_CAP, GlueResult
from .core.simplex import (Simplex, constant_simplex, degenerate_word,
                           flag_map, nondeg)


@dataclass
class Decorated:
    space: SimplicialSet
    thin: frozenset = frozenset()
    marked: frozenset = frozenset()
    # base cell -> the vertex triples of it that span a non-thin triangle
    _nonthin: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        self.thin = frozenset(self.thin)
        self.marked = frozenset(self.marked)
        for c in self.thin:
            if c[0] != 2 or not (0 <= c[1] < self.space.n_cells(2)):
                raise ValueError(f"thin entry {c} is not a 2-cell")
        for c in self.marked:
            if c[0] != 1 or not (0 <= c[1] < self.space.n_cells(1)):
                raise ValueError(f"marked entry {c} is not an edge")

    def is_thin(self, s: Simplex) -> bool:
        if s.dim != 2:
            raise ValueError("thinness is about 2-simplices")
        return s.is_degenerate or s.base in self.thin

    def thin_on(self, x: Simplex, triples) -> bool:
        """Whether every triangle of x spanned by one of the ascending
        position ``triples`` is thin.

        A triple that does not reach three distinct vertices of x's base
        cell under its flag map spans a degenerate, hence thin,
        triangle.  Any other triple spans a face of the base cell, which
        is thin unless its vertex triple is one of the base cell's
        non-thin ones; those are found once per base cell and kept.
        """
        bad = self._nonthin.get(x.base)
        if bad is None:
            b = nondeg(*x.base)
            bad = self._nonthin[x.base] = frozenset(
                t for t in itertools.combinations(range(x.base[0] + 1), 3)
                if not self.is_thin(self.space.restrict(b, t)))
        if not bad:
            return True
        f = flag_map(x.word, x.base[0])
        # a triple with a repeated vertex is never listed in bad
        return not any((f[i], f[j], f[k]) in bad for i, j, k in triples)

    def is_marked(self, s: Simplex) -> bool:
        if s.dim != 1:
            raise ValueError("markedness is about edges")
        return s.is_degenerate or s.base in self.marked


def flat(X: SimplicialSet) -> Decorated:
    return Decorated(X)


def sharp(X: SimplicialSet) -> Decorated:
    return Decorated(X, thin=frozenset(X.cells(2)), marked=frozenset(X.cells(1)))


def preserves_decoration(f: SimplicialMap, src: Decorated, tgt: Decorated) -> bool:
    # same cell tables, not necessarily the same objects
    assert f.source.counts == src.space.counts
    assert f.target.counts == tgt.space.counts
    for c in src.thin:
        if not tgt.is_thin(f(nondeg(*c))):
            return False
    for c in src.marked:
        if not tgt.is_marked(f(nondeg(*c))):
            return False
    return True


def pull_decoration(incl: SimplicialMap, tgt: Decorated) -> Decorated:
    """Decoration induced on the source of a map (usually an inclusion)."""
    thin = {c for c in incl.source.cells(2) if tgt.is_thin(incl(nondeg(*c)))}
    marked = {c for c in incl.source.cells(1) if tgt.is_marked(incl(nondeg(*c)))}
    return Decorated(incl.source, thin, marked)


def decorated_subcomplex(dec: Decorated, cells):
    """The face-closed ``cells`` of ``dec.space`` as a decorated
    subcomplex, with its inclusion."""
    sub, data = subcomplex(dec.space, cells)
    incl = SimplicialMap(sub, dec.space, data, check=False)
    return pull_decoration(incl, dec), incl


def push_decoration(res: GlueResult, decs: list[Decorated]) -> Decorated:
    """Decoration generated on a glued complex by piecewise decorations."""
    Q = res.complex
    thin, marked = set(), set()
    for f, dec in zip(res.maps, decs):
        for c in dec.thin:
            img = f(nondeg(*c))
            if not img.is_degenerate:
                thin.add(img.base)
        for c in dec.marked:
            img = f(nondeg(*c))
            if not img.is_degenerate:
                marked.add(img.base)
    return Decorated(Q, thin, marked)


def collapse_to_point(dec: Decorated, parts) -> tuple[GlueResult, Decorated]:
    """Crush the cells of ``dec.space`` on each vertex-label set in
    ``parts`` (singleton chains unwrapped) to a point of its own, all at
    once.

    A vertex lies in part k when its label does, and a higher cell when
    all its faces do, that is, all its vertices; those cells form a
    subcomplex, so crushing it merges nothing else, and the result is
    built directly.  Parts that share a vertex share a point.  The
    points come first, then the other cells in their order, each with
    its faces' images and its label; a point takes the label of the
    first vertex it crushes.

    Returns what ``glue`` gives on the same crush, with pieces
    [point, ..., point, dec.space] and the k-th point that of
    ``parts[k]``, and the decoration pushed onto it.
    """
    X = dec.space
    parts = [frozenset(part) for part in parts]
    size = len(parts) + X.size()
    if size > GLUE_CAP:
        raise ValueError(f"glue needs small pieces: {size} cells, "
                         f"cap {GLUE_CAP}")
    last = len(parts)
    # per vertex, the parts holding it as a bit mask; each part's least
    # partner through shared vertices names its point
    mask = {v: sum(1 << k for k, part in enumerate(parts)
                   if unwrap_label(X.labels.get(v)) in part)
            for v in X.cells(0)}
    rep = list(range(last))
    for bits in mask.values():
        if bits & (bits - 1):
            joined = {rep[k] for k in range(last) if bits >> k & 1}
            rep = [min(joined) if r in joined else r for r in rep]
    point_of = {r: nondeg(0, i) for i, r in enumerate(sorted(set(rep)))}
    classes = {0: [[(k, nondeg(0, 0)) for k in range(last) if rep[k] == r]
                   for r in point_of]}

    def point_at(bits: int) -> Simplex:
        # the point of the first part in the mask
        return point_of[rep[(bits & -bits).bit_length() - 1]]

    named, image = {}, {}
    for v, bits in mask.items():
        if bits:
            image[v] = point_at(bits)
            classes[0][image[v].base[1]].append((last, nondeg(*v)))
        else:
            image[v] = nondeg(0, len(classes[0]))
            classes[0].append([(last, nondeg(*v))])
        if v in X.labels:
            named.setdefault(image[v].base, X.labels[v])
    # in cell order, as glue lists them
    labels = dict(sorted(named.items()))
    counts, faces = {0: len(classes[0])}, {}
    for m in range(1, X.top_dim + 1):
        classes[m] = []
        for c in X.cells(m):
            row = X.faces[c]
            # the first and last faces hold all the cell's vertices
            bits = mask[c] = mask[row[0].base] & mask[row[-1].base]
            if bits:
                image[c] = constant_simplex(point_at(bits).base, m)
                continue
            cell = (m, len(classes[m]))
            image[c] = nondeg(*cell)
            classes[m].append([(last, nondeg(*c))])
            faces[cell] = tuple(degenerate_word(image[f.base], f.word)
                                for f in row)
            if c in X.labels:
                labels[cell] = X.labels[c]
        counts[m] = len(classes[m])
    out = SimplicialSet(counts, faces, labels)
    pts = [point() for _ in parts]
    maps = [SimplicialMap(P, out, {(0, 0): point_of[r]}, check=False)
            for P, r in zip(pts, rep)]
    maps.append(SimplicialMap(X, out, image, check=False))
    res = GlueResult(out, maps, classes)
    return res, push_decoration(res, [flat(P) for P in pts] + [dec])


def op_decoration(dec: Decorated, Xop: SimplicialSet) -> Decorated:
    """Same thin and marked cells, read in the opposite complex."""
    return Decorated(Xop, dec.thin, dec.marked)

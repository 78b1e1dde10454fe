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
from .core.ops import GlueResult, glue
from .core.simplex import Simplex, constant_simplex, flag_map, nondeg


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
    ``parts`` (singleton chains unwrapped), which are closed under
    faces, to a point of its own, all in one gluing.

    Returns the gluing, whose pieces are [point, ..., point, dec.space]
    with the k-th point that of ``parts[k]``, and the decoration pushed
    onto it.  Sets whose cells meet land on one point.
    """
    X = dec.space
    verts = {c: {unwrap_label(X.labels.get(v))
                 for v in X.vertices(nondeg(*c))} for c in X.all_cells()}
    last = len(parts)
    rels = [((k, constant_simplex((0, 0), c[0])), (last, nondeg(*c)))
            for k, part in enumerate(map(frozenset, parts))
            for c, vs in verts.items() if vs <= part]
    pts = [point() for _ in parts]
    res = glue(pts + [dec.space], rels)
    return res, push_decoration(res, [flat(P) for P in pts] + [dec])


def op_decoration(dec: Decorated, Xop: SimplicialSet) -> Decorated:
    """Same thin and marked cells, read in the opposite complex."""
    return Decorated(Xop, dec.thin, dec.marked)

"""Thin-triangle (scaled) and marked-edge structure on complexes.

A decoration names a set of nondegenerate 2-cells as thin and a set of
nondegenerate 1-cells as marked.  Degenerate triangles and edges always
count as thin resp. marked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core.complex import SimplicialSet
from .core.maps import SimplicialMap, to_point
from .core.ops import GlueResult, pushout
from .core.simplex import Simplex, nondeg


@dataclass
class Decorated:
    space: SimplicialSet
    thin: frozenset = frozenset()
    marked: frozenset = frozenset()

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


def collapse_to_point(inc: SimplicialMap,
                      dec: Decorated) -> tuple[GlueResult, Decorated]:
    """Crush the image of ``inc`` in ``dec.space`` to a point.

    Returns the pushout, whose pieces are [point, dec.space], and the
    decoration pushed onto it.
    """
    to_pt = to_point(inc.source)
    res = pushout(to_pt, inc)
    return res, push_decoration(res, [flat(to_pt.target), dec])


def op_decoration(dec: Decorated, Xop: SimplicialSet) -> Decorated:
    """Same thin and marked cells, read in the opposite complex."""
    return Decorated(Xop, dec.thin, dec.marked)

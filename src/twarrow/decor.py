"""Thin-triangle (scaled) and marked-edge structure on complexes.

A decoration names a set of nondegenerate 2-cells as thin and a set of
nondegenerate 1-cells as marked.  Degenerate triangles and edges always
count as thin resp. marked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import check_cap
from .core.complex import Cell, SimplicialSet, subcomplex
from .core.maps import SimplicialMap, unwrap_label
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


def scaled(X: SimplicialSet, rule) -> Decorated:
    """X with a 2-cell thin exactly when ``rule`` holds of its label."""
    return Decorated(X, thin={c for c in X.cells(2) if rule(X.labels[c])})


def preserves_decoration(f: SimplicialMap, src: Decorated, tgt: Decorated) -> bool:
    # same cell tables, not necessarily the same objects
    if f.source.counts != src.space.counts:
        raise ValueError("the map's source and its decoration have "
                         "different cell counts")
    if f.target.counts != tgt.space.counts:
        raise ValueError("the map's target and its decoration have "
                         "different cell counts")
    for c in src.thin:
        if not tgt.is_thin(f(nondeg(*c))):
            return False
    for c in src.marked:
        if not tgt.is_marked(f(nondeg(*c))):
            return False
    return True


def decorated_subcomplex(dec: Decorated, cells):
    """The face-closed ``cells`` of ``dec.space`` as a decorated
    subcomplex, with its inclusion."""
    sub, data = subcomplex(dec.space, cells)
    thin = {c for c, x in data.items() if x.base in dec.thin}
    marked = {c for c, x in data.items() if x.base in dec.marked}
    return (Decorated(sub, thin, marked),
            SimplicialMap(sub, dec.space, data, check=False))


def collapse_to_point(
        dec: Decorated, parts) -> tuple[SimplicialMap, Decorated, list[Cell]]:
    """Crush the cells of ``dec.space`` on each vertex-label set in
    ``parts`` (singleton chains unwrapped) to a point of its own, all at
    once.

    A vertex lies in part k when its label does, and a higher cell when
    all its faces do, that is, all its vertices; those cells form a
    subcomplex, so crushing it merges nothing else, and the result is
    built directly.  The parts must be disjoint on the vertices: a
    vertex in two parts is refused.  The points come first, part k's
    at ``(0, k)``, then the other cells in their order, each with its
    faces' images and its label; a point takes the label of the first
    vertex it crushes.

    Returns the quotient map of ``dec.space``, which is what ``glue``
    gives on the same crush, the decoration pushed along it, and the
    point (a 0-cell) of each part.
    """
    X = dec.space
    parts = [frozenset(part) for part in parts]
    check_cap("COLLAPSE_CAP", len(parts) + X.size(), "collapse_to_point")
    # the part holding each cell, None for none
    part_of = {}
    for v in X.cells(0):
        ks = [k for k, part in enumerate(parts)
              if unwrap_label(X.labels.get(v)) in part]
        if len(ks) > 1:
            raise ValueError(f"collapse parts {ks[0]} and {ks[1]} share "
                             f"the vertex {v}")
        part_of[v] = ks[0] if ks else None
    counts = {0: len(parts)}
    named, image = {}, {}
    for v, k in part_of.items():
        if k is None:
            image[v] = nondeg(0, counts[0])
            counts[0] += 1
        else:
            image[v] = nondeg(0, k)
        if v in X.labels:
            named.setdefault(image[v].base, X.labels[v])
    # in cell order, as glue lists them
    labels = dict(sorted(named.items()))
    faces = {}
    for m in range(1, X.top_dim + 1):
        counts[m] = 0
        for c in X.cells(m):
            row = X.faces[c]
            # the first and last faces hold all the cell's vertices
            k = part_of[row[0].base]
            part_of[c] = k = k if k == part_of[row[-1].base] else None
            if k is not None:
                image[c] = constant_simplex((0, k), m)
                continue
            image[c] = nondeg(m, counts[m])
            counts[m] += 1
            cell = image[c].base
            faces[cell] = tuple(degenerate_word(image[f.base], f.word)
                                for f in row)
            if c in X.labels:
                labels[cell] = X.labels[c]
    quot = SimplicialMap(X, SimplicialSet(counts, faces, labels), image,
                         check=False)
    thin = {image[c].base for c in dec.thin if not image[c].word}
    marked = {image[c].base for c in dec.marked if not image[c].word}
    return (quot, Decorated(quot.target, thin, marked),
            [(0, k) for k in range(len(parts))])


def op_decoration(dec: Decorated, Xop: SimplicialSet) -> Decorated:
    """Same thin and marked cells, read in the opposite complex."""
    return Decorated(Xop, dec.thin, dec.marked)

"""Lifting problems and dimension-bounded fibration checks.

The primitive is a commuting square against a finite inclusion A -> B;
``solve_lift`` backtracks over the images of B's nondegenerate cells,
drawing each cell's candidates from an index of X's simplices keyed by
their faces (the search of :mod:`twarrow.core.maps`), and is complete,
so a None answer really means there is no lift.  On top of it sit the
per-dimension right-lifting tests: inner horns for inner fibrations,
right horns with a pinned final edge for Cartesian edges, boundaries
for trivial fibrations.  Every verdict is bounded by the
max_dim it was asked for and says so in its report.

Markedness enters in two places.  A Cartesian-edge test only quantifies
over squares whose final edge is the edge under test, which is how the
"final edge marked" reading of the right horn is operationalized.  The
supply clause of a Cartesian fibration asks for a marked lift of every
base edge under each vertex over its target; that constraint is carried
on the lifting problem itself (``marked_cells``), and ``solve_lift``
decides each such square as it decides every horn and boundary square,
so a failed report is re-checkable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import DIM_CAP
from .core.complex import (SimplicialSet, boundary_cells, horn_cells,
                           simplex_cell, standard_simplex, subcomplex)
from .core.maps import SimplicialMap, enumerate_homs, face_index, search
from .core.simplex import Simplex, degenerate_word, nondeg
from .decor import Decorated


@dataclass
class LiftingProblem:
    """A commuting square over an inclusion, with optional marking
    constraints on the lift.

    ``incl``: A -> B, ``p``: X -> Y, ``top``: A -> X, ``bottom``: B -> Y.
    A lift is a map B -> X restricting to ``top`` and projecting to
    ``bottom``.  Cells of B listed in ``marked_cells`` must go to marked
    edges of ``dec``; that encodes lifting in the marked category.
    """

    incl: SimplicialMap
    p: SimplicialMap
    top: SimplicialMap
    bottom: SimplicialMap
    marked_cells: frozenset = frozenset()
    dec: Decorated | None = None

    def __post_init__(self):
        self.marked_cells = frozenset(self.marked_cells)
        if self.marked_cells and self.dec is None:
            raise ValueError("marked cells need a decoration to check against")
        # the left leg is an inclusion: distinct nondegenerate images,
        # which the search takes as fixed cells of B
        for a, s in self.incl.data.items():
            if s.word:
                raise ValueError(f"the left leg sends {a} to a degenerate "
                                 f"simplex")
        if len(set(self.incl.data.values())) < len(self.incl.data):
            raise ValueError("the left leg sends two cells to one")
        # p(top(a)) == bottom(incl(a)) on every cell a of A, read off
        # the maps' data
        top, p = self.top.data, self.p.data
        incl, bottom = self.incl.data, self.bottom.data
        for a in self.incl.source.all_cells():
            t, i = top[a], incl[a]
            if degenerate_word(p[t.base], t.word) != \
                    degenerate_word(bottom[i.base], i.word):
                raise ValueError(f"the square does not commute at {a}")

    def forced(self) -> dict:
        """Images of B-cells already determined by the top map."""
        top = self.top.data
        return {s.base: top[a] for a, s in self.incl.data.items()}

    def is_lift(self, f: SimplicialMap) -> bool:
        if f.source is not self.incl.target or f.target is not self.p.source:
            return False
        for a, s in self.incl.data.items():
            if f(s) != self.top.data[a]:
                return False
        return all(self.p(f.data[c]) == self.bottom.data[c]
                   for c in self.incl.target.all_cells())


def iter_lifts(prob: LiftingProblem):
    """All lifts of the square, by backtracking in cell order.

    The cells of B the top map fixes are checked once, up front.  The
    search then fills in only the other cells, by dimension then index:
    for a horn square the missing face and the top cell, for a boundary
    square the top cell alone.  Every image, fixed or found, must have
    the images of its faces as faces (looked up in X's face index), lie
    over the cell's bottom image and be marked where the problem
    demands it.
    """
    B, X = prob.incl.target, prob.p.source
    bottom = prob.bottom.data

    def allowed(c, s):
        if prob.p(s) != bottom[c]:
            return False
        return c not in prob.marked_cells or prob.dec.is_marked(s)

    index = {d: face_index(X, d) for d in B.counts}
    for assign in search(B, index, allowed, fixed=prob.forced()):
        yield SimplicialMap(B, X, assign, check=False)


def solve_lift(prob: LiftingProblem) -> SimplicialMap | None:
    """First lift of the square, or None.  The search is complete, so
    None means no lift exists."""
    return next(iter_lifts(prob), None)


@dataclass
class FibrationReport:
    prop: str
    max_dim: int
    ok: bool
    counterexample: LiftingProblem | None = None
    squares: int = 0
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _cap(max_dim: int) -> None:
    if max_dim > DIM_CAP:
        raise ValueError(f"max_dim {max_dim} above the dimension cap {DIM_CAP}")


def _simplex_inclusion(n: int, cells) -> SimplicialMap:
    """The subcomplex of Delta^n on the face-closed ``cells``, included."""
    D = standard_simplex(n)
    A, data = subcomplex(D, cells)
    return SimplicialMap(A, D, data, check=False)


def horn_inclusion(n: int, i: int) -> SimplicialMap:
    return _simplex_inclusion(n, horn_cells(n, i))


def boundary_inclusion(n: int) -> SimplicialMap:
    return _simplex_inclusion(n, boundary_cells(n))


def _back(incl: SimplicialMap) -> dict:
    return {s.base: a for a, s in incl.data.items()}


def _facet_cells(incl: SimplicialMap):
    """Pairs (k, A-cell over the k-th facet) for the facets A contains."""
    D = incl.target
    n = D.top_dim
    if n == 0:
        return []
    back = _back(incl)
    out = []
    for k in range(n + 1):
        f = D.face(nondeg(n, 0), k)
        if f.base in back:
            out.append((k, back[f.base]))
    return out


def _bottom_map(D: SimplicialSet, Y: SimplicialSet, s: Simplex) -> SimplicialMap:
    """The map from the standard simplex D to Y sending its top cell to
    s, built top-down from the face table: the faces of a standard
    simplex are nondegenerate cells, and the first cell reached above
    each one sets its image to Y's face of that cell's image."""
    cells = list(D.all_cells())
    img = {cells[-1]: s}
    for c in reversed(cells):
        for i, f in enumerate(D.faces.get(c, ())):
            if f.base not in img:
                img[f.base] = Y.face(img[c], i)
    return SimplicialMap(D, Y, {c: img[c] for c in cells}, check=False)


def _squares(p: SimplicialMap, incl: SimplicialMap):
    """The commuting squares over ``incl``: a function sending a list
    of tops to one lifting problem per square with one of those tops.

    A bottom is a top-dimensional simplex of Y whose faces at the
    facets A contains are the images of the top there; the index of
    those is built once here from Y's face index, and each key lists
    its simplices in the order of ``Y.simplices``.
    """
    D, Y = incl.target, p.target
    n = D.top_dim
    fc = _facet_cells(incl)
    index: dict = {}
    for faces, simps in face_index(Y, n).items():
        index.setdefault(tuple(faces[k] for k, _ in fc), []).extend(simps)
    for simps in index.values():
        # base cell, then the collapse set in lexicographic order
        simps.sort(key=lambda s: (s.base, s.word[::-1]))

    def squares(tops):
        for top in tops:
            key = tuple(p(top.data[a]) for _, a in fc)
            for s in index.get(key, []):
                yield LiftingProblem(incl, p, top, _bottom_map(D, Y, s))
    return squares


def _verdict(prop: str, max_dim: int, groups, detail,
             squares: int = 0) -> FibrationReport:
    """Walk ``groups``, pairs (key, squares), counting the squares on top
    of ``squares``; fail at the first one ``solve_lift`` cannot fill,
    with ``detail(*key)``."""
    for key, probs in groups:
        for prob in probs:
            squares += 1
            if solve_lift(prob) is None:
                return FibrationReport(prop, max_dim, False, prob, squares,
                                       detail(*key))
    return FibrationReport(prop, max_dim, True, None, squares)


def _all_squares(p: SimplicialMap, incl: SimplicialMap):
    return _squares(p, incl)(enumerate_homs(incl.source, p.source))


def inner_fibration(p: SimplicialMap, max_dim: int) -> FibrationReport:
    """Right lifting against every inner horn square up to max_dim."""
    _cap(max_dim)
    return _verdict("inner-fibration", max_dim, (
        ((n, i), _all_squares(p, horn_inclusion(n, i)))
        for n in range(2, max_dim + 1) for i in range(1, n)),
        "unfillable square against the ({},{}) horn".format)


def _edge_of(X: SimplicialSet, e) -> Simplex:
    if not isinstance(e, Simplex):
        try:
            e = nondeg(*e)
        except TypeError:
            raise ValueError(f"unknown edge {e!r}")
    if e.dim != 1 or not 0 <= e.base[1] < X.n_cells(e.base[0]):
        raise ValueError(f"unknown edge {e!r}")
    return e


def _last_edge_cell(incl: SimplicialMap):
    n = incl.target.top_dim
    return _back(incl)[simplex_cell(n, (n - 1, n))]


def _right_horn_groups(p: SimplicialMap, edges, max_dim: int):
    """Per right horn (n, n) up to max_dim and per edge e of ``edges``:
    the key (e, n, n) and the squares whose final edge is e."""
    for n in range(2, max_dim + 1):
        incl = horn_inclusion(n, n)
        last = _last_edge_cell(incl)
        by_edge: dict = {}
        for f in enumerate_homs(incl.source, p.source):
            by_edge.setdefault(f.data[last], []).append(f)
        squares_of = _squares(p, incl)
        for e in edges:
            yield (e, n, n), squares_of(by_edge.get(e, []))


def cartesian_edge(p: SimplicialMap, e, max_dim: int) -> FibrationReport:
    """Right lifting against the right horns whose final edge is e."""
    _cap(max_dim)
    e = _edge_of(p.source, e)
    return _verdict("cartesian-edge", max_dim,
                    _right_horn_groups(p, [e], max_dim),
                    "edge {} fails the ({},{}) horn test".format)


def marked_supply(p: SimplicialMap, dec: Decorated) -> FibrationReport:
    """A marked edge over every base edge, ending at every vertex over
    the base edge's target.

    Each pair of a nondegenerate base edge and a vertex over its target
    is one square against the inclusion of the final vertex of Delta^1,
    with the edge required marked, and ``solve_lift`` decides it.  The
    squares share one inclusion, so the search plans it once.
    Degenerate base edges always have the degenerate marked lift, so
    only nondegenerate ones are enumerated.
    """
    X, Y = p.source, p.target

    def groups():
        for ce in sorted(Y.cells(1)):
            ey = nondeg(*ce)
            vy = Y.face(ey, 0)
            for cx in sorted(X.cells(0)):
                x = nondeg(*cx)
                if p(x) == vy:
                    yield (ce, cx), [_supply_problem(p, dec, ey, x)]

    return _verdict("marked-supply", 1, groups(),
                    "no marked edge over {} ending at {}".format)


@lru_cache(maxsize=None)
def _supply_inclusion() -> SimplicialMap:
    """The final vertex of Delta^1, built once so that every supply
    square shares its search plan."""
    return _simplex_inclusion(1, {simplex_cell(1, (1,))})


def _supply_problem(p: SimplicialMap, dec: Decorated,
                    ey: Simplex, x: Simplex) -> LiftingProblem:
    incl = _supply_inclusion()
    top = SimplicialMap(incl.source, p.source, {(0, 0): x}, check=False)
    return LiftingProblem(incl, p, top, _bottom_map(incl.target, p.target, ey),
                          marked_cells=frozenset({(1, 0)}), dec=dec)


def cartesian_fibration(p: SimplicialMap, dec: Decorated,
                        max_dim: int) -> FibrationReport:
    """Inner fibration, every marked edge Cartesian, and marked supply,
    all bounded by max_dim."""
    _cap(max_dim)
    inner = inner_fibration(p, max_dim)
    if not inner.ok:
        return FibrationReport(
            "cartesian-fibration", max_dim, False, inner.counterexample,
            inner.squares, "inner fibration fails: " + inner.detail)
    edges = [nondeg(*c) for c in sorted(dec.marked)]
    marked = _verdict("cartesian-fibration", max_dim,
                      _right_horn_groups(p, edges, max_dim),
                      "marked edge {} fails the ({},{}) horn test".format,
                      inner.squares)
    if not marked.ok:
        return marked
    supply = marked_supply(p, dec)
    squares = marked.squares + supply.squares
    if not supply.ok:
        return FibrationReport(
            "cartesian-fibration", max_dim, False, supply.counterexample,
            squares, "marked supply fails: " + supply.detail)
    return FibrationReport("cartesian-fibration", max_dim, True, None, squares)


def trivial_fibration(p: SimplicialMap, max_dim: int) -> FibrationReport:
    """Right lifting against the boundary inclusions up to max_dim; the
    dimension 0 case is surjectivity on vertices."""
    _cap(max_dim)
    return _verdict("trivial-fibration", max_dim, (
        ((n,), _all_squares(p, boundary_inclusion(n)))
        for n in range(max_dim + 1)),
        "unfillable square against the boundary of dimension {}".format)

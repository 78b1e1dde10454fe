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

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import check_max_dim
from .core.complex import (SimplicialSet, boundary_cells, horn_cells,
                           simplex_cell, standard_simplex, subcomplex)
from .core.maps import (SimplicialMap, enumerate_homs, face_index, search,
                         tuple_getter)
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

    Construction checks that ``incl`` is an inclusion, once per
    inclusion object, and that the square commutes on A's maximal cells
    (a horn's facets).  That is the whole square when ``top`` and
    ``bottom`` are simplicial.  On any input, ``search`` checks every
    cell the top map fixes before it looks for a lift, so a square that
    fails at a lower cell has none.
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
        # p(top(a)) == bottom(incl(a)) on A's maximal cells, read off the
        # maps' data; for simplicial maps the other cells follow, and
        # the search checks every cell the top fixes anyway
        top, p = self.top.data, self.p.data
        incl, bottom = self.incl.data, self.bottom.data
        for a in _maximal_cells(self.incl):
            t = top[a]
            if degenerate_word(p[t.base], t.word) != bottom[incl[a].base]:
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


@lru_cache(maxsize=8)
def _maximal_cells(incl: SimplicialMap) -> tuple:
    """The cells of A that are no face of another, once ``incl`` is
    checked to be an inclusion: distinct nondegenerate images, which
    the search takes as fixed cells of B.  Kept per inclusion object,
    so the squares against one inclusion check it once."""
    for a, s in incl.data.items():
        if s.word:
            raise ValueError(f"the left leg sends {a} to a degenerate "
                             f"simplex")
    if len(set(incl.data.values())) < len(incl.data):
        raise ValueError("the left leg sends two cells to one")
    A = incl.source
    below = {f.base for fs in A.faces.values() for f in fs}
    return tuple(a for a in A.all_cells() if a not in below)


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
    p, bottom = prob.p.data, prob.bottom.data
    marked, dec = prob.marked_cells, prob.dec

    def allowed(c, s):
        word, base = s
        if (degenerate_word(p[base], word) if word else p[base]) != \
                bottom[c]:
            return False
        return c not in marked or dec.is_marked(s)

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


def _simplex_inclusion(n: int, cells) -> SimplicialMap:
    """The subcomplex of Delta^n on the face-closed ``cells``, included."""
    D = standard_simplex(n)
    A, data = subcomplex(D, cells)
    return SimplicialMap(A, D, data, check=False)


@lru_cache(maxsize=None)
def horn_inclusion(n: int, i: int) -> SimplicialMap:
    """The horn of Delta^n missing face i, included; built once and
    shared, like ``boundary_inclusion``, so callers must not change it."""
    return _simplex_inclusion(n, horn_cells(n, i))


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=8)
def _bottom_path(D: SimplicialSet) -> tuple:
    """The cells of the standard simplex D, and the steps that give
    each cell below the top its image: triples (position, parent
    position, i) in order, the cell being d_i of the parent.  The
    parent is the first cell above it that has it as a face, counting
    down from the top cell; its image is set by an earlier step."""
    cells = tuple(D.all_cells())
    pos = {c: k for k, c in enumerate(cells)}
    seen = {len(cells) - 1}
    steps = []
    for k in reversed(range(len(cells))):
        for i, f in enumerate(D.faces.get(cells[k], ())):
            q = pos[f.base]
            if q not in seen:
                seen.add(q)
                steps.append((q, k, i))
    return cells, tuple(steps)


def _bottom_map(D: SimplicialSet, Y: SimplicialSet, s: Simplex) -> SimplicialMap:
    """The map from the standard simplex D to Y sending its top cell to
    s, built top-down along D's path: one face in Y per cell below the
    top, taken of its parent's image."""
    cells, steps = _bottom_path(D)
    img = [None] * len(cells)
    img[-1] = s
    face = Y.face
    for q, k, i in steps:
        img[q] = face(img[k], i)
    return SimplicialMap(D, Y, dict(zip(cells, img)), check=False)


def _squares(p: SimplicialMap, incl: SimplicialMap):
    """The commuting squares over ``incl``: a function sending a list
    of tops to one lifting problem per square with one of those tops.

    A bottom is a top-dimensional simplex of Y whose faces at the
    facets A contains are the images of the top there.  The index of
    those is built once here from Y's face index, each key read with
    one ``operator.itemgetter``; a key that gathers several of its
    entries lists their simplices in the order of ``Y.simplices``,
    as each entry already does.
    """
    D, Y = incl.target, p.target
    n = D.top_dim
    fc = _facet_cells(incl)
    facets = tuple_getter([k for k, _ in fc])
    index: dict = {}
    for faces, simps in face_index(Y, n).items():
        index.setdefault(facets(faces), []).append(simps)
    for key, lists in index.items():
        if len(lists) == 1:
            index[key] = lists[0]
        else:
            # base cell, then the collapse set in lexicographic order
            index[key] = sorted(itertools.chain.from_iterable(lists),
                                key=lambda s: (s.base, s.word[::-1]))
    corner = [a for _, a in fc]

    def squares(tops):
        for top in tops:
            key = tuple([p(top.data[a]) for a in corner])
            for s in index.get(key, ()):
                yield LiftingProblem(incl, p, top, _bottom_map(D, Y, s))
    return squares


def _verdict(prop: str, max_dim: int, *stages) -> FibrationReport:
    """Walk the ``stages``, pairs (prefix, groups) whose groups are pairs
    (detail, squares), in turn, counting the squares; fail at the first
    one ``solve_lift`` cannot fill, with ``prefix + detail``."""
    squares = 0
    for prefix, groups in stages:
        for detail, probs in groups:
            for prob in probs:
                squares += 1
                if solve_lift(prob) is None:
                    return FibrationReport(prop, max_dim, False, prob,
                                           squares, prefix + detail)
    return FibrationReport(prop, max_dim, True, None, squares)


def _all_squares(p: SimplicialMap, incl: SimplicialMap):
    return _squares(p, incl)(enumerate_homs(incl.source, p.source))


def _inner_groups(p: SimplicialMap, max_dim: int):
    return ((f"unfillable square against the ({n},{i}) horn",
             _all_squares(p, horn_inclusion(n, i)))
            for n in range(2, max_dim + 1) for i in range(1, n))


def inner_fibration(p: SimplicialMap, max_dim: int) -> FibrationReport:
    """Right lifting against every inner horn square up to max_dim."""
    check_max_dim(max_dim)
    return _verdict("inner-fibration", max_dim,
                    ("", _inner_groups(p, max_dim)))


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
    the detail naming both and the squares whose final edge is e."""
    for n in range(2, max_dim + 1):
        incl = horn_inclusion(n, n)
        last = _last_edge_cell(incl)
        by_edge: dict = {}
        for f in enumerate_homs(incl.source, p.source):
            by_edge.setdefault(f.data[last], []).append(f)
        squares_of = _squares(p, incl)
        for e in edges:
            yield (f"edge {e} fails the ({n},{n}) horn test",
                   squares_of(by_edge.get(e, [])))


def cartesian_edge(p: SimplicialMap, e, max_dim: int) -> FibrationReport:
    """Right lifting against the right horns whose final edge is e."""
    check_max_dim(max_dim)
    e = _edge_of(p.source, e)
    return _verdict("cartesian-edge", max_dim,
                    ("", _right_horn_groups(p, [e], max_dim)))


def marked_supply(p: SimplicialMap, dec: Decorated) -> FibrationReport:
    """A marked edge over every base edge, ending at every vertex over
    the base edge's target.

    Each pair of a nondegenerate base edge and a vertex over its target
    is one square against the inclusion of the final vertex of Delta^1,
    the (1,1) horn, with the edge required marked, and ``solve_lift``
    decides it.  The squares share one inclusion, so the search plans it
    once.  Degenerate base edges always have the degenerate marked lift,
    so only nondegenerate ones are enumerated.
    """
    return _verdict("marked-supply", 1, ("", _supply_groups(p, dec)))


def _supply_groups(p: SimplicialMap, dec: Decorated):
    X, Y = p.source, p.target
    for ce in sorted(Y.cells(1)):
        ey = nondeg(*ce)
        vy = Y.face(ey, 0)
        for cx in sorted(X.cells(0)):
            x = nondeg(*cx)
            if p(x) == vy:
                yield (f"no marked edge over {ce} ending at {cx}",
                       [_supply_problem(p, dec, ey, x)])


def _supply_problem(p: SimplicialMap, dec: Decorated,
                    ey: Simplex, x: Simplex) -> LiftingProblem:
    incl = horn_inclusion(1, 1)
    top = SimplicialMap(incl.source, p.source, {(0, 0): x}, check=False)
    return LiftingProblem(incl, p, top, _bottom_map(incl.target, p.target, ey),
                          marked_cells=frozenset({(1, 0)}), dec=dec)


def cartesian_fibration(p: SimplicialMap, dec: Decorated,
                        max_dim: int) -> FibrationReport:
    """Inner fibration, every marked edge Cartesian, and marked supply,
    all bounded by max_dim: one walk over the three kinds of square, in
    that order, each stage started only once the one before it holds."""
    check_max_dim(max_dim)
    edges = [nondeg(*c) for c in sorted(dec.marked)]
    return _verdict("cartesian-fibration", max_dim,
                    ("inner fibration fails: ", _inner_groups(p, max_dim)),
                    ("marked ", _right_horn_groups(p, edges, max_dim)),
                    ("marked supply fails: ", _supply_groups(p, dec)))


def trivial_fibration(p: SimplicialMap, max_dim: int) -> FibrationReport:
    """Right lifting against the boundary inclusions up to max_dim; the
    dimension 0 case is surjectivity on vertices."""
    check_max_dim(max_dim)
    return _verdict("trivial-fibration", max_dim, ("", (
        (f"unfillable square against the boundary of dimension {n}",
         _all_squares(p, boundary_inclusion(n)))
        for n in range(max_dim + 1))))

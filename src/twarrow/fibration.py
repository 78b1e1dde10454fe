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
on the lifting problem itself (``marked_cells``) so failed reports stay
re-checkable by ``solve_lift``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import DIM_CAP
from .core.complex import (SimplicialSet, boundary_cells, horn_cells,
                           simplex_cell, standard_simplex, subcomplex)
from .core.maps import SimplicialMap, enumerate_homs, face_index, search
from .core.simplex import Simplex, nondeg
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
        for a in self.incl.source.all_cells():
            x = nondeg(*a)
            if self.p(self.top(x)) != self.bottom(self.incl(x)):
                raise ValueError(f"the square does not commute at {a}")

    def forced(self) -> dict:
        """Images of B-cells already determined by the top map."""
        out = {}
        for a, s in self.incl.data.items():
            assert not s.word, "the left leg must be an inclusion"
            out[s.base] = self.top.data[a]
        return out

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

    Cells of B are filled in by dimension then index; the candidates
    for a cell are the simplices of X whose faces are the images already
    chosen (looked up in X's face index), that lie over the cell's
    bottom image, that equal the top map's image where it has one, and
    that are marked where the problem demands it.  Exhausted subtrees
    are remembered by the part of the assignment later cells can still
    see, so the search does not redo them.
    """
    B, X = prob.incl.target, prob.p.source
    forced = prob.forced()
    bottom = prob.bottom.data

    def allowed(c, s):
        if c in forced and s != forced[c]:
            return False
        if prob.p(s) != bottom[c]:
            return False
        return c not in prob.marked_cells or prob.dec.is_marked(s)

    index = {d: face_index(X, d) for d in B.counts}
    for assign in search(B, index, allowed, memo=True):
        yield SimplicialMap(B, X, dict(assign), check=False)


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


def horn_inclusion(n: int, i: int) -> SimplicialMap:
    D = standard_simplex(n)
    A, data = subcomplex(D, horn_cells(n, i))
    return SimplicialMap(A, D, data, check=False)


def boundary_inclusion(n: int) -> SimplicialMap:
    D = standard_simplex(n)
    A, data = subcomplex(D, boundary_cells(n))
    return SimplicialMap(A, D, data, check=False)


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
    # standard simplices label every cell by its vertex tuple
    data = {c: Y.restrict(s, D.labels[c]) for c in D.all_cells()}
    return SimplicialMap(D, Y, data, check=False)


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

    Degenerate base edges always have the degenerate marked lift, so
    only nondegenerate ones are enumerated.
    """
    X, Y = p.source, p.target
    edges = [s for s in X.simplices(1) if not s.is_degenerate]
    squares = 0
    for ce in sorted(Y.cells(1)):
        ey = nondeg(*ce)
        vy = Y.face(ey, 0)
        for cx in sorted(X.cells(0)):
            x = nondeg(*cx)
            if p(x) != vy:
                continue
            squares += 1
            if any(p(s) == ey and X.face(s, 0) == x and dec.is_marked(s)
                   for s in edges):
                continue
            prob = _supply_problem(p, dec, ey, x)
            return FibrationReport(
                "marked-supply", 1, False, prob, squares,
                f"no marked edge over {ce} ending at {cx}")
    return FibrationReport("marked-supply", 1, True, None, squares)


def _supply_problem(p: SimplicialMap, dec: Decorated,
                    ey: Simplex, x: Simplex) -> LiftingProblem:
    D = standard_simplex(1)
    A, data = subcomplex(D, {simplex_cell(1, (1,))})
    incl = SimplicialMap(A, D, data, check=False)
    top = SimplicialMap(A, p.source, {(0, 0): x}, check=False)
    return LiftingProblem(incl, p, top, _bottom_map(D, p.target, ey),
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

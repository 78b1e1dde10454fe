"""Twisted arrow complexes of scaled inputs, their slices and cone fibers.

An n-simplex of the twisted arrow complex of C is a scaled map into C
from the mirror join of Delta^n with its own reversal, stored as its
underlying witness: a (2n+1)-simplex of C whose restrictions to the
mirror-join thin triangles are thin.  Faces and degeneracies act through
the cosimplicial structure of the mirror join, so the k-th face deletes
the position pair {k, 2n+1-k} and the j-th degeneracy doubles a mirror
pair of positions.  The slice and cone-fiber complexes are built the
same way from the cone and the mirror cone.  All three read the witness
dimension, the face and collapse positions and the thin triangles from
the cosimplicial objects of :mod:`twarrow.zoo.cosimplicial`, and share
one normalization engine below.

Simplex identity is the witness itself; no quotient is taken.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import check_max_dim
from .core.complex import Cell, SimplicialSet
from .core.maps import SimplicialMap, simplex_by_chain, unwrap_label
from .core.ops import op_simplex, opposite, pair_simplex, product
from .core.poset import Poset, nerve
from .core.simplex import (Simplex, collapses_to_word, constant_simplex, nondeg,
                           nondeg_row, simplex_on, strip_collapse)
from .decor import Decorated, collapse_to_point, decorated_subcomplex
from .zoo import (VertexCosimplicial, boxplus_complex, cone_inclusion,
                  cone_object, cone_retraction, mirror_cone_object,
                  mirror_join_object, q_complex)


# -- the shared builder ------------------------------------------------


@dataclass
class WitnessComplex:
    """A complex whose nondegenerate cells carry witness simplices of a
    source complex, together with the tables to go back and forth.
    ``shape`` is the cosimplicial object the witnesses are maps out of."""

    dec: Decorated
    source: Decorated
    max_dim: int
    witness: dict
    cell_of: dict
    shape: VertexCosimplicial

    @property
    def space(self) -> SimplicialSet:
        return self.dec.space

    def normalize(self, x: Simplex, n: int) -> Simplex:
        """The cell-level simplex named by an arbitrary valid witness."""
        phi, m = list(range(n + 1)), n
        while (j := self.shape.collapse_index(m, x.word)) is not None:
            for p in reversed(self.shape.collapse_positions(m)[j]):
                x = strip_collapse(x, p)
            phi = [v if v <= j else v - 1 for v in phi]
            m -= 1
        word = collapses_to_word({t for t in range(n) if phi[t] == phi[t + 1]})
        return simplex_on(word, self.cell_of[x])


def _build(F: VertexCosimplicial, label, src: Decorated, max_dim: int,
           extra_ok=None) -> WitnessComplex:
    """The n-cells are the F.width(n)-simplices of ``src`` that are thin
    on F's thin triples at [n], factor through no codegeneracy and pass
    ``extra_ok``; ``label(chain, n)`` names a cell by the vertex chain
    of its witness.

    Whether a simplex factors through a codegeneracy depends on its
    word alone, so only the simplices on ``F.free_words(n, p)`` are
    made, over every base cell of dimension p.  The cells of each
    dimension are the witnesses in sorted order."""
    space = src.space
    counts, faces, labels = {}, {}, {}
    witness, cell_of = {}, {}
    for n in range(max_dim + 1):
        triples = F.thin_triples(n)
        m = F.width(n)
        found = []
        for p in sorted(space.counts):
            if p > m:
                break
            words = F.free_words(n, p)
            for h in nondeg_row(p, space.counts[p]):
                for w in words:
                    x = Simplex(w, h.base) if w else h
                    if extra_ok is not None and not extra_ok(n, x):
                        continue
                    if src.thin_on(x, triples):
                        found.append(x)
        found.sort()
        if found:
            counts[n] = len(found)
        for h, x in zip(nondeg_row(n, len(found)), found):
            witness[h.base] = x
            cell_of[x] = h.base
            labels[h.base] = label(
                tuple(map(unwrap_label, space.vertex_labels(x))), n)
    if len(set(labels.values())) < len(labels):
        labels = {}
    out = WitnessComplex(Decorated(SimplicialSet(counts, {}, labels)),
                         src, max_dim, witness, cell_of, F)
    for (n, i), x in witness.items():
        if n >= 1:
            faces[(n, i)] = tuple(
                out.normalize(space.face_many(x, ps), n - 1)
                for ps in F.face_positions(n))
    built = SimplicialSet(counts, faces, labels)
    edge_triples = list(itertools.combinations(range(F.width(1) + 1), 3))
    marked = frozenset(c for c in built.cells(1)
                       if src.thin_on(witness[c], edge_triples))
    out.dec = Decorated(built, marked=marked)
    return out


def _mirror_label(chain, n: int):
    return tuple((chain[i], chain[2 * n + 1 - i]) for i in range(n + 1))


def _head_label(chain, n: int):
    return tuple(chain[: n + 1])


def _vertex_cell(space: SimplicialSet, y) -> Cell:
    # an unlabelled vertex is named by its cell id
    hits = [c for c in space.cells(0)
            if unwrap_label(space.labels.get(c, c)) == y]
    if len(hits) != 1:
        raise ValueError(f"unknown vertex {y!r}")
    return hits[0]


# -- the twisted arrow complex -----------------------------------------


def twisted_arrow(src: Decorated, max_dim: int) -> WitnessComplex:
    """Twisted arrow complex of a scaled input, truncated at max_dim.

    Vertices are the edges of the input, an n-cell is a (2n+1)-simplex
    whose two halves read an n-chain of arrows with the target chain
    reversed.  An edge is marked when its witness is thin on all four
    of its triangles, not just the mirror-join ones.
    """
    check_max_dim(max_dim)
    return _build(mirror_join_object(), _mirror_label, src, max_dim)


def tw_projection(twc: WitnessComplex):
    """The map to (input) x (input reversed), by restriction to the two
    halves of each witness.  Returns (map, product data).
    """
    C = twc.source.space
    pdata = product(C, opposite(C), top_dim=twc.max_dim)
    data = {}
    for c, x in twc.witness.items():
        n = c[0]
        sx = C.restrict(x, range(n + 1))
        sy = op_simplex(C.restrict(x, range(n + 1, 2 * n + 2)))
        data[c] = pair_simplex(pdata.index, sx, sy)
    return SimplicialMap(twc.space, pdata.complex, data), pdata


def tw_functor(f: SimplicialMap, src_tw: WitnessComplex,
               tgt_tw: WitnessComplex) -> SimplicialMap:
    """The induced map of twisted arrow complexes of a scaled map."""
    data = {c: tgt_tw.normalize(f(x), c[0]) for c, x in src_tw.witness.items()}
    return SimplicialMap(src_tw.space, tgt_tw.space, data)


def tw_fiber(twc: WitnessComplex, x=None, y=None):
    """Fiber of the twisted arrow complex over vertices of the input.

    Keeps the cells whose witness is constant at x on the source half,
    resp. constant at y on the reversed half; either side may be None.
    Returns the decorated fiber and its inclusion.
    """
    C = twc.source.space
    cx = None if x is None else _vertex_cell(C, x)
    cy = None if y is None else _vertex_cell(C, y)
    keep = set()
    for c, w in twc.witness.items():
        n = c[0]
        if cx is not None and \
                C.restrict(w, range(n + 1)) != constant_simplex(cx, n):
            continue
        if cy is not None and \
                C.restrict(w, range(n + 1, 2 * n + 2)) != constant_simplex(cy, n):
            continue
        keep.add(c)
    return decorated_subcomplex(twc.dec, keep)


# -- the classical oracle ----------------------------------------------


def tw_poset(P: Poset) -> Poset:
    """Pairs a <= b, ordered by (a, b) <= (a', b') iff a <= a', b' <= b."""
    elems = [(a, b) for a in P.elements for b in P.elements if P.leq(a, b)]
    pairs = [(p, q) for p in elems for q in elems
             if P.leq(p[0], q[0]) and P.leq(q[1], p[1])]
    return Poset(elems, pairs)


def tw_comparison(P: Poset, twc: WitnessComplex) -> SimplicialMap:
    """Canonical map from the nerve of the pair poset into the twisted
    arrow complex of the nerve of P.

    A chain of pairs (a_0,b_0) <= ... <= (a_k,b_k) goes to the cell
    witnessed by the chain a_0 ... a_k b_k ... b_0.  On nerves this is
    an isomorphism in every truncation degree.
    """
    TP = nerve(tw_poset(P), top_dim=twc.max_dim)
    data = {}
    for c in TP.all_cells():
        chain = TP.labels[c]
        wit = tuple(a for a, _ in chain) + tuple(b for _, b in reversed(chain))
        data[c] = twc.normalize(simplex_by_chain(twc.source.space, wit), c[0])
    return SimplicialMap(TP, twc.space, data)


# -- slices and cone fibers --------------------------------------------


def slice_outer(src: Decorated, y, max_dim: int) -> WitnessComplex:
    """The outer slice at a vertex: n-cells are (n+1)-simplices ending
    at y whose triangles away from the cone point are thin.  An edge is
    marked when its witness triangle is thin."""
    cy = _vertex_cell(src.space, y)

    def ok(n, x):
        return src.space.vertices(x)[n + 1] == cy

    return _build(cone_object(), _head_label, src, max_dim, extra_ok=ok)


def slice_projection(slc: WitnessComplex) -> SimplicialMap:
    """Forget the cone point; lands in the underlying input complex."""
    data = {c: slc.source.space.restrict(x, range(c[0] + 1))
            for c, x in slc.witness.items()}
    return SimplicialMap(slc.space, slc.source.space, data)


def cone_fiber_complex(src: Decorated, y, max_dim: int) -> WitnessComplex:
    """n-cells are (2n+2)-simplices totally degenerate at y from
    position n+1 on, thin on the mirror-cone triangles."""
    cy = _vertex_cell(src.space, y)
    C = src.space

    def ok(n, x):
        return C.restrict(x, range(n + 1, 2 * n + 3)) == \
            constant_simplex(cy, n + 1)

    return _build(mirror_cone_object(), _head_label, src, max_dim,
                  extra_ok=ok)


@dataclass
class ConeFiberSpan:
    """The cone fiber at a vertex with its two legs: rho to the outer
    slice and pi to the mirrored fiber of the twisted arrow complex."""

    cone: WitnessComplex
    outer: WitnessComplex
    tw: WitnessComplex
    fiber: Decorated
    fiber_incl: SimplicialMap
    rho: SimplicialMap
    pi: SimplicialMap


def cone_fiber_span(src: Decorated, y, max_dim: int) -> ConeFiberSpan:
    C = src.space
    cone = cone_fiber_complex(src, y, max_dim)
    outer = slice_outer(src, y, max_dim)
    twc = twisted_arrow(src, max_dim)
    fiber, incl = tw_fiber(twc, y=y)
    back = {s.base: c for c, s in incl.data.items()}

    rho_data, pi_data = {}, {}
    for c, x in cone.witness.items():
        n = c[0]
        rho_data[c] = outer.normalize(
            C.restrict(x, list(range(n + 1)) + [2 * n + 2]), n)
        s = twc.normalize(C.face(x, 2 * n + 2), n)
        pi_data[c] = Simplex(s.word, back[s.base])
    return ConeFiberSpan(
        cone, outer, twc, fiber, incl,
        rho=SimplicialMap(cone.space, outer.space, rho_data),
        pi=SimplicialMap(cone.space, fiber.space, pi_data))


# -- the quotient retraction -------------------------------------------


def _collapse_tail(dec: Decorated, first: int):
    """Quotient of a decorated standard simplex collapsing the face on
    the positions from ``first`` up to a point."""
    quot, qdec, _ = collapse_to_point(
        dec, [range(first, dec.space.top_dim + 1)])
    return qdec, quot


def _induced_on_quotient(qsrc, src_quot_map, qtgt, tgt_quot_map, raw):
    # send a class to the image of any representative; validate() is the
    # well-definedness check
    rep = {}
    for u, img in src_quot_map.data.items():
        if not img.word:
            rep.setdefault(img.base, u)
    data = {c: tgt_quot_map(raw(nondeg(*rep[c]))) for c in qsrc.space.all_cells()}
    return SimplicialMap(qsrc.space, qtgt.space, data)


@dataclass
class RetractionPair:
    mirror_quot: Decorated
    cone_quot: Decorated
    incl: SimplicialMap
    retr: SimplicialMap


def retraction_pair(n: int) -> RetractionPair:
    """The mirror join sits inside the mirror cone; after collapsing the
    far halves, folding the cone point back retracts one onto the other.

    Both maps are scaled for the quotient decorations, the retraction
    splits the inclusion, and the straightening homotopy has degenerate
    components because the composite fixes every vertex class.
    """
    qq, qmap = _collapse_tail(q_complex(n), n + 1)
    bq, bmap = _collapse_tail(boxplus_complex(n), n + 1)
    incl = _induced_on_quotient(qq, qmap, bq, bmap, cone_inclusion(n))
    retr = _induced_on_quotient(bq, bmap, qq, qmap, cone_retraction(n))
    return RetractionPair(qq, bq, incl, retr)

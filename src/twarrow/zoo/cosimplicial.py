"""Cosimplicial simplicial sets and their realization over a complex.

A cosimplicial object here assigns a standard simplex to each dimension
and acts on monotone maps through a vertex rule.  Realization over a
complex X is the colimit of one copy of the value per nondegenerate
simplex of X, glued along faces.
"""

from __future__ import annotations

import itertools

from ..core.complex import SimplicialSet, standard_simplex
from ..core.maps import SimplicialMap, map_by_vertices
from ..core.ops import GlueResult, glue
from ..core.simplex import flag_map, nondeg
from .simplexlike import boxplus_thin_triangle, q_thin_triangle, star_thin_triangle


class VertexCosimplicial:
    """Cosimplicial object determined by a vertex rule.

    ``width(d)`` is the dimension of the value at [d]; the value itself
    is that standard simplex.  ``vertex(g, d_src, d_tgt, v)`` gives the
    image of vertex v under the map induced by the monotone map g
    (stored as the tuple of its values on 0..d_src).  ``thin(d, tri)``
    names the thin vertex triples of the scaled value at [d]
    (``q_complex(d)``, ``star_complex(d)``, ``boxplus_complex(d)``).

    Derived from the vertex rule, once per dimension and object:
    ``face_positions(d)[k]``, the vertices of the value at [d] that the
    k-th coface misses, and ``collapse_positions(d)[j]``, the positions
    p with p and p+1 sent to one vertex by the j-th codegeneracy.
    """

    def __init__(self, width, vertex, thin, name="cosimplicial"):
        self.width = width
        self.vertex = vertex
        self.name = name
        self.thin = thin
        self._cache: dict[int, SimplicialSet] = {}
        self._positions: dict[tuple[str, int], tuple] = {}

    def at(self, d: int) -> SimplicialSet:
        if d not in self._cache:
            self._cache[d] = standard_simplex(self.width(d))
        return self._cache[d]

    def arrow(self, g: tuple[int, ...], d_src: int, d_tgt: int) -> SimplicialMap:
        assert len(g) == d_src + 1
        assert all(0 <= v <= d_tgt for v in g)
        return map_by_vertices(
            self.at(d_src), self.at(d_tgt),
            lambda v: self.vertex(g, d_src, d_tgt, v))

    def _images(self, g, d_src: int, d_tgt: int) -> list[int]:
        return [self.vertex(g, d_src, d_tgt, v)
                for v in range(self.width(d_src) + 1)]

    def face_positions(self, d: int) -> tuple[tuple[int, ...], ...]:
        if ("face", d) not in self._positions:
            self._positions["face", d] = tuple(
                tuple(sorted(set(range(self.width(d) + 1)) -
                             set(self._images(coface(k, d), d - 1, d))))
                for k in range(d + 1))
        return self._positions["face", d]

    def collapse_positions(self, d: int) -> tuple[tuple[int, ...], ...]:
        if ("collapse", d) not in self._positions:
            imgs = (self._images(flag_map((j,), d - 1), d, d - 1)
                    for j in range(d))
            self._positions["collapse", d] = tuple(
                tuple(p for p in range(self.width(d)) if img[p] == img[p + 1])
                for img in imgs)
        return self._positions["collapse", d]

    def thin_triples(self, d: int) -> list[tuple[int, int, int]]:
        """The thin vertex triples at [d], in lexicographic order."""
        return [t for t in itertools.combinations(range(self.width(d) + 1), 3)
                if self.thin(d, t)]


def mirror_join_object() -> VertexCosimplicial:
    """[d] goes to Delta^{2d+1}, the join of [d] with its reversal."""

    def vertex(g, ds, dt, v):
        if v <= ds:
            return g[v]
        return 2 * dt + 1 - g[2 * ds + 1 - v]

    return VertexCosimplicial(lambda d: 2 * d + 1, vertex, q_thin_triangle,
                              "mirror_join")


def cone_object() -> VertexCosimplicial:
    """[d] goes to Delta^{d+1}, the cone on [d]."""

    def vertex(g, ds, dt, v):
        return g[v] if v <= ds else dt + 1

    return VertexCosimplicial(lambda d: d + 1, vertex, star_thin_triangle,
                              "cone")


def mirror_cone_object() -> VertexCosimplicial:
    """[d] goes to Delta^{2d+2}, the cone on the mirrored join."""

    def vertex(g, ds, dt, v):
        if v <= ds:
            return g[v]
        if v <= 2 * ds + 1:
            return 2 * dt + 1 - g[2 * ds + 1 - v]
        return 2 * dt + 2

    return VertexCosimplicial(lambda d: 2 * d + 2, vertex,
                              boxplus_thin_triangle, "mirror_cone")


def coface(i: int, d: int) -> tuple[int, ...]:
    """The injection [d-1] -> [d] missing i, as a value tuple."""
    return tuple(v if v < i else v + 1 for v in range(d))


def realize(F: VertexCosimplicial, X: SimplicialSet,
            top_dim: int | None = None) -> GlueResult:
    """Colimit of F over the simplices of X.

    The result's pieces are indexed by the nondegenerate cells of X in
    sorted order; ``maps[k]`` embeds (not necessarily injectively) the
    value of F at the k-th cell.
    """
    cells = sorted(X.all_cells())
    pos = {c: k for k, c in enumerate(cells)}
    pieces = [F.at(c[0]) for c in cells]
    rels = []
    for c in cells:
        d = c[0]
        if d == 0:
            continue
        for i, f in enumerate(X.faces[c]):
            into_c = F.arrow(coface(i, d), d - 1, d)
            onto_base = F.arrow(flag_map(f.word, f.base[0]), d - 1, f.base[0])
            A = F.at(d - 1)
            for a in A.all_cells():
                rels.append(((pos[c], into_c(nondeg(*a))),
                             (pos[f.base], onto_base(nondeg(*a)))))
    return glue(pieces, rels, top_dim=top_dim)

"""The decorated ladder complexes and their prism comparisons.

The ladder poset on level n has six elements per rung: plain and
mirrored copies of a rung index 0..n, each carrying one of the three
decorations "ab", "aa", "bb".  Its nerve splits into two overlapping
summands (one per decoration pair {ab, aa} and {ab, bb}); each summand
is the join of a prism with its reversal.  The thin triangles below make
the inclusion of the doubled-prism core into the ladder well behaved,
and the whole gadget receives the prism q_complex(n) x Delta^1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import check_cap
from ..core.complex import (Cell, SimplicialSet, close_cells, standard_simplex,
                            subcomplex)
from ..core.maps import SimplicialMap, map_by_vertices, simplex_by_chain
from ..core.ops import ProductData, product
from ..core.poset import Poset, nerve, total_order
from ..core.simplex import Simplex, nondeg
from ..decor import Decorated, scaled
from .cosimplicial import mirror_join_object, realize
from .simplexlike import mirror, q_thin_triangle

# an element is (rung, eps, bar); eps "ab" sits below "aa" and "bb"
EPS = ("ab", "aa", "bb")


def eps_below(e: str, f: str) -> bool:
    return e == f or e == "ab"


def bar_element(u):
    ell, e, b = u
    return (ell, e, 1 - b)


def swap_element(u):
    ell, e, b = u
    return (ell, {"ab": "ab", "aa": "bb", "bb": "aa"}[e], b)


def ladder_leq(u, v) -> bool:
    (lu, eu, bu), (lv, ev, bv) = u, v
    if bu == 0 and bv == 0:
        return lu <= lv and eps_below(eu, ev)
    if bu == 1 and bv == 1:
        return lv <= lu and eps_below(ev, eu)
    if bu == 0 and bv == 1:
        return {eu, ev} != {"aa", "bb"}
    return False


def ladder_poset(n: int) -> Poset:
    check_cap("LADDER_CAP", n, "ladder_poset")
    elems = [(ell, e, b) for b in (0, 1) for e in EPS for ell in range(n + 1)]
    pairs = [(u, v) for u in elems for v in elems if u != v and ladder_leq(u, v)]
    return Poset(elems, pairs)


def ladder_thin_chain(chain) -> bool:
    """Thinness of a nondegenerate 3-chain of ladder elements.

    This is the smallest collection that is symmetric under the bar and
    swap automorphisms, contains every triangle of one of the two square
    parts, and makes the comparison maps from the doubled-chain pieces
    and from the prism decoration preserving.  Triangles entirely plain
    or entirely mirrored are always thin; one mirrored vertex needs the
    middle rung not to pass the mirrored one, except for the switch
    triangles over a single rung, which are thin against any mirrored
    endpoint.
    """
    ch = tuple(chain)
    if any(e == "bb" for (_, e, _) in ch):
        ch = tuple(swap_element(u) for u in ch)
        if any(e == "bb" for (_, e, _) in ch):
            return False  # mixed decorations never form a chain anyway
    nbars = sum(b for (_, _, b) in ch)
    if nbars in (0, 3):
        return True
    if nbars == 2:
        return ladder_thin_chain(tuple(bar_element(u) for u in reversed(ch)))
    (i, p, _), (j, q, _), (k, _r, _) = ch
    if j <= k:
        return True
    return i == j and p == "ab" and q == "aa" and _r == "ab"


@dataclass
class Ladder:
    dec: Decorated
    poset: Poset

    @property
    def space(self) -> SimplicialSet:
        return self.dec.space

    def cell_of_chain(self, chain) -> Cell:
        s = simplex_by_chain(self.space, chain)
        assert not s.is_degenerate
        return s.base


def ladder_complex(n: int) -> Ladder:
    P = ladder_poset(n)
    return Ladder(scaled(nerve(P), ladder_thin_chain), P)


# -- the prism and the comparison maps ---------------------------------


def prism_complex(n: int) -> tuple[Decorated, ProductData]:
    """q_complex(n) x Delta^1, a triangle thin when its projection to
    the mirrored join is: degenerate, or a thin triangle there."""
    data = product(standard_simplex(2 * n + 1), standard_simplex(1))

    def rule(chain):
        tri = [i for i, _ in chain]
        return len(set(tri)) < 3 or q_thin_triangle(n, tri)

    return scaled(data.complex, rule), data


def prism_vertex_to_ladder(n: int, lab):
    i, e = lab
    if i <= n:
        return (i, "ab" if e == 0 else "bb", 0)
    return (mirror(n, i), "aa" if e == 0 else "ab", 1)


def ladder_vertex_to_prism(n: int, u):
    ell, e, b = u
    if b == 0:
        return (ell, 0 if e in ("ab", "aa") else 1)
    return (mirror(n, ell), 0 if e == "aa" else 1)


def prism_to_ladder(n: int, L: Ladder, prism: ProductData) -> SimplicialMap:
    return map_by_vertices(prism.complex, L.space,
                           lambda lab: prism_vertex_to_ladder(n, lab))


def ladder_to_prism(n: int, L: Ladder, prism: ProductData) -> SimplicialMap:
    return map_by_vertices(L.space, prism.complex,
                           lambda u: ladder_vertex_to_prism(n, u))


def ladder_shift_partial(n: int, j: int, L: Ladder) -> SimplicialMap:
    """Lower plain "aa" rungs before j down to "ab"."""

    def fn(u):
        ell, e, b = u
        if b == 0 and e == "aa" and ell < j:
            return (ell, "ab", 0)
        return u

    return map_by_vertices(L.space, L.space, fn)


def ladder_shift_full(n: int, j: int, L: Ladder) -> SimplicialMap:
    """Lower all plain "aa" rungs and mirrored "bb" rungs before j."""

    def fn(u):
        ell, e, b = u
        if b == 0 and e == "aa":
            return (ell, "ab", 0)
        if b == 1 and e == "bb" and ell < j:
            return (ell, "ab", 1)
        return u

    return map_by_vertices(L.space, L.space, fn)


# -- summands, top cells, bands ----------------------------------------


def summand_eps(summand: int) -> tuple[str, str]:
    if summand == 1:
        return ("ab", "aa")
    if summand == 2:
        return ("ab", "bb")
    raise ValueError("summand is 1 or 2")


def summand_cells(L: Ladder, summand: int) -> set[Cell]:
    lo, hi = summand_eps(summand)
    out = set()
    for c in L.space.all_cells():
        if all(e in (lo, hi) for (_, e, _) in L.space.labels[c]):
            out.add(c)
    return out


def ladder_top_chain(n: int, r: int, s: int, summand: int):
    """The maximal chain with plain switch after rung r and mirrored
    switch after rung s."""
    lo, hi = summand_eps(summand)
    chain = []
    for p in range(2 * n + 4):
        if p <= r:
            chain.append((p, lo, 0))
        elif p <= n + 1:
            chain.append((p - 1, hi, 0))
        elif p <= 2 * n + 2 - s:
            chain.append((2 * n + 2 - p, hi, 1))
        else:
            chain.append((2 * n + 3 - p, lo, 1))
    return tuple(chain)


def top_cell_cells(L: Ladder, chain) -> set[Cell]:
    """All cells of the closed simplex spanned by a chain."""
    return close_cells(L.space, [L.cell_of_chain(chain)])


def band_cells(n: int, L: Ladder, summand: int, predicate) -> set[Cell]:
    """Union of the top simplices whose offset r - s satisfies the
    predicate."""
    out: set[Cell] = set()
    for r in range(n + 1):
        for s in range(n + 1):
            if predicate(r - s):
                out |= top_cell_cells(L, ladder_top_chain(n, r, s, summand))
    return out


def core_cells(L: Ladder, summand: int) -> set[Cell]:
    """Cells of the doubled-prism core in one summand: chains whose
    bar-stripped vertex sets fit on a common maximal square chain.

    Stripped to (position, level) pairs and sorted, such a set is a
    chain of the square exactly when the level never drops between
    neighbours.
    """
    lo, hi = summand_eps(summand)
    # an element of the other summand gets level -1 and is never kept
    level = {lo: 0, hi: 1}
    labels = L.space.labels
    out = set()
    for c in L.space.all_cells():
        levels = [v for _, v in sorted([(ell, level.get(e, -1))
                                        for ell, e, _ in labels[c]])]
        if levels[0] >= 0 and levels == sorted(levels):
            out.add(c)
    return out


def ladder_core_cells(L: Ladder) -> set[Cell]:
    return core_cells(L, 1) | core_cells(L, 2)


def wedge_poset(n: int) -> Poset:
    """[n] times the three-element wedge ab < aa, ab < bb."""
    V = Poset(["ab", "aa", "bb"], [("ab", "aa"), ("ab", "bb")])
    return total_order(n).product(V)


def core_comparison(n: int) -> SimplicialMap:
    """The doubled-chain realization of the wedge nerve, mapped onto the
    core subcomplex of the ladder.

    Each chain u_0 < ... < u_d of the wedge contributes the simplex with
    vertices u_0 .. u_d plain followed by u_d .. u_0 mirrored.  The map
    is an isomorphism; callers assert that.
    """
    L = ladder_complex(n)
    W = nerve(wedge_poset(n))
    wcells = sorted(W.all_cells())
    res = realize(mirror_join_object(), W)
    core, incl = subcomplex(L.space, ladder_core_cells(L))
    of_old = {s.base: c for c, s in incl.items()}

    def piece_map(k: int) -> SimplicialMap:
        chain = W.labels[wcells[k]]
        d = wcells[k][0]

        def rule(v: int):
            u = chain[v] if v <= d else chain[2 * d + 1 - v]
            return (u[0], u[1], 0 if v <= d else 1)

        return map_by_vertices(res.maps[k].source, L.space, rule)

    # a cell goes where its first member goes, in piece then cell order
    data = {}
    for k, f in enumerate(res.maps):
        fk = piece_map(k)
        for c, img in f.data.items():
            if not img.word and img.base not in data:
                s = fk(nondeg(*c))
                data[img.base] = Simplex(s.word, of_old[s.base])
    return SimplicialMap(res.complex, core, data)

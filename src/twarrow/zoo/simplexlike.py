"""Decorated standard simplices underlying the twisted arrow calculus.

All objects here are standard simplices with a thin-triangle decoration,
described through their vertex alphabets:

- ``q_complex(n)``: Delta^{2n+1} seen as the join of [n] with its
  reversal; vertex i <= n is "plain i", vertex i > n is "mirrored
  2n+1-i".
- ``q_diamond(n)``: the same simplex with extra thin triangles touching
  the two middle vertices, used by the top filling certificates.
- ``star_complex(n)``: Delta^{n+1}, a cone on Delta^n.
- ``boxplus_complex(n)``: Delta^{2n+2}, the cone on q_complex(n).
- ``square_complex(n)``: Delta^n x Delta^1 with a prism scaling.
"""

from __future__ import annotations

from math import comb

from ..core.complex import standard_simplex
from ..core.maps import SimplicialMap, map_by_vertices
from ..core.ops import ProductData, opposite, product
from ..decor import Decorated, scaled


# -- the mirrored join Delta^{2n+1} ------------------------------------


def mirror(n: int, v: int) -> int:
    """The mirrored partner of a vertex of q_complex(n)."""
    return 2 * n + 1 - v


def tau_subset(n: int, s) -> tuple[int, ...]:
    """The mirror involution on vertex subsets of q_complex(n)."""
    return tuple(sorted(mirror(n, v) for v in s))


def q_thin_triangle(n: int, tri) -> bool:
    a, b, c = sorted(tri)
    if c <= n or a >= n + 1:
        return True
    if b <= n < c:
        # plain pair with one mirrored vertex close enough
        return b <= 2 * n + 1 - c
    # a <= n < b: one plain vertex with a mirrored pair
    return a + b >= 2 * n + 1


def q_complex(n: int) -> Decorated:
    return scaled(standard_simplex(2 * n + 1), lambda t: q_thin_triangle(n, t))


def q_thin_count(n: int) -> int:
    return 2 * comb(n + 1, 3) + 2 * comb(n + 2, 3)


def q_diamond_extra(n: int) -> set[tuple[int, int, int]]:
    """Extra thin triangles around the seam vertices n and n+1."""
    out = set()
    for j in range(n + 1):
        out.add(tuple(sorted((n - 1, n, mirror(n, j)))))
        out.add(tuple(sorted((j, n + 1, n + 2))))
        if j != n:
            out.add(tuple(sorted((n - 1, n + 1, mirror(n, j)))))
            out.add(tuple(sorted((j, n, n + 2))))
    return {t for t in out if len(set(t)) == 3}


def q_diamond(n: int) -> Decorated:
    if n < 1:
        raise ValueError("the diamond variant needs n >= 1")
    extra = q_diamond_extra(n)
    return scaled(standard_simplex(2 * n + 1),
                  lambda t: q_thin_triangle(n, t) or t in extra)


def tau_map(n: int) -> SimplicialMap:
    """The mirror automorphism, read as a map from the opposite."""
    base = standard_simplex(2 * n + 1)
    return map_by_vertices(opposite(base), base, lambda v: mirror(n, v))


# -- cores inside q_complex(n) -----------------------------------------


def _check_core_index(n: int, i: int):
    if not 0 < i <= n:
        raise ValueError(f"core index i={i} outside the range 1..{n}")


def q_core_ambient(n: int, i: int) -> Decorated:
    """The decorated simplex the i-th core of level n lives in: the
    diamond variant at i = n, q_complex(n) below it."""
    _check_core_index(n, i)
    return q_diamond(n) if i == n else q_complex(n)


def q_core_cells(n: int, i: int) -> set:
    """Cells whose vertex set stays on one side or misses a mirror pair
    other than i's."""
    _check_core_index(n, i)
    X = standard_simplex(2 * n + 1)
    out = set()
    for c in X.all_cells():
        s = set(X.labels[c])
        if max(s) <= n or min(s) >= n + 1:
            out.add(c)
        elif any(j not in s and mirror(n, j) not in s
                 for j in range(n + 1) if j != i):
            out.add(c)
    return out


def q_core_extended_cells(n: int, i: int) -> set:
    """The core together with the first and last faces."""
    X = standard_simplex(2 * n + 1)
    out = q_core_cells(n, i)
    for c in X.all_cells():
        s = set(X.labels[c])
        if 0 not in s or 2 * n + 1 not in s:
            out.add(c)
    return out


def q_core_dull_family(n: int, i: int) -> list[frozenset[int]]:
    """The extended core as a union of faces, one complement per entry."""
    fam = [frozenset({0}), frozenset({2 * n + 1})]
    fam.extend(frozenset({j, mirror(n, j)}) for j in range(1, n + 1) if j != i)
    return fam


# -- cones -------------------------------------------------------------


def star_thin_triangle(n: int, tri) -> bool:
    return max(tri) <= n


def star_complex(n: int) -> Decorated:
    return scaled(standard_simplex(n + 1), lambda t: star_thin_triangle(n, t))


def boxplus_thin_triangle(n: int, tri) -> bool:
    a, b, c = sorted(tri)
    v = 2 * n + 2
    if c <= 2 * n + 1 and q_thin_triangle(n, tri):
        return True
    if a >= n + 1:
        return True
    if c == v and a <= n < b <= 2 * n + 1:
        return a + b >= 2 * n + 1
    return False


def boxplus_complex(n: int) -> Decorated:
    return scaled(standard_simplex(2 * n + 2),
                  lambda t: boxplus_thin_triangle(n, t))


def cone_retraction(n: int) -> SimplicialMap:
    """boxplus -> q, folding the cone point onto the last vertex."""
    return map_by_vertices(
        standard_simplex(2 * n + 2), standard_simplex(2 * n + 1),
        lambda v: min(v, 2 * n + 1))


def cone_inclusion(n: int) -> SimplicialMap:
    return map_by_vertices(
        standard_simplex(2 * n + 1), standard_simplex(2 * n + 2), lambda v: v)


# -- the prism Delta^n x Delta^1 ---------------------------------------


def square_complex(n: int, variant: str = "early") -> tuple[Decorated, ProductData]:
    """The prism with its thin triangles.

    A triangle is thin when it lies over the far end of the interval, or
    when it is one of the switch triangles; ``variant`` picks whether
    the switch happens at the first or the last possible vertex.
    """
    if variant not in ("early", "late"):
        raise ValueError(f"unknown prism scaling variant {variant!r}")
    data = product(standard_simplex(n), standard_simplex(1))

    def rule(chain):
        (i, e), (j, f), (k, g) = chain
        return ((e, f, g) == (1, 1, 1)
                or variant == "early" and (e, f, g) == (0, 1, 1) and i == j
                or variant == "late" and (e, f, g) == (0, 0, 1) and j == k)

    return scaled(data.complex, rule), data


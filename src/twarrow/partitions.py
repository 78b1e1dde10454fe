"""Ordered partitions of posets and the chain-subset mapping-space model.

An ordered partition splits a finite poset into a lower and an upper
part so that no upper element sits strictly below a lower one.
Collapsing the nerve of the upper part gives a pointed quotient; doing
the same on both sides leaves a quotient with two distinguished
vertices.  The totally ordered subsets meeting both parts form the
chain poset of the partition, ordered by inclusion.  Cutting a flag of
such subsets at the first upper element of the smallest one (or the
last lower element, or both) is an idempotent truncation operator, and
equality of truncations is a simplicial congruence on the nerve of the
chain poset.  The quotients by these congruences reproduce the
rigidification mapping spaces of the collapsed complexes out of a lower
vertex, resp. between the two distinguished vertices; the necklace
module supplies the independent check of that claim.

Edges of the chain poset additionally carry a marking derived from a
scaling of the ambient nerve: the edge S into T cuts T into segments
between consecutive members of S, and it is marked exactly when every
segment maps to an all-thin simplex of the two-sided quotient.  A
single thin triangle bridged by its long edge is the generating case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core.complex import Cell, SimplicialSet
from .core.maps import SimplicialMap, simplex_by_chain, unwrap_label
from .core.ops import GlueResult, quotient_by_key
from .core.poset import Poset, nerve, total_order
from .core.simplex import Simplex, flag_map, nondeg
from .decor import Decorated, collapse_to_point, flat
from .zoo import boxplus_complex, join_parts, q_complex, square_complex, star_complex

SIDES = ("R", "L", "A")


@dataclass(frozen=True)
class OrderedPartition:
    """A poset split into a lower and an upper part.

    Every element belongs to exactly one part, and no upper element may
    sit strictly below a lower one; an upper element is either above or
    incomparable to each lower element.
    """

    poset: Poset
    lower: frozenset
    upper: frozenset

    def __post_init__(self):
        object.__setattr__(self, "lower", frozenset(self.lower))
        object.__setattr__(self, "upper", frozenset(self.upper))
        elems = set(self.poset.elements)
        overlap = self.lower & self.upper
        if overlap:
            raise ValueError(f"overlap: {sorted(map(repr, overlap))} lie in both parts")
        off = (self.lower | self.upper) ^ elems
        if off:
            raise ValueError(
                f"parts do not cover the poset exactly: {sorted(map(repr, off))}")
        for y in self.upper:
            for x in self.lower:
                if self.poset.lt(y, x):
                    raise ValueError(
                        f"order violation: upper element {y!r} below lower {x!r}")

    def opposite(self) -> "OrderedPartition":
        return OrderedPartition(self.poset.opposite(), self.upper, self.lower)


def make_partition(poset: Poset, lower, upper) -> OrderedPartition:
    return OrderedPartition(poset, frozenset(lower), frozenset(upper))


def ordered_partitions(P: Poset):
    """Every ordered partition of P with both parts nonempty: the lower
    parts by size, each size in the order of ``itertools.combinations``
    over the elements."""
    for r in range(1, len(P.elements)):
        for lo in itertools.combinations(P.elements, r):
            hi = [e for e in P.elements if e not in lo]
            if not any(P.lt(y, x) for y in hi for x in lo):
                yield make_partition(P, lo, hi)


@dataclass(frozen=True)
class DecoratedPartition:
    """A scaled complex together with the partition of its vertex poset."""

    part: OrderedPartition
    dec: Decorated


def cone_partition(kind: str, n: int) -> OrderedPartition:
    """The vertex poset of a ``q``, ``star``, ``boxplus`` or ``square``
    complex split into its two parts, without building the complex."""
    if kind == "q":
        return make_partition(total_order(2 * n + 1), range(n + 1),
                              range(n + 1, 2 * n + 2))
    lo, hi = join_parts(kind, n)
    if kind == "square":
        P = total_order(n).product(total_order(1))
    else:
        # star and boxplus split a chain
        P = total_order(len(lo) + len(hi) - 1)
    return make_partition(P, lo, hi)


@lru_cache(maxsize=None)
def q_partition(n: int) -> DecoratedPartition:
    return DecoratedPartition(cone_partition("q", n), q_complex(n))


@lru_cache(maxsize=None)
def star_partition(n: int) -> DecoratedPartition:
    return DecoratedPartition(cone_partition("star", n), star_complex(n))


@lru_cache(maxsize=None)
def boxplus_partition(n: int) -> DecoratedPartition:
    return DecoratedPartition(cone_partition("boxplus", n),
                              boxplus_complex(n))


@lru_cache(maxsize=None)
def square_partition(n: int) -> DecoratedPartition:
    # the early-switch scaling is the one the cone collapse preserves
    return DecoratedPartition(cone_partition("square", n),
                              square_complex(n, "early")[0])


# -- totally ordered subsets -------------------------------------------


def _rank(P: Poset, e) -> tuple[int, int]:
    """The count of elements strictly below e, then its position:
    increasing along every chain."""
    i = P.index[e]
    return P.down_sizes[i], i


def sorted_chain(P: Poset, S) -> tuple:
    """A totally ordered subset listed in increasing order."""
    out = tuple(sorted(S, key=lambda e: _rank(P, e)))
    for u, v in zip(out, out[1:]):
        if not P.lt(u, v):
            raise ValueError(f"{sorted(map(repr, S))} is not totally ordered")
    return out


CHAIN_POSET_CAP = 16
# the tests build chain posets of at most 105 elements; the inclusion
# pairs grow quadratically, and 1,953 elements (boxplus at n = 4) take
# about 2 s
CHAIN_ELEMENTS_CAP = 2_000

_chain_poset_cache: dict = {}


def check_poset_size(n: int) -> None:
    """Refuse chain posets of a poset on more than ``CHAIN_POSET_CAP``
    elements, before anything is built."""
    if n > CHAIN_POSET_CAP:
        raise ValueError(f"chain poset enumeration needs a small poset: "
                         f"{n} elements, cap {CHAIN_POSET_CAP}")


def check_chain_elements(n: int) -> None:
    """Refuse a chain poset of more than ``CHAIN_ELEMENTS_CAP`` elements
    before its inclusion pairs are built."""
    if n > CHAIN_ELEMENTS_CAP:
        raise ValueError(f"chain poset needs few chains: {n} elements, "
                         f"cap {CHAIN_ELEMENTS_CAP}")


def chain_poset(part: OrderedPartition) -> Poset:
    """All totally ordered subsets starting in the lower part and ending
    in the upper one, under inclusion: the chains of one pass over the
    poset's chain levels with a lower first and an upper last element,
    by size, then ranks."""
    key = (part.poset.elements, part.poset.le, part.lower, part.upper)
    if key not in _chain_poset_cache:
        P = part.poset
        check_poset_size(len(P.elements))
        pe = P.elements
        els = [frozenset(pe[i] for i in c)
               for level in P.chain_levels(len(pe)) for c in level
               if len(c) > 1 and pe[c[0]] in part.lower
               and pe[c[-1]] in part.upper]
        check_chain_elements(len(els))
        els.sort(key=lambda S: (len(S), tuple(sorted(_rank(P, e) for e in S))))
        pairs = [(S, T) for S in els for T in els if S <= T]
        _chain_poset_cache[key] = Poset(els, pairs)
    return _chain_poset_cache[key]


def chain_poset_at(part: OrderedPartition, j) -> Poset:
    """The slice of the chain poset on subsets with smallest element j."""
    if j not in part.lower:
        raise ValueError(f"{j!r} is not in the lower part")
    P = chain_poset(part)
    keep = [S for S in P.elements if sorted_chain(part.poset, S)[0] == j]
    return P.subposet(keep)


# -- truncation and its congruences ------------------------------------


def truncate_chain(part: OrderedPartition, chain, side: str):
    """Truncate an ascending flag of chain-poset elements.

    Side "R" keeps, in every set, the elements up to the first upper
    element hi of the smallest set; "L" keeps those from its last lower
    element lo on; "A" keeps both, in one pass: a chain's lower members
    come before its upper ones, so the "R" cut keeps lo.  Repeated sets
    are allowed, so the flag of any nerve simplex, degenerate or not,
    can be fed in.
    """
    chain = tuple(frozenset(S) for S in chain)
    if not chain:
        return chain
    for S, T in zip(chain, chain[1:]):
        if not S <= T:
            raise ValueError("flag is not ascending")
    if side not in SIDES:
        raise ValueError(f"unknown truncation side {side!r}")
    P = part.poset
    first = sorted_chain(P, chain[0])
    hi = next(s for s in first if s in part.upper)
    lo = next(s for s in reversed(first) if s in part.lower)
    return tuple(frozenset(s for s in S if (side == "L" or P.leq(s, hi))
                           and (side == "R" or P.leq(lo, s)))
                 for S in chain)


def simplex_flag(N: SimplicialSet, s: Simplex) -> tuple:
    """The vertex chain of a nerve simplex, repeats included."""
    return tuple(unwrap_label(lab) for lab in N.vertex_labels(s))


def truncate(part: OrderedPartition, N: SimplicialSet, s: Simplex,
             side: str) -> Simplex:
    """Truncation of a chain-poset nerve simplex, as a simplex again."""
    return simplex_by_chain(N, truncate_chain(part, simplex_flag(N, s), side))


def congruence_quotient(part: OrderedPartition, side: str, j=None,
                        top_dim: int | None = None) -> tuple[GlueResult, SimplicialSet]:
    """Quotient of the chain-poset nerve by equality of truncations.

    The key of a simplex is the truncation of its flag.  It is computed
    once per nondegenerate cell, from the cell's chain: a degeneracy
    s_w(b) has b's flag with repeats, and the same first set, so its key
    is b's key read along the flag map of w.  The key relation must be
    a simplicial congruence; quotient_by_key re-checks that on the
    closed classes and raises if propagation ever merges differently
    keyed simplices.
    """
    P = chain_poset(part) if j is None else chain_poset_at(part, j)
    N = nerve(P, top_dim=top_dim)
    keys = {c: truncate_chain(part, N.labels[c], side) for c in N.all_cells()}

    def key(s: Simplex):
        k = keys[s.base]
        if not s.word:
            return k
        return tuple(k[v] for v in flag_map(s.word, s.base[0]))

    return quotient_by_key(N, key, top_dim=top_dim), N


def mapping_space(part: OrderedPartition, mode: str, j=None,
                  top_dim: int | None = None) -> SimplicialSet:
    """The chain-poset model of a mapping space of the collapsed nerve.

    Mode "right" takes a lower vertex j and models maps from j to the
    collapsed upper part; mode "two_sided" models maps between the two
    distinguished vertices of the fully collapsed nerve.
    """
    if mode == "right":
        res, _ = congruence_quotient(part, "R", j=j, top_dim=top_dim)
    elif mode == "two_sided":
        res, _ = congruence_quotient(part, "A", top_dim=top_dim)
    else:
        raise ValueError(f"unknown mapping-space mode {mode!r}")
    return res.complex


# -- collapsed nerves --------------------------------------------------


@dataclass
class Collapse:
    """A pointed quotient of the (possibly scaled) nerve of a partition."""

    dec: Decorated
    quot: SimplicialMap
    base0: Cell | None
    base1: Cell | None


def _part_nerve(part: OrderedPartition, dec: Decorated | None) -> Decorated:
    if dec is None:
        return flat(nerve(part.poset))
    return dec


def collapse_upper(part: OrderedPartition, dec: Decorated | None = None) -> Collapse:
    """The nerve with the upper part crushed to a point."""
    dec = _part_nerve(part, dec)
    res, qdec = collapse_to_point(dec, [part.upper])
    base1 = res.maps[0](nondeg(0, 0)).base
    return Collapse(qdec, res.maps[1], None, base1)


def collapse_both(part: OrderedPartition, dec: Decorated | None = None) -> Collapse:
    """The nerve with both parts crushed, one point each, in one gluing:
    the lower part's point comes first, then the upper part's, then the
    cells of the nerve that neither part contains, in their order."""
    dec = _part_nerve(part, dec)
    res, qdec = collapse_to_point(dec, [part.lower, part.upper])
    base0 = res.maps[0](nondeg(0, 0)).base
    base1 = res.maps[1](nondeg(0, 0)).base
    return Collapse(qdec, res.maps[2], base0, base1)


# -- the derived marking on chain-poset edges --------------------------


def segments(t: tuple, S) -> list[tuple]:
    """Cut the increasing tuple ``t`` at the members of ``S``: the
    pieces between consecutive cuts, ends included, longer than one."""
    cuts = sorted(t.index(s) for s in S)
    bounds = [0] + cuts + [len(t) - 1]
    return [t[a:b + 1] for a, b in zip(bounds, bounds[1:]) if b > a]


def marked_chain_edge(part: OrderedPartition, col: Collapse, S, T) -> bool:
    """Markedness of the chain-poset edge from S to T.

    Cut T at the members of S; the edge is marked when each piece lands
    on an all-thin simplex of the two-sided collapse.
    """
    if not S <= T:
        raise ValueError("not an inclusion of chain elements")
    X = col.quot.source
    for seg in segments(sorted_chain(part.poset, T), S):
        img = col.quot(simplex_by_chain(X, seg))
        if not col.dec.thin_on(img, itertools.combinations(range(img.dim + 1), 3)):
            return False
    return True


def marked_chain_edges(dpart: DecoratedPartition) -> set[tuple]:
    """All marked inclusions (S, T) of the partition's chain poset."""
    col = collapse_both(dpart.part, dpart.dec)
    P = chain_poset(dpart.part)
    return {(S, T) for S in P.elements for T in P.elements
            if S < T and marked_chain_edge(dpart.part, col, S, T)}

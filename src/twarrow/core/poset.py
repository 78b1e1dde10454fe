"""Finite posets, their nerves, and small-poset enumeration."""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict

from .complex import SimplicialSet
from .simplex import nondeg


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Poset:
    """A finite poset given by elements and a generating relation.

    The constructor takes generating pairs (a, b) meaning a <= b and
    stores the reflexive transitive closure ``le``, rejecting cycles.
    It also keeps ``index``, each element's position in ``elements``,
    ``down_sizes``, the number of elements strictly below each element,
    and the strict up-set of each element as a bit mask over positions.
    """

    __slots__ = ("elements", "le", "index", "down_sizes", "_up")

    def __init__(self, elements, pairs=()):
        self.elements = els = tuple(elements)
        self.index = index = {e: i for i, e in enumerate(els)}
        if len(index) != len(els):
            raise ValueError("duplicate elements")
        n = len(els)
        up = [0] * n
        for a, b in pairs:
            if a not in index or b not in index:
                raise ValueError(f"relation pair {(a, b)} off the element set")
            i, j = index[a], index[b]
            if i != j:
                up[i] |= 1 << j
        # Warshall: after step k, paths through 0..k are closed
        for k in range(n):
            bit, row = 1 << k, up[k]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= row
        for i, row in enumerate(up):
            if row >> i & 1:
                j = next(j for j in _bits(row) if j != i and up[j] >> i & 1)
                raise ValueError(f"cycle through {els[i]} and {els[j]}")
        self._up = tuple(up)
        self.le = frozenset(itertools.chain(
            ((a, a) for a in els),
            ((a, els[j]) for a, row in zip(els, up) for j in _bits(row))))
        self.down_sizes = tuple(sum(row >> j & 1 for row in up)
                                for j in range(n))

    def leq(self, a, b) -> bool:
        return (a, b) in self.le

    def lt(self, a, b) -> bool:
        return a != b and (a, b) in self.le

    def opposite(self) -> "Poset":
        return Poset(self.elements, [(b, a) for a, b in self.le])

    def product(self, other: "Poset") -> "Poset":
        elems = [(a, b) for a in self.elements for b in other.elements]
        pairs = [((a, b), (c, d)) for (a, b) in elems for (c, d) in elems
                 if self.leq(a, c) and other.leq(b, d)]
        return Poset(elems, pairs)

    def subposet(self, subset) -> "Poset":
        keep = set(subset)
        return Poset([e for e in self.elements if e in keep],
                     [(a, b) for a, b in self.le if a in keep and b in keep])

    def chain_levels(self, length: int):
        """Strict chains of 1..``length`` elements as position tuples, one
        list per length, each in lexicographic order; stops after the
        first empty list.  Extending each chain of a level by the
        successors of its top, in ascending position, keeps that order.
        A level is built only when the one before it has been taken."""
        succ = [_bits(row) for row in self._up]
        level = [(i,) for i in range(len(succ))]
        for k in range(length):
            if k:
                level = [c + (j,) for c in level for j in succ[c[-1]]]
            yield level
            if not level:
                return

    def chains(self, length: int) -> list[tuple]:
        """All strictly increasing chains with ``length`` elements, in
        lexicographic order of element positions.  The package reads
        ``chain_levels``; this stays while ``bench/tracer.py`` wraps it
        by name."""
        if length == 0:
            return [()]
        levels = list(self.chain_levels(length))
        if len(levels) < length:
            return []
        els = self.elements
        return [tuple(els[i] for i in c) for c in levels[-1]]

    def height(self) -> int:
        """Number of elements in a longest chain."""
        up = self._up
        longest = [0] * len(up)
        # an element's up-set strictly contains the up-set of each member
        for i in sorted(range(len(up)), key=lambda i: up[i].bit_count()):
            longest[i] = 1 + max((longest[j] for j in _bits(up[i])),
                                 default=0)
        return max(longest, default=0)

    def minima(self):
        return [a for a, below in zip(self.elements, self.down_sizes)
                if not below]

    def maxima(self):
        return [a for a, row in zip(self.elements, self._up) if not row]

    def __repr__(self):
        rel = sorted((a, b) for a, b in self.le if a != b)
        return f"Poset({list(self.elements)}, {rel})"


def total_order(n: int) -> Poset:
    return Poset(range(n + 1), [(i, i + 1) for i in range(n)])


# the tests build nerves of at most 12,543 cells (the ladder poset at
# n = 3); one of 94,585 cells (the chains of a 7-element chain that
# start below its top) takes about 2 s
NERVE_CAP = 50_000


# nerves kept for reuse, least recently used dropped first; the suite
# asks 658 times for 259 distinct nerves
_NERVE_MEMO_SIZE = 32
_nerve_memo: OrderedDict = OrderedDict()
_nerve_lock = threading.Lock()


def nerve(P: Poset, top_dim: int | None = None) -> SimplicialSet:
    """Nerve of a poset, cells labelled by their chains.

    The cells of each dimension are numbered in lexicographic order of
    the positions of their chains' elements.  The chains are listed one
    dimension at a time, and the nerve is refused as soon as they pass
    ``NERVE_CAP``, before any face is built.  The last
    ``_NERVE_MEMO_SIZE`` nerves are kept by elements, order and
    ``top_dim``, and a repeated request returns the kept one, which
    callers must not change."""
    key = (P.elements, P.le, top_dim)
    with _nerve_lock:
        N = _nerve_memo.get(key)
        if N is not None:
            _nerve_memo.move_to_end(key)
            return N
    N = _build_nerve(P, top_dim)
    with _nerve_lock:
        _nerve_memo[key] = N
        if len(_nerve_memo) > _NERVE_MEMO_SIZE:
            _nerve_memo.popitem(last=False)
    return N


def _build_nerve(P: Poset, top_dim: int | None) -> SimplicialSet:
    cap = P.height() - 1
    if top_dim is not None:
        cap = min(cap, top_dim)
    levels = []
    size = 0
    for level in P.chain_levels(cap + 1):
        if not level:
            break
        size += len(level)
        if size > NERVE_CAP:
            raise ValueError(f"nerve needs a small poset: at least {size} "
                             f"cells, cap {NERVE_CAP}")
        levels.append(level)
    counts, faces, labels = {}, {}, {}
    index: dict[tuple, int] = {}
    els = P.elements
    for d, level in enumerate(levels):
        counts[d] = len(level)
        for i, chain in enumerate(level):
            index[chain] = i
            labels[(d, i)] = tuple(els[k] for k in chain)
            if d >= 1:
                faces[(d, i)] = tuple(
                    nondeg(d - 1, index[chain[:k] + chain[k + 1:]])
                    for k in range(d + 1))
    return SimplicialSet(counts, faces, labels)


def _arcs(n: int) -> list[tuple[int, int]]:
    """The pairs a != b on 0..n-1 in lexicographic order: the bits of an
    arc mask, the first one the most significant."""
    return [(a, b) for a in range(n) for b in range(n) if a != b]


def _relabel_weights(n: int):
    """For each relabelling p of 0..n-1, the mask bit of each arc (a, b)
    once relabelled to (p[a], p[b]), in a flat list at a * n + b."""
    arcs = _arcs(n)
    bit = {arc: 1 << (len(arcs) - 1 - k) for k, arc in enumerate(arcs)}
    for p in itertools.permutations(range(n)):
        row = [0] * (n * n)
        for a, b in arcs:
            row[a * n + b] = bit[p[a], p[b]]
        yield row


def _canonical_mask(n: int, arcs, tables) -> int:
    """Smallest arc mask of the strict relation ``arcs`` on 0..n-1 over
    all relabellings: equal exactly for isomorphic relations."""
    flat = [a * n + b for a, b in arcs]
    return min(sum(map(row.__getitem__, flat)) for row in tables)


def _mask_arcs(n: int, mask: int) -> list[tuple[int, int]]:
    arcs = _arcs(n)
    return [arc for k, arc in enumerate(arcs)
            if mask >> (len(arcs) - 1 - k) & 1]


def poset_key(P: Poset):
    """Isomorphism invariant canonical form: the size and the smallest
    arc mask of the strict relation over all relabellings."""
    n = len(P.elements)
    arcs = [(i, j) for i, row in enumerate(P._up) for j in _bits(row)]
    return n, _canonical_mask(n, arcs, _relabel_weights(n))


def all_posets(n: int):
    """All posets on n elements, one per isomorphism class.

    Each class is represented on 0..n-1 by the relation with the smallest
    arc mask over its relabellings, and the classes are sorted by that
    mask.  The classes on k + 1 points come from those on k points: a
    new maximal element k is put above each down-set of a representative.
    Every poset arises that way, by deleting one of its maximal elements
    (McKay's one-point extension; duplicates are merged by the mask)."""
    masks = [0]
    for k in range(1, n):
        tables = list(_relabel_weights(k + 1))
        found = set()
        for mask in masks:
            rel = _mask_arcs(k, mask)
            for down in range(1 << k):
                if any(down >> b & 1 and not down >> a & 1 for a, b in rel):
                    continue
                ext = rel + [(a, k) for a in _bits(down)]
                found.add(_canonical_mask(k + 1, ext, tables))
        masks = sorted(found)
    return [Poset(range(n), _mask_arcs(n, mask)) for mask in masks]

"""Necklace model of rigidification mapping spaces, dimensions two and
below.

A necklace in X from x to y is a string of nondegenerate simplices,
each of dimension at least one, with the last vertex of every bead
equal to the first vertex of the next.  Cells of the mapping space are
necklaces together with a flag of vertex subsets pinched between the
joints and the full vertex set; through dimension two the flag carries
at most one free level, so cells are

  dim 0   a path of nondegenerate edges (empty path allowed when x = y)
  dim 1   a necklace with at least one bead of dimension two or more
  dim 2   such a necklace plus a set strictly between joints and all

Boundaries forget flag levels, subdivide beads at the newly exposed
joints, or cut vertices away; pieces that land on degenerate simplices
of X are replaced by their cores and dropped once they reach points.
This is deliberately a small brute-force model: it exists to check the
chain-poset mapping spaces against an independent construction, and it
refuses inputs past a hard size cap.
"""

from __future__ import annotations

import itertools

from . import CAPS, check_cap
from .core.complex import Cell, SimplicialSet
from .core.simplex import Simplex, nondeg

SIZE_CAP = CAPS["SIZE_CAP"].value


def _normalize(pieces) -> tuple:
    """Replace degenerate pieces by their cores, discard point pieces."""
    out = []
    for p in pieces:
        core = p.base
        if core[0] >= 1:
            out.append(core)
    return tuple(out)


def _subdivide(X: SimplicialSet, beads, cuts: frozenset) -> tuple:
    """Cut every bead at its global positions lying in ``cuts``."""
    out, g = [], 0
    for b in beads:
        d = b[0]
        marks = [i for i in range(d + 1) if g + i in cuts or i in (0, d)]
        for a, z in zip(marks, marks[1:]):
            out.append(X.restrict(nondeg(*b), tuple(range(a, z + 1))))
        g += d
    return _normalize(out)


def _cull(X: SimplicialSet, beads, keep: frozenset) -> tuple:
    """Restrict every bead to its global positions lying in ``keep``."""
    out, g = [], 0
    for b in beads:
        d = b[0]
        pos = tuple(i for i in range(d + 1) if g + i in keep)
        out.append(X.restrict(nondeg(*b), pos))
        g += d
    return _normalize(out)


def _joints(beads) -> frozenset:
    out, g = {0}, 0
    for b in beads:
        g += b[0]
        out.add(g)
    return frozenset(out)


def necklace_oracle(X: SimplicialSet, x: Cell, y: Cell, max_dim: int = 2,
                    max_steps: int = 8) -> SimplicialSet:
    """The mapping space of X from x to y, by necklace enumeration.

    ``max_steps`` caps the total of the bead dimensions, which keeps
    the walk finite when X has loops; faces never increase it, so the
    result is closed under the cap.
    """
    if max_dim > 2:
        raise ValueError("necklace enumeration is capped at dimension 2")
    check_cap("SIZE_CAP", X.size(), "complex too large for necklace_oracle")
    # the beads out of each vertex, each with its last vertex
    by_start: dict[Cell, list] = {}
    for c in X.all_cells():
        if c[0] >= 1:
            vs = X._base_vertices(c)
            by_start.setdefault(vs[0], []).append((c, vs[-1]))

    arrived = []
    stack = [((), x, max_steps)]
    while stack:
        beads, at, left = stack.pop()
        if at == y:
            arrived.append(beads)
        for c, end in by_start.get(at, ()):
            if c[0] <= left:
                stack.append((beads + (c,), end, left - c[0]))
    paths = sorted(b for b in arrived if all(d == 1 for d, _ in b))
    wides = sorted(b for b in arrived if any(d >= 2 for d, _ in b))
    cells2 = []
    for beads in wides:
        total = sum(b[0] for b in beads)
        free = sorted(set(range(total + 1)) - _joints(beads))
        for r in range(1, len(free)):
            for mid in itertools.combinations(free, r):
                cells2.append((beads, frozenset(mid)))
    cells2.sort(key=lambda c: (c[0], sorted(c[1])))

    path_idx = {p: i for i, p in enumerate(paths)}
    wide_idx = {w: i for i, w in enumerate(wides)}

    def as_zero(beads) -> Simplex:
        return nondeg(0, path_idx[beads])

    def as_one(beads) -> Simplex:
        # all-edge results are the degenerate edge on their path
        if all(b[0] == 1 for b in beads):
            return Simplex((0,), (0, path_idx[beads]))
        return nondeg(1, wide_idx[beads])

    counts: dict[int, int] = {}
    faces: dict[Cell, tuple] = {}
    labels: dict[Cell, object] = {}
    if paths:
        counts[0] = len(paths)
        labels.update({(0, i): p for i, p in enumerate(paths)})
    if max_dim >= 1 and wides:
        counts[1] = len(wides)
        for i, beads in enumerate(wides):
            total = sum(d for d, _ in beads)
            sub = _subdivide(X, beads, frozenset(range(total + 1)))
            cut = _cull(X, beads, _joints(beads))
            faces[(1, i)] = (as_zero(sub), as_zero(cut))
            labels[(1, i)] = beads
    if max_dim >= 2 and cells2:
        counts[2] = len(cells2)
        for i, (beads, mid) in enumerate(cells2):
            keep = _joints(beads) | mid
            d0 = as_one(_subdivide(X, beads, keep))
            d2 = as_one(_cull(X, beads, keep))
            faces[(2, i)] = (d0, nondeg(1, wide_idx[beads]), d2)
            labels[(2, i)] = (beads, tuple(sorted(mid)))
    return SimplicialSet(counts, faces, labels)

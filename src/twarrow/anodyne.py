"""Filling certificates built on the pivot construction.

A dull family over the vertex positions of a simplex names a union of
facets whose inclusion into the full simplex can be filled purely by
inner horn attachments anchored at one pivot vertex, provided a small
collection of triangles through the pivot is thin.  This module
produces those fillings as explicit certificates (ordered horn
attachments over a fixed decorated ambient) and replays them with an
independent verifier.

A certificate never trusts its producer: `verify_certificate` rechecks
face-closure of the start, availability of every horn face, inner-ness,
thinness of every middle triangle, and the final cell set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core.complex import Cell, SimplicialSet, close_cells, is_closed
from .core.io import are_ints, reader
from .core.maps import simplex_by_chain, unwrap_label
from .core.simplex import Simplex, nondeg
from .decor import Decorated, decorated_subcomplex


class CertificateError(ValueError):
    """A filling could not be produced; carries a witness when one exists."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


# -- dull families of vertex positions ---------------------------------


def family_pivots(family, n) -> list[int]:
    """Positions usable as a pivot for the family inside [0..n]."""
    fam = [frozenset(S) for S in family]
    used = frozenset().union(*fam) if fam else frozenset()
    singles = sorted(min(S) for S in fam if len(S) == 1)
    out = []
    for i in range(1, n):
        if i in used:
            continue
        if any(u < i for u in singles) and any(v > i for v in singles):
            out.append(i)
    return out


def is_dull(family, n):
    """Verdict, admissible pivots, and an explanation on failure."""
    fam = [frozenset(S) for S in family]
    if any(not S for S in fam):
        return False, [], "contains the empty set"
    if any(min(S) < 0 or max(S) > n for S in fam if S):
        return False, [], "member outside the vertex range"
    for a in range(len(fam)):
        for b in range(a + 1, len(fam)):
            if fam[a] & fam[b]:
                return False, [], (f"members {sorted(fam[a])} and "
                                   f"{sorted(fam[b])} overlap")
    pivots = family_pivots(fam, n)
    if not pivots:
        return False, [], "no free position between two straddling singletons"
    return True, pivots, None


def basal_sets(family) -> list[tuple[int, ...]]:
    """One representative from each member, every way, sorted."""
    fam = [sorted(S) for S in family]
    return sorted({tuple(sorted(pick)) for pick in itertools.product(*fam)})


def _strata(n, family, pivot):
    """Yield ``(size, sets)`` for each size that has a vertex set to
    fill, sizes increasing, the sets lexicographic within a size.

    A set qualifies when it contains the pivot and meets every member of
    the family; the smallest size is one more than the family size.
    """
    fam = [frozenset(S) for S in family]
    for size in range(1, n + 2):
        sets = [X for X in itertools.combinations(range(n + 1), size)
                if pivot in X and not any(map(frozenset(X).isdisjoint, fam))]
        if sets:
            yield size, sets


def pivot_strata(n, family, pivot) -> dict[int, list[tuple[int, ...]]]:
    """Vertex sets to fill, keyed by size (see ``_strata``)."""
    return dict(_strata(n, family, pivot))


def kappa_stratum_matches(n, family, pivot) -> bool:
    """The smallest stratum of ``pivot_strata`` is exactly the basal
    sets plus the pivot.  Only that stratum is built."""
    fam = [frozenset(S) for S in family]
    kappa, stratum = next(_strata(n, fam, pivot), (None, None))
    if kappa is None:
        raise ValueError(f"no vertex set contains the pivot {pivot} and "
                         f"meets every member")
    if kappa != len(fam) + 1:
        return False
    expect = sorted(tuple(sorted(set(Z) | {pivot})) for Z in basal_sets(fam))
    return stratum == expect


def all_disjoint_families(n):
    """Every family of pairwise disjoint nonempty subsets of [0..n]."""
    def rec(elems):
        if not elems:
            yield ()
            return
        e, rest = elems[0], elems[1:]
        for fam in rec(rest):
            yield fam
            yield fam + ((e,),)
            for k in range(len(fam)):
                yield fam[:k] + (tuple(sorted(fam[k] + (e,))),) + fam[k + 1:]
    yield from rec(tuple(range(n + 1)))


def all_dull_families(n):
    """Pairs (family, admissible pivots) over [0..n]."""
    for fam in all_disjoint_families(n):
        ok, pivots, _ = is_dull(fam, n)
        if ok:
            yield fam, pivots


# -- certificates ------------------------------------------------------


@dataclass(frozen=True)
class Step:
    n: int
    i: int
    attach: Cell
    klass: str = "inner_horn"


@dataclass(frozen=True)
class Certificate:
    start: frozenset
    steps: tuple
    end: frozenset


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "start": sorted([d, i] for (d, i) in cert.start),
        "steps": [{"class": s.klass, "n": s.n, "i": s.i,
                   "attach": list(s.attach)} for s in cert.steps],
        "end": sorted([d, i] for (d, i) in cert.end),
    }


def _cell_from_json(entry) -> Cell:
    if not (isinstance(entry, list) and len(entry) == 2 and are_ints(entry)):
        raise ValueError(f"cell {entry!r} is not a [dim, idx] pair of ints")
    return tuple(entry)


def _typed(step: dict, key: str, kind: type, default=None):
    """The ``key`` entry of a step, which must be a ``kind`` (a bool is
    not an int)."""
    value = step[key] if default is None else step.get(key, default)
    if not (are_ints([value]) if kind is int else type(value) is kind):
        raise ValueError(f"step entry {key!r} is {value!r}, not of type "
                         f"{kind.__name__}")
    return value


@reader("certificate")
def certificate_from_json(doc) -> Certificate:
    steps = tuple(Step(n=_typed(s, "n", int), i=_typed(s, "i", int),
                       klass=_typed(s, "class", str, "inner_horn"),
                       attach=_cell_from_json(s["attach"]))
                  for s in doc["steps"])
    return Certificate(frozenset(map(_cell_from_json, doc["start"])), steps,
                       frozenset(map(_cell_from_json, doc["end"])))


# -- generation --------------------------------------------------------


def _face_vertices(space: SimplicialSet, vertices):
    if vertices is not None:
        return tuple(vertices)
    return tuple(unwrap_label(space.labels.get(c)) for c in space.cells(0))


def _chain_cell(space: SimplicialSet, vertices, positions) -> Simplex:
    sx = simplex_by_chain(space, tuple(vertices[p] for p in positions))
    if sx.word:
        raise CertificateError("a strict vertex chain must be nondegenerate")
    return sx


def facet_sets(n, family) -> list[tuple[int, ...]]:
    return [tuple(v for v in range(n + 1) if v not in set(S))
            for S in family]


def dull_start_cells(space: SimplicialSet, vertices, family) -> set[Cell]:
    """Face closure of the facets named by the family."""
    n = len(vertices) - 1
    seeds = [_chain_cell(space, vertices, F).base
             for F in facet_sets(n, family)]
    return close_cells(space, seeds)


def facet_union(dec: Decorated, family):
    """The union of the named facets as a decorated subcomplex.

    Returns the decorated subcomplex and its inclusion map.
    """
    return decorated_subcomplex(dec, dull_start_cells(
        dec.space, _face_vertices(dec.space, None), family))


def _hypothesis_witness(dec: Decorated, vertices, pivot, Z):
    space = dec.space
    lo = max(z for z in Z if z < pivot)
    hi = min(z for z in Z if z > pivot)
    for r in range(lo, pivot):
        for s in range(pivot + 1, hi + 1):
            tri = _chain_cell(space, vertices, (r, pivot, s))
            if not dec.is_thin(tri):
                return (vertices[r], vertices[pivot], vertices[s])
    return None


def pivot_certificate(dec: Decorated, family, *, vertices=None,
                      pivot=None) -> Certificate:
    """Fill the facet union into the whole simplex through one pivot.

    ``vertices`` picks the face of the ambient to work in, as a chain of
    vertex labels; family members, the pivot, and the basal sets are
    positions within that chain.  When ``pivot`` is left out, admissible
    pivots are scanned in ascending order.  For each pivot, basal sets
    are scanned in lexicographic order, and the first pair passing the
    thinness hypothesis wins.  Raises CertificateError, with a witness
    triangle, when no pair passes.
    """
    space = dec.space
    vertices = _face_vertices(space, vertices)
    n = len(vertices) - 1
    ok, pivots, why = is_dull(family, n)
    if not ok:
        raise CertificateError(f"family is not dull: {why}")
    if pivot is not None:
        if pivot not in pivots:
            raise CertificateError(
                f"pivot {pivot} is not admissible, admissible ones: {pivots}")
        pivots = [pivot]
    basals = basal_sets(family)
    chosen = first_witness = None
    for i in pivots:
        for Z in basals:
            w = _hypothesis_witness(dec, vertices, i, Z)
            if w is None:
                chosen = i
                break
            if first_witness is None:
                first_witness = w
        if chosen is not None:
            break
    if chosen is None:
        raise CertificateError(
            f"thinness hypothesis fails, witness triangle {first_witness}",
            witness=first_witness)
    i = chosen

    start = frozenset(dull_start_cells(space, vertices, family))
    stage = set(start)
    steps = []
    strata = pivot_strata(n, family, i)
    for size in sorted(strata):
        for X in strata[size]:
            pos = X.index(i)
            sx = _chain_cell(space, vertices, X)
            middle = space.restrict(sx, (pos - 1, pos, pos + 1))
            if not dec.is_thin(middle):
                w = (vertices[X[pos - 1]], vertices[i], vertices[X[pos + 1]])
                raise CertificateError(
                    f"middle triangle {w} is not thin", witness=w)
            steps.append(Step(n=size - 1, i=pos, attach=sx.base))
            stage.add(sx.base)
            missing = space.face(sx, pos)
            if missing.word:
                raise CertificateError(
                    f"missing face {pos} of {sx.base} is degenerate")
            stage.add(missing.base)
    # the filtration must have filled the whole face
    if stage != close_cells(space, [_chain_cell(space, vertices,
                                                range(n + 1)).base]):
        raise CertificateError("the pivot run does not fill the whole face")
    return Certificate(start, tuple(steps), frozenset(stage))


# -- verification ------------------------------------------------------


def verify_certificate(dec: Decorated, cert: Certificate):
    """Independent replay; returns (ok, first_bad_step, reason).

    Step numbers are 1-based; 0 refers to the starting subcomplex, one
    past the last step to the final comparison.
    """
    space = dec.space
    stage = set(cert.start)
    for c in stage:
        if not 0 <= c[1] < space.n_cells(c[0]):
            return False, 0, f"start cell {c} does not exist"
    if not is_closed(space, stage):
        return False, 0, "start is not face-closed"
    for k, st in enumerate(cert.steps, start=1):
        if st.klass != "inner_horn":
            return False, k, f"unknown step class {st.klass!r}"
        nn, i = st.n, st.i
        if not 0 < i < nn:
            return False, k, f"horn position {i} is not inner in dimension {nn}"
        cell = st.attach
        if cell[0] != nn:
            return False, k, "attached cell dimension mismatch"
        if not 0 <= cell[1] < space.n_cells(nn):
            return False, k, f"attached cell {cell} does not exist"
        if cell in stage:
            return False, k, "attached simplex is already present"
        sx = nondeg(*cell)
        miss = space.face(sx, i)
        if miss.word:
            return False, k, "missing face is degenerate"
        if miss.base in stage:
            return False, k, "missing face is already present"
        for j in range(nn + 1):
            if j == i:
                continue
            f = space.face(sx, j)
            if not f.word and f.base not in stage:
                return False, k, f"face {j} absent before attachment"
        middle = space.restrict(sx, (i - 1, i, i + 1))
        if not dec.is_thin(middle):
            return False, k, "middle triangle is not thin"
        stage.add(cell)
        stage.add(miss.base)
    if stage != set(cert.end):
        return False, len(cert.steps) + 1, "final stage differs from the stated end"
    return True, 0, "ok"


def dual_certificate(cert: Certificate) -> Certificate:
    """The same filling read in the opposite ambient."""
    steps = tuple(Step(n=s.n, i=s.n - s.i, attach=s.attach, klass=s.klass)
                  for s in cert.steps)
    return Certificate(cert.start, steps, cert.end)

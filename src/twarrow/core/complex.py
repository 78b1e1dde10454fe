"""Finite simplicial sets with explicit nondegenerate cells.

A complex stores, per dimension, a finite list of nondegenerate
simplices (identified by ``(dim, idx)``), a face table sending each
nondegenerate simplex to the canonical forms of its faces, and optional
labels.  All other simplices are handled through their canonical
degeneracy words, see :mod:`twarrow.core.simplex`.
"""

from __future__ import annotations

import itertools
import operator

from .. import CAPS, check_cap
from .simplex import (
    Simplex,
    all_words,
    check_word,
    compose_words,
    face_rule,
    face_rules,
    flag_map,
    nondeg,
    nondeg_row,
    simplex_on,
)

Cell = tuple[int, int]

# a handle's base tuple
_base_of = operator.itemgetter(1)


class SimplicialSet:
    def __init__(self, counts: dict[int, int], faces: dict[Cell, tuple[Simplex, ...]],
                 labels: dict[Cell, object] | None = None):
        self.counts = {d: n for d, n in counts.items() if n > 0}
        self.faces = dict(faces)
        self.labels = dict(labels) if labels else {}
        self.top_dim = max(self.counts, default=-1)
        self._verts: dict[Cell, tuple[Cell, ...]] = {}
        self._label_index: dict[object, Cell] | None = None

    # -- bookkeeping ---------------------------------------------------

    def n_cells(self, dim: int) -> int:
        return self.counts.get(dim, 0)

    def cells(self, dim: int):
        """The cells of one dimension, as the shared base tuples of
        their handles."""
        return map(_base_of, nondeg_row(dim, self.n_cells(dim)))

    def all_cells(self):
        return itertools.chain.from_iterable(
            self.cells(d) for d in sorted(self.counts))

    def size(self) -> int:
        return sum(self.counts.values())

    def cell_with_label(self, label) -> Cell:
        if self._label_index is None:
            self._label_index = {}
            for c, lab in self.labels.items():
                self._label_index.setdefault(lab, c)
        return self._label_index[label]

    # -- simplex calculus ----------------------------------------------

    def face(self, x: Simplex, i: int) -> Simplex:
        """d_i applied to an arbitrary simplex, in canonical form.

        On s_w (b) this is one cached rule per (w, i): either the face
        stays over b, or it is d_k b followed by a cached word
        composition.
        """
        word, base = x
        if not 0 <= i <= base[0] + len(word):
            raise ValueError(f"d_{i} undefined on a {x.dim}-simplex")
        if word:
            word, i = face_rule(word, i)
            if i is None:
                return simplex_on(word, base)
        elif base[0] == 0:
            raise ValueError("a vertex has no faces")
        f = self.faces[base][i]
        if not word:
            return f
        return Simplex(compose_words(word, f.word, f.dim), f.base)

    def face_row(self, x: Simplex) -> tuple[Simplex, ...]:
        """d_0 x, ..., d_m x, in canonical form, for x of dimension
        m >= 1: the face table's own row when x is nondegenerate, else
        ``face``'s steps in one pass over the cached ``face_rules`` of
        x's word, with no range check."""
        word, base = x
        if not word:
            return self.faces[base]
        row = self.faces.get(base)
        out = []
        for w, k in face_rules(word, base[0] + len(word)):
            if k is None:
                out.append(simplex_on(w, base))
            elif w:
                f = row[k]
                out.append(Simplex(compose_words(w, f.word, f.dim), f.base))
            else:
                out.append(row[k])
        return tuple(out)

    def face_many(self, x: Simplex, indices) -> Simplex:
        """Apply d_i for i in ``indices``, highest first so positions
        keep their meaning relative to the original simplex."""
        for i in sorted(indices, reverse=True):
            x = self.face(x, i)
        return x

    def restrict(self, x: Simplex, positions) -> Simplex:
        """The sub-simplex of x spanned by the given positions."""
        keep = sorted(set(positions))
        drop = [i for i in range(x.dim + 1) if i not in keep]
        return self.face_many(x, drop)

    def vertices(self, x: Simplex) -> tuple[Cell, ...]:
        base_verts = self._base_vertices(x.base)
        if not x.word:
            return base_verts
        return tuple(map(base_verts.__getitem__, flag_map(x.word, x.base[0])))

    def _base_vertices(self, cell: Cell) -> tuple[Cell, ...]:
        out = self._verts.get(cell)
        if out is not None:
            return out
        d, idx = cell
        if d == 0:
            out = (cell,)
        else:
            first = self.faces[cell][d]
            rest = self.faces[cell][0]
            out = self.vertices(first)[:1] + self.vertices(rest)
        self._verts[cell] = out
        return out

    def vertex_labels(self, x: Simplex) -> tuple:
        return tuple(self.labels.get(v) for v in self.vertices(x))

    def simplices(self, m: int):
        """All m-simplices (degenerate included) in a fixed order."""
        for p in sorted(self.counts):
            if p > m:
                break
            row = nondeg_row(p, self.counts[p])
            if p == m:
                yield from row
                continue
            words = all_words(m, p)
            for h in row:
                b = h.base
                for w in words:
                    yield Simplex(w, b)

    def nondeg_faces(self, cell: Cell):
        """Base cells of the faces of a nondegenerate simplex."""
        d, idx = cell
        if d == 0:
            return []
        return [f.base for f in self.faces[cell]]

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Check the face table: a row of d + 1 faces of dimension d - 1
        on known cells for every cell of dimension d >= 1, and the
        simplicial identities d_i d_j = d_{j-1} d_i (i < j) on every
        nondegenerate simplex of dimension 2 or more.

        The identities are read off the face rows of x's faces: the face
        table's own row for a nondegenerate face, d_0, ..., d_{d-1} of
        the face otherwise, each built once per x.
        """
        for (d, idx), fs in self.faces.items():
            if not (0 <= idx < self.counts.get(d, 0)):
                raise ValueError(f"face table names unknown cell {(d, idx)}")
            if len(fs) != d + 1:
                raise ValueError(f"cell {(d, idx)} has {len(fs)} faces, wanted {d + 1}")
            for w, (bd, bi) in fs:
                check_word(w, bd)
                if bd + len(w) != d - 1:
                    raise ValueError(f"face of {(d, idx)} has dimension "
                                     f"{bd + len(w)}")
                if not (0 <= bi < self.counts.get(bd, 0)):
                    raise ValueError(f"face of {(d, idx)} has unknown base "
                                     f"{(bd, bi)}")
        for d in self.counts:
            if d >= 1 and not all((d, i) in self.faces for i in range(self.counts[d])):
                raise ValueError(f"missing face rows in dimension {d}")
        # vertices and edges have no identities to check, and a vertex
        # count read from outside may be large
        faces = self.faces
        for d in sorted(self.counts):
            if d < 2:
                continue
            for x in nondeg_row(d, self.counts[d]):
                rows = [self.face_row(f) for f in faces[x.base]]
                for j in range(d + 1):
                    for i in range(j):
                        left = rows[j][i]
                        right = rows[i][j - 1]
                        if left != right:
                            raise ValueError(
                                f"simplicial identity fails on {x.base}: "
                                f"d_{i} d_{j} = {left} but "
                                f"d_{j - 1} d_{i} = {right}")

    # -- misc ----------------------------------------------------------

    def __repr__(self):
        parts = ", ".join(f"{d}:{n}" for d, n in sorted(self.counts.items()))
        return f"<SimplicialSet {{{parts}}}>"


# -- constructors ------------------------------------------------------


def point(label=None) -> SimplicialSet:
    labels = {(0, 0): label} if label is not None else {}
    return SimplicialSet({0: 1}, {}, labels)


SIMPLEX_CAP = CAPS["SIMPLEX_CAP"].value


def chain_complex(levels, label) -> SimplicialSet:
    """The complex whose d-cells are the tuples of ``levels[d]`` in order,
    d_k dropping entry k (a tuple of ``levels[d - 1]``), each labelled by
    the tuple of ``label[v]`` over its entries v: nerves and Delta^n."""
    counts, faces, labels = {}, {}, {}
    index: dict[tuple, Simplex] = {}
    for d, level in enumerate(levels):
        counts[d] = len(level)
        for h, c in zip(nondeg_row(d, len(level)), level):
            index[c] = h
            labels[h.base] = tuple(map(label.__getitem__, c))
            if d >= 1:
                faces[h.base] = tuple(
                    index[c[:k] + c[k + 1:]] for k in range(d + 1))
    return SimplicialSet(counts, faces, labels)


def standard_simplex(n: int) -> SimplicialSet:
    """Delta^n, the nerve of 0..n, with each cell labelled by its vertex
    tuple."""
    check_cap("SIMPLEX_CAP", n, "standard_simplex")
    return chain_complex(
        [list(itertools.combinations(range(n + 1), d + 1))
         for d in range(n + 1)], range(n + 1))


def simplex_cell(n: int, vertices: tuple[int, ...]) -> Cell:
    """Cell of standard_simplex(n) with the given vertex tuple."""
    given = tuple(vertices)
    vertices = tuple(sorted(given))
    if len(set(vertices)) != len(vertices) or \
            not all(0 <= v <= n for v in vertices):
        raise ValueError(f"{given} names no cell of Delta^{n}: its vertices "
                         f"must be distinct and lie in 0..{n}")
    subs = list(itertools.combinations(range(n + 1), len(vertices)))
    return (len(vertices) - 1, subs.index(vertices))


# -- subcomplexes ------------------------------------------------------


def close_cells(X: SimplicialSet, seeds) -> set[Cell]:
    """Face closure of a set of nondegenerate cells, one layer of faces
    at a time."""
    out: set[Cell] = set(seeds)
    new = out
    while new:
        new = {b for c in new if c[0] for _, b in X.faces[c]} - out
        out |= new
    return out


def is_closed(X: SimplicialSet, cells_) -> bool:
    s = set(cells_)
    return all(f in s for c in s for f in X.nondeg_faces(c))


def subcomplex(X: SimplicialSet, keep) -> tuple[SimplicialSet, dict[Cell, Simplex]]:
    """Subcomplex on a face-closed set of cells.

    Returns the new complex and the inclusion data (new cell -> simplex
    of X), usable as the mapping of a SimplicialMap.
    """
    keep = set(keep)
    if not is_closed(X, keep):
        missing = {f for c in keep for f in X.nondeg_faces(c)} - keep
        raise ValueError(f"cell set is not face-closed, missing {sorted(missing)}")
    by_dim: dict[int, list[Cell]] = {}
    for c in sorted(keep):
        by_dim.setdefault(c[0], []).append(c)
    old_to_new: dict[Cell, Cell] = {}
    for d, cs in by_dim.items():
        old_to_new.update(zip(cs, (h.base for h in nondeg_row(d, len(cs)))))
    counts = {d: len(cs) for d, cs in by_dim.items()}
    faces, labels, incl = {}, {}, {}
    for old, new in old_to_new.items():
        incl[new] = nondeg(*old)
        if old in X.labels:
            labels[new] = X.labels[old]
        if old[0] >= 1:
            faces[new] = tuple(
                simplex_on(f.word, old_to_new[f.base]) for f in X.faces[old])
    return SimplicialSet(counts, faces, labels), incl


def boundary_cells(n: int) -> set[Cell]:
    """Cells of the boundary of Delta^n."""
    X = standard_simplex(n)
    return {c for c in X.all_cells() if c[0] < n}


def horn_cells(n: int, i: int) -> set[Cell]:
    """Cells of the horn of Delta^n missing face i."""
    X = standard_simplex(n)
    omit = simplex_cell(n, tuple(v for v in range(n + 1) if v != i))
    return {c for c in X.all_cells() if c[0] < n and c != omit}

"""Finite simplicial sets with explicit nondegenerate cells.

A complex stores, per dimension, a finite list of nondegenerate
simplices (identified by ``(dim, idx)``), a face table sending each
nondegenerate simplex to the canonical forms of its faces, and optional
labels.  All other simplices are handled through their canonical
degeneracy words, see :mod:`twarrow.core.simplex`.
"""

from __future__ import annotations

import itertools

from .simplex import (
    Simplex,
    all_words,
    check_word,
    degenerate,
    face_stays_degenerate,
    flag_map,
    nondeg,
)

Cell = tuple[int, int]


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
        return ((dim, i) for i in range(self.n_cells(dim)))

    def all_cells(self):
        for d in sorted(self.counts):
            yield from self.cells(d)

    def size(self) -> int:
        return sum(self.counts.values())

    def label(self, cell: Cell):
        return self.labels.get(cell)

    def cell_with_label(self, label) -> Cell:
        if self._label_index is None:
            self._label_index = {}
            for c, lab in self.labels.items():
                self._label_index.setdefault(lab, c)
        return self._label_index[label]

    # -- simplex calculus ----------------------------------------------

    def face(self, x: Simplex, i: int) -> Simplex:
        """d_i applied to an arbitrary simplex, in canonical form."""
        if not 0 <= i <= x.dim:
            raise ValueError(f"d_{i} undefined on a {x.dim}-simplex")
        out = face_stays_degenerate(x, i)
        if out is not None:
            return out
        if x.word:
            j = x.word[0]
            rest = Simplex(x.word[1:], x.base)
            # i not in {j, j+1} here, handled above
            if i < j:
                return degenerate(self.face(rest, i), j - 1)
            return degenerate(self.face(rest, i - 1), j)
        d, idx = x.base
        if d == 0:
            raise ValueError("a vertex has no faces")
        return self.faces[(d, idx)][i]

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
        pi = flag_map(x.word, x.base[0])
        return tuple(base_verts[v] for v in pi)

    def _base_vertices(self, cell: Cell) -> tuple[Cell, ...]:
        if cell in self._verts:
            return self._verts[cell]
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
            for i in range(self.counts[p]):
                for w in all_words(m, p):
                    yield Simplex(w, (p, i))

    def nondeg_faces(self, cell: Cell):
        """Base cells of the faces of a nondegenerate simplex."""
        d, idx = cell
        if d == 0:
            return []
        return [f.base for f in self.faces[cell]]

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        for (d, idx), fs in self.faces.items():
            if not (0 <= idx < self.counts.get(d, 0)):
                raise ValueError(f"face table names unknown cell {(d, idx)}")
            if len(fs) != d + 1:
                raise ValueError(f"cell {(d, idx)} has {len(fs)} faces, wanted {d + 1}")
            for f in fs:
                check_word(f.word, f.base[0])
                if f.dim != d - 1:
                    raise ValueError(f"face of {(d, idx)} has dimension {f.dim}")
                bd, bi = f.base
                if not (0 <= bi < self.counts.get(bd, 0)):
                    raise ValueError(f"face of {(d, idx)} has unknown base {f.base}")
        for d in self.counts:
            if d >= 1 and not all((d, i) in self.faces for i in range(self.counts[d])):
                raise ValueError(f"missing face rows in dimension {d}")
        for cell in self.all_cells():
            d = cell[0]
            if d < 2:
                continue
            x = nondeg(*cell)
            for j in range(d + 1):
                for i in range(j):
                    left = self.face(self.face(x, j), i)
                    right = self.face(self.face(x, i), j - 1)
                    if left != right:
                        raise ValueError(
                            f"simplicial identity fails on {cell}: "
                            f"d_{i} d_{j} = {left} but d_{j - 1} d_{i} = {right}")

    # -- misc ----------------------------------------------------------

    def __repr__(self):
        parts = ", ".join(f"{d}:{n}" for d, n in sorted(self.counts.items()))
        return f"<SimplicialSet {{{parts}}}>"


# -- constructors ------------------------------------------------------


def empty() -> SimplicialSet:
    return SimplicialSet({}, {})


def point(label=None) -> SimplicialSet:
    labels = {(0, 0): label} if label is not None else {}
    return SimplicialSet({0: 1}, {}, labels)


# Delta^14 has 32,767 cells; each step up doubles that
SIMPLEX_CAP = 14


def standard_simplex(n: int) -> SimplicialSet:
    """Delta^n with each cell labelled by its vertex tuple."""
    if n > SIMPLEX_CAP:
        raise ValueError(f"standard simplex needs a small dimension: "
                         f"{n}, cap {SIMPLEX_CAP}")
    counts, faces, labels = {}, {}, {}
    index: dict[tuple, int] = {}
    for d in range(n + 1):
        subs = list(itertools.combinations(range(n + 1), d + 1))
        counts[d] = len(subs)
        for i, s in enumerate(subs):
            index[s] = i
            labels[(d, i)] = s
            if d >= 1:
                faces[(d, i)] = tuple(
                    nondeg(d - 1, index[s[:k] + s[k + 1:]]) for k in range(d + 1))
    return SimplicialSet(counts, faces, labels)


def simplex_cell(n: int, vertices: tuple[int, ...]) -> Cell:
    """Cell of standard_simplex(n) with the given vertex tuple."""
    vertices = tuple(sorted(vertices))
    subs = list(itertools.combinations(range(n + 1), len(vertices)))
    return (len(vertices) - 1, subs.index(vertices))


# -- subcomplexes ------------------------------------------------------


def close_cells(X: SimplicialSet, seeds) -> set[Cell]:
    """Face closure of a set of nondegenerate cells."""
    out: set[Cell] = set()
    stack = list(seeds)
    while stack:
        c = stack.pop()
        if c in out:
            continue
        out.add(c)
        stack.extend(X.nondeg_faces(c))
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
        for i, c in enumerate(cs):
            old_to_new[c] = (d, i)
    counts = {d: len(cs) for d, cs in by_dim.items()}
    faces, labels, incl = {}, {}, {}
    for old, new in old_to_new.items():
        incl[new] = nondeg(*old)
        if old in X.labels:
            labels[new] = X.labels[old]
        if old[0] >= 1:
            faces[new] = tuple(
                Simplex(f.word, old_to_new[f.base]) for f in X.faces[old])
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

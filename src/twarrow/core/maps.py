"""Maps of simplicial sets, and the one backtracking search behind hom
enumeration, isomorphism search and lifting."""

from __future__ import annotations

import functools
import itertools

from .complex import Cell, SimplicialSet, point
from .simplex import Simplex, constant_simplex, degenerate_word, nondeg


class SimplicialMap:
    """A map of simplicial sets, stored on nondegenerate cells."""

    def __init__(self, source: SimplicialSet, target: SimplicialSet,
                 data: dict[Cell, Simplex], check: bool = True):
        self.source = source
        self.target = target
        self.data = dict(data)
        if check:
            self.validate()

    def __call__(self, x: Simplex) -> Simplex:
        return degenerate_word(self.data[x.base], x.word)

    def validate(self) -> None:
        for c in self.source.all_cells():
            if c not in self.data:
                raise ValueError(f"no image for cell {c}")
            img = self.data[c]
            if img.dim != c[0]:
                raise ValueError(f"image of {c} has dimension {img.dim}")
            bd, bi = img.base
            if not (0 <= bi < self.target.n_cells(bd)):
                raise ValueError(f"image of {c} names unknown cell {img.base}")
            if c[0] >= 1:
                for i, f in enumerate(self.source.faces[c]):
                    if self.target.face(img, i) != self(f):
                        raise ValueError(
                            f"map does not commute with d_{i} at {c}")

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other."""
        if other.target is not self.source:
            other_cells = set(other.target.all_cells())
            if other_cells != set(self.source.all_cells()):
                raise ValueError("composition across different complexes")
        data = {c: self(img) for c, img in other.data.items()}
        return SimplicialMap(other.source, self.target, data, check=False)

    def is_isomorphism(self) -> bool:
        if self.source.counts != self.target.counts:
            return False
        for d in self.source.counts:
            imgs = {self.data[(d, i)] for i in range(self.source.counts[d])}
            if any(x.is_degenerate for x in imgs):
                return False
            if len(imgs) != self.source.counts[d]:
                return False
        return True

    @classmethod
    def identity(cls, X: SimplicialSet) -> "SimplicialMap":
        return cls(X, X, {c: nondeg(*c) for c in X.all_cells()}, check=False)


def to_point(A: SimplicialSet) -> SimplicialMap:
    """The map from A to an unlabelled point."""
    data = {c: constant_simplex((0, 0), c[0]) for c in A.all_cells()}
    return SimplicialMap(A, point(), data, check=False)


def simplex_by_chain(Y: SimplicialSet, chain) -> Simplex:
    """Simplex of Y whose vertex-label sequence is ``chain``.

    Only meaningful when the nondegenerate cells of Y are labelled by
    their strictly ascending vertex-label tuples (nerves, standard
    simplices and most built complexes here are).
    """
    chain = tuple(chain)
    stripped, word = [], []
    for t, v in enumerate(chain):
        if stripped and stripped[-1] == v:
            word.append(t - 1)
        else:
            stripped.append(v)
    cell = Y.cell_with_label(tuple(stripped))
    return Simplex(tuple(sorted(word, reverse=True)), cell)


def unwrap_label(lab):
    """Singleton chain labels stand for their only entry."""
    if isinstance(lab, tuple) and len(lab) == 1:
        return lab[0]
    return lab


def map_by_vertices(X: SimplicialSet, Y: SimplicialSet, vertex_fn) -> SimplicialMap:
    """Build a map from a function on vertex labels.

    Each nondegenerate cell of X is sent to the Y-simplex whose chain is
    the image of its vertex-label chain under ``vertex_fn``.  Labels that
    are singleton tuples (nerve and standard simplex vertices) are
    unwrapped before the function sees them, and it sees each vertex
    once.
    """
    image = {v: vertex_fn(unwrap_label(X.labels.get(v))) for v in X.cells(0)}
    data = {c: simplex_by_chain(Y, tuple(image[v] for v in
                                         X.vertices(nondeg(*c))))
            for c in X.all_cells()}
    return SimplicialMap(X, Y, data)


def enumerate_homs(A: SimplicialSet, X: SimplicialSet, limit: int | None = None):
    """All simplicial maps A -> X, at most ``limit`` of them, in the
    order of the search over A's cells and X's simplices."""
    index = {d: face_index(X, d) for d in A.counts}
    homs = (SimplicialMap(A, X, dict(assign), check=False)
            for assign in search(A, index))
    return list(itertools.islice(homs, limit))


def find_isomorphism(X: SimplicialSet, Y: SimplicialSet) -> SimplicialMap | None:
    """First isomorphism X -> Y found by the search, or None."""
    if X.counts != Y.counts:
        return None
    index: dict[int, dict] = {}
    for d, n in Y.counts.items():
        by_faces = index[d] = {}
        for j in range(n):
            by_faces.setdefault(Y.faces[(d, j)] if d else (), []).append(
                nondeg(d, j))
    data = next(search(X, index, injective=True), None)
    if data is None:
        return None
    return SimplicialMap(X, Y, dict(data), check=False)


@functools.lru_cache(maxsize=8)
def face_index(X: SimplicialSet, d: int) -> dict[tuple, list[Simplex]]:
    """X's d-simplices, degenerate ones included, keyed by the tuple of
    their faces (the empty tuple for vertices).  Each list keeps the
    order of ``X.simplices(d)``.  The last few tables are kept and
    shared between callers, who must not change them."""
    out: dict[tuple, list[Simplex]] = {}
    for s in X.simplices(d):
        key = tuple(X.face(s, i) for i in range(d + 1)) if d else ()
        out.setdefault(key, []).append(s)
    return out


def search(A: SimplicialSet, index: dict[int, dict], allowed=None,
           injective: bool = False, memo: bool = False):
    """Backtracking search for the maps out of A, with forward checking.

    A's cells are visited in ``sorted`` order, dimension then index, so
    the faces of a cell are assigned before the cell itself.  The
    candidates for a cell are ``index[d][key]``, where ``key`` is the
    tuple of the images its faces force, so every candidate commutes
    with the faces; they are tried in list order.  A candidate must
    also pass ``allowed(cell, simplex)`` when that is given, and, with
    ``injective``, must not be the image of another cell.

    Forward checking: ``ahead[k]`` lists the cells whose faces are all
    assigned once position k is, the last of them at k, and that come
    later than k + 1.  At a vertex these are the edges back to vertices
    already assigned.  A candidate at k is dropped when the index has
    no simplex under the key of one of those cells.  That key stays fixed
    in the whole subtree under the candidate, so the cell would have no
    candidate when its turn came: the check cuts only subtrees that
    yield nothing.  It reads neither ``allowed`` nor the used images and
    does not change the visiting order, so every map comes out in the
    order of the plain search, and the first isomorphism stays the
    first.

    Yields each complete assignment, cell to simplex, as one live dict
    that the search goes on changing: copy it to keep it.

    With ``memo``, a level that yields nothing is remembered by its
    position and the images of the earlier cells that later faces still
    read, and such a subtree is not searched again.  The forward check
    at a level reads only those images and the level's own, so it keeps
    the memo sound.  The key ignores ``injective``, so the two do not
    go together.

    The search runs on an explicit stack, so deep complexes do not hit
    the recursion limit.
    """
    cells = sorted(A.all_cells())
    n = len(cells)
    frontier, ahead = _schedule(A, cells, memo)
    faces = A.faces
    assign: dict = {}
    used: set = set()
    dead: set = set()
    found = 0

    def want(c):
        return tuple(degenerate_word(assign[f.base], f.word)
                     for f in faces.get(c, ()))

    # one frame per open level: candidates left, memo key, hits at entry
    frames: list = []
    k = 0
    while True:
        if k == n:
            found += 1
            yield assign
        else:
            key = None
            if memo:
                key = (k, tuple(assign[c] for c in frontier[k]))
            if key is None or key not in dead:
                c = cells[k]
                cands = index[c[0]].get(want(c), ())
                if allowed is not None:
                    cands = [s for s in cands if allowed(c, s)]
                frames.append((iter(cands), key, found))
        # move the deepest open level on to its next candidate
        while frames:
            k = len(frames) - 1
            c = cells[k]
            if injective and c in assign:
                used.discard(assign[c])
            cands, key, before = frames[-1]
            checks = ahead[k]
            for s in cands:
                if injective and s in used:
                    continue
                assign[c] = s
                if all(index[e[0]].get(want(e)) for e in checks):
                    break
            else:
                frames.pop()
                assign.pop(c, None)
                if memo and found == before:
                    dead.add(key)
                continue
            if injective:
                used.add(s)
            k += 1
            break
        else:
            return


def _schedule(A: SimplicialSet, cells, memo: bool):
    """The look-ahead lists of ``search`` and, with ``memo``, its
    frontiers, from one sweep over the faces.

    ``ahead[k]`` lists, in order, the cells from k + 2 on whose last
    face sits at position k.  ``frontier[k]`` lists, in order, the cells
    before k that faces of the cells from k on use.
    """
    pos = {c: k for k, c in enumerate(cells)}
    last: dict = {}
    ahead: list = [[] for _ in cells]
    for k, c in enumerate(cells):
        fs = A.faces.get(c, ())
        for f in fs:
            last[f.base] = k
        if fs:
            m = max(pos[f.base] for f in fs)
            if k > m + 1:
                ahead[m].append(c)
    if not memo:
        return None, ahead
    frontier, live = [], []
    for k, c in enumerate(cells):
        live = [e for e in live if last[e] >= k]
        frontier.append(tuple(live))
        if last.get(c, -1) > k:
            live.append(c)
    return frontier, ahead

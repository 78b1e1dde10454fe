"""Maps of simplicial sets, and the one backtracking search behind hom
enumeration, isomorphism search and lifting."""

from __future__ import annotations

import functools
import itertools
import operator

from .complex import Cell, SimplicialSet, point
from .simplex import Simplex, constant_simplex, degenerate_word, nondeg


class SimplicialMap:
    """A map of simplicial sets, stored on nondegenerate cells.

    The map keeps the ``data`` dict it is given, not a copy, so the
    caller must not change that dict afterwards."""

    def __init__(self, source: SimplicialSet, target: SimplicialSet,
                 data: dict[Cell, Simplex], check: bool = True):
        self.source = source
        self.target = target
        self.data = data
        if check:
            self.validate()

    def __call__(self, x: Simplex) -> Simplex:
        word, base = x
        if not word:
            return self.data[base]
        return degenerate_word(self.data[base], word)

    def validate(self) -> None:
        """Check that every cell of the source has an image of its own
        dimension, naming a cell of the target, and that the map commutes
        with the faces.

        The faces are checked a row at a time: the images of a cell's
        faces (``data`` of the face's base when the face has no word)
        against the face row of the cell's image, which is the target's
        face table row when the image is nondegenerate and d_0, ..., d_m
        of the image otherwise.  The first d_i that differs is named.
        """
        source, target, data = self.source, self.target, self.data
        for c in source.all_cells():
            if c not in data:
                raise ValueError(f"no image for cell {c}")
            img = data[c]
            if img.dim != c[0]:
                raise ValueError(f"image of {c} has dimension {img.dim}")
            bd, bi = img.base
            if not (0 <= bi < target.n_cells(bd)):
                raise ValueError(f"image of {c} names unknown cell {img.base}")
            if c[0] >= 1:
                row = tuple([self(f) if f.word else data[f.base]
                             for f in source.faces[c]])
                want = target.face_row(img)
                if row != want:
                    i = next(i for i, (a, b) in enumerate(zip(row, want))
                             if a != b)
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
    # same[t]: the vertex at t repeats at t + 1, a collapse at t
    same = list(map(operator.eq, chain, chain[1:]))
    if not any(same):
        return nondeg(*Y.cell_with_label(chain))
    word = tuple([t for t in range(len(same) - 1, -1, -1) if same[t]])
    stripped = chain[:1] + tuple(itertools.compress(
        chain[1:], map(operator.not_, same)))
    return Simplex(word, Y.cell_with_label(stripped))


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
    data = {c: simplex_by_chain(Y, map(image.__getitem__,
                                       X._base_vertices(c)))
            for c in X.all_cells()}
    return SimplicialMap(X, Y, data)


def enumerate_homs(A: SimplicialSet, X: SimplicialSet, limit: int | None = None):
    """All simplicial maps A -> X, at most ``limit`` of them, in the
    order of the search over A's cells and X's simplices."""
    index = {d: face_index(X, d) for d in A.counts}
    homs = (SimplicialMap(A, X, assign, check=False)
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
    return SimplicialMap(X, Y, data, check=False)


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
           injective: bool = False, fixed=None):
    """Backtracking search for the maps out of A, with forward checking.

    ``fixed`` maps cells of A, a face-closed set of them, to images that
    are already given.  Each is checked once, up front, as the search
    would check it: its image must be listed under the key its faces
    force and must pass ``allowed``.  If one fails, nothing is yielded.
    The search then visits only the other cells, the free ones.

    The free cells are visited in ``sorted`` order, dimension then
    index, so the faces of a cell are assigned before the cell itself.
    The candidates for a cell are ``index[d][key]``, where ``key`` is
    the tuple of the images its faces force, so every candidate
    commutes with the faces; they are tried in list order.  A candidate
    must also pass ``allowed(cell, simplex)`` when that is given, and,
    with ``injective``, must not be the image of another cell.

    Forward checking: a free cell is checked at the level of its last
    free face when it comes more than one level later, or up front
    when all its faces are fixed.  A candidate is dropped when the
    index has no simplex under the key of one of those cells.  That key
    stays fixed in the whole subtree under the candidate, so the cell
    would have no candidate when its turn came: the check cuts only
    subtrees that yield nothing.  It reads neither ``allowed`` nor the
    used images and does not change the visiting order, so every map
    comes out in the order of the plain search, and the first
    isomorphism stays the first.

    Yields each complete assignment as a new dict, cell to simplex, in
    sorted cell order.

    The order, key getters and look-ahead lists are a plan built once
    per A and set of fixed cells, so reading a cell's key costs one
    ``operator.itemgetter`` call when its faces are nondegenerate.  The
    plan is kept for the next search from A, except in an injective
    search: only ``find_isomorphism`` asks for one, once per source.
    The search runs on an explicit stack, so deep complexes do not hit
    the recursion limit.
    """
    fixed = fixed or {}
    plan = _plan.__wrapped__ if injective else _plan
    cells, dims, keys, given, free, ahead = plan(A, frozenset(fixed))
    img: list = [None] * len(cells)
    for p in given:
        img[p] = fixed[cells[p]]

    def live(p):
        return index[dims[p]].get(keys[p](img))

    # each fixed cell as the search would check it, then the free cells
    # whose keys the fixed images alone decide
    for p in given:
        s = img[p]
        if s not in index[dims[p]].get(keys[p](img), ()) or \
                (allowed is not None and not allowed(cells[p], s)):
            return
    for q in ahead[-1]:
        if not live(q):
            return
    used = set(fixed.values()) if injective else set()
    if injective and len(used) < len(fixed):
        return
    n = len(free)
    # one iterator of candidates left per open level
    frames: list = []
    k = 0
    while True:
        if k == n:
            yield dict(zip(cells, img))
        else:
            p = free[k]
            cands = index[dims[p]].get(keys[p](img), ())
            if allowed is not None:
                c = cells[p]
                cands = [s for s in cands if allowed(c, s)]
            frames.append(iter(cands))
        # move the deepest open level on to its next candidate
        while frames:
            k = len(frames) - 1
            p = free[k]
            if injective and img[p] is not None:
                used.discard(img[p])
            checks = ahead[k]
            for s in frames[-1]:
                if injective and s in used:
                    continue
                img[p] = s
                # keep s unless a cell checked at this level has no key
                for q in checks:
                    if not live(q):
                        break
                else:
                    break
            else:
                frames.pop()
                img[p] = None
                continue
            if injective:
                used.add(s)
            k += 1
            break
        else:
            return


def tuple_getter(positions):
    """The function reading a sequence's entries at ``positions``, in
    order, as a tuple: an ``operator.itemgetter`` when there are two or
    more of them."""
    if len(positions) >= 2:
        return operator.itemgetter(*positions)
    if positions:
        (q,) = positions
        return lambda xs: (xs[q],)
    return lambda xs: ()


def _word_key(faces, img):
    return tuple([degenerate_word(img[q], w) if w else img[q]
                  for q, w in faces])


@functools.lru_cache(maxsize=4)
def _plan(A: SimplicialSet, fixed: frozenset):
    """The plan of ``search`` for A with the cells ``fixed`` given,
    everything as positions in the order of ``A.all_cells()``, which is
    sorted.  The last few plans are kept and shared, so the squares
    against one inclusion build theirs once.

    ``cells[p]`` and ``dims[p]`` describe the cell at p, and
    ``keys[p]`` reads its key, the tuple of the images its faces force,
    off the list of images by position.  For a cell whose faces are all
    nondegenerate, as every face of a horn or a simplex is, that is an
    ``operator.itemgetter`` over the face positions; otherwise each
    face's word is applied to its image.  ``given`` lists the positions
    of the fixed cells and ``free`` the others, one per level of the
    search.  ``ahead[k]`` lists, in order, the free cells from level
    k + 2 on whose last free face sits at level k; ``ahead[-1]`` lists
    those from level 1 on whose faces are all fixed.
    """
    cells = tuple(A.all_cells())
    pos = {c: p for p, c in enumerate(cells)}
    if not fixed <= pos.keys():
        raise ValueError(f"fixed cells {sorted(fixed - pos.keys())} "
                         f"are not cells of the source")
    faces = [tuple([(pos[b], w) for w, b in A.faces.get(c, ())])
             for c in cells]
    keys = tuple([functools.partial(_word_key, fs)
                  if any(w for _, w in fs)
                  else tuple_getter([q for q, _ in fs]) for fs in faces])
    given = tuple(sorted(pos[c] for c in fixed))
    free = tuple([p for p, c in enumerate(cells) if c not in fixed])
    level = [-1] * len(cells)
    for k, p in enumerate(free):
        level[p] = k
    for p in given:
        if any(level[q] >= 0 for q, _ in faces[p]):
            raise ValueError(f"fixed cell {cells[p]} has a face that is "
                             f"not fixed")
    ahead: list = [[] for _ in range(len(free) + 1)]
    for k, p in enumerate(free):
        if faces[p]:
            m = max([level[q] for q, _ in faces[p]])
            if k > m + 1:
                ahead[m].append(p)
    dims = tuple(c[0] for c in cells)
    return cells, dims, keys, given, free, ahead

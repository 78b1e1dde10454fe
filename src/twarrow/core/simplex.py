"""Eilenberg-Zilber words and the simplex handle type.

Every simplex of a simplicial set is written uniquely as a strictly
decreasing word of degeneracy operators applied to a nondegenerate base:

    s_{j_1} s_{j_2} ... s_{j_k} (base),   j_1 > j_2 > ... > j_k.

A word is stored outermost first.  The word of a simplex of dimension m
over a base of dimension p is equivalently the set of "collapse
positions" of the monotone surjection [m] ->> [p] it encodes, and in the
canonical form the word letters literally are the collapse positions in
decreasing order.  Most of the calculus below exploits that.

A nondegenerate simplex has one shared handle: ``nondeg(d, i)`` returns
the same ``Simplex`` object, with the same ``(d, i)`` base tuple, every
time, and the constructors put those handles in their face tables, maps
and cell lists.  That is a saving of memory only.  Handles compare by
value, like any tuple, so a handle built directly with ``Simplex`` is
equal to the shared one; compare with ``==``, never with ``is``.  The
table holds, per dimension, the handles up to the largest index asked
for, at most ``HANDLE_CAP`` of them.
"""

from __future__ import annotations

import functools
import itertools
import threading
from typing import NamedTuple

from .. import CAPS


class Simplex(NamedTuple):
    """Handle for a (possibly degenerate) simplex of a simplicial set.

    ``base`` is a pair ``(dim, idx)`` naming a nondegenerate simplex,
    ``word`` the degeneracy word applied to it, outermost letter first.
    """

    word: tuple[int, ...]
    base: tuple[int, int]

    @property
    def dim(self) -> int:
        return self.base[0] + len(self.word)

    @property
    def is_degenerate(self) -> bool:
        return bool(self.word)


# nondeg's table: row d holds the handles of (d, 0), (d, 1), ... up to
# the largest index asked for.  Rows only grow, under the lock, so an
# entry once there is the right one for every thread.
_handles: dict[int, list[Simplex]] = {}
_handles_lock = threading.Lock()

HANDLE_CAP = CAPS["HANDLE_CAP"].value


def nondeg(dim: int, idx: int) -> Simplex:
    """The shared handle of the nondegenerate simplex (dim, idx).

    The table grows to the largest index asked for in each dimension,
    at most ``HANDLE_CAP`` handles a dimension; from there on a new,
    equal handle is returned.  A negative dimension or index raises a
    ValueError.  Readers of outside input range-check their indices
    before they ask, or build their handles with ``Simplex``.
    """
    if idx >= 0:
        try:
            return _handles[dim][idx]
        except (KeyError, IndexError):
            pass
    if dim < 0 or idx < 0:
        raise ValueError(f"no cell ({dim}, {idx}): negative dimension or "
                         f"index")
    if idx >= HANDLE_CAP:
        return Simplex((), (dim, idx))
    with _handles_lock:
        row = _handles.setdefault(dim, [])
        row.extend([Simplex((), (dim, i)) for i in range(len(row), idx + 1)])
        return row[idx]


def nondeg_row(dim: int, n: int):
    """The handles of (dim, 0), ..., (dim, n - 1), in order: the shared
    ones, then, from ``HANDLE_CAP`` on, new ones made as they are
    reached, so a large count read from outside holds no list of them
    all."""
    shared = min(n, HANDLE_CAP)
    if shared <= 0:
        return iter(())
    nondeg(dim, shared - 1)
    return itertools.chain(_handles[dim][:shared],
                           (Simplex((), (dim, i))
                            for i in range(HANDLE_CAP, n)))


def simplex_on(word: tuple[int, ...], base: tuple[int, int]) -> Simplex:
    """s_word (base), the shared handle of base when the word is empty."""
    return Simplex(word, base) if word else nondeg(*base)


def check_word(word: tuple[int, ...], base_dim: int) -> None:
    for a, b in zip(word, word[1:]):
        if a <= b:
            raise ValueError(f"word {word} is not strictly decreasing")
    if word:
        # letters are collapse positions in [0, dim-1]
        if word[-1] < 0 or word[0] > base_dim + len(word) - 1:
            raise ValueError(f"word {word} out of range for base dim {base_dim}")


def collapses_to_word(collapses) -> tuple[int, ...]:
    return tuple(sorted(collapses, reverse=True))


def constant_simplex(vertex: tuple[int, int], d: int) -> Simplex:
    """The totally degenerate d-simplex at a vertex."""
    assert vertex[0] == 0
    return simplex_on(tuple(range(d - 1, -1, -1)), vertex)


@functools.lru_cache(maxsize=None)
def flag_map(word: tuple[int, ...], base_dim: int) -> tuple[int, ...]:
    """The monotone surjection [m] ->> [base_dim] encoded by ``word``.

    Returned as the tuple of values at 0, 1, ..., m.  Position t is a
    collapse (value repeats at t+1) exactly when t is a word letter.
    """
    m = base_dim + len(word)
    collapses = set(word)
    out = []
    v = 0
    for t in range(m + 1):
        out.append(v)
        if t not in collapses:
            v += 1
    assert out[-1] == base_dim
    return tuple(out)


def degenerate(x: Simplex, j: int) -> Simplex:
    """Apply s_j to a simplex, renormalizing the word."""
    return degenerate_word(x, (j,))


def degenerate_word(x: Simplex, word: tuple[int, ...]) -> Simplex:
    """Apply a degeneracy word (outermost first) on top of ``x``."""
    if not word:
        return x
    return Simplex(compose_words(word, x.word, x.dim), x.base)


@functools.lru_cache(maxsize=None)
def compose_words(outer: tuple[int, ...], inner: tuple[int, ...],
                  dim: int) -> tuple[int, ...]:
    """Canonical word of s_outer s_inner (y) for a dim-simplex s_inner (y)."""
    new = set(inner)
    for j in reversed(outer):
        if not 0 <= j <= dim:
            raise ValueError(f"s_{j} undefined on a {dim}-simplex")
        new = {t if t < j else t + 1 for t in new}
        new.add(j)
        dim += 1
    return collapses_to_word(new)


@functools.lru_cache(maxsize=None)
def face_rule(word: tuple[int, ...], i: int):
    """How d_i acts on s_word (b), with i in range.

    Returns ``(w, None)`` when a collapse at i or i-1 absorbs the face,
    which is then s_w (b), and ``(w, k)`` when position i is a fiber of
    its own, so the face is s_w (d_k b).
    """
    s = set(word)
    if i in s or i - 1 in s:
        s.discard(i if i in s else i - 1)
        k = None
    else:
        k = i - sum(t < i for t in word)
    return collapses_to_word({t if t < i else t - 1 for t in s}), k


@functools.lru_cache(maxsize=None)
def face_rules(word: tuple[int, ...], dim: int):
    """``face_rule(word, i)`` for i = 0, ..., dim: how each face map acts
    on the dim-simplex s_word (b)."""
    return tuple([face_rule(word, i) for i in range(dim + 1)])


def face_stays_degenerate(x: Simplex, i: int) -> Simplex | None:
    """d_i(x) when it does not touch the base, else None.

    The face misses the base exactly when position i sits in a fiber of
    the flag map of size at least two, i.e. i or i-1 is a word letter.
    """
    word, k = face_rule(x.word, i)
    return simplex_on(word, x.base) if k is None else None


def strip_collapse(x: Simplex, j: int) -> Simplex:
    """Remove the collapse at position j (requires j in the word)."""
    assert j in x.word
    out = face_stays_degenerate(x, j)
    assert out is not None
    return out


def op_word(word: tuple[int, ...], dim: int) -> tuple[int, ...]:
    """Degeneracy word of the same simplex read in the opposite complex."""
    return collapses_to_word({dim - 1 - t for t in word})


@functools.lru_cache(maxsize=None)
def all_words(m: int, base_dim: int) -> tuple[tuple[int, ...], ...]:
    """All canonical words of simplices of dimension m over a base of
    dimension base_dim, i.e. all (m - base_dim)-subsets of [0, m-1]."""
    k = m - base_dim
    if k < 0:
        return ()
    return tuple(tuple(sorted(c, reverse=True))
                 for c in itertools.combinations(range(m), k))

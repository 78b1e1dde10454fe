"""The poset layer against brute-force references.

``_reference_all_posets`` scans every relation on n points, in the
order of ``itertools.product``, and keeps the first member of each
isomorphism class.  ``_reference_chains`` extends chains element by
element through ``Poset.lt``.
"""

import itertools
from functools import lru_cache

import pytest

from twarrow.core.poset import Poset, all_posets, poset_key
from twarrow.partitions import chain_poset, chain_poset_at, ordered_partitions


def _reference_key(n, rel):
    return min(tuple(sorted((p[a], p[b]) for a, b in rel))
               for p in itertools.permutations(range(n)))


@lru_cache(maxsize=None)
def _reference_all_posets(n):
    if n == 0:
        return ((), frozenset()),
    elems = list(range(n))
    arcs = [(a, b) for a in elems for b in elems if a != b]
    seen = set()
    out = []
    for chosen in itertools.product([False, True], repeat=len(arcs)):
        rel = {arc for arc, c in zip(arcs, chosen) if c}
        if any((a, b) in rel and (b, a) in rel for a, b in rel):
            continue
        if any((a, d) not in rel
               for a, b in rel for c, d in rel if b == c and a != d):
            continue
        key = _reference_key(n, rel)
        if key not in seen:
            seen.add(key)
            le = rel | {(a, a) for a in elems}
            out.append((tuple(elems), frozenset(le)))
    return tuple(out)


def _reference_chains(P, length):
    if length == 0:
        return [()]

    def extend(chain):
        if len(chain) == length:
            yield chain
            return
        for e in P.elements:
            if P.lt(chain[-1], e):
                yield from extend(chain + (e,))

    return [c for e in P.elements for c in extend((e,))]


def _assert_chains_match(P):
    levels = list(P.chain_levels(len(P.elements) + 1))
    longest = 0
    for k in range(1, len(P.elements) + 2):
        want = _reference_chains(P, k)
        got = levels[k - 1] if k <= len(levels) else []
        assert [tuple(P.elements[i] for i in c) for c in got] == want
        assert P.chains(k) == want
        if want:
            longest = k
    assert P.chains(0) == _reference_chains(P, 0) == [()]
    assert P.height() == longest


def _mapping_space_chain_posets():
    """The chain posets the ``mapping-spaces`` check builds: that of
    every ordered partition of every poset on 1 to 4 points, and its
    slices at each lower element."""
    for size in range(1, 5):
        for P in all_posets(size):
            for part in ordered_partitions(P):
                yield chain_poset(part)
                for j in sorted(part.lower, key=str):
                    yield chain_poset_at(part, j)


@pytest.mark.parametrize("n", range(6))
def test_all_posets_matches_brute_force_scan(n):
    got = [(P.elements, P.le) for P in all_posets(n)]
    assert got == list(_reference_all_posets(n))


def test_all_posets_six_points_are_pairwise_non_isomorphic():
    # n = 6 is out of reach of the scan; check the extension's output
    # against the reference canonical form instead
    keys = {_reference_key(6, [(a, b) for a, b in P.le if a != b])
            for P in all_posets(6)}
    assert len(keys) == 318


def test_poset_rejects_duplicate_elements():
    with pytest.raises(ValueError, match="^duplicate elements$"):
        Poset("aba")


def test_poset_rejects_pairs_off_the_element_set():
    off = r"^relation pair \('a', 'z'\) off the element set$"
    with pytest.raises(ValueError, match=off):
        Poset("ab", [("a", "b"), ("a", "z")])


def test_poset_rejects_cycles():
    with pytest.raises(ValueError, match="^cycle through [abc] and [abc]$"):
        Poset("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])


def test_chains_and_height_match_the_scan_on_small_posets():
    for n in range(6):
        for P in all_posets(n):
            _assert_chains_match(P)


def test_chains_and_height_match_the_scan_on_chain_posets():
    seen = 0
    for C in _mapping_space_chain_posets():
        _assert_chains_match(C)
        seen += 1
    assert seen > 100


def test_minima_maxima_and_down_sizes():
    P = Poset("abcd", [("a", "b"), ("c", "b"), ("b", "d")])
    assert P.minima() == ["a", "c"]
    assert P.maxima() == ["d"]
    assert P.down_sizes == (0, 2, 0, 3)
    assert P.index == {"a": 0, "b": 1, "c": 2, "d": 3}


def test_poset_key_is_a_complete_invariant():
    classes = all_posets(4)
    assert len({poset_key(P) for P in classes}) == len(classes)
    for P in classes:
        names = "wxyz"
        renamed = Poset(reversed(names),
                        [(names[a], names[b]) for a, b in P.le])
        assert poset_key(renamed) == poset_key(P)

"""Ordered partitions: chain posets, truncations, congruences, collapses."""

import itertools

import pytest
from test_core_calculus import new_cell_members, reference_push

from twarrow import partitions
from twarrow.core.complex import standard_simplex
from twarrow.core.maps import (find_isomorphism, map_by_vertices,
                               simplex_by_chain, to_point)
from twarrow.core.ops import pushout, quotient_by_key
from twarrow.core.poset import Poset, all_posets, nerve, total_order
from twarrow.core.simplex import nondeg
from twarrow.decor import collapse_to_point, flat, sharp
from twarrow.partitions import (
    SIDES,
    Collapse,
    boxplus_partition,
    chain_poset,
    chain_poset_at,
    collapse_both,
    collapse_upper,
    congruence_quotient,
    make_partition,
    mapping_space,
    marked_chain_edge,
    marked_chain_edges,
    ordered_partitions,
    q_partition,
    segments,
    simplex_flag,
    sorted_chain,
    square_partition,
    star_partition,
    truncate,
    truncate_chain,
)


F = frozenset


# -- construction ------------------------------------------------------


def test_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        make_partition(total_order(1), {0, 1}, {1})


def test_rejects_bad_cover():
    with pytest.raises(ValueError, match="cover"):
        make_partition(total_order(2), {0}, {1})
    with pytest.raises(ValueError, match="cover"):
        make_partition(total_order(1), {0}, {1, 7})


def test_rejects_order_violation():
    with pytest.raises(ValueError, match="order violation"):
        make_partition(total_order(1), {1}, {0})


def test_opposite_partition_is_valid():
    p = make_partition(total_order(2), {0}, {1, 2})
    q = p.opposite()
    assert q.lower == F({1, 2}) and q.upper == F({0})
    assert q.poset.leq(2, 0)


def test_all_valid_partitions_have_valid_opposites():
    for P in all_posets(3):
        for part in ordered_partitions(P):
            part.opposite()


# -- chain posets ------------------------------------------------------


def test_chain_poset_q1():
    P = chain_poset(q_partition(1).part)
    assert len(P.elements) == 9
    assert F({0, 2}) in P.elements
    assert F({2, 3}) not in P.elements
    assert P.leq(F({0, 2}), F({0, 1, 2, 3}))
    assert not P.leq(F({0, 2}), F({1, 3}))


def test_chain_poset_sizes():
    assert len(chain_poset(star_partition(1).part).elements) == 3
    assert len(chain_poset(boxplus_partition(1).part).elements) == 21
    assert len(chain_poset(square_partition(1).part).elements) == 5


def test_chain_poset_slice():
    part = q_partition(1).part
    P0 = chain_poset_at(part, 0)
    assert all(0 in S for S in P0.elements)
    with pytest.raises(ValueError, match="lower"):
        chain_poset_at(part, 2)


def test_chain_poset_cap_is_named():
    # an antichain is a valid partition of any split; 17 elements is one
    # past the cap, which the message must name
    part = make_partition(Poset(range(17)), range(8), range(8, 17))
    with pytest.raises(ValueError, match=r"\b16\b"):
        chain_poset(part)


def test_chain_poset_memo_keeps_only_the_last_few():
    parts = [part for P in all_posets(5) for part in ordered_partitions(P)]
    first = chain_poset(parts[0])
    for part in parts:
        C = chain_poset(part)
        assert chain_poset(part) is C
    assert (len(partitions._chain_poset_cache)
            <= partitions._CHAIN_POSET_MEMO_SIZE < len(parts))
    # the first partition's poset has been dropped and is built again
    again = chain_poset(parts[0])
    assert again is not first
    assert again.elements == first.elements and again.le == first.le


# -- truncation --------------------------------------------------------


def test_truncate_full_chain_q1():
    part = q_partition(1).part
    S = (F({0, 1, 2, 3}),)
    assert truncate_chain(part, S, "R") == (F({0, 1, 2}),)
    assert truncate_chain(part, S, "L") == (F({1, 2, 3}),)
    assert truncate_chain(part, S, "A") == (F({1, 2}),)


def test_truncate_flag_keeps_pivot_of_first_set():
    part = make_partition(total_order(2), {0}, {1, 2})
    flag = (F({0, 2}), F({0, 1, 2}))
    # first set switches at 2, so nothing is cut
    assert truncate_chain(part, flag, "R") == flag


def test_truncate_simplices():
    part = q_partition(1).part
    N = nerve(chain_poset(part))
    v = simplex_by_chain(N, (F({0, 1, 2, 3}),))
    assert N.labels[truncate(part, N, v, "A").base] == (F({1, 2}),)
    e = simplex_by_chain(N, (F({0, 2}), F({0, 1, 2, 3})))
    t = truncate(part, N, e, "R")
    assert simplex_flag(N, t) == (F({0, 2}), F({0, 1, 2}))


def test_truncation_idempotent_and_commuting():
    for size in (2, 3, 4):
        for P in all_posets(size):
            for part in ordered_partitions(P):
                C = chain_poset(part)
                flags = [tuple(C.elements[i] for i in c)
                         for level in C.chain_levels(3) for c in level]
                for flag in flags:
                    R = truncate_chain(part, flag, "R")
                    L = truncate_chain(part, flag, "L")
                    A = truncate_chain(part, flag, "A")
                    assert truncate_chain(part, R, "R") == R
                    assert truncate_chain(part, L, "L") == L
                    assert truncate_chain(part, A, "A") == A
                    assert truncate_chain(part, R, "L") == A
                    assert truncate_chain(part, L, "R") == A


def test_truncate_rejects_non_ascending():
    part = q_partition(1).part
    with pytest.raises(ValueError, match="ascending"):
        truncate_chain(part, (F({0, 1, 2}), F({0, 2})), "R")


def test_truncate_rejects_a_first_set_inside_one_part():
    part = q_partition(1).part
    with pytest.raises(ValueError, match="does not meet both parts"):
        truncate_chain(part, (F({0, 1}), F({0, 1, 2})), "R")


# -- congruences -------------------------------------------------------


def test_right_congruence_identifies_vertices():
    part = make_partition(total_order(2), {0}, {1, 2})
    q = congruence_quotient(part, "R", j=0).maps[0]
    N = q.source
    v1 = simplex_by_chain(N, (F({0, 1}),))
    v2 = simplex_by_chain(N, (F({0, 1, 2}),))
    v3 = simplex_by_chain(N, (F({0, 2}),))
    assert q(v1) == q(v2)
    assert q(v1) != q(v3)
    assert find_isomorphism(q.target, standard_simplex(1)) is not None


def test_right_congruence_trivial_for_singleton_upper():
    part = make_partition(total_order(2), {0, 1}, {2})
    q = congruence_quotient(part, "R").maps[0]
    assert q.target.counts == q.source.counts


def test_two_sided_relation_is_coarser():
    part = boxplus_partition(1).part
    S, T = (F({0, 1, 2}),), (F({1, 2}),)
    assert truncate_chain(part, S, "A") == truncate_chain(part, T, "A")
    assert truncate_chain(part, S, "R") != truncate_chain(part, T, "R")


def test_congruence_quotient_checks_the_side_first():
    # an antichain's partition has an empty chain poset, so no key is
    # ever made that would look at the side
    part = make_partition(Poset(["a", "b"], []), ["a"], ["b"])
    with pytest.raises(ValueError, match="unknown truncation side 'Z'"):
        congruence_quotient(part, "Z")


def test_congruences_close_on_compendium():
    # quotient_by_key re-verifies class homogeneity and raises otherwise
    for n in (0, 1):
        for dp in (q_partition(n), star_partition(n), boxplus_partition(n)):
            congruence_quotient(dp.part, "R", j=0, top_dim=2)
            congruence_quotient(dp.part, "A", top_dim=2)
    congruence_quotient(square_partition(1).part, "A", top_dim=2)


# -- mapping spaces ----------------------------------------------------


def test_mapping_space_segment_examples():
    part = make_partition(total_order(2), {0, 1}, {2})
    X = mapping_space(part, "right", j=0)
    assert find_isomorphism(X, standard_simplex(1)) is not None

    part = make_partition(total_order(2), {0}, {1, 2})
    X = mapping_space(part, "right", j=0)
    assert find_isomorphism(X, standard_simplex(1)) is not None

    part = make_partition(total_order(1), {0}, {1})
    X = mapping_space(part, "two_sided")
    assert X.counts == {0: 1}


def test_mapping_space_rejects_bad_input():
    part = make_partition(total_order(2), {0}, {1, 2})
    with pytest.raises(ValueError, match="lower"):
        mapping_space(part, "right", j=2)
    with pytest.raises(ValueError, match="mode"):
        mapping_space(part, "sideways")
    # right mode reads one lower vertex, two-sided mode none
    with pytest.raises(ValueError, match="mode 'right' needs a lower vertex"):
        mapping_space(part, "right")
    with pytest.raises(ValueError, match="mode 'two_sided' takes no vertex"):
        mapping_space(part, "two_sided", j=0)


# -- collapsed nerves --------------------------------------------------


def test_collapse_interval():
    part = make_partition(total_order(1), {0}, {1})
    up = collapse_upper(part)
    assert up.dec.space.counts == {0: 2, 1: 1}
    both = collapse_both(part)
    assert both.dec.space.counts == {0: 2, 1: 1}
    assert both.base0 != both.base1


def test_collapse_upper_triangle():
    part = make_partition(total_order(2), {0}, {1, 2})
    col = collapse_upper(part)
    assert col.dec.space.n_cells(0) == 2
    assert col.dec.space.n_cells(1) == 2


def test_collapse_both_q1_has_two_vertices():
    col = collapse_both(q_partition(1).part, q_partition(1).dec)
    assert col.dec.space.n_cells(0) == 2
    assert col.quot(simplex_by_chain(col.quot.source, (0,))).base == col.base0
    assert col.quot(simplex_by_chain(col.quot.source, (3,))).base == col.base1


def test_collapse_pushes_scaling_forward():
    dp = boxplus_partition(0)
    col = collapse_both(dp.part, dp.dec)
    img = col.quot(simplex_by_chain(col.quot.source, (0, 1, 2)))
    assert img.word == () and col.dec.is_thin(img)


def test_collapse_to_point_keeps_markings_and_thinness():
    # crushing the edge 01 of the sharp triangle leaves the point, the
    # vertex 2, the two edges into 2 (both marked) and the triangle
    # (thin), whose image is nondegenerate
    _, qdec, points = collapse_to_point(sharp(standard_simplex(2)), [{0, 1}])
    assert points == [(0, 0)]
    assert qdec.space.counts == {0: 2, 1: 2, 2: 1}
    assert qdec.marked == {(1, 0), (1, 1)}
    assert qdec.thin == {(2, 0)}


# -- markings ----------------------------------------------------------


def test_marked_edges_boxplus0():
    dp = boxplus_partition(0)
    marked = marked_chain_edges(dp)
    assert marked == {(F({0, 1}), F({0, 1, 2})), (F({0, 2}), F({0, 1, 2}))}


def test_marking_needs_thin_interior():
    part = boxplus_partition(0).part
    col = collapse_both(part)
    # without the scaling the wide edge fails, the short one survives
    assert not marked_chain_edge(part, col, F({0, 2}), F({0, 1, 2}))
    assert marked_chain_edge(part, col, F({0, 1}), F({0, 1, 2}))


# -- the constructions against the bodies they replaced ----------------


def _corpus_partitions():
    """Every ordered partition of every poset on one to five points."""
    for size in range(1, 6):
        for P in all_posets(size):
            yield from ordered_partitions(P)


def _compendium_partitions():
    return [f(n) for n in (0, 1, 2) for f in (
        q_partition, star_partition, boxplus_partition, square_partition)]


def _reference_is_chain_element(part, S):
    S = set(S)
    if not S:
        return False
    P = part.poset
    if any(not (P.leq(u, v) or P.leq(v, u))
           for u, v in itertools.combinations(S, 2)):
        return False
    chain = sorted_chain(P, S)
    return chain[0] in part.lower and chain[-1] in part.upper


def _reference_chain_poset(part):
    """``chain_poset`` as it was: every subset of the poset tested for
    comparability, then sorted by the same key."""
    P = part.poset
    els = [frozenset(c)
           for r in range(1, len(P.elements) + 1)
           for c in itertools.combinations(P.elements, r)
           if _reference_is_chain_element(part, c)]
    els.sort(key=lambda S: (len(S), tuple(sorted(
        (P.down_sizes[P.index[e]], P.index[e]) for e in S))))
    return Poset(els, [(S, T) for S in els for T in els if S <= T])


def test_chain_posets_match_the_subset_scan():
    parts = list(_corpus_partitions())
    parts += [dp.part for dp in _compendium_partitions()]
    for part in parts:
        got, ref = chain_poset(part), _reference_chain_poset(part)
        assert got.elements == ref.elements
        assert got.le == ref.le
    assert len(parts) == 764 + 12


def test_chain_poset_slices_match_the_sorted_chain_filter():
    n = 0
    for part in _corpus_partitions():
        C = chain_poset(part)
        for j in part.lower:
            got = chain_poset_at(part, j)
            ref = C.subposet([S for S in C.elements
                              if sorted_chain(part.poset, S)[0] == j])
            assert got.elements == ref.elements and got.le == ref.le
            n += 1
    assert n == 1836


def _reference_truncate_chain(part, chain, side):
    """``truncate_chain`` as it was: the first set sorted with
    ``sorted_chain``, then hi and lo found along it."""
    P = part.poset
    first = sorted_chain(P, chain[0])
    hi = next(s for s in first if s in part.upper)
    lo = next(s for s in reversed(first) if s in part.lower)
    return tuple(frozenset(s for s in S if (side == "L" or P.leq(s, hi))
                           and (side == "R" or P.leq(lo, s)))
                 for S in chain)


def test_cut_keys_match_the_truncation_of_every_flag(monkeypatch):
    # the key congruence_quotient hands to quotient_by_key, read on
    # every simplex to dimension 2, degenerate ones included, on every
    # side and slice
    seen = []
    monkeypatch.setattr(partitions, "quotient_by_key",
                        lambda N, key, top_dim=None: seen.append((N, key)))
    n = 0
    for part in _corpus_partitions():
        for side, j in itertools.product(SIDES, [None, *part.lower]):
            seen.clear()
            congruence_quotient(part, side, j=j, top_dim=2)
            ((N, key),) = seen
            for s in itertools.chain.from_iterable(
                    N.simplices(m) for m in range(3)):
                flag = simplex_flag(N, s)
                want = _reference_truncate_chain(part, flag, side)
                assert key(s) == want, (part, side, j, flag)
                assert truncate_chain(part, flag, side) == want
                n += 1
    assert n == 79203


def _reference_congruence_quotient(part, side, j=None, top_dim=None):
    """``congruence_quotient`` as it was: every simplex keyed by the
    truncation of its full flag."""
    P = chain_poset(part) if j is None else chain_poset_at(part, j)
    N = nerve(P, top_dim=top_dim)
    res = quotient_by_key(
        N, lambda s: truncate_chain(part, simplex_flag(N, s), side),
        top_dim=top_dim)
    return res, N


def test_cell_keyed_quotients_match_the_flag_keyed_ones():
    n = 0
    for part in _corpus_partitions():
        runs = [("A", None), ("L", None)] + [("R", j) for j in part.lower]
        for side, j in runs:
            res = congruence_quotient(part, side, j=j, top_dim=2)
            ref, M = _reference_congruence_quotient(part, side, j=j, top_dim=2)
            N = res.maps[0].source
            assert N.counts == M.counts and N.labels == M.labels
            assert res.complex.counts == ref.complex.counts
            assert res.complex.faces == ref.complex.faces
            assert res.complex.labels == ref.complex.labels
            assert res.maps[0].data == ref.maps[0].data
            assert new_cell_members(res.maps) == new_cell_members(ref.maps)
            n += 1
    assert n == 3364


def _reference_collapse_to_point(inc, dec):
    to_pt = to_point(inc.source)
    res = pushout(to_pt, inc)
    return res, reference_push(res.maps[1], dec)


def _reference_collapse_upper(part, dec=None):
    """``collapse_upper`` as it was, one pushout onto a point."""
    dec = flat(nerve(part.poset)) if dec is None else dec
    A = nerve(part.poset.subposet(part.upper))
    res, qdec = _reference_collapse_to_point(
        map_by_vertices(A, dec.space, lambda e: e), dec)
    return Collapse(qdec, res.maps[1], None, res.maps[0](nondeg(0, 0)).base)


def _reference_collapse_both(part, dec=None):
    """``collapse_both`` as it was: the upper collapse, then a second
    pushout crushing the lower part of its quotient."""
    first = _reference_collapse_upper(part, dec)
    A = nerve(part.poset.subposet(part.lower))
    inc = first.quot.compose(map_by_vertices(A, first.quot.source, lambda e: e))
    res, qdec = _reference_collapse_to_point(inc, first.dec)
    base0 = res.maps[0](nondeg(0, 0)).base
    base1 = res.maps[1](nondeg(*first.base1)).base
    return Collapse(qdec, res.maps[1].compose(first.quot), base0, base1)


def _assert_same_collapse(col, ref):
    Q, R = col.dec.space, ref.dec.space
    assert (Q.counts, Q.faces, Q.labels) == (R.counts, R.faces, R.labels)
    assert col.dec.thin == ref.dec.thin and col.dec.marked == ref.dec.marked
    assert col.quot.data == ref.quot.data
    assert (col.base0, col.base1) == (ref.base0, ref.base1)


def test_one_glue_collapses_match_the_pushout_ones():
    cases = [(part, None) for part in _corpus_partitions()]
    cases += [(dp.part, dp.dec) for dp in _compendium_partitions()]
    n = 0
    for part, dec in cases:
        _assert_same_collapse(collapse_upper(part, dec),
                              _reference_collapse_upper(part, dec))
        _assert_same_collapse(collapse_both(part, dec),
                              _reference_collapse_both(part, dec))
        n += 2
    assert n == 1552


def _reference_marked_chain_edge(part, col, S, T):
    """``marked_chain_edge`` as it was: every triangle of each piece
    restricted out and looked up on its own."""
    X, Q = col.quot.source, col.dec.space
    for seg in segments(sorted_chain(part.poset, T), S):
        img = col.quot(simplex_by_chain(X, seg))
        for tri in itertools.combinations(range(img.dim + 1), 3):
            if not col.dec.is_thin(Q.restrict(img, tri)):
                return False
    return True


def test_marked_chain_edges_match_the_restrictions():
    n = 0
    for dp in _compendium_partitions():
        col = collapse_both(dp.part, dp.dec)
        P = chain_poset(dp.part)
        ref = {(S, T) for S in P.elements for T in P.elements if S < T and
               _reference_marked_chain_edge(dp.part, col, S, T)}
        assert marked_chain_edges(dp) == ref
        n += len(ref)
    assert n == 1172

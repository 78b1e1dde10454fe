import random
from math import comb

import pytest

from twarrow.core import (Poset, SimplicialMap, all_posets, boundary_cells,
                          close_cells, horn_cells, is_closed, nerve, nondeg,
                          simplex_cell, standard_simplex, subcomplex,
                          total_order)


def test_standard_simplex_counts_and_validation():
    for n in range(5):
        X = standard_simplex(n)
        X.validate()
        for d in range(n + 1):
            assert X.n_cells(d) == comb(n + 1, d + 1)


def test_standard_simplex_cap_is_named():
    from twarrow.core.complex import SIMPLEX_CAP
    # the largest simplex the tests and the suite build is Delta^10
    assert SIMPLEX_CAP >= 10
    for n in (SIMPLEX_CAP + 1, 40):
        with pytest.raises(ValueError, match=f"{n}, cap {SIMPLEX_CAP}"):
            standard_simplex(n)


def test_standard_simplex_vertex_labels():
    X = standard_simplex(3)
    for c in X.all_cells():
        verts = X.vertices(nondeg(*c))
        assert tuple(X.labels[v][0] for v in verts) == X.labels[c]


def test_restrict_picks_out_subsets():
    X = standard_simplex(4)
    top = nondeg(4, 0)
    for sub in [(0, 2), (1, 3, 4), (0, 1, 2, 3, 4), (2,)]:
        got = X.restrict(top, sub)
        assert got.word == ()
        assert X.labels[got.base] == sub


def test_nerve_of_total_order_matches_standard_simplex():
    for n in range(4):
        N = nerve(total_order(n))
        X = standard_simplex(n)
        assert N.counts == X.counts
        assert {N.labels[c] for c in N.all_cells()} == \
            {X.labels[c] for c in X.all_cells()}
        N.validate()


def test_nerve_of_a_fence():
    # a < b > c: two edges, no triangles
    P = Poset("abc", [("a", "b"), ("c", "b")])
    N = nerve(P)
    assert N.counts == {0: 3, 1: 2}
    N.validate()


def test_nerve_respects_dim_cap():
    N = nerve(total_order(5), top_dim=2)
    assert N.top_dim == 2
    N.validate()


def test_nerves_of_small_posets_validate():
    for P in all_posets(4):
        nerve(P).validate()


def test_poset_cycle_rejected():
    with pytest.raises(ValueError):
        Poset("ab", [("a", "b"), ("b", "a")])


def test_poset_product_and_opposite():
    P = total_order(1).product(total_order(1))
    assert len(P.elements) == 4
    assert P.leq((0, 0), (1, 1))
    assert not P.leq((0, 1), (1, 0))
    Q = P.opposite()
    assert Q.leq((1, 1), (0, 0))


def test_all_posets_counts():
    # OEIS A000112
    assert [len(all_posets(n)) for n in range(7)] == [1, 1, 2, 5, 16, 63, 318]


def test_boundary_and_horn_cells():
    assert len(boundary_cells(2)) == 6
    assert len(horn_cells(2, 1)) == 5
    assert len(horn_cells(3, 2)) == 4 + 6 + 3
    X = standard_simplex(2)
    assert is_closed(X, boundary_cells(2))
    assert is_closed(X, horn_cells(2, 0))


def test_close_cells():
    X = standard_simplex(3)
    got = close_cells(X, [simplex_cell(3, (0, 1, 2))])
    assert got == {c for c in X.all_cells()
                   if set(X.labels[c]) <= {0, 1, 2}}


def test_subcomplex_and_inclusion():
    X = standard_simplex(2)
    sub, incl = subcomplex(X, horn_cells(2, 1))
    sub.validate()
    assert sub.counts == {0: 3, 1: 2}
    SimplicialMap(sub, X, incl).validate()


def test_subcomplex_rejects_non_closed():
    X = standard_simplex(2)
    with pytest.raises(ValueError):
        subcomplex(X, {(2, 0)})


def test_validate_catches_broken_face_tables():
    X = standard_simplex(2)
    bad = dict(X.faces)
    row = list(bad[(2, 0)])
    row[0], row[1] = row[1], row[0]
    # swapping two distinct faces breaks d_i d_j compatibility
    bad[(2, 0)] = tuple(row)
    from twarrow.core.complex import SimplicialSet
    Y = SimplicialSet(X.counts, bad, X.labels)
    with pytest.raises(ValueError):
        Y.validate()


def test_random_poset_nerves_validate():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randrange(2, 6)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.4]
        nerve(Poset(range(n), pairs)).validate()

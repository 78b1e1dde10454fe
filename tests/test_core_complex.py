import random
from math import comb

import pytest

from twarrow.core import (Poset, SimplicialMap, SimplicialSet, all_posets,
                          boundary_cells, close_cells, complex_from_json,
                          complex_to_json, complexes_equal, horn_cells,
                          is_closed, nerve, nondeg, simplex_cell,
                          standard_simplex, subcomplex, total_order)
from twarrow.core.maps import map_by_vertices
from twarrow.core.simplex import Simplex


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
    for n in range(8):
        N = nerve(total_order(n))
        assert complexes_equal(N, standard_simplex(n))
        N.validate()


def test_nerves_are_kept_by_value_and_top_dim():
    P, Q = (Poset("abc", [("a", "b"), ("b", "c")]) for _ in range(2))
    assert P is not Q and P == Q
    N = nerve(P)
    assert nerve(Q) is N and nerve(P, top_dim=None) is N
    others = [Poset(range(k)) for k in range(1, 33)]
    for R in others[:31]:
        nerve(R)
    assert nerve(P) is N
    # 32 other requests since P's fill the 32 places: P's nerve is dropped
    for R in others:
        nerve(R)
    assert nerve(P) is not N and complexes_equal(nerve(P), N)


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


def test_map_to_a_degenerate_image_names_the_first_failing_face():
    # the circle: one vertex v and one loop edge L
    circle = SimplicialSet({0: 1, 1: 1}, {(1, 0): (nondeg(0, 0), nondeg(0, 0))})
    v = nondeg(0, 0)
    sv = Simplex((0,), (0, 0))
    data = {(0, 0): v, (0, 1): v, (0, 2): v,
            (1, 0): nondeg(1, 0),  # the edge 01 goes round the loop
            (1, 1): sv, (1, 2): sv,
            # s_1 s_0 v agrees with the triangle's faces at d_0 and d_1,
            # not at d_2, which is the edge 01
            (2, 0): Simplex((1, 0), (0, 0))}
    with pytest.raises(ValueError,
                       match=r"^map does not commute with d_2 at \(2, 0\)$"):
        SimplicialMap(standard_simplex(2), circle, data)


def test_is_isomorphism_refusals():
    I = standard_simplex(1)
    assert SimplicialMap.identity(I).is_isomorphism()
    # different cell counts
    assert not map_by_vertices(I, standard_simplex(0),
                               lambda v: 0).is_isomorphism()
    # two vertices sent to one, at equal counts
    assert not map_by_vertices(I, I, lambda v: 0).is_isomorphism()
    # the loop of the circle onto its degenerate edge: one vertex each,
    # one edge each, but the edge's image is degenerate
    circle = SimplicialSet({0: 1, 1: 1},
                           {(1, 0): (nondeg(0, 0), nondeg(0, 0))})
    crush = SimplicialMap(circle, circle, {(0, 0): nondeg(0, 0),
                                           (1, 0): Simplex((0,), (0, 0))})
    assert not crush.is_isomorphism()


def test_wrong_face_names_the_first_failing_identity():
    X = standard_simplex(3)
    faces = dict(X.faces)
    row = list(faces[(3, 0)])
    row[2] = row[3]  # d_2 of 0123 made 012 instead of 013
    faces[(3, 0)] = tuple(row)
    bad = SimplicialSet(X.counts, faces, X.labels)
    # the first pair i < j that fails is d_0 d_2 = 12 against d_1 d_0 = 13
    left = Simplex((), simplex_cell(3, (1, 2)))
    right = Simplex((), simplex_cell(3, (1, 3)))
    msg = (f"simplicial identity fails on (3, 0): d_0 d_2 = {left} but "
           f"d_1 d_0 = {right}")
    with pytest.raises(ValueError) as e:
        bad.validate()
    assert str(e.value) == msg
    with pytest.raises(ValueError) as e:
        complex_from_json(complex_to_json(bad))
    assert str(e.value) == msg

import json

import pytest

from twarrow.core import (Poset, complex_from_json, complex_to_json,
                          complexes_equal, disjoint_union, dot_skeleton,
                          find_isomorphism, glue, nerve, nondeg, opposite,
                          point, product, join, quotient_by_key, simplex_cell,
                          standard_simplex, total_order)
from twarrow.core.ops import _UnionFind
from twarrow.core.simplex import Simplex, degenerate


def test_opposite_involution():
    X = nerve(Poset("abc", [("a", "b"), ("b", "c")]))
    Y = opposite(opposite(X))
    assert complexes_equal(X, Y)


def test_opposite_of_nerve_is_nerve_of_opposite():
    P = Poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    A = opposite(nerve(P))
    B = nerve(P.opposite())
    assert A.counts == B.counts
    assert {A.labels[c] for c in A.all_cells()} == \
        {B.labels[c] for c in B.all_cells()}
    A.validate()


def test_product_square():
    data = product(standard_simplex(1), standard_simplex(1))
    X = data.complex
    X.validate()
    assert X.counts == {0: 4, 1: 5, 2: 2}
    data.pr1.validate()
    data.pr2.validate()


def test_product_matches_nerve_of_product_poset():
    for p, q in [(1, 1), (2, 1), (2, 2)]:
        data = product(standard_simplex(p), standard_simplex(q))
        N = nerve(total_order(p).product(total_order(q)))
        iso = find_isomorphism(data.complex, N)
        assert iso is not None
        # the product labels chains of pairs exactly like the nerve
        assert {data.complex.labels[c] for c in data.complex.all_cells()} == \
            {N.labels[c] for c in N.all_cells()}


def test_product_face_words_strip_shared_collapses():
    data = product(standard_simplex(2), standard_simplex(1))
    X = data.complex
    for c in X.all_cells():
        if c[0] == 0:
            continue
        for i, f in enumerate(X.faces[c]):
            sx, sy = data.pairs[c]
            fx, fy = (standard_simplex(2).face(sx, i),
                      standard_simplex(1).face(sy, i))
            # the projected faces agree with projecting the face
            gx, gy = data.pairs[f.base]
            assert set(fx.word) & set(fy.word) == set(f.word)


def test_join_of_simplices_is_a_simplex():
    for p, q in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        J = join(standard_simplex(p), standard_simplex(q))
        J.complex.validate()
        assert find_isomorphism(J.complex, standard_simplex(p + q + 1))


def test_join_contains_both_factors():
    J = join(standard_simplex(1), standard_simplex(2))
    assert J.cell_of((1, 0), None)[0] == 1
    assert J.cell_of(None, (2, 0))[0] == 2
    assert J.cell_of((1, 0), (2, 0))[0] == 4


def test_glue_wedge_of_intervals():
    I1, I2 = standard_simplex(1), standard_simplex(1)
    res = glue([I1, I2], [((0, nondeg(0, 1)), (1, nondeg(0, 0)))])
    res.complex.validate()
    assert res.complex.counts == {0: 3, 1: 2}


def test_glue_collapse_edge_of_triangle():
    # squash the 12 edge of a triangle to a point
    T, pt = standard_simplex(2), point()
    edge = nondeg(*simplex_cell(2, (1, 2)))
    rels = [((0, edge), (1, degenerate(nondeg(0, 0), 0)))]
    res = glue([T, pt], rels)
    Q = res.complex
    Q.validate()
    assert Q.counts == {0: 2, 1: 2, 2: 1}
    res.maps[0].validate()


def _triangle_with_collapsed_edge():
    T, pt = standard_simplex(2), point()
    edge = nondeg(*simplex_cell(2, (1, 2)))
    return glue([T, pt], [((0, edge), (1, degenerate(nondeg(0, 0), 0)))]) \
        .complex


def test_join_with_a_degenerate_face():
    # Q has a face that is a degenerate simplex, so the faces of its
    # joins shift degeneracy words past the other factor
    Q = _triangle_with_collapsed_edge()
    D0, D1 = standard_simplex(0), standard_simplex(1)
    cases = [
        (Q, D1, {0: 4, 1: 7, 2: 7, 3: 4, 4: 1}),
        (D1, Q, {0: 4, 1: 7, 2: 7, 3: 4, 4: 1}),
        (Q, Q, {0: 4, 1: 8, 2: 10, 3: 8, 4: 4, 5: 1}),
        (Q, D0, {0: 3, 1: 4, 2: 3, 3: 1}),
        (D0, Q, {0: 3, 1: 4, 2: 3, 3: 1}),
    ]
    for X, Y, counts in cases:
        J = join(X, Y).complex
        J.validate()
        assert J.counts == counts


def test_quotient_by_vertex_classes_gives_nerve_of_quotient():
    # collapsing {1,2} in [2] leaves just an interval
    T = standard_simplex(2)
    cls = {0: "a", 1: "b", 2: "b"}

    def key(s):
        return tuple(cls[T.labels[v][0]] for v in T.vertices(s))

    res = quotient_by_key(T, key)
    Q = res.complex
    Q.validate()
    assert Q.counts == {0: 2, 1: 1}
    assert find_isomorphism(Q, standard_simplex(1))


def test_quotient_rejects_non_congruence():
    # identifying edges 01 and 12 of a triangle forces 0~1 but their
    # keys differ, so this is not a congruence
    T = standard_simplex(2)
    e01 = simplex_cell(2, (0, 1))
    e12 = simplex_cell(2, (1, 2))

    def key(s):
        if s.base in (e01, e12) and not s.word:
            return "merged"
        return ("id", s)

    with pytest.raises(ValueError):
        quotient_by_key(T, key)


def test_disjoint_union_counts():
    res = disjoint_union([standard_simplex(1), standard_simplex(2)])
    assert res.complex.counts == {0: 5, 1: 4, 2: 1}


def test_json_round_trip():
    P = Poset("abc", [("a", "b"), ("a", "c")])
    for X in [standard_simplex(3), nerve(P)]:
        obj = complex_to_json(X)
        text = json.dumps(obj)
        Y = complex_from_json(json.loads(text))
        assert complexes_equal(X, Y)
        assert complex_to_json(Y) == obj


def test_json_round_trip_frozenset_labels():
    X = standard_simplex(1)
    X.labels[(0, 0)] = frozenset({1, 2})
    X.labels[(1, 0)] = ("a", frozenset({0}))
    obj = complex_to_json(X)
    Y = complex_from_json(json.loads(json.dumps(obj)))
    assert complexes_equal(X, Y)


def test_dot_skeleton_output():
    X = standard_simplex(2)
    text = dot_skeleton(X, marked={(1, 1)})
    assert text.startswith("digraph")
    assert text.count("->") == 3
    assert "penwidth" in text
    # marked takes edge cells; a bare edge index marks nothing
    assert "penwidth" not in dot_skeleton(X, marked={1})


def test_union_find_survives_a_deep_chain():
    # unions in descending order link each root below the previous one,
    # building a 3000-deep chain with nothing compressed yet
    uf = _UnionFind()
    for k in range(2999, 0, -1):
        assert uf.union((0, k), (0, k - 1))
    assert uf.find((0, 2999)) == (0, 0)
    assert all(uf.parent[(0, k)] == (0, 0) for k in range(1, 3000))
    assert not uf.union((0, 1500), (0, 2999))

"""Necklace enumeration against the classical cube formula and the
chain-poset mapping spaces."""

import pytest

from twarrow.core.complex import SimplicialSet, standard_simplex
from twarrow.core.maps import find_isomorphism, simplex_by_chain
from twarrow.core.poset import all_posets, total_order
from twarrow.core.simplex import nondeg
from twarrow.necklace import necklace_oracle
from twarrow.partitions import (
    collapse_both,
    collapse_upper,
    make_partition,
    mapping_space,
    ordered_partitions,
)


def loop_complex():
    return SimplicialSet({0: 1, 1: 1}, {(1, 0): (nondeg(0, 0), nondeg(0, 0))})


def test_cube_formula_triangle():
    M = necklace_oracle(standard_simplex(2), (0, 0), (0, 2))
    M.validate()
    assert find_isomorphism(M, standard_simplex(1)) is not None


def test_cube_formula_tetrahedron():
    M = necklace_oracle(standard_simplex(3), (0, 0), (0, 3))
    M.validate()
    sq = standard_simplex(1)
    from twarrow.core.ops import product
    assert M.counts == {0: 4, 1: 5, 2: 2}
    assert find_isomorphism(M, product(sq, sq).complex) is not None


def test_adjacent_vertices_give_point():
    M = necklace_oracle(standard_simplex(3), (0, 2), (0, 3))
    assert M.counts == {0: 1}


def test_disconnected_endpoints_give_empty_space():
    M = necklace_oracle(standard_simplex(1), (0, 1), (0, 0))
    assert M.counts == {}


def test_loop_necklace_count():
    M = necklace_oracle(loop_complex(), (0, 0), (0, 0), max_steps=2)
    assert M.counts[0] == 3


def test_size_and_dimension_caps():
    with pytest.raises(ValueError, match="dimension 2"):
        necklace_oracle(standard_simplex(2), (0, 0), (0, 2), max_dim=3)
    with pytest.raises(ValueError, match="too large"):
        necklace_oracle(standard_simplex(5), (0, 0), (0, 5))


def test_oracle_matches_quotient_on_small_partitions():
    for size in (1, 2, 3):
        for P in all_posets(size):
            for part in ordered_partitions(P):
                X = mapping_space(part, "two_sided", top_dim=2)
                col = collapse_both(part)
                M = necklace_oracle(col.dec.space, col.base0, col.base1)
                M.validate()
                assert find_isomorphism(X, M) is not None


def test_oracle_matches_quotient_right_mode():
    part = make_partition(total_order(2), {0}, {1, 2})
    X = mapping_space(part, "right", j=0, top_dim=2)
    col = collapse_upper(part)
    v = col.quot(simplex_by_chain(col.quot.source, (0,))).base
    M = necklace_oracle(col.dec.space, v, col.base1)
    assert find_isomorphism(X, M) is not None
    assert M.counts == {0: 2, 1: 1}


def test_oracle_matches_every_five_point_partition():
    # the two-sided space and the right space at every lower vertex of
    # every ordered partition of every five-point poset: 2,240
    # comparisons, about 2 s on a two-core x86 container; budget 30 s
    n = 0
    for P in all_posets(5):
        for part in ordered_partitions(P):
            X = mapping_space(part, "two_sided", top_dim=2)
            col = collapse_both(part)
            M = necklace_oracle(col.dec.space, col.base0, col.base1)
            assert find_isomorphism(X, M) is not None, part
            n += 1
            colu = collapse_upper(part)
            for j in part.lower:
                X = mapping_space(part, "right", j=j, top_dim=2)
                v = colu.quot(simplex_by_chain(colu.quot.source, (j,))).base
                M = necklace_oracle(colu.dec.space, v, colu.base1)
                assert find_isomorphism(X, M) is not None, (part, j)
                n += 1
    assert n == 2240

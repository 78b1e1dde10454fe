"""The named chain-poset maps: formulas, identities, descent, markings."""

import pytest

from twarrow.partitions import (
    boxplus_partition,
    chain_poset,
    q_partition,
    square_partition,
    star_partition,
    truncate_chain,
)
from twarrow.posetmaps import (
    MAP_NAMES,
    cone_to_graph,
    descends,
    graph_poset,
    graph_to_star,
    in_graph,
    interval_poset,
    named_map,
    segment_marked,
    square_to_cone_mirrored,
    square_to_cone_mirrored_bare,
    star_to_graph,
    star_to_q,
)

F = frozenset


def test_interval_poset():
    P = interval_poset(0, 3)
    assert len(P.elements) == 4
    assert P.leq(F({0, 3}), F({0, 1, 2, 3}))
    with pytest.raises(ValueError):
        interval_poset(2, 2)


def test_zeta_examples():
    f = star_to_q(1)
    assert f(F({0, 2})) == F({0, 3})
    assert f(F({0, 1, 2})) == F({0, 1, 2, 3})


def test_zeta_lands_in_target_and_keeps_markings():
    for n in (0, 1, 2):
        for i in range(n + 1):
            r = named_map("zeta", n, i=i)
            assert r.markings_preserved


def test_segment_marked_rule():
    thin = lambda t: max(t) <= 1
    assert not segment_marked(thin, F({0, 2}), F({0, 1, 2}))
    assert segment_marked(thin, F({0, 1, 2}), F({0, 1, 2}))
    assert segment_marked(thin, F({0, 1}), F({0, 1, 2}))


def test_graph_membership():
    assert in_graph(1, F({0, 4}))
    assert in_graph(1, F({0, 1, 2, 3, 4}))
    assert not in_graph(1, F({0, 2, 4}))      # upper run not terminal
    assert not in_graph(1, F({1, 3, 4}))      # mirror of the run missing
    assert not in_graph(1, F({0, 3}))         # no cone point


def test_r_beta_example():
    f = cone_to_graph(1)
    assert f(F({0, 2})) == F({0, 1, 2, 3, 4})
    assert f(F({0, 3})) == F({0, 3, 4})
    assert f(F({0, 4})) == F({0, 4})


def test_b_example():
    f = star_to_q(1)
    assert f(F({0, 2})) == F({0, 3})
    assert f(F({0, 1, 2})) == F({0, 1, 2, 3})


def test_retraction_identities():
    for n in (0, 1, 2):
        star = chain_poset(star_partition(n).part)
        ra, sa = graph_to_star(n), star_to_graph(n)
        assert all(ra(sa(S)) == S for S in star.elements)
        rb = cone_to_graph(n)
        assert all(rb(S) == S for S in graph_poset(n).elements)


def test_h_rho_specializes():
    for n in (0, 1, 2):
        g = named_map("G", n).mapping
        h = named_map("H", n).mapping
        assert named_map("h_rho", n, i=0).mapping == g
        assert named_map("h_rho", n, i=n + 1).mapping == h


def test_h_rho_needs_valid_index():
    with pytest.raises(ValueError, match="index"):
        named_map("h_rho", 1, i=4)
    with pytest.raises(ValueError, match="switch index"):
        named_map("h_rho", 1)
    with pytest.raises(ValueError, match="unknown map"):
        named_map("sigma", 1)


@pytest.mark.parametrize("name, params, key", [
    ("G", {"i": 3}, "i"), ("zeta", {"i": 0, "j": 5}, "j"),
    ("B", {"j": 0}, "j")])
def test_named_map_refuses_a_parameter_its_map_does_not_take(name, params,
                                                              key):
    with pytest.raises(ValueError, match=f"{name} takes no parameter '{key}'"):
        named_map(name, 1, **params)


def test_all_named_maps_descend_and_preserve_markings():
    n = 1
    for name in MAP_NAMES:
        kws = [{}]
        if name == "zeta":
            kws = [{"i": i} for i in range(n + 1)]
        if name == "h_rho":
            kws = [{"i": i} for i in range(n + 2)]
        for kw in kws:
            r = named_map(name, n, **kw)
            assert r.markings_preserved, (name, kw, r.marking_counterexample)
            if r.descent is not None:
                assert r.descent.ok, (name, kw, r.descent.counterexample)


def test_h_rho_output_depends_only_on_truncation_class():
    # exhaustive over single chains, every switch index
    n = 1
    part = square_partition(n).part
    cone = boxplus_partition(n).part
    P = chain_poset(part)
    for i in range(n + 2):
        r = named_map("h_rho", n, i=i)
        by_class = {}
        for S in P.elements:
            key = truncate_chain(part, (S,), "A")
            img = truncate_chain(cone, (r.mapping[S],), "A")
            assert by_class.setdefault(key, img) == img


def test_g_footnote_variant_agrees_on_quotients():
    for n in (0, 1, 2):
        part = square_partition(n).part
        cone = boxplus_partition(n).part
        P = chain_poset(part)
        g = square_to_cone_mirrored(n)
        g_bare = square_to_cone_mirrored_bare(n)
        for S in P.elements:
            for T in P.elements:
                if not S <= T:
                    continue
                flag = (g(S), g(T))
                bare = (g_bare(S), g_bare(T))
                assert truncate_chain(cone, flag, "A") == \
                    truncate_chain(cone, bare, "A")


def test_unreflected_variant_fails_descent():
    # shifting instead of mirroring forgets where the switch happened
    n = 1
    def wrong(S):
        S0 = {s for s in S if s <= n}
        return F(S0) | F(s + n + 1 for s in S0)
    rep = descends(wrong, star_partition(n).part, q_partition(n).part)
    assert not rep.ok
    assert rep.counterexample is not None
    (a, b), (c, d) = rep.counterexample
    src = star_partition(n).part
    assert truncate_chain(src, (a, b), "A") == truncate_chain(src, (c, d), "A")

"""Tests for the decorated simplex zoo and the ladder complexes."""

import hashlib
import itertools

from test_core_calculus import _reference_glue

from twarrow import DIM_CAP
from twarrow.core import (
    Simplex,
    find_isomorphism,
    glue,
    map_by_vertices,
    nerve,
    nondeg,
    opposite,
    simplex_by_chain,
    standard_simplex,
    subcomplex,
    is_closed,
)
from twarrow.decor import preserves_decoration
from twarrow.zoo import (
    band_cells,
    bar_element,
    boxplus_complex,
    boxplus_thin_triangle,
    cone_inclusion,
    cone_object,
    cone_retraction,
    core_cells,
    core_comparison,
    ladder_complex,
    ladder_core_cells,
    ladder_poset,
    ladder_thin_chain,
    ladder_to_prism,
    ladder_shift_full,
    ladder_shift_partial,
    ladder_top_chain,
    mirror,
    mirror_cone_object,
    mirror_join_object,
    prism_complex,
    prism_to_ladder,
    q_complex,
    q_core_cells,
    q_core_dull_family,
    q_core_extended_cells,
    q_diamond,
    q_thin_count,
    q_thin_triangle,
    realize,
    square_complex,
    star_complex,
    summand_cells,
    summand_eps,
    swap_element,
    tau_map,
    tau_subset,
    top_cell_cells,
    prism_vertex_to_ladder,
    wedge_poset,
)
from twarrow.core.poset import Poset
from twarrow.zoo import cosimplicial


def thin_labels(dec):
    return {dec.space.labels[c] for c in dec.thin}


# -- mirrored join -----------------------------------------------------


def test_q_thin_frozen_small():
    assert thin_labels(q_complex(1)) == {(0, 1, 2), (1, 2, 3)}
    assert len(q_complex(2).thin) == 10


def test_q_thin_count_formula():
    for n in range(5):
        assert len(q_complex(n).thin) == q_thin_count(n)


def test_q_thin_mirror_invariant():
    for n in range(4):
        labs = thin_labels(q_complex(n))
        assert {tau_subset(n, t) for t in labs} == labs


def test_tau_map_is_isomorphism():
    for n in (1, 2):
        f = tau_map(n)
        assert f.is_isomorphism()
        src = f.source
        for i in range(src.n_cells(0)):
            (v,) = src.labels[(0, i)]
            img = f.data[(0, i)].base
            assert f.target.labels[img] == (mirror(n, v),)


def test_q_diamond_n1_has_all_faces_thin():
    dec = q_diamond(1)
    assert dec.thin == frozenset(dec.space.cells(2))


def test_q_diamond_n2_frozen():
    want = set(thin_labels(q_complex(2)))
    want |= {(1, 2, 4), (1, 2, 5), (0, 3, 4), (1, 3, 4), (1, 3, 5), (0, 2, 4)}
    assert thin_labels(q_diamond(2)) == want
    assert len(want) == 16


def test_q_core_extended_matches_dull_family():
    for n in (1, 2, 3):
        X = standard_simplex(2 * n + 1)
        for i in range(1, n + 1):
            fam = q_core_dull_family(n, i)
            by_family = {c for c in X.all_cells()
                         if any(not (S & set(X.labels[c])) for S in fam)}
            ext = q_core_extended_cells(n, i)
            assert ext == by_family
            core = q_core_cells(n, i)
            assert core <= ext
            assert is_closed(X, core) and is_closed(X, ext)


# -- cones -------------------------------------------------------------


def test_star_and_boxplus_thin_frozen():
    assert thin_labels(star_complex(2)) == {(0, 1, 2)}
    b0 = boxplus_complex(0)
    assert b0.thin == frozenset(b0.space.cells(2))
    assert thin_labels(boxplus_complex(1)) == {
        (0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (1, 3, 4), (1, 2, 4)}


def test_cone_retraction_section():
    for n in range(3):
        r = cone_retraction(n)
        i = cone_inclusion(n)
        comp = r.compose(i)
        for c in comp.source.all_cells():
            assert comp.data[c] == nondeg(*c)
        assert preserves_decoration(r, boxplus_complex(n), q_complex(n))
        assert preserves_decoration(i, q_complex(n), boxplus_complex(n))


# -- prisms ------------------------------------------------------------


def test_square_variants_thin():
    early, data = square_complex(1, "early")
    late, _ = square_complex(1, "late")
    assert thin_labels(early) == {(((0, 0)), (0, 1), (1, 1))}
    assert thin_labels(late) == {(((0, 0)), (1, 0), (1, 1))}
    early2, _ = square_complex(2, "early")
    late2, _ = square_complex(2, "late")
    assert len(early2.thin) == 4 and len(late2.thin) == 4


def test_square_collapse_scaled_only_early():
    for n in (1, 2):
        early, data = square_complex(n, "early")
        late, _ = square_complex(n, "late")
        f = map_by_vertices(data.complex, standard_simplex(n + 1),
                            lambda lab: lab[0] if lab[1] == 0 else n + 1)
        assert preserves_decoration(f, early, star_complex(n))
        assert not preserves_decoration(f, late, star_complex(n))


# -- cosimplicial realizations -----------------------------------------


def test_realize_over_standard_simplex():
    for n in range(3):
        res = realize(mirror_join_object(), standard_simplex(n))
        assert find_isomorphism(res.complex, standard_simplex(2 * n + 1))
    for n in range(4):
        res = realize(cone_object(), standard_simplex(n))
        assert find_isomorphism(res.complex, standard_simplex(n + 1))
    for n in range(2):
        res = realize(mirror_cone_object(), standard_simplex(n))
        assert find_isomorphism(res.complex, standard_simplex(2 * n + 2))


def test_cosimplicial_positions_and_thin_triples_pinned():
    # the literal tables the twisted arrow, slice and cone-fiber
    # builders used before reading them off the objects
    def mirror_faces(n):
        return tuple((k, 2 * n + 1 - k) for k in range(n + 1))

    def mirror_collapses(n):
        return tuple((j, 2 * n - j) for j in range(n))

    def triples(w, rule):
        return [t for t in itertools.combinations(range(w + 1), 3) if rule(t)]

    for n in range(DIM_CAP + 1):
        mj, co, mc = mirror_join_object(), cone_object(), mirror_cone_object()
        assert (mj.width(n), co.width(n), mc.width(n)) == \
            (2 * n + 1, n + 1, 2 * n + 2)
        if n >= 1:
            assert mj.face_positions(n) == mirror_faces(n)
            assert co.face_positions(n) == tuple((k,) for k in range(n + 1))
            assert mc.face_positions(n) == mirror_faces(n)
        assert mj.collapse_positions(n) == mirror_collapses(n)
        assert co.collapse_positions(n) == tuple((j,) for j in range(n))
        assert mc.collapse_positions(n) == mirror_collapses(n)
        assert mj.thin_triples(n) == triples(
            2 * n + 1, lambda t: q_thin_triangle(n, t))
        assert co.thin_triples(n) == triples(n, lambda t: True)
        assert mc.thin_triples(n) == triples(
            2 * n + 2, lambda t: boxplus_thin_triangle(n, t))


def test_cosimplicial_thin_triples_scale_the_zoo_values():
    for n in range(4):
        for F, dec in ((mirror_join_object(), q_complex(n)),
                       (cone_object(), star_complex(n)),
                       (mirror_cone_object(), boxplus_complex(n))):
            assert dec.space.top_dim == F.width(n)
            assert set(F.thin_triples(n)) == thin_labels(dec)


def test_realize_over_two_points():
    two = nerve(Poset([0, 1]))
    res = realize(mirror_join_object(), two)
    res.complex.validate()
    assert res.complex.counts == {0: 4, 1: 2}


# -- the ladder --------------------------------------------------------


def test_ladder_poset_basics():
    for n in range(3):
        P = ladder_poset(n)
        assert len(P.elements) == 6 * (n + 1)
        for u, v in itertools.combinations(P.elements, 2):
            if P.leq(u, v) or P.leq(v, u):
                assert {u[1], v[1]} != {"aa", "bb"}
            assert P.leq(u, v) == P.leq(bar_element(v), bar_element(u))
            assert P.leq(u, v) == P.leq(swap_element(u), swap_element(v))


def test_ladder_bar_and_swap_maps():
    for n in range(2):
        L = ladder_complex(n)
        bar = map_by_vertices(opposite(L.space), L.space, bar_element)
        swap = map_by_vertices(L.space, L.space, swap_element)
        assert bar.is_isomorphism() and swap.is_isomorphism()
        for c in L.space.cells(2):
            ch = L.space.labels[c]
            assert ladder_thin_chain(ch) == ladder_thin_chain(
                tuple(swap_element(u) for u in ch))
            assert ladder_thin_chain(ch) == ladder_thin_chain(
                tuple(bar_element(u) for u in reversed(ch)))


def test_prism_ladder_roundtrip():
    for n in range(2):
        L = ladder_complex(n)
        pdec, pdata = prism_complex(n)
        mu = prism_to_ladder(n, L, pdata)
        psi = ladder_to_prism(n, L, pdata)
        comp = psi.compose(mu)
        for c in comp.source.all_cells():
            assert comp.data[c] == nondeg(*c)
        assert preserves_decoration(mu, pdec, L.dec)


def test_ladder_shift_maps_scaled_small():
    n = 1
    L = ladder_complex(n)
    for j in range(n + 2):
        f1 = ladder_shift_partial(n, j, L)
        f2 = ladder_shift_full(n, j, L)
        assert preserves_decoration(f1, L.dec, L.dec)
        assert preserves_decoration(f2, L.dec, L.dec)


def test_ladder_top_chains_and_bands():
    for n in range(2):
        L = ladder_complex(n)
        for summand in (1, 2):
            in_summand = summand_cells(L, summand)
            everything = band_cells(n, L, summand, lambda a: True)
            assert everything == in_summand
            for r in range(n + 1):
                for s in range(n + 1):
                    ch = ladder_top_chain(n, r, s, summand)
                    top = simplex_by_chain(L.space, ch)
                    assert top.dim == 2 * n + 3 and not top.is_degenerate
            plus = band_cells(n, L, summand, lambda a: a >= 0)
            minus = band_cells(n, L, summand, lambda a: a <= 0)
            zero = band_cells(n, L, summand, lambda a: a == 0)
            assert plus & minus == zero
            assert core_cells(L, summand) == zero


def _core_cells_reference(L, summand):
    """The core by the all-pairs rule: every two bar-stripped vertices
    of the chain comparable in the square."""
    lo, hi = summand_eps(summand)
    out = set()
    for c in L.space.all_cells():
        chain = L.space.labels[c]
        if not all(e in (lo, hi) for (_, e, _) in chain):
            continue
        stripped = [(ell, 0 if e == lo else 1) for (ell, e, _) in chain]
        if all((u[0] <= v[0] and u[1] <= v[1]) or
               (v[0] <= u[0] and v[1] <= u[1])
               for u, v in itertools.combinations(stripped, 2)):
            out.add(c)
    return out


def test_core_cells_match_the_all_pairs_rule():
    for n in range(3):
        L = ladder_complex(n)
        for summand in (1, 2):
            core = core_cells(L, summand)
            assert core == _core_cells_reference(L, summand)
            # at n = 0 the square is one chain and the core is all of it
            assert core <= summand_cells(L, summand)
            assert (core == summand_cells(L, summand)) == (n == 0)


def _scanned_top_cell_cells(L, chain):
    """The cells whose labels lie in the chain, by a scan of them all."""
    members = set(chain)
    return {c for c in L.space.all_cells()
            if set(L.space.labels[c]) <= members}


def test_top_cell_cells_match_the_scan():
    checked = 0
    for n in range(3):
        L = ladder_complex(n)
        for summand in (1, 2):
            for r in range(n + 1):
                for s in range(n + 1):
                    chain = ladder_top_chain(n, r, s, summand)
                    got = top_cell_cells(L, chain)
                    assert got == _scanned_top_cell_cells(L, chain)
                    assert len(got) == 2 ** len(chain) - 1
                    checked += 1
    assert checked == 28


def test_core_comparison_is_isomorphism():
    for n in range(3):
        f = core_comparison(n)
        assert f.is_isomorphism()


def _reference_core_comparison(n, monkeypatch):
    """``core_comparison`` as it was: each new cell of the realization
    sent where the first member of its class goes, the classes read off
    the reference gluing."""
    L = ladder_complex(n)
    W = nerve(wedge_poset(n))
    wcells = sorted(W.all_cells())
    calls = []

    def recording_glue(pieces, rels):
        calls.append((pieces, list(rels)))
        return glue(*calls[-1])

    with monkeypatch.context() as m:
        m.setattr(cosimplicial, "glue", recording_glue)
        realize(mirror_join_object(), W)
    (pieces, rels), = calls
    _, _, classes = _reference_glue(pieces, rels)
    _, incl = subcomplex(L.space, ladder_core_cells(L))
    of_old = {s.base: c for c, s in incl.items()}

    def piece_map(k):
        chain = W.labels[wcells[k]]
        d = wcells[k][0]

        def rule(v):
            u = chain[v] if v <= d else chain[2 * d + 1 - v]
            return (u[0], u[1], 0 if v <= d else 1)

        return map_by_vertices(pieces[k], L.space, rule)

    fs = [piece_map(k) for k in range(len(wcells))]
    data = {}
    for m, groups in classes.items():
        new = [g for g in groups if not any(s.word for _, s in g)]
        for idx, members in enumerate(new):
            k, s = members[0]
            img = fs[k](s)
            data[(m, idx)] = Simplex(img.word, of_old[img.base])
    return data


def test_core_comparison_matches_the_classes_reference(monkeypatch):
    for n in range(2):
        assert core_comparison(n).data == \
            _reference_core_comparison(n, monkeypatch)
    # the reference gluing at n = 2 closes about 850,000 pairs (12 s), so
    # n = 2 is pinned to what the classes-based loop gave: 1,215 cells,
    # and the sha256 of the sorted items
    data = core_comparison(2).data
    assert len(data) == 1215
    assert hashlib.sha256(repr(sorted(data.items())).encode()).hexdigest() \
        == "db72172dab8c88bca31b781e0083e127ff5d22884e5ae6f08a7554ed541e869f"


def test_ladder_thin_is_minimal_symmetric_closure():
    # the thin triangles are exactly the bar/swap closure of what the two
    # comparison maps force: images of prism thin triangles, and images
    # of the thin triangles of every doubled-chain piece
    for n in range(3):
        forced = set()
        prism_verts = [(q, e) for q in range(2 * n + 2) for e in (0, 1)]
        for v0, v1, v2 in itertools.permutations(prism_verts, 3):
            chain = (v0, v1, v2)
            if any(a[0] > b[0] or a[1] > b[1]
                   for a, b in zip(chain, chain[1:])):
                continue
            qs = tuple(q for q, _ in chain)
            if qs[0] != qs[1] and qs[1] != qs[2]:
                if not q_thin_triangle(n, qs):
                    continue
            img = tuple(prism_vertex_to_ladder(n, v) for v in chain)
            if len(set(img)) == 3:
                forced.add(img)
        WN = nerve(wedge_poset(n))
        for d in range(1, WN.top_dim + 1):
            for cell in WN.cells(d):
                C = WN.labels[cell]
                for a, b, c in itertools.combinations(range(2 * d + 2), 3):
                    if not q_thin_triangle(d, (a, b, c)):
                        continue
                    img = tuple(
                        (C[v][0], C[v][1], 0) if v <= d
                        else (C[2 * d + 1 - v][0], C[2 * d + 1 - v][1], 1)
                        for v in (a, b, c))
                    forced.add(img)
        closure = set(forced)
        frontier = list(closure)
        while frontier:
            ch = frontier.pop()
            for img in (tuple(swap_element(u) for u in ch),
                        tuple(bar_element(u) for u in reversed(ch))):
                if img not in closure:
                    closure.add(img)
                    frontier.append(img)
        P = ladder_poset(n)
        thin = set()
        for u, v, w in itertools.permutations(P.elements, 3):
            if P.leq(u, v) and P.leq(v, w):
                if ladder_thin_chain((u, v, w)):
                    thin.add((u, v, w))
        assert closure == thin

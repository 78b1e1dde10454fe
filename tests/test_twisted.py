"""Twisted arrow complexes, the pair-poset oracle, slices, cone fibers."""

import itertools

import pytest

from twarrow import DIM_CAP, twisted
from twarrow.core.complex import (SimplicialSet, point, simplex_cell,
                                  standard_simplex)
from twarrow.core.maps import SimplicialMap, map_by_vertices, unwrap_label
from twarrow.core.ops import glue, opposite
from twarrow.core.poset import Poset, all_posets, nerve
from twarrow.core.simplex import Simplex, constant_simplex, nondeg
from twarrow.decor import (Decorated, flat, preserves_decoration,
                           push_decoration, sharp)
from twarrow.twisted import (
    WitnessComplex, cone_fiber_complex, cone_fiber_span, retraction_pair,
    slice_outer, slice_projection, tw_comparison, tw_fiber, tw_functor,
    tw_poset, tw_projection, twisted_arrow)
from twarrow.zoo import boxplus_complex, q_complex, star_complex


def chain(n):
    return Poset(range(n + 1), [(i, i + 1) for i in range(n)])


def test_tw_poset_rule():
    T = tw_poset(chain(2))
    assert len(T.elements) == 6
    assert T.leq((0, 2), (1, 1))
    assert not T.leq((1, 1), (0, 2))
    assert len(tw_poset(Poset([0])).elements) == 1


def test_tw_of_point():
    twc = twisted_arrow(sharp(standard_simplex(0)), 3)
    assert twc.space.counts == {0: 1}


def test_tw_of_interval():
    twc = twisted_arrow(sharp(standard_simplex(1)), 3)
    twc.space.validate()
    assert twc.space.counts == {0: 3, 1: 2}
    comp = tw_comparison(chain(1), twc)
    comp.validate()
    assert comp.is_isomorphism()


def test_tw_of_triangle():
    twc = twisted_arrow(sharp(standard_simplex(2)), 3)
    twc.space.validate()
    assert twc.space.n_cells(0) == 6


def test_tw_oracle_small_posets():
    # every poset class with one to five elements
    for P in (P for n in range(1, 6) for P in all_posets(n)):
        twc = twisted_arrow(sharp(nerve(P)), 3)
        comp = tw_comparison(P, twc)
        comp.validate()
        assert comp.is_isomorphism()
        f, pdata, _ = tw_projection(twc)
        lhs1 = pdata.pr1.compose(f.compose(comp))
        rhs1 = map_by_vertices(comp.source, nerve(P), lambda e: e[0])
        assert lhs1.data == rhs1.data
        lhs2 = pdata.pr2.compose(f.compose(comp))
        rhs2 = map_by_vertices(comp.source, opposite(nerve(P)), lambda e: e[1])
        assert lhs2.data == rhs2.data


def test_tw_projection_vertex_targets():
    C = sharp(standard_simplex(2))
    twc = twisted_arrow(C, 2)
    f, pdata, tgt = tw_projection(twc)
    for c in twc.space.cells(0):
        verts = C.space.vertices(twc.witness[c])
        assert pdata.pr1(f(nondeg(*c))).base == verts[0]
        assert pdata.pr2(f(nondeg(*c))).base == verts[-1]
    # product decoration of a sharp input is sharp
    assert len(tgt.thin) == tgt.space.n_cells(2)


def test_tw_marking():
    top = Simplex((), (3, 0))
    sharp_tw = twisted_arrow(sharp(standard_simplex(3)), 1)
    assert sharp_tw.dec.is_marked(nondeg(*sharp_tw.cell_of[top]))
    # with only the two mirror-join triangles thin the edge stays unmarked
    part_tw = twisted_arrow(q_complex(1), 1)
    assert not part_tw.dec.is_marked(nondeg(*part_tw.cell_of[top]))


def test_tw_nerve_edges_all_marked():
    twc = twisted_arrow(sharp(nerve(chain(2))), 2)
    assert set(twc.space.cells(1)) <= set(twc.dec.marked)


def test_tw_functoriality():
    C = sharp(standard_simplex(1))
    D = sharp(standard_simplex(2))
    f = map_by_vertices(C.space, D.space, lambda v: v)
    twC, twD = twisted_arrow(C, 2), twisted_arrow(D, 2)
    F = tw_functor(f, twC, twD)
    F.validate()
    fC, pC, _ = tw_projection(twC)
    fD, pD, _ = tw_projection(twD)
    assert pD.pr1.compose(fD.compose(F)).data == \
        f.compose(pC.pr1.compose(fC)).data


def test_tw_fiber_of_interval_is_point():
    twc = twisted_arrow(sharp(standard_simplex(1)), 2)
    fib, _ = tw_fiber(twc, x=0, y=1)
    assert fib.space.counts == {0: 1}


def test_tw_fiber_formula():
    C = sharp(standard_simplex(2))
    twc = twisted_arrow(C, 2)
    fib, _ = tw_fiber(twc, x=0, y=2)
    from twarrow.core.simplex import constant_simplex
    cx, cy = (0, 0), (0, 2)
    for n in range(3):
        direct = 0
        for c, w in twc.witness.items():
            if c[0] != n:
                continue
            if C.space.restrict(w, range(n + 1)) != constant_simplex(cx, n):
                continue
            if C.space.restrict(w, range(n + 1, 2 * n + 2)) != \
                    constant_simplex(cy, n):
                continue
            direct += 1
        assert fib.space.n_cells(n) == direct


def test_slice_examples():
    s1 = slice_outer(sharp(standard_simplex(1)), 1, 2)
    s1.space.validate()
    assert s1.space.counts == {0: 2, 1: 1}
    assert slice_outer(sharp(standard_simplex(0)), 0, 2).space.counts == {0: 1}
    s2 = slice_outer(sharp(standard_simplex(2)), 2, 2)
    assert s2.space.n_cells(0) == 3
    slice_projection(s2).validate()


def test_cone_fiber_examples():
    m1 = cone_fiber_complex(sharp(standard_simplex(1)), 1, 2)
    m1.space.validate()
    assert m1.space.n_cells(0) == 2
    m0 = cone_fiber_complex(sharp(standard_simplex(0)), 0, 2)
    assert m0.space.counts == {0: 1}
    with pytest.raises(ValueError):
        cone_fiber_complex(sharp(standard_simplex(1)), 7, 2)


def test_cone_fiber_span_legs_commute():
    C = sharp(standard_simplex(2))
    span = cone_fiber_span(C, 2, 2)
    span.rho.validate()
    span.pi.validate()
    # both legs forget to the same restriction of the witness
    lhs = slice_projection(span.outer).compose(span.rho)
    f, pdata, _ = tw_projection(span.tw)
    rhs = pdata.pr1.compose(f.compose(span.fiber_incl.compose(span.pi)))
    assert lhs.data == rhs.data


def test_retraction_pair_small():
    rp = retraction_pair(0)
    assert rp.cone_quot.space.n_cells(0) == 2
    rt = rp.retr.compose(rp.incl)
    assert rt.data == SimplicialMap.identity(rp.mirror_quot.space).data


def test_retraction_pair_scaled_and_split():
    for n in (0, 1):
        rp = retraction_pair(n)
        rp.incl.validate()
        rp.retr.validate()
        assert preserves_decoration(rp.incl, rp.mirror_quot, rp.cone_quot)
        assert preserves_decoration(rp.retr, rp.cone_quot, rp.mirror_quot)
        rt = rp.retr.compose(rp.incl)
        assert rt.data == SimplicialMap.identity(rp.mirror_quot.space).data
        # straightening homotopy has degenerate components
        ir = rp.incl.compose(rp.retr)
        for v in rp.cone_quot.space.cells(0):
            assert ir(nondeg(*v)) == nondeg(*v)


def _reference_collapse_tail(dec, first):
    """``_collapse_tail`` as it was: the face on the positions from
    ``first`` up included from a standard simplex, and the image of that
    inclusion crushed in one gluing."""
    A = standard_simplex(dec.space.top_dim - first)
    inc = map_by_vertices(A, dec.space, lambda v: v + first)
    rels = [((0, constant_simplex((0, 0), c[0])), (1, inc.data[c]))
            for c in A.all_cells()]
    res = glue([point(), dec.space], rels)
    qdec = push_decoration(res, [flat(res.maps[0].source), dec])
    return qdec, res.maps[1]


def test_tail_collapses_match_the_inclusion_ones(monkeypatch):
    for n in range(4):
        got = retraction_pair(n)
        with monkeypatch.context() as m:
            m.setattr(twisted, "_collapse_tail", _reference_collapse_tail)
            ref = retraction_pair(n)
        for a, b in ((got.mirror_quot, ref.mirror_quot),
                     (got.cone_quot, ref.cone_quot)):
            assert (a.space.counts, a.space.faces, a.space.labels) == \
                (b.space.counts, b.space.faces, b.space.labels)
            assert (a.thin, a.marked) == (b.thin, b.marked)
        assert got.incl.data == ref.incl.data
        assert got.retr.data == ref.retr.data


def test_tw_dimension_cap():
    with pytest.raises(ValueError):
        twisted_arrow(sharp(standard_simplex(0)), DIM_CAP + 1)


# -- thin triples read off base cells ----------------------------------


def _reference_build(F, label, src, max_dim, extra_ok=None):
    """``twisted._build`` as it was: each thin triple of each witness
    restricted to a triangle and looked up on its own."""
    space = src.space
    counts, faces, labels = {}, {}, {}
    witness, cell_of = {}, {}
    for n in range(max_dim + 1):
        triples = F.thin_triples(n)
        found = []
        for x in space.simplices(F.width(n)):
            if twisted._collapse_index(F, x, n) is not None:
                continue
            if extra_ok is not None and not extra_ok(n, x):
                continue
            if all(src.is_thin(space.restrict(x, t)) for t in triples):
                found.append(x)
        found.sort()
        if found:
            counts[n] = len(found)
        for i, x in enumerate(found):
            witness[(n, i)] = x
            cell_of[x] = (n, i)
            labels[(n, i)] = label(
                tuple(map(unwrap_label, space.vertex_labels(x))), n)
    if len(set(labels.values())) < len(labels):
        labels = {}
    out = WitnessComplex(Decorated(SimplicialSet(counts, {}, labels)),
                         src, max_dim, witness, cell_of, F)
    for (n, i), x in witness.items():
        if n >= 1:
            faces[(n, i)] = tuple(
                out.normalize(space.face_many(x, ps), n - 1)
                for ps in F.face_positions(n))
    built = SimplicialSet(counts, faces, labels)
    marked = frozenset(
        c for c in built.cells(1)
        if all(src.is_thin(space.restrict(witness[c], t))
               for t in itertools.combinations(range(F.width(1) + 1), 3)))
    out.dec = Decorated(built, marked=marked)
    return out


def _thin_corpus():
    """Sharp and flat nerves of the posets on one to four points, the
    q, star and boxplus complexes for n = 0, 1, and a 3-simplex with two
    of its four triangles thin."""
    for P in (P for n in (1, 2, 3, 4) for P in all_posets(n)):
        yield sharp(nerve(P))
        yield flat(nerve(P))
    for n in (0, 1):
        yield q_complex(n)
        yield star_complex(n)
        yield boxplus_complex(n)
    D = standard_simplex(3)
    yield Decorated(D, thin={simplex_cell(3, (0, 1, 2)),
                             simplex_cell(3, (1, 2, 3))})


def _witness_data(wc):
    X = wc.space
    return (list(wc.witness.items()), X.counts, X.faces, X.labels,
            wc.dec.thin, wc.dec.marked)


def test_thin_triples_per_base_cell_match_the_restrictions(monkeypatch):
    # twisted_arrow and the outer slice at every vertex, each cell and
    # its witness in order
    def builds(src):
        yield lambda: twisted_arrow(src, 3)
        for c in src.space.cells(0):
            y = unwrap_label(src.space.labels[c])
            yield lambda y=y: slice_outer(src, y, 3)

    n = 0
    for src in _thin_corpus():
        for make in builds(src):
            got = _witness_data(make())
            with monkeypatch.context() as m:
                m.setattr(twisted, "_build", _reference_build)
                assert got == _witness_data(make())
            n += 1
    assert n == 246

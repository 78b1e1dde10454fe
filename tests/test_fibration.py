import itertools

import pytest

from twarrow.core import maps
from twarrow.core.complex import point, standard_simplex
from twarrow.core.maps import (SimplicialMap, enumerate_homs, face_index,
                               map_by_vertices)
from twarrow.core.ops import glue
from twarrow.core.poset import all_posets, nerve, total_order
from twarrow.core.simplex import degenerate_word, nondeg
from twarrow import fibration
from twarrow.cli import fibration_report_json
from twarrow.decor import Decorated, flat, sharp
from twarrow.fibration import (
    FibrationReport, LiftingProblem, boundary_inclusion, cartesian_edge,
    cartesian_fibration, horn_inclusion, inner_fibration, iter_lifts,
    marked_supply, solve_lift, trivial_fibration)
from twarrow.twisted import cone_fiber_span, twisted_arrow, tw_projection


def to_point(X):
    pt = point()
    return SimplicialMap(X, pt, {c: degenerate_word(nondeg(0, 0), tuple(range(c[0] - 1, -1, -1)))
                                 for c in X.all_cells()}, check=False)


def horn_square_over_point(n, i, X, top):
    incl = horn_inclusion(n, i)
    p = to_point(X)
    bottom = to_point(incl.target)
    return LiftingProblem(incl, p, top, bottom)


def test_solve_lift_horn_in_simplex():
    D = standard_simplex(2)
    incl = horn_inclusion(2, 1)
    p = SimplicialMap.identity(D)
    prob = LiftingProblem(incl, p, incl, SimplicialMap.identity(D))
    lift = solve_lift(prob)
    assert lift is not None
    assert prob.is_lift(lift)
    assert lift.data[(2, 0)] == nondeg(2, 0)


def test_is_lift_refusals():
    D = standard_simplex(2)
    incl = horn_inclusion(2, 1)
    B = incl.target
    prob = LiftingProblem(incl, SimplicialMap.identity(D), incl,
                          SimplicialMap.identity(D))
    lift = SimplicialMap(B, D, SimplicialMap.identity(D).data)
    const = map_by_vertices(B, D, lambda v: 0)
    assert prob.is_lift(lift)
    assert not prob.is_lift(const)
    # over a point, only the horn's image refuses the constant map
    over_pt = LiftingProblem(incl, to_point(D), incl, to_point(B))
    assert over_pt.is_lift(lift)
    assert not over_pt.is_lift(const)
    # from a copy of B, not B itself
    assert not prob.is_lift(SimplicialMap.identity(standard_simplex(2)))
    # on the horn, but not over the bottom map (not a simplicial map)
    off = dict(lift.data)
    off[(2, 0)] = degenerate_word(nondeg(1, 0), (0,))
    assert not prob.is_lift(SimplicialMap(B, D, off, check=False))


def test_solve_lift_reversed_edge_has_none():
    D = standard_simplex(1)
    incl = boundary_inclusion(1)
    p = to_point(D)
    top = SimplicialMap(incl.source, D,
                        {(0, 0): nondeg(0, 1), (0, 1): nondeg(0, 0)})
    prob = LiftingProblem(incl, p, top, to_point(D))
    assert solve_lift(prob) is None
    assert list(iter_lifts(prob)) == []


def test_solve_lift_unique_in_a_nerve():
    N = nerve(total_order(3))
    incl = horn_inclusion(3, 2)
    top = map_by_vertices(incl.source, N, lambda v: v)
    prob = LiftingProblem(incl, to_point(N), top, to_point(incl.target))
    lifts = list(iter_lifts(prob))
    assert len(lifts) == 1
    assert prob.is_lift(lifts[0])
    assert lifts[0].data[(3, 0)] == nondeg(3, 0)


def test_non_commuting_square_rejected():
    D = standard_simplex(1)
    incl = boundary_inclusion(1)
    top = SimplicialMap(incl.source, D,
                        {(0, 0): nondeg(0, 1), (0, 1): nondeg(0, 0)})
    with pytest.raises(ValueError, match="does not commute"):
        LiftingProblem(incl, SimplicialMap.identity(D), top,
                       SimplicialMap.identity(D))


def test_left_leg_must_be_an_inclusion():
    D = standard_simplex(1)
    ident = SimplicialMap.identity(D)
    ends = boundary_inclusion(1).source
    glued = SimplicialMap(ends, D, {(0, 0): nondeg(0, 0),
                                    (0, 1): nondeg(0, 0)}, check=False)
    with pytest.raises(ValueError, match="two cells to one"):
        LiftingProblem(glued, ident, glued, ident)
    P = point()
    squash = SimplicialMap(D, P, {(0, 0): nondeg(0, 0), (0, 1): nondeg(0, 0),
                                  (1, 0): degenerate_word(nondeg(0, 0), (0,))},
                           check=False)
    with pytest.raises(ValueError, match="degenerate"):
        LiftingProblem(squash, to_point(D), ident, to_point(P))


def test_non_simplicial_top_has_no_lift():
    # vertex 1 goes to vertex 0, the edges around it to the edges of the
    # 2-simplex through vertex 1: the rest of the square has a filler
    D = standard_simplex(2)
    incl = horn_inclusion(2, 1)
    H = incl.source
    data = {}
    for c in H.all_cells():
        lab = H.labels[c]
        data[c] = (nondeg(0, 0) if lab == (1,)
                   else nondeg(*D.cell_with_label(lab)))
    top = SimplicialMap(H, D, data, check=False)
    with pytest.raises(ValueError):
        top.validate()
    prob = LiftingProblem(incl, to_point(D), top, to_point(D))
    assert solve_lift(prob) is None


def test_square_checked_only_on_maximal_cells_is_refused_by_the_search():
    # the top sends the horn's two edges to themselves but its middle
    # vertex to vertex 0: the square commutes on the edges, A's maximal
    # cells, and not at vertex 1, so construction accepts it and the
    # search's up-front check of the fixed cells refuses it
    D = standard_simplex(2)
    incl = horn_inclusion(2, 1)
    H = incl.source
    data = dict(incl.data)
    data[H.cell_with_label((1,))] = nondeg(0, 0)
    top = SimplicialMap(H, D, data, check=False)
    ident = SimplicialMap.identity(D)
    prob = LiftingProblem(incl, ident, top, ident)
    assert ident(top.data[H.cell_with_label((1,))]) != \
        ident.data[D.cell_with_label((1,))]
    assert solve_lift(prob) is None
    assert list(iter_lifts(prob)) == []


def test_inner_fibration_checks_each_horn_inclusion_once():
    p = map_by_vertices(nerve(total_order(2)), nerve(total_order(1)),
                        lambda v: min(v, 1))
    fibration._maximal_cells.cache_clear()
    rep = inner_fibration(p, 3)
    info = fibration._maximal_cells.cache_info()
    # horns (2,1), (3,1) and (3,2), each with squares
    assert rep.ok and rep.squares > 3
    assert (info.misses, info.hits) == (3, rep.squares - 3)


def test_cartesian_fibration_of_tw_of_the_5_simplex_at_depth_3():
    # the paper-scale pin: building tw(Delta^5) at depth 3 took 0.3 s of
    # CPU and the check 0.6 s on a 2-vCPU machine with Python 3.11
    twc = twisted_arrow(sharp(standard_simplex(5)), 3)
    f, _ = tw_projection(twc)
    rep = cartesian_fibration(f, twc.dec, 3)
    assert rep.ok and rep.squares == 4302


def test_fixed_cell_with_unmarked_image_has_no_lift():
    D = standard_simplex(2)
    incl = horn_inclusion(2, 2)
    last = D.cell_with_label((1, 2))
    ident = SimplicialMap.identity(D)
    free = LiftingProblem(incl, ident, incl, ident)
    assert solve_lift(free) is not None
    for dec, lifts in ((sharp(D), 1), (flat(D), 0)):
        prob = LiftingProblem(incl, ident, incl, ident,
                              marked_cells={last}, dec=dec)
        assert len(list(iter_lifts(prob))) == lifts


def exhaustive_lifts(prob):
    """Reference enumeration: try every assignment of the free cells."""
    B, X = prob.incl.target, prob.p.source
    forced = prob.forced()
    cells = sorted(B.all_cells())
    pools = []
    for c in cells:
        if c in forced:
            pools.append([forced[c]])
        else:
            pools.append([s for s in X.simplices(c[0])
                          if prob.p(s) == prob.bottom.data[c]])
    out = []
    for combo in itertools.product(*pools):
        assign = dict(zip(cells, combo))
        ok = all(X.face(assign[c], k) == degenerate_word(assign[f.base], f.word)
                 for c in cells if c[0] >= 1
                 for k, f in enumerate(B.faces[c]))
        if ok:
            out.append(tuple(combo))
    return sorted(out)


def test_backtracking_matches_exhaustive_enumeration():
    N = nerve(total_order(2))
    incl = horn_inclusion(2, 1)
    top = map_by_vertices(incl.source, N, lambda v: v)
    prob = LiftingProblem(incl, to_point(N), top, to_point(incl.target))
    cells = sorted(incl.target.all_cells())
    got = sorted(tuple(f.data[c] for c in cells) for f in iter_lifts(prob))
    assert got == exhaustive_lifts(prob)
    assert len(got) == 1

    # and on an unsolvable problem both find nothing
    H, _ = incl.source, incl.target
    hp = horn_square_over_point(2, 1, H, SimplicialMap.identity(H))
    assert exhaustive_lifts(hp) == []
    assert list(iter_lifts(hp)) == []


def test_inner_fibration_nerve_maps_pass():
    p = map_by_vertices(nerve(total_order(2)), nerve(total_order(1)),
                        lambda v: min(v, 1))
    assert inner_fibration(p, 3).ok
    for P in all_posets(3):
        rep = inner_fibration(to_point(nerve(P)), 3)
        assert rep.ok, P


def test_inner_fibration_horn_over_point_fails():
    H = horn_inclusion(2, 1).source
    rep = inner_fibration(to_point(H), 2)
    assert not rep.ok
    assert rep.counterexample is not None
    assert solve_lift(rep.counterexample) is None


def test_cartesian_edges_of_identity():
    D = standard_simplex(2)
    p = SimplicialMap.identity(D)
    for c in D.cells(1):
        rep = cartesian_edge(p, c, 3)
        assert rep.ok and rep.squares > 0


def test_cartesian_edge_failure_reverifies():
    H = horn_inclusion(2, 1).source
    e = H.cell_with_label((1, 2))
    rep = cartesian_edge(to_point(H), e, 2)
    assert not rep.ok
    assert solve_lift(rep.counterexample) is None


def test_cartesian_edge_unknown_edge():
    p = SimplicialMap.identity(standard_simplex(2))
    with pytest.raises(ValueError, match="unknown edge"):
        cartesian_edge(p, (2, 0), 2)
    with pytest.raises(ValueError, match="unknown edge"):
        cartesian_edge(p, (1, 99), 2)


def test_marked_supply_flat_interval_fails():
    D = standard_simplex(1)
    p = SimplicialMap.identity(D)
    rep = marked_supply(p, flat(D))
    assert not rep.ok
    assert solve_lift(rep.counterexample) is None
    assert marked_supply(p, sharp(D)).ok


def test_marked_supply_plans_its_squares_once():
    twc = twisted_arrow(sharp(standard_simplex(2)), 3)
    f, _ = tw_projection(twc)
    maps._plan.cache_clear()
    rep = marked_supply(f, twc.dec)
    assert rep.ok and rep.squares == 9
    info = maps._plan.cache_info()
    assert (info.misses, info.hits) == (1, 8)


def test_cartesian_fibration_flat_projection_fails_supply():
    D = standard_simplex(1)
    rep = cartesian_fibration(SimplicialMap.identity(D), flat(D), 2)
    assert not rep.ok
    assert "supply" in rep.detail
    assert solve_lift(rep.counterexample) is None


# the bottom of each square over a point: Delta^2 crushed to the vertex
_CRUSHED_TRIANGLE = {
    "0:0": [[], 0, 0], "0:1": [[], 0, 0], "0:2": [[], 0, 0],
    "1:0": [[0], 0, 0], "1:1": [[0], 0, 0], "1:2": [[0], 0, 0],
    "2:0": [[1, 0], 0, 0]}


def _inner_failure():
    H = horn_inclusion(2, 1).source
    return to_point(H), sharp(H)


def _marked_edge_failure():
    D = standard_simplex(1)
    return to_point(D), sharp(D)


def _supply_failure():
    twc = twisted_arrow(sharp(standard_simplex(1)), 2)
    f, _ = tw_projection(twc)
    dec = twc.dec
    return f, Decorated(dec.space, dec.thin, dec.marked - {max(dec.marked)})


@pytest.mark.parametrize("case, squares, detail, counterexample", [
    pytest.param(
        _inner_failure, 4,
        "inner fibration fails: unfillable square against the (2,1) horn",
        {"top": {"0:0": [[], 0, 0], "0:1": [[], 0, 1], "0:2": [[], 0, 2],
                 "1:0": [[], 1, 0], "1:1": [[], 1, 1]},
         "bottom": _CRUSHED_TRIANGLE, "marked_cells": []},
        id="inner"),
    pytest.param(
        _marked_edge_failure, 6,
        "marked edge Simplex(word=(), base=(1, 0)) fails the (2,2) horn test",
        {"top": {"0:0": [[], 0, 1], "0:1": [[], 0, 0], "0:2": [[], 0, 1],
                 "1:0": [[0], 0, 1], "1:1": [[], 1, 0]},
         "bottom": _CRUSHED_TRIANGLE, "marked_cells": []},
        id="marked-edge"),
    pytest.param(
        _supply_failure, 9,
        "marked supply fails: no marked edge over (1, 2) ending at (0, 2)",
        {"top": {"0:0": [[], 0, 2]},
         "bottom": {"0:0": [[], 0, 1], "0:1": [[], 0, 3],
                    "1:0": [[], 1, 2]},
         "marked_cells": [[1, 0]]},
        id="supply"),
])
def test_cartesian_fibration_failure_reports(case, squares, detail,
                                             counterexample):
    """One failure per stage, pinned as the report file gives it; each
    square count includes the squares of the stages before."""
    p, dec = case()
    assert fibration_report_json(cartesian_fibration(p, dec, 2)) == {
        "property": "cartesian-fibration", "max_dim": 2, "ok": False,
        "squares": squares, "detail": detail,
        "counterexample": counterexample}


def test_inclusions_are_built_once_and_checks_repeat():
    """The horn and boundary inclusions are shared, the supply squares
    are against the (1,1) horn, and a second check in one process
    reports what the first did."""
    assert horn_inclusion(2, 1) is horn_inclusion(2, 1)
    assert boundary_inclusion(2) is boundary_inclusion(2)
    p, dec = _supply_failure()
    first, again = (cartesian_fibration(p, dec, 2) for _ in range(2))
    assert first.counterexample.incl is horn_inclusion(1, 1)
    assert fibration_report_json(again) == fibration_report_json(first)
    q = to_point(standard_simplex(1))
    first, again = (trivial_fibration(q, 1) for _ in range(2))
    assert not first.ok
    assert fibration_report_json(again) == fibration_report_json(first)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_twisted_arrow_projection_is_cartesian(n):
    twc = twisted_arrow(sharp(standard_simplex(n)), 3)
    f, _ = tw_projection(twc)
    rep = cartesian_fibration(f, twc.dec, 3)
    assert rep.ok, rep.detail
    # and each marked edge individually
    for c in sorted(twc.dec.marked):
        assert cartesian_edge(f, c, 3).ok


def test_trivial_fibration_identity_and_reversal():
    D = standard_simplex(2)
    assert trivial_fibration(SimplicialMap.identity(D), 2).ok
    rep = trivial_fibration(to_point(standard_simplex(1)), 1)
    assert not rep.ok
    assert "dimension 1" in rep.detail
    assert solve_lift(rep.counterexample) is None


def test_trivial_fibration_of_cone_fiber_projection():
    span = cone_fiber_span(sharp(standard_simplex(1)), 1, 2)
    rep = trivial_fibration(span.pi, 2)
    assert rep.ok, rep.detail


def test_dimension_cap_respected():
    D = standard_simplex(1)
    with pytest.raises(ValueError, match="dimension cap"):
        inner_fibration(SimplicialMap.identity(D), 99)


def test_report_truthiness():
    D = standard_simplex(1)
    assert trivial_fibration(SimplicialMap.identity(D), 1)
    assert not trivial_fibration(to_point(D), 1)
    assert isinstance(inner_fibration(SimplicialMap.identity(D), 2),
                      FibrationReport)


def _reference_supply(p, dec):
    """``marked_supply`` as it was: each square decided by a scan of X's
    nondegenerate edges, its lifting problem built only on a failure."""
    X, Y = p.source, p.target
    edges = [s for s in X.simplices(1) if not s.is_degenerate]
    squares = 0
    for ce in sorted(Y.cells(1)):
        ey = nondeg(*ce)
        vy = Y.face(ey, 0)
        for cx in sorted(X.cells(0)):
            x = nondeg(*cx)
            if p(x) != vy:
                continue
            squares += 1
            if any(p(s) == ey and X.face(s, 0) == x and dec.is_marked(s)
                   for s in edges):
                continue
            prob = fibration._supply_problem(p, dec, ey, x)
            return FibrationReport(
                "marked-supply", 1, False, prob, squares,
                f"no marked edge over {ce} ending at {cx}")
    return FibrationReport("marked-supply", 1, True, None, squares)


def _report_data(rep):
    prob = rep.counterexample
    square = None if prob is None else (
        list(prob.top.data.items()), list(prob.bottom.data.items()),
        sorted(prob.marked_cells))
    return rep.prop, rep.max_dim, rep.ok, rep.squares, rep.detail, square


def _supply_cases():
    """(p, decoration, whether supply holds)."""
    for n in (0, 1, 2):
        twc = twisted_arrow(sharp(standard_simplex(n)), 3)
        f, _ = tw_projection(twc)
        yield f, twc.dec, True
        if n:
            # without its last marked edge the supply fails part way
            last = max(twc.dec.marked)
            yield f, Decorated(twc.dec.space, twc.dec.thin,
                               twc.dec.marked - {last}), False
    D = standard_simplex(1)
    yield SimplicialMap.identity(D), sharp(D), True
    yield SimplicialMap.identity(D), flat(D), False


def test_supply_verdicts_match_the_edge_scan():
    """``marked_supply`` agrees with the edge scan, and so does the
    supply stage of ``cartesian_fibration``: its squares follow the
    inner-horn and marked-edge squares, counted by ``inner_fibration``
    and ``cartesian_edge``, and a failure there carries the scan's
    counterexample and detail after the stage prefix."""
    for p, dec, ok in _supply_cases():
        got = marked_supply(p, dec)
        ref = _reference_supply(p, dec)
        assert got.ok == ok
        assert _report_data(got) == _report_data(ref)
        if not ok:
            assert solve_lift(got.counterexample) is None
        before = [inner_fibration(p, 3)] + [
            cartesian_edge(p, nondeg(*c), 3) for c in sorted(dec.marked)]
        assert all(before)
        want = FibrationReport(
            "cartesian-fibration", 3, ok, ref.counterexample,
            sum(r.squares for r in before) + ref.squares,
            "" if ok else "marked supply fails: " + ref.detail)
        assert _report_data(cartesian_fibration(p, dec, 3)) == \
            _report_data(want)


def _restricted_bottom_map(D, Y, s):
    """The bottom as it was built before: every cell of the standard
    simplex D cut out of s by its vertex tuple."""
    data = {c: Y.restrict(s, D.labels[c]) for c in D.all_cells()}
    return SimplicialMap(D, Y, data, check=False)


def test_bottom_maps_match_restriction_on_every_square(monkeypatch):
    """Every square the checks above build gets the bottom that
    restriction gives, cell by cell and in the same order."""
    built = fibration._bottom_map
    seen = []

    def checked(D, Y, s):
        got = built(D, Y, s)
        ref = _restricted_bottom_map(D, Y, s)
        assert list(got.data.items()) == list(ref.data.items())
        seen.append(s)
        return got
    monkeypatch.setattr(fibration, "_bottom_map", checked)

    p = map_by_vertices(nerve(total_order(2)), nerve(total_order(1)),
                        lambda v: min(v, 1))
    inner_fibration(p, 3)
    for P in all_posets(3):
        inner_fibration(to_point(nerve(P)), 3)
    H = horn_inclusion(2, 1).source
    inner_fibration(to_point(H), 2)
    cartesian_edge(to_point(H), H.cell_with_label((1, 2)), 2)
    D2 = standard_simplex(2)
    for c in D2.cells(1):
        cartesian_edge(SimplicialMap.identity(D2), c, 3)
    trivial_fibration(SimplicialMap.identity(D2), 2)
    D1 = standard_simplex(1)
    for dec in (flat(D1), sharp(D1)):
        marked_supply(SimplicialMap.identity(D1), dec)
    cartesian_fibration(SimplicialMap.identity(D1), flat(D1), 2)
    trivial_fibration(to_point(D1), 1)
    for n in (0, 1, 2):
        twc = twisted_arrow(sharp(standard_simplex(n)), 3)
        f, _ = tw_projection(twc)
        cartesian_fibration(f, twc.dec, 3)
        for c in sorted(twc.dec.marked):
            cartesian_edge(f, c, 3)
    trivial_fibration(cone_fiber_span(sharp(D1), 1, 2).pi, 2)
    assert len(seen) == 435


def test_squares_gather_bottoms_from_several_face_keys():
    # two triangles glued along 01 and 12 share d0 and d2 but not d1, so
    # the (2, 1) horn's key gathers bottoms from two face-index entries
    D = standard_simplex(2)
    e01, e12 = (nondeg(*D.cell_with_label(e)) for e in ((0, 1), (1, 2)))
    Y = glue([D, D], [((0, e01), (1, e01)), ((0, e12), (1, e12))]).complex
    keys = [(f[0], f[2]) for f in face_index(Y, 2)]
    assert len(keys) > len(set(keys))
    p = SimplicialMap.identity(Y)
    rep = inner_fibration(p, 2)
    assert rep.ok and rep.squares == 13
    incl = horn_inclusion(2, 1)
    back = {s.base: a for a, s in incl.data.items()}
    facets = [back[D.face(nondeg(2, 0), k).base] for k in (0, 2)]
    tops = list(enumerate_homs(incl.source, Y))
    got = [prob.bottom.data[(2, 0)]
           for prob in fibration._squares(p, incl)(tops)]
    want = [s for top in tops for s in Y.simplices(2)
            if [Y.face(s, 0), Y.face(s, 2)] == [top.data[a] for a in facets]]
    assert got == want and len(got) == 13

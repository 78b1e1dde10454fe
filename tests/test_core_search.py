"""The face-indexed search kernel against the searches it replaced.

``_reference_enumerate_homs``, ``_reference_find_isomorphism``,
``_reference_iter_lifts`` and ``_reference_squares`` are the earlier
bodies of ``enumerate_homs``, ``find_isomorphism``, ``iter_lifts`` and
``fibration._squares``: each scans the whole pool of target simplices
for every cell and checks the faces of each candidate.  The kernel must
give the same maps in the same order, the same first isomorphism and
the same lifting problems.

``_reference_search`` is the kernel before forward checking: it assigns
every vertex before any edge is tried, and it searches every cell,
fixed or not.  Run under it, ``enumerate_homs`` and ``find_isomorphism``
must give what they give under the forward-checked kernel, in the same
order.  ``_reference_kernel_lifts`` is ``iter_lifts`` as it was before
the kernel took fixed cells: it searches the cells the top map fixes
too, through ``allowed``, on ``_reference_search``.  The lifts must come
out the same, in the same order.
"""

import itertools
import random

import pytest

from twarrow import DIM_CAP
from twarrow.core import maps
from twarrow.core.complex import SimplicialSet, point, standard_simplex
from twarrow.core.maps import (SimplicialMap, enumerate_homs,
                               find_isomorphism, map_by_vertices,
                               simplex_by_chain)
from twarrow.core.poset import Poset, all_posets, nerve, total_order
from twarrow.core.simplex import Simplex, degenerate_word, nondeg
from twarrow.decor import flat, sharp
from twarrow.fibration import (
    LiftingProblem, _bottom_map, _facet_cells, _squares, _supply_problem,
    boundary_inclusion, cartesian_edge, cartesian_fibration, horn_inclusion,
    inner_fibration, iter_lifts, marked_supply, solve_lift, trivial_fibration)
from twarrow.necklace import necklace_oracle
from twarrow.partitions import collapse_upper, make_partition, mapping_space
from twarrow.twisted import cone_fiber_span, twisted_arrow, tw_projection

# -- the scanning searches ---------------------------------------------


def _reference_enumerate_homs(A, X, limit=None):
    cells = sorted(A.all_cells())
    pools = {d: list(X.simplices(d)) for d in A.counts}
    out = []

    def fits(partial, c, cand):
        for i, f in enumerate(A.faces[c]):
            want = degenerate_word(partial[f.base], f.word)
            if X.face(cand, i) != want:
                return False
        return True

    def rec(k, partial):
        if limit is not None and len(out) >= limit:
            return
        if k == len(cells):
            out.append(SimplicialMap(A, X, dict(partial), check=False))
            return
        c = cells[k]
        for cand in pools[c[0]]:
            if c[0] == 0 or fits(partial, c, cand):
                partial[c] = cand
                rec(k + 1, partial)
                del partial[c]

    rec(0, {})
    return out


def _reference_find_isomorphism(X, Y):
    if X.counts != Y.counts:
        return None
    cells = sorted(X.all_cells())

    def rec(k, assign, used):
        if k == len(cells):
            return dict(assign)
        c = cells[k]
        d = c[0]
        for j in range(Y.n_cells(d)):
            t = (d, j)
            if t in used:
                continue
            if d >= 1:
                ok = True
                for i, f in enumerate(X.faces[c]):
                    want = degenerate_word(assign[f.base], f.word)
                    if Y.face(nondeg(d, j), i) != want:
                        ok = False
                        break
                if not ok:
                    continue
            assign[c] = nondeg(d, j)
            used.add(t)
            res = rec(k + 1, assign, used)
            if res is not None:
                return res
            del assign[c]
            used.remove(t)
        return None

    data = rec(0, {}, set())
    if data is None:
        return None
    return SimplicialMap(X, Y, data, check=False)


def _reference_iter_lifts(prob):
    B, X = prob.incl.target, prob.p.source
    forced = prob.forced()
    cells = sorted(B.all_cells())
    pools = {d: list(X.simplices(d)) for d in {c[0] for c in cells}}

    def candidates(c, assign):
        opts = [forced[c]] if c in forced else pools[c[0]]
        want = prob.bottom.data[c]
        need_mark = c in prob.marked_cells
        for s in opts:
            if prob.p(s) != want:
                continue
            if need_mark and not prob.dec.is_marked(s):
                continue
            if c[0] >= 1 and any(
                    X.face(s, k) != degenerate_word(assign[f.base], f.word)
                    for k, f in enumerate(B.faces[c])):
                continue
            yield s

    frontier = []
    for k in range(len(cells)):
        seen = set(cells[:k])
        used = {f.base for c in cells[k:] if c[0] >= 1 for f in B.faces[c]}
        frontier.append(tuple(sorted(used & seen)))

    dead = set()

    def rec(k, assign):
        if k == len(cells):
            yield SimplicialMap(B, X, dict(assign), check=False)
            return
        key = (k, tuple(assign[c] for c in frontier[k]))
        if key in dead:
            return
        c = cells[k]
        hit = False
        for s in candidates(c, assign):
            assign[c] = s
            for lift in rec(k + 1, assign):
                hit = True
                yield lift
            del assign[c]
        if not hit:
            dead.add(key)

    yield from rec(0, {})


def _reference_squares(p, incl, tops):
    D, Y = incl.target, p.target
    n = D.top_dim
    fc = _facet_cells(incl)
    index = {}
    for s in Y.simplices(n):
        index.setdefault(tuple(Y.face(s, k) for k, _ in fc), []).append(s)
    for top in tops:
        key = tuple(p(top.data[a]) for _, a in fc)
        for s in index.get(key, []):
            yield LiftingProblem(incl, p, top, _bottom_map(D, Y, s))


# -- the kernel before forward checking --------------------------------


def _reference_search(A, index, allowed=None, injective=False, memo=False):
    """The kernel as it was: the same visiting order, candidates,
    ``allowed`` and ``injective``, with no look-ahead, and with the
    dead-subtree memo the kernel has since dropped.  Like the kernel, it
    yields a new dict per map, which the map then keeps."""
    cells = sorted(A.all_cells())
    n = len(cells)
    frontier = _reference_frontiers(A, cells) if memo else None
    assign: dict = {}
    used: set = set()
    dead: set = set()
    found = 0
    # one frame per open level: candidates left, memo key, hits at entry
    frames: list = []
    k = 0
    while True:
        if k == n:
            found += 1
            yield dict(assign)
        else:
            key = None
            if memo:
                key = (k, tuple(assign[c] for c in frontier[k]))
            if key is None or key not in dead:
                c = cells[k]
                want = tuple(degenerate_word(assign[f.base], f.word)
                             for f in A.faces.get(c, ()))
                cands = index[c[0]].get(want, ())
                if allowed is not None:
                    cands = [s for s in cands if allowed(c, s)]
                frames.append((iter(cands), key, found))
        # move the deepest open level on to its next candidate
        while frames:
            k = len(frames) - 1
            c = cells[k]
            if injective and c in assign:
                used.discard(assign[c])
            cands, key, before = frames[-1]
            for s in cands:
                if not (injective and s in used):
                    break
            else:
                frames.pop()
                assign.pop(c, None)
                if memo and found == before:
                    dead.add(key)
                continue
            assign[c] = s
            if injective:
                used.add(s)
            k += 1
            break
        else:
            return


def _reference_frontiers(A, cells):
    """For each position k, the cells before k that faces of the cells
    from k on use, in order."""
    last: dict = {}
    for k, c in enumerate(cells):
        for f in A.faces.get(c, ()):
            last[f.base] = k
    out, live = [], []
    for k, c in enumerate(cells):
        live = [e for e in live if last[e] >= k]
        out.append(tuple(live))
        if last.get(c, -1) > k:
            live.append(c)
    return out


def _reference_kernel_lifts(prob):
    """``iter_lifts`` before fixed cells, on ``_reference_search``."""
    B, X = prob.incl.target, prob.p.source
    forced = prob.forced()
    bottom = prob.bottom.data

    def allowed(c, s):
        if c in forced and s != forced[c]:
            return False
        if prob.p(s) != bottom[c]:
            return False
        return c not in prob.marked_cells or prob.dec.is_marked(s)

    index = {d: maps.face_index(X, d) for d in B.counts}
    for assign in _reference_search(B, index, allowed, memo=True):
        yield SimplicialMap(B, X, assign, check=False)


@pytest.fixture
def on_reference_search(monkeypatch):
    """Call a function with ``enumerate_homs`` and ``find_isomorphism``
    switched to ``_reference_search``."""
    def call(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(maps, "search", _reference_search)
            return fn(*args)
    return call


def _maps(fs):
    """Maps as comparable data, the order of their cells included."""
    return [list(f.data.items()) for f in fs]


# -- inputs ------------------------------------------------------------


def _inclusions(max_dim):
    for n in range(max_dim + 1):
        yield f"boundary({n})", boundary_inclusion(n)
        for i in range(n + 1):
            if n >= 1:
                yield f"horn({n},{i})", horn_inclusion(n, i)


def _tw_space(d):
    return twisted_arrow(sharp(standard_simplex(d)), 3).dec.space


def _renumbered(X, rng):
    """X with the cells of each dimension listed in a random order."""
    perm = {}
    for d, n in X.counts.items():
        order = list(range(n))
        rng.shuffle(order)
        for new, old in enumerate(order):
            perm[(d, old)] = (d, new)
    faces = {perm[c]: tuple(Simplex(f.word, perm[f.base]) for f in fs)
             for c, fs in X.faces.items()}
    labels = {perm[c]: lab for c, lab in X.labels.items()}
    return SimplicialSet(X.counts, faces, labels)


def to_point(X):
    return SimplicialMap(X, point(), {
        c: degenerate_word(nondeg(0, 0), tuple(range(c[0] - 1, -1, -1)))
        for c in X.all_cells()}, check=False)


# -- enumerate_homs ----------------------------------------------------


@pytest.mark.parametrize("d", [0, 1, 2])
def test_homs_into_tw_simplices_match_the_scan(d):
    X = _tw_space(d)
    for name, incl in _inclusions(4):
        A = incl.source
        assert _maps(enumerate_homs(A, X)) == \
            _maps(_reference_enumerate_homs(A, X)), name


def test_homs_into_four_point_nerves_match_the_scan():
    for P in all_posets(4):
        X = nerve(P)
        for name, incl in _inclusions(4):
            A = incl.source
            assert _maps(enumerate_homs(A, X)) == \
                _maps(_reference_enumerate_homs(A, X)), (name, P)


def test_hom_limit_matches_the_scan():
    A, X = horn_inclusion(3, 1).source, _tw_space(2)
    for limit in (0, 1, 5, 17):
        got = enumerate_homs(A, X, limit=limit)
        assert len(got) == limit
        assert _maps(got) == _maps(_reference_enumerate_homs(A, X, limit))


# -- find_isomorphism --------------------------------------------------


def _iso_inputs():
    yield standard_simplex(3)
    yield _tw_space(2)
    for P in all_posets(4)[::3]:
        yield nerve(P)
    part = make_partition(total_order(3), [0, 1], [2, 3])
    yield mapping_space(part, "two_sided", top_dim=2)
    yield mapping_space(part, "right", j=0, top_dim=2)


def test_first_isomorphism_matches_the_scan_after_renumbering():
    rng = random.Random(5)
    for X in _iso_inputs():
        for _ in range(3):
            Y = _renumbered(X, rng)
            got = find_isomorphism(X, Y)
            ref = _reference_find_isomorphism(X, Y)
            assert got is not None and got.is_isomorphism()
            got.validate()
            assert list(got.data.items()) == list(ref.data.items())


def test_isomorphism_search_leaves_the_plan_cache_alone():
    X = nerve(Poset("abc", [("a", "b"), ("a", "c")]))
    enumerate_homs(standard_simplex(1), X)
    before = maps._plan.cache_info()
    assert find_isomorphism(X, _renumbered(X, random.Random(3))) is not None
    assert maps._plan.cache_info() == before


def test_isomorphism_needs_equal_counts():
    assert find_isomorphism(standard_simplex(1), standard_simplex(2)) is None


def test_non_isomorphic_pair_with_equal_counts():
    by_counts = {}
    for P in all_posets(4):
        N = nerve(P)
        by_counts.setdefault(tuple(sorted(N.counts.items())), []).append(N)
    pairs = [(X, Y) for group in by_counts.values()
             for X, Y in itertools.combinations(group, 2)]
    assert pairs
    rng = random.Random(9)
    for X, Y in pairs:
        Y = _renumbered(Y, rng)
        assert X.counts == Y.counts
        assert find_isomorphism(X, Y) is None
        assert _reference_find_isomorphism(X, Y) is None


# -- iter_lifts and the squares ----------------------------------------


def _explicit_problems():
    D = standard_simplex(2)
    incl = horn_inclusion(2, 1)
    yield LiftingProblem(incl, SimplicialMap.identity(D), incl,
                         SimplicialMap.identity(D))
    D1 = standard_simplex(1)
    b = boundary_inclusion(1)
    top = SimplicialMap(b.source, D1,
                        {(0, 0): nondeg(0, 1), (0, 1): nondeg(0, 0)})
    yield LiftingProblem(b, to_point(D1), top, to_point(D1))
    N = nerve(total_order(3))
    h = horn_inclusion(3, 2)
    yield LiftingProblem(h, to_point(N), map_by_vertices(h.source, N,
                                                         lambda v: v),
                         to_point(h.target))
    N2 = nerve(total_order(2))
    yield LiftingProblem(incl, to_point(N2),
                         map_by_vertices(incl.source, N2, lambda v: v),
                         to_point(incl.target))
    H = incl.source
    yield LiftingProblem(incl, to_point(H), SimplicialMap.identity(H),
                         to_point(incl.target))


def _checked_maps():
    """The maps whose squares the fibration tests decide, with the
    inclusions they are tested against."""
    p = map_by_vertices(nerve(total_order(2)), nerve(total_order(1)),
                        lambda v: min(v, 1))
    inner = [horn_inclusion(n, i) for n in (2, 3) for i in range(1, n)]
    right = [horn_inclusion(n, n) for n in (2, 3)]
    yield p, inner
    for P in all_posets(3):
        yield to_point(nerve(P)), inner
    yield to_point(horn_inclusion(2, 1).source), inner[:1] + right[:1]
    yield SimplicialMap.identity(standard_simplex(2)), right
    for n in (0, 1, 2):
        twc = twisted_arrow(sharp(standard_simplex(n)), 3)
        yield tw_projection(twc)[0], inner + right
    yield SimplicialMap.identity(standard_simplex(2)), \
        [boundary_inclusion(n) for n in range(3)]
    yield to_point(standard_simplex(1)), \
        [boundary_inclusion(n) for n in range(2)]
    yield cone_fiber_span(sharp(standard_simplex(1)), 1, 2).pi, \
        [boundary_inclusion(n) for n in range(3)]


def _fibration_test_problems():
    yield from _explicit_problems()
    for p, incls in _checked_maps():
        for incl in incls:
            tops = enumerate_homs(incl.source, p.source)
            got = list(_squares(p, incl)(tops))
            ref = list(_reference_squares(p, incl, tops))
            assert [(q.top.data, q.bottom.data) for q in got] == \
                [(q.top.data, q.bottom.data) for q in ref]
            yield from got
    D = standard_simplex(1)
    yield marked_supply(SimplicialMap.identity(D), flat(D)).counterexample
    yield cartesian_fibration(SimplicialMap.identity(D), flat(D),
                              2).counterexample
    for rep in (inner_fibration(to_point(horn_inclusion(2, 1).source), 2),
                cartesian_edge(to_point(horn_inclusion(2, 1).source),
                               horn_inclusion(2, 1).source.cell_with_label(
                                   (1, 2)), 2),
                trivial_fibration(to_point(D), 1)):
        yield rep.counterexample


def test_lifts_match_the_scan_on_the_fibration_test_problems():
    n = solved = 0
    for prob in _fibration_test_problems():
        got = _maps(iter_lifts(prob))
        assert got == _maps(_reference_iter_lifts(prob))
        n += 1
        solved += bool(got)
    # the counterexamples and a reversed edge have no lift
    assert n > 400 and 0 < solved < n


# -- deep inputs -------------------------------------------------------


def test_homs_from_a_deep_simplex_to_a_point():
    homs = enumerate_homs(standard_simplex(10), point())
    assert len(homs) == 1
    homs[0].validate()


def test_isomorphism_of_deep_simplices():
    iso = find_isomorphism(standard_simplex(10), standard_simplex(10))
    assert iso is not None and iso.is_isomorphism()
    assert iso.data == SimplicialMap.identity(standard_simplex(10)).data


def test_lift_against_a_deep_boundary():
    incl = boundary_inclusion(10)
    pt = point()
    prob = LiftingProblem(incl, SimplicialMap.identity(pt),
                          to_point(incl.source), to_point(incl.target))
    lift = solve_lift(prob)
    assert lift is not None and prob.is_lift(lift)


def test_lifting_plans_leave_at_most_two_free_cells():
    """Every inclusion the fibration checks lift against leaves the
    search two free cells or fewer once the top map fixes its image, so
    a failed level is never met again under the same images."""
    D = standard_simplex(1)
    supply = _supply_problem(SimplicialMap.identity(D), sharp(D),
                             nondeg(1, 0), nondeg(0, 1)).incl
    incls = [horn_inclusion(n, i)
             for n in range(1, DIM_CAP + 1) for i in range(n + 1)]
    incls += [boundary_inclusion(n) for n in range(DIM_CAP + 1)]
    for incl in incls + [supply]:
        fixed = frozenset(s.base for s in incl.data.values())
        _, _, _, _, free, _ = maps._plan(incl.target, fixed)
        assert len(free) <= 2, incl.source


def test_fixed_cells_must_be_closed_under_faces():
    D = standard_simplex(1)
    index = {d: maps.face_index(D, d) for d in D.counts}
    with pytest.raises(ValueError, match="not fixed"):
        list(maps.search(D, index, fixed={(1, 0): nondeg(1, 0)}))
    with pytest.raises(ValueError, match="not cells"):
        list(maps.search(D, index, fixed={(2, 0): nondeg(2, 0)}))


# -- forward checking keeps the order ----------------------------------


def _heavy_right_mode_pairs():
    """The right-mode mapping spaces of the 5-element chain and of the
    chain whose top two elements are incomparable, each with its
    necklace model."""
    chain = total_order(4)
    fork = Poset(list(range(5)), [
        p for p in itertools.combinations(range(5), 2) if p != (3, 4)])
    for P in (chain, fork):
        for r in range(1, len(P.elements)):
            for lo in itertools.combinations(P.elements, r):
                hi = [e for e in P.elements if e not in lo]
                try:
                    part = make_partition(P, lo, hi)
                except ValueError:
                    continue
                col = collapse_upper(part)
                for j in sorted(part.lower, key=str):
                    X = mapping_space(part, "right", j=j, top_dim=2)
                    v = col.quot(simplex_by_chain(col.quot.source, (j,))).base
                    yield X, necklace_oracle(col.dec.space, v, col.base1)


def test_first_isomorphism_of_heavy_right_mode_spaces_keeps_its_order(
        on_reference_search):
    n = 0
    for X, M in _heavy_right_mode_pairs():
        got = find_isomorphism(X, M)
        ref = on_reference_search(find_isomorphism, X, M)
        assert got is not None and got.is_isomorphism()
        assert list(got.data.items()) == list(ref.data.items())
        n += 1
    assert n == 24


def test_homs_into_tw_of_the_3_simplex_keep_their_order(on_reference_search):
    X = _tw_space(3)
    for name, incl in _inclusions(3):
        A = incl.source
        got = _maps(enumerate_homs(A, X))
        assert got, name
        assert got == _maps(on_reference_search(enumerate_homs, A, X)), name


def test_memo_lifts_keep_their_order():
    n = 0
    for prob in _fibration_test_problems():
        got = _maps(iter_lifts(prob))
        assert got == _maps(_reference_kernel_lifts(prob))
        n += 1
    assert n == 478

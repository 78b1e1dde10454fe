"""The simplex calculus on nondegenerate cells against the bodies it
replaced.

``_reference_face``, ``_reference_product`` and ``_reference_glue`` are
the earlier ``SimplicialSet.face``, ``product`` and ``glue``: the face
recursed through the word one letter at a time, the product listed
every simplex pair, and the gluing made a union-find member of every
simplex of every piece up to the cap, closed under faces and
degeneracies.  ``_reference_quotient`` is the earlier
``quotient_by_key`` on top of it, ``_reference_collapse`` the earlier
``collapse_to_point`` as one ``glue``, and ``_reference_degenerate`` the
earlier one-letter ``degenerate`` the others build on.  The kernels
must give the same counts, faces, labels, maps and classes; a kernel's
classes are read off its maps by ``new_cell_members``.
"""

import importlib
import itertools
import pkgutil
import random
import sys
import time

import pytest

import twarrow
from twarrow.cli import CHECKS, SuiteConfig
from twarrow.core import ops
from twarrow.core.complex import (SimplicialSet, horn_cells, point,
                                  standard_simplex, subcomplex)
from twarrow.core.maps import (SimplicialMap, enumerate_homs,
                               map_by_vertices, to_point, unwrap_label)
from twarrow.core.ops import (GLUE_CAP, PRODUCT_CAP, disjoint_union, glue,
                              pair_simplex, product, pushout,
                              quotient_by_key)
from twarrow.core.poset import Poset, all_posets, nerve, total_order
from twarrow.core.simplex import (Simplex, constant_simplex, degenerate,
                                  degenerate_word, face_stays_degenerate,
                                  nondeg, strip_collapse)
from twarrow.decor import Decorated, collapse_to_point, flat
from twarrow.partitions import (collapse_both, collapse_upper,
                                mapping_space, ordered_partitions)
from twarrow.zoo import mirror_join_object, realize


# -- the bodies the kernels replaced -----------------------------------


def _reference_degenerate(x, j):
    if not 0 <= j <= x.dim:
        raise ValueError(f"s_{j} undefined on a {x.dim}-simplex")
    new = {t if t < j else t + 1 for t in x.word}
    new.add(j)
    return Simplex(tuple(sorted(new, reverse=True)), x.base)


def _reference_face_stays_degenerate(x, i):
    s = set(x.word)
    if i not in s and i - 1 not in s:
        return None
    s.remove(i if i in s else i - 1)
    return Simplex(tuple(sorted((t if t < i else t - 1 for t in s),
                                reverse=True)), x.base)


def _reference_face(X, x, i):
    if not 0 <= i <= x.dim:
        raise ValueError(f"d_{i} undefined on a {x.dim}-simplex")
    out = _reference_face_stays_degenerate(x, i)
    if out is not None:
        return out
    if x.word:
        j = x.word[0]
        rest = Simplex(x.word[1:], x.base)
        if i < j:
            return _reference_degenerate(_reference_face(X, rest, i), j - 1)
        return _reference_degenerate(_reference_face(X, rest, i - 1), j)
    d, idx = x.base
    if d == 0:
        raise ValueError("a vertex has no faces")
    return X.faces[(d, idx)][i]


def _reference_degenerate_word(x, word):
    for j in reversed(word):
        x = _reference_degenerate(x, j)
    return x


def _reference_product(X, Y, top_dim=None):
    """(complex, pairs, index) of the earlier product."""
    cap = X.top_dim + Y.top_dim
    if top_dim is not None:
        cap = min(cap, top_dim)
    counts, faces, labels = {}, {}, {}
    index, pairs, per_dim = {}, {}, {}
    for m in range(cap + 1):
        found = []
        for sx in X.simplices(m):
            free = [t for t in range(m) if t not in sx.word]
            for k in range(len(free) + 1):
                for extra in itertools.combinations(free, k):
                    for cy in Y.cells(m - len(extra)):
                        found.append((sx, Simplex(
                            tuple(sorted(extra, reverse=True)), cy)))
        found.sort()
        if not found:
            continue
        per_dim[m] = found
        counts[m] = len(found)
        for i, pair in enumerate(found):
            index[pair] = (m, i)
            pairs[(m, i)] = pair
    labelled = (all(c in X.labels for c in X.cells(0)) and
                all(c in Y.labels for c in Y.cells(0)))
    for m, found in per_dim.items():
        for i, (sx, sy) in enumerate(found):
            if labelled:
                vx = [ops.unwrap_label(X.labels[v]) for v in X.vertices(sx)]
                vy = [ops.unwrap_label(Y.labels[v]) for v in Y.vertices(sy)]
                labels[(m, i)] = tuple(zip(vx, vy))
            if m >= 1:
                faces[(m, i)] = tuple(
                    pair_simplex(index, _reference_face(X, sx, k),
                                 _reference_face(Y, sy, k))
                    for k in range(m + 1))
    return SimplicialSet(counts, faces, labels), pairs, index


def _reference_glue(pieces, relations, top_dim=None):
    """(complex, map data per piece, classes) of the earlier glue; its
    classes list every member simplex, degenerate ones included."""
    cap = max((X.top_dim for X in pieces), default=-1)
    if top_dim is not None:
        cap = min(cap, top_dim)
    uf = ops._UnionFind()
    queue = [(a, b) for a, b in relations]
    while queue:
        a, b = queue.pop()
        (pa, xa), (pb, xb) = a, b
        if xa.dim != xb.dim:
            raise ValueError("identified simplices of different dimension")
        if not uf.union(a, b):
            continue
        m = xa.dim
        for i in range(m + 1):
            if m >= 1:
                queue.append(((pa, _reference_face(pieces[pa], xa, i)),
                              (pb, _reference_face(pieces[pb], xb, i))))
            if m + 1 <= cap:
                queue.append(((pa, _reference_degenerate(xa, i)),
                              (pb, _reference_degenerate(xb, i))))

    classes, root_of = {}, {}
    for m in range(cap + 1):
        groups = {}
        for p, X in enumerate(pieces):
            for s in X.simplices(m):
                mem = (p, s)
                groups.setdefault(uf.find(mem), []).append(mem)
        classes[m] = sorted(sorted(g) for g in groups.values())
        for g in classes[m]:
            for mem in g:
                root_of[mem] = g[0]

    new_id, counts, degen_rep = {}, {}, {}
    for m in range(cap + 1):
        idx = 0
        for g in classes[m]:
            degs = [mem for mem in g if mem[1].is_degenerate]
            if degs:
                degen_rep[g[0]] = min(degs)
            else:
                new_id[g[0]] = (m, idx)
                idx += 1
        if idx:
            counts[m] = idx

    nf_cache = {}

    def nf(mem):
        p, s = mem
        if s.word:
            return _reference_degenerate_word(nf((p, Simplex((), s.base))),
                                              s.word)
        root = root_of[mem]
        if root not in nf_cache:
            if root in new_id:
                nf_cache[root] = nondeg(*new_id[root])
            else:
                q, t = degen_rep[root]
                nf_cache[root] = _reference_degenerate_word(
                    nf((q, Simplex((), t.base))), t.word)
        return nf_cache[root]

    faces, labels = {}, {}
    for m in range(cap + 1):
        for g in classes[m]:
            root = g[0]
            if root not in new_id:
                continue
            cell = new_id[root]
            p, s = root
            for q, t in g:
                if not t.word and t.base in pieces[q].labels:
                    labels[cell] = pieces[q].labels[t.base]
                    break
            if m >= 1:
                faces[cell] = tuple(
                    nf((p, _reference_face(pieces[p], s, i)))
                    for i in range(m + 1))

    maps = [{c: nf((p, nondeg(*c))) for c in X.all_cells() if c[0] <= cap}
            for p, X in enumerate(pieces)]
    return SimplicialSet(counts, faces, labels), maps, classes


def _reference_quotient(X, key_fn, top_dim=None):
    cap = X.top_dim if top_dim is None else min(X.top_dim, top_dim)
    rels = []
    for m in range(cap + 1):
        by_key = {}
        for s in X.simplices(m):
            k = key_fn(s)
            if k in by_key:
                rels.append(((0, by_key[k]), (0, s)))
            else:
                by_key[k] = s
    ref = _reference_glue([X], rels, top_dim=cap)
    for groups in ref[2].values():
        for g in groups:
            if len({key_fn(s) for _, s in g}) > 1:
                raise ValueError("key relation is not a simplicial congruence")
    return ref


# -- comparisons -------------------------------------------------------


def assert_same_complex(A, B):
    assert A.counts == B.counts
    assert A.faces == B.faces
    assert A.labels == B.labels


def new_cell_members(maps):
    """Per dimension, per new cell of the maps' common target: its
    nondegenerate preimages (piece, simplex), sorted."""
    target = maps[0].target
    out = {m: [[] for _ in range(n)] for m, n in target.counts.items()
           if n}
    for p, f in enumerate(maps):
        for c, img in f.data.items():
            if not img.word:
                out[c[0]][img.base[1]].append((p, nondeg(*c)))
    return {m: [sorted(g) for g in groups] for m, groups in out.items()}


def assert_same_glue(res, ref):
    out, maps, classes = ref
    assert_same_complex(res.complex, out)
    assert [f.data for f in res.maps] == maps
    # the new cells' classes are the reference's classes without a
    # degenerate member, in the same order
    want = {m: [g for g in groups if not any(s.word for _, s in g)]
            for m, groups in classes.items()}
    assert new_cell_members(res.maps) == {m: gs for m, gs in want.items()
                                          if gs}


def assert_same_product(data, ref):
    out, pairs, index = ref
    assert_same_complex(data.complex, out)
    assert data.pairs == pairs
    assert data.index == index
    assert data.pr1.data == {c: p[0] for c, p in pairs.items()}
    assert data.pr2.data == {c: p[1] for c, p in pairs.items()}


def _calls_of(monkeypatch, fns):
    """Route every package binding of each function through a recorder;
    returns the list the calls land in, as (name, args, kwargs, result)."""
    for info in pkgutil.walk_packages(twarrow.__path__, "twarrow."):
        importlib.import_module(info.name)
    calls = []

    def recorder(fn):
        def rec(*args, **kw):
            if fn in (glue, collapse_to_point):
                args = (args[0], list(args[1])) + args[2:]
            res = fn(*args, **kw)
            calls.append((fn.__name__, args, kw, res))
            return res
        return rec

    for fn in fns:
        wrapped = recorder(fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "twarrow" or mod_name.startswith("twarrow."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, wrapped)
    return calls


def _clear_package_caches():
    from twarrow import partitions, posetmaps
    for fn in (partitions.q_partition, partitions.star_partition,
               partitions.boxplus_partition, partitions.square_partition,
               posetmaps.graph_poset, posetmaps._compendium_collapse):
        fn.cache_clear()


def _reference_collapse(dec, parts):
    """``collapse_to_point`` as it was: one glue of each cell whose
    vertex labels all lie in a part onto that part's point."""
    X = dec.space
    last = len(parts)
    rels = [((k, constant_simplex((0, 0), c[0])), (last, nondeg(*c)))
            for k, part in enumerate(map(frozenset, parts))
            for c in X.all_cells()
            if {unwrap_label(X.labels.get(v))
                for v in X.vertices(nondeg(*c))} <= part]
    res = glue([point() for _ in parts] + [X], rels)
    return res, reference_push(res.maps[-1], dec)


def reference_push(f, dec):
    """The decoration ``dec`` of f's source pushed to its target: every
    nondegenerate image of a thin triangle or a marked edge."""
    thin, marked = set(), set()
    for cells, out in ((dec.thin, thin), (dec.marked, marked)):
        for c in cells:
            img = f(nondeg(*c))
            if not img.is_degenerate:
                out.add(img.base)
    return Decorated(f.target, thin, marked)


def assert_same_collapse(got, ref):
    (quot, qdec, points), (want, wdec) = got, ref
    assert_same_complex(quot.target, want.complex)
    # the gluing's k-th piece is the point of parts[k]
    maps = [SimplicialMap(point(), quot.target, {(0, 0): nondeg(*b)},
                          check=False) for b in points] + [quot]
    assert [f.data for f in maps] == [f.data for f in want.maps]
    assert new_cell_members(maps) == new_cell_members(want.maps)
    assert (qdec.thin, qdec.marked) == (wdec.thin, wdec.marked)


def test_every_suite_gluing_and_product_matches_the_reference(monkeypatch):
    # the recorder sees every package binding, so the mapping spaces and
    # collapses of every check are recorded; no check glues any more
    _clear_package_caches()
    calls = _calls_of(monkeypatch, [glue, product, quotient_by_key,
                                    collapse_to_point])
    cfg = SuiteConfig(seed=12)
    for name, check in CHECKS.items():
        ok, detail = check(cfg)
        assert ok, (name, detail)
    # and every one- and two-point crush of a five-point partition, with
    # its two-sided mapping space
    for P in all_posets(5):
        for part in ordered_partitions(P):
            collapse_upper(part)
            collapse_both(part)
            mapping_space(part, "two_sided", top_dim=2)
    _clear_package_caches()
    kinds = dict.fromkeys(["glue", "product", "quotient_by_key",
                           "collapse_to_point"], 0)
    for name, args, kw, res in calls:
        kinds[name] += 1
        if name == "glue":
            assert_same_glue(res, _reference_glue(*args, **kw))
        elif name == "product":
            assert_same_product(res, _reference_product(*args, **kw))
        elif name == "quotient_by_key":
            assert_same_glue(res, _reference_quotient(*args, **kw))
        else:
            assert_same_collapse(res, _reference_collapse(*args, **kw))
    assert kinds["glue"] == 0 and kinds["product"] >= 49
    assert kinds["quotient_by_key"] >= 1002
    assert kinds["collapse_to_point"] >= 1545


# -- seeded random gluings ---------------------------------------------


def _small_pieces():
    horn, _ = subcomplex(standard_simplex(3), horn_cells(3, 1))
    return [point("p"), standard_simplex(1), standard_simplex(2),
            standard_simplex(3), horn,
            nerve(Poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"),
                                 ("c", "d")]))]


def _random_simplex(rng, X, m):
    return rng.choice(list(X.simplices(m)))


def test_random_gluings_match_the_reference():
    rng = random.Random(2024)
    pool = _small_pieces()
    for trial in range(120):
        pieces = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        top = max(X.top_dim for X in pieces)
        rels = []
        for _ in range(rng.randint(0, 4)):
            # any dimension up to one past the pieces, so some pairs sit
            # above top_dim and some between two degenerate simplices
            m = rng.randint(0, top + 1)
            p, q = rng.randrange(len(pieces)), rng.randrange(len(pieces))
            rels.append(((p, _random_simplex(rng, pieces[p], m)),
                         (q, _random_simplex(rng, pieces[q], m))))
        top_dim = rng.choice([None, None, 0, 1, 2])
        assert_same_glue(glue(pieces, rels, top_dim),
                         _reference_glue(pieces, rels, top_dim))


def test_gluings_between_degenerate_simplices_and_above_the_cap():
    T, S = standard_simplex(2), standard_simplex(3)
    a, b = nondeg(0, 0), nondeg(0, 2)
    cases = [
        ([T], [((0, degenerate(a, 0)), (0, degenerate(b, 0)))], None),
        ([T, S], [((0, Simplex((1,), (1, 0))), (1, Simplex((0,), (1, 3))))],
         None),
        ([T, S], [((0, degenerate_word(nondeg(1, 2), (2, 1))),
                   (1, nondeg(3, 0)))], 2),
        # a relation above the cap still identifies its faces below it
        ([S, S], [((0, nondeg(3, 0)), (1, nondeg(3, 0)))], 1),
        ([S], [((0, nondeg(2, 0)), (0, nondeg(2, 3)))], 1),
    ]
    for pieces, rels, top_dim in cases:
        res = glue(pieces, rels, top_dim)
        assert_same_glue(res, _reference_glue(pieces, rels, top_dim))
        res.complex.validate()
        if top_dim is None:
            for f in res.maps:
                f.validate()


def test_random_quotients_match_the_reference():
    rng = random.Random(77)
    outcomes = []
    for P in [P for size in range(2, 5) for P in all_posets(size)]:
        N = nerve(P)
        # a vertex partition gives a congruence; a random key on the
        # nondegenerate edges usually does not, and both must raise
        cls = {e: rng.randrange(2) for e in P.elements}

        def good(s, N=N, cls=cls):
            return tuple(cls[lab[0]] for lab in N.vertex_labels(s))

        def bad(s, N=N, salt=rng.randrange(1000)):
            if s.dim == 1 and not s.word and (hash((salt, s)) & 1):
                return "merged"
            return ("id", s)

        for key in (good, bad):
            try:
                ref = _reference_quotient(N, key)
            except ValueError:
                with pytest.raises(ValueError, match="not a simplicial"):
                    quotient_by_key(N, key)
                outcomes.append("raised")
            else:
                assert_same_glue(quotient_by_key(N, key), ref)
                outcomes.append("built")
    assert outcomes.count("raised") >= 5 and outcomes.count("built") >= 20


def test_each_congruence_check_refuses_what_the_reference_refuses():
    # every simplex is its own key but for the ones listed
    a, b = nondeg(0, 0), nondeg(0, 1)
    cases = [
        # (a) one key, degenerate members with different images
        (standard_simplex(1), {degenerate(a, 0): "x", degenerate(b, 0): "x"},
         "one key and images"),
        # (b) two vertices merged, their degeneracies kept apart
        (standard_simplex(1), {a: "v", b: "v"}, "different keys and one image"),
        # (c) the edges 01 and 12 merged, their end vertices kept apart
        (standard_simplex(2), {nondeg(1, 0): "e", nondeg(1, 2): "e"},
         "face images"),
    ]
    for X, table, check in cases:
        def key(s, table=table):
            return table.get(s, s)

        with pytest.raises(ValueError, match="not a simplicial congruence"):
            _reference_quotient(X, key)
        with pytest.raises(ValueError,
                           match=f"not a simplicial congruence.*{check}"):
            quotient_by_key(X, key)


def test_collapses_of_parts_sharing_a_vertex_are_refused():
    # each part is crushed to its own point, so a vertex in two parts
    # has no single image
    X = standard_simplex(3)
    with pytest.raises(ValueError,
                       match="collapse parts 0 and 1 share the vertex"):
        collapse_to_point(flat(X), [{0, 1}, {1, 2}])


def test_realize_matches_the_reference(monkeypatch):
    calls = _calls_of(monkeypatch, [glue])
    for P in [total_order(2), Poset("abc", [("a", "b"), ("a", "c")]),
              Poset("abcd", [("a", "b"), ("c", "b"), ("c", "d")])]:
        realize(mirror_join_object(), nerve(P))
    assert len(calls) == 3
    for _, args, kw, res in calls:
        assert_same_glue(res, _reference_glue(*args, **kw))


# -- faces of deep degenerate simplices --------------------------------


def test_faces_of_deep_degenerate_simplices_match_the_reference():
    X = standard_simplex(3)
    x = constant_simplex((0, 2), 12)
    for i in range(13):
        assert X.face(x, i) == _reference_face(X, x, i) == \
            constant_simplex((0, 2), 11)
    rng = random.Random(5)
    for _ in range(300):
        base = rng.choice(list(X.all_cells()))
        m = rng.randint(base[0], 12)
        word = tuple(sorted(rng.sample(range(m), m - base[0]), reverse=True))
        s = Simplex(word, base)
        if m:
            for i in range(m + 1):
                assert X.face(s, i) == _reference_face(X, s, i)
        for j in range(m + 1):
            assert degenerate(s, j) == _reference_degenerate(s, j)
        w = tuple(sorted(rng.sample(range(m + 2), 2), reverse=True))
        assert degenerate_word(s, w) == _reference_degenerate_word(s, w)
    with pytest.raises(ValueError, match="undefined"):
        X.face(x, 13)
    with pytest.raises(ValueError, match="no faces"):
        X.face(nondeg(0, 1), 0)
    with pytest.raises(ValueError, match="undefined"):
        degenerate_word(nondeg(1, 0), (3,))
    with pytest.raises(ValueError, match="s_2 undefined on a 1-simplex"):
        degenerate(nondeg(1, 0), 2)
    # the one-letter helpers read the same cached rule
    for s in [constant_simplex((0, 1), 5), Simplex((4, 2, 1), (3, 0))]:
        for i in range(s.dim + 1):
            assert face_stays_degenerate(s, i) == \
                _reference_face_stays_degenerate(s, i)
        for j in s.word:
            assert strip_collapse(s, j) == \
                _reference_face_stays_degenerate(s, j)


# -- the congruence case and the universal property --------------------


def test_degenerate_forms_carry_the_congruence():
    # u ~ s_0 a, v ~ s_0 b and a ~ b force u ~ v, though no relation
    # or face of one names both edges
    I, pt = standard_simplex(1), point()
    u, v = nondeg(1, 0), nondeg(1, 0)
    a, b = nondeg(0, 0), nondeg(0, 0)
    rels = [((0, u), (2, degenerate(a, 0))),
            ((1, v), (3, degenerate(b, 0))),
            ((2, a), (3, b))]
    pieces = [I, I, pt, pt]
    res = glue(pieces, rels)
    assert_same_glue(res, _reference_glue(pieces, rels))
    assert res.complex.counts == {0: 1}
    assert res.maps[0].data[(1, 0)] == res.maps[1].data[(1, 0)] == \
        constant_simplex((0, 0), 1)
    # the same congruence one level up: two triangles become one
    T = standard_simplex(2)
    rels = [((0, nondeg(2, 0)), (2, degenerate(nondeg(1, 0), 0))),
            ((1, nondeg(2, 0)), (3, degenerate(nondeg(1, 0), 0))),
            ((2, nondeg(1, 0)), (3, nondeg(1, 0)))]
    pieces = [T, T, I, I]
    res = glue(pieces, rels)
    assert_same_glue(res, _reference_glue(pieces, rels))
    assert res.maps[0].data[(2, 0)] == res.maps[1].data[(2, 0)]
    assert res.maps[0].data[(2, 0)].word


def _spans():
    """Spans X <-f- A -g-> Y, injective or not."""
    I, T, S = standard_simplex(1), standard_simplex(2), standard_simplex(3)
    pt = point()
    edge = lambda a, b, Z: map_by_vertices(  # noqa: E731
        I, Z, lambda v: (a, b)[v])
    return [
        (map_by_vertices(pt, I, lambda v: 1), map_by_vertices(pt, I, lambda v: 0)),
        (edge(0, 1, T), edge(1, 2, T)),
        (to_point(I), edge(0, 2, T)),
        (map_by_vertices(T, I, lambda v: min(v, 1)), edge(0, 3, S).compose(
            map_by_vertices(T, I, lambda v: min(v, 1)))),
        (edge(0, 2, S), edge(0, 1, I)),
    ]


def _targets():
    I, pt = standard_simplex(1), point()
    circle = glue([I], [((0, nondeg(0, 0)), (0, nondeg(0, 1)))]).complex
    return [I, standard_simplex(2), circle,
            nerve(Poset("abc", [("a", "b"), ("a", "c")]))]


def test_pushouts_have_the_universal_property():
    for f, g in _spans():
        res = pushout(f, g)
        P = res.complex
        P.validate()
        i, j = res.maps
        i.validate()
        j.validate()
        for c in f.source.all_cells():
            assert i(f.data[c]) == j(g.data[c])
        for Z in _targets():
            # maps out of P are exactly the compatible pairs of maps out
            # of X and Y, each pair factoring once
            pairs = {(tuple(sorted(h.data.items())),
                      tuple(sorted(k.data.items())))
                     for h in enumerate_homs(f.target, Z)
                     for k in enumerate_homs(g.target, Z)
                     if all(h(f.data[c]) == k(g.data[c])
                            for c in f.source.all_cells())}
            restricted = [(tuple(sorted(u.compose(i).data.items())),
                           tuple(sorted(u.compose(j).data.items())))
                          for u in enumerate_homs(P, Z)]
            assert len(set(restricted)) == len(restricted)
            assert set(restricted) == pairs


# -- products against nerves -------------------------------------------


def test_product_of_nerves_is_the_nerve_of_the_product():
    classes = {k: all_posets(k) for k in range(1, 5)}
    seen = 0
    for p in range(1, 5):
        for q in range(1, 6 - p):
            for P in classes[p]:
                for Q in classes[q]:
                    data = product(nerve(P), nerve(Q))
                    X, N = data.complex, nerve(P.product(Q))
                    assert X.counts == N.counts
                    # the chain labels match the cells one to one, and
                    # carry the faces across
                    to_n = {c: N.cell_with_label(X.labels[c])
                            for c in X.all_cells()}
                    assert len(set(to_n.values())) == X.size()
                    for c, fs in X.faces.items():
                        assert N.faces[to_n[c]] == tuple(
                            Simplex(f.word, to_n[f.base]) for f in fs)
                    seen += 1
    assert seen == 71


def test_random_products_match_the_reference():
    pool = _small_pieces() + [nerve(P) for P in all_posets(3)]
    rng = random.Random(31)
    for _ in range(25):
        X, Y = rng.choice(pool), rng.choice(pool)
        top_dim = rng.choice([None, 1, 2, 3])
        assert_same_product(product(X, Y, top_dim),
                            _reference_product(X, Y, top_dim))
    # crushing {0, 1} makes an edge of Delta^2 degenerate, so some cells
    # pair simplices that share a collapse, which pair_simplex strips
    _, crushed, _ = collapse_to_point(flat(standard_simplex(2)), [{0, 1}])
    X, Y = crushed.space, standard_simplex(1)
    data = product(X, Y)
    assert_same_product(data, _reference_product(X, Y))
    data.pr1.validate()
    data.pr2.validate()


# -- size caps ---------------------------------------------------------


def _many_vertices(n):
    return SimplicialSet({0: n}, {})


def test_product_and_glue_caps_fail_fast():
    # the largest product the tests and the suite build has 2,900 cells,
    # the largest gluing 512 input cells
    assert PRODUCT_CAP >= 2900 and GLUE_CAP >= 512
    big = _many_vertices(10 ** 6)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"{10 ** 12} cells, cap {PRODUCT_CAP}"):
        product(big, big)
    with pytest.raises(ValueError, match=f"cap {PRODUCT_CAP}"):
        product(standard_simplex(9), standard_simplex(4))
    with pytest.raises(ValueError, match=f"{10 ** 6} cells, cap {GLUE_CAP}"):
        glue([big], [((0, nondeg(0, 0)), (0, nondeg(0, 1)))])
    with pytest.raises(ValueError, match=f"cap {GLUE_CAP}"):
        disjoint_union([_many_vertices(GLUE_CAP // 2 + 1)] * 2)
    with pytest.raises(ValueError, match=f"{10 ** 6 + 2} cells, "
                                         f"cap {GLUE_CAP}"):
        collapse_to_point(flat(big), [{0}, {1}])
    assert time.perf_counter() - t0 < 1.0

"""The shared handles of nondegenerate cells: which constructors use
them, that the table is safe under threads and bounded, that readers of
outside input check their indices before any handle is made, and what
the sharing saves on the largest nerve the suite builds."""

import json
import sys
import threading
import time
import tracemalloc

import pytest

from twarrow import CAPS
from twarrow.cli import map_from_json, map_to_json
from twarrow.core import simplex
from twarrow.core.complex import (SimplicialSet, horn_cells,
                                  standard_simplex, subcomplex)
from twarrow.core.io import complex_from_json, complex_to_json
from twarrow.core.maps import SimplicialMap
from twarrow.core.ops import glue, join, product, quotient_by_key
from twarrow.core.poset import Poset, _nerve, nerve, total_order
from twarrow.core.simplex import HANDLE_CAP, Simplex, nondeg
from twarrow.decor import Decorated, collapse_to_point
from twarrow.zoo.ladder import ladder_poset


def handle_count():
    return sum(map(len, simplex._handles.values()))


def _assert_shared(X):
    """Every empty-word face entry and every listed cell of X is the
    shared handle or base of its cell."""
    entries = 0
    for row in X.faces.values():
        for f in row:
            if not f.word:
                assert f is nondeg(*f.base)
                entries += 1
    for c in X.all_cells():
        assert c is nondeg(*c).base
    return entries


def _outputs():
    D3 = standard_simplex(3)
    yield "nerve", nerve(Poset("abcd", [("a", "b"), ("b", "c"), ("a", "d")]))
    yield "standard_simplex", D3
    yield "product", product(standard_simplex(2), standard_simplex(1)).complex
    yield "join", join(standard_simplex(1), standard_simplex(1)).complex
    yield "subcomplex", subcomplex(D3, horn_cells(3, 1))[0]
    N = nerve(total_order(3))
    # simplices with one image under the degeneracy 0, 0, 1, 2
    yield "quotient_by_key", quotient_by_key(
        N, lambda s: tuple(max(v[0] - 1, 0)
                           for v in N.vertex_labels(s))).complex
    dec = Decorated(D3)
    yield "collapse_to_point", collapse_to_point(dec, [{0, 1}])[0].target
    yield "glue", glue([D3, standard_simplex(2)],
                       [((0, nondeg(1, 0)), (1, nondeg(1, 2)))]).complex
    yield "complex_from_json", complex_from_json(
        json.loads(json.dumps(complex_to_json(N))))


def test_constructors_share_one_handle_per_cell():
    for name, X in _outputs():
        assert _assert_shared(X) > 0, name


def test_handles_compare_by_value():
    h = nondeg(2, 3)
    assert h == Simplex((), (2, 3)) and hash(h) == hash(Simplex((), (2, 3)))
    assert nondeg(2, 3) is h and h.base == (2, 3)


def test_negative_cells_are_refused():
    before = handle_count()
    for d, i in ((0, -1), (-1, 0), (-3, -2)):
        with pytest.raises(ValueError, match="negative"):
            nondeg(d, i)
    assert handle_count() == before


def test_indices_past_the_cap_get_equal_unshared_handles():
    before = handle_count()
    h = nondeg(1, HANDLE_CAP + 5)
    assert h == Simplex((), (1, HANDLE_CAP + 5))
    assert handle_count() == before


def test_interning_under_threads_gives_one_right_handle_per_key():
    # a dimension no constructor reaches, so its row grows from empty
    dim = max(simplex._handles, default=0) + 1
    n, workers = 3000, 8
    got = [None] * workers
    errors = []

    def work(t):
        try:
            # thread t starts at t and strides by the number of threads,
            # then sweeps everything backwards, so rows grow contended
            order = list(range(t, n, workers)) + list(range(n - 1, -1, -1))
            got[t] = {i: nondeg(dim, i) for i in order}
        except Exception as e:  # pragma: no cover - reported below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(workers)]
        for th in threads:
            th.start()
        deadline = time.monotonic() + 60
        for th in threads:
            th.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    assert not errors
    for i in range(n):
        h = nondeg(dim, i)
        assert h.base == (dim, i) and not h.word
        assert all(g[i] is h for g in got)
    assert len(simplex._handles[dim]) == n


def test_the_largest_suite_nerve_stays_small_in_memory():
    # built fresh, past the nerve cache; 13.7 MB before handles were shared
    P = ladder_poset(3)
    tracemalloc.start()
    try:
        N = _nerve.__wrapped__(P, None)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert N.size() == 12_543
    assert retained <= 10_000_000


# -- readers of outside input ------------------------------------------


def _refused(read, obj, message):
    before = handle_count()
    t = time.process_time()
    with pytest.raises(ValueError, match=message):
        read(obj)
    assert time.process_time() - t < 1.0
    assert handle_count() <= before


# HANDLE_CAP - 1 would grow the handle table by a whole row if the
# reader asked for its handle before the range check
@pytest.mark.parametrize("bad", [-1, HANDLE_CAP - 1, 10 ** 9])
def test_complex_reader_refuses_a_bad_face_index_first(bad):
    obj = complex_to_json(standard_simplex(2))
    obj["simplices"]["1"]["faces"][0][1] = [[], 0, bad]
    obj = json.loads(json.dumps(obj))
    _refused(complex_from_json, obj,
             rf"face of \(1, 0\) has unknown base \(0, {bad}\)")


def test_collapse_refuses_past_its_cap_first():
    # COLLAPSE_CAP vertices and one point: the cap counts both, so the
    # collapse is refused before it lists a vertex or makes a handle
    cap = CAPS["COLLAPSE_CAP"].value
    dec = Decorated(SimplicialSet({0: cap}, {}), set(), set())
    _refused(lambda d: collapse_to_point(d, [set()]), dec,
             r"^collapse_to_point: 100001 cells, cap 100000 "
             r"\(COLLAPSE_CAP\)$")


def _far(dim):
    """A face entry on the last cell of ``dim`` that gets a shared
    handle."""
    return [[], dim, HANDLE_CAP - 1]


def _declared(*dims):
    """Entries declaring HANDLE_CAP cells in each of ``dims`` and
    listing none of their face rows."""
    return {str(d): {"count": HANDLE_CAP, "faces": []} for d in dims}


# each document names the last cell of a dimension that declares
# HANDLE_CAP cells, each in a dimension of its own, so that reading it
# grows the handle table by a whole row unless the reader shares
# handles only after every check
@pytest.mark.parametrize("simplices, labels, message", [
    pytest.param({"0": {"count": 2}, "1": {"count": 1, "faces": [
        [_far(2)] * 3 + [_far(3)] * 3]}, **_declared(2, 3)}, {},
        r"cell \(1, 0\) has 6 faces, wanted 2", id="long-row"),
    pytest.param({"0": {"count": HANDLE_CAP}, "1": {"count": 1, "faces": [
        [_far(0)] * 2]}}, {"1:5": 1},
        r"label key '1:5' names no cell", id="bad-label"),
    pytest.param({"5": {"count": 1, "faces": [[_far(4)] * 6]},
                  **_declared(4)}, {},
                 r"missing face rows in dimension 4", id="missing-rows"),
])
def test_complex_reader_shares_no_handle_before_every_check(
        simplices, labels, message):
    _refused(complex_from_json,
             {"top_dim": max(map(int, simplices)), "simplices": simplices,
              "labels": labels}, message)


@pytest.mark.parametrize("bad", [-1, 10 ** 9])
def test_map_reader_refuses_a_bad_image_index_first(bad):
    obj = map_to_json(SimplicialMap.identity(standard_simplex(1)))
    obj["data"]["0:1"] = [[], 0, bad]
    obj = json.loads(json.dumps(obj))
    _refused(map_from_json, obj,
             rf"image of \(0, 1\) names unknown cell \(0, {bad}\)")


def test_a_large_vertex_count_is_read_without_making_handles():
    # no constructor builds more than HANDLE_CAP cells in one dimension,
    # so the reader refuses such a count before it builds anything
    before = handle_count()
    t = time.process_time()
    with pytest.raises(ValueError, match=r"dimension 0: 1000000000 cells, "
                                         r"cap 100000 \(HANDLE_CAP\)"):
        complex_from_json({"top_dim": 0,
                           "simplices": {"0": {"count": 10 ** 9}}})
    assert time.process_time() - t < 1.0
    assert handle_count() == before

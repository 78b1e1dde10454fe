"""Tests for the dull-family pivot engine and certificate replay."""

import dataclasses
import json
import random

import pytest

from twarrow.anodyne import (
    CertificateError,
    Certificate,
    Step,
    all_disjoint_families,
    all_dull_families,
    basal_sets,
    certificate_from_json,
    certificate_to_json,
    dual_certificate,
    dull_start_cells,
    facet_union,
    family_pivots,
    is_dull,
    kappa_stratum_matches,
    pivot_certificate,
    pivot_strata,
    verify_certificate,
)
from twarrow.certificates import fibstep1
from twarrow.core import close_cells, opposite, simplex_cell, standard_simplex
from twarrow.core.simplex import nondeg
from twarrow.decor import Decorated, collapse_to_point, op_decoration, sharp
from twarrow.zoo import q_complex, q_core_dull_family, q_core_extended_cells, q_diamond


def tri_dec(n, thin):
    X = standard_simplex(n)
    return Decorated(X, thin={simplex_cell(n, t) for t in thin})


def test_is_dull_examples():
    ok, pivots, _ = is_dull([{0}, {3}], 3)
    assert ok and pivots == [1, 2]
    ok, pivots, _ = is_dull([{0}, {5}, {2, 3}], 5)
    assert ok and pivots == [1, 4]
    ok, _, why = is_dull([{0, 1}, {1, 2}], 3)
    assert not ok and "overlap" in why
    ok, _, why = is_dull([{0}, {3}, set()], 3)
    assert not ok and "empty" in why
    ok, _, why = is_dull([{1}, {2}], 4)
    assert not ok  # no singleton to the right of any free position
    assert is_dull([{0}, {4}], 4)[1] == [1, 2, 3]


def test_basal_sets():
    assert basal_sets([{0}, {3}]) == [(0, 3)]
    bas = basal_sets([{0}, {5}, {2, 3}])
    assert bas == [(0, 2, 5), (0, 3, 5)]
    assert all(len(Z) == 3 for Z in bas)


def test_kappa_stratum_small():
    strata = pivot_strata(3, [{0}, {3}], 1)
    assert min(strata) == 3
    assert strata[3] == [(0, 1, 3)]
    assert kappa_stratum_matches(3, [{0}, {3}], 1)
    assert kappa_stratum_matches(3, [{0}, {3}], 2)


def test_kappa_lemma_exhaustive_small():
    for n in range(2, 5):
        seen = 0
        for fam, pivots in all_dull_families(n):
            for i in pivots:
                seen += 1
                assert kappa_stratum_matches(n, fam, i)
        assert seen > 0


def _kappa_reference(n, family, pivot):
    """The smallest stratum read off every stratum, as ``min`` of
    ``pivot_strata``."""
    strata = pivot_strata(n, family, pivot)
    kappa = min(strata)
    if kappa != len(list(family)) + 1:
        return False
    expect = sorted(tuple(sorted(set(Z) | {pivot}))
                    for Z in basal_sets(family))
    return strata[kappa] == expect


def test_kappa_stratum_matches_the_full_strata():
    # every dull family with every pivot position, admissible or not
    verdicts = set()
    for n in range(6):
        for fam, _ in all_dull_families(n):
            for p in range(n + 1):
                got = kappa_stratum_matches(n, fam, p)
                assert got == _kappa_reference(n, fam, p), (n, fam, p)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_disjoint_family_enumeration_is_exact():
    # families of pairwise disjoint nonempty subsets of a k-set are
    # counted by the Bell number of k+1
    fams = list(all_disjoint_families(2))
    assert len(fams) == len(set(map(frozenset, map(lambda f: map(frozenset, f), fams)))) == 15
    assert len(list(all_disjoint_families(3))) == 52


def test_dull_start_cells_two_facets():
    X = standard_simplex(3)
    got = dull_start_cells(X, tuple(range(4)), [{0}, {3}])
    want = close_cells(X, [simplex_cell(3, (1, 2, 3)), simplex_cell(3, (0, 1, 2))])
    assert got == want
    assert simplex_cell(3, (0, 1, 2, 3)) not in got


def test_extended_core_is_a_dull_facet_union():
    for n, i in [(1, 1), (2, 1), (2, 2)]:
        fam = q_core_dull_family(n, i)
        X = standard_simplex(2 * n + 1)
        got = dull_start_cells(X, tuple(range(2 * n + 2)), fam)
        assert got == q_core_extended_cells(n, i)


def test_facet_union_decorated():
    dec = q_complex(1)
    sub, incl = facet_union(dec, [{0}, {3}])
    assert sub.space.n_cells(2) == 2
    incl.validate()


def test_pivot_certificate_negative_q1():
    dec = q_complex(1)
    with pytest.raises(CertificateError) as err:
        pivot_certificate(dec, [{0}, {3}], pivot=1)
    assert err.value.witness == (0, 1, 3)
    # scanning both pivots cannot help with this scaling
    with pytest.raises(CertificateError):
        pivot_certificate(dec, [{0}, {3}])


def test_pivot_certificate_two_steps():
    dec = tri_dec(3, [(0, 2, 3), (1, 2, 3)])
    cert = pivot_certificate(dec, [{0}, {3}], pivot=2)
    assert len(cert.steps) == 2
    first, second = cert.steps
    assert (first.n, first.i) == (2, 1)
    assert first.attach == simplex_cell(3, (0, 2, 3))
    assert (second.n, second.i) == (3, 2)
    assert second.attach == simplex_cell(3, (0, 1, 2, 3))
    ok, step, reason = verify_certificate(dec, cert)
    assert ok, (step, reason)


def test_pivot_scan_on_diamond():
    dec = q_diamond(1)
    cert = pivot_certificate(dec, [{0}, {3}])
    ok, step, reason = verify_certificate(dec, cert)
    assert ok, (step, reason)
    # every triangle of the diamond is thin, so the scan stops at pivot 1
    assert cert.steps[0].i == 1


def test_verify_rejects_flat_ambient():
    thin = tri_dec(3, [(0, 2, 3), (1, 2, 3)])
    cert = pivot_certificate(thin, [{0}, {3}], pivot=2)
    flat = Decorated(thin.space)
    ok, step, reason = verify_certificate(flat, cert)
    assert not ok and step == 1 and "thin" in reason


def test_verify_rejects_mutations():
    dec = tri_dec(3, [(0, 2, 3), (1, 2, 3)])
    cert = pivot_certificate(dec, [{0}, {3}], pivot=2)
    no_first = Certificate(cert.start, cert.steps[1:], cert.end)
    ok, step, _ = verify_certificate(dec, no_first)
    assert not ok and step == 1
    outer = Certificate(
        cert.start,
        (Step(n=2, i=2, attach=cert.steps[0].attach),) + cert.steps[1:],
        cert.end)
    ok, step, reason = verify_certificate(dec, outer)
    assert not ok and step == 1 and "inner" in reason
    bad_end = Certificate(cert.start, cert.steps, cert.start)
    ok, step, _ = verify_certificate(dec, bad_end)
    assert not ok and step == len(cert.steps) + 1
    ragged = Certificate(cert.start | {cert.steps[1].attach}, cert.steps, cert.end)
    ok, step, reason = verify_certificate(dec, ragged)
    assert not ok and step == 0 and "closed" in reason


def test_same_stratum_order_is_free():
    dec = q_diamond(2)
    fam = q_core_dull_family(2, 2)
    cert = pivot_certificate(dec, fam)
    rng = random.Random(7)
    by_size = {}
    for s in cert.steps:
        by_size.setdefault(s.n, []).append(s)
    shuffled = []
    for n in sorted(by_size):
        block = by_size[n][:]
        rng.shuffle(block)
        shuffled.extend(block)
    alt = Certificate(cert.start, tuple(shuffled), cert.end)
    ok, step, reason = verify_certificate(dec, alt)
    assert ok, (step, reason)


def test_certificate_json_roundtrip():
    dec = tri_dec(3, [(0, 2, 3), (1, 2, 3)])
    cert = pivot_certificate(dec, [{0}, {3}], pivot=2)
    doc = json.loads(json.dumps(certificate_to_json(cert)))
    back = certificate_from_json(doc)
    assert back == cert
    ok, _, _ = verify_certificate(dec, back)
    assert ok


def test_dual_certificate_verifies():
    dec = tri_dec(3, [(0, 2, 3), (1, 2, 3)])
    cert = pivot_certificate(dec, [{0}, {3}], pivot=2)
    dual = dual_certificate(cert)
    decop = op_decoration(dec, opposite(dec.space))
    ok, step, reason = verify_certificate(decop, dual)
    assert ok, (step, reason)
    # and the dual of an invalid replay stays invalid
    ok, _, _ = verify_certificate(op_decoration(Decorated(dec.space),
                                                opposite(dec.space)), dual)
    assert not ok


def test_certificate_in_a_face_of_a_bigger_ambient():
    # run the two-facet filling inside the face 1..4 of Delta^5
    thin = [(1, 3, 4), (2, 3, 4)]
    dec = tri_dec(5, thin)
    cert = pivot_certificate(dec, [{0}, {3}], vertices=(1, 2, 3, 4), pivot=2)
    ok, step, reason = verify_certificate(dec, cert)
    assert ok, (step, reason)
    assert cert.steps[-1].attach == simplex_cell(5, (1, 2, 3, 4))


# -- tampered certificates and documents --------------------------------


def _tampered(cert, start=(), **steps):
    """cert with cells added to its start and steps replaced, given as
    s<k>=<new fields> for the 1-based step k."""
    out = list(cert.steps)
    for key, fields in steps.items():
        k = int(key[1:]) - 1
        out[k] = dataclasses.replace(out[k], **fields)
    return Certificate(cert.start | set(start), tuple(out), cert.end)


def test_each_tampering_is_refused_at_its_step():
    # steps: (3, 2) and (3, 4) in dimension 3, then (4, 1), (4, 2),
    # (4, 3) in dimension 4, then the top cell (5, 0); step 1's missing
    # face is (2, 6)
    dec, cert = fibstep1(2, 1)
    assert verify_certificate(dec, cert) == (True, 0, "ok")
    cases = [
        (_tampered(cert, start=[(0, 99)]),
         (0, "start cell (0, 99) does not exist")),
        (_tampered(cert, s3={"klass": "outer_horn"}),
         (3, "unknown step class 'outer_horn'")),
        (_tampered(cert, s3={"attach": (3, 2)}),
         (3, "attached cell dimension mismatch")),
        (_tampered(cert, s3={"attach": (4, 6)}),
         (3, "attached cell (4, 6) does not exist")),
        (_tampered(cert, s3={"attach": (4, -1)}),
         (3, "attached cell (4, -1) does not exist")),
        (_tampered(cert, s4={"attach": (4, 1)}),
         (4, "attached simplex is already present")),
        (_tampered(cert, start=[(2, 6)]),
         (1, "missing face is already present")),
    ]
    for bad, (step, reason) in cases:
        assert verify_certificate(dec, bad) == (False, step, reason)


def test_a_degenerate_missing_face_is_refused():
    # crushing the edge {0, 2} of Delta^2 makes d1 of its triangle
    # degenerate
    _, dec, _ = collapse_to_point(sharp(standard_simplex(2)), [{0, 2}])
    X = dec.space
    assert X.face(nondeg(2, 0), 1).word
    below = frozenset(c for c in X.all_cells() if c[0] <= 1)
    cert = Certificate(below, (Step(n=2, i=1, attach=(2, 0)),),
                       frozenset(X.all_cells()))
    assert verify_certificate(dec, cert) == \
        (False, 1, "missing face is degenerate")


@pytest.mark.parametrize("doc, message", [
    ([], "a certificate document is a JSON object, not list"),
    ({"start": [], "steps": [{"n": 2, "attach": [2, 0]}], "end": []},
     "certificate document lacks the 'i' entry"),
    ({"start": [[0]], "steps": [], "end": []},
     r"cell \[0\] is not a \[dim, idx\] pair of ints"),
    ({"start": [], "steps": [], "end": [[0, "1"]]},
     r"cell \[0, '1'\] is not a \[dim, idx\] pair"),
    ({"start": [], "steps": [{"n": 2, "i": 1, "attach": [2, True]}],
      "end": []}, r"cell \[2, True\] is not a \[dim, idx\] pair"),
    ({"start": [], "steps": [{"n": 2, "i": 1, "attach": 5}], "end": []},
     "cell 5 is not a"),
    ({"start": [], "steps": [[2, 1]], "end": []},
     "malformed certificate document"),
    ({"start": [], "steps": [{"n": "3", "i": 1, "attach": [3, 0]}],
      "end": []}, "step entry 'n' is '3', not of type int"),
    ({"start": [], "steps": [{"n": 3, "i": 1.5, "attach": [3, 0]}],
      "end": []}, "step entry 'i' is 1.5, not of type int"),
    ({"start": [], "steps": [{"n": 3, "i": True, "attach": [3, 0]}],
      "end": []}, "step entry 'i' is True, not of type int"),
    ({"start": [], "steps": [{"class": ["x"], "n": 3, "i": 1,
                              "attach": [3, 0]}], "end": []},
     r"step entry 'class' is \['x'\], not of type str"),
])
def test_certificate_reader_refuses_malformed_documents(doc, message):
    with pytest.raises(ValueError, match=message):
        certificate_from_json(doc)

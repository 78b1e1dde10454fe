"""Tests for the generated filling certificates."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import twarrow
from twarrow import anodyne, certificates
from twarrow.anodyne import (CertificateError, certificate_to_json,
                             dual_certificate, verify_certificate)
from twarrow.certificates import (
    fibstep1,
    fibstep2,
    fibstep2_family,
    staircase_pairs,
    staircase_window,
    xi_certificate,
)
from twarrow.core import close_cells, opposite, simplex_by_chain
from twarrow.decor import op_decoration
from twarrow.zoo import (
    ladder_complex,
    ladder_top_chain,
    band_cells,
    q_core_cells,
    q_core_extended_cells,
)


def check(dec, cert):
    ok, step, reason = verify_certificate(dec, cert)
    assert ok, (step, reason)


# every core index of every level up to 5; level 6 replays too, in
# about 9 s, and level 7 is refused by SIMPLEX_CAP
FIBSTEP_SIZES = [(n, i) for n in range(1, 6) for i in range(1, n + 1)]


def test_fibstep1_small():
    for n, i in FIBSTEP_SIZES:
        dec, cert = fibstep1(n, i)
        check(dec, cert)
        assert cert.end == frozenset(dec.space.all_cells())


def test_fibstep1_n1_two_steps():
    dec, cert = fibstep1(1, 1)
    # one triangle and the tetrahedron
    assert [s.n for s in cert.steps] == [2, 3]


def test_fibstep2_families_are_disjoint():
    for n in range(1, 4):
        for i in range(1, n + 1):
            for r in range(1, n + 1):
                fam = fibstep2_family(n, i, r)
                flat = [v for S in fam for v in S]
                assert len(flat) == len(set(flat))
                assert {0} in fam


def test_fibstep2_small():
    for n, i in FIBSTEP_SIZES:
        dec, cert = fibstep2(n, i)
        check(dec, cert)
        assert set(cert.start) == q_core_cells(n, i)
        assert set(cert.end) == q_core_extended_cells(n, i)


def test_fibstep_tower_composes():
    # the two stages chain: end of the first is the start of the second
    for n, i in [(1, 1), (2, 2)]:
        dec2, cert2 = fibstep2(n, i)
        dec1, cert1 = fibstep1(n, i)
        assert cert2.end == cert1.start
        assert dec1.thin == dec2.thin


def test_fibstep_duals_verify():
    dec, cert = fibstep2(2, 1)
    decop = op_decoration(dec, opposite(dec.space))
    check(decop, dual_certificate(cert))


def test_fibstep_caps():
    with pytest.raises(ValueError, match=r"dimension 15, cap 14 "
                                         r"\(SIMPLEX_CAP\)"):
        fibstep1(7, 1)
    with pytest.raises(ValueError, match="core index i=3"):
        fibstep2(2, 3)


def test_staircase_windows_match_walls():
    for n in (1, 2):
        L = ladder_complex(n)
        space = L.space
        for summand, r, s in staircase_pairs(n):
            a = abs(r - s)
            prior = set(ladder_core_cells_local(L, summand, n))
            for su, u, v in staircase_pairs(n):
                if su == summand and 0 < abs(u - v) < a:
                    sx = simplex_by_chain(space, ladder_top_chain(n, u, v, su))
                    prior |= close_cells(space, [sx.base])
            window = close_cells(
                space, [simplex_by_chain(space,
                                         ladder_top_chain(n, r, s, summand)).base])
            got = staircase_window(L, n, r, s, summand)
            # the walls never cover the staircase itself
            assert got < window
            # and everything older meets the staircase inside the walls
            assert prior & window <= got


def ladder_core_cells_local(L, summand, n):
    return band_cells(n, L, summand, lambda a: a == 0)


def test_xi_certificates_verify():
    for n in range(4):
        L, cert = xi_certificate(n)
        check(L.dec, cert)
        assert cert.end == frozenset(L.space.all_cells())


def test_xi_cap():
    with pytest.raises(ValueError, match=r"n = 4, cap 3 \(LADDER_CAP\)"):
        xi_certificate(4)


# sha256 prefixes of the certificate documents at the sizes the
# generators have built all along, so that a change to any step order
# or start set shows
PINNED = {
    (fibstep1, 1, 1): "c884d82d2d8e0ddb",
    (fibstep1, 2, 1): "44cf2631f2a227d3",
    (fibstep1, 2, 2): "39ba8b25090b978e",
    (fibstep1, 3, 1): "d956f1729164e5bc",
    (fibstep1, 3, 2): "54d79f929802e624",
    (fibstep1, 3, 3): "b1baf07fde48691a",
    (fibstep2, 1, 1): "3d19ec00ae78a2ff",
    (fibstep2, 2, 1): "e4633c6453b8a853",
    (fibstep2, 2, 2): "6b92ec4afbc67fea",
    (fibstep2, 3, 1): "3160ce941b2dd0dd",
    (fibstep2, 3, 2): "1f89f2fcba9e08a8",
    (fibstep2, 3, 3): "a625dd10a9ab7ae5",
    (xi_certificate, 0): "37186d0301160b47",
    (xi_certificate, 1): "7dfa559b072d8081",
    (xi_certificate, 2): "880ae08a3b27f34b",
    (xi_certificate, 3): "c07c98767a259c6e",
}


def test_certificate_documents_are_pinned():
    for (gen, *args), digest in PINNED.items():
        text = json.dumps(certificate_to_json(gen(*args)[1]), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, \
            (gen.__name__, args)


def test_certificate_checks_raise_certificate_errors(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(certificates, "q_core_extended_cells",
                  lambda n, i: set())
        with pytest.raises(CertificateError, match="extended core"):
            fibstep1(1, 1)
        with pytest.raises(CertificateError, match=r"fibstep2\(1,1\) ends"):
            fibstep2(1, 1)
    with monkeypatch.context() as m:
        m.setattr(certificates, "q_core_cells", lambda n, i: set())
        with pytest.raises(CertificateError, match="unexpected shape"):
            fibstep2(1, 1)
    real = anodyne.pivot_strata

    def short(n, family, i):
        strata = real(n, family, i)
        strata.pop(max(strata))
        return strata

    with monkeypatch.context() as m:
        m.setattr(anodyne, "pivot_strata", short)
        with pytest.raises(CertificateError, match="whole face"):
            fibstep1(1, 1)


def test_decoration_guard_holds_under_optimisation():
    # python -O strips asserts; the count guards must still refuse
    code = (
        "from twarrow.core import SimplicialMap, standard_simplex\n"
        "from twarrow.decor import flat, preserves_decoration\n"
        "f = SimplicialMap.identity(standard_simplex(1))\n"
        "try:\n"
        "    preserves_decoration(f, flat(standard_simplex(2)), "
        "flat(standard_simplex(1)))\n"
        "except ValueError as e:\n"
        "    print('refused:', e)\n")
    src = os.path.dirname(os.path.dirname(twarrow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "refused: the map's source" in out.stdout

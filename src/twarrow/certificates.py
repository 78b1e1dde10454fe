"""Concrete filling certificates for the twisted arrow tower.

Three generators, each returning the ambient decoration together with a
replayable certificate, all built by one sequencer of pivot runs:

- ``fibstep1(n, i)``: the extended core of the mirrored join fills the
  whole simplex through one pivot run.
- ``fibstep2(n, i)``: the plain core fills the extended core, one pivot
  run per missing stretch of the first face, then the mirror-image runs
  for the last face.
- ``xi_certificate(n)``: the doubled-chain core of the ladder fills the
  whole ladder, one pivot run per staircase simplex, stratified by how
  far the staircase deviates from the symmetric ones.

Every run re-derives its starting subcomplex from the dull family and
checks it matches what is already present, raising CertificateError
when it does not; the composite is then rechecked with the independent
verifier by the caller or the tests.
"""

from __future__ import annotations

from .anodyne import Certificate, CertificateError, pivot_certificate
from .core.complex import close_cells
from .core.maps import simplex_by_chain
from .decor import Decorated
from .zoo import (
    Ladder,
    ladder_complex,
    ladder_core_cells,
    ladder_top_chain,
    q_core_ambient,
    q_core_cells,
    q_core_dull_family,
    q_core_extended_cells,
)


def fibstep2_family(n: int, i: int, r: int):
    """The facet family of one stretch, in the positions of the face
    spanned by the vertices r..2n+1, redundant members dropped."""
    N = 2 * n + 1 - r
    fam = [{0}]
    for j in range(2 * n + 2 - 2 * r, N + 1):
        if j != 2 * n + 1 - r - i:
            fam.append({j})
    for k in range(1, n - r + 1):
        if r + k != i:
            fam.append({k, 2 * n + 1 - 2 * r - k})
    return fam


def _run_sequence(dec: Decorated, start, runs, end, name: str):
    """Fill ``start`` by one pivot run per entry (label, vertices,
    family, pivot) of ``runs``, in order, and return the certificate of
    all their steps, which must end at ``end``.

    A run fills its whole face from the face closure of its family's
    facets, so it fits when the stage meets its face in exactly those
    cells; the stage then gains the face."""
    stage = set(start)
    steps = []
    for label, verts, family, pivot in runs:
        cert = pivot_certificate(dec, family, vertices=verts, pivot=pivot)
        if stage & cert.end != cert.start:
            raise CertificateError(f"{label} has an unexpected shape")
        steps.extend(cert.steps)
        stage |= cert.end
    if stage != set(end):
        raise CertificateError(f"{name} ends short")
    return Certificate(frozenset(start), tuple(steps), frozenset(stage))


def fibstep1(n: int, i: int):
    """Fill the extended core into the whole mirrored join."""
    dec = q_core_ambient(n, i)
    runs = [(f"the extended core of fibstep1({n},{i})",
             tuple(range(2 * n + 2)), q_core_dull_family(n, i), None)]
    return dec, _run_sequence(dec, q_core_extended_cells(n, i), runs,
                              dec.space.all_cells(), f"fibstep1({n},{i})")


def fibstep2(n: int, i: int):
    """Fill the core into the extended core, one stretch at a time."""
    dec = q_core_ambient(n, i)
    runs = []
    for mirrored in (False, True):
        for r in range(n, 0, -1):
            N = 2 * n + 1 - r
            fam = fibstep2_family(n, i, r)
            if mirrored:
                fam = [{N - p for p in S} for S in fam]
                verts = tuple(range(0, 2 * n + 2 - r))
            else:
                verts = tuple(range(r, 2 * n + 2))
            runs.append((f"stretch r={r} mirrored={mirrored}", verts, fam,
                         None))
    return dec, _run_sequence(dec, q_core_cells(n, i), runs,
                              q_core_extended_cells(n, i),
                              f"fibstep2({n},{i})")


def staircase_pairs(n: int):
    """(summand, r, s) in attachment order: summand 1 then 2, raising
    strata |r-s|, forward staircases before backward ones."""
    out = []
    for summand in (1, 2):
        for a in range(1, n + 1):
            for r in range(n + 1):
                for s in range(n + 1):
                    if r - s == a:
                        out.append((summand, r, s))
            for r in range(n + 1):
                for s in range(n + 1):
                    if s - r == a:
                        out.append((summand, r, s))
    return out


def staircase_walls(n: int, r: int, s: int):
    """Wall positions and pivot of one staircase simplex.

    Forward staircases (r > s) drop positions r and 2n+2-s and fill
    through 2n+2-r; backward ones are the mirror image under the bar
    symmetry, which reverses positions.
    """
    if r > s:
        return [{r}, {2 * n + 2 - s}], 2 * n + 2 - r
    return [{r + 1}, {2 * n + 3 - s}], s + 1


def staircase_window(L: Ladder, n: int, r: int, s: int, summand: int):
    """Face closure of the two walls of one staircase simplex."""
    space = L.space
    sx = simplex_by_chain(space, ladder_top_chain(n, r, s, summand))
    family, _ = staircase_walls(n, r, s)
    walls = [space.face(sx, min(S)) for S in family]
    return close_cells(space, [w.base for w in walls])


def xi_certificate(n: int):
    """Fill the doubled-chain core into the whole ladder."""
    if n < 0:
        raise ValueError(f"n={n} is negative")
    L = ladder_complex(n)
    runs = ((f"staircase ({r},{s}) in summand {summand}",
             ladder_top_chain(n, r, s, summand), *staircase_walls(n, r, s))
            for summand, r, s in staircase_pairs(n))
    return L, _run_sequence(L.dec, ladder_core_cells(L), runs,
                            L.space.all_cells(), f"xi_certificate({n})")

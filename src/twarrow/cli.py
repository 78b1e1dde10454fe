"""The ``twarrow`` command line tool.

Subcommands
-----------

- ``zoo build``: construct a decorated complex from the compendium.
- ``tw build`` / ``tw fiber``: twisted arrow complexes and their fibers.
- ``poset mapspace`` / ``poset descends``: chain-poset mapping spaces and
  the named comparison maps.
- ``certify pivot`` / ``certify paper``: pivot-run certificates, either
  from explicit data or from the built-in generators.
- ``check``: lifting-property verdicts for a serialized map.
- ``suite``: the acceptance suite; nonzero exit on any failing check.
- ``export``: bit-stable JSON and DOT artifacts.

All emitted JSON uses sorted keys and the canonical cell ids assigned at
construction time (dimension-major, in enumeration order), so repeated
exports of the same object are byte-identical.  Suite report files carry
verdicts only; per-check CPU times go to stdout, keeping same-seed runs
byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import threading
from dataclasses import dataclass
from time import process_time

from . import DIM_CAP, check_cap, check_max_dim
from .anodyne import (
    CertificateError,
    certificate_to_json,
    all_dull_families,
    dull_start_cells,
    kappa_stratum_matches,
    pivot_certificate,
    verify_certificate,
)
from .certificates import (
    fibstep1,
    fibstep2,
    staircase_pairs,
    staircase_walls,
    staircase_window,
    xi_certificate,
)
from .core.complex import simplex_cell, standard_simplex
from .core.io import (
    are_ints,
    complex_from_json,
    complex_to_json,
    complexes_equal,
    decode_label,
    dot_skeleton,
    encode_label,
    hasse_dot,
    key_ints,
    reader,
)
from .core.maps import (
    SimplicialMap,
    find_isomorphism,
    map_by_vertices,
    simplex_by_chain,
)
from .core.ops import join, opposite, product
from .core.poset import Poset, all_posets, nerve, total_order
from .core.simplex import Simplex, check_word, nondeg
from .decor import (Decorated, decorated_subcomplex, flat,
                    preserves_decoration, sharp)
from .fibration import (
    cartesian_fibration,
    inner_fibration,
    solve_lift,
    trivial_fibration,
)
from .necklace import necklace_oracle
from .partitions import (collapse_both, collapse_upper, make_partition,
                         mapping_space, ordered_partitions)
from .posetmaps import MAP_NAMES, named_map
from .twisted import (
    cone_fiber_span,
    retraction_pair,
    tw_comparison,
    tw_fiber,
    tw_projection,
    twisted_arrow,
)
from .zoo import (
    band_cells,
    bar_element,
    boxplus_complex,
    core_cells,
    ladder_complex,
    ladder_core_cells,
    ladder_poset,
    ladder_shift_full,
    ladder_shift_partial,
    ladder_to_prism,
    ladder_top_chain,
    prism_complex,
    prism_to_ladder,
    q_complex,
    q_core_ambient,
    q_core_cells,
    q_core_extended_cells,
    q_diamond,
    q_thin_count,
    square_complex,
    star_complex,
    summand_cells,
    tau_subset,
    top_cell_cells,
)


# -- serialization -----------------------------------------------------


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def decorated_to_json(dec: Decorated) -> dict:
    obj = complex_to_json(dec.space)
    obj["thin"] = sorted(i for _, i in dec.thin)
    obj["marked"] = sorted(i for _, i in dec.marked)
    return obj


@reader("complex")
def decorated_from_json(obj: dict) -> Decorated:
    """Inverse of decorated_to_json; missing decoration keys mean flat."""
    X = complex_from_json(obj)
    for key, dim in (("thin", 2), ("marked", 1)):
        for i in obj.get(key, []):
            if not are_ints([i]):
                raise TypeError(f"{key} index {i!r} is not an integer")
            if not 0 <= i < X.n_cells(dim):
                raise ValueError(f"{key} index {i} names no cell")
    thin = {(2, i) for i in obj.get("thin", [])}
    marked = {(1, i) for i in obj.get("marked", [])}
    return Decorated(X, thin, marked)


def _map_data_json(data) -> dict:
    return {f"{d}:{i}": [list(s.word), s.base[0], s.base[1]]
            for (d, i), s in sorted(data.items())}


def map_to_json(f: SimplicialMap) -> dict:
    return {"source": complex_to_json(f.source),
            "target": complex_to_json(f.target),
            "data": _map_data_json(f.data)}


@reader("map")
def map_from_json(obj: dict):
    """A validated map plus the decorations stored with its endpoints."""
    src = decorated_from_json(obj["source"])
    tgt = decorated_from_json(obj["target"])
    data = {}
    for key, image in obj["data"].items():
        word, bd, bi = image
        if not are_ints((bd, bi, *word)):
            raise TypeError(f"map data {key!r} image {image!r} is not all "
                            f"integers")
        d, i = key_ints(key, 2, "map", "data key")
        if not 0 <= i < src.space.n_cells(d):
            raise ValueError(f"map data key {key!r} names no source cell")
        word = tuple(word)
        check_word(word, bd)
        data[(d, i)] = Simplex(word, (bd, bi))
    return SimplicialMap(src.space, tgt.space, data), src, tgt


def poset_to_json(P: Poset) -> dict:
    elems = list(P.elements)
    index = {e: k for k, e in enumerate(elems)}
    leq = sorted((index[a], index[b]) for a in elems for b in elems
                 if a != b and P.leq(a, b))
    return {"elements": [encode_label(e) for e in elems],
            "leq": [list(p) for p in leq]}


@reader("poset")
def poset_from_json(obj: dict) -> Poset:
    if not isinstance(obj["elements"], list):
        raise TypeError(f"elements entry {obj['elements']!r} is not a list")
    check_cap("CHAIN_POSET_CAP", len(obj["elements"]), "poset_from_json")
    elems = [decode_label(e) for e in obj["elements"]]
    pairs = []
    for entry in obj["leq"]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise TypeError(f"leq entry {entry!r} is not a pair")
        a, b = entry
        if not are_ints((a, b)):
            raise TypeError(f"leq pair {[a, b]} is not all integers")
        if not (0 <= a < len(elems) and 0 <= b < len(elems)):
            raise ValueError(f"leq pair {[a, b]} names no element")
        pairs.append((elems[a], elems[b]))
    return Poset(elems, pairs)


def fibration_report_json(rep) -> dict:
    out = {"property": rep.prop, "max_dim": rep.max_dim, "ok": rep.ok,
           "squares": rep.squares, "detail": rep.detail}
    if rep.counterexample is None:
        out["counterexample"] = None
    else:
        prob = rep.counterexample
        out["counterexample"] = {
            "top": _map_data_json(prob.top.data),
            "bottom": _map_data_json(prob.bottom.data),
            "marked_cells": sorted(list(c) for c in prob.marked_cells),
        }
    return out


# -- the compendium registry -------------------------------------------

ZOO_NAMES = ("q", "star", "boxtimes", "square", "r", "t",
             "qcal", "k", "kcal", "qdiamond")


def build_zoo(name: str, n: int, i: int = 1) -> Decorated:
    """One decorated compendium object; k and kcal also take the index i."""
    if n < 0:
        raise ValueError("level n must be nonnegative")
    if name == "q":
        return q_complex(n)
    if name == "qdiamond":
        return q_diamond(n)
    if name == "star":
        return star_complex(n)
    if name == "boxtimes":
        return boxplus_complex(n)
    if name == "square":
        return square_complex(n)[0]
    if name == "r":
        return ladder_complex(n).dec
    if name == "t":
        return prism_complex(n)[0]
    if name == "qcal":
        L = ladder_complex(n)
        return decorated_subcomplex(L.dec, ladder_core_cells(L))[0]
    if name in ("k", "kcal"):
        cells = q_core_cells(n, i) if name == "k" \
            else q_core_extended_cells(n, i)
        return decorated_subcomplex(q_core_ambient(n, i), cells)[0]
    raise ValueError(f"unknown zoo object {name!r}")


def export_text(kind: str, obj: str, n: int, i: int = 1) -> str:
    if kind not in ("json", "dot"):
        raise ValueError(f"unknown export kind {kind!r}")
    if n < 0:
        raise ValueError("level n must be nonnegative")
    if obj == "r-hasse":
        P = ladder_poset(n)
        if kind == "json":
            return _dump(poset_to_json(P))
        return hasse_dot(P, name=f"r{n}")
    dec = twisted_arrow(sharp(standard_simplex(n)), min(3, DIM_CAP)).dec \
        if obj == "tw" else build_zoo(obj, n, i=i)
    if kind == "json":
        return _dump(decorated_to_json(dec))
    return dot_skeleton(dec.space, marked=dec.marked,
                        name=f"{obj}{n}") + "\n"


# -- the acceptance suite ----------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """The settings of one suite run.

    ``checks`` of None enables everything; an empty tuple runs nothing.
    ``objects`` lists the simplex dimensions fed to the twisted arrow
    fibration check; ``dim_cap`` is the depth to which ``tw-oracle`` and
    ``tw-cartesian`` build twisted arrow complexes, and the ``max_dim``
    of the Cartesian fibration check in ``tw-cartesian``;
    ``inject`` of "flat-q1" replaces the scaling in the pivot example by
    the flat one, a deliberate negative control.
    """

    checks: tuple[str, ...] | None = None
    dim_cap: int = 3
    objects: tuple[int, ...] = (0, 1, 2)
    seed: int = 0
    report: str | None = None
    inject: str | None = None

    def __post_init__(self):
        check_max_dim(self.dim_cap, "dim_cap")
        for d in self.objects:
            check_max_dim(d, "object dimension")
        if self.inject not in (None, "flat-q1"):
            raise ValueError(f"unknown injection {self.inject!r}")
        if self.checks is not None:
            bad = [c for c in self.checks if c not in CHECKS]
            if bad:
                raise ValueError(f"unknown checks: {', '.join(bad)}")
            twice = sorted({c for c in self.checks
                            if self.checks.count(c) > 1})
            if twice:
                raise ValueError(f"repeated checks: {', '.join(twice)}")


def _check_tw_oracle(cfg: SuiteConfig):
    """Twisted arrow complexes of sharp poset nerves against the
    pair-poset model, with both projections."""
    seen = 0
    for size in range(1, 5):
        for P in all_posets(size):
            N = nerve(P)
            twc = twisted_arrow(sharp(N), cfg.dim_cap)
            comp = tw_comparison(P, twc)
            if not comp.is_isomorphism():
                return False, f"comparison fails on a poset of size {size}"
            f, pdata = tw_projection(twc)
            first = pdata.pr1.compose(f.compose(comp))
            if first.data != map_by_vertices(
                    comp.source, N, lambda e: e[0]).data:
                return False, f"source projection drifts at size {size}"
            second = pdata.pr2.compose(f.compose(comp))
            if second.data != map_by_vertices(
                    comp.source, opposite(N), lambda e: e[1]).data:
                return False, f"target projection drifts at size {size}"
            seen += 1
    return True, f"{seen} posets matched at depth {cfg.dim_cap}"


def _check_tw_cartesian(cfg: SuiteConfig):
    squares = 0
    for d in cfg.objects:
        twc = twisted_arrow(sharp(standard_simplex(d)), cfg.dim_cap)
        f, _ = tw_projection(twc)
        rep = cartesian_fibration(f, twc.dec, cfg.dim_cap)
        if not rep:
            return False, f"tw of the {d}-simplex: {rep.detail}"
        squares += rep.squares
    dims = ", ".join(str(d) for d in cfg.objects)
    return True, f"simplex dimensions {dims}: {squares} squares lifted"


def _check_kappa_strata(cfg: SuiteConfig):
    runs = 0
    for n in range(7):
        for fam, pivots in all_dull_families(n):
            for p in pivots:
                if not kappa_stratum_matches(n, fam, p):
                    shown = ";".join(
                        ",".join(str(v) for v in S) for S in fam)
                    return False, (f"smallest stratum wrong for family "
                                   f"{shown} at n={n}, pivot {p}")
                runs += 1
    return True, f"{runs} dull-family strata match"


def _check_pivot_certificates(cfg: SuiteConfig):
    if cfg.inject == "flat-q1":
        dec = flat(standard_simplex(3))
    else:
        dec = Decorated(standard_simplex(3),
                        thin={simplex_cell(3, t)
                              for t in ((0, 2, 3), (1, 2, 3))})
    try:
        cert = pivot_certificate(dec, [{0}, {3}], pivot=2)
    except CertificateError as e:
        return False, f"pivot 2 run rejected: {e}"
    ok, step, reason = verify_certificate(dec, cert)
    if not ok:
        return False, f"pivot 2 certificate fails at step {step}: {reason}"
    try:
        pivot_certificate(q_complex(1), [{0}, {3}], pivot=1)
        return False, "pivot 1 passed despite the unscaled triangle"
    except CertificateError:
        pass
    for gen, wanted_end in ((fibstep1, None), (fibstep2, "extended")):
        for n, i in ((1, 1), (2, 1), (2, 2)):
            dec, cert = gen(n, i)
            ok, step, reason = verify_certificate(dec, cert)
            if not ok:
                return False, (f"{gen.__name__}({n},{i}) fails at step "
                               f"{step}: {reason}")
            end = set(dec.space.all_cells()) if wanted_end is None \
                else q_core_extended_cells(n, i)
            if set(cert.end) != end:
                return False, f"{gen.__name__}({n},{i}) ends short"
    return True, "explicit example, negative control, and 6 built-in runs"


def _check_staircase(cfg: SuiteConfig):
    windows = 0
    for n in range(3):
        L = ladder_complex(n)
        space = L.space
        for summand in (1, 2):
            everything = band_cells(n, L, summand, lambda a: True)
            if everything != summand_cells(L, summand):
                return False, f"staircases miss the summand at n={n}"
            plus = band_cells(n, L, summand, lambda a: a >= 0)
            minus = band_cells(n, L, summand, lambda a: a <= 0)
            zero = band_cells(n, L, summand, lambda a: a == 0)
            if plus & minus != zero:
                return False, f"band intersection is not the seam at n={n}"
            if core_cells(L, summand) != zero:
                return False, f"doubled-chain core misses the seam at n={n}"
        stage = set(ladder_core_cells(L))
        for summand, r, s in staircase_pairs(n):
            chain = ladder_top_chain(n, r, s, summand)
            walls, _ = staircase_walls(n, r, s)
            top = top_cell_cells(L, chain)
            window = stage & top
            if window != dull_start_cells(space, chain, walls):
                return False, (f"window ({r},{s}) of summand {summand} "
                               f"at n={n} is not the stated wall pair")
            if r > s:
                # forward staircases carry the walls literally
                if walls != [{r}, {2 * n + 2 - s}] or \
                        window != staircase_window(L, n, r, s, summand):
                    return False, f"forward walls drift at n={n}, ({r},{s})"
            stage |= top
            windows += 1
        L2, cert = xi_certificate(n)
        ok, step, reason = verify_certificate(L2.dec, cert)
        if not ok:
            return False, f"ladder certificate n={n} fails: {reason}"
        if set(cert.end) != set(L2.space.all_cells()):
            return False, f"ladder certificate n={n} ends short"
    return True, f"{windows} staircase windows and 3 certificates"


def _check_mapping_spaces(cfg: SuiteConfig):
    runs = 0
    for size in range(1, 5):
        for P in all_posets(size):
            N = flat(nerve(P))
            for part in ordered_partitions(P):
                X = mapping_space(part, "two_sided", top_dim=2)
                col = collapse_both(part, N)
                M = necklace_oracle(col.dec.space, col.base0, col.base1)
                if find_isomorphism(X, M) is None:
                    return False, (f"two-sided model disagrees on a "
                                   f"poset of size {size}")
                runs += 1
                colu = collapse_upper(part, N)
                for j in sorted(part.lower, key=str):
                    Xr = mapping_space(part, "right", j=j, top_dim=2)
                    v = colu.quot(simplex_by_chain(
                        colu.quot.source, (j,))).base
                    Mr = necklace_oracle(colu.dec.space, v, colu.base1)
                    if find_isomorphism(Xr, Mr) is None:
                        return False, (f"right model disagrees on a "
                                       f"poset of size {size}")
                    runs += 1
    for upper in ({2}, {1, 2}):
        part = make_partition(total_order(2),
                              set(range(3)) - upper, upper)
        X = mapping_space(part, "right", j=0)
        if find_isomorphism(X, standard_simplex(1)) is None:
            return False, f"segment with upper part {sorted(upper)} is " \
                          f"not an interval"
    return True, f"{runs} oracle comparisons and both segment examples"


def _check_comparison_maps(cfg: SuiteConfig):
    from .partitions import chain_poset, star_partition
    from .posetmaps import cone_to_graph, graph_poset, graph_to_star, \
        star_to_graph
    for n in range(4):
        rp = retraction_pair(n)
        rt = rp.retr.compose(rp.incl)
        if rt.data != SimplicialMap.identity(rp.mirror_quot.space).data:
            return False, f"quotient retraction is not split at n={n}"
        if not (preserves_decoration(rp.incl, rp.mirror_quot, rp.cone_quot)
                and preserves_decoration(rp.retr, rp.cone_quot,
                                         rp.mirror_quot)):
            return False, f"quotient retraction forgets scaling at n={n}"
    for n in range(3):
        star = chain_poset(star_partition(n).part)
        ra, sa = graph_to_star(n), star_to_graph(n)
        if not all(ra(sa(S)) == S for S in star.elements):
            return False, f"alpha retraction is not split at n={n}"
        rb = cone_to_graph(n)
        if not all(rb(S) == S for S in graph_poset(n).elements):
            return False, f"beta retraction is not split at n={n}"
        g = named_map("G", n).mapping
        h = named_map("H", n).mapping
        if named_map("h_rho", n, i=0).mapping != g:
            return False, f"switch family misses G at n={n}"
        if named_map("h_rho", n, i=n + 1).mapping != h:
            return False, f"switch family misses H at n={n}"
    reports = 0
    for n in range(3):
        for name in MAP_NAMES:
            kws = [{}]
            if name == "zeta":
                kws = [{"i": i} for i in range(n + 1)]
            if name == "h_rho":
                kws = [{"i": i} for i in range(n + 2)]
            for kw in kws:
                r = named_map(name, n, **kw)
                if not r.markings_preserved:
                    return False, (f"{name} at n={n} drops a marking: "
                                   f"{r.marking_counterexample}")
                if r.descent is not None and not r.descent.ok:
                    return False, f"{name} at n={n} fails descent"
                reports += 1
    return True, f"retractions split and {reports} named-map reports pass"


def _check_ladder_identities(cfg: SuiteConfig):
    ladders = [ladder_complex(n) for n in range(4)]
    for n, L in enumerate(ladders):
        _, pdata = prism_complex(n)
        mu = prism_to_ladder(n, L, pdata)
        psi = ladder_to_prism(n, L, pdata)
        comp = psi.compose(mu)
        if any(comp.data[c] != nondeg(*c) for c in comp.source.all_cells()):
            return False, f"prism comparison is not split at n={n}"
    for n in range(3):
        P = ladder_poset(n)
        if len(P.elements) != 6 * (n + 1):
            return False, f"ladder size is off at n={n}"
        L = ladders[n]
        for c in L.space.cells(2):
            ch = L.space.labels[c]
            mirror_cell = L.cell_of_chain(
                tuple(bar_element(u) for u in reversed(ch)))
            if (c in L.dec.thin) != (mirror_cell in L.dec.thin):
                return False, f"scaling is not bar self-dual at n={n}"
    n = 1
    L = ladders[n]
    for j in range(n + 2):
        if not preserves_decoration(ladder_shift_partial(n, j, L),
                                    L.dec, L.dec):
            return False, f"partial shift {j} is not scaled"
        if not preserves_decoration(ladder_shift_full(n, j, L),
                                    L.dec, L.dec):
            return False, f"full shift {j} is not scaled"
    return True, "prism splitting, sizes, self-duality, scaled shifts"


def _check_scaling_counts(cfg: SuiteConfig):
    for n in range(5):
        dec = q_complex(n)
        count = len(dec.thin)
        formula = q_thin_count(n)
        if count != formula:
            return False, f"thin count at n={n} is {count}, not {formula}"
        labs = {dec.space.labels[c] for c in dec.thin}
        if {tau_subset(n, t) for t in labs} != labs:
            return False, f"scaling is not mirror invariant at n={n}"
    return True, "closed-form counts and mirror invariance at n <= 4"


def _check_cone_fiber(cfg: SuiteConfig):
    span = cone_fiber_span(sharp(standard_simplex(1)), 1, 2)
    rep = trivial_fibration(span.pi, 2)
    if not rep:
        return False, f"cone-fiber projection: {rep.detail}"
    p = map_by_vertices(standard_simplex(1), standard_simplex(0), lambda v: 0)
    neg = trivial_fibration(p, 1)
    if neg.ok:
        return False, "interval over a point passed the boundary test"
    if "dimension 1" not in neg.detail:
        return False, f"negative control failed early: {neg.detail}"
    if neg.counterexample is None or \
            solve_lift(neg.counterexample) is not None:
        return False, "negative control lacks an unsolvable square"
    return True, f"projection lifts {rep.squares} squares; control fails"


def _check_infrastructure(cfg: SuiteConfig):
    rng = random.Random(cfg.seed)
    pool = [P for size in range(1, 6) for P in all_posets(size)]
    spaces = [standard_simplex(3), q_complex(2).space,
              ladder_complex(1).space,
              twisted_arrow(sharp(standard_simplex(2)), 3).space]
    spaces += [nerve(P) for P in rng.sample(pool, 6)]
    for X in spaces:
        X.validate()
        top = max(X.counts, default=0)
        for m in range(top + 2):
            sims = list(X.simplices(m))
            if len(set(sims)) != len(sims):
                return False, f"duplicate normal forms in dimension {m}"
    for P in pool:
        A, B = opposite(nerve(P)), nerve(P.opposite())
        if A.counts != B.counts or \
                {A.labels[c] for c in A.all_cells()} != \
                {B.labels[c] for c in B.all_cells()}:
            return False, "opposite nerve disagrees with the opposite poset"
    small = [P for P in pool if len(P.elements) <= 3]

    def pair():
        P = rng.choice(small)
        return P, rng.choice([R for R in small
                              if len(R.elements) + len(P.elements) <= 5])

    for _ in range(4):
        P, Q = pair()
        data = product(nerve(P), nerve(Q))
        N = nerve(P.product(Q))
        if data.complex.counts != N.counts or \
                {data.complex.labels[c]
                 for c in data.complex.all_cells()} != \
                {N.labels[c] for c in N.all_cells()}:
            return False, "product of nerves drifts from the product poset"
    for p, q in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)):
        J = join(standard_simplex(p), standard_simplex(q))
        if find_isomorphism(J.complex, standard_simplex(p + q + 1)) is None:
            return False, f"join of simplices {p},{q} is not a simplex"
    for _ in range(3):
        P, Q = pair()
        els = [("a", e) for e in P.elements] + [("b", e) for e in Q.elements]
        pairs = [(("a", x), ("a", y)) for x in P.elements
                 for y in P.elements if x != y and P.leq(x, y)]
        pairs += [(("b", x), ("b", y)) for x in Q.elements
                  for y in Q.elements if x != y and Q.leq(x, y)]
        pairs += [(("a", x), ("b", y)) for x in P.elements
                  for y in Q.elements]
        J = join(nerve(P), nerve(Q))
        N = nerve(Poset(els, pairs))
        if J.complex.counts != N.counts or \
                find_isomorphism(J.complex, N) is None:
            return False, "join of nerves drifts from the ordinal sum"
    trips = 0
    for name in ZOO_NAMES:
        for n in range(3):
            try:
                dec = build_zoo(name, n)
            except ValueError:
                continue
            # the C encoder's compact text; _dump's differs only in layout
            text = json.dumps(decorated_to_json(dec), sort_keys=True)
            back = decorated_from_json(json.loads(text))
            if not complexes_equal(dec.space, back.space) or \
                    back.thin != dec.thin or back.marked != dec.marked:
                return False, f"round trip altered {name} at n={n}"
            if json.dumps(decorated_to_json(build_zoo(name, n)),
                          sort_keys=True) != text:
                return False, f"rebuilt {name} at n={n} serializes apart"
            trips += 1
    if export_text("dot", "r-hasse", 1) != export_text("dot", "r-hasse", 1):
        return False, "repeated exports differ"
    return True, (f"{len(spaces)} complexes, {len(pool)} posets, "
                  f"{trips} round trips")


CHECKS = {
    "comparison-maps": _check_comparison_maps,
    "cone-fiber": _check_cone_fiber,
    "infrastructure": _check_infrastructure,
    "kappa-strata": _check_kappa_strata,
    "ladder-identities": _check_ladder_identities,
    "mapping-spaces": _check_mapping_spaces,
    "pivot-certificates": _check_pivot_certificates,
    "scaling-counts": _check_scaling_counts,
    "staircase-decomposition": _check_staircase,
    "tw-cartesian": _check_tw_cartesian,
    "tw-oracle": _check_tw_oracle,
}

# the checks from the most CPU time to the least (0.33 s down to under
# 0.01 s in a sequential suite on a 2-CPU Xeon), the order in which they
# are claimed: the long ones start at once and the short ones come last,
# so a process slowed by other load on its CPU claims fewer of them and
# the two processes finish close together
HEAVIEST_FIRST = ("infrastructure", "ladder-identities", "comparison-maps",
                  "kappa-strata", "staircase-decomposition",
                  "mapping-spaces", "tw-oracle", "tw-cartesian",
                  "pivot-certificates", "scaling-counts", "cone-fiber")


# generation 0's collection threshold while the suite runs: the checks
# build long-lived face tables whose Simplex entries the collector would
# otherwise re-walk many times, though they hold no cycles
SUITE_GC_THRESHOLD = 10_000


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _timed(name: str, config: SuiteConfig) -> tuple[bool, str, float]:
    t0 = process_time()
    ok, detail = CHECKS[name](config)
    return ok, detail, process_time() - t0


def _claimed(claims: int, enabled, config: SuiteConfig):
    """Claim checks off the pipe ``claims``, one byte (an index into
    ``enabled``) at a time, and yield (name, (ok, detail, CPU seconds))
    for each until the pipe is empty."""
    while byte := os.read(claims, 1):
        name = enabled[byte[0]]
        yield name, _timed(name, config)


def _helper(claims: int, replies: int, enabled, config: SuiteConfig):
    """The forked helper's whole life: it runs the checks it claims and
    writes each result to ``replies`` as one JSON line.  It never
    returns; a check that raises ends it with that check unreported,
    and the parent runs that check again."""
    try:
        for name, result in _claimed(claims, enabled, config):
            os.write(replies, (json.dumps([name, *result]) + "\n").encode())
    finally:
        # no exit handlers, no flush of buffers copied from the parent
        os._exit(0)


def run_suite(config: SuiteConfig):
    """Run the selected checks; returns (exit status, report document).

    The checks' indices go into a pipe, heaviest first, and each check
    is run by the process that claims it.  When two CPUs are free,
    ``os.fork`` exists, no other thread runs and at least two checks are
    enabled, a helper forked after import claims checks beside this
    process; otherwise this process claims them all.  A check the helper
    claimed but did not report is run again here, so its exception
    leaves this function.
    Each printed time is that check's own CPU time.  The report lists
    the checks sorted by name.  Timings are printed, never recorded,
    keeping same-seed reports byte-identical.

    While it runs, the objects alive on entry are frozen out of the
    cyclic collector, unless the caller froze some already, and
    generation 0's threshold is raised; both are restored on the way
    out.
    """
    enabled = tuple(CHECKS) if config.checks is None else config.checks
    results: dict[str, tuple[bool, str, float]] = {}
    threshold = gc.get_threshold()
    claims, fill = os.pipe()
    os.write(fill, bytes(sorted(
        range(len(enabled)),
        key=lambda i: HEAVIEST_FIRST.index(enabled[i]))))
    os.close(fill)
    pid, replies = 0, None
    # a caller's own freeze is left as it is, since unfreeze undoes it
    thaw = not gc.get_freeze_count()
    if thaw:
        gc.freeze()
    gc.set_threshold(SUITE_GC_THRESHOLD, *threshold[1:])
    try:
        if len(enabled) >= 2 and hasattr(os, "fork") and _cpus() >= 2 \
                and threading.active_count() == 1:
            r, w = os.pipe()
            replies = os.fdopen(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _helper(claims, w, enabled, config)
            finally:
                os.close(w)
        results.update(_claimed(claims, enabled, config))
        if replies is not None:
            # a helper killed mid-line leaves a last line without "\n"
            for name, *result in map(json.loads,
                                     replies.read().split("\n")[:-1]):
                results[name] = tuple(result)
        for name in enabled:
            if name not in results:
                results[name] = _timed(name, config)
    except BaseException:
        if pid:
            import signal  # only here: it takes a millisecond to import
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claims)
        if replies is not None:
            replies.close()
        if pid:
            os.waitpid(pid, 0)
        gc.set_threshold(*threshold)
        if thaw:
            gc.unfreeze()
    checks = [{"check": name, "ok": results[name][0],
               "detail": results[name][1]} for name in sorted(results)]
    ok = all(c["ok"] for c in checks)
    report = {
        "config": {
            "checks": None if config.checks is None else list(config.checks),
            "dim_cap": config.dim_cap,
            "objects": list(config.objects),
            "seed": config.seed,
            "inject": config.inject,
        },
        "checks": checks,
        "ok": ok,
    }
    for name in sorted(results):
        okc, detail, secs = results[name]
        verdict = "ok " if okc else "FAIL"
        print(f"{verdict} {name:<24} {secs:7.2f}s  {detail}")
    if config.report is not None:
        _write_text(config.report, _dump(report))
    return (0 if ok else 1), report


# -- argument handling -------------------------------------------------


def _parse_label(text: str):
    """A vertex label: a text starting with '{' is one as the writers
    encode it ('{"t": [0, 0]}' is the tuple (0, 0)), any other an int
    when it reads as one and the text itself otherwise."""
    if text.startswith("{"):
        try:
            return decode_label(json.loads(text))
        except (ValueError, TypeError, RecursionError):
            raise ValueError(f"{text!r} is not an encoded label") from None
    return int(text) if text.lstrip("-").isdigit() else text


def _parse_labels(text: str) -> set:
    """Labels split on ',', or a JSON list of labels as the writers
    encode them when the text starts with '['."""
    if not text.startswith("["):
        return {_parse_label(t) for t in text.split(",")}
    try:
        return {decode_label(e) for e in json.loads(text)}
    except (ValueError, TypeError, RecursionError):
        raise ValueError(f"{text!r} is not a list of encoded labels") from None


def _int(flag: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{flag}: {token!r} is not an integer") from None


def _parse_family(text: str):
    """Members separated by ';', vertices by ',' or single digits."""
    fam = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        fam.append({_int("--dull", v)
                    for v in (token.split(",") if "," in token else token)})
    if not fam:
        raise ValueError("empty family")
    return fam


def _parse_triangles(text: str):
    tris = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        verts = [_int("--thin", v)
                 for v in (token.split("-") if "-" in token else token)]
        if len(verts) != 3:
            raise ValueError(f"{token!r} does not name a triangle")
        tris.append(tuple(sorted(verts)))
    return tris


def _summary(dec: Decorated) -> str:
    counts = {d: dec.space.counts[d] for d in sorted(dec.space.counts)}
    return (f"cells {counts}, {len(dec.thin)} thin triangles, "
            f"{len(dec.marked)} marked edges")


def cmd_zoo(args) -> int:
    dec = build_zoo(args.name, args.n, i=args.i)
    print(f"{args.name} at n={args.n}: {_summary(dec)}")
    if args.json is not None:
        _write_text(args.json, _dump(decorated_to_json(dec)))
    return 0


def _load_decorated(path: str) -> Decorated:
    """A decorated complex from disk; bare complexes count as sharp."""
    obj = _load_json(path)
    dec = decorated_from_json(obj)
    if "thin" not in obj and "marked" not in obj:
        dec = sharp(dec.space)
    return dec


def cmd_tw(args) -> int:
    src = _load_decorated(args.complex)
    twc = twisted_arrow(src, args.max_dim)
    if args.mode == "build":
        print(f"tw at depth {args.max_dim}: {_summary(twc.dec)}")
        if args.out is not None:
            _write_text(args.out, _dump(decorated_to_json(twc.dec)))
        if args.dot is not None:
            _write_text(args.dot, dot_skeleton(
                twc.space, marked=twc.dec.marked, name="tw") + "\n")
        return 0
    x = None if args.x is None else _parse_label(args.x)
    y = None if args.y is None else _parse_label(args.y)
    fib, _ = tw_fiber(twc, x=x, y=y)
    print(f"fiber over x={x}, y={y}: {_summary(fib)}")
    if args.json is not None:
        _write_text(args.json, _dump(decorated_to_json(fib)))
    return 0


def cmd_poset(args) -> int:
    if args.mode == "mapspace":
        if args.top_dim is not None:
            check_max_dim(args.top_dim, "--top-dim")
        if args.chain is not None:
            check_cap("CHAIN_POSET_CAP", args.chain + 1, "--chain")
            P = total_order(args.chain)
        elif args.poset is not None:
            P = poset_from_json(_load_json(args.poset))
        else:
            raise ValueError("mapspace needs --chain or --poset")
        upper = _parse_labels(args.upper)
        lower = [e for e in P.elements if e not in upper]
        part = make_partition(P, lower, upper)
        mode = args.space_mode.replace("-", "_")
        j = None if args.j is None else _parse_label(args.j)
        X = mapping_space(part, mode, j=j, top_dim=args.top_dim)
        counts = {d: X.counts[d] for d in sorted(X.counts)}
        print(f"mapping space ({args.space_mode}): cells {counts}")
        if args.json is not None:
            _write_text(args.json, _dump(complex_to_json(X)))
        return 0
    kw = {} if args.i is None else {"i": args.i}
    r = named_map(args.map, args.n, **kw)
    ok = r.markings_preserved and (r.descent is None or r.descent.ok)
    verdict = "passes" if ok else "FAILS"
    scope = "descends and keeps markings" if r.descent is not None \
        else "keeps markings"
    print(f"{args.map} at n={args.n} {verdict}: {scope}")
    if not r.markings_preserved:
        print(f"  dropped marking: {r.marking_counterexample}")
    if r.descent is not None and not r.descent.ok:
        print(f"  descent counterexample: {r.descent.counterexample}")
    return 0 if ok else 1


def cmd_certify(args) -> int:
    if args.mode == "pivot":
        thin = set() if args.thin is None else \
            {simplex_cell(args.n, t) for t in _parse_triangles(args.thin)}
        dec = Decorated(standard_simplex(args.n), thin=thin)
        family = _parse_family(args.dull)
        pivot = None if args.pivot == "auto" else _int("--pivot", args.pivot)
        try:
            cert = pivot_certificate(dec, family, pivot=pivot)
        except CertificateError as e:
            print(f"no certificate: {e}", file=sys.stderr)
            return 1
    else:
        which = args.which
        if which == "xi":
            L, cert = xi_certificate(args.n)
            dec = L.dec
        else:
            if args.i is None:
                raise ValueError(f"{which} needs --i")
            gen = fibstep1 if which == "fibstep1" else fibstep2
            dec, cert = gen(args.n, args.i)
    ok, step, reason = verify_certificate(dec, cert)
    if not ok:
        print(f"replay fails at step {step}: {reason}", file=sys.stderr)
        return 1
    print(f"certificate verified: {len(cert.steps)} steps, "
          f"{len(cert.end) - len(cert.start)} cells added")
    if args.out is not None:
        _write_text(args.out, _dump(certificate_to_json(cert)))
    return 0


def cmd_check(args) -> int:
    f, src, _ = map_from_json(_load_json(args.map))
    if args.property == "inner-fibration":
        rep = inner_fibration(f, args.max_dim)
    elif args.property == "cartesian":
        rep = cartesian_fibration(f, src, args.max_dim)
    else:
        rep = trivial_fibration(f, args.max_dim)
    verdict = "passes" if rep.ok else f"fails: {rep.detail}"
    print(f"{rep.prop} at depth {rep.max_dim} {verdict} "
          f"({rep.squares} squares)")
    if args.report is not None:
        _write_text(args.report, _dump(fibration_report_json(rep)))
    return 0 if rep.ok else 1


def cmd_suite(args) -> int:
    checks = None
    if args.checks is not None:
        checks = tuple(t for t in args.checks.split(",") if t)
    objects = tuple(_int("--objects", t) for t in args.objects.split(",") if t)
    config = SuiteConfig(checks=checks, dim_cap=args.dim_cap,
                         objects=objects, seed=args.seed,
                         report=args.report, inject=args.inject)
    status, report = run_suite(config)
    ran = len(report["checks"])
    print(f"{'suite ok' if status == 0 else 'suite FAILED'} "
          f"({ran} checks)")
    return status


def cmd_export(args) -> int:
    _write_text(args.out, export_text(args.kind, args.object, args.n,
                                      i=args.i))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twarrow",
        description="workbench for finite scaled and marked complexes")
    sub = parser.add_subparsers(dest="command")

    p_zoo = sub.add_parser("zoo", help="compendium objects")
    zsub = p_zoo.add_subparsers(dest="mode", required=True)
    p = zsub.add_parser("build", help="construct one object")
    p.add_argument("name", choices=ZOO_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=1,
                   help="index for k and kcal (default 1)")
    p.add_argument("--json", nargs="?", const="-", metavar="OUT")
    p.set_defaults(func=cmd_zoo)

    p_tw = sub.add_parser("tw", help="twisted arrow complexes")
    tsub = p_tw.add_subparsers(dest="mode", required=True)
    p = tsub.add_parser("build", help="build and optionally export")
    p.add_argument("--complex", required=True, metavar="FILE",
                   help="decorated complex; bare complexes count as sharp")
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--dot", metavar="FILE",
                   help="DOT of the 1-skeleton, marked edges bold")
    p.set_defaults(func=cmd_tw)
    p = tsub.add_parser("fiber", help="fiber over a pair of vertices")
    p.add_argument("--complex", required=True, metavar="FILE")
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--json", nargs="?", const="-", metavar="OUT")
    p.set_defaults(func=cmd_tw)

    p_poset = sub.add_parser("poset", help="partitions and named maps")
    psub = p_poset.add_subparsers(dest="mode", required=True)
    p = psub.add_parser("mapspace", help="chain-poset mapping space")
    p.add_argument("--poset", metavar="FILE")
    p.add_argument("--chain", type=int, metavar="N",
                   help="use the total order 0..N")
    p.add_argument("--upper", required=True,
                   help="upper part: comma-separated, or a JSON label list")
    p.add_argument("--j", help="base vertex for mode right")
    p.add_argument("--mode", dest="space_mode", default="two-sided",
                   choices=("right", "two-sided"))
    p.add_argument("--top-dim", type=int, default=None)
    p.add_argument("--json", nargs="?", const="-", metavar="OUT")
    p.set_defaults(func=cmd_poset)
    p = psub.add_parser("descends", help="check one named map")
    p.add_argument("--map", required=True, choices=MAP_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.set_defaults(func=cmd_poset)

    p_cert = sub.add_parser("certify", help="filling certificates")
    csub = p_cert.add_subparsers(dest="mode", required=True)
    p = csub.add_parser("pivot", help="pivot run from explicit data")
    p.add_argument("--dull", required=True,
                   help="family like \"0;3\" or \"0,1;3\"")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--thin", help="thin triangles like \"023,123\"")
    p.add_argument("--pivot", default="auto")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_certify)
    p = csub.add_parser("paper", help="built-in certificate generators")
    p.add_argument("--which", required=True,
                   choices=("fibstep1", "fibstep2", "xi"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("check", help="lifting-property verdicts")
    p.add_argument("property",
                   choices=("inner-fibration", "cartesian", "trivial"))
    p.add_argument("--map", required=True, metavar="FILE")
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--report", metavar="FILE")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("suite", help="run the acceptance checks")
    p.add_argument("--checks", default=None,
                   help="comma-separated names; empty runs nothing")
    p.add_argument("--dim-cap", type=int, default=3)
    p.add_argument("--objects", default="0,1,2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", metavar="FILE")
    p.add_argument("--inject", default=None,
                   help="negative control, e.g. flat-q1")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("export", help="bit-stable JSON and DOT artifacts")
    p.add_argument("kind", choices=("json", "dot"))
    p.add_argument("object", help="a zoo name, tw, or r-hasse")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

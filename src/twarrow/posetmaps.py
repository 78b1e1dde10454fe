"""Named maps between the chain-poset models of mapping spaces.

The cone, slice, staircase and prism partitions all present mapping
spaces as quotients of chain posets, and the comparisons between those
presentations are induced by elementwise maps of chain subsets.  This
module collects them under their working names:

  zeta      doubles a joint set by its mirror, between interval posets
  B         sends a slice chain to its staircase history
  G, H      the two extreme prism-to-cone comparisons
  h_rho     interpolates between G and H, mirroring only columns >= i
  s_alpha   slice model into the graph subposet of the cone model
  s_beta    graph subposet into the full cone model
  r_alpha   graph retraction back onto the slice model
  r_beta    cone straightening onto the graph subposet
  collapse  prism chains onto slice chains, forgetting columns

Each instantiation is checked for monotonicity, tested against the
truncation congruences on both sides, and checked against the derived
edge markings.  Pivots of a truncation depend only on the first member
of a flag, so a map respects the congruence on all flags exactly when
it does on inclusion pairs; descent checks therefore run over pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from . import check_cap
from .core.poset import Poset
from .partitions import (
    Collapse,
    OrderedPartition,
    boxplus_partition,
    chain_poset,
    collapse_both,
    cone_partition,
    marked_chain_edge,
    q_partition,
    segments,
    square_partition,
    star_partition,
    truncate_chain,
)
from .zoo import mirror, q_thin_triangle

# the decorated partitions behind the cone kinds, by name
PARTITIONS = {"q": q_partition, "star": star_partition,
              "boxplus": boxplus_partition, "square": square_partition}


def interval_poset(i: int, j: int) -> Poset:
    """Subsets of the integer interval [i, j] containing both endpoints,
    under inclusion.  These index the joints of necklaces from i to j."""
    if not i < j:
        raise ValueError("interval needs i < j")
    check_cap("CHAIN_ELEMENTS_CAP", 2 ** (j - i - 1), "interval_poset")
    mids = range(i + 1, j)
    els = [frozenset({i, j}) | frozenset(c)
           for r in range(len(mids) + 1)
           for c in itertools.combinations(mids, r)]
    els.sort(key=lambda S: (len(S), tuple(sorted(S))))
    return Poset(els, [(S, T) for S in els for T in els if S <= T])


def segment_marked(thin3, S, T) -> bool:
    """Ambient-rule marking for interval posets: cut T at the members
    of S and ask every triple inside each piece to be thin."""
    for seg in segments(tuple(sorted(T)), S):
        for tri in itertools.combinations(seg, 3):
            if not thin3(tri):
                return False
    return True


# -- the graph subposet of the cone model ------------------------------


def in_graph(n: int, S: frozenset) -> bool:
    """Membership in the graph subposet: the upper run must be a full
    terminal interval whose mirror already sits in the lower part, and
    the cone point is always present."""
    v = 2 * n + 2
    if v not in S:
        return False
    S0 = {s for s in S if s <= n}
    S1 = {s for s in S if n + 1 <= s <= 2 * n + 1}
    if not S0:
        return False
    if not S1:
        return True
    m = min(S1)
    return S1 == set(range(m, 2 * n + 2)) and set(range(mirror(n, m) + 1)) <= S0


@lru_cache(maxsize=None)
def graph_poset(n: int) -> Poset:
    P = chain_poset(cone_partition("boxplus", n))
    return P.subposet([S for S in P.elements if in_graph(n, S)])


# -- element maps ------------------------------------------------------


def _lower(n, S):
    return frozenset(s for s in S if s <= n)


def star_to_q(n: int):
    """B: replace the apex by the mirror image of the lower chain; also
    zeta, which drops a joint set's far endpoint and adjoins the mirror
    of the rest."""
    def f(S):
        S0 = _lower(n, S)
        return S0 | frozenset(mirror(n, s) for s in S0)
    return f


def star_to_graph(n: int):
    """s_alpha: swap the apex for the cone point."""
    v = 2 * n + 2
    def f(S):
        return _lower(n, S) | {v}
    return f


def graph_to_star(n: int):
    """r_alpha: forget the upper run, keep the apex."""
    def f(S):
        return _lower(n, S) | {n + 1}
    return f


def graph_to_cone(n: int):
    """s_beta: the graph subposet sits inside the cone model as is."""
    return lambda S: S


def cone_to_graph(n: int):
    """r_beta: complete the upper run to a terminal interval, add its
    mirror below and the cone point on top."""
    v = 2 * n + 2
    def f(S):
        S0 = _lower(n, S)
        S1 = {s for s in S if n + 1 <= s <= 2 * n + 1}
        if not S1:
            return frozenset(S)
        m = min(S1)
        return (S0 | frozenset(range(mirror(n, m) + 1))
                | frozenset(range(m, 2 * n + 2)) | {v})
    return f


def _columns(S):
    # lower columns of a prism chain
    return {i for i, e in S if e == 0}


def square_to_cone_mirrored(n: int):
    """G: record the whole history of the lower columns."""
    return square_to_cone_partial(n, 0)


def square_to_cone_mirrored_bare(n: int):
    # footnote variant of G without the cone point
    g, v = square_to_cone_mirrored(n), 2 * n + 2
    return lambda S: g(S) - {v}


def square_to_cone_plain(n: int):
    """H: forget the upper columns entirely."""
    return square_to_cone_partial(n, n + 1)


def square_to_cone_partial(n: int, i: int):
    """h_rho: mirror only the columns at or past the switch index."""
    if not 0 <= i <= n + 1:
        raise ValueError(f"switch index {i} outside 0..{n + 1}")
    v = 2 * n + 2
    def f(S):
        S0 = _columns(S)
        return (frozenset(S0)
                | frozenset(mirror(n, s) for s in S0 if s >= i) | {v})
    return f


def square_to_star(n: int):
    """collapse: forget columns, send every upper element to the apex."""
    def f(S):
        return frozenset(_columns(S)) | {n + 1}
    return f


# -- descent and marking checks ----------------------------------------


@dataclass
class DescentReport:
    ok: bool
    counterexample: tuple | None = None


def descends(fn, src_part: OrderedPartition, tgt_part: OrderedPartition,
             domain: Poset | None = None) -> DescentReport:
    """Exhaustively check that flags with equal two-sided truncations
    stay that way.

    Runs over every inclusion pair of the (possibly restricted) chain
    poset; a counterexample is a pair of flags with equal source keys
    and different image keys.
    """
    P = chain_poset(src_part) if domain is None else domain
    seen: dict = {}
    for S in P.elements:
        for T in P.elements:
            if not S <= T:
                continue
            key = truncate_chain(src_part, (S, T), "A")
            img = truncate_chain(tgt_part, (fn(S), fn(T)), "A")
            if key in seen:
                img0, flag0 = seen[key]
                if img0 != img:
                    return DescentReport(False, (flag0, (S, T)))
            else:
                seen[key] = (img, (S, T))
    return DescentReport(True)


@lru_cache(maxsize=None)
def _compendium_collapse(kind: str, n: int) -> Collapse:
    dp = PARTITIONS[kind](n)
    return collapse_both(dp.part, dp.dec)


def chain_edge_marked(kind: str, n: int, S, T) -> bool:
    part = PARTITIONS[kind](n).part
    return marked_chain_edge(part, _compendium_collapse(kind, n), S, T)


def _markings_preserved(fn, src_poset, src_marked, tgt_marked):
    for S in src_poset.elements:
        for T in src_poset.elements:
            if S < T and src_marked(S, T):
                fS, fT = fn(S), fn(T)
                if fS != fT and not tgt_marked(fS, fT):
                    return False, (S, T)
    return True, None


# -- assembled reports -------------------------------------------------


@dataclass
class MapReport:
    name: str
    n: int
    params: dict
    source: Poset
    target: Poset
    mapping: dict = field(repr=False)
    descent: DescentReport | None
    markings_preserved: bool
    marking_counterexample: tuple | None = None


def _switch_index(name, n, params, top):
    if "i" not in params:
        raise ValueError(f"{name} needs a switch index i in 0..{top}")
    i = params["i"]
    if not 0 <= i <= top:
        raise ValueError(f"{name} index {i} outside 0..{top}")
    return i


# name: source kind, target kind, element map (h_rho's takes i too)
_CHAIN_MAPS = {
    "B": ("star", "q", star_to_q),
    "G": ("square", "boxplus", square_to_cone_mirrored),
    "H": ("square", "boxplus", square_to_cone_plain),
    "h_rho": ("square", "boxplus", square_to_cone_partial),
    "s_alpha": ("star", "boxplus", star_to_graph),
    "s_beta": ("boxplus", "boxplus", graph_to_cone),
    "r_alpha": ("boxplus", "star", graph_to_star),
    "r_beta": ("boxplus", "boxplus", cone_to_graph),
    "collapse": ("square", "star", square_to_star),
}
MAP_NAMES = ("zeta", *_CHAIN_MAPS)


def _spec(name: str, n: int, params: dict):
    """Source poset, target poset, map, and the decorations to check."""
    if name not in MAP_NAMES:
        raise ValueError(f"unknown map name {name!r}")
    for key in params:
        if key != "i" or name not in ("zeta", "h_rho"):
            raise ValueError(f"{name} takes no parameter {key!r}")
    if name == "zeta":
        i = _switch_index(name, n, params, n)
        src = interval_poset(i, n + 1)
        tgt = interval_poset(i, 2 * n + 1 - i)
        src_marked = lambda S, T: segment_marked(lambda t: max(t) <= n, S, T)
        tgt_marked = lambda S, T: segment_marked(
            lambda t: q_thin_triangle(n, t), S, T)
        return src, tgt, star_to_q(n), None, src_marked, tgt_marked
    *kinds, make = _CHAIN_MAPS[name]
    sp, tp = (cone_partition(k, n) for k in kinds)
    if name == "h_rho":
        fn = make(n, _switch_index(name, n, params, n + 1))
    else:
        fn = make(n)
    # s_alpha and r_beta land in the graph subposet; r_alpha and s_beta
    # start from it, with the marking its ambient chain poset induces
    src = graph_poset(n) if name in ("s_beta", "r_alpha") \
        else chain_poset(sp)
    tgt = graph_poset(n) if name in ("s_alpha", "r_beta") \
        else chain_poset(tp)
    dom = src if name in ("s_beta", "r_alpha") else None
    src_marked = lambda S, T: chain_edge_marked(kinds[0], n, S, T)
    tgt_marked = lambda S, T: chain_edge_marked(kinds[1], n, S, T)
    return src, tgt, fn, (sp, tp, dom), src_marked, tgt_marked


def named_map(name: str, n: int, **params) -> MapReport:
    """Instantiate a named map and run all its checks.

    ``zeta`` and ``h_rho`` take the switch index ``i``; a parameter the
    map does not take is refused.  Raises if the instantiation is not a
    monotone map landing in the stated target; that only happens on
    formula bugs, never on valid parameters.
    """
    src, tgt, fn, descent_data, src_marked, tgt_marked = _spec(name, n, params)
    targets = set(tgt.elements)
    mapping = {}
    for S in src.elements:
        fS = fn(S)
        if fS not in targets:
            raise ValueError(
                f"{name} at n={n} is not a map into its target: "
                f"{sorted(S)} lands outside, at {sorted(fS)}")
        mapping[S] = fS
    for S in src.elements:
        for T in src.elements:
            if src.leq(S, T) and not tgt.leq(mapping[S], mapping[T]):
                raise ValueError(
                    f"{name} at n={n} is not monotone: {sorted(S)} <= "
                    f"{sorted(T)} but images are not ordered")
    descent = None
    if descent_data is not None:
        sp, tp, dom = descent_data
        descent = descends(fn, sp, tp, domain=dom)
    ok, bad = _markings_preserved(fn, src, src_marked, tgt_marked)
    return MapReport(name, n, dict(params), src, tgt, mapping,
                     descent, ok, bad)

"""Per-layer tracing of twarrow, installed from outside the package.

``Tracer.install`` replaces each function named in ``TARGETS`` by a
wrapper, in every ``twarrow`` module namespace that binds it (modules
import functions by name, so patching the defining module alone would
miss most calls), and methods on their class.  A wrapper records a span
around the call: its self time is the span minus the time spent in
wrapped child spans.  A recursive call of a function that is already
open is counted in ``calls`` but opens no span of its own, so its time
lands once, in the outer span.  Spans are folded into per-function
totals in memory; ``metrics`` reads them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from dataclasses import dataclass, field
from time import perf_counter


def _cells(res) -> int:
    """``size()`` of the complex a construction returned."""
    if isinstance(res, tuple):
        res = res[0]
    for attr in ("space", "complex"):
        if hasattr(res, attr):
            res = getattr(res, attr)
    return res.size()


def _replayed(a, k) -> int:
    cert = a[1] if len(a) > 1 else k["cert"]
    return len(cert.steps)


# observers: (total, (args, kwargs, result) -> amount added to it)
CELLS = (("cells_out", lambda a, k, r: _cells(r)),)
FOUND = (("found", lambda a, k, r: r is not None),)
SQUARES = (("squares", lambda a, k, r: r.squares),)


@dataclass(frozen=True)
class Target:
    """One traced function: the metric prefix, where it is defined, the
    stats reported, the totals observed from its calls, and a function
    whose calls made inside this one's spans are counted."""

    prefix: str
    module: str
    qualname: str
    stats: tuple
    observe: tuple = ()
    inner: str | None = None


_CS = ("calls", "self_s")

TARGETS = (
    Target("core.complex.SimplicialSet.face", "twarrow.core.complex",
           "SimplicialSet.face", _CS),
    Target("core.complex.SimplicialSet.simplices", "twarrow.core.complex",
           "SimplicialSet.simplices", _CS),
    Target("core.complex.SimplicialSet.validate", "twarrow.core.complex",
           "SimplicialSet.validate", ("self_s",)),
    Target("core.ops.product", "twarrow.core.ops", "product",
           _CS + ("cells_out",), CELLS),
    Target("core.ops.glue", "twarrow.core.ops", "glue",
           _CS + ("cells_out",), CELLS),
    Target("core.ops.quotient_by_key", "twarrow.core.ops", "quotient_by_key",
           _CS + ("cells_out",), CELLS),
    Target("core.poset.Poset.__init__", "twarrow.core.poset",
           "Poset.__init__", _CS),
    Target("core.poset.Poset.lt", "twarrow.core.poset", "Poset.lt",
           ("calls",)),
    Target("core.poset.Poset.chains", "twarrow.core.poset", "Poset.chains",
           _CS),
    Target("core.poset.nerve", "twarrow.core.poset", "nerve",
           _CS + ("cells_out",), CELLS),
    Target("core.poset.all_posets", "twarrow.core.poset", "all_posets",
           _CS + ("classes_out", "keys_per_class"),
           (("classes_out", lambda a, k, r: len(r)),),
           inner="core.poset.poset_key"),
    Target("core.poset.poset_key", "twarrow.core.poset", "poset_key", _CS),
    Target("core.maps.enumerate_homs", "twarrow.core.maps", "enumerate_homs",
           _CS + ("homs_out", "face_calls_per_hom"),
           (("homs_out", lambda a, k, r: len(r)),),
           inner="core.complex.SimplicialSet.face"),
    Target("core.maps.find_isomorphism", "twarrow.core.maps",
           "find_isomorphism", _CS + ("found_frac", "face_calls_per_call"),
           FOUND, inner="core.complex.SimplicialSet.face"),
    Target("core.maps.SimplicialMap.validate", "twarrow.core.maps",
           "SimplicialMap.validate", _CS),
    Target("core.io.complex_to_json", "twarrow.core.io", "complex_to_json",
           _CS),
    Target("core.io.complex_from_json", "twarrow.core.io",
           "complex_from_json", _CS),
    Target("zoo.ladder_complex", "twarrow.zoo.ladder", "ladder_complex",
           _CS + ("cells_out",), CELLS),
    Target("zoo.prism_complex", "twarrow.zoo.ladder", "prism_complex",
           _CS + ("cells_out",), CELLS),
    Target("zoo.q_complex", "twarrow.zoo.simplexlike", "q_complex",
           _CS + ("cells_out",), CELLS),
    Target("twisted.twisted_arrow", "twarrow.twisted", "twisted_arrow",
           _CS + ("cells_out",), CELLS),
    Target("twisted.tw_projection", "twarrow.twisted", "tw_projection", _CS),
    Target("twisted.tw_comparison", "twarrow.twisted", "tw_comparison", _CS),
    Target("partitions.mapping_space", "twarrow.partitions", "mapping_space",
           _CS + ("cells_out",), CELLS),
    Target("partitions.chain_poset", "twarrow.partitions", "chain_poset",
           _CS),
    Target("partitions.collapse_upper", "twarrow.partitions",
           "collapse_upper", _CS),
    Target("partitions.collapse_both", "twarrow.partitions", "collapse_both",
           _CS),
    Target("posetmaps.named_map", "twarrow.posetmaps", "named_map", _CS),
    Target("necklace.necklace_oracle", "twarrow.necklace", "necklace_oracle",
           _CS + ("cells_out",), CELLS),
    Target("anodyne.pivot_certificate", "twarrow.anodyne",
           "pivot_certificate", _CS + ("steps",),
           (("steps", lambda a, k, r: len(r.steps)),)),
    Target("anodyne.verify_certificate", "twarrow.anodyne",
           "verify_certificate", _CS + ("steps",),
           (("steps", lambda a, k, r: _replayed(a, k)),)),
    Target("anodyne.all_dull_families", "twarrow.anodyne",
           "all_dull_families", _CS),
    Target("certificates.xi_certificate", "twarrow.certificates",
           "xi_certificate", _CS),
    Target("fibration.solve_lift", "twarrow.fibration", "solve_lift",
           _CS + ("solved_frac",), FOUND),
    Target("fibration.inner_fibration", "twarrow.fibration",
           "inner_fibration", _CS + ("squares",), SQUARES),
    Target("fibration.cartesian_fibration", "twarrow.fibration",
           "cartesian_fibration", _CS + ("squares",), SQUARES),
    Target("fibration.trivial_fibration", "twarrow.fibration",
           "trivial_fibration", _CS + ("squares",), SQUARES),
    Target("cli._dump", "twarrow.cli", "_dump", _CS),
)

# lru_cache'd functions whose entry counts are read after the run
CACHED = (
    ("q_partition", "twarrow.partitions"),
    ("star_partition", "twarrow.partitions"),
    ("boxplus_partition", "twarrow.partitions"),
    ("square_partition", "twarrow.partitions"),
    ("graph_poset", "twarrow.posetmaps"),
    ("_compendium_collapse", "twarrow.posetmaps"),
)


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0
    active: bool = False
    inner: int = 0
    totals: dict = field(default_factory=dict)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {t.prefix: _Stat() for t in targets}
        # open spans; each holds the time of its wrapped children so far
        self._stack: list[list[float]] = []

    def install(self) -> None:
        import twarrow
        for info in pkgutil.walk_packages(twarrow.__path__, "twarrow."):
            importlib.import_module(info.name)
        modules = [m for name, m in sys.modules.items()
                   if name == "twarrow" or name.startswith("twarrow.")]
        for t in self.targets:
            owner = importlib.import_module(t.module)
            *cls_path, attr = t.qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = inspect.getattr_static(owner, attr)
            wrapper = self._wrap(t, orig)
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, name, wrapper)

    def _wrap(self, t: Target, fn):
        st = self.stats[t.prefix]
        stack, clock = self._stack, perf_counter
        if t.stats == ("calls",):
            @functools.wraps(fn)
            def counted(*a, **k):
                st.calls += 1
                return fn(*a, **k)
            return counted

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen(*a, **k):
                # a span per resumption, so the consumer's time is excluded
                st.calls += 1
                it = fn(*a, **k)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        st.self_s += dt - frame[0]
                        if stack:
                            stack[-1][0] += dt
                    yield item
            return gen

        inner = self.stats[t.inner] if t.inner else None

        @functools.wraps(fn)
        def spanned(*a, **k):
            st.calls += 1
            if st.active:
                return fn(*a, **k)
            st.active = True
            snap = inner.calls if inner is not None else 0
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*a, **k)
            finally:
                dt = clock() - t0
                stack.pop()
                st.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                st.active = False
                if inner is not None:
                    st.inner += inner.calls - snap
            for key, obs in t.observe:
                st.totals[key] = st.totals.get(key, 0) + obs(a, k, res)
            return res
        return spanned

    def metrics(self) -> dict[str, float]:
        """Every traced stat by its metric name; idle layers read 0."""
        out = {}
        for t in self.targets:
            st = self.stats[t.prefix]
            tot = st.totals
            values = {
                "calls": st.calls,
                "self_s": st.self_s,
                "cells_out": tot.get("cells_out", 0),
                "classes_out": tot.get("classes_out", 0),
                "keys_per_class": _ratio(st.inner, tot.get("classes_out", 0)),
                "homs_out": tot.get("homs_out", 0),
                "face_calls_per_hom": _ratio(st.inner, tot.get("homs_out", 0)),
                "found_frac": _ratio(tot.get("found", 0), st.calls),
                "face_calls_per_call": _ratio(st.inner, st.calls),
                "solved_frac": _ratio(tot.get("found", 0), st.calls),
                "squares": tot.get("squares", 0),
                "steps": tot.get("steps", 0),
            }
            for stat in t.stats:
                out[f"{t.prefix}.{stat}"] = values[stat]
        return out


def cache_entries() -> dict[str, int]:
    """Entries held by the package's memo caches."""
    out = {}
    for name, module in CACHED:
        fn = getattr(importlib.import_module(module), name)
        out[f"cache.{name}.entries"] = fn.cache_info().currsize
    partitions = importlib.import_module("twarrow.partitions")
    out["cache.chain_poset.entries"] = len(partitions._chain_poset_cache)
    return out

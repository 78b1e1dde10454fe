"""The names the benchmark tracer wraps must exist in the package.

``bench/tracer.py`` patches functions and reads caches by module and
qualified name; a rename in the package would silently leave a layer
untraced.  The tracer module is read here without installing it.
"""

import importlib
import inspect
import runpy
from pathlib import Path

TRACER = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))


def test_every_traced_target_resolves():
    assert TRACER["TARGETS"]
    for t in TRACER["TARGETS"]:
        owner = importlib.import_module(t.module)
        for part in t.qualname.split("."):
            owner = inspect.getattr_static(owner, part)
        assert callable(owner), t.prefix


def test_every_read_cache_resolves():
    assert TRACER["CACHED"]
    for name, module in TRACER["CACHED"]:
        fn = getattr(importlib.import_module(module), name)
        assert fn.cache_info().currsize >= 0, name
    partitions = importlib.import_module("twarrow.partitions")
    assert isinstance(partitions._chain_poset_cache, dict)

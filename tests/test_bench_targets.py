"""The names the benchmark tracer wraps must exist in the package, and
the benchmark's workloads must run on it.

``bench/tracer.py`` patches functions and reads caches by module and
qualified name; a rename in the package would silently leave a layer
untraced.  The tracer module is read here without installing it.
``bench/workloads.py`` calls the package directly, so a renamed
function or a changed signature would only show when the benchmark
runs; a short pass of two workloads is run here instead.
"""

import importlib
import importlib.util
import inspect
import itertools
import runpy
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = runpy.run_path(str(BENCH / "tracer.py"))


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


def test_benchmark_units_run(monkeypatch):
    # the workloads import the tracer as a sibling module
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lift = workloads.run_pass(workloads.lift_inputs(1, 1)[0])
    assert lift["failed"] == 0 and lift["ops"] > 0, lift["verdicts"]
    units = itertools.islice(workloads.oracle_inputs(1, 1)[0], 300)
    sweep = workloads.run_pass(units)
    assert sweep["failed"] == 0, sweep["verdicts"]
    assert len(sweep["names"]) == 300

"""Every module of the package imports cleanly when it is the first one
imported, so that an import cycle fails here and not at a user's first
import, whichever module that is."""

import os
import subprocess
import sys
from pathlib import Path

import twarrow

# imports each module named on the command line into a clean sys.modules
SCRIPT = """
import importlib, sys
for name in sys.argv[1:]:
    for mod in [m for m in sys.modules
                if m == "twarrow" or m.startswith("twarrow.")]:
        del sys.modules[mod]
    try:
        importlib.import_module(name)
    except Exception as e:
        print(f"{name}: {type(e).__name__}: {e}")
"""


def _module_names(src: Path) -> list[str]:
    names = []
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        names.append(".".join(parts[:-1] if parts[-1] == "__init__"
                              else parts))
    return names


def test_each_module_imports_first():
    # one interpreter for all of them, under 1 s in all
    src = Path(twarrow.__file__).parent
    names = _module_names(src)
    assert "twarrow" in names and "twarrow.core.io" in names
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SCRIPT, *names], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "", out.stdout

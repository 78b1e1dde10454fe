"""The package keeps to the oldest Python that pyproject.toml allows."""

import ast
from pathlib import Path

import twarrow

FLOOR = (3, 10)


def test_sources_parse_at_the_python_floor():
    files = sorted(Path(twarrow.__file__).parent.rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)

"""The size caps: one table, one refusal format, and the README's list."""

import ast
import re
from pathlib import Path

import pytest

import twarrow
from twarrow import CAPS, check_cap, necklace, partitions
from twarrow.core import complex, ops, poset, simplex

SRC = Path(twarrow.__file__).parent


def test_a_refusal_gives_count_value_and_name():
    check_cap("SIZE_CAP", 40, "oracle")
    with pytest.raises(ValueError, match=r"^oracle: 41 nondegenerate "
                                         r"simplices, cap 40 \(SIZE_CAP\)$"):
        check_cap("SIZE_CAP", 41, "oracle")


def test_every_cap_is_in_the_readme_with_its_value():
    # the table holds DIM_CAP's default, whatever TWARROW_DIM_CAP says
    readme = (SRC.parents[1] / "README.md").read_text()
    rows = {m[1]: int(m[2].replace(",", ""))
            for m in re.finditer(r"^\| `(\w+_CAP)` \| ([\d,]+) \|", readme,
                                 re.MULTILINE)}
    assert rows == {name: cap.value for name, cap in CAPS.items()}


def _raises(node, scope):
    """The raise statements under node, each with the name of the
    function or class it sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield scope, child
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from _raises(child, child.name if named else scope)


def test_only_the_helpers_format_a_cap_refusal():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for scope, node in _raises(ast.parse(text), None):
            seg = ast.get_source_segment(text, node)
            if "cap {" in seg or "_CAP}" in seg:
                found.add((path.relative_to(SRC).as_posix(), scope))
    assert found == {("__init__.py", "check_cap"),
                     ("__init__.py", "check_max_dim")}


def test_each_cap_value_is_written_once():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                assert not any(n.endswith("_CAP") for n in names), path
    bound = {"SIMPLEX_CAP": complex, "PRODUCT_CAP": ops, "GLUE_CAP": ops,
             "QUOTIENT_CAP": ops, "NERVE_CAP": poset, "HANDLE_CAP": simplex,
             "CHAIN_POSET_CAP": partitions, "CHAIN_ELEMENTS_CAP": partitions,
             "SIZE_CAP": necklace}
    for name, module in bound.items():
        assert getattr(module, name) == CAPS[name].value, name

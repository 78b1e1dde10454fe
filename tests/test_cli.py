"""Command-line surface: subcommands, serialization, exports, the suite."""

import gc
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import twarrow
from twarrow import CAPS, DIM_CAP
from twarrow.anodyne import certificate_from_json, verify_certificate
from twarrow.cli import (
    CHECKS,
    HEAVIEST_FIRST,
    ZOO_NAMES,
    SuiteConfig,
    build_zoo,
    decorated_from_json,
    decorated_to_json,
    export_text,
    main,
    map_from_json,
    map_to_json,
    poset_from_json,
    poset_to_json,
    run_suite,
)
from twarrow.core.complex import (SimplicialSet, simplex_cell,
                                  standard_simplex)
from twarrow.core.io import (complex_from_json, complex_to_json,
                             complexes_equal)
from twarrow.core.maps import SimplicialMap, map_by_vertices
from twarrow.core.ops import QUOTIENT_CAP
from twarrow.core.poset import NERVE_CAP, Poset, nerve, total_order
from twarrow.core.simplex import Simplex
from twarrow.decor import Decorated, sharp
from twarrow.fibration import horn_inclusion
from twarrow.partitions import (CHAIN_ELEMENTS_CAP, CHAIN_POSET_CAP,
                                make_partition, mapping_space)
from twarrow.twisted import tw_projection, twisted_arrow


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


# -- serialization -----------------------------------------------------


def test_decorated_round_trip_all_zoo_objects():
    for name in ZOO_NAMES:
        for n in range(3):
            try:
                dec = build_zoo(name, n)
            except ValueError:
                continue
            back = decorated_from_json(
                json.loads(json.dumps(decorated_to_json(dec))))
            assert complexes_equal(dec.space, back.space)
            assert back.thin == dec.thin and back.marked == dec.marked


def _reference_label(lab):
    """``encode_label`` as a plain recursion, with no shortcut for a
    tuple of atoms."""
    if lab is None or isinstance(lab, (int, str, bool)):
        return lab
    if isinstance(lab, tuple):
        return {"t": [_reference_label(x) for x in lab]}
    return {"s": sorted((_reference_label(x) for x in lab),
                        key=lambda v: json.dumps(v, sort_keys=True))}


def _reference_complex_json(X):
    """``complex_to_json`` with every label through the plain recursive
    encoder."""
    simplices = {}
    for d in sorted(X.counts):
        entry = {"count": X.counts[d]}
        if d >= 1:
            entry["faces"] = [
                [[list(f.word), f.base[0], f.base[1]] for f in X.faces[(d, i)]]
                for i in range(X.counts[d])]
        simplices[str(d)] = entry
    out = {"top_dim": X.top_dim, "simplices": simplices}
    if X.labels:
        out["labels"] = {f"{d}:{i}": _reference_label(lab)
                         for (d, i), lab in sorted(X.labels.items())}
    return out


def test_complex_json_text_matches_the_recursive_encoder():
    spaces = []
    for name in ZOO_NAMES:
        for n in range(3):
            try:
                spaces.append(build_zoo(name, n).space)
            except ValueError:
                continue
    # 1 and True are equal and hash alike, and must still encode apart
    mixed = standard_simplex(2)
    mixed.labels.update({
        (0, 0): (1, "a"), (0, 1): (True, "a"), (0, 2): ((1, "a"), (True, "a")),
        (1, 0): ((True, "a"), (1, "a"), ((1, "a"), 2)),
        (1, 1): frozenset({1, "b", (2, True)}),
        (2, 0): ((frozenset({(1, "a"), 3}), (1, "a")), None, (False, 0))})
    spaces.append(mixed)
    for X in spaces:
        text = json.dumps(complex_to_json(X), sort_keys=True)
        assert text == json.dumps(_reference_complex_json(X), sort_keys=True)
        back = complex_from_json(json.loads(text))
        assert complexes_equal(X, back)
        # the text keeps each atom's type, so read back it is the same
        assert json.dumps(complex_to_json(back), sort_keys=True) == text


def test_decorated_from_json_rejects_bad_index():
    obj = decorated_to_json(build_zoo("q", 1))
    obj["thin"] = [99]
    with pytest.raises(ValueError, match="names no cell"):
        decorated_from_json(obj)


def test_map_round_trip_validates():
    N2, N1 = nerve(total_order(2)), nerve(total_order(1))
    f = map_by_vertices(N2, N1, lambda v: min(v, 1))
    g, _, _ = map_from_json(json.loads(json.dumps(map_to_json(f))))
    assert g.data == f.data
    broken = map_to_json(f)
    broken["data"]["1:0"] = [[], 0, 0]
    with pytest.raises(ValueError):
        map_from_json(broken)


def test_map_reader_refuses_a_non_canonical_word():
    f = map_by_vertices(standard_simplex(2), standard_simplex(0), lambda v: 0)
    for word in ([0, 1], [0, 0], [1, 1], [5, 0], [-1, 0]):
        doc = map_to_json(f)
        doc["data"]["2:0"] = [word, 0, 0]
        with pytest.raises(ValueError, match=re.escape(f"word {tuple(word)}")):
            map_from_json(doc)


def _tampered(obj, path, value):
    """A copy of the document obj with the entry at path set to value."""
    doc = json.loads(json.dumps(obj))
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    return doc


_SEGMENT = complex_to_json(standard_simplex(1))
_TRIANGLE = decorated_to_json(sharp(standard_simplex(2)))
_COLLAPSE = map_to_json(map_by_vertices(standard_simplex(1),
                                        standard_simplex(0), lambda v: 0))


@pytest.mark.parametrize("read, doc, message", [
    (complex_from_json, _tampered(_SEGMENT, ["simplices", "0", "count"], 2.0),
     "count 2.0 of dimension 0 is not an integer"),
    (complex_from_json,
     _tampered(_SEGMENT, ["simplices", "1", "faces", 0, 0], [[], 0.0, 1]),
     "face entry [[], 0.0, 1] of cell (1, 0) is not all integers"),
    (complex_from_json,
     _tampered(_SEGMENT, ["simplices", "1", "faces", 0, 0], [[], False, True]),
     "face entry [[], False, True] of cell (1, 0) is not all integers"),
    (decorated_from_json, _tampered(_TRIANGLE, ["thin"], [0.0]),
     "thin index 0.0 is not an integer"),
    (decorated_from_json, _tampered(_TRIANGLE, ["marked"], [False]),
     "marked index False is not an integer"),
    (map_from_json, _tampered(_COLLAPSE, ["data", "1:0"], [[0.0], 0, 0]),
     "map data '1:0' image [[0.0], 0, 0] is not all integers"),
    (poset_from_json, {"elements": [0, 1], "leq": [[True, 1]]},
     "leq pair [True, 1] is not all integers"),
], ids=["count", "face-float", "face-bool", "thin", "marked", "map-word",
        "leq"])
def test_readers_refuse_a_float_or_bool_for_an_integer(read, doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read(doc)


def test_poset_round_trip():
    P = Poset("abc", [("a", "b"), ("a", "c")])
    Q = poset_from_json(json.loads(json.dumps(poset_to_json(P))))
    assert set(Q.elements) == set(P.elements)
    for x in P.elements:
        for y in P.elements:
            assert P.leq(x, y) == Q.leq(x, y)


# -- exports -----------------------------------------------------------


def test_export_json_is_byte_stable():
    assert export_text("json", "q", 1) == export_text("json", "q", 1)
    assert export_text("json", "r", 1) == export_text("json", "r", 1)


def test_export_dot_tw_interval():
    text = export_text("dot", "tw", 1)
    assert text.count("[label=") == 3
    assert text.count("->") == 2
    # both edges of the sharp interval are marked, hence drawn bold
    assert text.count("penwidth") == 2


def test_export_dot_ladder_hasse_counts():
    text = export_text("dot", "r-hasse", 1)
    assert text.count("[label=") == 12


# sha256 prefixes of the DOT exports, so that a change to the node or
# arc order or to the framing shows
PINNED_DOT = {
    ("r-hasse", 0): "fd196e2248a4677c",
    ("r-hasse", 1): "93e90071396dd9e5",
    ("r-hasse", 2): "d87cb2062793ab6c",
    ("r-hasse", 3): "ce7263c459198f9f",
    ("q", 0): "7c0566c8203f3a93",
    ("q", 1): "add2c14b7414daa6",
    ("q", 2): "f4601a463fcf5b4a",
    ("q", 3): "4c1ca02a8799c1a2",
    ("tw", 0): "7e5b40e371b69568",
    ("tw", 1): "84efe414b0b9aa4b",
    ("tw", 2): "6fb0e239ca653377",
}


def test_dot_exports_are_pinned():
    for (obj, n), digest in PINNED_DOT.items():
        text = export_text("dot", obj, n)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, \
            (obj, n)


def test_export_unknown_object():
    with pytest.raises(ValueError, match="unknown zoo object"):
        export_text("json", "mystery", 1)


@pytest.mark.parametrize("obj", ["q", "tw", "r-hasse"])
def test_export_unknown_kind(obj):
    with pytest.raises(ValueError, match="unknown export kind 'svg'"):
        export_text("svg", obj, 1)


@pytest.mark.parametrize("kind", ["json", "dot"])
@pytest.mark.parametrize("obj", ["q", "tw", "r-hasse"])
def test_export_refuses_a_negative_level(tmp_path, capsys, kind, obj):
    out = tmp_path / "out"
    assert main(["export", kind, obj, "--n", "-1", "--out", str(out)]) == 2
    assert "level n must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_zoo_build_cli(tmp_path, capsys):
    out = tmp_path / "q1.json"
    assert main(["zoo", "build", "q", "--n", "1",
                 "--json", str(out)]) == 0
    first = out.read_bytes()
    assert main(["zoo", "build", "q", "--n", "1",
                 "--json", str(out)]) == 0
    assert out.read_bytes() == first
    assert main(["zoo", "build", "k", "--n", "2", "--i", "2"]) == 0
    assert main(["zoo", "build", "k", "--n", "0"]) == 2
    assert main(["zoo", "build", "k", "--n", "4", "--i", "2"]) == 0
    capsys.readouterr()
    for name, n, i in (("k", 2, 0), ("k", 2, 3), ("kcal", 2, 3)):
        assert main(["zoo", "build", name, "--n", str(n),
                     "--i", str(i)]) == 2
        assert f"core index i={i} outside the range 1..{n}" in \
            capsys.readouterr().err


def test_oversized_simplex_fails_fast(capsys):
    from twarrow.core.complex import SIMPLEX_CAP
    assert main(["zoo", "build", "q", "--n", "40"]) == 2
    assert f"81, cap {SIMPLEX_CAP}" in capsys.readouterr().err
    assert main(["export", "json", "tw", "--n", "30"]) == 2
    assert f"30, cap {SIMPLEX_CAP}" in capsys.readouterr().err


def _refused_at_once(capsys, argv, message):
    # CPU time, so that a busy host does not count against the command;
    # each refusal below takes at most about 0.5 s
    t0 = time.process_time()
    assert main(argv) == 2
    assert time.process_time() - t0 < 1.0
    assert message in capsys.readouterr().err


def test_oversized_mapping_space_fails_fast(capsys):
    _refused_at_once(capsys, ["poset", "mapspace", "--chain", "6",
                              "--upper", "6"],
                     f"117648 simplices to key, cap {QUOTIENT_CAP}")
    _refused_at_once(capsys, ["poset", "mapspace", "--chain", "7",
                              "--upper", "7"], f"cells, cap {NERVE_CAP}")


def test_oversized_nerve_fails_fast(capsys):
    # the ladder's level is refused before its poset is built, which
    # alone takes seconds at n = 300; the Hasse export reads the poset
    # alone and is refused by the same check
    for argv in ("zoo build r", "zoo build qcal", "export dot r-hasse"):
        for n in (4, 5, 60, 300, 1000):
            _refused_at_once(capsys, [*argv.split(), "--n", str(n)],
                             f"n = {n}, cap {CAPS['LADDER_CAP'].value} "
                             f"(LADDER_CAP)")


def test_oversized_interval_poset_fails_fast(capsys):
    _refused_at_once(capsys, ["poset", "descends", "--map", "zeta",
                              "--n", "8", "--i", "0"],
                     f"65536 elements, cap {CHAIN_ELEMENTS_CAP}")


def test_oversized_chain_poset_fails_fast(capsys, monkeypatch):
    # the named maps read their partitions alone, so the refusal comes
    # before any complex (Delta^13 for the q side at n = 6) is built
    built = []
    init = SimplicialSet.__init__

    def counted(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(SimplicialSet, "__init__", counted)
    _refused_at_once(capsys, ["poset", "descends", "--map", "B",
                              "--n", "6"],
                     f"16129 elements, cap {CHAIN_ELEMENTS_CAP}")
    assert built == []


@pytest.mark.parametrize("doc, message", [
    ({}, "poset document lacks the 'elements' entry"),
    ([1, 2], "a poset document is a JSON object, not list"),
    ({"elements": 5, "leq": []}, "malformed poset document"),
    ({"elements": "abc", "leq": []}, "elements entry 'abc' is not a list"),
    ({"elements": {"a": 0}, "leq": []},
     "elements entry {'a': 0} is not a list"),
    ({"elements": [0, 1], "leq": [[0, 1, 1]]},
     "leq entry [0, 1, 1] is not a pair"),
    ({"elements": [0, 1], "leq": [0]}, "leq entry 0 is not a pair"),
])
def test_mapspace_refuses_a_malformed_poset(tmp_path, capsys, doc, message):
    assert main(["poset", "mapspace", "--poset",
                 write(tmp_path / "p.json", doc), "--upper", "1"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tw", "build", "--complex"],
    ["check", "cartesian", "--map"],
    ["poset", "mapspace", "--upper", "1", "--poset"],
], ids=["tw-build", "check", "mapspace"])
def test_deeply_nested_json_is_refused(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(argv + [str(deep)]) == 2
    assert f"{deep}: JSON nested too deeply" in capsys.readouterr().err


def test_reader_refuses_a_deeply_nested_document():
    label = 0
    for _ in range(10_000):
        label = {"s": [label]}
    with pytest.raises(ValueError, match="poset document nested too deeply"):
        poset_from_json({"elements": [label], "leq": []})


def test_oversized_base_poset_fails_fast(capsys, tmp_path):
    _refused_at_once(capsys, ["poset", "mapspace", "--chain", "2000",
                              "--upper", "2000"],
                     f"2001 elements, cap {CHAIN_POSET_CAP}")
    doc = {"elements": list(range(2001)),
           "leq": [[i, i + 1] for i in range(2000)]}
    _refused_at_once(capsys, ["poset", "mapspace", "--poset",
                              write(tmp_path / "p.json", doc),
                              "--upper", "2000"],
                     f"2001 elements, cap {CHAIN_POSET_CAP}")


@pytest.mark.parametrize("argv, count, name", [
    ("zoo build t --n 6", "245759 cells", "PRODUCT_CAP"),
    ("certify paper --which xi --n 4", "n = 4", "LADDER_CAP"),
    ("certify paper --which fibstep1 --n 7 --i 1", "dimension 15",
     "SIMPLEX_CAP"),
])
def test_generator_caps_fail_fast(capsys, argv, count, name):
    _refused_at_once(capsys, argv.split(),
                     f"{count}, cap {CAPS[name].value} ({name})")


def test_oversized_complex_document_fails_fast(capsys, tmp_path):
    n = CAPS["HANDLE_CAP"].value + 1
    doc = {"top_dim": 0, "simplices": {"0": {"count": n}}}
    _refused_at_once(capsys, ["tw", "build", "--complex",
                              write(tmp_path / "big.json", doc)],
                     f"dimension 0: {n} cells, cap {n - 1} (HANDLE_CAP)")


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_malformed_dim_cap_variable_is_refused(tmp_path, value):
    src = os.path.dirname(os.path.dirname(twarrow.__file__))
    env = dict(os.environ, TWARROW_DIM_CAP=value)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "twarrow.cli", "suite",
                          "--checks", ""], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert (f"TWARROW_DIM_CAP must be a nonnegative integer, got "
            f"{value!r}") in out.stderr


# -- tw and poset commands ---------------------------------------------


def test_tw_build_sharp_default(tmp_path):
    src = write(tmp_path / "tri.json",
                complex_to_json(standard_simplex(2)))
    out, dot = tmp_path / "tw.json", tmp_path / "tw.dot"
    assert main(["tw", "build", "--complex", src, "--max-dim", "3",
                 "--out", str(out), "--dot", str(dot)]) == 0
    doc = json.loads(out.read_text())
    # a bare complex counts as sharp, so every edge upstairs is marked
    assert len(doc["marked"]) == 9
    assert "penwidth" in dot.read_text()


def _malformed_complexes():
    seg = complex_to_json(standard_simplex(1))
    bad_label = json.loads(json.dumps(seg))
    bad_label["labels"]["0:0"] = {"x": 1}
    bad_base = json.loads(json.dumps(seg))
    bad_base["simplices"]["1"]["faces"][0][0][1] = "a"
    no_faces = json.loads(json.dumps(seg))
    del no_faces["simplices"]["1"]["faces"]
    no_cell = json.loads(json.dumps(seg))
    no_cell["labels"]["5:9"] = 0
    negative = json.loads(json.dumps(seg))
    negative["labels"]["0:-1"] = 0
    return [pytest.param(bad_label, "cannot decode label", id="label"),
            pytest.param(no_cell, "label key '5:9' names no cell",
                         id="label-key"),
            pytest.param(negative, "label key '0:-1' names no cell",
                         id="negative-label-key"),
            pytest.param(bad_base, "malformed complex document", id="base"),
            pytest.param(no_faces, "lacks the 'faces' entry", id="faces"),
            pytest.param([seg], "JSON object, not list", id="list")]


@pytest.mark.parametrize("doc, message", _malformed_complexes())
def test_tw_build_rejects_a_malformed_complex(tmp_path, capsys, doc,
                                              message):
    src = write(tmp_path / "bad.json", doc)
    assert main(["tw", "build", "--complex", src]) == 2
    assert message in capsys.readouterr().err


def test_check_rejects_map_data_that_is_not_a_list(tmp_path, capsys):
    f = map_by_vertices(standard_simplex(1), standard_simplex(0),
                        lambda v: 0)
    doc = map_to_json(f)
    doc["data"]["0:0"] = 5
    m = write(tmp_path / "map.json", doc)
    assert main(["check", "trivial", "--map", m, "--max-dim", "1"]) == 2
    assert "malformed map document" in capsys.readouterr().err


def test_check_rejects_map_data_for_a_cell_the_source_lacks(tmp_path,
                                                            capsys):
    f = map_by_vertices(standard_simplex(1), standard_simplex(0),
                        lambda v: 0)
    doc = map_to_json(f)
    doc["data"]["7:3"] = [[], 0, 0]
    m = write(tmp_path / "map.json", doc)
    assert main(["check", "trivial", "--map", m, "--max-dim", "1"]) == 2
    assert "map data key '7:3' names no source cell" in capsys.readouterr().err


# keys that int() reads, or half reads, but that no writer writes
MALFORMED_KEYS = ["0.0:0", "1_0", "01:0", "+0:0", "0:0:0"]


@pytest.mark.parametrize("key", MALFORMED_KEYS)
def test_readers_refuse_a_key_spelt_otherwise(key):
    seg = complex_to_json(standard_simplex(1))
    seg["labels"][key] = 0
    with pytest.raises(ValueError, match=re.escape(
            f"complex document: label key {key!r} is not written as "
            f"<dim>:<idx>")):
        complex_from_json(seg)
    doc = map_to_json(map_by_vertices(standard_simplex(1),
                                      standard_simplex(0), lambda v: 0))
    doc["data"][key] = [[], 0, 0]
    with pytest.raises(ValueError, match=re.escape(
            f"map document: data key {key!r} is not written as "
            f"<dim>:<idx>")):
        map_from_json(doc)


@pytest.mark.parametrize("key", [" 1 ", "01"])
def test_complex_reader_refuses_a_dimension_key_spelt_otherwise(key):
    seg = complex_to_json(standard_simplex(1))
    seg["simplices"][key] = seg["simplices"].pop("1")
    with pytest.raises(ValueError, match=re.escape(
            f"complex document: dimension key {key!r} is not written as "
            f"<dim>")):
        complex_from_json(seg)


def test_check_refuses_a_map_data_key_spelt_otherwise(tmp_path, capsys):
    f = map_by_vertices(standard_simplex(1), standard_simplex(0),
                        lambda v: 0)
    doc = map_to_json(f)
    doc["data"]["1_0"] = doc["data"].pop("1:0")
    m = write(tmp_path / "map.json", doc)
    assert main(["check", "trivial", "--map", m, "--max-dim", "1"]) == 2
    assert "data key '1_0' is not written" in capsys.readouterr().err


def test_poset_file_with_a_negative_index_is_refused(tmp_path, capsys):
    # read as an index from the end, -1 would make 2 <= 0
    src = write(tmp_path / "p.json",
                {"elements": [0, 1, 2], "leq": [[-1, 0]]})
    assert main(["poset", "mapspace", "--poset", src, "--upper", "0"]) == 2
    assert "leq pair [-1, 0] names no element" in capsys.readouterr().err


def test_tw_fiber_cli(tmp_path):
    src = write(tmp_path / "seg.json",
                complex_to_json(standard_simplex(1)))
    out = tmp_path / "fiber.json"
    assert main(["tw", "fiber", "--complex", src, "--x", "0", "--y", "1",
                 "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["simplices"]["0"]["count"] == 1


def _tuple_nerve_file(tmp_path):
    # the elements are tuples, so no plain --x/--y text names them
    P = Poset([(0, 1), (0, 0)], [((0, 1), (0, 0))])
    return write(tmp_path / "F.json", decorated_to_json(Decorated(nerve(P))))


def test_tw_fiber_names_an_encoded_label(tmp_path, capsys):
    src = _tuple_nerve_file(tmp_path)
    assert main(["tw", "fiber", "--complex", src,
                 "--y", '{"t": [0, 0]}']) == 0
    assert capsys.readouterr().out == (
        "fiber over x=None, y=(0, 0): cells {0: 2, 1: 1}, "
        "0 thin triangles, 1 marked edges\n")
    assert main(["tw", "fiber", "--complex", src,
                 "--y", '{"t": [9, 9]}']) == 2
    assert "unknown vertex (9, 9)" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"x": 1}', '{"t": 5}', "{",
                                  '{"s": [' * 100_000],
                         ids=["no-tag", "not-a-list", "truncated", "deep"])
def test_tw_fiber_refuses_a_malformed_encoded_label(tmp_path, capsys, text):
    src = _tuple_nerve_file(tmp_path)
    assert main(["tw", "fiber", "--complex", src, "--y", text]) == 2
    assert f"{text!r} is not an encoded label" in capsys.readouterr().err


def _tuple_poset_file(tmp_path):
    P = Poset([(0, 1), (0, 0)], [((0, 1), (0, 0))])
    return P, write(tmp_path / "P.json", poset_to_json(P))


def test_poset_mapspace_names_encoded_upper_labels(tmp_path, capsys):
    P, src = _tuple_poset_file(tmp_path)
    X = mapping_space(make_partition(P, [(0, 1)], [(0, 0)]), "two_sided")
    assert main(["poset", "mapspace", "--poset", src,
                 "--upper", '[{"t": [0, 0]}]']) == 0
    counts = {d: X.counts[d] for d in sorted(X.counts)}
    assert capsys.readouterr().out == \
        f"mapping space (two-sided): cells {counts}\n"


@pytest.mark.parametrize("text", ['[{"t": [0', '[{"x": 1}]'])
def test_poset_mapspace_refuses_a_malformed_label_list(tmp_path, capsys,
                                                       text):
    _, src = _tuple_poset_file(tmp_path)
    assert main(["poset", "mapspace", "--poset", src, "--upper", text]) == 2
    assert f"{text!r} is not a list of encoded labels" in \
        capsys.readouterr().err


def test_poset_mapspace_cli(tmp_path):
    assert main(["poset", "mapspace", "--chain", "2", "--upper", "2",
                 "--mode", "right", "--j", "0"]) == 0
    out = tmp_path / "ms.json"
    assert main(["poset", "mapspace", "--chain", "2", "--upper", "1,2",
                 "--mode", "right", "--j", "0", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["simplices"]["0"]["count"] == 2
    with pytest.raises(SystemExit):
        main(["poset", "mapspace", "--chain", "2", "--upper", "2",
              "--mode", "sideways"])


def test_poset_mapspace_from_file(tmp_path):
    src = write(tmp_path / "p.json", poset_to_json(total_order(1)))
    assert main(["poset", "mapspace", "--poset", src, "--upper", "1",
                 "--mode", "two-sided"]) == 0


def test_poset_descends_cli():
    assert main(["poset", "descends", "--map", "zeta", "--n", "1",
                 "--i", "0"]) == 0
    # h_rho without its switch index is a usage error, and so is G with one
    assert main(["poset", "descends", "--map", "h_rho", "--n", "1"]) == 2
    assert main(["poset", "descends", "--map", "G", "--n", "1",
                 "--i", "3"]) == 2


# -- certificates ------------------------------------------------------


def test_certify_pivot_cli(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "pivot", "--dull", "0;3", "--n", "3",
                 "--thin", "023,123", "--pivot", "2",
                 "--out", str(out)]) == 0
    cert = certificate_from_json(json.loads(out.read_text()))
    dec = Decorated(standard_simplex(3),
                    thin={simplex_cell(3, (0, 2, 3)),
                          simplex_cell(3, (1, 2, 3))})
    ok, _, _ = verify_certificate(dec, cert)
    assert ok
    assert main(["certify", "pivot", "--dull", "0;3", "--n", "3",
                 "--thin", "023,123", "--pivot", "1"]) == 1
    assert main(["certify", "pivot", "--dull", "0;3", "--n", "3",
                 "--pivot", "auto"]) == 1      # flat scaling, no run works


@pytest.mark.parametrize("thin, verts", [("029", "(0, 2, 9)"),
                                         ("022", "(0, 2, 2)")])
def test_certify_pivot_refuses_an_impossible_triangle(capsys, thin, verts):
    assert main(["certify", "pivot", "--dull", "0;3", "--n", "3",
                 "--thin", thin]) == 2
    assert f"{verts} names no cell of Delta^3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["certify", "pivot", "--dull", "a;3", "--n", "3"],
     "--dull: 'a' is not an integer"),
    (["certify", "pivot", "--dull", "0;3", "--n", "3", "--thin", "0a3"],
     "--thin: 'a' is not an integer"),
    (["certify", "pivot", "--dull", "0;3", "--n", "3", "--pivot", "x"],
     "--pivot: 'x' is not an integer"),
    (["suite", "--objects", "1,x"], "--objects: 'x' is not an integer"),
], ids=["dull", "thin", "pivot", "objects"])
def test_a_bad_integer_names_its_flag(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_certify_paper_cli(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "paper", "--which", "fibstep2", "--n", "2",
                 "--i", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["steps"]
    assert main(["certify", "paper", "--which", "xi", "--n", "0"]) == 0
    assert main(["certify", "paper", "--which", "fibstep1",
                 "--n", "2"]) == 2              # missing --i


# -- fibration checks --------------------------------------------------


def test_check_cli_pass_and_fail(tmp_path):
    N2, N1 = nerve(total_order(2)), nerve(total_order(1))
    f = map_by_vertices(N2, N1, lambda v: min(v, 1))
    good = write(tmp_path / "good.json", map_to_json(f))
    rep = tmp_path / "rep.json"
    assert main(["check", "inner-fibration", "--map", good,
                 "--max-dim", "3", "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["ok"] is True

    H = horn_inclusion(2, 1).source
    data = {c: Simplex(tuple(range(c[0] - 1, -1, -1)), (0, 0))
            for c in H.all_cells()}
    p = SimplicialMap(H, standard_simplex(0), data, check=False)
    bad = write(tmp_path / "bad.json", map_to_json(p))
    assert main(["check", "inner-fibration", "--map", bad,
                 "--max-dim", "2", "--report", str(rep)]) == 1
    doc = json.loads(rep.read_text())
    assert doc["ok"] is False and doc["counterexample"] is not None


def test_check_cli_cartesian(tmp_path, capsys):
    twc = twisted_arrow(sharp(standard_simplex(1)), 2)
    doc = map_to_json(tw_projection(twc)[0])
    flat_map = write(tmp_path / "flat.json", doc)
    doc["source"] = decorated_to_json(twc.dec)
    scaled_map = write(tmp_path / "scaled.json", doc)
    rep = tmp_path / "rep.json"
    assert main(["check", "cartesian", "--map", scaled_map,
                 "--max-dim", "2", "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["squares"] == 11
    assert main(["check", "cartesian", "--map", flat_map,
                 "--max-dim", "2"]) == 1
    assert "marked supply fails" in capsys.readouterr().out


def test_check_cli_trivial(tmp_path):
    I = standard_simplex(1)
    p = map_by_vertices(I, standard_simplex(0), lambda v: 0)
    m = write(tmp_path / "int.json", map_to_json(p))
    assert main(["check", "trivial", "--map", m, "--max-dim", "1"]) == 1


@pytest.mark.parametrize("depth", [-1, DIM_CAP + 1])
def test_depth_outside_the_cap_is_refused(tmp_path, capsys, depth):
    # the map fails at depth 1, so a vacuous pass would show here
    I = standard_simplex(1)
    p = map_by_vertices(I, standard_simplex(0), lambda v: 0)
    m = write(tmp_path / "int.json", map_to_json(p))
    bound = f"max_dim {depth} outside 0..{DIM_CAP}"
    assert main(["check", "trivial", "--map", m,
                 "--max-dim", str(depth)]) == 2
    assert bound in capsys.readouterr().err
    src = write(tmp_path / "d2.json", complex_to_json(standard_simplex(2)))
    assert main(["tw", "build", "--complex", src,
                 "--max-dim", str(depth)]) == 2
    assert bound in capsys.readouterr().err


@pytest.mark.parametrize("depth", [-1, DIM_CAP + 1])
def test_mapspace_top_dim_outside_the_cap_is_refused(capsys, depth):
    assert main(["poset", "mapspace", "--chain", "2", "--upper", "2",
                 "--top-dim", str(depth)]) == 2
    out = capsys.readouterr()
    assert f"--top-dim {depth} outside 0..{DIM_CAP}" in out.err
    assert "mapping space" not in out.out
    assert main(["poset", "mapspace", "--chain", "2", "--upper", "2",
                 "--top-dim", "1"]) == 0


# -- the suite ---------------------------------------------------------

QUICK = "cone-fiber,pivot-certificates,scaling-counts"


def test_suite_quick_checks_pass(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["suite", "--checks", QUICK, "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["ok"] is True
    assert [c["check"] for c in doc["checks"]] == sorted(QUICK.split(","))
    assert all(c["ok"] for c in doc["checks"])


def test_suite_inject_flat_scaling_fails(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["suite", "--checks", "pivot-certificates",
                 "--inject", "flat-q1", "--report", str(rep)]) == 1
    doc = json.loads(rep.read_text())
    assert doc["ok"] is False
    assert "rejected" in doc["checks"][0]["detail"]


def test_suite_empty_check_list(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["suite", "--checks", "", "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["checks"] == []


def test_suite_same_seed_reports_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["suite", "--checks", QUICK, "--seed", "7",
                     "--report", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_suite_config_validation():
    with pytest.raises(ValueError, match="unknown checks"):
        SuiteConfig(checks=("no-such-check",))
    with pytest.raises(ValueError, match="repeated checks: scaling-counts$"):
        SuiteConfig(checks=("scaling-counts", "scaling-counts", "cone-fiber"))
    assert main(["suite", "--checks",
                 "scaling-counts,scaling-counts,cone-fiber"]) == 2
    with pytest.raises(ValueError, match="dim_cap"):
        SuiteConfig(dim_cap=99)
    with pytest.raises(ValueError, match="injection"):
        SuiteConfig(inject="sabotage")


def free_cpus(monkeypatch, n):
    """Make the suite see n free CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def no_fork():
    raise AssertionError("forked")


def test_run_suite_returns_report(monkeypatch):
    free_cpus(monkeypatch, 2)
    # one check is never worth a helper
    monkeypatch.setattr(os, "fork", no_fork)
    status, report = run_suite(SuiteConfig(checks=("scaling-counts",)))
    assert status == 0
    assert report["checks"][0]["check"] == "scaling-counts"


def test_every_check_has_a_claim_rank():
    assert sorted(HEAVIEST_FIRST) == sorted(CHECKS)


def gc_state():
    return gc.get_threshold(), gc.get_freeze_count()


def test_a_check_that_raises_leaves_the_suite_and_no_child(monkeypatch):
    def boom(cfg):
        raise ValueError("check exploded")

    monkeypatch.setitem(CHECKS, "scaling-counts", boom)
    free_cpus(monkeypatch, 2)
    before = gc_state()
    with pytest.raises(ValueError, match="check exploded"):
        run_suite(SuiteConfig(checks=tuple(QUICK.split(","))))
    assert main(["suite", "--checks", QUICK]) == 2
    assert gc_state() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_check_the_helper_did_not_report_runs_again_here(monkeypatch,
                                                           tmp_path):
    parent, raised = os.getpid(), tmp_path / "raised"
    ran_here = []

    def check(cfg):
        if os.getpid() != parent:
            raised.touch()
            raise RuntimeError("the helper fails")
        # hold this process until the helper has claimed the other check
        deadline = time.monotonic() + 30
        while not raised.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        ran_here.append(cfg.seed)
        return True, "ran"

    names = ("cone-fiber", "scaling-counts")
    for name in names:
        monkeypatch.setitem(CHECKS, name, check)
    free_cpus(monkeypatch, 2)
    before = gc_state()
    status, report = run_suite(SuiteConfig(checks=names))
    assert status == 0 and raised.exists()
    assert [c["check"] for c in report["checks"]] == list(names)
    assert len(ran_here) == 2
    assert gc_state() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


README = Path(__file__).resolve().parent.parent / "README.md"
# the README examples that read no input file
SELF_CONTAINED = {("zoo", "build"), ("poset", "mapspace"),
                  ("poset", "descends"), ("certify", "pivot"),
                  ("certify", "paper"), ("export", "dot")}


def _readme_commands():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("twarrow ")]


def test_readme_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = [argv for argv in _readme_commands()
            if tuple(argv[:2]) in SELF_CONTAINED]
    assert {tuple(argv[:2]) for argv in runs} == SELF_CONTAINED
    for argv in runs:
        assert main(argv) == 0, argv


def test_main_without_command():
    assert main([]) == 2

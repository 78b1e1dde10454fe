"""Command-line surface: subcommands, serialization, exports, the suite."""

import json
import shlex
import time
from pathlib import Path

import pytest

from twarrow.anodyne import certificate_from_json, verify_certificate
from twarrow.cli import (
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
from twarrow.core.io import complex_to_json, complexes_equal
from twarrow.core.maps import SimplicialMap, map_by_vertices
from twarrow.core.ops import QUOTIENT_CAP
from twarrow.core.poset import NERVE_CAP, Poset, nerve, total_order
from twarrow.core.simplex import Simplex
from twarrow.decor import Decorated
from twarrow.fibration import horn_inclusion
from twarrow.partitions import CHAIN_ELEMENTS_CAP, CHAIN_POSET_CAP


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


def test_export_unknown_object():
    with pytest.raises(ValueError, match="unknown zoo object"):
        export_text("json", "mystery", 1)


def test_zoo_build_cli(tmp_path):
    out = tmp_path / "q1.json"
    assert main(["zoo", "build", "q", "--n", "1",
                 "--json", str(out)]) == 0
    first = out.read_bytes()
    assert main(["zoo", "build", "q", "--n", "1",
                 "--json", str(out)]) == 0
    assert out.read_bytes() == first
    assert main(["zoo", "build", "k", "--n", "2", "--i", "2"]) == 0
    assert main(["zoo", "build", "k", "--n", "0"]) == 2


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
    _refused_at_once(capsys, ["zoo", "build", "r", "--n", "5"],
                     f"cells, cap {NERVE_CAP}")


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
    # h_rho without its switch index is a usage error
    assert main(["poset", "descends", "--map", "h_rho", "--n", "1"]) == 2


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


def test_check_cli_trivial(tmp_path):
    I = standard_simplex(1)
    p = map_by_vertices(I, standard_simplex(0), lambda v: 0)
    m = write(tmp_path / "int.json", map_to_json(p))
    assert main(["check", "trivial", "--map", m, "--max-dim", "1"]) == 1


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
    with pytest.raises(ValueError, match="dim_cap"):
        SuiteConfig(dim_cap=99)
    with pytest.raises(ValueError, match="injection"):
        SuiteConfig(inject="sabotage")


def test_run_suite_returns_report():
    status, report = run_suite(SuiteConfig(checks=("scaling-counts",)))
    assert status == 0
    assert report["checks"][0]["check"] == "scaling-counts"


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

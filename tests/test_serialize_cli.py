import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from knotweights import canon, cli, jacobi
from knotweights.alexander import alexander_poly
from knotweights.bcr import EXTERNAL, INTERNAL, validate_bcr, wheel_bcr
from knotweights.enumerate import enumerate_jacobi
from knotweights.errors import DiagramError, ParseError, VertexTypeViolation
from knotweights.jacobi import (JacobiDiagram, class_of, product,
                                single_chord, wheel)
from knotweights.pd import parse_pd
from knotweights.serialize import from_json, jacobi_to_obj, to_json
from knotweights.series import conway_series

from helpers import refuse_search

FIXTURES = Path(__file__).parent / "fixtures"


def test_jacobi_round_trip():
    w = wheel(2)
    again = from_json(to_json(w))
    assert class_of(again) == class_of(w)
    assert again.univalent_order == w.univalent_order


def test_numbered_round_trip():
    w = wheel(2)
    d = JacobiDiagram(w.nv, w.univalent_order, w.edges, w.orient,
                      numbering={i: i + 1 for i in range(4)})
    again = from_json(to_json(d))
    assert again.numbering == d.numbering


def test_bcr_round_trip():
    b = wheel_bcr(3)
    again = from_json(to_json(b))
    assert again.type_of == b.type_of
    assert again.external == b.external


def test_serialization_is_deterministic():
    a = to_json(wheel(3))
    b = to_json(wheel(3))
    assert a == b
    obj = json.loads(a)
    assert list(obj) == ["kind", "vertices", "edges", "univalent_order"]


@pytest.mark.parametrize("obj", [None, 3, {"kind": "jacobi"}])
def test_to_json_refuses_what_is_not_a_diagram(obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        to_json(obj)


def test_golden_bytes_single_chord():
    assert to_json(single_chord()) == (
        '{"kind":"jacobi",'
        '"vertices":[{"id":0,"class":"univalent"},'
        '{"id":1,"class":"univalent"}],'
        '"edges":[{"id":0,"from":0,"to":1,"class":"plain"}],'
        '"univalent_order":[0,1]}\n')


def _run(tmp_path, monkeypatch, *argv):
    # the directory the removed disk cache read, so planted files show up
    # in any run that still reads it
    monkeypatch.setenv("KNOTWEIGHTS_CACHE_DIR", str(tmp_path / "cache"))
    return cli.main(list(argv))


def test_cli_dim(tmp_path, monkeypatch, capsys):
    assert _run(tmp_path, monkeypatch, "dim", "--degree", "0") == 0
    out = capsys.readouterr().out
    assert "dim A = 1" in out


def test_cli_verify_prop32_degree_two(tmp_path, monkeypatch, capsys):
    assert _run(tmp_path, monkeypatch,
                "verify", "prop32", "--degree", "2") == 0
    assert "0 failures" in capsys.readouterr().out


def test_cli_verify_lemma33(tmp_path, monkeypatch, capsys):
    assert _run(tmp_path, monkeypatch,
                "verify", "lemma33", "--degree", "2") == 0
    assert "wbcr(wheel_2) = 2" in capsys.readouterr().out


def test_cli_weight_and_wbcr(tmp_path, monkeypatch, capsys):
    f = tmp_path / "w2.json"
    f.write_text(to_json(wheel(2)))
    assert _run(tmp_path, monkeypatch,
                "weight", "--system", "wc", "--diagram", str(f)) == 0
    assert capsys.readouterr().out.strip() == "-2"
    assert _run(tmp_path, monkeypatch,
                "weight", "--system", "wcp", "--diagram", str(f)) == 0
    assert capsys.readouterr().out.strip() == "-2"
    assert _run(tmp_path, monkeypatch,
                "wbcr", "--diagram", str(f)) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_weight_respects_the_cap(tmp_path, monkeypatch, capsys):
    w3, w5 = tmp_path / "w3.json", tmp_path / "w5.json"
    w3.write_text(to_json(wheel(3)))
    w5.write_text(to_json(wheel(5)))
    for system in ("wc", "wcp"):
        assert _run(tmp_path, monkeypatch, "weight", "--system", system,
                    "--diagram", str(w3), "--k-max", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside supported range" in captured.err
    assert _run(tmp_path, monkeypatch, "weight", "--system", "wcp",
                "--diagram", str(w5), "--k-max", "5") == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_weight_checks_the_cap_before_canonicalizing(tmp_path,
                                                         monkeypatch, capsys):
    w5 = tmp_path / "w5.json"
    w5.write_text(to_json(wheel(5)))

    def refuse(*args, **kwargs):
        raise AssertionError("canonical_form ran before the degree check")

    monkeypatch.setattr(canon, "canonical_form", refuse)
    monkeypatch.setattr(jacobi, "canonical_form", refuse)
    for system in ("wc", "wcp"):
        assert _run(tmp_path, monkeypatch, "weight", "--system", system,
                    "--diagram", str(w5)) == 2
        assert "outside supported range" in capsys.readouterr().err


def test_cli_weight_never_canonicalizes(tmp_path, monkeypatch, capsys):
    w4, w2w2 = tmp_path / "w4.json", tmp_path / "w2w2.json"
    w4.write_text(to_json(wheel(4)))
    w2w2.write_text(to_json(product(wheel(2), wheel(2))))
    refuse_search(monkeypatch)
    for path, system, want in [(w4, "wc", "-2"), (w4, "wcp", "-2"),
                               (w2w2, "wc", "4"), (w2w2, "wcp", "0")]:
        assert _run(tmp_path, monkeypatch, "weight", "--system", system,
                    "--diagram", str(path)) == 0
        assert capsys.readouterr().out.strip() == want


def test_cli_alexander(tmp_path, monkeypatch, capsys):
    assert _run(tmp_path, monkeypatch, "alexander", "--json",
                "--pd", str(FIXTURES / "3_1.pd"),
                "--series", "4", "--zbcr") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["delta"] == "t - 1 + t^-1"
    assert data["zbcr"]["2"] == "-1"
    assert data["zbcr"]["4"] == "5/12"


@pytest.mark.parametrize("name", ["unknot", "3_1", "5_1", "6_2", "7_1"])
def test_cli_conway_field_is_the_expansion(tmp_path, monkeypatch, capsys,
                                           name):
    pd = FIXTURES / f"{name}.pd"
    assert _run(tmp_path, monkeypatch, "alexander", "--json", "--pd",
                str(pd), "--series", "8", "--zbcr") == 0
    data = json.loads(capsys.readouterr().out)
    delta = alexander_poly(parse_pd(pd.read_text()))
    want = conway_series(delta, 8)
    assert data["conway"] == {str(k): str(v) for k, v in want.items()}
    assert data["series"] == [str(want[k]) for k in range(9)]


def test_cli_non_planar_pd_exits_two(tmp_path, monkeypatch, capsys):
    f = tmp_path / "virtual.pd"
    f.write_text("X(12,5,1,4) -\nX(7,7,8,6) -\nX(1,11,2,12) +\n"
                 "X(2,8,3,9) +\nX(10,10,11,9) -\nX(3,6,4,5) -\n")
    assert _run(tmp_path, monkeypatch, "alexander", "--pd", str(f)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "not planar" in captured.err


@pytest.mark.parametrize("code, arc", [("X(1,1,2,2)", 2), ("X(2,2,1,1)", 1)])
def test_cli_two_strands_on_one_arc_exit_two(tmp_path, monkeypatch, capsys,
                                             code, arc):
    # both strands run along the same arc, so the other arc has no successor
    f = tmp_path / "dangling.pd"
    f.write_text(code + "\n")
    assert _run(tmp_path, monkeypatch, "alexander", "--pd", str(f)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: arc {arc} has no successor (two "
                            f"strands run along the same arc)\n")


def test_cli_enumerate_json_stable(tmp_path, monkeypatch, capsys):
    assert _run(tmp_path, monkeypatch, "enumerate", "jacobi",
                "--degree", "1", "--json") == 0
    first = capsys.readouterr().out
    assert _run(tmp_path, monkeypatch, "enumerate", "jacobi",
                "--degree", "1", "--json") == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["count"] == 2


def _assert_emit_is_one_dumps(obj, capsys):
    cli._emit(obj, True)
    assert capsys.readouterr().out == json.dumps(
        obj, indent=2, sort_keys=True) + "\n"


def test_emit_writes_the_bytes_of_one_dumps(capsys):
    _assert_emit_is_one_dumps(
        {"b": [1, 2.5, None, True], "a": {"z": "\u00e9", "y": []}}, capsys)
    cli._emit({"a": 1}, False)
    assert capsys.readouterr().out == ""


def test_emit_writes_every_kind_of_value_as_dumps_does(capsys):
    _assert_emit_is_one_dumps(
        {"tuple": (1, (2, "x")), "empty": {}, "lists": [[], {}, [[]]],
         "none": None, "float": -0.5, "big": 10 ** 30, "neg": -7,
         "flags": [True, False], "text": "quote\" slash\\ tab\t \u2603"},
        capsys)
    _assert_emit_is_one_dumps([], capsys)
    _assert_emit_is_one_dumps("top", capsys)


def test_emit_of_a_degree_four_enumeration_spans_several_blocks(capsys):
    diagrams = [jacobi_to_obj(d) for d in enumerate_jacobi(4)]
    obj = {"kind": "jacobi", "degree": 4, "count": len(diagrams),
           "diagrams": diagrams}
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    assert sum(1 for _ in chunks) > 8192
    _assert_emit_is_one_dumps(obj, capsys)


def test_cli_ignores_and_never_writes_planted_cache_files(tmp_path,
                                                         monkeypatch, capsys):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    planted = [cache_dir / "dims-v1-k2.pickle",
               cache_dir / "enumerate-jacobi-v1-k1.pickle"]
    planted[0].write_bytes(pickle.dumps(
        {"degree": 2, "dim_A": 99, "dim_P": 0, "dim_N": 0, "dim_T": 0}))
    planted[1].write_bytes(pickle.dumps([]))
    assert _run(tmp_path, monkeypatch, "dim", "--degree", "2") == 0
    assert "dim A = 5" in capsys.readouterr().out
    assert _run(tmp_path, monkeypatch, "enumerate", "jacobi",
                "--degree", "1", "--json") == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2
    assert sorted(cache_dir.iterdir()) == sorted(planted)


def test_cli_usage_error_exits_two(tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, monkeypatch, "verify", "nonsense", "--degree", "2")
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ("dim", "--degree", "2"),
    ("enumerate", "jacobi", "--degree", "2"),
    ("verify", "lemma33", "--degree", "2"),
])
def test_cli_negative_k_max_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                             argv):
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, monkeypatch, *argv, "--k-max", "-3")
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--k-max: must be >= 0, got -3" in captured.err
    assert "range" not in captured.err
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, monkeypatch, *argv, "--k-max", "four")
    assert err.value.code == 2
    assert ("--k-max: must be an integer >= 0, got 'four'"
            in capsys.readouterr().err)


def test_cli_sign_that_cannot_be_inferred_exits_two(tmp_path, monkeypatch,
                                                    capsys):
    # in X(1,5,2,3) neither of the arcs 5 and 3 follows the other, so
    # without a +/- suffix the over strand has no direction
    f = tmp_path / "unsigned.pd"
    f.write_text("X(1,5,2,3)\nX(3,1,4,6)\nX(5,3,6,2)\n")
    assert _run(tmp_path, monkeypatch, "alexander", "--pd", str(f)) == 2
    assert _assert_input_error(capsys) == (
        "error: line 1: cannot parse 'X(1,5,2,3)' (cannot infer the "
        "crossing sign; add a +/- suffix)\n")


def test_cli_bad_diagram_file_reports_error(tmp_path, monkeypatch, capsys):
    f = tmp_path / "bad.pd"
    f.write_text("X(1,2,3)\n")
    assert _run(tmp_path, monkeypatch, "alexander", "--pd", str(f)) == 2
    assert "error" in capsys.readouterr().err


def test_cli_verify_ignores_and_never_writes_the_cache(tmp_path, monkeypatch,
                                                        capsys):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    bogus = [{"key": "bogus", "wbcr": Fraction(7),
              "minus_wc_prime": Fraction(7), "equal": True}]
    planted = cache_dir / "verify-prop32-v1-k2.pickle"
    planted.write_bytes(pickle.dumps(bogus))
    assert _run(tmp_path, monkeypatch, "verify", "prop32", "--degree", "2",
                "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["rows"]) == 10
    assert all(r["class"] != "bogus" for r in report["rows"])
    assert _run(tmp_path, monkeypatch, "verify", "prop32", "--degree", "2",
                "--json") == 0
    assert json.loads(capsys.readouterr().out) == report
    assert sorted(cache_dir.iterdir()) == [planted]


@pytest.mark.parametrize("argv", [
    ("dim", "--degree", "3"),
    ("enumerate", "jacobi", "--degree", "3"),
    ("enumerate", "bcr", "--degree", "3"),
])
def test_cli_degree_cap_holds_on_a_warm_cache(tmp_path, monkeypatch, capsys,
                                              argv):
    assert _run(tmp_path, monkeypatch, *argv) == 0
    capsys.readouterr()
    assert _run(tmp_path, monkeypatch, *argv, "--k-max", "2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "outside supported range" in captured.err


def test_cli_cap_below_the_lowest_degree_admits_none(tmp_path, monkeypatch,
                                                     capsys):
    # BCR diagrams start at degree 1, so --k-max 0 leaves no degree at all
    for degree in ("1", "0"):
        assert _run(tmp_path, monkeypatch, "enumerate", "bcr",
                    "--degree", degree, "--k-max", "0") == 2
        err = _assert_input_error(capsys)
        assert (f"degree {degree} outside supported range: the cap --k-max 0 "
                "admits no degree, as the lowest is 1") in err
        assert "[1, 0]" not in err
    assert _run(tmp_path, monkeypatch, "enumerate", "bcr",
                "--degree", "2", "--k-max", "1") == 2
    assert ("degree 2 outside supported range [1, 1]"
            in _assert_input_error(capsys))


def test_cli_verify_lemma33_respects_the_cap(tmp_path, monkeypatch, capsys):
    assert _run(tmp_path, monkeypatch,
                "verify", "lemma33", "--degree", "5") == 2
    assert "outside supported range" in capsys.readouterr().err
    assert _run(tmp_path, monkeypatch,
                "verify", "lemma33", "--degree", "3", "--k-max", "2") == 2


def test_cli_verify_lemma33_past_the_default_cap(tmp_path, monkeypatch,
                                                 capsys):
    assert _run(tmp_path, monkeypatch, "verify", "lemma33", "--degree", "6",
                "--k-max", "6") == 0
    assert "wbcr(wheel_6) = 2" in capsys.readouterr().out


def test_cli_verify_lemma33_checks_the_cap_before_the_wheel(
        tmp_path, monkeypatch, capsys):
    # wheel validation is quadratic: wheel(100000) alone runs for minutes
    def refuse(k):
        raise AssertionError("wheel built before the degree check")
    monkeypatch.setattr(cli, "wheel", refuse)
    assert _run(tmp_path, monkeypatch,
                "verify", "lemma33", "--degree", "100000") == 2
    assert ("degree 100000 outside supported range [0, 4]"
            in _assert_input_error(capsys))


@pytest.mark.parametrize("k", [0, 1])
def test_cli_verify_lemma33_names_a_degree_without_a_wheel(
        tmp_path, monkeypatch, capsys, k):
    with pytest.raises(DiagramError, match=f"no wheel of degree {k}"):
        wheel(k)
    assert _run(tmp_path, monkeypatch,
                "verify", "lemma33", "--degree", str(k)) == 2
    assert (f"no wheel of degree {k}: wheels need k >= 2"
            in _assert_input_error(capsys))


_DIAGRAM_ARGV = [("wbcr", "--diagram"),
                 ("weight", "--system", "wc", "--diagram")]


def _assert_input_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("argv", _DIAGRAM_ARGV + [("alexander", "--pd")])
def test_cli_unreadable_input_exits_two(tmp_path, monkeypatch, capsys, argv,
                                        case):
    path = tmp_path / "input"
    if case == "directory":
        path.mkdir()
    elif case == "not_utf8":
        path.write_bytes(b'{"kind": "jacobi"\xff}')
    assert _run(tmp_path, monkeypatch, *argv, str(path)) == 2
    err = _assert_input_error(capsys)
    assert err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("text", [
    '{"kind": "jacobi", "vertices": [',
    '{"kind": "jacobi", "edges": []}',
    "[1, 2]",
    to_json(wheel_bcr(2)),
    '{"kind": "chord", "vertices": [], "edges": []}',
], ids=["malformed", "no_vertices", "a_list", "bcr_kind", "unknown_kind"])
@pytest.mark.parametrize("argv", _DIAGRAM_ARGV)
def test_cli_malformed_diagram_exits_two(tmp_path, monkeypatch, capsys, argv,
                                         text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert _run(tmp_path, monkeypatch, *argv, str(path)) == 2
    _assert_input_error(capsys)


def _jacobi_text(nv, edges, order, classes=None):
    classes = classes or ["univalent"] * nv
    return json.dumps({
        "kind": "jacobi",
        "vertices": [{"id": v, "class": c} for v, c in enumerate(classes)],
        "edges": [{"id": i, "from": a, "to": b, "class": "plain"}
                  for i, (a, b) in enumerate(edges)],
        "univalent_order": order})


_BCR_INTO_MISSING_VERTEX = json.dumps({
    "kind": "bcr",
    "vertices": [{"id": 0, "class": "internal"},
                 {"id": 1, "class": "internal"}],
    "edges": [{"id": 0, "from": 0, "to": 3, "class": "int"},
              {"id": 1, "from": 1, "to": 0, "class": "ext"}]})


@pytest.mark.parametrize("text, vertex", [
    (_jacobi_text(2, [(0, 5)], [0, 1]), 5),
    (_jacobi_text(2, [(0, -1)], [0, 1]), -1),
    (_jacobi_text(4, [(0, 2), (1, 3)], [0, 1, 2, 3, 42]), 42),
    (_BCR_INTO_MISSING_VERTEX, 3),
], ids=["edge_past_the_end", "edge_negative", "line_past_the_end",
        "bcr_edge_past_the_end"])
@pytest.mark.parametrize("argv", _DIAGRAM_ARGV)
def test_cli_vertex_id_out_of_range_exits_two(tmp_path, monkeypatch, capsys,
                                              argv, text, vertex):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert _run(tmp_path, monkeypatch, *argv, str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: vertex {vertex} ")
    assert "Traceback" not in captured.err


_BOOLEAN_VERTEX_IDS = json.dumps({
    "kind": "jacobi",
    "vertices": [{"id": False, "class": "univalent"},
                 {"id": True, "class": "univalent"}],
    "edges": [{"id": 0, "from": 0, "to": 1, "class": "plain"}],
    "univalent_order": [0, 1]})


def _chord_with_edge_id(edge_id):
    return json.dumps({
        "kind": "jacobi",
        "vertices": [{"id": 0, "class": "univalent"},
                     {"id": 1, "class": "univalent"}],
        "edges": [{"id": edge_id, "from": 0, "to": 1, "class": "plain"}],
        "univalent_order": [0, 1]})


def _chord_with_edge_row(**row):
    obj = json.loads(to_json(single_chord()))
    obj["edges"][0].update(row)
    return json.dumps(obj)


def _chord_without_edge_class():
    obj = json.loads(to_json(single_chord()))
    del obj["edges"][0]["class"]
    return json.dumps(obj)


def _wheel_2_with_orient(vertex, orient):
    obj = json.loads(to_json(wheel(2)))
    obj["vertices"][vertex]["orient"] = orient
    return json.dumps(obj)


@pytest.mark.parametrize("text, message", [
    (_jacobi_text(2, [(0, 1)], [0, 1], ["trivalent", "bogus"]),
     "vertex 0 has no admissible local type: class 'trivalent', but the "
     "diagram makes it 'univalent'"),
    (_jacobi_text(2, [(0, 1)], [0, 1], ["univalent", "bogus"]),
     "vertex 1 has no admissible local type: class 'bogus'"),
    (_jacobi_text(2, [(0, True)], [False, 1]),
     "vertex True has no admissible local type: the id is not an integer"),
    (_jacobi_text(2, [(0, 1)], [False, 1]),
     "vertex False has no admissible local type: the id is not an integer"),
    (_BOOLEAN_VERTEX_IDS, "ids must be the integers 0..n-1"),
    (_chord_with_edge_id(7), "cannot parse 'edges' (ids must be the "
                             "integers 0..m-1)"),
    (_chord_with_edge_id(True), "ids must be the integers 0..m-1"),
    (_wheel_2_with_orient(0, [1]),
     "vertex 0 has no admissible local type: oriented but not trivalent"),
    (_wheel_2_with_orient(2, [7, 4, True]),
     "cannot parse 'orient' (half-edge id true is not an integer)"),
    (_chord_with_edge_row(number="x"), "numbering must inject the edges"),
    (_chord_with_edge_row(number=True), "numbering must inject the edges"),
    (_chord_with_edge_row(number=1.0), "numbering must inject the edges"),
    (_chord_with_edge_row(**{"class": "weird"}),
     "cannot parse 'edges' (edge 0 has class \"weird\", not one of plain)"),
    (_chord_without_edge_class(), "missing field 'class'"),
    (_jacobi_text(3, [(0, 1)], [0, 1, 2]),
     "vertex 2 has no admissible local type: odd vertex count"),
    (_wheel_2_with_orient(2, [7, 4, 5]),
     "vertex 2 has no admissible local type: bad cyclic orientation"),
    ('{"kind": "chord", "vertices": [], "edges": []}',
     "cannot parse 'chord' (kind must be 'jacobi' or 'bcr')"),
], ids=["trivalent_on_the_line", "bogus_class", "boolean_edge_end",
        "boolean_line_vertex", "boolean_vertex_ids", "edge_id_seven",
        "boolean_edge_id", "orient_on_a_line_vertex",
        "boolean_half_edge_id", "string_number", "boolean_number",
        "float_number", "weird_edge_class", "no_edge_class",
        "odd_vertex_count", "half_edge_of_another_vertex", "unknown_kind"])
@pytest.mark.parametrize("argv", _DIAGRAM_ARGV)
def test_cli_vertex_class_and_id_type_are_checked(tmp_path, monkeypatch,
                                                  capsys, argv, text,
                                                  message):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert _run(tmp_path, monkeypatch, *argv, str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_bcr_vertex_class_is_checked():
    obj = json.loads(to_json(wheel_bcr(2)))
    row = next(r for r in obj["vertices"] if r["class"] == "internal")
    row["class"] = "bogus"
    with pytest.raises(VertexTypeViolation, match="class 'bogus'"):
        from_json(json.dumps(obj))


@pytest.mark.parametrize("value", ["weird", "internal", None])
def test_bcr_edge_class_is_checked(value):
    obj = json.loads(to_json(wheel_bcr(2)))
    obj["edges"][0]["class"] = value
    with pytest.raises(ParseError, match="edge 0 has class"):
        from_json(json.dumps(obj))


@pytest.mark.parametrize("value", ["weird", "internal", None])
def test_validate_bcr_checks_the_edge_class(value):
    # the class is read before any other check, so a loop on no vertices
    # reports it too
    message = (f"cannot parse 'edges' (edge 1 has class {json.dumps(value)}, "
               f"not one of int, ext)")
    for nv, edges in ((2, [(0, 1, INTERNAL), (1, 0, value)]),
                      (0, [(0, 1, INTERNAL), (0, 0, value)])):
        with pytest.raises(ParseError) as info:
            validate_bcr(nv, [], edges)
        assert str(info.value) == "line 0: " + message


def test_cli_wbcr_refuses_the_long_edge_class_names(tmp_path, monkeypatch,
                                                    capsys):
    obj = json.loads(to_json(wheel_bcr(2)))
    for row in obj["edges"]:
        row["class"] = {INTERNAL: "internal", EXTERNAL: "external"}[
            row["class"]]
    path = tmp_path / "wheel_bcr.json"
    path.write_text(json.dumps(obj))
    assert _run(tmp_path, monkeypatch, "wbcr", "--diagram", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: line 0: cannot parse 'edges' (edge 0 has "
                            "class \"external\", not one of int, ext)\n")


def test_orientations_off_the_trivalent_vertices_are_rejected():
    for orient in ({5: ((0, 0),)}, {0: ((0, 0),)}, {True: ((0, 1),)}):
        with pytest.raises(VertexTypeViolation, match="not trivalent"):
            JacobiDiagram(2, [0, 1], [(0, 1)], orient)
    w = wheel(2)
    with pytest.raises(VertexTypeViolation, match="not trivalent"):
        JacobiDiagram(w.nv, w.univalent_order, w.edges,
                      {**w.orient, 1: ((1, 0),)})


def test_boolean_vertex_ids_are_rejected_by_the_constructors():
    with pytest.raises(VertexTypeViolation, match="not an integer"):
        JacobiDiagram(2, [0, 1], [(0, True)], {})
    with pytest.raises(VertexTypeViolation, match="not an integer"):
        JacobiDiagram(2, [0, True], [(0, 1)], {})
    edges = [(0, 1, EXTERNAL), (2, 1, EXTERNAL), (1, 0, INTERNAL)]
    with pytest.raises(VertexTypeViolation, match="not an integer"):
        validate_bcr(3, [True], edges)
    with pytest.raises(VertexTypeViolation, match="not an integer"):
        validate_bcr(3, [1], [(0, True, EXTERNAL)] + edges[1:])


def test_cli_series_order_zero_and_negative(tmp_path, monkeypatch, capsys):
    pd = str(FIXTURES / "3_1.pd")
    assert _run(tmp_path, monkeypatch, "alexander", "--json", "--pd", pd,
                "--series", "0") == 0
    assert json.loads(capsys.readouterr().out)["series"] == ["1"]
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, monkeypatch, "alexander", "--pd", pd, "--series", "-1")
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --series" in captured.err


def test_cli_zbcr_needs_series(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, monkeypatch, "alexander", "--pd",
             str(FIXTURES / "3_1.pd"), "--zbcr")
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --zbcr needs --series" in captured.err


def test_cli_alexander_takes_no_degree_cap(tmp_path, monkeypatch, capsys):
    # a PD code has no degree, so there is nothing for --k-max to cap
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, monkeypatch, "alexander", "--pd",
             str(FIXTURES / "3_1.pd"), "--k-max", "3")
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --k-max 3" in captured.err


def test_cli_second_call_in_one_process_is_independent(tmp_path, monkeypatch,
                                                       capsys):
    # the parser is built once per process; a good call must leave nothing
    # behind that the next call's checks could see
    pd = str(FIXTURES / "3_1.pd")
    assert _run(tmp_path, monkeypatch, "alexander", "--json", "--pd", pd,
                "--series", "4", "--zbcr") == 0
    assert json.loads(capsys.readouterr().out)["zbcr"]["2"] == "-1"
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, monkeypatch, "alexander", "--pd", pd, "--zbcr")
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --zbcr needs --series" in captured.err
    assert _run(tmp_path, monkeypatch, "alexander", "--pd", pd) == 0
    assert capsys.readouterr().out == "Delta(t) = t - 1 + t^-1\n"
    assert cli.build_parser() is cli.build_parser()


def _fail_bareiss(pd):
    raise ArithmeticError("Bareiss step is not an exact division")


@pytest.mark.parametrize("name, fake, message", [
    ("alexander_by_skein", lambda pd: cli.alexander_poly(pd) * 2,
     "error: the determinant gives t - 1 + t^-1 but the skein recursion "
     "gives 2*t - 2 + 2*t^-1\n"),
    ("alexander_poly", _fail_bareiss,
     "error: Bareiss step is not an exact division\n"),
])
def test_cli_alexander_failed_check_exits_one(tmp_path, monkeypatch, capsys,
                                              name, fake, message):
    monkeypatch.setattr(cli, name, fake)
    assert _run(tmp_path, monkeypatch, "alexander", "--json",
                "--pd", str(FIXTURES / "3_1.pd"), "--series", "4") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message

import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from knotweights import cli
from knotweights.bcr import wheel_bcr
from knotweights.jacobi import JacobiDiagram, class_of, wheel
from knotweights.serialize import from_json, to_json

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


def test_golden_bytes_single_chord():
    from knotweights.jacobi import single_chord
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


def test_cli_alexander(tmp_path, monkeypatch, capsys):
    assert _run(tmp_path, monkeypatch, "alexander", "--json",
                "--pd", str(FIXTURES / "3_1.pd"),
                "--series", "4", "--zbcr") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["delta"] == "t - 1 + t^-1"
    assert data["zbcr"]["2"] == "-1"
    assert data["zbcr"]["4"] == "5/12"


def test_cli_enumerate_json_stable(tmp_path, monkeypatch, capsys):
    assert _run(tmp_path, monkeypatch, "enumerate", "jacobi",
                "--degree", "1", "--json") == 0
    first = capsys.readouterr().out
    assert _run(tmp_path, monkeypatch, "enumerate", "jacobi",
                "--degree", "1", "--json") == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["count"] == 2


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


_DIAGRAM_ARGV = [("wbcr", "--diagram"),
                 ("weight", "--system", "wc", "--diagram")]


def _assert_input_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("case", ["missing", "directory"])
@pytest.mark.parametrize("argv", _DIAGRAM_ARGV + [("alexander", "--pd")])
def test_cli_unreadable_input_exits_two(tmp_path, monkeypatch, capsys, argv,
                                        case):
    path = tmp_path / "input"
    if case == "directory":
        path.mkdir()
    assert _run(tmp_path, monkeypatch, *argv, str(path)) == 2
    _assert_input_error(capsys)


@pytest.mark.parametrize("text", [
    '{"kind": "jacobi", "vertices": [',
    '{"kind": "jacobi", "edges": []}',
    "[1, 2]",
    to_json(wheel_bcr(2)),
], ids=["malformed", "no_vertices", "a_list", "bcr_kind"])
@pytest.mark.parametrize("argv", _DIAGRAM_ARGV)
def test_cli_malformed_diagram_exits_two(tmp_path, monkeypatch, capsys, argv,
                                         text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert _run(tmp_path, monkeypatch, *argv, str(path)) == 2
    _assert_input_error(capsys)


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

"""Tests of the benchmark's own generators, references, checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import knots  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from knotweights.alexander import alexander_by_skein, alexander_poly  # noqa: E402
from knotweights.pd import parse_pd  # noqa: E402
from knotweights.series import LaurentPolynomial, exp_substitute, zbcr_series  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"

# Published Alexander polynomials (symmetric, value 1 at t = 1).
PUBLISHED = {
    "3_1": {1: 1, 0: -1, -1: 1},
    "4_1": {1: -1, 0: 3, -1: -1},
    "5_1": {2: 1, 1: -1, 0: 1, -1: -1, -2: 1},
    "5_2": {1: 2, 0: -3, -1: 2},
    "6_1": {1: -2, 0: 5, -1: -2},
    "7_1": {3: 1, 2: -1, 1: 1, 0: -1, -1: 1, -2: -1, -3: 1},
}


def program_delta(crossings):
    pd = parse_pd(knots.format_pd(crossings))
    delta = alexander_poly(pd)
    assert delta == alexander_by_skein(pd)
    return {e: int(c) for e, c in delta.coeffs.items()}


@pytest.mark.parametrize("n", [3, 5, 7])
def test_torus_generator_reproduces_fixtures(n):
    text = (FIXTURES / f"{n}_1.pd").read_text()
    assert knots.format_pd(knots.torus_pd(n)) == text


@pytest.mark.parametrize("n", [3, 5, 7])
def test_torus_closed_form(n):
    assert knots.torus_delta(2, n) == PUBLISHED[f"{n}_1"]


@pytest.mark.parametrize("n,name", [(1, "3_1"), (2, "4_1"), (3, "5_2"),
                                    (4, "6_1")])
def test_twist_closed_form_matches_fixture_knots(n, name):
    assert knots.twist_delta(n) == PUBLISHED[name]
    fixture = parse_pd((FIXTURES / f"{name}.pd").read_text())
    assert {e: int(c) for e, c in alexander_poly(fixture).coeffs.items()} \
        == PUBLISHED[name]


@pytest.mark.parametrize("n", range(1, 9))
def test_twist_generator_gives_twist_knots(n):
    crossings = knots.twist_pd(n)
    assert len(crossings) == n + 2
    assert program_delta(crossings) == knots.twist_delta(n)


@pytest.mark.parametrize("n", [9, 11])
def test_torus_generator_beyond_fixtures(n):
    assert program_delta(knots.torus_pd(n)) == knots.torus_delta(2, n)


@pytest.mark.parametrize("a,b", [(("T", 3), ("T", 3)), (("T", 5), ("W", 2)),
                                 (("W", 3), ("W", 4)), (("W", 1), ("T", 7))])
def test_connected_sum_multiplies(a, b):
    _, pd_a, d_a = knots._prime(*a)
    _, pd_b, d_b = knots._prime(*b)
    crossings = knots.connected_sum_pd(pd_a, pd_b)
    assert len(crossings) == len(pd_a) + len(pd_b)
    assert program_delta(crossings) == knots.sum_delta(d_a, d_b)


def test_draw_is_seeded_and_fixed_in_content():
    first = [(n, c) for n, c, _ in knots.draw(5)]
    assert first == [(n, c) for n, c, _ in knots.draw(5)]
    other = [(n, c) for n, c, _ in knots.draw(6)]
    assert first != other and sorted(first) == sorted(other)
    names = [n for n, _ in first]
    assert len(set(names)) == len(names)
    assert sum(n.endswith("*") for n in names) == len(names) // 2
    sizes = sorted(len(c) for _, c in first)
    assert sizes[0] == 3 and sizes[-1] == 17


@pytest.mark.parametrize("name", ["T(2,5)", "Tw(3)", "T(2,7)#Tw(4)"])
def test_mirror_keeps_the_polynomial(name):
    knot = {n: (c, d) for n, c, d in knots.draw(0)}
    crossings, delta = knot[name]
    mirrored, delta_m = knot[name + "*"]
    assert delta == delta_m
    assert program_delta(mirrored) == delta
    pd = parse_pd(knots.format_pd(mirrored))
    assert [x.sign for x in pd.crossings] == [
        -x.sign for x in parse_pd(knots.format_pd(crossings)).crossings]


@pytest.mark.parametrize("coeffs", [PUBLISHED["5_1"], {1: 2, 0: -3, -1: 2},
                                    {0: 1}, {2: Fraction(1, 2), 0: -7}])
def test_parse_laurent_reads_program_format(coeffs):
    text = str(LaurentPolynomial(coeffs))
    assert knots.parse_laurent(text) == {e: Fraction(c)
                                         for e, c in coeffs.items()}


@pytest.mark.parametrize("name", ["3_1", "5_2", "7_1"])
def test_series_references_agree_with_program(name):
    delta = PUBLISHED[name]
    K = 9
    series = knots.exp_series(delta, K)
    assert series == [exp_substitute(LaurentPolynomial(delta), K)[i]
                      for i in range(K + 1)]
    log = knots.log_series(series)
    assert {k: -log[k] for k in range(2, K + 1)} \
        == zbcr_series(LaurentPolynomial(delta), K)


# -- the checks reject wrong outputs and wrong references ----------------------


def _req(obj, rc=0, name="k"):
    return {"rc": rc, "out": json.dumps(obj), "name": name, "s": 0.0}


def test_prop32_check():
    report = {"pass": True, "rows": [
        {"class": "a", "equal": True, "wbcr": "1/2", "minus_wc_prime": "1/2"},
        {"class": "b", "equal": True, "wbcr": "0", "minus_wc_prime": "0"}]}
    ok = run.Checks()
    run.check_prop32(ok, _req(report), expected_rows=2)
    assert ok.failed == [] and ok.attempted == 5

    wrong_count = run.Checks()
    run.check_prop32(wrong_count, _req(report), expected_rows=3)
    assert len(wrong_count.failed) == 1

    report["rows"][0]["minus_wc_prime"] = "1"
    lying = run.Checks()
    run.check_prop32(lying, _req(report), expected_rows=2)
    assert len(lying.failed) == 1

    failed_exit = run.Checks()
    run.check_prop32(failed_exit, _req(report, rc=1), expected_rows=2)
    assert len(failed_exit.failed) == 1


def test_dims_check():
    table = {"degree": 4, "dim_A": 22, "dim_N": 4, "dim_P": 2, "dim_T": 16}
    ok = run.Checks()
    run.check_dims(ok, _req(table))
    assert ok.failed == []
    bad_ref = run.Checks()
    run.check_dims(bad_ref, _req(table), expected=dict(run.DIMS_D4, dim_P=3))
    assert len(bad_ref.failed) == 1
    bad_sum = run.Checks()
    run.check_dims(bad_sum, _req(dict(table, dim_N=5)))
    assert len(bad_sum.failed) == 1


def test_knot_check():
    delta = PUBLISHED["5_2"]
    argv = ["alexander", "--pd", str(FIXTURES / "5_2.pd"), "--series",
            str(knots.SERIES_K), "--zbcr", "--json"]
    out = subprocess.run([sys.executable, "-m", "knotweights.cli", *argv],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    req = {"rc": 0, "out": out.stdout, "name": "5_2", "s": 0.0}
    ok = run.Checks()
    run.check_knot(ok, req, delta)
    assert ok.failed == [] and ok.attempted == 4
    wrong = run.Checks()
    run.check_knot(wrong, req, knots.twist_delta(4))
    assert len(wrong.failed) == 3


def test_end_to_end_takes_fastest_repeats_scaled_by_the_probe():
    def pass_(times, probes):
        reqs = [{"s": s, "probe_s": p, "probed_s": 0.0}
                for s, p in zip(times, probes)]
        return {"requests": reqs, "peak_rss_mb": 20.0}

    # 0.010 at probe 0.002 and 0.020 at 0.004 both read 0.010 at the
    # reference; 0.200 at 0.001 reads 0.400, slower than 0.300 at 0.002
    ref = run.PROBE_REF_S
    passes = [pass_([0.010, 0.300], [0.002, 0.002]),
              pass_([0.020, 0.200], [0.004, 0.001])]
    runner = run.Runner(ROOT, None, 0)
    runner.setups = [0.1, 0.3, 0.2]
    checks = run.Checks()
    checks.expect(True, "")
    got = run.end_to_end(runner, passes, checks)
    assert got["wall_s"][0] == pytest.approx(0.010 * ref / 0.002
                                             + 0.300 * ref / 0.002)
    assert got["req_p50_ms"][0] == pytest.approx(
        (0.010 + 0.300) / 2 * ref / 0.002 * 1e3)
    assert got["setup_s"][0] == pytest.approx(0.2)


def test_worker_probes_during_a_request_and_takes_them_out(monkeypatch):
    import worker

    def slow_main(argv):
        time.sleep(0.6)
        print("out")
        return 0

    monkeypatch.setattr(worker.knotweights.cli, "main", slow_main)
    req = worker.run_request(["x"], None)
    assert req["rc"] == 0 and req["out"] == "out\n"
    assert len(req["probes"]) == 2  # at 0.25 s and 0.5 s
    assert req["s"] == pytest.approx(0.6, abs=0.05)


def _state():
    return {"relators": 0, "zero_relators": 0, "basis_degree": -1, "dim": 0,
            "rank": 0, "cache_hits": 0, "cache_misses": 0, "hook_errors": []}


def _traced_pass(summary, wall, absent=(), state=None):
    trace = dict(summary, absent=list(absent), state=state or _state(),
                 cache_misses={"quotient.quotient_basis": 1},
                 class_of_under_wbcr=0, project_under_wc_prime=0)
    req = {"s": wall, "probe_s": 0.002, "probed_s": 0.0}
    return {"requests": [req], "wall_s": wall,
            "trace": trace}


def test_per_layer_reports_removed_functions_as_absent():
    names = [f"{m}.{f}" for m, f in tracer.LAYER_FUNCTIONS]
    gone = ["bridge._wbcr_table", "quotient.splitting", "cache.load"]
    kept = [n for n in names if n not in gone]
    self_s = dict.fromkeys(kept, 0.01)
    self_s.update({"request": 0.0, "cli.main": 0.0})
    wall = 0.01 * (len(kept) - 1)  # the layers' self times cover the pass
    summary = {"calls": dict.fromkeys(kept + ["request"], 1),
               "self_s": self_s, "root_s": wall, "spans": len(kept) + 1}
    traced = _traced_pass(summary, wall, absent=gone)
    checks = run.Checks()
    metrics = run.per_layer([traced], [traced], checks)
    absent = sorted(n for n, m in metrics.items() if m.get("absent"))
    assert absent == ["bridge.table_s", "cache.hits", "cache.misses",
                      "quotient.splitting_cache_misses",
                      "quotient.splitting_s"]
    assert all(metrics[n]["value"] == 0 for n in absent)
    assert metrics["quotient.basis_cache_misses"]["value"] == 1
    assert metrics["trace.layers_frac"]["value"] == pytest.approx(1.0)
    assert checks.failed == []


def _layers_check(untraced_s):
    """Trace a CLI call whose layer takes 0.1 s and which spends untraced_s
    more in a call no layer wraps; return the per-layer metrics and checks."""
    t = tracer.Tracer()
    layer = t._wrap(lambda: time.sleep(0.1), "alexander.alexander_poly")

    def cli():
        layer()
        if untraced_s:
            time.sleep(untraced_s)

    start = time.perf_counter()
    t.root(t._wrap(cli, "cli.main"))
    wall = time.perf_counter() - start
    checks = run.Checks()
    metrics = run.per_layer([], [_traced_pass(t.summary(), wall)], checks)
    return metrics, checks


def test_per_layer_fails_when_an_untraced_call_takes_the_time():
    metrics, checks = _layers_check(0.0)
    assert checks.failed == []
    assert metrics["trace.layers_frac"]["value"] >= run.MIN_LAYERS_FRAC
    assert metrics["trace.overhead_s"].get("absent")  # no untraced pass

    metrics, checks = _layers_check(0.2)
    assert metrics["trace.layers_frac"]["value"] < 0.5
    assert metrics["trace.unattributed_s"]["value"] >= 0.2
    assert len(checks.failed) == 1 and "cover only" in checks.failed[0]


def test_run_rounds_is_fixed_and_keeps_passes_before_the_deadline():
    calls = []
    a, b = run.run_rounds(3, lambda: calls.append("a") or "a",
                          lambda: calls.append("b") or "b")
    assert calls == ["a", "b"] * 3 and a == ["a"] * 3 and b == ["b"] * 3

    def late():
        if len(calls) > 7:
            raise TimeoutError("run deadline reached")
        calls.append("t")
        return "t"

    calls.clear()
    traced, untraced = run.run_rounds(3, late, late)
    assert traced == ["t", "t", "t"] and untraced == ["t", "t", "t"]
    calls.clear()
    calls.extend(["x"] * 7)
    traced, untraced = run.run_rounds(3, late, late)
    assert traced == ["t"] and untraced == []
    calls.clear()
    calls.extend(["x"] * 8)
    with pytest.raises(TimeoutError):
        run.run_rounds(3, late)


# -- the tracer ---------------------------------------------------------------

TRACE_SCRIPT = """
import json, sys
sys.path.insert(0, {here!r})
import knotweights.cli
import tracer
tracer.LAYER_FUNCTIONS += (("bridge", "no_such_function"),
                           ("no_such_module", "f"))
t = tracer.Tracer()
t.install()
rc = t.root(knotweights.cli.main, ["dim", "--degree", "2"])
s = t.summary()
print(json.dumps({{"rc": rc, "absent": t.absent, "calls": s["calls"],
                  "self": sum(s["self_s"].values()), "root": s["root_s"]}}))
"""


def test_tracer_spans_and_absent_functions(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_SCRIPT.format(here=str(HERE))],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                 KNOTWEIGHTS_CACHE_DIR=str(tmp_path)))
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rc"] == 0
    assert got["absent"] == ["bridge.no_such_function", "no_such_module.f"]
    assert got["calls"]["request"] == 1
    assert got["calls"]["cli.main"] == 1
    assert got["calls"]["quotient.splitting"] == 1
    # relations binds enumerate_jacobi by name; those calls are seen too
    assert got["calls"]["enumerate.enumerate_jacobi"] >= 3
    assert got["calls"]["canon.canonical_form"] > 0
    assert got["self"] == pytest.approx(got["root"], rel=1e-9)

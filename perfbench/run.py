"""Cold-run benchmark of knotweights.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
A pass runs every request of the workload once, in a fresh interpreter with
a fresh, empty KNOTWEIGHTS_CACHE_DIR, so nothing is served from memory or
from the disk cache.  A run makes a fixed number of passes per workload, so
that how much it measures does not depend on the program's speed; --seconds
does not change it.
Workloads (closed loop, one client, no threads):

  prop32-d4  `verify prop32 --degree 4 --json`: every diagram layer, the
             ROADMAP's headline figure.
  dims-d4    `dim --degree 4 --json`: enumeration, relators and quotient,
             without the source table and the wc' path.
  knots      generated PD codes (T(2,n), twist knots, connected sums of
             two, 3 to 17 crossings) through `alexander --series --zbcr`,
             timed per knot; no diagram layer runs.

Outputs are checked against references that do not come from the program.
The last line of stdout is one JSON object: correct, attempted and failed
(counted in checks) and the metrics; with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run, whose overhead is
measured against an untraced run of the same requests.  The exit code is 0
only when every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import knots  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = {
    "prop32-d4": ["verify", "prop32", "--degree", "4", "--json"],
    "dims-d4": ["dim", "--degree", "4", "--json"],
    "knots": None,
}

# Latencies are scaled to the host speed at which the probe takes this long.
PROBE_REF_S = 0.002

# References fixed outside the program: the number of degree-4 Jacobi
# classes, and the degree-4 quotient dimensions (primitives 2, chord
# diagrams modulo 4T 6, with the seed's pinned totals).
PROP32_ROWS = 635
DIMS_D4 = {"degree": 4, "dim_A": 22, "dim_P": 2, "dim_T": 16}
DIM_P_PLUS_N = 6

# Passes per run; a traced run makes this many traced and untraced passes.
# A degree-4 pass is one cold request of 20 to 60 s, a knots pass about 7 s.
PASSES = {"prop32-d4": 1, "dims-d4": 1, "knots": 2}

SETUP_SAMPLES = 5
DEADLINE_S = 170  # every run ends well inside 180 s
# The layers' self times, without the root span's and the CLI's own, must
# cover this share of the traced wall time: a slow call outside every
# traced layer lowers it.
MIN_LAYERS_FRAC = 0.9


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed.append(what)
        return ok


class Runner:
    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.spawned = 0
        self.setups = []

    def spawn(self, spec):
        """Run one worker in a fresh interpreter and return its result."""
        self.spawned += 1
        tag = f"w{self.spawned}"
        cache = self.work / f"cache-{tag}"
        cache.mkdir()
        spec_path = self.work / f"{tag}.spec.json"
        out_path = self.work / f"{tag}.result.json"
        spec = dict(spec, src=str(self.root / "src"))
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   KNOTWEIGHTS_CACHE_DIR=str(cache))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run deadline reached")
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path),
             str(out_path)], cwd=self.root, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                               + proc.stderr[-2000:])
        result = json.loads(out_path.read_text())
        result["setup_s"] = result["imported_at"] - started
        return result

    def sample_setups(self, count):
        """Time `count` bare start-ups, as far as the run's deadline allows."""
        for _ in range(count):
            try:
                self.setups.append(self.spawn({})["setup_s"])
            except (TimeoutError, subprocess.TimeoutExpired):
                return


# -- correctness ---------------------------------------------------------------


def check_prop32(checks, req, expected_rows=PROP32_ROWS):
    if not checks.expect(req["rc"] == 0, f"prop32 exit code {req['rc']}"):
        return
    report = json.loads(req["out"])
    checks.expect(report.get("pass") is True, "prop32 report does not pass")
    rows = report["rows"]
    checks.expect(len(rows) == expected_rows,
                  f"prop32 has {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        checks.expect(row["equal"] is True and Fraction(row["wbcr"])
                      == Fraction(row["minus_wc_prime"]),
                      f"prop32 row {row.get('class')} differs")


def check_dims(checks, req, expected=DIMS_D4, p_plus_n=DIM_P_PLUS_N):
    if not checks.expect(req["rc"] == 0, f"dim exit code {req['rc']}"):
        return
    table = json.loads(req["out"])
    for key, want in expected.items():
        checks.expect(table.get(key) == want,
                      f"dims: {key} = {table.get(key)}, expected {want}")
    got = table.get("dim_P", 0) + table.get("dim_N", 0)
    checks.expect(got == p_plus_n,
                  f"dims: dim_P + dim_N = {got}, expected {p_plus_n}")


def check_knot(checks, req, delta):
    name, K = req["name"], knots.SERIES_K
    if not checks.expect(req["rc"] == 0, f"{name}: exit code {req['rc']}"):
        return
    out = json.loads(req["out"])
    got = knots.parse_laurent(out["delta"])
    checks.expect(got == {e: Fraction(c) for e, c in delta.items()},
                  f"{name}: delta {out['delta']} != closed form {delta}")
    series = knots.exp_series(delta, K)
    checks.expect([Fraction(x) for x in out["series"]] == series
                  and {int(k): Fraction(v) for k, v in out["conway"].items()}
                  == dict(enumerate(series)),
                  f"{name}: series of Delta(e^h) differs")
    log = knots.log_series(series)
    checks.expect({int(k): Fraction(v) for k, v in out["zbcr"].items()}
                  == {k: -log[k] for k in range(2, K + 1)},
                  f"{name}: zbcr differs")


# -- workloads -----------------------------------------------------------------


def prepare(workload, seed, work):
    """The requests of one pass as (name, argv), and each name's reference
    check.  Knot PD files are written here, outside any timed region."""
    if workload != "knots":
        check = check_prop32 if workload == "prop32-d4" else check_dims
        return [(workload, WORKLOADS[workload])], {workload: check}
    pd_dir = work / "pd"
    pd_dir.mkdir()
    requests, checks = [], {}
    for i, (name, crossings, delta) in enumerate(knots.draw(seed)):
        path = pd_dir / f"{i}.pd"
        path.write_text(knots.format_pd(crossings))
        requests.append((name, ["alexander", "--pd", str(path), "--series",
                                str(knots.SERIES_K), "--zbcr", "--json"]))
        checks[name] = lambda c, r, d=delta: check_knot(c, r, d)
    if len(checks) != len(requests):
        raise RuntimeError("the knot draw repeats a name")
    return requests, checks


def run_pass(runner, requests, refs, checks, trace=False):
    """Run every request once in a fresh interpreter and check the outputs."""
    res = runner.spawn({"requests": requests, "trace": trace})
    if [r["name"] for r in res["requests"]] != [n for n, _ in requests]:
        raise RuntimeError("the worker did not run the pass's requests")
    for req in res["requests"]:
        try:
            refs[req["name"]](checks, req)
        except (ValueError, KeyError, TypeError) as exc:
            checks.expect(False, f"{req['name']}: malformed output ({exc!r})")
    # the raw time of the pass, with the probes run during its requests
    res["wall_s"] = sum(r["s"] + r["probed_s"] for r in res["requests"])
    runner.setups.append(res["setup_s"])
    return res


def run_rounds(count, *make_passes):
    """Run `count` rounds, each calling every make_pass in turn, and return
    the passes of each kind.  When the run's deadline stops a pass after the
    first round has ended, the passes so far are measured."""
    kinds = [[] for _ in make_passes]
    try:
        for _ in range(count):
            for make_pass, done in zip(make_passes, kinds):
                done.append(make_pass())
    except (TimeoutError, subprocess.TimeoutExpired):
        if not kinds[0]:
            raise
        print(f"note: deadline reached; measured {len(kinds[0])} of {count} "
              f"rounds", file=sys.stderr)
    return kinds


def latency(req):
    """A request's time, scaled by PROBE_REF_S over the mean of the probes
    run just before, during and just after it."""
    return req["s"] * PROBE_REF_S / req["probe_s"]


def end_to_end(runner, passes, checks):
    """Each request's latency is its fastest repeat in the run, and the
    wall time of a pass is the sum of those: on a shared host, slow spells
    only ever add time."""
    best = [min(latency(p["requests"][i]) for p in passes)
            for i in range(len(passes[0]["requests"]))]
    wall = sum(best)
    p90 = statistics.quantiles(best, n=10)[8] if len(best) > 1 else best[0]
    return {
        "setup_s": (statistics.median(runner.setups), "s"),
        "wall_s": (wall, "s"),
        "req_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "req_p90_ms": (p90 * 1e3, "ms"),
        "req_per_s": (len(best) / wall, "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
        "passed_frac": (1 - len(checks.failed) / checks.attempted,
                        "fraction"),
    }


# per-layer metric -> (unit, how to read it from the trace report)
def _calls(name):
    return lambda t: t["calls"].get(name), [name]


def _self(*names):
    return lambda t: sum(t["self_s"].get(n, 0.0) for n in names), list(names)


def _state(key, needs):
    return lambda t: t["state"][key], [needs]


PER_LAYER = {
    "enumerate.jacobi_calls": ("count", _calls("enumerate.enumerate_jacobi")),
    "enumerate.jacobi_s": ("s", _self("enumerate.enumerate_jacobi")),
    "enumerate.bcr_s": ("s", _self("enumerate.enumerate_bcr")),
    "canon.canonical_form_calls": ("count", _calls("canon.canonical_form")),
    "canon.canonical_form_s": ("s", _self("canon.canonical_form")),
    "jacobi.class_of_calls": ("count", _calls("jacobi.class_of")),
    "jacobi.class_of_s": ("s", _self("jacobi.class_of")),
    "jacobi.canonicalize_calls": ("count", _calls("jacobi.canonicalize")),
    "vectors.vector_of_calls": ("count", _calls("vectors.vector_of")),
    "relations.relators": ("count", _state("relators",
                                           "relations.generate_relations")),
    "relations.zero_relators": ("count", _state(
        "zero_relators", "relations.generate_relations")),
    "relations.useful_frac": ("fraction", (
        lambda t: (1 - t["state"]["zero_relators"] / t["state"]["relators"])
        if t["state"]["relators"] else 0.0,
        ["relations.generate_relations"])),
    "relations.s": ("s", _self("relations.generate_relations")),
    "quotient.rank": ("count", _state("rank", "quotient.quotient_basis")),
    "quotient.dim": ("count", _state("dim", "quotient.quotient_basis")),
    "quotient.basis_s": ("s", _self("quotient.quotient_basis")),
    "quotient.splitting_s": ("s", _self("quotient.splitting")),
    "quotient.project_calls": ("count", _calls("quotient.project_pc")),
    "quotient.project_s": ("s", _self("quotient.project_pc")),
    "quotient.basis_cache_misses": ("count", (
        lambda t: t["cache_misses"].get("quotient.quotient_basis"),
        ["quotient.quotient_basis"])),
    "quotient.splitting_cache_misses": ("count", (
        lambda t: t["cache_misses"].get("quotient.splitting"),
        ["quotient.splitting"])),
    "conway.wc_s": ("s", _self("conway.wc_eval")),
    "conway.wc_prime_calls": ("count", _calls("conway.wc_prime_eval")),
    "conway.wc_prime_projected": ("count", (
        lambda t: t["project_under_wc_prime"],
        ["conway.wc_prime_eval", "quotient.project_pc"])),
    "conway.wc_prime_s": ("s", _self("conway.wc_prime_eval")),
    "bridge.wbcr_calls": ("count", _calls("bridge.wbcr")),
    "bridge.wbcr_s": ("s", _self("bridge.wbcr")),
    "bridge.table_s": ("s", _self("bridge._wbcr_table")),
    "bridge.class_of_calls": ("count", (lambda t: t["class_of_under_wbcr"],
                                        ["bridge.wbcr", "jacobi.class_of"])),
    "bridge.verify_s": ("s", _self("bridge.verify_main")),
    "pd.parse_s": ("s", _self("pd.parse_pd")),
    "alexander.poly_s": ("s", _self("alexander.alexander_poly")),
    "alexander.skein_s": ("s", _self("alexander.alexander_by_skein")),
    "series.s": ("s", _self("series.exp_substitute", "series.zbcr_series",
                            "series.conway_series")),
    "cache.hits": ("count", _state("cache_hits", "cache.load")),
    "cache.misses": ("count", _state("cache_misses", "cache.load")),
    "cli.main_s": ("s", _self("cli.main")),
}


def per_layer(untraced, traced, checks):
    """Per-layer metrics of the fastest traced pass; the tracing overhead
    compares it with the fastest untraced pass of the same requests, and is
    absent when the deadline left no untraced pass."""
    def wall(p):
        return sum(latency(r) for r in p["requests"])

    fastest = min(traced, key=wall)
    t = fastest["trace"]
    absent = set(t["absent"]) | set(t["state"]["hook_errors"])
    metrics = {}
    for name, (unit, (read, needs)) in PER_LAYER.items():
        value = None
        if name not in absent and not absent.intersection(needs):
            value = read(t)
        metrics[name] = {"value": value if value is not None else 0,
                         "unit": unit}
        if value is None:
            metrics[name]["absent"] = True
    layers_s = sum(s for n, s in t["self_s"].items()
                   if n not in (tracer.ROOT, "cli.main"))
    layers_frac = layers_s / fastest["wall_s"]
    metrics.update({
        "trace.wall_s": {"value": fastest["wall_s"], "unit": "s"},
        "trace.overhead_s": {"value": 0, "unit": "s", "absent": True},
        "trace.layers_frac": {"value": layers_frac, "unit": "fraction"},
        "trace.unattributed_s": {"value": fastest["wall_s"] - layers_s,
                                 "unit": "s"},
        "trace.spans": {"value": t["spans"], "unit": "count"},
    })
    if untraced:
        metrics["trace.overhead_s"] = {
            "value": wall(fastest) - min(wall(p) for p in untraced),
            "unit": "s"}
    hits = sum(p["trace"]["state"]["cache_hits"] for p in traced)
    checks.expect(hits == 0, f"the disk cache served {hits} hits")
    checks.expect(layers_frac >= MIN_LAYERS_FRAC,
                  f"layer self times cover only {layers_frac:.4f} of the "
                  f"traced wall")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "knotweights" / "cli.py").is_file():
        print(f"error: {root} holds no src/knotweights; run from the root "
              f"of a knotweights checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    checks = Checks()
    try:
        runner = Runner(root, work, deadline)
        runner.spawn({})  # writes the bytecode caches; not a sample
        runner.sample_setups(SETUP_SAMPLES)
        requests, refs = prepare(args.workload, args.seed, work)
        count = PASSES[args.workload]

        def untraced_pass():
            return run_pass(runner, requests, refs, checks)

        if args.trace:
            # traced and untraced passes alternate, so that both see the
            # same spells of host speed; the traced pass goes first, so
            # that a deadline costs only the overhead figure
            traced, untraced = run_rounds(count, lambda: run_pass(
                runner, requests, refs, checks, trace=True), untraced_pass)
            metrics = per_layer(untraced, traced, checks)
        else:
            (untraced,) = run_rounds(count, untraced_pass)
            # as many set-up samples after the passes as before them, so
            # that their median spans the run's spells of host speed
            runner.sample_setups(SETUP_SAMPLES)
            metrics = {name: {"value": v, "unit": u} for name, (v, u)
                       in end_to_end(runner, untraced, checks).items()}
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    for what in checks.failed[:20]:
        print(f"FAILED: {what}", file=sys.stderr)
    print(json.dumps({"correct": not checks.failed,
                      "attempted": checks.attempted,
                      "failed": len(checks.failed), "metrics": metrics}))
    return 0 if not checks.failed else 1


if __name__ == "__main__":
    sys.exit(main())

"""One fresh interpreter of the benchmark: import the program, run requests.

Run by run.py as `python3 perfbench/worker.py SPEC RESULT` with PYTHONPATH
pointing at the checkout's `src`.  The import comes first so that the
reported import-done time measures only interpreter start-up and the
program's own import.
"""

import time

import knotweights.cli  # noqa: E402  (timed: this is the set-up)

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
PROBE_EVERY_S = 0.25  # the probe's period during a request


def probe():
    """Fixed work shaped like the program's: Fractions, tuples, a dict.

    On a shared host, this CPU's speed for such code changes by up to 1.5x
    in spells of seconds.  The probe's duration, taken right next to a
    request and every PROBE_EVERY_S during it, measures the speed that
    request ran at.  It runs none of the program, and the cyclic garbage
    collector is off while it runs: a collection would walk every object
    the program keeps alive, so a program that held more memory would slow
    the probe and hide part of its own cost in the scaled times.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        total, seen = Fraction(0), {}
        for i in range(1, 400):
            total += Fraction(i, i + 1)
            seen[i % 17] = (total, i)
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_request(argv, tracer):
    """One closed-loop request: cli.main(argv) with stdout captured.

    A timer interrupts it every PROBE_EVERY_S to run the probe; `probes`
    are their durations and `s` is the request's time without them.
    """
    main = knotweights.cli.main
    buf = io.StringIO()
    probes = []
    signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(probe()))
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        with contextlib.redirect_stdout(buf):
            rc = tracer.root(main, argv) if tracer else main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    s = time.perf_counter() - start - sum(probes)
    return {"rc": rc, "s": s, "out": buf.getvalue(), "probes": probes}


def trace_hooks(state):
    """Return-value hooks that read counts the spans cannot see."""
    def relators(rels):
        vecs = rels.vectors()
        state["relators"] += len(vecs)
        state["zero_relators"] += sum(1 for v in vecs if v.is_zero())

    def basis(q):
        if q.degree >= state["basis_degree"]:
            state["basis_degree"] = q.degree
            state["dim"] = q.dim
            state["rank"] = len(q.class_keys) - q.dim

    def cache_load(value):
        state["cache_hits" if value is not None else "cache_misses"] += 1

    def guarded(metrics, fn):
        """Run fn; if the result lacks what it reads, mark its metrics absent."""
        def hook(result):
            try:
                fn(result)
            except AttributeError:
                state["hook_errors"].extend(metrics)
        return hook

    return {
        "relations.generate_relations": guarded(
            ("relations.relators", "relations.zero_relators",
             "relations.useful_frac"), relators),
        "quotient.quotient_basis": guarded(
            ("quotient.rank", "quotient.dim"), basis),
        "cache.load": guarded(("cache.hits", "cache.misses"), cache_load),
    }


def trace_report(tracer, state):
    summary = tracer.summary()
    misses = {}
    for name in ("quotient.quotient_basis", "quotient.splitting"):
        info = getattr(tracer.originals.get(name), "cache_info", None)
        if info is not None:
            misses[name] = info().misses
    summary.update({
        "absent": tracer.absent,
        "state": state,
        "cache_misses": misses,
        "class_of_under_wbcr": tracer.count_under("jacobi.class_of",
                                                  "bridge.wbcr"),
        "project_under_wc_prime": tracer.count_under(
            "quotient.project_pc", "conway.wc_prime_eval", direct=True),
    })
    return summary


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    if src not in Path(knotweights.cli.__file__).resolve().parents:
        raise SystemExit(f"knotweights was imported from "
                         f"{knotweights.cli.__file__}, not from {src}")
    cache_dir = Path(os.environ["KNOTWEIGHTS_CACHE_DIR"])
    if any(cache_dir.iterdir()):
        raise SystemExit(f"cache directory {cache_dir} is not empty")

    tracer = state = None
    if spec.get("trace"):
        sys.path.insert(0, str(HERE))
        from tracer import Tracer
        state = {"relators": 0, "zero_relators": 0, "basis_degree": -1,
                 "dim": 0, "rank": 0, "cache_hits": 0, "cache_misses": 0,
                 "hook_errors": []}
        tracer = Tracer()
        tracer.install(trace_hooks(state))

    result = {"imported_at": IMPORTED_AT, "requests": []}
    probe()  # the first run warms the probe's own code paths
    before = probe()
    for name, argv in spec.get("requests", []):
        req = dict(run_request(argv, tracer), name=name)
        after = probe()
        during = req.pop("probes")
        req["probed_s"] = sum(during)
        req["probe_s"] = (before + sum(during) + after) / (len(during) + 2)
        result["requests"].append(req)
        before = after
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        result["trace"] = trace_report(tracer, state)
    Path(sys.argv[2]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()

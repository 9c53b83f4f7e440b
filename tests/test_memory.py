"""One copy per class: the parts of held representatives come from one
pool, the enumeration files each class under its representative's key,
reports are made row by row as they are written, and what a degree-4
command holds stays within its measured bound."""

import gc
import json
import os
import subprocess
import sys

import pytest

import knotweights
from knotweights import cli, jacobi
from knotweights.canon import canonical_form
from knotweights.enumerate import enumerate_jacobi


def _pooled(part):
    return jacobi._POOL.get(part) is part


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_held_parts_are_the_pools(k):
    for rep in enumerate_jacobi(k, k_max=k):
        colors, tokens = rep.record[0]
        assert _pooled(colors) and all(map(_pooled, colors))
        assert all(map(_pooled, tokens))
        assert _pooled(rep.univalent_order)
        assert all(map(_pooled, rep.edges))
        assert type(rep.orient) is dict
        for cyc in rep.orient.values():
            assert _pooled(cyc) and all(map(_pooled, cyc))
        assert type(rep.aut) is tuple and all(map(_pooled, rep.aut))


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_enumeration_files_each_class_under_its_representatives_key(k):
    # the enumeration's own dict holds the kept key, not a second copy
    # from the search; the body runs unmemoised, caught on its return
    body = enumerate_jacobi.__wrapped__
    filed = {}

    def on_return(frame, event, arg):
        if event == "return" and frame.f_code is body.__code__:
            filed.update(frame.f_locals["found"])

    sys.setprofile(on_return)
    try:
        reps = body(k)
    finally:
        sys.setprofile(None)
    assert len(filed) == len(reps)
    assert all(key is rep.record[0] for key, rep in filed.items())


def test_a_searching_canonical_form_leaves_no_garbage():
    # the cube graph: one color, so the search runs and finds Aut
    edges = [(a, a ^ b, 0) for a in range(8) for b in (1, 2, 4) if a < a ^ b]
    gc.collect()
    gc.disable()
    try:
        gens = canonical_form(8, [0] * 8, edges)[2]
        assert gens
        assert gc.collect() == 0
    finally:
        gc.enable()


class _Written(list):
    write = list.append


def test_emit_makes_a_maps_items_only_as_it_writes_them(monkeypatch):
    written = _Written()
    monkeypatch.setattr(sys, "stdout", written)

    def item(i):
        # every earlier item's block, more pieces than one write holds,
        # is already out
        assert "".join(written).count('"block"') == i
        return {"i": i, "block": list(range(9000))}

    cli._emit({"rows": map(item, range(3)), "none": map(item, [])}, True)
    doc = json.loads("".join(written))
    assert [row["i"] for row in doc["rows"]] == [0, 1, 2]
    assert doc["none"] == []


_MEASURED = """
import gc, sys, tracemalloc
from knotweights import cli
from knotweights.enumerate import enumerate_jacobi

tracemalloc.start()
gc.collect()  # also empties the free lists, which tracemalloc counts
base = tracemalloc.get_traced_memory()[0]
if sys.argv[1] == "held":
    reps = enumerate_jacobi(4)
    gc.collect()
    used = tracemalloc.get_traced_memory()[0]
else:
    out, sys.stdout = sys.stdout, open("/dev/null", "w")
    assert cli.main(sys.argv[1:]) == 0
    sys.stdout = out
    used = tracemalloc.get_traced_memory()[1]
print((used - base) / 1e6)
"""


@pytest.mark.parametrize("argv, bound_mb", [
    (["held"], 0.9),
    (["verify", "prop32", "--degree", "4", "--json"], 2.4),
    (["dim", "--degree", "4", "--json"], 2.0)])
def test_degree_four_memory_in_a_fresh_process(argv, bound_mb):
    # traced in a fresh interpreter: what enumerate_jacobi(4) holds once it
    # returns, and the peak of each command past its imports.  They read
    # 0.48, 2.0 and 1.6 MB; with a fresh copy of every part per class, and
    # every report row made before the first was written, 1.87, 3.5 and
    # 2.8 MB.
    src = os.path.dirname(os.path.dirname(knotweights.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _MEASURED, *argv],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < bound_mb

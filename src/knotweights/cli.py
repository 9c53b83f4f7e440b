"""Command-line entry point.

Subcommands: enumerate, dim, weight, wbcr, verify, alexander.  Tables go
to stdout; --json switches every subcommand to a stable machine format.
Verification subcommands exit 0 only when every checked identity holds,
and `alexander` exits 1 when its two routes to Delta disagree or one fails
its own check; usage errors exit 2.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from . import cache  # noqa: F401  (loaded for perfbench's cache.load span)
from .alexander import alexander_by_skein, alexander_poly
from .bridge import verify_main, verify_stu, wbcr
from .conway import wc_diagram, wc_prime_diagram
from .enumerate import K_MAX, check_degree, enumerate_bcr, enumerate_jacobi
from .errors import DiagramError
from .jacobi import JacobiDiagram, key_bytes, wheel
from .pd import parse_pd
from .psi import verify_wc_psi
from .quotient import dims_table
from .serialize import from_json, jacobi_to_obj, bcr_to_obj
from .series import exp_substitute, zbcr_series


def _emit(obj, as_json):
    """Print obj as indented JSON, the text of ``json.dumps(obj, indent=2,
    sort_keys=True)`` with a `map` written as the list it yields, in
    blocks of pieces: the whole document joined at once holds millions of
    pieces for a degree-5 enumeration, and a `map`'s items are made only
    as they are written."""
    if as_json:
        out = []
        _json(obj, out, "\n")
        out.append("\n")
        sys.stdout.write("".join(out))


def _json(obj, out, newline):
    """Append the pieces of obj's JSON to `out`, writing them out every
    8192 list items; `newline` opens a line at obj's indent.  Strings,
    booleans and ints, the scalars the commands print, are written here,
    and anything else by `json.dumps`."""
    if isinstance(obj, str):
        out.append(_string(obj))
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif type(obj) is int:
        out.append(repr(obj))
    elif isinstance(obj, dict) and obj:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + _string(key) + ": ")
            _json(obj[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple, map)):
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _json(item, out, inner)
            sep = "," + inner
            if len(out) > 8192:
                sys.stdout.write("".join(out))
                out.clear()
        out.append("[]" if sep[0] == "[" else newline + "]")
    else:
        out.append(json.dumps(obj))


def _read(path):
    """The text of an input file; an unreadable path or a file that is not
    UTF-8 is an input error."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise DiagramError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DiagramError(f"cannot read {path}: {exc.reason}") from None


def _read_jacobi(path):
    d = from_json(_read(path))
    if not isinstance(d, JacobiDiagram):
        raise DiagramError(f"{path} holds a {type(d).__name__}, "
                           f"not a Jacobi diagram")
    return d


def _natural(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def cmd_enumerate(args):
    if args.kind == "bcr":
        reps = enumerate_bcr(args.degree, k_max=args.k_max)
        to_obj = bcr_to_obj
    else:
        reps = enumerate_jacobi(args.degree, k_max=args.k_max)
        to_obj = jacobi_to_obj
    if args.json:
        _emit({"kind": args.kind, "degree": args.degree,
               "count": len(reps), "diagrams": map(to_obj, reps)}, True)
    else:
        print(f"{args.kind} diagrams of degree {args.degree}: "
              f"{len(reps)} classes")
        for i, obj in enumerate(map(to_obj, reps)):
            edges = ["{}-{}{}".format(e["from"], e["to"],
                                      "" if e["class"] in ("plain",)
                                      else ":" + e["class"][0])
                     for e in obj["edges"]]
            print(f"  [{i}] " + " ".join(edges))
    return 0


def cmd_dim(args):
    table = dims_table(args.degree, k_max=args.k_max)
    if args.json:
        _emit(table, True)
    else:
        print(f"degree {table['degree']}:")
        print(f"  dim A = {table['dim_A']}")
        print(f"  dim P = {table['dim_P']}   (connected, with a leg)")
        print(f"  dim N = {table['dim_N']}   (products)")
        print(f"  dim T = {table['dim_T']}   (trivalent components)")
    return 0


def cmd_weight(args):
    weight = wc_diagram if args.system == "wc" else wc_prime_diagram
    value = weight(_read_jacobi(args.diagram), k_max=args.k_max)
    if args.json:
        _emit({"system": args.system, "value": str(value)}, True)
    else:
        print(value)
    return 0


def cmd_wbcr(args):
    value = wbcr(_read_jacobi(args.diagram), k_max=args.k_max)
    if args.json:
        _emit({"wbcr": str(value)}, True)
    else:
        print(value)
    return 0


def _field(row, name):
    """A report row's field `name`; the class is its key's byte form."""
    if name == "class":
        return key_bytes(row["key"]).decode()
    return row.get(name)


def _report(rows, label, as_json, key_fields):
    """Report the check rows, each one's output row made as it is
    written."""
    ok = all(r["equal"] for r in rows)
    if as_json:
        def written(r):
            row = {"equal": r["equal"]}
            for f in key_fields:
                row[f] = str(_field(r, f))
            return row
        _emit({"check": label, "rows": map(written, rows), "pass": ok}, True)
    else:
        n_bad = sum(1 for r in rows if not r["equal"])
        print(f"{label}: {len(rows)} checks, {n_bad} failures")
        for r in rows:
            if not r["equal"]:
                print("  FAIL " + " ".join(
                    f"{f}={_field(r, f)}" for f in key_fields))
    return 0 if ok else 1


def cmd_verify(args):
    k = args.degree
    if args.what == "prop32":
        rows = verify_main(k, k_max=args.k_max)
        return _report(rows, f"wbcr == -wc' at degree {k}", args.json,
                       ["class", "wbcr", "minus_wc_prime"])
    if args.what == "stu":
        rows = verify_stu(k, k_max=args.k_max)
        return _report(rows, f"wbcr STU/AS compatibility at degree {k}",
                       args.json, ["kind"])
    if args.what == "wcpsi":
        rows = verify_wc_psi(k, k_max=args.k_max)
        return _report(rows, f"wc o substitution == wc at degree {k}",
                       args.json, ["lhs", "rhs"])
    if args.what == "lemma33":
        # before the wheel, whose size is linear in --degree
        check_degree(k, args.k_max)
        got = wbcr(wheel(k), k_max=args.k_max)
        want = Fraction(1 + (-1) ** k)
        rows = [{"equal": got == want, "wbcr": got, "expected": want}]
        if not args.json:
            print(f"wbcr(wheel_{k}) = {got} (expected {want})")
        return _report(rows, f"wheel weight at degree {k}", args.json,
                       ["wbcr", "expected"])
    raise AssertionError(args.what)


def cmd_alexander(args):
    pd = parse_pd(_read(args.pd))
    try:
        delta = alexander_poly(pd)
    except ArithmeticError as exc:  # a Bareiss division that is not exact
        print(f"error: {exc}", file=sys.stderr)
        return 1
    skein = alexander_by_skein(pd)
    if delta != skein:
        print(f"error: the determinant gives {delta} but the skein "
              f"recursion gives {skein}", file=sys.stderr)
        return 1
    out = {"delta": str(delta)}
    if not args.json:
        print(f"Delta(t) = {delta}")
    if args.series is not None:
        K = args.series
        s = exp_substitute(delta, K)
        out["series"] = [str(s[i]) for i in range(K + 1)]
        if not args.json:
            print(f"Delta(e^h) = {s}")
        if args.zbcr:
            z = zbcr_series(delta, K)
            out["zbcr"] = {str(k): str(v) for k, v in z.items()}
            # conway_series(delta, K) is the same expansion as the series
            out["conway"] = {str(k): v for k, v in enumerate(out["series"])}
            if not args.json:
                for k in sorted(z):
                    print(f"  Z_{k} = {z[k]}")
    _emit(out, args.json)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than most `alexander` calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")

    p = argparse.ArgumentParser(
        prog="knotweights",
        description="Diagram enumeration, weight systems, and Alexander "
                    "series, all in exact rational arithmetic.")
    # a given prog spares argparse formatting a usage line to find it
    sub = p.add_subparsers(dest="command", required=True, prog="knotweights")

    def capped(name, text):
        """A diagram subcommand, which takes --k-max; `alexander` has no
        degree to cap."""
        c = sub.add_parser(name, parents=[common], help=text)
        c.add_argument("--k-max", type=_natural, default=K_MAX,
                       help=f"largest degree any step may compute, checked "
                            f"before any work (default {K_MAX})")
        return c

    e = capped("enumerate", "list diagram classes")
    e.add_argument("kind", choices=["bcr", "jacobi"])
    e.add_argument("--degree", type=int, required=True)
    e.set_defaults(func=cmd_enumerate)

    d = capped("dim", "dimensions of one degree")
    d.add_argument("--degree", type=int, required=True)
    d.set_defaults(func=cmd_dim)

    w = capped("weight", "evaluate a weight system")
    w.add_argument("--system", choices=["wc", "wcp"], required=True)
    w.add_argument("--diagram", required=True, help="diagram JSON file")
    w.set_defaults(func=cmd_weight)

    b = capped("wbcr", "signed source count of a diagram")
    b.add_argument("--diagram", required=True, help="diagram JSON file")
    b.set_defaults(func=cmd_wbcr)

    v = capped("verify", "run one verification suite")
    v.add_argument("what", choices=["prop32", "stu", "wcpsi", "lemma33"])
    v.add_argument("--degree", type=int, required=True)
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("alexander", parents=[common],
                       help="Alexander polynomial tools")
    a.add_argument("--pd", required=True, help="PD code file")
    a.add_argument("--series", type=_natural, metavar="K",
                   help="expand Delta(e^h) to order K")
    a.add_argument("--zbcr", action="store_true",
                   help="also print the degree-k log coefficients "
                        "(needs --series)")
    a.set_defaults(func=cmd_alexander)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "zbcr", False) and args.series is None:
        parser.error("--zbcr needs --series")
    try:
        return args.func(args)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

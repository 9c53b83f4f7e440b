"""The command-line digests that `test_cli_digests.py` checks.

`fixtures/cli_digests.json` holds, for each command in COMMANDS, the
sha256 of its stdout and stderr and its exit code, recorded from a fresh
interpreter.  A change that is meant to leave every result alone must
reproduce them.  This module needs no pytest, so any interpreter can check
them:

    PYTHONPATH=src python tests/cli_digests.py

and re-record them (only for a deliberate change of output):

    PYTHONPATH=src python tests/cli_digests.py --write
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent
FIXTURE = HERE / "fixtures" / "cli_digests.json"
SRC = HERE.parent / "src"
SLOW_DEGREE = 4

_MAIN = "import sys; from knotweights.cli import main; sys.exit(main())"


def _commands():
    """(argv, slow) for every guarded command."""
    out = []
    for k in range(SLOW_DEGREE + 1):
        for argv in (["enumerate", "jacobi"], ["enumerate", "bcr"], ["dim"],
                     ["verify", "prop32"]):
            out.append((argv + ["--degree", str(k), "--json"],
                        k == SLOW_DEGREE))
    for what in ("stu", "wcpsi"):
        out.append((["verify", what, "--degree", "3", "--json"], False))
    out.append((["verify", "wcpsi", "--degree", "4", "--json"], True))
    out.append((["verify", "lemma33", "--degree", "4", "--json"], True))
    for argv in (["enumerate", "jacobi"], ["dim"], ["verify", "prop32"],
                 ["verify", "wcpsi"]):
        out.append((argv + ["--degree", "5", "--k-max", "5", "--json"], True))
    for k in ("5", "6"):
        out.append((["enumerate", "bcr", "--degree", k, "--k-max", k,
                     "--json"], True))
    for knot in ("unknot", "3_1", "6_2", "7_1"):
        out.append((["alexander", "--pd", f"tests/fixtures/{knot}.pd",
                     "--series", "8", "--zbcr", "--json"], False))
    out.append((["alexander", "--pd", "tests/fixtures/5_2.pd", "--series",
                 "16", "--zbcr", "--json"], False))
    out.append((["alexander", "--pd", "tests/fixtures/4_1.pd", "--series",
                 "8", "--zbcr"], False))
    for name in ("interleaved_d4", "wheel6", "tripods_chords_d6"):
        for system in ("wc", "wcp"):
            out.append((["weight", "--system", system, "--diagram",
                         f"tests/fixtures/{name}.json", "--k-max", "6"],
                        False))
    out.append((["--help"], False))
    out.append((["alexander", "--help"], False))
    return out


COMMANDS = _commands()


def digest(argv, python=sys.executable):
    """sha256 of stdout and stderr and the exit code of one command, run in
    a fresh interpreter on this checkout's sources from the checkout's root,
    which the input paths in COMMANDS are relative to.  Help text wraps at
    the terminal width, so the width is fixed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    run = subprocess.run([python, "-c", _MAIN, *argv], capture_output=True,
                         env=env, cwd=HERE.parent, check=False)
    return {"stdout": hashlib.sha256(run.stdout).hexdigest(),
            "stderr": hashlib.sha256(run.stderr).hexdigest(),
            "exit": run.returncode}


def recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def main(args):
    if args == ["--write"]:
        table = {" ".join(argv): digest(argv) for argv, _ in COMMANDS}
        FIXTURE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
        return 0
    table = recorded()
    bad = 0
    for argv, _ in COMMANDS:
        name = " ".join(argv)
        ok = digest(argv) == table[name]
        bad += not ok
        print(("ok   " if ok else "FAIL ") + name)
    print(f"{len(COMMANDS) - bad} of {len(COMMANDS)} commands match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

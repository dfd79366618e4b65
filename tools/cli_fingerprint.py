"""Print a fingerprint of fifteen CLI runs: exit codes, stdout and artifacts, by hash.

Usage (hjot is imported from PYTHONPATH):

    PYTHONPATH=src python tools/cli_fingerprint.py [--against FILE]

The first line is the path of the imported hjot package. The runs below
execute through hjot.cli.main in one fresh temporary directory, each with
its own relative --out name, so no absolute path reaches stdout or an
artifact. For each run it prints the exit code (1 for an exception that
escapes hjot.cli.main, as the console script would exit; its traceback goes
to stderr) and the SHA-256 of stdout, and for the hj-ivp runs that write
ivp.json also the sup_error of each resolution (repr); then, sorted by file
name, the SHA-256 of every artifact file the runs wrote.
The wall_time column of records.csv and the wall_time values of
report.json are masked before hashing, as the only outputs that change
from run to run. Stderr is not hashed: warnings carry file paths. Two trees
that print the same lines after the first give the same exit codes, print
the same stdout and write byte-identical artifacts; two trees whose oracle
differs in rounding are compared by the sup_error values.

With --against FILE, a saved output of this script, it compares this run
with FILE line by line after the first, prints one line naming each run
(its arguments, and the resolution of a sup_error line) or artifact (its
path) whose line differs or is missing on either side, then a count of the
equal lines. It exits 1 on any difference and 0 otherwise.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import traceback
from itertools import zip_longest

import hjot
from hjot.cli import main as cli_main

RUNS = (
    ["solve", "--case", "2", "--n", "16"],
    # case 1's slices go through invert_transport_map and slice_measure
    ["solve", "--case", "1", "--n", "16"],
    ["solve", "--case", "3", "--n", "16"],
    ["solve", "--case", "2", "--n", "16", "--max-iters", "5"],
    ["sweep", "--case", "2", "--n", "8,16"],
    ["verify-scheme", "--n", "16", "--trials", "100"],
    ["verify-scheme", "--n", "16", "--trials", "100", "--eps", "0"],
    # trials that span several of check_monotone's batches
    ["verify-scheme", "--n", "128", "--trials", "1000"],
    ["verify-scheme", "--n", "64", "--trials", "1000", "--eps", "0"],
    ["hj-ivp", "--n", "16,32"],
    # the oracle over arrays of x, where its scan window spans many cells
    ["hj-ivp", "--n", "64"],
    # the scheme and the oracle with a power cost, which only they run with
    ["hj-ivp", "--n", "16,32", "--cost", "power:3"],
    ["solve", "--case", "9"],
    # a penalty so small that |w|^2/2 overflows in the first projection
    ["solve", "--case", "2", "--n", "16", "--admm-r", "1e-200"],
    ["hj-ivp", "--n", "16,16"],
)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mask_wall_time(name: str, text: str) -> str:
    if name == "records.csv":
        lines = text.split("\n")
        header = next(i for i, line in enumerate(lines) if line.startswith("N,"))
        col = lines[header].split(",").index("wall_time")
        for i in range(header + 1, len(lines)):
            cells = lines[i].split(",")
            if len(cells) > col:
                cells[col] = "*"
                lines[i] = ",".join(cells)
        return "\n".join(lines)
    if name == "report.json":
        return re.sub(r'"wall_time": [^,\n]+', '"wall_time": "*"', text)
    return text


def fingerprint():
    """The lines of the fingerprint, after the first, one at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for k, argv in enumerate(RUNS):
                argv = argv + ["--out", f"run{k}"]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    try:
                        code = cli_main(argv)
                    except Exception:
                        traceback.print_exc()
                        code = 1
                yield (f"{' '.join(argv)}: exit={code} "
                       f"stdout={sha(stdout.getvalue().encode())}")
                ivp = os.path.join(f"run{k}", "ivp.json")
                if argv[0] == "hj-ivp" and os.path.exists(ivp):
                    with open(ivp) as f:
                        for row in json.load(f)["rows"]:
                            yield f"  N={row['N']} sup_error={row['sup_error']!r}"
            paths = sorted(os.path.join(d, f) for d, _, files in os.walk(".")
                           for f in files)
            for path in paths:
                with open(path) as f:
                    text = mask_wall_time(os.path.basename(path), f.read())
                yield f"  {os.path.relpath(path)} {sha(text.encode())}"
        finally:
            os.chdir(cwd)


def label(line: str, run: str) -> str:
    """The run or artifact that a line of the fingerprint describes; run is
    the label of the last run line before it."""
    if not line.startswith("  "):
        return line.split(": exit=")[0]
    first = line.split()[0]
    return f"{run} {first}" if first.startswith("N=") else first


def compare(saved: list[str], current: list[str]) -> bool:
    """Print the runs and artifacts whose lines differ; True if none does."""
    equal, runs = 0, ["", ""]
    for old, new in zip_longest(saved, current):
        names = []
        for i, line in enumerate((old, new)):
            if line is not None:
                names.append(label(line, runs[i]))
                if not line.startswith("  "):
                    runs[i] = names[-1]
        if old == new:
            equal += 1
            continue
        where = names[0] if old is None or new is None or names[0] == names[1] \
            else " / ".join(names)
        side = "missing from FILE" if old is None else "missing from this run" \
            if new is None else "differs"
        print(f"{where} {side}")
    total = max(len(saved), len(current))
    print(f"{equal}/{total} lines equal")
    return equal == total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", metavar="FILE",
                   help="a saved output of this script to compare with")
    args = p.parse_args(argv)
    if args.against is None:
        print(hjot.__file__)
        for line in fingerprint():
            print(line, flush=True)
        return 0
    with open(args.against) as f:
        saved = f.read().splitlines()[1:]
    print(f"{hjot.__file__} against {args.against}")
    return 0 if compare(saved, list(fingerprint())) else 1


if __name__ == "__main__":
    sys.exit(main())

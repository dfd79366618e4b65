"""Print a fingerprint of fifteen CLI runs: exit codes, stdout and artifacts, by hash.

Usage (no flags; hjot is imported from PYTHONPATH):

    PYTHONPATH=src python tools/cli_fingerprint.py

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
"""
import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
import traceback

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


def main() -> None:
    print(hjot.__file__)
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
                print(f"{' '.join(argv)}: exit={code} "
                      f"stdout={sha(stdout.getvalue().encode())}")
                ivp = os.path.join(f"run{k}", "ivp.json")
                if argv[0] == "hj-ivp" and os.path.exists(ivp):
                    with open(ivp) as f:
                        for row in json.load(f)["rows"]:
                            print(f"  N={row['N']} sup_error={row['sup_error']!r}")
            paths = sorted(os.path.join(d, f) for d, _, files in os.walk(".")
                           for f in files)
            for path in paths:
                with open(path) as f:
                    text = mask_wall_time(os.path.basename(path), f.read())
                print(f"  {os.path.relpath(path)} {sha(text.encode())}")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()

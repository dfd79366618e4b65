"""Print a fingerprint of the solves of the numerical gate, by value and by hash.

Usage (hjot is imported from PYTHONPATH):

    PYTHONPATH=src python tools/solve_fingerprint.py [--against FILE]

The first line is the path of the imported hjot package. Then, for each of
the four seed-0 benchmark solves (case 2 and case 3 at N = 64, case 1 at
N = 128 and N = 192) and the other instances of the gate in README,
Determinism (cases 1-3 at N = 32, case 1 at N = 64), all with README
defaults and solved as hjot.bench.solve_instance solves them, it prints the
iteration count, the final penalty r, the stop reason, K_D, the final dual
objective F_D, the error metrics eps_v and eps_rho, the last primal and
dual residuals and next to them the exact |A^T Lambda - F_D|_2 of the
returned Lambda (all repr; the solver carries the dual residual across
iterations, so a drift of it shows as a gap between the last two), and
the SHA-256 of the raw bytes of phi, of the three Lambda arrays, of the
data, indices and indptr of the constraint matrix A and of the factors
d_fac and e_fac of the potential solver (hjot.admm.SpectralPhiSolver) on
the instance's grid. The split variable Sigma is not hashed: no solve
returns it, and Phi and Lambda already fingerprint the trajectory. Older
outputs of this script hold three sigma.* hashes and the primal_res and
dual_res hashes of the residual histories that solves no longer keep;
--against ignores them. Two trees that print
the same lines after the first compute bitwise-identical solves; two trees
whose solves differ in rounding are compared by the iteration counts, K_D
and F_D values; a change to the error metrics alone shows in eps_v and
eps_rho; a change to A shows in its three hashes, apart from a change to
the solver's symbols, which shows in the factors' hashes alone.

With --against FILE, a saved output of this script, it prints instead one
line per instance comparing this run with FILE under README's numerical
gate: iters, r_final and stop_reason equal, K_D and F_D within GATE_RTOL
relative. Each hash is reported as equal, different or not in FILE (an
output of an older version of this script); none of these is a breach. It
exits 1 if an instance breaches the gate or is missing from FILE, and 0
otherwise.
"""
import argparse
import hashlib
import sys

import numpy as np

import hjot
from hjot.admm import SpectralPhiSolver
from hjot.bench import solve_instance

INSTANCES = ((2, 64), (3, 64), (1, 128), (1, 192), (1, 32), (2, 32), (3, 32), (1, 64))
GATE_RTOL = 1e-10
EXACT = ("iters", "r_final", "stop_reason")  # compared as printed
CLOSE = ("K_D", "F_D")


def sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def fingerprint():
    """The lines of the fingerprint, after the first, one at a time."""
    for case, N in INSTANCES:
        out = solve_instance(case, N)
        state, problem = out.state, out.problem
        equality = float(np.linalg.norm(problem.operator.matrix.T @ out.lam.flat
                                        - problem.objective_data.ravel()))
        yield (f"case{case}-N{N} iters={state.iters} r_final={state.r_final!r} "
               f"stop_reason={state.stop_reason} K_D={out.record.K_D!r} "
               f"F_D={state.objective!r} eps_v={out.record.eps_v!r} "
               f"eps_rho={out.record.eps_rho!r} primal_last={state.primal_res!r} "
               f"dual_last={state.dual_res!r} equality={equality!r}")
        arrays = [("phi", out.phi)]
        arrays += [(f"lam.{name}", x) for name, x in
                   zip(("lambda_rho", "lambda_m", "lambda_eta"), out.lam.parts())]
        A, solver = problem.operator.matrix, SpectralPhiSolver(problem.grid)
        arrays += [(f"A.{name}", getattr(A, name)) for name in ("data", "indices", "indptr")]
        arrays += [(f"solver.{name}", getattr(solver, name)) for name in ("d_fac", "e_fac")]
        for name, x in arrays:
            yield f"  {name} {sha(x)}"


def parse(lines) -> dict:
    """{instance: (values, hashes)} from fingerprint lines; others are skipped."""
    found = {}
    for line in lines:
        if line.startswith("case"):
            name, *pairs = line.split()
            values, hashes = dict(p.split("=", 1) for p in pairs), {}
            found[name] = (values, hashes)
        elif line.startswith("  ") and found:
            array, digest = line.split()
            hashes[array] = digest
    return found


def compare(saved: dict, current: dict) -> bool:
    """Print one line per instance of current against saved; True if all hold the gate."""
    ok = True
    for name, (values, hashes) in current.items():
        if name not in saved:
            print(f"{name} BREACH: missing from the saved output")
            ok = False
            continue
        old_values, old_hashes = saved[name]
        breaches = [f"{key} {old_values.get(key)} -> {values[key]}" for key in EXACT
                    if old_values.get(key) != values[key]]
        parts = []
        for key in CLOSE:
            new, old = float(values[key]), float(old_values.get(key, "nan"))
            rel = abs(new - old) / abs(old) if old else abs(new - old)
            parts.append(f"{key} rel {rel:.1e}")
            if not rel <= GATE_RTOL:
                breaches.append(f"{key} {old!r} -> {new!r}")
        absent = [a for a in hashes if a not in old_hashes]
        differ = [a for a in hashes if a in old_hashes and hashes[a] != old_hashes[a]]
        parts.append(f"hashes {len(hashes) - len(differ) - len(absent)}/{len(hashes)} equal"
                     + (f" (differ: {', '.join(differ)})" if differ else "")
                     + (f" (not in FILE: {', '.join(absent)})" if absent else ""))
        verdict = "BREACH: " + "; ".join(breaches) if breaches else "ok"
        print(f"{name} {verdict}: {'; '.join(parts)}")
        ok &= not breaches
    return ok


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
        saved = parse(f)
    print(f"{hjot.__file__} against {args.against}")
    return 0 if compare(saved, parse(fingerprint())) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Print a fingerprint of the solves of the numerical gate, by value and by hash.

Usage (no flags; hjot is imported from PYTHONPATH):

    PYTHONPATH=src python tools/solve_fingerprint.py

The first line is the path of the imported hjot package. Then, for each of
the four seed-0 benchmark solves (case 2 and case 3 at N = 64, case 1 at
N = 128 and N = 192) and the other instances of the gate in README,
Determinism (cases 1-3 at N = 32, case 1 at N = 64), all with README
defaults and solved as hjot.bench.solve_instance solves them, it prints the
iteration count, the final penalty r, the stop reason, K_D, the final dual
objective F_D, the error metrics eps_v and eps_rho, the last dual residual
and next to it the exact |A^T Lambda - F_D|_2 of the returned Lambda (all
repr; the solver carries the dual residual across iterations, so a drift of
it shows as a gap between the two), and the
SHA-256 of the raw bytes of phi, of the three Lambda arrays, of the three
Sigma arrays and of the two residual histories. Two trees that print the same lines after the first compute
bitwise-identical solves; two trees whose solves differ in rounding are
compared by the iteration counts, K_D and F_D values; a change to the error
metrics alone shows in eps_v and eps_rho.
"""
import hashlib

import numpy as np

import hjot
from hjot.bench import solve_instance

INSTANCES = ((2, 64), (3, 64), (1, 128), (1, 192), (1, 32), (2, 32), (3, 32), (1, 64))


def sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def main() -> None:
    print(hjot.__file__)
    for case, N in INSTANCES:
        out = solve_instance(case, N)
        state, problem = out.state, out.problem
        equality = float(np.linalg.norm(problem.operator.matrix.T @ out.lam.flat
                                        - problem.objective_data.ravel()))
        print(f"case{case}-N{N} iters={state.iters} r_final={state.r_final!r} "
              f"stop_reason={state.stop_reason} K_D={out.record.K_D!r} "
              f"F_D={state.objective!r} eps_v={out.record.eps_v!r} "
              f"eps_rho={out.record.eps_rho!r} dual_last={state.dual_res[-1]!r} "
              f"equality={equality!r}")
        arrays = [("phi", out.phi)]
        arrays += [(f"lam.{name}", x) for name, x in
                   zip(("lambda_rho", "lambda_m", "lambda_eta"), out.lam.parts())]
        arrays += [(f"sigma.{name}", x) for name, x in
                   zip(("sigma_t", "sigma_x", "sigma_r"), state.sigma.parts())]
        arrays += [(name, np.asarray(getattr(state, name), dtype=float))
                   for name in ("primal_res", "dual_res")]
        for name, x in arrays:
            print(f"  {name} {sha(x)}")


if __name__ == "__main__":
    main()

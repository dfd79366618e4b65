"""The benchmark's workloads: inputs drawn from a seed, set-up, one timed
pass through the public hjot API, and the checks on every output.

Workloads (each pass solves its instances one at a time, in order):

- ``iter-bound``: ADMM on cases 2 and 3 at N = 64; small arrays, so the
  cost of an iteration is mostly per-call overhead.
- ``fine-grid``: ADMM on case 1 at N = 128 and N = 192; few iterations on
  arrays larger than L2.
- ``scheme``: the Hamilton-Jacobi scheme alone: monotonicity trials,
  slope-class preservation along random trajectories, and the initial
  value problem against the Hopf-Lax oracle. No ADMM.

Seed 0 uses the README defaults. Any other seed draws the case parameter
w of cases 2 and 3 uniformly within +-10 % of its default (case 1 needs an
integer w and keeps w = 1), shuffles the instance order, and seeds the
scheme workload's random draws.
"""
from __future__ import annotations

import contextlib
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field

WORKLOADS = ("iter-bound", "fine-grid", "scheme")
ADMM_INSTANCES = {
    "iter-bound": ((2, 64), (3, 64)),
    "fine-grid": ((1, 128), (1, 192)),
}
W_JITTER = 0.10

MONOTONE_TRIALS = 10_000
SCHEME_N = 128
TRAJECTORIES = 200
ORACLE_NS = (16, 32, 64)
CONSISTENCY_SLOPES = 7

# Calibration kernel per workload (see calibrate.Kernel): for each array
# shape the workload's solver works on, how many fresh arrays of that shape
# a sample makes and how many FFT rounds it runs on it. Each workload's
# sample takes 15-20 ms.
KERNELS = {
    "iter-bound": [((65, 64), 800, 60)],
    "fine-grid": [((129, 128), 60, 4), ((193, 192), 60, 4)],
    "scheme": [((129, 128), 330, 10), ((128,), 0, 150)],
}

# Output checks. GAP_RTOL is the duality-gap bound of the acceptance check
# test_c06; on seed 0 K_D must stay within REF_TOL * eps_K of the value
# recorded in reference.json; the scheme tolerances are those of the
# `hjot verify-scheme` command.
GAP_RTOL = 1e-3
REF_TOL = 0.01
CONSISTENCY_TOL = 1e-14
SLOPE_TOL = 1e-10
ENVELOPE_RTOL = 1e-12


class MissingProgram(RuntimeError):
    """The checkout holds no hjot sources to benchmark."""


def import_hjot(root: str):
    """Import hjot from <root>/src, and from nowhere else."""
    src = os.path.abspath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "hjot", "__init__.py")):
        raise MissingProgram(f"no hjot package under {src}")
    sys.path.insert(0, src)
    import hjot
    if os.path.dirname(os.path.dirname(os.path.abspath(hjot.__file__))) != src:
        raise MissingProgram(f"imported hjot from {hjot.__file__}, not from {src}")
    return hjot


def span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@dataclass
class AdmmInstance:
    case: int
    N: int
    w: float
    problem: object
    sol: object

    @property
    def key(self) -> str:
        return f"case{self.case}-N{self.N}"


@dataclass
class SchemeSetup:
    seed: int
    params: object                     # the N = SCHEME_N scheme
    oracle: list = field(default_factory=list)   # (N, scheme) per ORACLE_NS


@dataclass
class PassResult:
    """One pass over a workload's operations.

    wall_s, solve_s and eval_s are raw perf_counter seconds; intervals keeps
    the (start, end) of every timed interval under the same names, so that
    they can be converted to reference seconds afterwards.
    """

    wall_s: float = 0.0
    solve_s: float = 0.0
    eval_s: float = 0.0
    iters: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    intervals: dict = field(default_factory=lambda: {"wall": [], "solve": [], "eval": []})

    def add(self, kind: str, t0: float, t1: float) -> None:
        """Time t1 - t0 spent on kind: 'wall', 'solve' or 'eval'."""
        self.intervals[kind].append((t0, t1))
        setattr(self, f"{kind}_s", getattr(self, f"{kind}_s") + (t1 - t0))

    def check(self, ok: bool, what: str, n: int = 1, bad: int | None = None) -> None:
        """Count n operations; bad of them (all n when not ok) failed."""
        self.attempted += n
        if not ok:
            self.failed += n if bad is None else bad
            self.failures.append(what)


def admm_specs(workload: str, seed: int, default_w: dict) -> list[tuple[int, int, float]]:
    rng = random.Random(seed)
    specs = []
    for case, N in ADMM_INSTANCES[workload]:
        w = default_w[case]
        if seed != 0 and case != 1:
            w *= rng.uniform(1.0 - W_JITTER, 1.0 + W_JITTER)
        specs.append((case, N, w))
    if seed != 0:
        rng.shuffle(specs)
    return specs


def build_admm(hjot, specs) -> list[AdmmInstance]:
    """Marginals, grid, projected measures and assembled problem per instance,
    built as hjot.bench.solve_instance builds them."""
    out = []
    for case, N, w in specs:
        mu, nu, sol = hjot.measures.build_test_case(case, w=w)
        cost = hjot.cost.make_cost("quadratic")
        grid = hjot.grid.make_grid(1, 1.0, N, hjot.bench.resolve_nx(N, 1.0, 1.0), cost)
        pi_mu = hjot.measures.project_measure(mu, grid)
        pi_nu = hjot.measures.project_measure(nu, grid)
        problem = hjot.transport.assemble_problem(grid, cost, pi_mu, pi_nu)
        out.append(AdmmInstance(case, N, w, problem, sol))
    return out


def build_scheme(hjot, seed: int) -> SchemeSetup:
    cost = hjot.cost.QuadraticCost()

    def scheme(n):
        return hjot.hj.make_scheme(hjot.grid.make_grid(1, 1.0, n, n, cost), cost)

    return SchemeSetup(seed, scheme(SCHEME_N), [(n, scheme(n)) for n in ORACLE_NS])


def build(hjot, workload: str, seed: int):
    if workload == "scheme":
        return build_scheme(hjot, seed)
    return build_admm(hjot, admm_specs(workload, seed, hjot.measures.DEFAULT_W))


def run_pass(hjot, workload: str, setup, seed: int, reference: dict,
             tracer=None) -> PassResult:
    if workload == "scheme":
        return scheme_pass(hjot, setup, tracer)
    refs = reference.get(workload, {}) if seed == 0 else None
    return admm_pass(hjot, setup, refs, tracer)


def admm_pass(hjot, instances, refs: dict | None, tracer=None) -> PassResult:
    """Solve every instance, then compute the metrics solve_instance reports.

    refs maps instance keys to the recorded {"K_D", "eps_K"}; None skips
    the comparison (seeds other than 0 draw other instances).
    """
    res = PassResult()
    clock = time.perf_counter
    t_pass = clock()
    for inst in instances:
        if tracer is not None:
            tracer.run_id = inst.key
        with span(tracer, "run.instance"):
            out = _solve_and_check(hjot, inst, refs, res, tracer)
        res.outputs[inst.key] = out
    res.add("wall", t_pass, clock())
    return res


def _solve_and_check(hjot, inst, refs, res: PassResult, tracer) -> dict:
    clock = time.perf_counter
    problem, grid, sol = inst.problem, inst.problem.grid, inst.sol
    t0 = clock()
    phi, lam, state = hjot.admm.solve(problem, hjot.admm.AdmmConfig())
    t1 = clock()
    with span(tracer, "transport.post"):
        K_D = hjot.transport.primal_objective(lam, problem.R, problem.cost)
        fd = hjot.transport.objective_FD(phi, problem.pi_mu, problem.pi_nu)
        V = hjot.transport.recover_velocity(lam)
    gap = abs(K_D - fd) if math.isfinite(K_D) else math.inf
    K = K_D if math.isfinite(K_D) else fd
    out = {"w": inst.w, "K_D": K_D, "iters": state.iters,
           "converged": state.converged, "duality_gap": gap}
    if math.isfinite(K):
        out["eps_K"] = hjot.bench.error_cost(sol.cost, K)
        out["eps_phi"] = hjot.bench.error_potential_gradient(phi, sol, lam, grid)
        out["eps_v"] = hjot.bench.error_velocity(lam, V, sol, grid)
        out["eps_rho"] = hjot.bench.error_measure(lam, sol, grid)
    res.add("solve", t0, t1)
    res.add("eval", t1, clock())
    res.iters += state.iters
    if tracer is not None:
        tracer.count("admm.iters", state.iters)

    problems = []
    if not state.converged:
        problems.append("not converged")
    if not math.isfinite(K_D):
        problems.append("K_D not finite")
    elif gap > GAP_RTOL * (1.0 + abs(K_D)):
        problems.append(f"duality gap {gap:.3e}")
    if refs is not None:
        ref = refs.get(inst.key)
        if ref is None:
            problems.append("no reference K_D recorded")
        elif not abs(K_D - ref["K_D"]) <= REF_TOL * ref["eps_K"]:
            problems.append(f"K_D {K_D!r} moved from reference {ref['K_D']!r}")
    res.check(not problems, f"{inst.key}: {', '.join(problems)}")
    return out


def scheme_pass(hjot, setup: SchemeSetup, tracer=None) -> PassResult:
    """Monotonicity trials, random trajectories and the Hopf-Lax comparison.

    solve_s is the time spent stepping the scheme (check_monotone and
    solve_ivp), iters the scheme steps they take; eval_s is the time of the
    checks on their outputs (consistency, slope bound, oracle).
    """
    import numpy as np

    hj, wrap = hjot.hj, hjot.measures.wrap
    res = PassResult()
    clock = time.perf_counter
    t_pass = clock()
    params = setup.params
    g = params.grid

    if tracer is not None:
        tracer.run_id = "consistency"
    t0 = clock()
    worst = max(hj.consistency_residual(params, float(s))
                for s in np.linspace(-g.R, g.R, CONSISTENCY_SLOPES))
    res.add("eval", t0, clock())
    res.check(worst <= CONSISTENCY_TOL, f"consistency residual {worst:.3e}",
              n=CONSISTENCY_SLOPES)
    res.outputs["consistency_worst"] = worst

    if tracer is not None:
        tracer.run_id = "monotone"
    t0 = clock()
    rep = hj.check_monotone(params, trials=MONOTONE_TRIALS, seed=setup.seed)
    res.add("solve", t0, clock())
    res.iters += 2 * MONOTONE_TRIALS
    bad = min(MONOTONE_TRIALS, rep.monotone_violations + rep.nonexpansive_violations)
    res.check(rep.ok, f"monotone trials: {rep}", n=MONOTONE_TRIALS, bad=bad)
    res.outputs["monotone"] = [rep.max_monotone_violation, rep.max_expansion_excess]

    rng = np.random.default_rng(setup.seed + 1)
    excesses = []
    for k in range(TRAJECTORIES):
        if tracer is not None:
            tracer.run_id = f"trajectory{k}"
        phi0 = hj.random_cr_field(g, g.R, rng)
        t0 = clock()
        traj = hj.solve_ivp(phi0, params)
        t1 = clock()
        excess = max(hj.max_slope(sl, g) for sl in traj) - g.R
        res.add("eval", t1, clock())
        res.add("solve", t0, t1)
        res.iters += g.N_T
        res.check(excess <= SLOPE_TOL, f"trajectory {k}: slope excess {excess:.3e}")
        excesses.append(excess)
    res.outputs["slope_excess_max"] = max(excesses)

    def phi0(y):
        return wrap(np.asarray(y, dtype=float)) ** 2 / 2.0

    rows = []
    for n, p in setup.oracle:
        if tracer is not None:
            tracer.run_id = f"oracle{n}"
        x = p.grid.spatial_nodes()
        t0 = clock()
        traj = hj.solve_ivp(phi0(x), p)
        t1 = clock()
        sup = 0.0
        for i, t in enumerate(p.grid.times()):
            exact = np.array([hj.hopf_lax(phi0, float(t), float(xj), p.cost, p.grid)
                              for xj in x])
            sup = max(sup, float(np.max(np.abs(traj[i] - exact))))
        res.add("eval", t1, clock())
        res.add("solve", t0, t1)
        res.iters += p.grid.N_T
        rows.append((n, p.grid.h, sup))
    C = rows[0][2] / math.sqrt(rows[0][1])
    inside = all(s <= C * math.sqrt(h) * (1.0 + ENVELOPE_RTOL) for _, h, s in rows)
    res.check(inside, f"oracle sup errors {rows} leave the sqrt(h) envelope")
    res.outputs["oracle_sup"] = [s for _, _, s in rows]
    res.add("wall", t_pass, clock())
    return res

"""Error metrics against analytic solutions and convergence-rate sweeps.

Conventions for the metrics, with Lambda_rho the raw primal mass (each
time slice sums to dt):

  eps_K   = |K - K_D|, K_D the converged primal objective (the dual
            objective F_D where K_D is not finite)
  eps_v   = sum over Q'_D of |vbar - V|^2 Lambda_rho      (weighted L^2 squared)
  eps_phi = same weighted norm of grad_D(Pi phibar) - grad_D(Phi)
  eps_rho = dt * sum over slices of |Pi rhobar_t - Lambda_rho/dt|  (L^1)

The dt factor in eps_rho makes it a time-integral of slice-wise total
variation, so values are comparable across resolutions.
"""
from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .admm import AdmmConfig, solve
from .cost import QuadraticCost
from .grid import GridSpec, centered_gradient, fit_rate, make_grid, resolve_nx
from .measures import DEFAULT_W, build_test_case, project_measure
from .transport import PrimalVars, assemble_problem, primal_objective, recover_velocity

# Empirical convergence orders observed for this scheme in the original
# convergence study of the three test cases; used as benchmark references.
REFERENCE_RATES = {
    1: {"alpha_K": 1.053, "alpha_v": 2.027, "alpha_rho": 1.070},
    2: {"alpha_K": 1.128, "alpha_v": 1.772, "alpha_rho": 0.878},
    3: {"alpha_K": 0.887, "alpha_v": 0.996, "alpha_rho": 0.466},
}

# Rates measured in the same study for a staggered-grid discretization of
# the primal problem (PPO); reference constants only, never recomputed here.
COMPARATOR_RATES = {
    1: {"alpha_K": 1.998, "alpha_v": 1.997, "alpha_rho": 2.254},
    2: {"alpha_K": 1.873, "alpha_v": 2.015, "alpha_rho": 1.228},
    3: {"alpha_K": 1.379, "alpha_v": 1.938, "alpha_rho": 0.418},
}


@dataclass
class ErrorRecord:
    """Metrics of one solve at one resolution."""

    N: int
    h: float
    K_D: float  # primal_objective of Lambda, NaN or inf included
    F_D: float  # the dual objective of Phi, AdmmState.objective
    eps_K: float
    eps_phi: float | None
    eps_v: float
    eps_rho: float
    iters: int
    wall_time: float
    converged: bool
    duality_gap: float
    stop_reason: str  # AdmmState.stop_reason
    r_final: float  # the ADMM penalty at the stop


@dataclass
class ConvergenceReport:
    case_id: int
    w: float
    records: list[ErrorRecord]
    alpha_K: float | None
    alpha_phi: float | None
    alpha_v: float | None
    alpha_rho: float | None
    reference_rates: dict
    comparator_rates: dict


def error_cost(K_analytic: float, K_D: float) -> float:
    if not (math.isfinite(K_analytic) and math.isfinite(K_D)):
        raise ValueError("cost values must be finite")
    return abs(K_analytic - K_D)


def _sample_vector(fn, t: float, grid: GridSpec) -> np.ndarray:
    """Evaluate an analytic field at the slice-t grid points, shaped (d, *space)."""
    x = grid.spatial_nodes()
    vals = np.asarray(fn(t, x), dtype=float)
    return vals.reshape((grid.d,) + grid.space_shape)


def error_velocity(lam: PrimalVars, V: np.ndarray, sol, grid: GridSpec) -> float:
    """Lambda_rho-weighted squared L^2 gap between V and the analytic velocity."""
    total = 0.0
    for i in range(grid.N_T):
        vbar = _sample_vector(sol.v, i * grid.dt, grid)
        gap2 = np.sum((vbar - V[:, i]) ** 2, axis=0)
        total += float(np.sum(gap2 * lam.lambda_rho[i]))
    return total


def error_potential_gradient(phi: np.ndarray, sol, lam: PrimalVars,
                             grid: GridSpec) -> float | None:
    """Weighted squared gap of centered gradients; None when phibar is unknown."""
    if sol.phi is None:
        return None
    x = grid.spatial_nodes()
    p_phi = np.stack([np.asarray(sol.phi(t, x), dtype=float).reshape(grid.space_shape)
                      for t in grid.times()])
    # the weighted norm lives on Q'_D: gradients of the old slices only
    gap = centered_gradient(p_phi[:-1], grid) - centered_gradient(phi[:-1], grid)
    gap2 = np.sum(gap ** 2, axis=0)
    return float(np.sum(gap2 * lam.lambda_rho))


def error_measure(lam: PrimalVars, sol, grid: GridSpec) -> float:
    """dt-weighted L^1 gap between projected analytic slices and Lambda_rho/dt."""
    total = 0.0
    for i in range(grid.N_T):
        pi_rho = project_measure(sol.slice_measure(i * grid.dt), grid).weights
        total += float(np.sum(np.abs(pi_rho - lam.lambda_rho[i] / grid.dt)))
    return grid.dt * total


@dataclass
class SolveOutput:
    """Everything one solve produces, for report and grid emission."""

    record: ErrorRecord
    phi: np.ndarray
    lam: PrimalVars
    problem: object
    sol: object
    state: object


def solve_instance(case_id: int, N: int, *, w: float | None = None,
                   zeta: float = 1.0, R: float | None = None,
                   admm_config: AdmmConfig | None = None) -> SolveOutput:
    """Solve one test case at one resolution, with the quadratic cost, and
    measure all error metrics."""
    mu, nu, sol = build_test_case(case_id, w=w)
    cost = QuadraticCost()
    grid = make_grid(1, 1.0, N, resolve_nx(N, zeta, 1.0), cost, R=R)
    t0 = time.perf_counter()
    pi_mu = project_measure(mu, grid)
    pi_nu = project_measure(nu, grid)
    problem = assemble_problem(grid, cost, pi_mu, pi_nu)
    phi, lam, state = solve(problem, admm_config)
    wall = time.perf_counter() - t0

    K_D = primal_objective(lam, problem.R, cost)
    F_D = state.objective
    gap = abs(K_D - F_D) if math.isfinite(K_D) else math.inf
    V = recover_velocity(lam)
    record = ErrorRecord(
        N=N,
        h=grid.h,
        K_D=K_D,
        F_D=F_D,
        eps_K=error_cost(sol.cost, K_D if math.isfinite(K_D) else F_D),
        eps_phi=error_potential_gradient(phi, sol, lam, grid),
        eps_v=error_velocity(lam, V, sol, grid),
        eps_rho=error_measure(lam, sol, grid),
        iters=state.iters,
        wall_time=wall,
        converged=state.converged,
        duality_gap=gap,
        stop_reason=state.stop_reason,
        r_final=state.r_final,
    )
    return SolveOutput(record, phi, lam, problem, sol, state)


def run_sweep(case_id: int, resolutions, *, w: float | None = None,
              zeta: float = 1.0, R: float | None = None,
              admm_config: AdmmConfig | None = None) -> ConvergenceReport:
    """Solve a resolution family and fit convergence orders.

    Non-converged solves keep their record but are excluded from fits.
    """
    res = list(resolutions)
    for n in res:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"resolutions must be integers, got {n!r}")
    res = [int(n) for n in res]  # numpy integers become the records' plain ints
    if sorted(res) != res or len(set(res)) != len(res):
        raise ValueError("resolutions must be strictly ascending")
    build_test_case(case_id, w=w)  # validates case_id and w early
    records = [solve_instance(case_id, n, w=w, zeta=zeta, R=R,
                              admm_config=admm_config).record
               for n in res]

    fitted = [r for r in records if r.converged]
    if len(fitted) < len(records):
        warnings.warn(f"{len(records) - len(fitted)} non-converged solves excluded from fits")
    if len(fitted) < 3:
        warnings.warn("fewer than 3 usable resolutions, fitted rates are unreliable")

    def fit(metric):
        pts = [(r.h, getattr(r, metric)) for r in fitted if getattr(r, metric) is not None]
        if len(pts) < 2:
            return None
        alpha = fit_rate(pts)
        return None if math.isnan(alpha) else alpha

    if w is None:
        w = DEFAULT_W[case_id]
    return ConvergenceReport(
        case_id=case_id,
        w=float(w),
        records=records,
        alpha_K=fit("eps_K"),
        alpha_phi=fit("eps_phi"),
        alpha_v=fit("eps_v"),
        alpha_rho=fit("eps_rho"),
        reference_rates=dict(REFERENCE_RATES[case_id]),
        comparator_rates=dict(COMPARATOR_RATES[case_id]),
    )


import dataclasses
import math

import numpy as np
import pytest

from hjot.admm import (
    AdmmConfig,
    SpectralPhiSolver,
    lambda_update,
    phi_update,
    sigma_update,
    solve,
)
from hjot.bench import solve_instance
from hjot.grid import GridSpec, make_grid
from hjot.measures import DiscreteMeasure, build_test_case, project_measure, uniform
from hjot.transport import PrimalVars, SigmaVars, assemble_problem
from tests.conftest import dense_constraint_matrix, flatten_primal, flatten_sigma


def case_problem(case_id: int, n: int, quad):
    g = make_grid(1, 1.0, n, n, quad)
    mu, nu, _ = build_test_case(case_id)
    return assemble_problem(g, quad, project_measure(mu, g), project_measure(nu, g))


def uniform_problem(n: int, quad):
    g = make_grid(1, 1.0, n, n, quad)
    pi = project_measure(uniform(), g)
    return assemble_problem(g, quad, pi, pi)


def test_config_validation():
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            AdmmConfig(r=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            AdmmConfig(stop_tol=bad)
    for max_iters in (0, -3):
        with pytest.raises(ValueError, match="max_iters"):
            AdmmConfig(max_iters=max_iters)
    cfg = AdmmConfig()
    assert (cfg.r, cfg.stop_tol, cfg.max_iters) == (1.0, 1e-5, 200000)
    assert [f.name for f in dataclasses.fields(AdmmConfig)] == ["r", "stop_tol", "max_iters"]


def test_phi_update_stationary_point(quad):
    # with zero objective and Lambda, Sigma = A Phi makes Phi stationary
    problem = case_problem(2, 16, quad)
    flat = dataclasses.replace(problem,
                               objective_data=np.zeros_like(problem.objective_data))
    g = problem.grid
    rng = np.random.default_rng(31)
    phi_prev = rng.standard_normal((g.N_T + 1, g.N_X))
    phi_prev -= phi_prev.mean()
    sigma = problem.operator.apply(phi_prev)
    lam = PrimalVars.zeros(g)
    solver = SpectralPhiSolver(g)
    for r in (0.3, 1.0, 4.0):
        out = phi_update(solver, flat, sigma, lam, r)
        assert np.allclose(out, phi_prev, atol=1e-9)


def dense_operator(problem) -> np.ndarray:
    """Dense A: the index-formula oracle at d = 1; at d = 2, column j is
    ConstraintOperator.apply of the j-th unit potential."""
    g = problem.grid
    if g.d == 1:
        return dense_constraint_matrix(g)
    shape = (g.N_T + 1,) + g.space_shape
    unit = np.zeros(shape)
    cols = []
    for j in range(unit.size):
        unit.flat[j] = 1.0
        cols.append(flatten_sigma(problem.operator.apply(unit)))
        unit.flat[j] = 0.0
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("d,n_x", [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
def test_phi_update_matches_dense_least_squares(quad, d, n_x):
    # r A^T A Phi = F_D - A^T Lambda + r A^T Sigma, solved densely
    g = GridSpec(d=d, D=1.0, N_T=2, N_X=n_x, eps=0.05, R=0.5)
    rng = np.random.default_rng(33)
    sp = g.space_shape
    mu, nu = (rng.uniform(0.5, 1.5, size=sp) for _ in range(2))
    problem = assemble_problem(g, quad, DiscreteMeasure(mu / mu.sum()),
                               DiscreteMeasure(nu / nu.sum()))
    A = dense_operator(problem)
    solver = SpectralPhiSolver(g)
    for r in (0.5, 1.0, 2.0):
        sigma, lam = (cls(rng.standard_normal((g.N_T,) + sp),
                          rng.standard_normal((d, g.N_T) + sp),
                          rng.standard_normal((d,) + sp))
                      for cls in (SigmaVars, PrimalVars))
        phi = phi_update(solver, problem, sigma, lam, r)

        rhs = problem.objective_data.ravel() \
            - A.T @ (flatten_primal(lam) - r * flatten_sigma(sigma))
        dense, *_ = np.linalg.lstsq(r * (A.T @ A), rhs, rcond=None)
        dense = dense.reshape(phi.shape)
        assert np.allclose(phi - phi.mean(), dense - dense.mean(), atol=1e-8)


@pytest.mark.parametrize("d,n_t,n_x", [(1, 16, 16), (1, 192, 192), (2, 12, 8), (2, 36, 24)])
def test_phi_solver_returns_mean_zero_field(quad, d, n_t, n_x):
    g = make_grid(d, 1.0, n_t, n_x, quad)
    b = np.random.default_rng(34).standard_normal((g.N_T + 1,) + g.space_shape)
    phi = SpectralPhiSolver(g).solve(b)
    assert abs(phi.mean()) <= 1e-15 * np.max(np.abs(phi))


@pytest.mark.parametrize("d", [1, 2])
def test_phi_solver_out_matches_allocating_form(quad, d):
    g = make_grid(d, 1.0, 12, 8, quad)
    b = np.random.default_rng(35).standard_normal((g.N_T + 1,) + g.space_shape)
    solver = SpectralPhiSolver(g)
    fresh = solver.solve(b)
    out = np.full_like(b, np.nan)
    assert solver.solve(b, out=out) is out
    assert np.array_equal(out, fresh)
    in_place = b.copy()
    solver.solve(in_place, out=in_place)
    assert np.array_equal(in_place, fresh)


# (iterations, K_D) recorded at commit 5f7aeef, with the banded Cholesky
# potential solve and the pow-based projection. A change that only rounds
# differently keeps K_D within 1e-10 relative and the count within 1 %.
RECORDED_SOLVES = {(2, 16): (1075, 0.021763552510060607),
                   (1, 32): (257, 0.002175593841533474)}


@pytest.mark.parametrize("case_id,n", sorted(RECORDED_SOLVES))
def test_solve_stays_within_the_numerical_gate(case_id, n, case2_n16):
    out = case2_n16 if (case_id, n) == (2, 16) else solve_instance(case_id, n)
    iters, k_d = RECORDED_SOLVES[case_id, n]
    assert out.state.converged
    assert abs(out.state.iters - iters) <= 0.01 * iters
    assert abs(out.record.K_D - k_d) <= 1e-10 * abs(k_d)


def test_solve_rejects_viscosity_above_the_monotone_bound(quad):
    # eps/dx = 9.6 against dx/(2 d dt) = 1/6: pttrf used to fail on this grid
    g = GridSpec(d=1, D=1.0, N_T=64, N_X=192, eps=0.05, R=0.5)
    pi = DiscreteMeasure(np.full(g.space_shape, 1.0 / g.N_X))
    problem = assemble_problem(g, quad, pi, pi)
    with pytest.raises(ValueError, match=r"eps/dx = 9\.6 above dx/\(2 d dt\) = 0\.166667"):
        solve(problem, AdmmConfig(max_iters=1))


@pytest.mark.parametrize("d, n_t, n_x", [(1, 4, 4), (1, 16, 16), (1, 128, 192), (2, 8, 4)])
def test_solve_accepts_make_grid_grids_and_zero_viscosity(quad, d, n_t, n_x):
    for g in (make_grid(d, 1.0, n_t, n_x, quad),
              GridSpec(d=d, D=1.0, N_T=n_t, N_X=n_x, eps=0.0, R=0.5)):
        pi = DiscreteMeasure(np.full(g.space_shape, 1.0 / g.N_X ** d))
        _, _, state = solve(assemble_problem(g, quad, pi, pi), AdmmConfig(max_iters=1))
        assert state.iters == 1


def test_sigma_update_keeps_feasible_points(quad):
    problem = case_problem(2, 16, quad)
    g = problem.grid
    rng = np.random.default_rng(34)
    w = rng.uniform(-0.3, 0.3, size=(1, g.N_T, g.N_X))
    s = -np.asarray(quad.eval_H(w)) - 0.05  # strictly inside s + H(w) <= 0
    u = rng.uniform(-0.4, 0.4, size=(1, g.N_X))
    a_phi = SigmaVars(s, w, u)
    out = sigma_update(problem, a_phi, PrimalVars.zeros(g), 1.0)
    assert np.allclose(out.sigma_t, s, atol=1e-12)
    assert np.allclose(out.sigma_x, w, atol=1e-12)
    assert np.array_equal(out.sigma_r, u)


def test_sigma_update_clamps_initial_gradient(quad):
    problem = case_problem(2, 16, quad)
    g = problem.grid
    a_phi = SigmaVars(np.zeros((g.N_T, g.N_X)),
                      np.zeros((1, g.N_T, g.N_X)),
                      np.full((1, g.N_X), 0.7))
    out = sigma_update(problem, a_phi, PrimalVars.zeros(g), 1.0)
    assert np.allclose(out.sigma_r, problem.R)  # 0.7 clipped to R = 0.5


def test_sigma_update_delegates_to_projection(quad):
    problem = case_problem(2, 16, quad)
    g = problem.grid
    rng = np.random.default_rng(35)
    a_phi = SigmaVars(rng.standard_normal((g.N_T, g.N_X)),
                      rng.standard_normal((1, g.N_T, g.N_X)),
                      rng.standard_normal((1, g.N_X)))
    lam = PrimalVars(rng.standard_normal((g.N_T, g.N_X)),
                     rng.standard_normal((1, g.N_T, g.N_X)),
                     rng.standard_normal((1, g.N_X)))
    r = 0.7
    out = sigma_update(problem, a_phi, lam, r)
    s_ref, w_ref = quad.project_onto_K(a_phi.sigma_t + lam.lambda_rho / r,
                                       a_phi.sigma_x + lam.lambda_m / r)
    assert np.array_equal(out.sigma_t, s_ref)
    assert np.array_equal(out.sigma_x, w_ref)
    assert np.max(np.abs(out.sigma_r)) <= problem.R


def test_lambda_update_arithmetic(quad):
    problem = case_problem(2, 16, quad)
    g = problem.grid
    rng = np.random.default_rng(36)
    a_phi = SigmaVars(rng.standard_normal((g.N_T, g.N_X)),
                      rng.standard_normal((1, g.N_T, g.N_X)),
                      rng.standard_normal((1, g.N_X)))
    lam = PrimalVars.zeros(g)
    assert lambda_update(lam, SigmaVars.zeros(g), 2.0) is lam
    assert np.max(np.abs(lam.lambda_rho)) == 0.0  # A Phi = Sigma fixes Lambda
    residual = SigmaVars(*a_phi.parts())  # A Phi - Sigma with Sigma = 0
    out = lambda_update(lam, residual, 2.0)
    assert np.allclose(out.lambda_rho, 2.0 * a_phi.sigma_t, atol=1e-15)
    assert np.allclose(out.lambda_m, 2.0 * a_phi.sigma_x, atol=1e-15)
    assert np.allclose(out.lambda_eta, 2.0 * a_phi.sigma_r, atol=1e-15)
    assert np.array_equal(residual.flat, 2.0 * a_phi.flat)  # scaled in place


def test_identical_marginals_solve_trivially(quad):
    problem = uniform_problem(16, quad)
    phi, lam, state = solve(problem)
    assert state.converged
    assert state.iters <= 5
    from hjot.transport import primal_objective
    assert primal_objective(lam, problem.R, quad) <= 1e-4


@pytest.mark.parametrize("cap", [1, 3, 10])
def test_sigma_iterates_always_feasible(quad, cap):
    # the split variable is feasible at every iterate, converged or not
    problem = case_problem(2, 16, quad)
    with pytest.warns(UserWarning, match="did not converge"):
        _, _, state = solve(problem, AdmmConfig(max_iters=cap))
    sig = state.sigma
    hj = sig.sigma_t + np.asarray(problem.cost.eval_H(sig.sigma_x))
    assert float(np.max(hj)) <= 1e-12
    assert float(np.max(np.abs(sig.sigma_r))) <= problem.R + 1e-12
    assert state.iters == cap and not state.converged
    assert len(state.primal_res) == cap


def test_solve_is_deterministic(quad):
    problem = case_problem(1, 16, quad)
    _, _, s1 = solve(problem)
    _, _, s2 = solve(problem)
    assert s1.primal_res == s2.primal_res
    assert s1.dual_res == s2.dual_res
    assert s1.objective == s2.objective
    assert s1.iters == s2.iters


@pytest.mark.parametrize("case_id", [1, 2, 3])
def test_all_cases_converge_at_n16(quad, case_id, case2_n16, case3_n16):
    if case_id == 2:
        state = case2_n16.state
    elif case_id == 3:
        state = case3_n16.state
    else:
        _, _, state = solve(case_problem(1, 16, quad))
    assert state.converged
    assert state.iters < 200000
    assert state.primal_res[-1] <= 1e-5
    assert state.dual_res[-1] <= 1e-5


def test_duality_gap_small_at_convergence(case2_n16, case3_n16):
    for out in (case2_n16, case3_n16):
        assert out.record.duality_gap <= 10 * 1e-5 * (1.0 + abs(out.record.K_D))


def test_mass_stays_nearly_nonnegative(case2_n16):
    assert float(np.min(case2_n16.lam.lambda_rho)) >= -1e-4


def test_tighter_tolerance_needs_more_iterations(quad):
    # the trajectory is tolerance-independent, so iteration counts are
    # monotone in stop_tol; the tradeoff is recorded here, not bounded
    problem = case_problem(2, 16, quad)
    _, _, loose = solve(problem, AdmmConfig(stop_tol=1e-3))
    _, _, tight = solve(problem, AdmmConfig(stop_tol=1e-5))
    assert loose.iters <= tight.iters
    assert loose.primal_res == tight.primal_res[: loose.iters]
    print(f"stop_tol 1e-3: {loose.iters} iters, 1e-5: {tight.iters} iters")


def test_returned_phi_is_mean_anchored(case2_n16):
    assert abs(float(case2_n16.phi.mean())) <= 1e-12


def test_non_finite_iterates_stop_with_a_named_reason(quad):
    problem = case_problem(2, 16, quad)
    data = problem.objective_data.copy()
    data[1, 3] = np.nan
    broken = dataclasses.replace(problem, objective_data=data)
    with pytest.warns(UserWarning, match="non-finite"):
        _, _, state = solve(broken)
    assert state.stop_reason == "non_finite"
    assert state.iters <= 2 and not state.converged
    assert not math.isfinite(state.primal_res[-1])


def test_stop_reason_names_convergence_and_the_cap(quad):
    problem = case_problem(2, 16, quad)
    _, _, done = solve(problem)
    assert done.converged and done.stop_reason == "converged"
    with pytest.warns(UserWarning, match="did not converge"):
        _, _, capped = solve(problem, AdmmConfig(max_iters=3))
    assert capped.stop_reason == "max_iters"

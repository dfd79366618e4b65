import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrf, zpttrs

from hjot import transport
from hjot.admm import (
    BALANCE_RATIO,
    AdmmConfig,
    SpectralPhiSolver,
    Stepper,
    lambda_update,
    phi_update,
    sigma_update,
    solve,
)
from hjot.bench import solve_instance
from hjot.cost import QuadraticCost
from hjot.grid import GridSpec, make_grid
from hjot.measures import DiscreteMeasure, build_test_case, project_measure, uniform
from hjot.transport import PrimalVars, SigmaVars, assemble_problem
from tests.conftest import (apply, apply_transpose, dense_constraint_matrix, flatten_primal,
                            flatten_sigma, project, projection_scratch)


def case_problem(case_id: int, n: int, quad):
    g = make_grid(1, 1.0, n, n, quad)
    mu, nu, _ = build_test_case(case_id)
    return assemble_problem(g, quad, project_measure(mu, g), project_measure(nu, g))


def uniform_problem(n: int, quad):
    g = make_grid(1, 1.0, n, n, quad)
    pi = project_measure(uniform(), g)
    return assemble_problem(g, quad, pi, pi)


def test_config_validation():
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf, True):
        with pytest.raises(ValueError, match="finite and positive"):
            AdmmConfig(r=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            AdmmConfig(stop_tol=bad)
    for bad in ("1", None, 1 + 0j, [1.0]):  # not real numbers
        with pytest.raises(ValueError, match="r and stop_tol must be finite and positive"):
            AdmmConfig(r=bad)
        with pytest.raises(ValueError, match="r and stop_tol must be finite and positive"):
            AdmmConfig(stop_tol=bad)
    assert AdmmConfig(r=np.float64(0.5), stop_tol=2).r == 0.5
    for max_iters in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="max_iters"):
            AdmmConfig(max_iters=max_iters)
    cfg = AdmmConfig()
    assert (cfg.r, cfg.stop_tol, cfg.max_iters) == (1.0, 1e-5, 200000)
    assert [f.name for f in dataclasses.fields(AdmmConfig)] == ["r", "stop_tol", "max_iters"]


def test_phi_update_stationary_point(quad):
    # with zero objective and Lambda, Sigma = A Phi makes Phi stationary
    problem = case_problem(2, 16, quad)
    g = problem.grid
    rng = np.random.default_rng(31)
    phi_prev = rng.standard_normal((g.N_T + 1, g.N_X))
    phi_prev -= phi_prev.mean()
    sigma = apply(problem.operator, phi_prev)
    lam = PrimalVars.zeros(g)
    a_t_sigma = apply_transpose(problem.operator, sigma)
    solver = SpectralPhiSolver(g)
    for r in (0.3, 1.0, 4.0):
        h = -apply_transpose(problem.operator, lam) / r  # (F_D - A^T Lambda) / r, F_D = 0
        out = phi_update(solver, h, a_t_sigma, out=np.empty_like(phi_prev))
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
        cols.append(flatten_sigma(apply(problem.operator, unit)))
        unit.flat[j] = 0.0
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("d,n_x", [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
def test_phi_update_matches_dense_least_squares(quad, d, n_x):
    # A^T A Phi = (F_D - A^T Lambda) / r + A^T Sigma against
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
        h = (problem.objective_data - apply_transpose(problem.operator, lam)) / r
        phi = phi_update(solver, h, apply_transpose(problem.operator, sigma),
                         out=np.empty_like(problem.objective_data))

        rhs = problem.objective_data.ravel() \
            - A.T @ (flatten_primal(lam) - r * flatten_sigma(sigma))
        dense, *_ = np.linalg.lstsq(r * (A.T @ A), rhs, rcond=None)
        dense = dense.reshape(phi.shape)
        assert np.allclose(phi - phi.mean(), dense - dense.mean(), atol=1e-8)


def closed_form_tridiagonal(g) -> tuple[np.ndarray, np.ndarray]:
    """diag and off of the stacked M(theta) from A's symbols written out by
    hand: M = B^T B + |g|^2 diag(1..1, 0) + |c|^2 e_0 e_0^T, with B
    bidiagonal (B[i,i] = -1/dt - eps l, B[i,i+1] = 1/dt) and l, g, c the
    symbols of the Laplacian, centered gradient and forward quotient."""
    freq_shape = (g.N_X,) * (g.d - 1) + (g.N_X // 2 + 1,)
    thetas = np.meshgrid(*[2.0 * np.pi * np.arange(sz) / g.N_X for sz in freq_shape],
                         indexing="ij")
    lap = sum((2.0 * np.cos(th) - 2.0) / g.dx ** 2 for th in thetas).ravel()
    g2 = sum((np.sin(th) / g.dx) ** 2 for th in thetas).ravel()
    c2 = -lap  # |e^{i th} - 1|^2 / dx^2 summed over axes
    beta, gamma = -1.0 / g.dt - g.eps * lap, 1.0 / g.dt
    diag = np.zeros((lap.size, g.N_T + 1))
    off = np.zeros_like(diag)
    diag[:, :-1] += beta[:, None] ** 2 + g2[:, None]
    diag[:, 1:] += gamma ** 2
    diag[:, 0] += c2
    off[:, 1:] = (beta * gamma)[:, None]
    diag[0, 0], off[0, 1] = 1.0, 0.0  # the pin at theta = 0
    return diag, off


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_x", [1, 2, 3, 4, 5, 8, 9])
def test_phi_solver_factors_match_the_closed_form_symbols(d, n_x):
    # at N_X <= 2 the row blocks hold coincident neighbours summed, and the
    # centered difference vanishes, where the closed form has sin(pi) ~ 1e-16
    for n_t in (1, 2, 6):
        g = GridSpec(d=d, D=1.0, N_T=n_t, N_X=n_x, eps=0.01, R=0.5)
        diag, off = closed_form_tridiagonal(g)
        d_ref, e_ref, info = dpttrf(diag.ravel(), off.ravel()[1:])
        assert info == 0
        solver = SpectralPhiSolver(g)
        np.testing.assert_allclose(solver.d_fac, d_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(solver.e_fac, e_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d,n_x", [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
def test_a_weight_on_a_row_block_reaches_the_matrix_and_the_solver(monkeypatch, d, n_x):
    # the A_x rows scaled by 1/4 in row_blocks alone: the potential solve
    # must then be least squares on the weighted matrix
    g = GridSpec(d=d, D=1.0, N_T=2, N_X=n_x, eps=0.05, R=0.5)
    plain_blocks, plain = transport.row_blocks, transport.constraint_matrix(g).toarray()

    def weighted_blocks(grid):
        return [(lead, [(s, k, o, w / 4.0 if 1 <= b <= grid.d else w)
                        for s, k, o, w in terms])
                for b, (lead, terms) in enumerate(plain_blocks(grid))]

    monkeypatch.setattr(transport, "row_blocks", weighted_blocks)
    A = transport.constraint_matrix(g).toarray()
    x_rows = slice(g.N_T * g.N_X ** d, (1 + d) * g.N_T * g.N_X ** d)
    assert np.array_equal(A[x_rows], plain[x_rows] / 4.0)
    shape = (g.N_T + 1,) + g.space_shape
    rng = np.random.default_rng(39)
    solver = SpectralPhiSolver(g)
    for _ in range(3):
        y, z = rng.standard_normal((2, A.shape[0]))
        phi = phi_update(solver, (A.T @ y).reshape(shape), (A.T @ z).reshape(shape),
                         out=np.empty(shape))
        dense, *_ = np.linalg.lstsq(A, y + z, rcond=None)  # A^T A phi = A^T (y + z)
        dense = dense.reshape(shape)
        assert np.allclose(phi - phi.mean(), dense - dense.mean(), atol=1e-8)


@pytest.mark.parametrize("d,n_t,n_x", [(1, 16, 16), (1, 192, 192), (2, 12, 8), (2, 36, 24)])
def test_phi_solver_returns_mean_zero_field(quad, d, n_t, n_x):
    g = make_grid(d, 1.0, n_t, n_x, quad)
    b = np.random.default_rng(34).standard_normal((g.N_T + 1,) + g.space_shape)
    phi = SpectralPhiSolver(g).solve(b, out=np.empty_like(b))
    assert abs(phi.mean()) <= 1e-15 * np.max(np.abs(phi))


@pytest.mark.parametrize("d, n_t, n_x", [(1, 16, 16), (1, 12, 9), (2, 12, 8), (2, 6, 5),
                                         (3, 4, 6)])
def test_phi_solver_matches_the_n_d_transforms_bitwise(quad, d, n_t, n_x):
    # the one-axis FFTs against rfftn/irfftn and .mean(); from d = 3 on, a
    # different order of the complex axes rounds differently
    g = GridSpec(d=d, D=1.0, N_T=n_t, N_X=n_x, eps=0.01, R=0.5)
    solver = SpectralPhiSolver(g)
    axes = tuple(range(-d, 0))
    for seed in (37, 38):
        b = np.random.default_rng(seed).standard_normal((g.N_T + 1,) + g.space_shape)
        spec = solver._spec
        spec[...] = np.fft.rfftn(b, axes=axes)
        solver._buf[0] = 0.0
        x, info = zpttrs(solver.d_fac, solver.e_fac, solver._buf, overwrite_b=1)
        assert info == 0 and x is solver._buf
        solver._dc -= solver._dc.mean()
        ref = np.fft.irfftn(spec, s=g.space_shape, axes=axes)
        assert np.array_equal(solver.solve(b, out=np.empty_like(b)), ref)


@pytest.mark.parametrize("d", [1, 2])
def test_phi_solver_out_matches_allocating_form(quad, d):
    g = make_grid(d, 1.0, 12, 8, quad)
    b = np.random.default_rng(35).standard_normal((g.N_T + 1,) + g.space_shape)
    solver = SpectralPhiSolver(g)
    # an out buffer full of NaN is overwritten everywhere and returned, and
    # a solve in place, into b itself, gives the same field
    out = np.full_like(b, np.nan)
    assert solver.solve(b, out=out) is out
    assert np.all(np.isfinite(out))
    in_place = b.copy()
    assert solver.solve(in_place, out=in_place) is in_place
    assert np.array_equal(in_place, out)


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
    out = sigma_update(problem, a_phi, SigmaVars.zeros(g), out=SigmaVars.zeros(g),
                       **projection_scratch((g.N_T, g.N_X)))
    assert np.allclose(out.sigma_t, s, atol=1e-12)
    assert np.allclose(out.sigma_x, w, atol=1e-12)
    assert np.array_equal(out.sigma_r, u)


def test_sigma_update_clamps_initial_gradient(quad):
    problem = case_problem(2, 16, quad)
    g = problem.grid
    a_phi = SigmaVars(np.zeros((g.N_T, g.N_X)),
                      np.zeros((1, g.N_T, g.N_X)),
                      np.full((1, g.N_X), 0.7))
    out = sigma_update(problem, a_phi, SigmaVars.zeros(g), out=SigmaVars.zeros(g),
                       **projection_scratch((g.N_T, g.N_X)))
    assert np.allclose(out.sigma_r, problem.R)  # 0.7 clipped to R = 0.5


def test_sigma_update_clamps_as_np_clip_bitwise(quad):
    problem = case_problem(2, 16, quad)
    g = problem.grid
    special = [np.nan, -0.0, 0.0, np.inf, -np.inf, problem.R, -problem.R, 5e-324, -1e-300]
    rng = np.random.default_rng(36)
    z_r = np.concatenate([special, rng.uniform(-1.0, 1.0, g.N_X - len(special))])
    a_phi = SigmaVars(np.zeros((g.N_T, g.N_X)), np.zeros((1, g.N_T, g.N_X)),
                      z_r.reshape(1, g.N_X).copy())
    # adding Y = -0.0 leaves every bit of Z = A Phi + Y, -0.0 included
    y = SigmaVars.zeros(g)
    y.sigma_r[...] = -0.0
    out = sigma_update(problem, a_phi, y, out=SigmaVars.zeros(g),
                       **projection_scratch((g.N_T, g.N_X)))
    assert a_phi.sigma_r.tobytes() == z_r.tobytes()
    want = np.clip(z_r, -problem.R, problem.R).reshape(1, g.N_X)
    assert out.sigma_r.tobytes() == want.tobytes()


def random_sigma(g, rng):
    return SigmaVars(rng.standard_normal((g.N_T, g.N_X)),
                     rng.standard_normal((1, g.N_T, g.N_X)),
                     rng.standard_normal((1, g.N_X)))


def test_sigma_update_delegates_to_projection(quad):
    problem = case_problem(2, 16, quad)
    g = problem.grid
    rng = np.random.default_rng(35)
    a_phi, y = (random_sigma(g, rng) for _ in range(2))
    z_ref = a_phi.flat + y.flat
    out = sigma_update(problem, a_phi, y, out=SigmaVars.zeros(g),
                       **projection_scratch((g.N_T, g.N_X)))
    assert np.array_equal(a_phi.flat, z_ref)  # Z = A Phi + Y, in place of A Phi
    s_ref, w_ref = project(quad, a_phi.sigma_t, a_phi.sigma_x)
    assert np.array_equal(out.sigma_t, s_ref)
    assert np.array_equal(out.sigma_x, w_ref)
    assert np.array_equal(out.sigma_r, np.clip(a_phi.sigma_r, -problem.R, problem.R))
    assert np.max(np.abs(out.sigma_r)) <= problem.R


def test_lambda_update_arithmetic(quad):
    problem = case_problem(2, 16, quad)
    g = problem.grid
    rng = np.random.default_rng(36)
    z, sigma, y = (random_sigma(g, rng) for _ in range(3))
    z_in, y_in = z.flat.copy(), y.flat.copy()
    assert lambda_update(z, sigma, y) is z
    assert np.array_equal(z.flat, z_in - sigma.flat)  # Y_{k+1} = Z - Sigma
    assert np.array_equal(y.flat, y_in - z.flat)  # Y_k - Y_{k+1}
    # Z = Sigma fixes Y at zero, and Y_k - Y_{k+1} = Y_k
    z, y = SigmaVars(*sigma.parts()), SigmaVars(*sigma.parts())
    lambda_update(z, sigma, y)
    assert np.max(np.abs(z.flat)) == 0.0
    assert np.array_equal(y.flat, sigma.flat)


@pytest.mark.parametrize("case_id", [1, 2, 3])
def test_dual_residual_is_the_equality_residual_of_lambda(quad, case_id):
    # the Phi-step's optimality gives A^T Lambda_{k+1} - F_D =
    # r A^T(Sigma_k - Sigma_{k+1}), whose norm step() returns as the dual residual
    problem = case_problem(case_id, 16, quad)
    stepper = Stepper(problem, AdmmConfig().r)
    for _ in range(300):
        primal, dual = stepper.step()
        residual = problem.operator.matrix.T @ stepper.lam.flat - problem.objective_data.ravel()
        assert np.linalg.norm(residual) == pytest.approx(dual, rel=1e-6)
        stepper.balance(primal, dual)


def unscaled_iteration(problem, r: float):
    """The textbook ADMM iteration with the unscaled multiplier Lambda, one
    dense-vector step at a time: yields (Phi, Lambda, r) after each step."""
    g, A, cost = problem.grid, problem.operator.matrix, problem.cost
    solver = SpectralPhiSolver(g)
    shape = problem.objective_data.shape
    f_d = problem.objective_data.ravel()
    lam, sigma = np.zeros(A.shape[0]), np.zeros(A.shape[0])
    while True:
        rhs = (f_d - A.T @ lam + r * (A.T @ sigma)) / r
        phi = solver.solve(rhs.reshape(shape), out=np.empty(shape))
        a_phi = A @ phi.ravel()
        v = SigmaVars.zeros(g)
        v.flat[:] = a_phi + lam / r
        s, w = project(cost, v.sigma_t, v.sigma_x)
        sigma = np.concatenate([s.ravel(), w.ravel(),
                                np.clip(v.sigma_r, -problem.R, problem.R).ravel()])
        lam = lam + r * (a_phi - sigma)
        yield phi, lam, r
        primal, dual = np.linalg.norm(a_phi - sigma), np.linalg.norm(f_d - A.T @ lam)
        if primal > BALANCE_RATIO * dual:
            r *= 2.0
        elif dual > BALANCE_RATIO * primal:
            r /= 2.0


@pytest.mark.parametrize("case_id", [1, 2, 3])
def test_stepper_follows_the_unscaled_iteration(quad, case_id):
    # the scaled form regroups the same arithmetic: Phi and Lambda = r Y stay
    # within rounding of the textbook loop, and r takes the same values
    problem = case_problem(case_id, 16, quad)
    stepper = Stepper(problem, AdmmConfig().r)
    reference = unscaled_iteration(problem, AdmmConfig().r)
    changes = 0
    for _ in range(300):
        r = stepper.r
        primal, dual = stepper.step()
        phi_ref, lam_ref, r_ref = next(reference)
        assert r == r_ref
        assert np.max(np.abs(stepper.phi - phi_ref)) <= 1e-12 * np.max(np.abs(phi_ref))
        lam = stepper.lam.flat
        assert np.max(np.abs(lam - lam_ref)) <= 1e-12 * np.max(np.abs(lam_ref))
        stepper.balance(primal, dual)
        changes += stepper.r != r
    assert changes > 0


def test_balance_rescales_without_changing_lambda(quad):
    problem = case_problem(2, 16, quad)
    stepper = Stepper(problem, 0.3)
    for _ in range(20):
        stepper.step()
    lam, h, r = stepper.lam.flat.copy(), stepper.h.copy(), stepper.r
    for primal, dual, factor in ((1.0, 0.01, 2.0), (0.01, 1.0, 0.5), (1.0, 0.01, 2.0)):
        stepper.balance(primal, dual)
        assert stepper.r == r * factor
        assert np.array_equal(stepper.lam.flat, lam)  # Lambda = r Y, every bit
        assert np.array_equal(stepper.r * stepper.h, r * h)  # F_D - A^T Lambda = r h
        r, h = stepper.r, stepper.h.copy()
    stepper.balance(1.0, 1.0)
    assert stepper.r == r and np.array_equal(stepper.lam.flat, lam)


def test_carried_dual_residual_does_not_drift_over_a_full_solve(quad):
    # step() carries F_D - A^T Lambda by a recurrence, refreshed every
    # REFRESH_INTERVAL steps; over the 3788 steps of case 2 at N = 32 its norm
    # stayed within 2.0e-11 relative of the exact one (9.5e-9 never refreshed)
    problem = case_problem(2, 32, quad)
    config = AdmmConfig()
    stepper = Stepper(problem, config.r)
    for _ in range(config.max_iters):
        primal, dual = stepper.step()
        exact = np.linalg.norm(problem.operator.matrix.T @ stepper.lam.flat
                               - problem.objective_data.ravel())
        assert abs(dual - exact) <= 1e-9 * exact
        if primal <= config.stop_tol and dual <= config.stop_tol:
            break
        stepper.balance(primal, dual)
    else:
        pytest.fail("case 2 at N = 32 did not converge")


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
    stepper = Stepper(problem, AdmmConfig().r)
    for _ in range(cap):
        stepper.step()
    sig = stepper.sigma
    hj = sig.sigma_t + np.asarray(problem.cost.eval_H(sig.sigma_x))
    assert float(np.max(hj)) <= 1e-12
    assert float(np.max(np.abs(sig.sigma_r))) <= problem.R + 1e-12


def test_solve_leaves_the_cost_model_without_state():
    # the projection's scratch belongs to the solve, not to the model
    problem = uniform_problem(8, QuadraticCost())
    solve(problem)
    assert vars(problem.cost) == {}


def test_solve_is_deterministic(quad):
    problem = case_problem(1, 16, quad)
    phi1, lam1, s1 = solve(problem)
    phi2, lam2, s2 = solve(problem)
    assert np.array_equal(phi1, phi2)
    assert np.array_equal(lam1.flat, lam2.flat)
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
    assert state.primal_res <= 1e-5
    assert state.dual_res <= 1e-5


def test_duality_gap_small_at_convergence(case2_n16, case3_n16):
    for out in (case2_n16, case3_n16):
        assert out.record.duality_gap <= 10 * 1e-5 * (1.0 + abs(out.record.K_D))


def test_mass_stays_nearly_nonnegative(case2_n16):
    assert float(np.min(case2_n16.lam.lambda_rho)) >= -1e-4


def test_tighter_tolerance_needs_more_iterations(quad):
    # the trajectory is tolerance-independent, so iteration counts are
    # monotone in stop_tol; the tradeoff is recorded here, not bounded
    problem = case_problem(2, 16, quad)
    loose_phi, loose_lam, loose = solve(problem, AdmmConfig(stop_tol=1e-3))
    _, _, tight = solve(problem, AdmmConfig(stop_tol=1e-5))
    assert loose.iters <= tight.iters
    # the tight solve, cut at the loose one's count, returns the loose answer
    with pytest.warns(UserWarning, match="did not converge"):
        phi, lam, capped = solve(problem, AdmmConfig(stop_tol=1e-5, max_iters=loose.iters))
    assert np.array_equal(phi, loose_phi) and np.array_equal(lam.flat, loose_lam.flat)
    assert (capped.primal_res, capped.dual_res) == (loose.primal_res, loose.dual_res)
    assert capped.r_final == loose.r_final
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
    assert not math.isfinite(state.primal_res)


def test_solve_stops_when_the_projection_overflows(quad):
    # r = 1e-300 makes |w|^2/2 overflow in the first projection, whose
    # cells then come back NaN instead of failing the bisection
    problem = case_problem(2, 16, quad)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.warns(UserWarning, match="non-finite"):
        _, _, state = solve(problem, AdmmConfig(r=1e-300))
    assert state.stop_reason == "non_finite" and state.iters == 1


def test_stop_reason_names_convergence_and_the_cap(quad):
    problem = case_problem(2, 16, quad)
    _, _, done = solve(problem)
    assert done.converged and done.stop_reason == "converged"
    with pytest.warns(UserWarning, match="did not converge"):
        _, _, capped = solve(problem, AdmmConfig(max_iters=3))
    assert capped.stop_reason == "max_iters"
    assert capped.iters == 3 and not capped.converged
    assert isinstance(capped.primal_res, float) and isinstance(capped.dual_res, float)


def test_stepper_h_has_a_buffer_of_its_own(quad):
    stepper = Stepper(case_problem(2, 16, quad), AdmmConfig().r)
    for _ in range(3):  # the row-space buffers take turns
        for buffer in (stepper.y, stepper._free):
            assert not np.shares_memory(stepper.h, buffer.flat)
        stepper.step()

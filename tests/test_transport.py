import math

import numpy as np
import pytest

from hjot.grid import GridSpec, make_grid
from hjot.measures import DiscreteMeasure, build_test_case, project_measure
from hjot.transport import (
    ConstraintOperator,
    PrimalVars,
    SigmaVars,
    assemble_problem,
    objective_FD,
    primal_objective,
    recover_velocity,
    support_threshold,
)
from tests.conftest import (dense_constraint_matrix, flatten_primal, flatten_sigma, stencil_apply,
                            stencil_apply_transpose)


@pytest.fixture
def tiny_problem(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    mu, nu, _ = build_test_case(2)
    return assemble_problem(g, quad, project_measure(mu, g), project_measure(nu, g))


def test_apply_kills_constants(tiny_problem):
    g = tiny_problem.grid
    sig = tiny_problem.operator.apply(np.full((g.N_T + 1,) + g.space_shape, 2.5))
    assert np.max(np.abs(sig.sigma_t)) == 0.0
    assert np.max(np.abs(sig.sigma_x)) == 0.0
    assert np.max(np.abs(sig.sigma_r)) == 0.0


def test_apply_on_linear_in_time(tiny_problem):
    # Phi(i, .) = -c * t_i has time part -c and no spatial parts
    g = tiny_problem.grid
    c = 0.8
    phi = np.tile((-c * g.times())[:, None], (1, g.N_X))
    sig = tiny_problem.operator.apply(phi)
    assert np.allclose(sig.sigma_t, -c, atol=1e-14)
    assert np.max(np.abs(sig.sigma_x)) == 0.0
    assert np.max(np.abs(sig.sigma_r)) == 0.0


def test_apply_validates_shape(tiny_problem):
    g = tiny_problem.grid
    with pytest.raises(ValueError):
        tiny_problem.operator.apply(np.zeros((g.N_T,) + g.space_shape))


# N_X <= 2 puts both periodic neighbours of a cell on one cell, whose
# entries must then add up; d = 1 is checked against the dense index
# formulas, d = 2 against the stencils composed slice by slice
OPERATOR_GRIDS = pytest.mark.parametrize(
    "d, n_t, n_x", [(d, n_t, n_x) for d in (1, 2) for n_t in (1, 2) for n_x in (1, 2, 3, 4, 7)])


@OPERATOR_GRIDS
def test_operator_matches_dense_matrix(d, n_t, n_x):
    g = GridSpec(d=d, D=1.0, N_T=n_t, N_X=n_x, eps=0.05, R=0.5)
    op = ConstraintOperator(g)
    A = dense_constraint_matrix(g) if d == 1 else None
    rng = np.random.default_rng(17)
    for _ in range(20):
        phi = rng.standard_normal((g.N_T + 1,) + g.space_shape)
        ref = A @ phi.ravel() if d == 1 else stencil_apply(g, phi)
        assert np.max(np.abs(ref - flatten_sigma(op.apply(phi)))) <= 1e-12


@OPERATOR_GRIDS
def test_transpose_matches_dense_matrix(d, n_t, n_x):
    g = GridSpec(d=d, D=1.0, N_T=n_t, N_X=n_x, eps=0.05, R=0.5)
    op = ConstraintOperator(g)
    A = dense_constraint_matrix(g) if d == 1 else None
    rng = np.random.default_rng(18)
    for _ in range(20):
        lam = PrimalVars(
            lambda_rho=rng.standard_normal((g.N_T,) + g.space_shape),
            lambda_m=rng.standard_normal((d, g.N_T) + g.space_shape),
            lambda_eta=rng.standard_normal((d,) + g.space_shape),
        )
        ref = A.T @ flatten_primal(lam) if d == 1 else stencil_apply_transpose(g, lam).ravel()
        assert np.max(np.abs(ref - op.apply_transpose(lam).ravel())) <= 1e-12


def test_products_are_the_sparse_matrix_products():
    # apply and apply_transpose call the kernels of A @ x and A.T @ y
    g = GridSpec(d=2, D=1.0, N_T=3, N_X=5, eps=0.05, R=0.5)
    op = ConstraintOperator(g)
    rng = np.random.default_rng(19)
    phi = rng.standard_normal((g.N_T + 1,) + g.space_shape)
    lam = PrimalVars(rng.standard_normal((g.N_T,) + g.space_shape),
                     rng.standard_normal((g.d, g.N_T) + g.space_shape),
                     rng.standard_normal((g.d,) + g.space_shape))
    assert np.array_equal(op.apply(phi).flat, op.matrix @ phi.ravel())
    assert np.array_equal(op.apply_transpose(lam).ravel(), op.matrix.T @ lam.flat)
    assert op.matrix.indices.dtype == op.matrix.indptr.dtype == np.int32


@pytest.mark.parametrize("n_x", [3, 4, 8])
@pytest.mark.parametrize("d", [1, 2])
def test_adjoint_identity_random(d, n_x):
    # <A phi, lam> == <phi, A^T lam>, the one adjoint there is, in d = 1 and 2
    g = GridSpec(d=d, D=1.0, N_T=4, N_X=n_x, eps=0.0625, R=0.5)
    op = ConstraintOperator(g)
    rng = np.random.default_rng(10 * d + n_x)
    for _ in range(10):
        phi = rng.standard_normal((g.N_T + 1,) + g.space_shape)
        lam = PrimalVars(
            lambda_rho=rng.standard_normal((g.N_T,) + g.space_shape),
            lambda_m=rng.standard_normal((g.d, g.N_T) + g.space_shape),
            lambda_eta=rng.standard_normal((g.d,) + g.space_shape),
        )
        lhs = float(flatten_sigma(op.apply(phi)) @ flatten_primal(lam))
        rhs = float(phi.ravel() @ op.apply_transpose(lam).ravel())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_assemble_validates_measures(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    good = DiscreteMeasure(np.full(16, 1.0 / 16))
    bad = DiscreteMeasure(np.full(8, 1.0 / 8))
    with pytest.raises(ValueError):
        assemble_problem(g, quad, good, bad)


def test_objective_data_is_gradient_of_objective(tiny_problem):
    # F_D is linear, so F_D(phi) = <objective_data, phi>
    g = tiny_problem.grid
    rng = np.random.default_rng(23)
    phi = rng.standard_normal((g.N_T + 1, g.N_X))
    fd = objective_FD(phi, tiny_problem.pi_mu, tiny_problem.pi_nu)
    assert fd == pytest.approx(float(np.sum(tiny_problem.objective_data * phi)), abs=1e-12)


def test_objective_fd_values(tiny_problem):
    g = tiny_problem.grid
    shape = (g.N_T + 1, g.N_X)
    assert objective_FD(np.full(shape, 3.0), tiny_problem.pi_mu, tiny_problem.pi_nu) \
        == pytest.approx(0.0, abs=1e-12)  # equal masses cancel
    phi = np.zeros(shape)
    j = int(np.argmax(tiny_problem.pi_nu.weights))
    phi[-1, j] = 1.0
    assert objective_FD(phi, tiny_problem.pi_mu, tiny_problem.pi_nu) \
        == pytest.approx(float(tiny_problem.pi_nu.weights[j]))


def test_objective_fd_linear(tiny_problem):
    g = tiny_problem.grid
    rng = np.random.default_rng(29)
    f = lambda p: objective_FD(p, tiny_problem.pi_mu, tiny_problem.pi_nu)
    p1 = rng.standard_normal((g.N_T + 1, g.N_X))
    p2 = rng.standard_normal((g.N_T + 1, g.N_X))
    assert f(2.0 * p1 - 3.0 * p2) == pytest.approx(2.0 * f(p1) - 3.0 * f(p2), abs=1e-12)


def zeros_lam(g):
    return PrimalVars.zeros(g)


def test_primal_objective_zero(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    assert primal_objective(zeros_lam(g), g.R, quad) == 0.0


def test_primal_objective_single_cell(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    lam = zeros_lam(g)
    lam.lambda_rho[2, 3] = 2.0
    lam.lambda_m[0, 2, 3] = 3.0
    assert primal_objective(lam, g.R, quad) == pytest.approx(2.25)


def test_primal_objective_eta_term(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    lam = zeros_lam(g)
    lam.lambda_eta[0, 5] = 0.3
    lam.lambda_eta[0, 7] = -0.1
    assert primal_objective(lam, g.R, quad) == pytest.approx(g.R * 0.4)


def test_primal_objective_orphan_momentum_is_infinite(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    lam = zeros_lam(g)
    lam.lambda_m[0, 1, 1] = 0.5
    assert primal_objective(lam, g.R, quad) == math.inf


def test_primal_objective_rejects_negative_mass(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    lam = zeros_lam(g)
    lam.lambda_rho[0, 0] = -1.0
    with pytest.raises(ValueError):
        primal_objective(lam, g.R, quad)


def test_support_threshold_scales_with_mass(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    lam = zeros_lam(g)
    assert support_threshold(lam) == 0.0
    lam.lambda_rho[0, 0] = 2.0
    assert support_threshold(lam) == pytest.approx(2e-10)


def test_recover_velocity_basics(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    lam = zeros_lam(g)
    v = recover_velocity(lam)
    assert v.shape == (1, 16, 16)
    assert np.max(np.abs(v)) == 0.0
    lam.lambda_rho[4, 9] = 0.5
    lam.lambda_m[0, 4, 9] = 0.2
    lam.lambda_m[0, 0, 0] = 1e-14  # orphan momentum stays out of V
    v = recover_velocity(lam)
    assert v[0, 4, 9] == pytest.approx(0.4)
    assert v[0, 0, 0] == 0.0


def test_converged_solution_nearly_feasible(case2_n16):
    # violations scale with the ADMM stopping tolerance (1e-5)
    problem = case2_n16.problem
    sig = problem.operator.apply(case2_n16.phi)
    hj_violation = float(np.max(sig.sigma_t + problem.cost.eval_H(sig.sigma_x)))
    # the clamp constraint is componentwise: |(A_R Phi)_k| <= R for every axis
    clamp_violation = float(np.max(np.abs(sig.sigma_r))) - problem.R
    assert hj_violation <= 1e-4
    assert clamp_violation <= 1e-4


def test_weak_duality_on_solution(case2_n16):
    out = case2_n16
    problem = out.problem
    K_D = primal_objective(out.lam, problem.R, problem.cost)
    gap = K_D - objective_FD(out.phi, problem.pi_mu, problem.pi_nu)
    assert gap >= -1e-6
    # doubling a feasible-side potential can only widen the measured gap
    worse = K_D - objective_FD(0.5 * out.phi, problem.pi_mu, problem.pi_nu)
    assert worse >= gap - 1e-10


def test_mass_conservation_on_solution(case2_n16):
    g = case2_n16.problem.grid
    slice_mass = case2_n16.lam.lambda_rho.reshape(g.N_T, -1).sum(axis=1) / g.dt
    assert np.allclose(slice_mass, 1.0, atol=1e-4)


def test_optimality_relation_on_support(case2_n16):
    # V = grad H(grad Phi) = grad Phi for the quadratic cost where the mass
    # sits, up to solver tolerance
    out = case2_n16
    g = out.problem.grid
    v = recover_velocity(out.lam)
    from hjot.grid import centered_gradient
    grads = np.stack([centered_gradient(out.phi[i], g) for i in range(g.N_T)], axis=1)
    heavy = out.lam.lambda_rho > 0.1 * np.max(out.lam.lambda_rho)
    mism = np.sqrt(np.sum((v - grads) ** 2, axis=0))
    assert float(np.max(mism[heavy])) <= 1e-2


def test_case3_velocity_field(case3_n16):
    # mass moves outward at speed s = 0.45 on both sides of the origin
    out = case3_n16
    g = out.problem.grid
    v = recover_velocity(out.lam)
    rho = out.lam.lambda_rho
    heavy = rho > 0.25 * np.max(rho)
    mid = g.N_T // 2
    xs = g.spatial_nodes()
    for j in range(g.N_X):
        if heavy[mid, j] and xs[j] not in (0.0, 0.5):
            side = 1.0 if xs[j] < 0.5 else -1.0
            assert v[0, mid, j] == pytest.approx(0.45 * side, abs=0.1)


@pytest.mark.parametrize("d, n", [(1, 4), (1, 7), (2, 4)])
def test_operator_out_buffers_match_allocating_form(d, n):
    g = GridSpec(d=d, D=1.0, N_T=3, N_X=n, eps=0.05, R=0.5)
    op = ConstraintOperator(g)
    rng = np.random.default_rng(37 + d + n)
    sp = g.space_shape
    phi = rng.standard_normal((g.N_T + 1,) + sp)
    lam = PrimalVars(rng.standard_normal((g.N_T,) + sp),
                     rng.standard_normal((d, g.N_T) + sp),
                     rng.standard_normal((d,) + sp))
    sig = op.apply(phi)
    nan = SigmaVars(*(np.full_like(x, np.nan) for x in sig.parts()))
    assert op.apply(phi, out=nan) is nan
    for got, want in zip(nan.parts(), sig.parts()):
        assert np.array_equal(got, want)
    adj = op.apply_transpose(lam)
    buf = np.full_like(adj, np.nan)
    assert op.apply_transpose(lam, out=buf) is buf
    assert np.array_equal(buf, adj)


@pytest.mark.parametrize("factor", [2.0, 1.001])
def test_assemble_rejects_unequal_masses(quad, factor):
    g = make_grid(1, 1.0, 16, 16, quad)
    mu = DiscreteMeasure(np.full(16, 1.0 / 16))
    nu = DiscreteMeasure(factor * mu.weights)
    with pytest.raises(ValueError, match="unequal mass") as exc:
        assemble_problem(g, quad, mu, nu)
    assert repr(mu.mass) in str(exc.value) and repr(nu.mass) in str(exc.value)


def test_discrete_measure_rejects_non_finite_weights():
    w = np.full(16, 1.0 / 16)
    for bad in (np.nan, np.inf):
        w[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DiscreteMeasure(w.copy())

"""Shared fixtures and reference constructions of the constraint operator.

The dense matrix here is assembled entry by entry from the index formulas,
independently of the library's stencil code, so it can serve as an oracle
for the operator tests in d = 1. In any d, stencil_apply and
stencil_apply_transpose compose A and its adjoint from the grid stencils,
slice by slice, as a reference for the library's sparse matrix.

The ADMM loop kernels (ConstraintOperator.apply and apply_transpose, and
project_onto_K) write into buffers their caller passes; apply,
apply_transpose and project call them with new ones, and projection_scratch
allocates the scratch that project_onto_K and sigma_update take.
"""
import numpy as np
import pytest

from hjot.bench import solve_instance
from hjot.cost import QuadraticCost
from hjot.grid import (backward_diff, centered_diff, centered_gradient, discrete_laplacian,
                       forward_diff)
from hjot.transport import SigmaVars


@pytest.fixture(scope="session")
def quad():
    return QuadraticCost()


def dense_constraint_matrix(grid) -> np.ndarray:
    """Dense rows of A = (A_t, A_x, A_R) for d=1.

    Unknown ordering: phi(i, j) at flat index i*N_X + j. Row blocks in the
    order sigma_t (N_T*N_X), sigma_x (N_T*N_X), sigma_r (N_X).
    """
    assert grid.d == 1
    n, m = grid.N_X, grid.N_T
    dt, dx, eps = grid.dt, grid.dx, grid.eps

    def idx(i, j):
        return i * n + j % n

    rows = []
    for i in range(m):
        for j in range(n):
            row = np.zeros((m + 1) * n)
            row[idx(i + 1, j)] += 1.0 / dt
            row[idx(i, j)] -= 1.0 / dt
            # viscosity acts on the old slice
            row[idx(i, j + 1)] -= eps / dx ** 2
            row[idx(i, j - 1)] -= eps / dx ** 2
            row[idx(i, j)] += 2.0 * eps / dx ** 2
            rows.append(row)
    for i in range(m):
        for j in range(n):
            row = np.zeros((m + 1) * n)
            row[idx(i, j + 1)] += 0.5 / dx
            row[idx(i, j - 1)] -= 0.5 / dx
            rows.append(row)
    for j in range(n):
        row = np.zeros((m + 1) * n)
        row[idx(0, j + 1)] += 1.0 / dx
        row[idx(0, j)] -= 1.0 / dx
        rows.append(row)
    return np.array(rows)


def stencil_apply(grid, phi) -> np.ndarray:
    """A phi from the stencils, flattened as flatten_sigma orders it."""
    old = phi[:-1]
    sigma_t = (phi[1:] - old) / grid.dt - grid.eps * discrete_laplacian(old, grid)
    sigma_x = centered_gradient(old, grid)
    sigma_r = np.stack([forward_diff(phi[0], grid, k) for k in range(grid.d)]) / grid.dx
    return np.concatenate([sigma_t.ravel(), sigma_x.ravel(), sigma_r.ravel()])


def stencil_apply_transpose(grid, lam) -> np.ndarray:
    """A^T lam from the adjoints of the stencils, as a Q_D field."""
    rho, m, eta = lam.lambda_rho, lam.lambda_m, lam.lambda_eta
    rate = rho / grid.dt
    out = np.zeros((grid.N_T + 1,) + grid.space_shape)
    # A_t^T: the adjoint of the time quotient plus the (self-adjoint)
    # viscosity term acting on the old slice
    out[:-1] -= rate + grid.eps * discrete_laplacian(rho, grid)
    out[1:] += rate
    # A_x^T: the centered gradient is skew-adjoint per component
    for k in range(grid.d):
        out[:-1] -= centered_diff(m[k], grid, k)
    # A_R^T: adjoint of the forward quotient on the initial slice
    for k in range(grid.d):
        out[0] -= backward_diff(eta[k], grid, k) / grid.dx
    return out


def apply(op, phi) -> SigmaVars:
    """A phi by ConstraintOperator.apply, into a new SigmaVars."""
    return op.apply(phi, out=SigmaVars.zeros(op.grid))


def apply_transpose(op, lam) -> np.ndarray:
    """A^T lam by ConstraintOperator.apply_transpose, into a new Q_D array."""
    return op.apply_transpose(lam, out=np.empty((op.grid.N_T + 1,) + op.grid.space_shape))


def projection_scratch(shape) -> dict:
    """New work and mask keywords of project_onto_K for arrays a of this shape."""
    return dict(work=tuple(np.empty(shape) for _ in range(6)),
                mask=np.empty(shape, dtype=bool))


def project(cost, a, b) -> tuple[np.ndarray, np.ndarray]:
    """cost.project_onto_K(a, b) into new float arrays shaped like a and b."""
    return cost.project_onto_K(a, b, out=(np.empty(np.shape(a)), np.empty(np.shape(b))),
                               **projection_scratch(np.shape(a)))


def flatten_sigma(sig) -> np.ndarray:
    return np.concatenate([sig.sigma_t.ravel(), sig.sigma_x.ravel(),
                           sig.sigma_r.ravel()])


def flatten_primal(lam) -> np.ndarray:
    return np.concatenate([lam.lambda_rho.ravel(), lam.lambda_m.ravel(),
                           lam.lambda_eta.ravel()])


@pytest.fixture(scope="session")
def case2_n16():
    """Converged solve of the triangle-splitting case at the coarsest mesh."""
    return solve_instance(2, 16)


@pytest.fixture(scope="session")
def case3_n16():
    return solve_instance(3, 16)

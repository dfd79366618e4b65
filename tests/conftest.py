"""Shared fixtures and reference constructions of the constraint operator.

The dense matrix here is assembled entry by entry from the index formulas,
independently of the library's stencil code, so it can serve as an oracle
for the operator tests in d = 1. In any d, stencil_apply and
stencil_apply_transpose compose A and its adjoint from np.roll forms of the
difference formulas, not from the grid stencils that build A, as a
reference for the library's sparse matrix.

The ADMM loop kernels (ConstraintOperator.apply and apply_transpose, and
project_onto_K) write into buffers their caller passes; apply,
apply_transpose and project call them with new ones, and projection_scratch
allocates the scratch that project_onto_K and sigma_update take.
"""
import numpy as np
import pytest

from hjot.bench import solve_instance
from hjot.cost import QuadraticCost
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


def _fwd(psi, ax):
    return np.roll(psi, -1, axis=ax) - psi


def _bwd(psi, ax):
    return psi - np.roll(psi, 1, axis=ax)


def _centered(psi, ax, grid):
    return (_bwd(psi, ax) + _fwd(psi, ax)) / (2.0 * grid.dx)


def _laplacian(psi, grid):
    return sum(_fwd(psi, ax) - _bwd(psi, ax) for ax in range(-grid.d, 0)) / grid.dx ** 2


def stencil_apply(grid, phi) -> np.ndarray:
    """A phi from the difference formulas, flattened as flatten_sigma orders it."""
    old, axes = phi[:-1], range(-grid.d, 0)
    sigma_t = (phi[1:] - old) / grid.dt - grid.eps * _laplacian(old, grid)
    sigma_x = np.stack([_centered(old, ax, grid) for ax in axes])
    sigma_r = np.stack([_fwd(phi[0], ax) for ax in axes]) / grid.dx
    return np.concatenate([sigma_t.ravel(), sigma_x.ravel(), sigma_r.ravel()])


def stencil_apply_transpose(grid, lam) -> np.ndarray:
    """A^T lam from the adjoints of the difference formulas, as a Q_D field."""
    rho, m, eta = lam.lambda_rho, lam.lambda_m, lam.lambda_eta
    rate = rho / grid.dt
    out = np.zeros((grid.N_T + 1,) + grid.space_shape)
    # A_t^T: the adjoint of the time quotient plus the (self-adjoint)
    # viscosity term acting on the old slice
    out[:-1] -= rate + grid.eps * _laplacian(rho, grid)
    out[1:] += rate
    for k, ax in enumerate(range(-grid.d, 0)):
        # A_x^T: the centered difference is skew-adjoint
        out[:-1] -= _centered(m[k], ax, grid)
        # A_R^T: the adjoint of the forward difference is minus the backward one
        out[0] -= _bwd(eta[k], ax) / grid.dx
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

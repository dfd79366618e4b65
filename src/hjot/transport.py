"""Discrete dynamic optimal transport: constraint operator, objectives, duality.

The dual problem maximizes

    F_D(Phi) = sum Phi^{N_T} d(pi_nu) - sum Phi^0 d(pi_mu)

over potentials Phi on Q_D subject to the linearized scheme constraint
A_t Phi + H(A_x Phi) <= 0 on Q'_D and the slope clamp |A_R Phi| <= R on
the initial slice, where

    A_t Phi(i) = (Phi^{i+1} - Phi^i)/dt - eps lap_D Phi^i     (i < N_T)
    A_x Phi(i) = grad_D Phi^i
    A_R Phi    = fwd_D Phi^0 / dx.

The primal problem minimizes the kinetic action
sum L(lam_m/lam_rho) lam_rho + R |lam_eta|_L1 over multipliers with
A^T lam = F_D, lam_rho >= 0. Strong duality holds; at the optimum the
velocity is recovered as V = lam_m / lam_rho on the support of lam_rho.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .cost import CostModel
from .grid import GridSpec, centered_diff, discrete_laplacian, forward_diff
from .measures import DiscreteMeasure


class _RowVector:
    """Three fields of A's row space, held as reshaped views of one flat
    buffer, ``flat``, in field order: the order of A's row blocks.

    Construction copies the given arrays into a new buffer and rebinds each
    field to its view, so whole-vector steps are one ufunc on ``flat``. A
    field rebound later to another array no longer shares ``flat``.
    """

    def __post_init__(self) -> None:
        parts = self.parts()
        self.flat = np.concatenate([np.ravel(x) for x in parts], dtype=float)
        start = 0
        for f, x in zip(fields(self), parts):
            setattr(self, f.name, self.flat[start:start + x.size].reshape(x.shape))
            start += x.size

    def parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def zeros(cls, grid: GridSpec):
        sp = grid.space_shape
        return cls(np.zeros((grid.N_T,) + sp), np.zeros((grid.d, grid.N_T) + sp),
                   np.zeros((grid.d,) + sp))


@dataclass
class SigmaVars(_RowVector):
    """Split variables mirroring (A_t Phi, A_x Phi, A_R Phi).

    sigma_t: (N_T, *spatial); sigma_x: (d, N_T, *spatial);
    sigma_r: (d, *spatial).
    """

    sigma_t: np.ndarray
    sigma_x: np.ndarray
    sigma_r: np.ndarray


@dataclass
class PrimalVars(_RowVector):
    """Multipliers (mass, momentum, clamp) of the primal problem.

    lambda_rho: (N_T, *spatial); lambda_m: (d, N_T, *spatial);
    lambda_eta: (d, *spatial). Slices of lambda_rho carry mass dt each
    (the time-integrated convention), so lambda_rho/dt is a probability
    weight vector per slice at optimality.
    """

    lambda_rho: np.ndarray
    lambda_m: np.ndarray
    lambda_eta: np.ndarray


def _stencil_row(stencil, grid: GridSpec) -> list[tuple[int, float]]:
    """(offset, weight) of each entry of a row of the periodic stencil's
    matrix on one axis, backward neighbours first.

    The stencil applied to the unit vector e_0 of the axis is column 0 of
    its matrix: row i weighs cell 0, which lies -i cells ahead of it (mod
    N_X). Neighbours that coincide (N_X <= 2) come out summed.
    """
    n = grid.N_X
    unit = np.zeros(n)
    unit[0] = 1.0
    column = stencil(unit, replace(grid, d=1))
    row = [(-int(i) % n, column[i]) for i in np.flatnonzero(column)]
    return sorted(row, key=lambda entry: entry[0] - n * (2 * entry[0] > n))


def constraint_matrix(grid: GridSpec) -> csr_array:
    """A = (A_t, A_x, A_R) as one CSR matrix, written into its final arrays.

    Columns follow a Q_D potential in C order; rows follow the flat buffer
    of SigmaVars. Every row of a block holds one entry per stencil term,
    so a row of A_t names its diagonal d + 1 times; products sum such
    entries.
    """
    S = int(np.prod(grid.space_shape))
    cells = np.arange(S).reshape(grid.space_shape)
    lap, cen, fwd = (_stencil_row(f, grid) for f in
                     (discrete_laplacian, centered_diff, forward_diff))
    # blocks of rows: (first column of each group of S rows, the (time step,
    # axis, offset, weight) of each entry of a row). The time quotient's two
    # entries come last and next to each other, so a constant potential
    # maps to exactly zero.
    slices, axes = np.arange(grid.N_T) * S, range(grid.d)
    time_terms = [(0, k, o, -grid.eps * w) for k in axes for o, w in lap]
    time_terms += [(0, 0, 0, -1.0 / grid.dt), (1, 0, 0, 1.0 / grid.dt)]
    blocks = [(slices, time_terms)]
    blocks += [(slices, [(0, k, o, w) for o, w in cen]) for k in axes]
    blocks += [(np.zeros(1, int), [(0, k, o, w / grid.dx) for o, w in fwd]) for k in axes]

    n_rows = sum(len(lead) * S for lead, _ in blocks)
    nnz = sum(len(lead) * S * len(terms) for lead, terms in blocks)
    index = np.int32 if max(nnz, (grid.N_T + 1) * S) < 2 ** 31 else np.int64
    indptr = np.zeros(n_rows + 1, index)
    indices = np.empty(nnz, index)
    data = np.empty(nnz)
    row = pos = 0
    for lead, row_terms in blocks:
        count, width = len(lead) * S, len(row_terms)
        cols = indices[pos:pos + count * width].reshape(len(lead), S, width)
        vals = data[pos:pos + count * width].reshape(count, width)
        for t, (step, k, o, weight) in enumerate(row_terms):
            # the cell o steps ahead along axis k, in the slice step ahead
            ahead = np.roll(cells, -o, axis=k).ravel()
            np.add((lead + step * S)[:, None], ahead, out=cols[:, :, t])
            vals[:, t] = weight
        ends = indptr[row + 1:row + count + 1]
        np.multiply(np.arange(1, count + 1, dtype=index), width, out=ends)
        ends += pos
        row, pos = row + count, pos + count * width
    return csr_array((data, indices, indptr), shape=(n_rows, (grid.N_T + 1) * S))


class ConstraintOperator:
    """The concatenated linear operator A = (A_t, A_x, A_R) and its adjoint.

    A is one CSR matrix, ``matrix``, assembled once; its arrays, read as
    compressed columns, are those of A^T, so the adjoint is exact by
    construction. Both directions write into an optional ``out=`` of the
    result's type, which must not share memory with the input; an out
    potential must be C-contiguous.

    The products call the kernels of ``A @ x`` and ``A.T @ y`` in
    scipy.sparse directly and write into out: the public product allocates
    its result, and its dispatch took about 20 us a call at N = 64.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.matrix = constraint_matrix(grid)

    def apply(self, phi: np.ndarray, out: SigmaVars | None = None) -> SigmaVars:
        g, A = self.grid, self.matrix
        if phi.shape != (g.N_T + 1,) + g.space_shape:
            raise ValueError("apply expects a Q_D potential")
        if out is None:
            out = SigmaVars.zeros(g)
        out.flat.fill(0.0)  # the kernel adds A phi to out
        csr_matvec(*A.shape, A.indptr, A.indices, A.data, phi.ravel(), out.flat)
        return out

    def apply_transpose(self, lam: PrimalVars | SigmaVars,
                        out: np.ndarray | None = None) -> np.ndarray:
        g, A = self.grid, self.matrix
        if out is None:
            out = np.empty((g.N_T + 1,) + g.space_shape)
        if not out.flags.c_contiguous:
            raise ValueError("apply_transpose needs a C-contiguous out")
        out.fill(0.0)
        csc_matvec(*A.shape[::-1], A.indptr, A.indices, A.data, lam.flat, out.reshape(-1))
        return out


@dataclass
class TransportProblem:
    """Assembled discrete transport instance."""

    grid: GridSpec
    cost: CostModel
    pi_mu: DiscreteMeasure
    pi_nu: DiscreteMeasure
    operator: ConstraintOperator
    objective_data: np.ndarray  # gradient of F_D as a Q_D field

    @property
    def R(self) -> float:
        return self.grid.R


# relative mass difference up to which two marginals count as balanced
MASS_RTOL = 1e-8


def assemble_problem(grid: GridSpec, cost: CostModel,
                     pi_mu: DiscreteMeasure, pi_nu: DiscreteMeasure) -> TransportProblem:
    """Transport problem between two marginals of equal mass on the grid.

    Unequal masses make A^T Lambda = F_D unsolvable in its constant mode,
    which the potential solve would hide, so they are rejected here.
    """
    for name, meas in (("pi_mu", pi_mu), ("pi_nu", pi_nu)):
        if meas.weights.shape != grid.space_shape:
            raise ValueError(f"{name} does not live on the grid")
    m_mu, m_nu = pi_mu.mass, pi_nu.mass
    if abs(m_mu - m_nu) > MASS_RTOL * max(abs(m_mu), abs(m_nu)):
        raise ValueError(f"marginals have unequal mass: pi_mu has {m_mu!r}, "
                         f"pi_nu has {m_nu!r} (relative tolerance {MASS_RTOL:g})")
    data = np.zeros((grid.N_T + 1,) + grid.space_shape)
    data[0] = -pi_mu.weights
    data[-1] = pi_nu.weights
    return TransportProblem(grid, cost, pi_mu, pi_nu, ConstraintOperator(grid), data)


def objective_FD(phi: np.ndarray, pi_mu: DiscreteMeasure, pi_nu: DiscreteMeasure) -> float:
    """Dual objective: final slice against pi_nu minus initial against pi_mu."""
    if phi.shape[1:] != pi_mu.weights.shape or phi.shape[1:] != pi_nu.weights.shape:
        raise ValueError("potential and measures live on different grids")
    return float(np.sum(phi[-1] * pi_nu.weights)) - float(np.sum(phi[0] * pi_mu.weights))


def support_threshold(lam: PrimalVars) -> float:
    """Mass at or below which a cell counts as empty: 1e-10 of the largest."""
    return 1e-10 * float(np.max(lam.lambda_rho, initial=0.0))


def primal_objective(lam: PrimalVars, R: float, cost: CostModel) -> float:
    """Kinetic action sum L(m/rho) rho + R * l1(eta).

    Cells with rho below the support threshold contribute zero when their
    momentum is at most 1e-6 max(1, max|m|) and make the objective +inf
    otherwise (the lower-semicontinuous perspective). Masses below -1e-4 raise.
    """
    rho = lam.lambda_rho
    if float(np.min(rho, initial=0.0)) < -1e-4:
        raise ValueError("infeasible mass signs in primal variables")
    on = rho > support_threshold(lam)
    momentum_tol = 1e-6 * max(1.0, float(np.max(np.abs(lam.lambda_m), initial=0.0)))
    mnorm = np.sqrt(np.sum(lam.lambda_m ** 2, axis=0))
    if float(np.max(mnorm[~on], initial=0.0)) > momentum_tol:
        return math.inf
    values = np.where(on, rho * cost.eval_L(recover_velocity(lam)), 0.0)
    return float(np.sum(values)) + R * float(np.sum(np.abs(lam.lambda_eta)))


def recover_velocity(lam: PrimalVars) -> np.ndarray:
    """V = lambda_m / lambda_rho on the support of lambda_rho, zero elsewhere."""
    rho = lam.lambda_rho
    on = rho > support_threshold(lam)
    inv = np.where(on, 1.0 / np.where(on, rho, 1.0), 0.0)
    return lam.lambda_m * inv

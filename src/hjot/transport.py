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
from dataclasses import dataclass

import numpy as np

from .cost import CostModel
from .grid import (GridSpec, backward_diff, centered_diff, centered_gradient, discrete_laplacian,
                   forward_diff)
from .measures import DiscreteMeasure


@dataclass
class SigmaVars:
    """Split variables mirroring (A_t Phi, A_x Phi, A_R Phi).

    sigma_t: (N_T, *spatial); sigma_x: (d, N_T, *spatial);
    sigma_r: (d, *spatial).
    """

    sigma_t: np.ndarray
    sigma_x: np.ndarray
    sigma_r: np.ndarray

    @staticmethod
    def zeros(grid: GridSpec) -> "SigmaVars":
        sp = grid.space_shape
        return SigmaVars(np.zeros((grid.N_T,) + sp),
                         np.zeros((grid.d, grid.N_T) + sp),
                         np.zeros((grid.d,) + sp))

    def parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.sigma_t, self.sigma_x, self.sigma_r


@dataclass
class PrimalVars:
    """Multipliers (mass, momentum, clamp) of the primal problem.

    lambda_rho: (N_T, *spatial); lambda_m: (d, N_T, *spatial);
    lambda_eta: (d, *spatial). Slices of lambda_rho carry mass dt each
    (the time-integrated convention), so lambda_rho/dt is a probability
    weight vector per slice at optimality.
    """

    lambda_rho: np.ndarray
    lambda_m: np.ndarray
    lambda_eta: np.ndarray

    @staticmethod
    def zeros(grid: GridSpec) -> "PrimalVars":
        sp = grid.space_shape
        return PrimalVars(np.zeros((grid.N_T,) + sp),
                          np.zeros((grid.d, grid.N_T) + sp),
                          np.zeros((grid.d,) + sp))

    def parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.lambda_rho, self.lambda_m, self.lambda_eta


class ConstraintOperator:
    """The concatenated linear operator A = (A_t, A_x, A_R) and its adjoint.

    Both directions are built from the grid stencils and write into an
    optional ``out=`` of the result's type, which must not share memory
    with the input. They share two Q'_D scratch arrays owned by the
    operator, so one operator must not be applied from two threads at once.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.eps = grid.eps
        self._scratch = np.empty((2, grid.N_T) + grid.space_shape)

    def apply(self, phi: np.ndarray, out: SigmaVars | None = None) -> SigmaVars:
        g = self.grid
        if phi.shape != (g.N_T + 1,) + g.space_shape:
            raise ValueError("apply expects a Q_D potential")
        if out is None:
            out = SigmaVars.zeros(g)
        lap = self._scratch[0]
        old = phi[:-1]
        # sigma_t = (phi^{i+1} - phi^i)/dt - eps lap phi^i; sigma_t is the
        # Laplacian's scratch before it takes its own value
        discrete_laplacian(old, g, out=lap, work=out.sigma_t)
        lap *= self.eps
        np.subtract(phi[1:], old, out=out.sigma_t)
        out.sigma_t /= g.dt
        out.sigma_t -= lap
        centered_gradient(old, g, out=out.sigma_x, work=lap)
        for k in range(g.d):
            forward_diff(phi[0], g, k, out=out.sigma_r[k])
        out.sigma_r /= g.dx
        return out

    def apply_transpose(self, lam: PrimalVars, out: np.ndarray | None = None) -> np.ndarray:
        g = self.grid
        rho, m, eta = lam.lambda_rho, lam.lambda_m, lam.lambda_eta
        if out is None:
            out = np.empty((g.N_T + 1,) + g.space_shape)
        rate, term = self._scratch
        # A_t^T: the adjoint of the time quotient plus the (self-adjoint)
        # viscosity term acting on the old slice, accumulated from zero
        np.divide(rho, g.dt, out=rate)
        discrete_laplacian(rho, g, out=term, work=out[:-1])
        term *= self.eps
        term += rate
        np.subtract(0.0, term, out=out[:-1])
        out[-1] = 0.0
        out[1:] += rate
        # A_x^T: the centered gradient is skew-adjoint per component
        for k in range(g.d):
            out[:-1] -= centered_diff(m[k], g, k, out=term, work=rate)
        # A_R^T: adjoint of the forward quotient on the initial slice
        for k in range(g.d):
            edge = backward_diff(eta[k], g, k, out=term[0])
            edge /= g.dx
            out[0] -= edge
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

"""ADMM solver for the saddle-point form of discrete optimal transport.

We solve  max_Phi F_D(Phi)  s.t.  A Phi in C, written with a split variable
Sigma = A Phi and the indicator of C = {(s, w, u): s + H(w) <= 0, |u| <= R}:

    min_Phi  -F_D(Phi) + I_C(Sigma)   s.t.  A Phi - Sigma = 0.

The iteration (unscaled multiplier Lambda):

    Phi    <- argmin: solves  r A^T A Phi = F_D - A^T Lambda + r A^T Sigma
    Sigma  <- proj_C( A Phi + Lambda / r )
    Lambda <- Lambda + r (A Phi - Sigma)

At convergence Lambda is exactly the primal optimizer (mass, momentum,
clamp multiplier) and Phi the dual potential. Stopping: both the primal
residual |A Phi - Sigma|_2 and the dual residual r |A^T(Sigma_k -
Sigma_{k-1})|_2 below stop_tol; a residual that is not finite stops the
run at once.

The Phi subproblem is a space-periodic elliptic system: the spatial FFT
diagonalizes it into independent symmetric tridiagonal positive-definite
systems in time (one per frequency), which are prefactored once with a
tridiagonal LDL^T (LAPACK pttrf/pttrs). The zero frequency is singular with
constant kernel and is pinned; the constant mode is anchored to mean zero
on the zero-frequency coefficients.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import viscosity_interval
from .transport import PrimalVars, SigmaVars, TransportProblem, objective_FD

# residual balancing (Boyd et al. 2011, sec. 3.4.1): r doubles or halves when
# one residual exceeds BALANCE_RATIO times the other. r must track the
# measure weights, which shrink with the grid; a fixed r stalls the dual residual.
BALANCE_RATIO = 10.0


@dataclass
class AdmmConfig:
    """Solver parameters.

    :param r: initial penalty parameter, finite and positive
    :param stop_tol: threshold for both residual norms, finite and positive
    :param max_iters: iteration cap, at least 1 (non-convergence is
        flagged, not raised)
    """

    r: float = 1.0
    stop_tol: float = 1e-5
    max_iters: int = 200000

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v > 0 for v in (self.r, self.stop_tol)):
            raise ValueError(f"r and stop_tol must be finite and positive, "
                             f"got r={self.r!r}, stop_tol={self.stop_tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass
class AdmmState:
    """Split variable, residual histories and final F_D of one solve.

    solve returns Phi and Lambda next to the state, not in it.
    """

    sigma: SigmaVars
    iters: int
    primal_res: list[float]
    dual_res: list[float]
    objective: float  # F_D of the returned Phi
    r_final: float
    stop_reason: str  # "converged", "max_iters" or "non_finite"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


class SpectralPhiSolver:
    """Exact solver for A^T A Phi = b via spatial FFT + tridiagonal LDL^T.

    For each spatial frequency theta the operator reduces to the
    (N_T+1) x (N_T+1) real symmetric tridiagonal matrix

        M(theta) = B^T B + |g|^2 diag(1..1,0) + |c|^2 e_0 e_0^T

    with B bidiagonal (B[i,i] = -1/dt - eps*l(theta), B[i,i+1] = 1/dt),
    l, g, c the symbols of the Laplacian, centered gradient and forward
    quotient. M is positive definite except at theta = 0, whose kernel is
    the constants; that block is replaced by pinning the first unknown.
    All blocks are stacked into one tridiagonal system, factored once with
    LAPACK pttrf (L D L^T) and reused across iterations (the factor does not
    depend on the penalty r).
    """

    def __init__(self, grid):
        self.grid = grid
        n = grid.N_T + 1
        axes = tuple(range(-grid.d, 0))
        self.axes = axes
        # rfftn layout: full frequencies on the leading spatial axes,
        # nonnegative frequencies on the last
        freq_shape = (grid.N_X,) * (grid.d - 1) + (grid.N_X // 2 + 1,)
        thetas = np.meshgrid(*[
            2.0 * np.pi * np.arange(sz) / grid.N_X for sz in freq_shape
        ], indexing="ij") if grid.d > 0 else []
        lam_sym = np.zeros(freq_shape)
        g2 = np.zeros(freq_shape)
        for th in thetas:
            lam_sym += (2.0 * np.cos(th) - 2.0) / grid.dx ** 2
            g2 += (np.sin(th) / grid.dx) ** 2
        c2 = -lam_sym  # |e^{i th} - 1|^2 / dx^2 summed over axes
        F = int(np.prod(freq_shape))
        beta = (-1.0 / grid.dt - grid.eps * lam_sym).reshape(F)
        gamma = 1.0 / grid.dt
        g2 = g2.reshape(F)
        c2 = c2.reshape(F)

        diag = np.zeros((F, n))
        off = np.zeros((F, n))  # off[f, i] couples unknowns i-1 and i
        diag[:, :-1] += beta[:, None] ** 2 + g2[:, None]
        diag[:, 1:] += gamma ** 2
        diag[:, 0] += c2
        off[:, 1:] = (beta * gamma)[:, None]
        # theta = 0: kernel is the constants; pin the first unknown
        diag[0, 0] = 1.0
        off[0, 1] = 0.0

        # off[:, 0] = 0 decouples consecutive blocks of the stacked system
        self.d_fac, self.e_fac, info = dpttrf(diag.reshape(-1), off.reshape(-1)[1:])
        if info != 0:
            raise np.linalg.LinAlgError(
                f"potential system not positive definite (LAPACK pttrf info = {info})")
        self._spec = np.empty((n,) + freq_shape, dtype=complex)
        spec = self._spec.reshape(n, F)
        # right-hand sides in Fortran order, as LAPACK reads them: column 0
        # the real parts, column 1 the imaginary parts, frequency-major
        self._rhs = np.empty((F * n, 2), order="F")
        # (spectrum part, right-hand side column) pairs, both seen as (n, F).
        # Real and imaginary parts are copied one at a time: a single copy
        # through the complex buffer's float view runs an inner loop of
        # length 2 and took 5x longer at N = 192.
        self._parts = [(part, col.reshape(F, n).T)
                       for part, col in zip((spec.real, spec.imag), self._rhs.T)]
        # real parts of the zero-frequency coefficients, one per time level;
        # their mean is the mean of Phi times the number of cells in space
        self._dc = spec.real[:, 0]

    def solve(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Solve A^T A Phi = b for a Q_D field b; the solution has mean zero.

        The real and imaginary parts of all frequency blocks go through one
        LAPACK pttrs call. The mean is anchored on the zero-frequency
        coefficients, before the inverse FFT. out (it may be b itself) is
        allocated when None. b must be finite: pttrs does not check, and
        non-finite input gives a non-finite result.
        """
        np.fft.rfftn(b, axes=self.axes, out=self._spec)
        for part, col in self._parts:
            np.copyto(col, part)
        self._rhs[0] = 0.0  # pinned unknown of the zero frequency
        # Fortran-order float64, so pttrs overwrites self._rhs without a copy
        _, info = dpttrs(self.d_fac, self.e_fac, self._rhs, overwrite_b=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK pttrs")
        for part, col in self._parts:
            np.copyto(part, col)
        self._dc -= self._dc.mean()
        return np.fft.irfftn(self._spec, s=self.grid.space_shape, axes=self.axes, out=out)


def phi_update(solver, problem: TransportProblem, sigma: SigmaVars,
               lam: PrimalVars, r: float, out: np.ndarray | None = None,
               work: PrimalVars | SigmaVars | None = None) -> np.ndarray:
    """Solve r A^T A Phi = F_D - A^T Lambda + r A^T Sigma, mean-anchored.

    out (a Q_D array, which also holds the right-hand side) and work
    (scratch for Lambda - r Sigma) are allocated when None.
    """
    if work is None:
        work = PrimalVars.zeros(problem.grid)
    np.multiply(r, sigma.flat, out=work.flat)
    np.subtract(lam.flat, work.flat, out=work.flat)
    rhs = problem.operator.apply_transpose(work, out=out)
    np.subtract(problem.objective_data, rhs, out=rhs)
    rhs /= r
    return solver.solve(rhs, out=rhs)


def sigma_update(problem: TransportProblem, a_phi: SigmaVars, lam: PrimalVars,
                 r: float, out: SigmaVars | None = None) -> SigmaVars:
    """Project A Phi + Lambda/r onto the constraint set.

    out must not share memory with a_phi or lam; it is allocated when None.
    """
    if out is None:
        out = SigmaVars.zeros(problem.grid)
    np.divide(lam.flat, r, out=out.flat)
    np.add(a_phi.flat, out.flat, out=out.flat)
    problem.cost.project_onto_K(out.sigma_t, out.sigma_x, out=(out.sigma_t, out.sigma_x))
    np.clip(out.sigma_r, -problem.R, problem.R, out=out.sigma_r)
    return out


def lambda_update(lam: PrimalVars, residual: SigmaVars, r: float) -> PrimalVars:
    """Multiplier ascent Lambda <- Lambda + r (A Phi - Sigma), in place.

    residual holds A Phi - Sigma and is scaled by r in place; lam is
    returned.
    """
    residual.flat *= r
    lam.flat += residual.flat
    return lam


def _norm(x: np.ndarray) -> float:
    return math.sqrt(float(np.vdot(x, x)))


def solve(problem: TransportProblem,
          config: AdmmConfig | None = None) -> tuple[np.ndarray, PrimalVars, AdmmState]:
    """Run ADMM to the residual tolerance; returns (phi, lambda, state).

    The run stops when both residuals reach stop_tol, after max_iters
    iterations, or as soon as a residual is not finite; state.stop_reason
    names which. The iterates and the loop's scratch arrays are allocated
    once, here. The residuals of every iteration are kept in
    state.primal_res and dual_res; state.objective is F_D of the returned Phi.
    """
    if config is None:
        config = AdmmConfig()
    g = problem.grid
    _, hi = viscosity_interval(problem.cost, g.R, g.d, g.dt, g.dx)
    if g.eps / g.dx > hi + 1e-12 * max(1.0, hi):  # pttrf can fail there
        raise ValueError(f"eps/dx = {g.eps / g.dx:g} above dx/(2 d dt) = {hi:g}, "
                         "where the scheme is not monotone")
    A = problem.operator
    r = config.r

    phi = np.zeros((g.N_T + 1,) + g.space_shape)
    lam = PrimalVars.zeros(g)
    a_phi, sigma_next = SigmaVars.zeros(g), SigmaVars.zeros(g)
    # A^T(Sigma_k - Sigma_{k-1}) goes into the head of A Phi's buffer, which
    # holds nothing the iteration reads once the multipliers are updated
    a_t_delta = a_phi.flat[:phi.size].reshape(phi.shape)
    sigma = sigma_update(problem, A.apply(phi, out=a_phi), lam, r)
    solver = SpectralPhiSolver(g)

    primal_res, dual_res = [], []
    stop_reason = "max_iters"
    for it in range(1, config.max_iters + 1):
        # A Phi is free until A.apply, so phi_update uses it as scratch
        phi = phi_update(solver, problem, sigma, lam, r, out=phi, work=a_phi)
        a_phi = A.apply(phi, out=a_phi)
        sigma_next = sigma_update(problem, a_phi, lam, r, out=sigma_next)

        # the residuals overwrite A Phi and the previous Sigma, which no
        # later step reads: A Phi - Sigma_k, then Sigma_k - Sigma_{k-1},
        # a vector of A's row space like Lambda
        a_phi.flat -= sigma_next.flat
        primal = _norm(a_phi.flat)
        lam = lambda_update(lam, a_phi, r)
        np.subtract(sigma_next.flat, sigma.flat, out=sigma.flat)
        dual = r * _norm(A.apply_transpose(sigma, out=a_t_delta))
        sigma, sigma_next = sigma_next, sigma

        primal_res.append(primal)
        dual_res.append(dual)

        if not (math.isfinite(primal) and math.isfinite(dual)):
            stop_reason = "non_finite"
            warnings.warn(f"ADMM stopped at iteration {it}: non-finite residual "
                          f"(primal {primal:.3e}, dual {dual:.3e})")
            break

        if primal <= config.stop_tol and dual <= config.stop_tol:
            stop_reason = "converged"
            break

        if primal > BALANCE_RATIO * dual:
            r *= 2.0
        elif dual > BALANCE_RATIO * primal:
            r /= 2.0
    else:
        warnings.warn(
            f"ADMM did not converge in {config.max_iters} iterations "
            f"(primal {primal:.3e}, dual {dual:.3e})")

    fd = objective_FD(phi, problem.pi_mu, problem.pi_nu)
    return phi, lam, AdmmState(sigma, it, primal_res, dual_res, fd, r, stop_reason)

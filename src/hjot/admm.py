"""ADMM solver for the saddle-point form of discrete optimal transport.

We solve  max_Phi F_D(Phi)  s.t.  A Phi in C, written with a split variable
Sigma = A Phi and the indicator of C = {(s, w, u): s + H(w) <= 0, |u| <= R}:

    min_Phi  -F_D(Phi) + I_C(Sigma)   s.t.  A Phi - Sigma = 0.

The iteration runs in scaled form (Boyd et al. 2011, sec. 3.1.1), with the
scaled multiplier Y = Lambda / r in place of Lambda:

    Phi    <- argmin: solves  A^T A Phi = (F_D - A^T Lambda) / r + A^T Sigma
    Z      <- A Phi + Y
    Sigma  <- proj_C(Z)
    Y      <- Z - Sigma

which is the unscaled iteration (Lambda <- Lambda + r (A Phi - Sigma)) with
the same arithmetic regrouped. At convergence Lambda = r Y is exactly the
primal optimizer (mass, momentum, clamp multiplier) and Phi the dual
potential. A Stepper owns the iterates, which start at zero, and every loop
buffer; its step() runs one iteration, with one A^T product, and returns
the primal residual |A Phi - Sigma|_2 and the dual residual
|F_D - A^T Lambda|_2. solve runs the loop: it steps until both are below
stop_tol (the dual one confirmed exactly), a residual is not finite or
max_iters is reached, and balances r (Stepper.balance) in between. It keeps
the residuals of the last step only; those of every step are what step()
returns.

The Phi subproblem is a space-periodic elliptic system: the spatial FFT
diagonalizes it into independent symmetric tridiagonal positive-definite
systems in time (one per frequency, read off the symbols of A's row
blocks), which are prefactored once with a tridiagonal LDL^T (LAPACK
dpttrf). Each solve runs LAPACK zpttrs once, in place on one complex
spectrum buffer that holds the frequencies one after the other. The zero
frequency is singular with constant kernel and is pinned; the constant
mode is anchored to mean zero on the zero-frequency coefficients.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, zpttrs

from . import transport
from .config import AdmmConfig
from .grid import viscosity_interval
from .transport import PrimalVars, SigmaVars, TransportProblem, objective_FD

# residual balancing (Boyd et al. 2011, sec. 3.4.1): r doubles or halves when
# one residual exceeds BALANCE_RATIO times the other. r must track the
# measure weights, which shrink with the grid; a fixed r stalls the dual residual.
BALANCE_RATIO = 10.0
# residual replacement (van der Vorst and Ye 2000): the carried F_D - A^T Lambda
# is recomputed before every REFRESH_INTERVAL-th Phi-step. K_D moved by 2.3e-8
# relative never refreshed, 1.6e-10 / 1.2e-10 refreshed every 10th / 8th step
# and 7.1e-11 every 5th (case 1, N = 192); README's gate is 1e-10.
REFRESH_INTERVAL = 5


@dataclass
class AdmmState:
    """Iteration count, last residuals, final F_D and r of one solve.

    primal_res and dual_res are the residuals that the last Stepper.step()
    returned. solve returns Phi and Lambda next to the state, not in it.
    """

    iters: int
    primal_res: float
    dual_res: float
    objective: float  # F_D of the returned Phi
    r_final: float
    stop_reason: str  # "converged", "max_iters" or "non_finite"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


class SpectralPhiSolver:
    """Exact solver for A^T A Phi = b via spatial FFT + tridiagonal LDL^T.

    For each spatial frequency theta, A^T A reduces to a real symmetric
    tridiagonal (N_T+1) x (N_T+1) matrix M(theta), summed over the row
    blocks of transport.row_blocks. A block whose rows of slice i read
    unknowns i and i + 1 through the symbols sigma_0 and sigma_1, with
    sigma_s(theta) the sum of w e^{i o theta_k} over its entries (step s,
    axis k, offset o, weight w), adds |sigma_0|^2 and |sigma_1|^2 to the
    diagonal at i and i + 1 and Re(conj(sigma_0) sigma_1), real for A's time
    quotient, to their coupling. M is positive definite except at theta = 0,
    whose kernel is the constants; that block is replaced by pinning the
    first unknown. All blocks are stacked into one tridiagonal system,
    factored once with LAPACK pttrf (L D L^T) and reused across iterations
    (the factor does not depend on the penalty r).
    """

    def __init__(self, grid):
        self.grid = grid
        n = grid.N_T + 1
        # the complex transforms' axes, the real transform taking the last;
        # solve calls the one-axis FFTs in rfftn's and irfftn's order (rfftn
        # runs these last to first after rfft, irfftn first to last before
        # irfft), which round the same, without the n-d wrappers' overhead
        self._complex_axes = tuple(range(-grid.d, -1))
        # rfftn layout: full frequencies on the leading spatial axes,
        # nonnegative frequencies on the last
        freq_shape = (grid.N_X,) * (grid.d - 1) + (grid.N_X // 2 + 1,)
        thetas = [th.ravel() for th in np.meshgrid(
            *(2.0 * np.pi * np.arange(sz) / grid.N_X for sz in freq_shape), indexing="ij")]
        F = thetas[0].size
        diag, off = np.zeros((2, F, n))  # off[f, i] couples unknowns i-1 and i
        for lead, terms in transport.row_blocks(grid):
            sym = np.zeros((2, F), dtype=complex)  # on unknowns i and i + 1
            for step, k, o, w in terms:
                sym[step] += w * np.exp(1j * o * thetas[k])
            s0, s1 = sym
            diag[:, lead] += (s0.conj() * s0).real[:, None]
            diag[:, lead + 1] += (s1.conj() * s1).real[:, None]
            off[:, lead + 1] += (s0.conj() * s1).real[:, None]
        # theta = 0: kernel is the constants; pin the first unknown
        diag[0, 0] = 1.0
        off[0, 1] = 0.0

        # off[:, 0] = 0 decouples consecutive blocks of the stacked system
        self.d_fac, e_fac, info = dpttrf(diag.reshape(-1), off.reshape(-1)[1:])
        if info != 0:
            raise np.linalg.LinAlgError(
                f"potential system not positive definite (LAPACK pttrf info = {info})")
        self.e_fac = e_fac.astype(complex)  # zpttrs takes a complex e
        # the spectrum, frequency-major as zpttrs reads it, seen by the FFTs
        # as (n,) + freq_shape
        self._buf = np.empty(F * n, dtype=complex)
        self._spec = self._buf.reshape(F, n).T.reshape((n,) + freq_shape)
        # real parts of the zero-frequency coefficients, one per time level;
        # their mean is the mean of Phi times the number of cells in space
        self._dc = self._buf[:n].real

    def solve(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Solve A^T A Phi = b for a Q_D field b; the solution has mean zero.

        All frequency blocks go through one LAPACK zpttrs call, in place on
        the spectrum. The mean is anchored on the zero-frequency
        coefficients, before the inverse FFT. The solution is written into
        out, a Q_D array (it may be b itself), which is returned. b must be
        finite: zpttrs does not check, and non-finite input gives a
        non-finite result.
        """
        spec = self._spec
        np.fft.rfft(b, axis=-1, out=spec)
        for ax in reversed(self._complex_axes):
            np.fft.fft(spec, axis=ax, out=spec)
        self._buf[0] = 0.0  # pinned unknown of the zero frequency
        x, info = zpttrs(self.d_fac, self.e_fac, self._buf, overwrite_b=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK zpttrs")
        if x is not self._buf:
            raise RuntimeError("LAPACK zpttrs solved a copy of the spectrum buffer")
        dc = self._dc
        dc -= np.add.reduce(dc) / dc.size  # dc.mean(), without its dispatch
        for ax in self._complex_axes:
            spec = np.fft.ifft(spec, axis=ax)
        return np.fft.irfft(spec, n=self.grid.N_X, axis=-1, out=out)


def phi_update(solver, h: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Solve A^T A Phi = h + u, mean-anchored, with h = (F_D - A^T Lambda) / r
    and u = A^T Sigma.

    The solution goes into out, a C-contiguous Q_D array that shares no
    memory with h or u and also holds the right-hand side; out is returned.
    """
    np.add(h, u, out=out)
    return solver.solve(out, out=out)


def sigma_update(problem: TransportProblem, z: SigmaVars, y: SigmaVars,
                 out: SigmaVars, work: tuple, mask: np.ndarray) -> SigmaVars:
    """Form Z = A Phi + Y in z, which holds A Phi, and project Z onto C into out.

    y holds the scaled multiplier Y. out must not share memory with z; it
    is returned. work and mask are the scratch of
    QuadraticCost.project_onto_K for out.sigma_t.
    """
    z.flat += y.flat
    problem.cost.project_onto_K(z.sigma_t, z.sigma_x, out=(out.sigma_t, out.sigma_x),
                                work=work, mask=mask)
    # the clamp to [-R, R] as np.clip computes it, without its Python wrappers
    np.maximum(z.sigma_r, -problem.R, out=out.sigma_r)
    np.minimum(out.sigma_r, problem.R, out=out.sigma_r)
    return out


def lambda_update(z: SigmaVars, sigma: SigmaVars, y: SigmaVars) -> SigmaVars:
    """Scaled multiplier step Y_{k+1} = Z - Sigma = Y_k + A Phi - Sigma, in z.

    y holds Y_k and is overwritten with Y_k - Y_{k+1} = Sigma - A Phi,
    whose norm is the primal residual; z is returned.
    """
    z.flat -= sigma.flat
    y.flat -= z.flat
    return z


def _norm(x: np.ndarray) -> float:
    return math.sqrt(float(np.vdot(x, x)))


class Stepper:
    """The scaled ADMM iteration on buffers allocated once, with the penalty r.

    phi, sigma, the scaled multiplier y = Lambda / r and r are the current
    iterates, all zero but r at the start; lam forms Lambda = r y. Two
    row-space buffers take turns: one holds y, the other is free until a
    step writes A Phi into it, adds y (giving Z) and subtracts Sigma, when
    it holds the next y; the old y then takes Y_k - Y_{k+1}, whose norm is
    the primal residual, and becomes the free buffer.

    u = A^T Sigma and h = (F_D - A^T Lambda) / r are carried from step to
    step: by the Phi-step's optimality h_{k+1} = u_{k+1} - u_k, so a step
    runs one A^T product, on Sigma_{k+1}, into the older of two u buffers,
    and r |h| is its dual residual. refresh() recomputes h exactly; step()
    calls it before every REFRESH_INTERVAL-th Phi-step, so that rounding
    drift cannot build up. When balance() changes r it rescales y and h by
    r_old / r_new, which is 2 or 1/2, so Lambda = r y and F_D - A^T Lambda
    = r h keep every bit.
    """

    def __init__(self, problem: TransportProblem, r: float):
        g = problem.grid
        _, hi = viscosity_interval(problem.cost, g.R, g.d, g.dt, g.dx)
        if g.eps / g.dx > hi + 1e-12 * max(1.0, hi):  # pttrf can fail there
            raise ValueError(f"eps/dx = {g.eps / g.dx:g} above dx/(2 d dt) = {hi:g}, "
                             "where the scheme is not monotone")
        self.problem, self.r, self._steps = problem, r, 0
        shape = (g.N_T + 1,) + g.space_shape
        self.phi, self.u, self._u_old = (np.zeros(shape) for _ in range(3))
        self.h = problem.objective_data / r  # Lambda_0 = 0
        self.sigma, self.y, self._free = (SigmaVars.zeros(g) for _ in range(3))
        # the projection's scratch: six float arrays and a mask over sigma_t's cells
        self._work = tuple(np.empty(self.sigma.sigma_t.shape) for _ in range(6))
        self._mask = np.empty(self.sigma.sigma_t.shape, dtype=bool)
        self._solver = SpectralPhiSolver(g)

    @property
    def lam(self) -> PrimalVars:
        """The multiplier Lambda = r y, in a new PrimalVars."""
        lam = PrimalVars.zeros(self.problem.grid)
        np.multiply(self.y.flat, self.r, out=lam.flat)
        return lam

    def step(self) -> tuple[float, float]:
        """Run one iteration; returns the (primal, dual) residuals."""
        problem, y, z = self.problem, self.y, self._free
        self._steps += 1
        if self._steps % REFRESH_INTERVAL == 0:
            self.refresh()
        phi_update(self._solver, self.h, self.u, out=self.phi)
        problem.operator.apply(self.phi, out=z)
        sigma_update(problem, z, y, out=self.sigma, work=self._work, mask=self._mask)
        lambda_update(z, self.sigma, y)
        primal = _norm(y.flat)
        self.u, self._u_old = self._u_old, self.u
        problem.operator.apply_transpose(self.sigma, out=self.u)
        np.subtract(self.u, self._u_old, out=self.h)
        self.y, self._free = z, y
        return primal, self.r * _norm(self.h)

    def refresh(self) -> float:
        """Recompute h = (F_D - A^T Lambda) / r exactly; returns |F_D - A^T Lambda|_2."""
        h = self.problem.operator.apply_transpose(self.y, out=self.h)
        h *= -self.r  # -A^T Lambda: A^T is linear
        h += self.problem.objective_data
        dual = _norm(h)
        h /= self.r
        return dual

    def balance(self, primal: float, dual: float) -> None:
        """Double r when primal > BALANCE_RATIO dual; halve it in the opposite case."""
        if primal > BALANCE_RATIO * dual:
            ratio = 0.5  # r_old / r_new
        elif dual > BALANCE_RATIO * primal:
            ratio = 2.0
        else:
            return
        self.r /= ratio
        self.y.flat *= ratio
        self.h *= ratio


def solve(problem: TransportProblem,
          config: AdmmConfig | None = None) -> tuple[np.ndarray, PrimalVars, AdmmState]:
    """Run ADMM to the residual tolerance; returns (phi, lambda, state).

    The run stops when both residuals reach stop_tol, after max_iters
    iterations, or as soon as a residual is not finite; state.stop_reason
    names which. state.primal_res and dual_res are the residuals of the
    last iteration; state.objective is F_D of the returned Phi.
    """
    if config is None:
        config = AdmmConfig()
    stepper = Stepper(problem, config.r)
    stop_reason = "max_iters"
    for it in range(1, config.max_iters + 1):
        primal, dual = stepper.step()
        if not (math.isfinite(primal) and math.isfinite(dual)):
            stop_reason = "non_finite"
            warnings.warn(f"ADMM stopped at iteration {it}: non-finite residual "
                          f"(primal {primal:.3e}, dual {dual:.3e})")
            break
        # the carried dual residual is confirmed by the exact one
        if primal <= config.stop_tol and dual <= config.stop_tol \
                and stepper.refresh() <= config.stop_tol:
            stop_reason = "converged"
            break
        stepper.balance(primal, dual)
    else:
        warnings.warn(
            f"ADMM did not converge in {config.max_iters} iterations "
            f"(primal {primal:.3e}, dual {dual:.3e})")

    phi, lam = stepper.phi, stepper.lam
    fd = objective_FD(phi, problem.pi_mu, problem.pi_nu)
    return phi, lam, AdmmState(it, primal, dual, fd, stepper.r, stop_reason)

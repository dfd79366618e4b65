"""Vanishing-viscosity scheme for Hamilton-Jacobi equations on the torus.

The explicit update

    S(psi) = psi - dt * ( H(grad_D psi) - eps * lap_D psi )

advances dphi/dt + H(grad phi) = 0 by one time step, with centered
differences and an artificial viscosity eps tied to dx. On the class C_R
of fields whose one-sided difference quotients are bounded by R, the
scheme is monotone and non-expansive in the sup norm whenever

    lip_H(R)/2 <= eps/dx <= dx/(2 d dt),

and its iterates converge to the viscosity solution at rate sqrt(h).
The Hopf-Lax formula provides the continuous solution as an oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostModel
from .grid import (GridSpec, centered_gradient, default_monotone_radius,
                   discrete_laplacian, forward_diff, viscosity_interval)
from .measures import wrap


@dataclass(frozen=True)
class SchemeParams:
    """Grid and cost bundle of the scheme.

    Construction checks nothing, so building SchemeParams(grid, cost)
    directly is the way to run an inadmissible scheme on purpose;
    make_scheme checks the viscosity.
    """

    grid: GridSpec
    cost: CostModel

    @property
    def monotone_on(self) -> float:
        """The slope radius R + delta, delta > 0, the scheme must be monotone on."""
        return default_monotone_radius(self.grid.R)


def make_scheme(grid: GridSpec, cost: CostModel) -> SchemeParams:
    """SchemeParams whose viscosity makes the scheme monotone on monotone_on,
    the radius grid.make_grid chooses the viscosity for; fails loudly when
    eps/dx lies outside the admissibility interval at that radius."""
    params = SchemeParams(grid, cost)
    lo, hi = viscosity_interval(cost, params.monotone_on, grid.d, grid.dt, grid.dx)
    ratio = grid.eps / grid.dx
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not (lo - slack <= ratio <= hi + slack):
        raise ValueError(
            f"eps/dx = {ratio:g} outside the monotone interval "
            f"[{lo:g}, {hi:g}] at slope radius {params.monotone_on:g}")
    return params


def scheme_step(psi: np.ndarray, params: SchemeParams) -> np.ndarray:
    """One explicit step of the vanishing-viscosity scheme."""
    g = params.grid
    grad = centered_gradient(psi, g)
    return psi - g.dt * (params.cost.eval_H(grad) - g.eps * discrete_laplacian(psi, g))


def solve_ivp(phi0: np.ndarray, params: SchemeParams) -> np.ndarray:
    """Iterate the scheme N_T times; slice i of the output is Phi^i."""
    g = params.grid
    if not np.all(np.isfinite(phi0)):
        raise ValueError("initial data must be finite")
    out = np.empty((g.N_T + 1,) + phi0.shape, dtype=float)
    out[0] = phi0
    for i in range(g.N_T):
        out[i + 1] = scheme_step(out[i], params)
    return out


def consistency_residual(params: SchemeParams, slope) -> float:
    """Exactness of one step on affine data psi = a . x, away from the seam.

    An affine function cannot be periodic, so the stencil is checked on
    nodes whose neighbors do not cross the wrap-around; there the update
    must equal psi - dt * H(a) exactly (the Laplacian of affine data
    vanishes and the centered gradient reproduces a).
    """
    g = params.grid
    a = np.broadcast_to(np.asarray(slope, dtype=float).reshape(-1), (g.d,))
    x = g.spatial_nodes()
    psi = np.zeros(g.space_shape)
    for k in range(g.d):
        shape = (1,) * k + (g.N_X,) + (1,) * (g.d - 1 - k)
        psi = psi + a[k] * x.reshape(shape)
    stepped = scheme_step(psi, params)
    expected = psi - g.dt * float(params.cost.eval_H(a.reshape(g.d, 1))[0])
    interior = (slice(1, g.N_X - 1),) * g.d
    return float(np.max(np.abs(stepped[interior] - expected[interior])))


def max_slope(psi: np.ndarray, grid: GridSpec) -> float:
    """Largest one-sided difference quotient magnitude over all axes."""
    worst = 0.0
    for k in range(grid.d):
        worst = max(worst, float(np.max(np.abs(forward_diff(psi, grid, k)))) / grid.dx)
    return worst


# the fractions of the bracket that each refinement round of hopf_lax
# evaluates: 64 cells, of which the two around the argmin are kept
_ROUND = np.linspace(0.0, 1.0, 65)
_SHRINK = (len(_ROUND) - 1) / 2


def hopf_lax(phi0, t: float, x: float, cost: CostModel, grid: GridSpec) -> float:
    """Viscosity solution phi(t, x) = inf_y phi0(y) + t L((x - y)/t).

    phi0 is a callable on arrays of canonical torus coordinates. The
    infimum is approximated by scanning displacements |x - y| <= lip_H(R) t
    + dx (the maximal characteristic speed for slope-R data) on a grid 8
    times finer than dx. The two cells around the best candidate are then
    refined in rounds: each evaluates 65 evenly spaced points across the
    bracket and keeps the two cells around their argmin, so the bracket
    shrinks 32-fold. The round count is fixed from the initial bracket so
    that it ends at 1e-10 or below, whatever the float spacing of y. The
    smallest value evaluated is returned. Implemented for d = 1.
    """
    if grid.d != 1:
        raise NotImplementedError("hopf_lax is implemented for d=1")
    if t <= 0.0:
        return float(phi0(np.asarray(x)))
    window = cost.lip_H(grid.R) * t + grid.dx
    fine = grid.dx / 8
    n = int(np.ceil(2.0 * window / fine)) + 1

    def value(yy):
        return phi0(wrap(yy, grid.D)) + t * cost.eval_L((x - yy)[None, :] / t)

    y = x + np.linspace(-window, window, n)
    vals = value(y)
    k = int(np.argmin(vals))
    best = vals[k]
    lo, hi = y[max(k - 1, 0)], y[min(k + 1, n - 1)]
    rounds = max(0, math.ceil(math.log((hi - lo) / 1e-10, _SHRINK)))
    for _ in range(rounds):
        y = lo + (hi - lo) * _ROUND
        vals = value(y)
        k = int(np.argmin(vals))
        best = min(best, vals[k])
        lo, hi = y[max(k - 1, 0)], y[min(k + 1, len(y) - 1)]
    return float(best)


def random_cr_field(grid: GridSpec, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Random field whose difference quotients are bounded by radius.

    Built as a periodic McShane envelope min_k (c_k + radius * dx * dist(j, k))
    over max(3, N_X // 4) random anchors, with dist the l1 torus distance in
    index space; the envelope inherits the per-axis slope bound.
    """
    n_anchors = max(3, grid.N_X // 4)
    anchors = rng.integers(0, grid.N_X, size=(n_anchors, grid.d))
    # amplitude of order radius*D so that several anchors stay active
    values = rng.uniform(-radius * grid.D, radius * grid.D, size=n_anchors)
    idx = np.indices(grid.space_shape)  # (d, N_X, ..., N_X)
    dist = np.zeros((n_anchors,) + grid.space_shape)
    for k in range(grid.d):
        delta = np.abs(idx[k][None] - anchors[:, k].reshape((-1,) + (1,) * grid.d))
        dist += np.minimum(delta, grid.N_X - delta)
    return np.min(values.reshape((-1,) + (1,) * grid.d) + radius * grid.dx * dist, axis=0)


def random_cr_pair(grid: GridSpec, radius: float, rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pair psi <= psi' of slope-bounded fields (pointwise min/max)."""
    a = random_cr_field(grid, radius, rng)
    b = random_cr_field(grid, radius, rng)
    return np.minimum(a, b), np.maximum(a, b)


@dataclass
class MonotoneReport:
    """Outcome of randomized monotonicity / non-expansiveness trials."""

    trials: int
    monotone_violations: int
    max_monotone_violation: float
    nonexpansive_violations: int
    max_expansion_excess: float

    @property
    def ok(self) -> bool:
        return self.monotone_violations == 0 and self.nonexpansive_violations == 0


def check_monotone(params: SchemeParams, trials: int = 1000, seed: int = 0) -> MonotoneReport:
    """Randomized check of scheme monotonicity on ordered C_{R+delta} pairs.

    For each trial draws psi <= psi' with slopes bounded by monotone_on and
    asserts S(psi) <= S(psi') elementwise, plus the sup-norm
    non-expansiveness |S(psi) - S(psi')|_inf <= |psi - psi'|_inf.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    mono_bad = 0
    mono_worst = 0.0
    nonexp_bad = 0
    nonexp_worst = 0.0
    for _ in range(trials):
        lo, hi = random_cr_pair(params.grid, params.monotone_on, rng)
        s_lo = scheme_step(lo, params)
        s_hi = scheme_step(hi, params)
        gap = float(np.max(s_lo - s_hi))
        if gap > 1e-12:
            mono_bad += 1
            mono_worst = max(mono_worst, gap)
        excess = float(np.max(np.abs(s_lo - s_hi)) - np.max(np.abs(lo - hi)))
        if excess > 1e-12:
            nonexp_bad += 1
            nonexp_worst = max(nonexp_worst, excess)
    return MonotoneReport(trials, mono_bad, mono_worst, nonexp_bad, nonexp_worst)

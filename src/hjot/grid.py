"""Periodic space-time grid and the discrete difference operators.

The computational domain is Q = [0,1] x Omega where Omega is the torus
R^d / (D Z^d). Time is subdivided into N_T steps of size dt = 1/N_T and
each spatial axis into N_X cells of size dx = D/N_X. Fields are plain
numpy arrays with the following shape conventions:

- scalar field on Omega_D:  shape (N_X,)*d
- scalar field on Q_D:      shape (N_T+1, *spatial)   (time index 0..N_T)
- scalar field on Q'_D:     shape (N_T,   *spatial)   (last slice dropped)
- vector fields carry a leading axis of length d

The scheme has three stencils, each acting on the whole field:
discrete_laplacian (lap_D), centered_gradient (grad_D) and
forward_gradient (fwd_D, plain differences); the gradients put one
component per axis on a new leading axis of length d. They act on the
last d axes, so they broadcast over any leading time/batch axes. Index
arithmetic is modulo N_X (periodic): along each axis a stencil makes one
padded copy of the input, which holds the neighbours across the period at
its ends, and forms its differences in one subtraction over two shifted
slices of that copy.

Every stencil allocates its result, which shares no memory with the
input. The arithmetic is that of the defining formulas, operation by
operation. (The ADMM iteration does not call the stencils: its operator
is one sparse matrix assembled from them once, in transport.py.)
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# relative enlargement of the slope radius on which the scheme must be
# monotone (the theory needs some delta > 0 beyond R)
DELTA_FRACTION = 0.05


@dataclass(frozen=True)
class GridSpec:
    """Discretization of Q = [0,1] x R^d/(D Z^d).

    :param d: spatial dimension
    :param D: period of the torus along every axis
    :param N_T: number of time subdivisions
    :param N_X: number of spatial subdivisions per axis
    :param eps: viscosity coefficient of the scheme
    :param R: slope bound imposed on the initial slice of dual potentials
    """

    d: int
    D: float
    N_T: int
    N_X: int
    eps: float
    R: float

    def __post_init__(self) -> None:
        for name in ("D", "R", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        counts = (self.d, self.N_T, self.N_X)
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1
                   for v in counts):
            raise ValueError(f"d, N_T, N_X must be positive integers, got {counts}")
        if self.D <= 0:
            raise ValueError("period D must be positive")
        if self.eps < 0 or self.R <= 0:
            raise ValueError("eps must be >= 0 and R > 0")

    @property
    def dt(self) -> float:
        return 1.0 / self.N_T

    @property
    def dx(self) -> float:
        return self.D / self.N_X

    @property
    def zeta(self) -> float:
        """Ratio dt/dx, held fixed within a resolution family."""
        return self.dt / self.dx

    @property
    def h(self) -> float:
        """Resolution parameter of the family, equal to dt."""
        return self.dt

    @property
    def space_shape(self) -> tuple[int, ...]:
        return (self.N_X,) * self.d

    def spatial_nodes(self) -> np.ndarray:
        """Grid point coordinates j*dx along one axis, j = 0..N_X-1."""
        return np.arange(self.N_X) * self.dx

    def times(self) -> np.ndarray:
        """Time grid i*dt, i = 0..N_T."""
        return np.arange(self.N_T + 1) * self.dt


def default_monotone_radius(R: float) -> float:
    """The slope radius R + DELTA_FRACTION*R on which the scheme must be
    monotone."""
    return (1.0 + DELTA_FRACTION) * R


def viscosity_interval(cost, radius: float, d: int, dt: float, dx: float) -> tuple[float, float]:
    """Admissible interval [lip_H(radius)/2, dx/(2 d dt)] for eps/dx.

    With eps/dx in it the scheme is monotone on fields whose difference
    quotients are bounded by radius; it is empty when dt is too large
    relative to dx.
    """
    return cost.lip_H(radius) / 2.0, dx / (2.0 * d * dt)


def make_grid(d: int, D: float, N_T: int, N_X: int, cost,
              R: float | None = None) -> GridSpec:
    """Build a GridSpec with the minimal admissible viscosity.

    eps is set to the lower end of viscosity_interval times dx, at the
    slightly enlarged slope radius default_monotone_radius(R) on which
    monotonicity is required (the radius hj.make_scheme checks). The
    construction fails loudly when that interval is empty.

    :param cost: CostModel providing lip_L / lip_H
    :param R: slope clamp; defaults to lip_L(diam), the Lipschitz constant
        of the cost on the ball of radius diam(Omega)
    """
    diam = D * np.sqrt(d) / 2.0
    if R is None:
        R = float(cost.lip_L(diam))
    # before the viscosity interval, which an infinite R would make empty
    if not math.isfinite(R):
        raise ValueError(f"R must be finite, got {R!r}")
    if R <= 0:
        raise ValueError(f"R must be positive, got {R!r}")
    monotone_radius = default_monotone_radius(R)
    dx = D / N_X
    lo, hi = viscosity_interval(cost, monotone_radius, d, 1.0 / N_T, dx)
    if lo > hi:
        raise ValueError(
            f"no admissible viscosity: lip_H({monotone_radius:g})/2 = {lo:g} "
            f"exceeds dx/(2 d dt) = {hi:g}; decrease dt/dx or R")
    eps = lo * dx
    return GridSpec(d=d, D=D, N_T=N_T, N_X=N_X, eps=eps, R=R)


@functools.lru_cache
def _wrap_index(n: int) -> np.ndarray:
    """Indices -1, 0, ..., n; take(mode="wrap") reads -1 as n - 1 and n as 0."""
    idx = np.arange(-1, n + 1)
    idx.flags.writeable = False
    return idx


@functools.lru_cache
def _shifted(ax: int) -> tuple[tuple, tuple]:
    """Index tuples of the slices [1:] and [:-1] along the (negative) axis ax."""
    rest = (slice(None),) * (-ax - 1)
    return (Ellipsis, slice(1, None)) + rest, (Ellipsis, slice(None, -1)) + rest


def _cell_diffs(psi: np.ndarray, ax: int) -> tuple[np.ndarray, np.ndarray]:
    """(forward, backward) difference of each cell along the (negative) axis
    ax, psi(j+1) - psi(j) and psi(j) - psi(j-1): two views of the N + 1
    differences of one copy of psi padded with its periodic neighbours
    psi(-1) and psi(N). The subtraction runs in psi's dtype; integers come
    out as floats."""
    pad = psi.take(_wrap_index(psi.shape[ax]), axis=ax, mode="wrap")
    nxt, prv = _shifted(ax)
    both = np.subtract(pad[nxt], pad[prv])
    if both.dtype.kind not in "fc":
        both = both.astype(float)
    return both[nxt], both[prv]


def forward_gradient(psi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Forward differences psi(j+1) - psi(j), one component per axis on a
    new leading axis of length d."""
    out = np.empty((grid.d,) + psi.shape, np.result_type(psi, 1.0))
    for k, ax in enumerate(range(-grid.d, 0)):
        out[k] = _cell_diffs(psi, ax)[0]
    return out


def centered_gradient(psi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Centered gradient (backward + forward)/(2 dx), one component per axis
    on a new leading axis of length d."""
    out = np.empty((grid.d,) + psi.shape, np.result_type(psi, 1.0))
    for k, ax in enumerate(range(-grid.d, 0)):
        np.add(*_cell_diffs(psi, ax), out=out[k])
    out /= 2.0 * grid.dx
    return out


def discrete_laplacian(psi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Discrete Laplacian sum_k (forward - backward)/dx^2."""
    out = None
    for ax in range(-grid.d, 0):
        term = np.subtract(*_cell_diffs(psi, ax))
        if out is None:
            # the sum starts from +0.0, which turns a -0.0 term into +0.0
            term += 0.0
            out = term
        else:
            out += term
    out /= grid.dx ** 2
    return out

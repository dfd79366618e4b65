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

centered_gradient and discrete_laplacian are one private kernel,
_stencils, which writes either or both into buffers its caller passes,
from one padded difference per axis in scratch its caller also passes
(_stencil_scratch); the scheme (hj.py) calls it for both on scratch it
allocates once per call. Every public stencil allocates its result, which
shares no memory with the input. The arithmetic is that of the defining
formulas, operation by operation. (The
ADMM iteration does not call the stencils: its operator is one sparse
matrix assembled from them once, in transport.py.)
"""
from __future__ import annotations

import functools
import math
import numbers
import warnings
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


def fit_rate(points) -> float:
    """OLS slope of log(error) vs log(h); nonpositive errors are dropped."""
    pts = [(h, e) for h, e in points]
    kept = [(h, e) for h, e in pts if e > 0]
    if len(kept) < len(pts):
        warnings.warn(f"fit_rate: dropped {len(pts) - len(kept)} nonpositive error values")
    if len(kept) < 2:
        warnings.warn("fit_rate: fewer than 2 usable points, returning nan")
        return math.nan
    logh = np.log([h for h, _ in kept])
    loge = np.log([e for _, e in kept])
    return float(np.polyfit(logh, loge, 1)[0])


def resolve_nx(N_T: int, zeta: float, D: float) -> int:
    """N_X implied by zeta = dt/dx; must come out integral."""
    nx = zeta * D * N_T
    if not math.isfinite(nx) or abs(nx - round(nx)) > 1e-9 or round(nx) < 3:
        raise ValueError(f"zeta={zeta} with N_T={N_T}, D={D} gives non-finite, "
                         f"non-integral or too small N_X={nx}")
    return int(round(nx))


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


def _stencil_scratch(psi: np.ndarray, d: int) -> list:
    """Scratch of _axis_diffs for fields of psi's shape and dtype, one entry
    per axis of their last d: the padded copy, in psi's dtype, its
    differences, in float, and the slices [1:] and [:-1] of each."""
    shape, float_type = psi.shape, np.result_type(psi, 1.0)
    out = []
    for ax in range(-d, 0):
        before, n, after = shape[:ax], shape[ax], shape[ax:][1:]
        pad = np.empty(before + (n + 2,) + after, psi.dtype)
        both = np.empty(before + (n + 1,) + after, float_type)
        nxt, prv = _shifted(ax)
        out.append((pad, pad[nxt], pad[prv], both, both[nxt], both[prv]))
    return out


def _axis_diffs(psi: np.ndarray, ax: int, axis_scratch: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(forward, backward) difference of each cell along the (negative) axis
    ax of psi, psi(j+1) - psi(j) and psi(j) - psi(j-1), through that axis'
    entry of _stencil_scratch: two views of the N + 1 differences of one
    copy of psi padded with its periodic neighbours psi(-1) and psi(N). The
    subtraction runs in psi's dtype (the copy's); integers come out as
    floats (the differences')."""
    pad, pad_nxt, pad_prv, both, fwd, bwd = axis_scratch
    psi.take(_wrap_index(psi.shape[ax]), axis=ax, mode="wrap", out=pad)
    np.subtract(pad_nxt, pad_prv, out=both)
    return fwd, bwd


def _stencils(psi: np.ndarray, grid: GridSpec, grad: np.ndarray | None,
              lap: np.ndarray | None, scratch: list) -> None:
    """The centred gradient of psi into grad, (d, *psi.shape), and its
    Laplacian into lap, psi.shape, from one padded difference per axis
    (scratch is _stencil_scratch of psi); either may be None, which skips
    that stencil. Each axis' Laplacian term after the first passes through
    grad[k] before the gradient overwrites it, or through a new array
    without grad, and the sum starts from +0.0, which turns a -0.0 first
    term into +0.0."""
    for k, axis_scratch in enumerate(scratch):
        fwd, bwd = _axis_diffs(psi, k - grid.d, axis_scratch)
        if lap is not None:
            if k == 0:
                np.subtract(fwd, bwd, out=lap)
                lap += 0.0
            else:
                lap += np.subtract(fwd, bwd, out=None if grad is None else grad[k])
        if grad is not None:
            np.add(fwd, bwd, out=grad[k])
    if grad is not None:
        grad /= 2.0 * grid.dx
    if lap is not None:
        lap /= grid.dx ** 2


def forward_gradient(psi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Forward differences psi(j+1) - psi(j), one component per axis on a
    new leading axis of length d."""
    out = np.empty((grid.d,) + psi.shape, np.result_type(psi, 1.0))
    for k, axis_scratch in enumerate(_stencil_scratch(psi, grid.d)):
        out[k] = _axis_diffs(psi, k - grid.d, axis_scratch)[0]
    return out


def centered_gradient(psi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Centered gradient (backward + forward)/(2 dx), one component per axis
    on a new leading axis of length d."""
    out = np.empty((grid.d,) + psi.shape, np.result_type(psi, 1.0))
    _stencils(psi, grid, out, None, _stencil_scratch(psi, grid.d))
    return out


def discrete_laplacian(psi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Discrete Laplacian sum_k (forward - backward)/dx^2."""
    out = np.empty(psi.shape, np.result_type(psi, 1.0))
    _stencils(psi, grid, None, out, _stencil_scratch(psi, grid.d))
    return out

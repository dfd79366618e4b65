"""Analytic probability measures on the torus and their grid projections.

Measures live on Omega = R^d/(D Z^d), described either by a density in
canonical coordinates [-D/2, D/2) or by a finite list of atoms. The grid
projection assigns to node j the mass of the half-open box of edge dx
centered at j*dx (left-closed, right-open along every axis).

The module also hosts the three benchmark transport problems between
closed-form measure pairs, together with their exact optimizers
(interpolating density rho, velocity v, potential phi where available)
and transport costs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import GridSpec


class QuadratureError(RuntimeError):
    """Raised when the per-box quadrature check exceeds QUAD_TOL."""


# largest disagreement between the 20- and 40-node rules on one box piece
QUAD_TOL = 1e-10
# residual |T_t(y) - x| at which invert_transport_map accepts y
INVERSION_TOL = 1e-13


def wrap(x, D: float = 1.0):
    """Canonical torus coordinate in [-D/2, D/2)."""
    return (np.asarray(x) + D / 2.0) % D - D / 2.0


@dataclass(frozen=True)
class AnalyticMeasure:
    """A probability measure given by a density or by atoms.

    :param descriptor: short tag (uniform, cosine, triangle, ...)
    :param density: vectorized density in canonical coordinates, or None
    :param atoms: list of (location, mass), or None
    :param breakpoints: canonical locations where the density is not smooth;
        the quadrature splits boxes there
    :param D: torus period
    """

    descriptor: str
    density: Callable[[np.ndarray], np.ndarray] | None = None
    atoms: tuple[tuple[float, float], ...] | None = None
    breakpoints: tuple[float, ...] = ()
    D: float = 1.0


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative weights on the spatial grid summing to the total mass."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = self.weights
        if not np.all(np.isfinite(w)):
            raise ValueError("discrete measure has a non-finite weight")
        if np.any(w < -1e-12):
            raise ValueError("discrete measure has a negative weight")

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class AnalyticSolution:
    """Closed-form optimizers of a benchmark transport problem.

    phi is None when no closed-form potential exists. rho_breakpoints(t)
    returns the canonical kink locations of rho(t, .) for the quadrature.
    """

    cost: float
    rho: Callable[[float, np.ndarray], np.ndarray]
    v: Callable[[float, np.ndarray], np.ndarray]
    phi: Callable[[float, np.ndarray], np.ndarray] | None
    rho_breakpoints: Callable[[float], tuple[float, ...]] = field(default=lambda t: ())

    def slice_measure(self, t: float, D: float = 1.0) -> AnalyticMeasure:
        """The time-t interpolating measure as an AnalyticMeasure."""
        return AnalyticMeasure(
            descriptor=f"rho(t={t:g})",
            density=lambda x: self.rho(t, x),
            breakpoints=self.rho_breakpoints(t),
            D=D,
        )


# 20/40-node Gauss-Legendre rules; the 40-node rule rechecks every piece
_GL20 = np.polynomial.legendre.leggauss(20)
_GL40 = np.polynomial.legendre.leggauss(40)


def uniform(D: float = 1.0) -> AnalyticMeasure:
    return AnalyticMeasure("uniform", density=lambda x: np.ones_like(np.asarray(x, dtype=float)) / D, D=D)


def cosine(w: float, D: float = 1.0) -> AnalyticMeasure:
    """Density 1 + cos(2 pi w x)/2; unit mass for integer w on D=1."""
    return AnalyticMeasure(
        "cosine", density=lambda x: 1.0 + 0.5 * np.cos(2.0 * np.pi * w * np.asarray(x)), D=D)


def triangle(w: float) -> AnalyticMeasure:
    """Triangular bump of half-width w at the origin, unit mass."""
    return AnalyticMeasure(
        "triangle",
        density=lambda x: np.maximum(w - np.abs(np.asarray(x)), 0.0) / w ** 2,
        breakpoints=(-w, 0.0, w))


def double_triangle(w: float) -> AnalyticMeasure:
    """Triangular bump of doubled half-width 2w, unit mass."""
    return AnalyticMeasure(
        "double_triangle",
        density=lambda x: np.maximum(2.0 * w - np.abs(np.asarray(x)), 0.0) / (4.0 * w ** 2),
        breakpoints=(-2.0 * w, 0.0, 2.0 * w))


def box(w: float) -> AnalyticMeasure:
    """Uniform density on |x| <= w, unit mass."""
    return AnalyticMeasure(
        "box",
        density=lambda x: np.where(np.abs(np.asarray(x)) <= w, 1.0 / (2.0 * w), 0.0),
        breakpoints=(-w, w))


def double_box(w: float) -> AnalyticMeasure:
    """Uniform density on the band 1/2 - |x| <= w around the seam, unit mass."""
    return AnalyticMeasure(
        "double_box",
        density=lambda x: np.where(0.5 - np.abs(np.asarray(x)) <= w, 1.0 / (2.0 * w), 0.0),
        breakpoints=(-(0.5 - w), 0.5 - w))


def dirac(x0: float) -> AnalyticMeasure:
    return AnalyticMeasure("dirac", atoms=((float(x0), 1.0),))


def _atom_index(x: float, grid: GridSpec) -> tuple[int, ...]:
    # half-open box membership: j = floor(x/dx + 1/2) mod N_X per axis
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    js = np.floor(xs / grid.dx + 0.5).astype(int) % grid.N_X
    return tuple(int(j) for j in js)


def project_measure(mu: AnalyticMeasure, grid: GridSpec) -> DiscreteMeasure:
    """Project a measure onto the grid: weight(j) = mu(box centered at j dx).

    Atoms are assigned by half-open box membership. Densities are
    integrated per box with Gauss-Legendre rules after splitting the box
    at the measure's (analytically known) kink locations; each piece is
    evaluated with 20- and 40-node rules and their disagreement must stay
    below QUAD_TOL, else QuadratureError is raised.
    """
    if mu.atoms is not None:
        weights = np.zeros(grid.space_shape)
        for x0, m in mu.atoms:
            weights[_atom_index(x0, grid)] += m
        return DiscreteMeasure(weights)
    if grid.d != 1:
        raise NotImplementedError("density projection is implemented for d=1")
    if abs(mu.D - grid.D) > 1e-12 * grid.D:
        raise ValueError("measure period does not match the grid")

    N, dx, D = grid.N_X, grid.dx, grid.D
    # box edges tile [-dx/2, D - dx/2); lift breakpoints into that window
    edges = (np.arange(N + 1) - 0.5) * dx
    cuts = [edges]
    if mu.breakpoints:
        b = np.asarray(mu.breakpoints, dtype=float)
        lifted = edges[0] + (b - edges[0]) % D
        # drop breakpoints that coincide with box edges
        snap = np.round((lifted - edges[0]) / dx)
        on_edge = np.abs(lifted - (edges[0] + snap * dx)) < 1e-14 * D
        cuts.append(lifted[~on_edge])
    cuts = np.sort(np.concatenate(cuts))
    mids = 0.5 * (cuts[1:] + cuts[:-1])
    half = 0.5 * np.diff(cuts)
    owner = np.clip(((mids - edges[0]) / dx).astype(int), 0, N - 1)

    def rule(gl):
        xg, wg = gl
        nodes = mids[:, None] + half[:, None] * xg[None, :]
        vals = mu.density(wrap(nodes, D))
        return np.sum(vals * wg[None, :], axis=1) * half

    i20, i40 = rule(_GL20), rule(_GL40)
    err = np.abs(i20 - i40)
    if np.max(err, initial=0.0) > QUAD_TOL:
        raise QuadratureError(
            f"box quadrature disagreement {np.max(err):.3e} exceeds {QUAD_TOL:.1e} "
            f"for measure {mu.descriptor!r}; add the missing breakpoints")
    weights = np.zeros(N)
    np.add.at(weights, owner, i40)
    # quadrature of a nonnegative density can round slightly below zero
    weights[weights < 0] = 0.0
    return DiscreteMeasure(weights)


def invert_transport_map(t: float, x, w: float):
    """Solve T_t(y) = x for y, where T_t(y) = y + t sin(2 pi w y)/(4 pi w).

    T_t is strictly increasing (T_t' >= 1/2 for t <= 1), so the solution is
    unique up to period shifts; Newton from y = x converges to the image
    nearest x. Vectorized over x. Falls back to bisection where Newton
    fails to reach |T_t(y) - x| <= INVERSION_TOL.
    """
    x = np.asarray(x, dtype=float)
    c = 4.0 * np.pi * w
    amp = t / c

    def T(y):
        return y + amp * np.sin(2.0 * np.pi * w * y)

    def Tp(y):
        return 1.0 + 0.5 * t * np.cos(2.0 * np.pi * w * y)

    y = x.copy() if x.shape else np.array(x, dtype=float)
    for _ in range(60):
        res = T(y) - x
        if np.all(np.abs(res) <= INVERSION_TOL):
            break
        y = y - res / Tp(y)
    res = np.abs(T(y) - x)
    if np.any(res > INVERSION_TOL):
        bad = res > INVERSION_TOL
        lo = x[bad] - abs(amp) - 1e-9
        hi = x[bad] + abs(amp) + 1e-9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = T(mid) < x[bad]
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        yb = 0.5 * (lo + hi)
        if np.any(np.abs(T(yb) - x[bad]) > 1e3 * INVERSION_TOL):
            raise RuntimeError("transport map inversion did not converge")
        y = np.asarray(y)
        y[bad] = yb
    return y


DEFAULT_W = {1: 1.0, 2: 0.2, 3: 0.05}


def build_test_case(case_id: int, w: float | None = None
                    ) -> tuple[AnalyticMeasure, AnalyticMeasure, AnalyticSolution]:
    """Benchmark transport problems with closed-form optimizers.

    Case 1 (default w=1): smooth cosine perturbation to uniform,
        cost 1/(64 pi^2 w^2). No closed-form potential.
    Case 2 (default w=0.2): triangle of half-width w to triangle of
        half-width 2w, cost w^2/12.
    Case 3 (default w=0.05): box of half-width w breaking into a band at
        distance s = 1/2 - w around the seam, cost s^2/2. The velocity is
        discontinuous at x = 0 (sign(0) = 0 convention).
    """
    if case_id == 1:
        w = DEFAULT_W[1] if w is None else float(w)
        if w != round(w) or w == 0:
            raise ValueError("case 1 requires a nonzero integer w")

        def rho(t, x):
            y = invert_transport_map(t, wrap(x), w)
            cy = np.cos(2.0 * np.pi * w * y)
            return (1.0 + 0.5 * cy) / (1.0 + 0.5 * t * cy)

        def v(t, x):
            y = invert_transport_map(t, wrap(x), w)
            return np.sin(2.0 * np.pi * w * y) / (4.0 * np.pi * w)

        sol = AnalyticSolution(
            cost=1.0 / (64.0 * np.pi ** 2 * w ** 2),
            rho=rho, v=v, phi=None)
        return cosine(w), uniform(), sol

    if case_id == 2:
        w = DEFAULT_W[2] if w is None else float(w)
        if not 0.0 < w < 0.25:
            raise ValueError("case 2 requires 0 < w < 1/4")

        def rho(t, x):
            xc = wrap(x)
            return np.maximum((1.0 + t) * w - np.abs(xc), 0.0) / ((1.0 + t) ** 2 * w ** 2)

        def v(t, x):
            return wrap(x) / (1.0 + t)

        def phi(t, x):
            return wrap(x) ** 2 / (2.0 * (1.0 + t))

        sol = AnalyticSolution(
            cost=w ** 2 / 12.0,
            rho=rho, v=v, phi=phi,
            rho_breakpoints=lambda t: (-(1.0 + t) * w, 0.0, (1.0 + t) * w))
        return triangle(w), double_triangle(w), sol

    if case_id == 3:
        w = DEFAULT_W[3] if w is None else float(w)
        if not 0.0 < w < 0.5:
            raise ValueError("case 3 requires 0 < w < 1/2")
        s = 0.5 - w

        def rho(t, x):
            a = np.abs(wrap(x)) - t * s
            return np.where((a >= 0.0) & (a <= w), 1.0 / (2.0 * w), 0.0)

        def v(t, x):
            return s * np.sign(wrap(x))

        def phi(t, x):
            return np.abs(wrap(x)) * s - 0.5 * s ** 2 * t

        def breaks(t):
            pts = {t * s, t * s + w, -t * s, -(t * s + w)}
            return tuple(sorted(float(wrap(p)) for p in pts))

        sol = AnalyticSolution(
            cost=0.5 * s ** 2,
            rho=rho, v=v, phi=phi,
            rho_breakpoints=breaks)
        return box(w), double_box(w), sol

    raise ValueError(f"unknown test case {case_id!r}")

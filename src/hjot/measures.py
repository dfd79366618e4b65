"""Analytic probability measures on the torus and their grid projections.

Measures are described either by their cumulative mass on lifted
coordinates of the unit torus R/Z or by a finite list of atoms on the
line. The grid projection, for d = 1, assigns to node j the mass of the
half-open box of edge dx centered at j*dx (left-closed, right-open); a
cumulative mass is projected only onto a grid of period D = 1, while
atoms take the grid's period.

The module also hosts the three benchmark transport problems between
closed-form measure pairs, together with their exact optimizers
(cumulative mass of the interpolating measure, velocity v, potential phi
where available) and transport costs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridSpec

# residual |T_t(y) - x| at which invert_transport_map accepts y
INVERSION_TOL = 1e-13


def wrap(x, D: float = 1.0):
    """Canonical torus coordinate in [-D/2, D/2)."""
    return (np.asarray(x) + D / 2.0) % D - D / 2.0


@dataclass(frozen=True)
class AnalyticMeasure:
    """A probability measure given by its cumulative mass or by atoms, not both.

    :param cdf: vectorized cumulative mass F on lifted coordinates of the
        unit torus, or None: F is nondecreasing on R and F(x + 1) = F(x) +
        mass, so the mass of [x0, x1) with x0 <= x1 <= x0 + 1 is F(x1) - F(x0)
    :param atoms: list of (location, mass), or None
    """

    cdf: Callable[[np.ndarray], np.ndarray] | None = None
    atoms: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if (self.cdf is None) == (self.atoms is None):
            raise ValueError("a measure takes exactly one of cdf and atoms")


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

    cdf(t, x) is the cumulative mass of the time-t interpolating measure on
    lifted coordinates, as AnalyticMeasure.cdf. phi is None when no
    closed-form potential exists.
    """

    cost: float
    cdf: Callable[[float, np.ndarray], np.ndarray]
    v: Callable[[float, np.ndarray], np.ndarray]
    phi: Callable[[float, np.ndarray], np.ndarray] | None

    def slice_measure(self, t: float) -> AnalyticMeasure:
        """The time-t interpolating measure as an AnalyticMeasure."""
        return AnalyticMeasure(cdf=lambda x: self.cdf(t, x))


def _lifted(cdf_c):
    """Lift the cumulative mass cdf_c of a unit mass on [-1/2, 1/2], with
    cdf_c(-1/2) = 0 and cdf_c(1/2) = 1, to R with period 1."""
    def cdf(x):
        x = np.asarray(x, dtype=float)
        k = np.floor(x + 0.5)
        return k + cdf_c(x - k)
    return cdf


def _triangle_cdf(w: float):
    """Cumulative mass of the unit triangle of half-width w <= 1/2 at 0."""
    def cdf_c(y):
        z = np.clip(y, -w, w) / w
        return np.where(z < 0.0, 0.5 * (1.0 + z) ** 2, 1.0 - 0.5 * (1.0 - z) ** 2)
    return _lifted(cdf_c)


def _box_pair_cdf(lo: float, hi: float):
    """Cumulative mass of the unit uniform mass on lo <= |x| <= hi, hi <= 1/2."""
    def cdf_c(y):
        return (np.clip(y, -hi, -lo) + np.clip(y, lo, hi) + (hi - lo)) / (2.0 * (hi - lo))
    return _lifted(cdf_c)


def _cosine_cdf(w: float):
    """x + sin(2 pi w x)/(4 pi w), the cumulative mass of 1 + cos(2 pi w x)/2."""
    def cdf(x):
        x = np.asarray(x, dtype=float)
        return x + np.sin(2.0 * np.pi * w * x) / (4.0 * np.pi * w)
    return cdf


def uniform() -> AnalyticMeasure:
    return AnalyticMeasure(cdf=lambda x: np.asarray(x, dtype=float))


def cosine(w: float) -> AnalyticMeasure:
    """Density 1 + cos(2 pi w x)/2; unit mass for integer w."""
    return AnalyticMeasure(cdf=_cosine_cdf(w))


def triangle(w: float) -> AnalyticMeasure:
    """Triangular bump of half-width w at the origin, unit mass."""
    return AnalyticMeasure(cdf=_triangle_cdf(w))


def double_triangle(w: float) -> AnalyticMeasure:
    """Triangular bump of doubled half-width 2w, unit mass."""
    return AnalyticMeasure(cdf=_triangle_cdf(2.0 * w))


def box(w: float) -> AnalyticMeasure:
    """Uniform density on |x| <= w, unit mass."""
    return AnalyticMeasure(cdf=_box_pair_cdf(0.0, w))


def double_box(w: float) -> AnalyticMeasure:
    """Uniform density on the band 1/2 - |x| <= w around the seam, unit mass."""
    return AnalyticMeasure(cdf=_box_pair_cdf(0.5 - w, 0.5))


def dirac(x0: float) -> AnalyticMeasure:
    return AnalyticMeasure(atoms=((float(x0), 1.0),))


def _atom_index(x: float, grid: GridSpec) -> int:
    # half-open box membership: j = floor(x/dx + 1/2) mod N_X
    x = float(x)
    if not np.isfinite(x):  # the int cast would pick an arbitrary cell
        raise ValueError(f"atom at non-finite location {x!r}")
    return int(np.floor(x / grid.dx + 0.5)) % grid.N_X


def project_measure(mu: AnalyticMeasure, grid: GridSpec) -> DiscreteMeasure:
    """Project a measure onto a d = 1 grid: weight(j) = mu(box centered at j dx).

    Atoms are assigned by half-open box membership, on the grid's period.
    Otherwise each weight is the difference of the cumulative mass at the
    box's two edges; the N + 1 edges (j - 1/2) dx tile one period, which
    must be that of the cumulative mass, 1.
    """
    if grid.d != 1:
        raise NotImplementedError("measure projection is implemented for d=1")
    if mu.atoms is not None:
        weights = np.zeros(grid.space_shape)
        for x0, m in mu.atoms:
            weights[_atom_index(x0, grid)] += m
        return DiscreteMeasure(weights)
    if abs(grid.D - 1.0) > 1e-12:
        raise ValueError(f"a cumulative mass lives on the unit torus; "
                         f"the grid has period D = {grid.D!r}, not 1")
    weights = np.diff(mu.cdf((np.arange(grid.N_X + 1) - 0.5) * grid.dx))
    # the difference of a nondecreasing cdf can round slightly below zero
    weights[weights < 0] = 0.0
    return DiscreteMeasure(weights)


def invert_transport_map(t: float, x, w: float):
    """Solve T_t(y) = x for y, where T_t(y) = y + t sin(2 pi w y)/(4 pi w).

    T_t is strictly increasing (T_t' >= 1/2 for t <= 1), so the solution is
    unique, and Newton from y = x converges to it. For integer w, T_t(y + 1)
    = T_t(y) + 1, so x may be a lifted coordinate. Vectorized over x. Falls
    back to bisection where Newton fails to reach |T_t(y) - x| <=
    INVERSION_TOL.
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
        if not np.isfinite(w) or w != round(w) or w == 0:
            raise ValueError(f"case 1 requires a nonzero integer w, got {w!r}")

        F0 = _cosine_cdf(w)

        def cdf(t, x):
            # the slice is the cosine pushed forward by T_t: F_0(T_t^{-1}(x))
            return F0(invert_transport_map(t, x, w))

        def v(t, x):
            y = invert_transport_map(t, wrap(x), w)
            return np.sin(2.0 * np.pi * w * y) / (4.0 * np.pi * w)

        sol = AnalyticSolution(
            cost=1.0 / (64.0 * np.pi ** 2 * w ** 2),
            cdf=cdf, v=v, phi=None)
        return cosine(w), uniform(), sol

    if case_id == 2:
        w = DEFAULT_W[2] if w is None else float(w)
        if not 0.0 < w < 0.25:
            raise ValueError("case 2 requires 0 < w < 1/4")

        def cdf(t, x):
            return _triangle_cdf((1.0 + t) * w)(x)

        def v(t, x):
            return wrap(x) / (1.0 + t)

        def phi(t, x):
            return wrap(x) ** 2 / (2.0 * (1.0 + t))

        sol = AnalyticSolution(
            cost=w ** 2 / 12.0,
            cdf=cdf, v=v, phi=phi)
        return triangle(w), double_triangle(w), sol

    if case_id == 3:
        w = DEFAULT_W[3] if w is None else float(w)
        if not 0.0 < w < 0.5:
            raise ValueError("case 3 requires 0 < w < 1/2")
        s = 0.5 - w

        def cdf(t, x):
            # two boxes t s <= |x| <= t s + w, and t s + w <= s + w = 1/2
            return _box_pair_cdf(t * s, min(t * s + w, 0.5))(x)

        def v(t, x):
            return s * np.sign(wrap(x))

        def phi(t, x):
            return np.abs(wrap(x)) * s - 0.5 * s ** 2 * t

        sol = AnalyticSolution(
            cost=0.5 * s ** 2,
            cdf=cdf, v=v, phi=phi)
        return box(w), double_box(w), sol

    raise ValueError(f"unknown test case {case_id!r}")

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

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cost import CostModel
from .grid import (GridSpec, _axis_diffs, _stencil_scratch, _stencils, default_monotone_radius,
                   viscosity_interval)
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


def _scratch(psi: np.ndarray, grid: GridSpec) -> tuple:
    """Scratch through which _step steps fields of psi's shape and dtype:
    the gradient, (d, *psi.shape), and grid._stencil_scratch."""
    return (np.empty((grid.d,) + psi.shape, np.result_type(psi, 1.0)),
            _stencil_scratch(psi, grid.d))


def _step(psi: np.ndarray, params: SchemeParams, out: np.ndarray, scratch: tuple) -> np.ndarray:
    """S(psi) into out, which shares no memory with psi, through scratch
    (_scratch of psi); returns out. The operations are those of the
    formula, in its order, on the centred gradient and the Laplacian of
    grid._stencils; the result is formed in out, which holds the Laplacian
    first."""
    g = params.grid
    grad, stencil = scratch
    _stencils(psi, g, grad, out, stencil)
    h = params.cost.eval_H(grad)
    out *= g.eps
    np.subtract(h, out, out=out)
    out *= g.dt
    return np.subtract(psi, out, out=out)


def scheme_step(psi: np.ndarray, params: SchemeParams) -> np.ndarray:
    """One explicit step of the vanishing-viscosity scheme, over any leading
    batch axes of psi, into a new array. It is _step with scratch of its
    own: bit for bit the formula psi - dt * (H(grad_D psi) - eps * lap_D psi)
    composed from centered_gradient, discrete_laplacian and cost.eval_H, in
    that order of operations."""
    out = np.empty(psi.shape, np.result_type(psi, 1.0))
    return _step(psi, params, out, _scratch(psi, params.grid))


def solve_ivp(phi0: np.ndarray, params: SchemeParams) -> np.ndarray:
    """Iterate the scheme N_T times; slice i of the output is Phi^i.

    phi0 may carry leading batch axes, (*batch, *space): the output is then
    (N_T + 1, *batch, *space), and each batch member's trajectory equals its
    own solve_ivp call bit for bit, since the scheme is elementwise across
    them. The trailing axes must be the grid's space_shape, and every
    member must be finite.

    Each slice is stepped straight into the next one by _step, bit for bit
    scheme_step, through scratch allocated once per call and dropped on
    return: the output shares memory with nothing else.
    """
    g = params.grid
    if np.shape(phi0)[-g.d:] != g.space_shape:
        raise ValueError(f"initial data of shape {np.shape(phi0)} does not end in "
                         f"the grid's space shape {g.space_shape}")
    if not np.isfinite(phi0).all():
        raise ValueError("initial data must be finite")
    out = np.empty((g.N_T + 1,) + np.shape(phi0), dtype=float)
    out[0] = phi0
    scratch = _scratch(out[0], g)
    for i in range(g.N_T):
        _step(out[i], params, out[i + 1], scratch)
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
    """Largest one-sided difference quotient magnitude over all axes, or NaN.

    psi may carry leading axes, a whole trajectory for instance: the result
    is then the maximum over its slices, NaN if any slice holds a NaN.
    """
    worst = None
    for k, axis_scratch in enumerate(_stencil_scratch(psi, grid.d)):
        fwd = _axis_diffs(psi, k - grid.d, axis_scratch)[0]
        top = np.maximum.reduce(np.abs(fwd, out=fwd), axis=None)
        # maximum, unlike max, keeps a NaN
        worst = top if worst is None else np.maximum(worst, top)
    return float(worst) / grid.dx


# the fractions of the bracket that each refinement round of hopf_lax
# evaluates: 64 cells, of which the two around the argmin are kept
_ROUND = np.linspace(0.0, 1.0, 65)
_SHRINK = (len(_ROUND) - 1) / 2
# scan points hopf_lax evaluates per block of x, which bounds its memory
_SCAN_BLOCK = 1 << 16


def hopf_lax(phi0, t: float, x, cost: CostModel, grid: GridSpec):
    """Viscosity solution phi(t, x) = inf_y phi0(y) + t L((x - y)/t).

    phi0 is an elementwise callable on arrays of canonical torus
    coordinates. x is a float, which gives a float, or an array of points,
    which gives an array of its shape. The infimum is approximated by
    scanning displacements |x - y| <= lip_H(R) t + dx (the maximal
    characteristic speed for slope-R data) on a grid 8 times finer than dx.
    The two cells around the best candidate are then refined in rounds: each
    evaluates 65 evenly spaced points across the bracket and keeps the two
    cells around their argmin, so the bracket shrinks 32-fold. The round
    count is fixed from the initial bracket so that it ends at 1e-10 or
    below, whatever the float spacing of y. The smallest value evaluated is
    returned. Each x keeps its own bracket and round count, so a value does
    not depend on the other points of the array. The points are evaluated in
    blocks of at most _SCAN_BLOCK scan points each. Implemented for d = 1;
    t and every x must be finite, and t must not be negative: t = 0 gives
    phi0(x).
    """
    if grid.d != 1:
        raise NotImplementedError("hopf_lax is implemented for d=1")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if t < 0.0:
        raise ValueError(f"t must not precede the initial time 0, got {t!r}")
    xs = np.asarray(x, dtype=float)
    if not (math.isfinite(xs) if xs.ndim == 0 else np.isfinite(xs).all()):
        raise ValueError(f"x must be finite, got {x!r}")
    if t == 0.0:
        return float(phi0(xs)) if xs.ndim == 0 else np.array(phi0(xs), dtype=float)
    offsets = _scan_offsets(cost.lip_H(grid.R) * t + grid.dx, grid.dx / 8)
    if xs.ndim == 0:
        return float(_hopf_lax_rows(phi0, t, xs.reshape(1, 1), offsets, cost, grid.D)[0])
    flat = xs.reshape(-1, 1)
    out = np.empty(len(flat))
    block = max(1, _SCAN_BLOCK // len(offsets))
    for s in range(0, len(flat), block):
        out[s:s + block] = _hopf_lax_rows(phi0, t, flat[s:s + block], offsets, cost, grid.D)
    return out.reshape(xs.shape)


@functools.lru_cache(maxsize=8)
def _scan_offsets(window: float, fine: float) -> np.ndarray:
    """The displacements of hopf_lax's scan, -window to window at most fine
    apart. Cached, because one-point calls at one t share them."""
    offsets = np.linspace(-window, window, int(np.ceil(2.0 * window / fine)) + 1)
    offsets.flags.writeable = False
    return offsets


def _hopf_lax_rows(phi0, t, x, offsets, cost, D):
    """hopf_lax's scan and refinement for the column of points x, (m, 1).

    The scan and each round evaluate all their rows in one value call. Each
    row's bracket is a column entry of lo and of its width w. The rows are
    ordered by their round count, largest first, so the rows still refining
    in a round are a leading block of the arrays.
    """
    def value(y):
        return phi0(wrap(y, D)) + t * cost.eval_L((x[:len(y)] - y)[None] / t)

    m = len(x)
    best, lo, w = np.empty(m), np.empty((m, 1)), np.empty((m, 1))
    y = x + offsets
    _narrow(y, value(y), best, lo, w, True)
    rounds = [max(0, math.ceil(math.log(v, _SHRINK))) for v in (w / 1e-10).ravel().tolist()]
    order = sorted(range(m), key=rounds.__getitem__, reverse=True)
    moved = order != list(range(m))
    if moved:
        x, best, lo, w = x[order], best[order], lo[order], w[order]
        rounds = [rounds[i] for i in order]
    live = m
    for r in range(rounds[0]):
        while rounds[live - 1] <= r:
            live -= 1
        y = lo[:live] + w[:live] * _ROUND
        _narrow(y, value(y), best, lo, w, False)
    if not moved:
        return best
    out = np.empty(m)
    out[order] = best
    return out


def _narrow(y, vals, best, lo, w, first: bool) -> None:
    """For each row i of y: the two cells around the argmin of vals[i] become
    its bracket, lo[i] and width w[i], and best[i] takes the value there if
    first or if it is smaller, as min(best, value) compares floats."""
    last = y.shape[1] - 1
    for i, j in enumerate(vals.argmin(axis=1).tolist()):
        v = vals[i, j]
        if first or v < best[i]:
            best[i] = v
        a, b = y[i, max(j - 1, 0)], y[i, min(j + 1, last)]
        lo[i, 0], w[i, 0] = a, b - a


def _draw_anchors(grid: GridSpec, radius: float, rng: np.random.Generator, count: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(count, n, d) anchors and (count, n) values of count random_cr_field
    draws, taken from rng in the order of consecutive calls."""
    n_anchors = max(3, grid.N_X // 4)
    anchors = np.empty((count, n_anchors, grid.d), dtype=np.int64)
    values = np.empty((count, n_anchors))
    for i in range(count):
        anchors[i] = rng.integers(0, grid.N_X, size=(n_anchors, grid.d))
        # amplitude of order radius*D so that several anchors stay active
        values[i] = rng.uniform(-radius * grid.D, radius * grid.D, size=n_anchors)
    return anchors, values


def _envelopes(anchors: np.ndarray, values: np.ndarray, radius: float, grid: GridSpec):
    """McShane envelopes min_k (values_k + radius * dx * dist(j, anchors_k)),
    (B, n, d) anchors and (B, n) values -> (B, *space). The per-axis terms of
    dist come from one O(N_X) table seen through a sliding window (row N_X - p
    is the torus distance from p); one anchor at a time keeps every
    temporary at the output's size."""
    B, N, d = anchors.shape[0], grid.N_X, grid.d
    j = np.arange(N)
    rows = np.lib.stride_tricks.sliding_window_view(
        np.tile(np.minimum(j, N - j).astype(float), 2), N)
    out = None
    for k in range(anchors.shape[1]):
        env = rows[N - anchors[:, k, 0]].reshape((B, N) + (1,) * (d - 1))
        for ax in range(1, d):
            shape = (B,) + (1,) * ax + (N,) + (1,) * (d - 1 - ax)
            env = env + rows[N - anchors[:, k, ax]].reshape(shape)
        env *= radius * grid.dx
        env += values[:, k].reshape((B,) + (1,) * d)
        out = env if out is None else np.minimum(out, env, out=out)
    return out


def random_cr_field(grid: GridSpec, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Random field whose difference quotients are bounded by radius.

    Built as a periodic McShane envelope min_k (c_k + radius * dx * dist(j, k))
    over max(3, N_X // 4) random anchors, with dist the l1 torus distance in
    index space; the envelope inherits the per-axis slope bound.
    """
    return _envelopes(*_draw_anchors(grid, radius, rng, 1), radius, grid)[0]


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


# elements (trials x cells) that check_monotone steps per batch
_BATCH = 8192


def check_monotone(params: SchemeParams, trials: int = 1000, seed: int = 0) -> MonotoneReport:
    """Randomized check of scheme monotonicity on ordered C_{R+delta} pairs.

    For each trial draws psi <= psi' with slopes bounded by monotone_on and
    asserts S(psi) <= S(psi') elementwise, plus the sup-norm
    non-expansiveness |S(psi) - S(psi')|_inf <= |psi - psi'|_inf.

    Trials run in batches of _BATCH elements (trials x cells), drawn in
    random_cr_pair's rng order and stepped as one field per side, with
    scheme_step's arithmetic, into buffers and through scratch allocated
    once per call (and once more for a shorter last batch), so memory stays
    O(_BATCH + cells), with no cells x cells table. Min, max and the stencil
    are elementwise: for every seed the report equals that of
    one-at-a-time trials.
    """
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be at least 1 and an integer, got {trials!r}")
    g, radius = params.grid, params.monotone_on
    rng = np.random.default_rng(seed)
    size = max(1, _BATCH // math.prod(g.space_shape))
    space = tuple(range(1, g.d + 1))
    steps = np.empty((2, size) + g.space_shape)
    scratch = _scratch(steps[0], g)
    bad, worst = [0, 0], [0.0, 0.0]
    for start in range(0, trials, size):
        # fields 2t and 2t + 1 of a batch are the pair of its trial t
        count = 2 * min(size, trials - start)
        fields = _envelopes(*_draw_anchors(g, radius, rng, count), radius, g)
        lo, hi = np.minimum(fields[0::2], fields[1::2]), np.maximum(fields[0::2], fields[1::2])
        if len(lo) < size:
            # the last batch, shorter than the scratch
            scratch = _scratch(lo, g)
        s_lo = _step(lo, params, steps[0, :len(lo)], scratch)
        s_hi = _step(hi, params, steps[1, :len(hi)], scratch)
        gap = np.max(s_lo - s_hi, axis=space)
        excess = np.max(np.abs(s_lo - s_hi), axis=space) - np.max(np.abs(lo - hi), axis=space)
        for i, value in enumerate((gap, excess)):
            over = value[value > 1e-12]
            if over.size:
                bad[i] += over.size
                worst[i] = max(worst[i], float(over.max()))
    return MonotoneReport(trials, bad[0], worst[0], bad[1], worst[1])

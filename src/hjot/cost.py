"""Lagrangian/Hamiltonian cost models and the pointwise constraint projection.

A cost model bundles a strictly convex Lagrangian L with its Legendre
transform H and the Lipschitz constants of L and H on balls.
Velocity/gradient arguments are arrays with a leading component axis of
length d; all maps evaluate pointwise over the trailing axes.

Supported kinds: 'quadratic' (L(v)=|v|^2/2) and 'power' with exponent
p in (1, inf) (L(v)=|v|^p/p, H(w)=|w|^q/q with 1/p+1/q=1). Both drive the
Hamilton-Jacobi scheme; only the quadratic model has the projection onto
{s + H(w) <= 0} that the saddle-point solver needs, and assemble_problem
refuses the other kinds.
"""
from __future__ import annotations

import numpy as np

# residual |g| below which project_onto_K accepts a root of its cubic
ROOT_TOL = 1e-12


def _sum_of_squares(v) -> np.ndarray:
    """Sum of v**2 over the leading component axis. A square is never -0.0,
    so a single component is its own sum, bit for bit, without a pass of the
    reduction."""
    sq = np.square(v)
    return sq[0] if len(sq) == 1 else np.add.reduce(sq, axis=0)


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the leading component axis."""
    return np.sqrt(_sum_of_squares(v))


class CostModel:
    """Base interface; use QuadraticCost, PowerCost or make_cost."""

    kind: str
    p: float
    q: float

    def eval_L(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_H(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def lip_L(self, r: float) -> float:
        """Lipschitz constant of L on the ball of radius r."""
        raise NotImplementedError

    def lip_H(self, r: float) -> float:
        """Lipschitz constant of H on the ball of radius r."""
        raise NotImplementedError


class QuadraticCost(CostModel):
    """L(v) = |v|^2/2, H(w) = |w|^2/2."""

    kind = "quadratic"
    p = 2.0
    q = 2.0

    def eval_L(self, v):
        return 0.5 * _sum_of_squares(v)

    def eval_H(self, w):
        return 0.5 * _sum_of_squares(w)

    def lip_L(self, r):
        return float(r)

    def lip_H(self, r):
        return float(r)

    def project_onto_K(self, a, b, out, work, mask):
        """Euclidean projection of (a, b) onto {(s, w): s + |w|^2/2 <= 0}.

        Feasible points are returned unchanged. For the rest the KKT system
        reduces to the scalar root problem

            g(lambda) = (a - lambda) + |b|^2 / (2 (1+lambda)^2) = 0

        with a unique root lambda >= 0; the projection is
        (s, w) = (a - lambda, b / (1+lambda)). lambda is the root in closed
        form (_cubic_start) where that meets |g| <= ROOT_TOL; the cells it
        misses are bisected (_bisect_root). An infeasible cell whose a or
        |b|^2/2 is not finite (|b|^2 overflows, say) comes back NaN, as a
        NaN a or b comes back NaN. Each cell's answer depends on that cell
        alone, not on the others in the array.

        The closed form runs on whole arrays, feasible cells included, with
        no boolean indexing. On feasible cells lambda is then set to 0, so
        a - 0 and b / 1 return them unchanged, and the residual g to 0, so
        none of them is bisected.

        a has any shape, b has a leading component axis over the same shape.
        The result goes into out, a pair (s, w) of float arrays shaped like a
        and b that share no memory with them, which is returned. The caller
        also passes the scratch: work, six float arrays, and mask, a bool
        array, all shaped like a. The model itself holds no state.
        """
        s, w = out
        half_b2, lam, opl, opl2, tmp, g = work
        np.multiply(b[0], b[0], out=half_b2)
        for k in range(1, b.shape[0]):
            np.multiply(b[k], b[k], out=tmp)
            half_b2 += tmp
        half_b2 *= 0.5
        np.add(a, half_b2, out=tmp)
        np.greater(tmp, 0, out=mask)
        # not less_equal, which would leave a NaN cell out of the feasible ones
        np.logical_not(mask, out=mask)  # the feasible cells
        _cubic_start(a, half_b2, lam, opl, opl2, tmp, g)
        np.copyto(lam, 0.0, where=mask)  # exactly 0, however cbrt rounds
        np.add(1.0, lam, out=opl)
        np.square(opl, out=opl2)
        np.divide(half_b2, opl2, out=g)
        np.subtract(a, lam, out=s)
        g += s
        np.copyto(g, 0.0, where=mask)
        np.absolute(g, out=g)
        # a NaN residual makes the max NaN, which fails the test too
        if not g.max() <= ROOT_TOL:
            np.less_equal(g, ROOT_TOL, out=mask)
            np.logical_not(mask, out=mask)  # the cells the closed form misses
            miss_a, miss_b2 = a[mask], half_b2[mask]
            finite = np.isfinite(miss_a) & np.isfinite(miss_b2)  # the others stay NaN
            miss_lam = np.full(miss_a.shape, np.nan)
            miss_lam[finite] = _bisect_root(miss_a[finite], miss_b2[finite])
            lam[mask] = miss_lam
            np.add(1.0, lam, out=opl)
            np.subtract(a, lam, out=s)
        np.divide(b, opl, out=w)
        return s, w


def _cubic_start(a, half_b2, lam, u, u2, t, x):
    """Cardano's root lambda >= 0 of g = (a - lambda) + B/(1+lambda)^2, B = half_b2,
    into lam: mu = 1 + lambda solves mu^3 - 3u mu^2 = B, u = (1+a)/3, and where
    u^3 + B/4 >= 0 is mu = u + s + u^2/s, s^3 = u^3 + B/2 + sqrt(B) sqrt(u^3 + B/4);
    elsewhere, and where a term overflows to NaN, lam is 0. u, u2, t, x are
    scratch; no warning is emitted."""
    with np.errstate(all="ignore"):
        np.add(1.0, a, out=u)
        u /= 3.0
        np.square(u, out=u2)
        np.multiply(u2, u, out=t)
        np.multiply(0.25, half_b2, out=x)
        x += t
        np.sqrt(x, out=x)  # NaN where the discriminant is negative
        np.sqrt(half_b2, out=lam)
        x *= lam
        np.multiply(0.5, half_b2, out=lam)
        t += lam
        t += x
        np.cbrt(t, out=t)
        np.divide(u2, t, out=x)
        np.add(u, t, out=lam)
        lam += x
        lam -= 1.0
        np.fmax(lam, 0.0, out=lam)  # also turns NaN into 0


# bit pattern of the largest finite float; nonnegative floats order as
# their int64 bit patterns
_TOP = np.finfo(float).max.view(np.int64)


def _bisect_root(a, half_b2):
    """The root lambda >= 0 of g = (a - lambda) + B/(1+lambda)^2, B = half_b2,
    for 1-d arrays with a + B > 0, each cell on its own: a binary search over
    the bit patterns of [0, largest finite float] until the bracket holds two
    adjacent floats, whose midpoint is returned. g <= 0 at the top, where
    (1+lambda)^2 overflows and B / inf = 0 is g's limit. Where B = 0 the root
    is a, and the bracket starts at [a, a]."""
    def g(lam):
        return (a - lam) + half_b2 / (1.0 + lam) ** 2

    with np.errstate(over="ignore"):
        lo = np.where(half_b2 == 0, a, 0.0).view(np.int64)
        hi = np.where(half_b2 == 0, lo, _TOP)
        # at most 63 rounds: the widest bracket spans fewer than 2^63 patterns
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            pos = g(mid.view(float)) > 0
            lo = np.where(pos, mid, lo)
            hi = np.where(pos, hi, mid)
        mid = 0.5 * (lo.view(float) + hi.view(float))
        # g cancels terms of size |a| + B, so its rounding error grows with
        # them and the accepted residual must too
        if not np.all(np.abs(g(mid)) <= 1e3 * ROOT_TOL * np.maximum(1.0, np.abs(a) + half_b2)):
            raise RuntimeError("projection onto K did not converge")
    return mid


class PowerCost(CostModel):
    """L(v) = |v|^p / p with conjugate H(w) = |w|^q / q, 1/p + 1/q = 1."""

    kind = "power"

    def __init__(self, p: float):
        if not 1 < p < np.inf:
            raise ValueError(f"power cost requires a finite p > 1, got {p!r}")
        self.p = float(p)
        self.q = self.p / (self.p - 1.0)

    def eval_L(self, v):
        return _norm(np.asarray(v, dtype=float)) ** self.p / self.p

    def eval_H(self, w):
        return _norm(np.asarray(w, dtype=float)) ** self.q / self.q

    def lip_L(self, r):
        return float(r) ** (self.p - 1.0)

    def lip_H(self, r):
        return float(r) ** (self.q - 1.0)


def make_cost(spec: str) -> CostModel:
    """Parse a cost descriptor: 'quadratic' or 'power:p' (e.g. 'power:3')."""
    if spec == "quadratic":
        return QuadraticCost()
    if spec.startswith("power:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed cost descriptor {spec!r}") from None
        return PowerCost(p)
    raise ValueError(f"unknown cost kind {spec!r}")

"""Lagrangian/Hamiltonian cost models and the pointwise constraint projection.

A cost model bundles a strictly convex Lagrangian L with its Legendre
transform H, the Lipschitz constants of L and H on balls, and the
projection onto {s + H(w) <= 0} that the optimizer needs. Velocity/gradient
arguments are arrays with a leading component axis of length d; all maps
evaluate pointwise over the trailing axes.

Supported kinds: 'quadratic' (L(v)=|v|^2/2) and 'power' with exponent
p in (1, inf) (L(v)=|v|^p/p, H(w)=|w|^q/q with 1/p+1/q=1).
"""
from __future__ import annotations

import numpy as np

# residual |g| at which project_onto_K's Newton steps stop, and their cap
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
# after a first step the stop also accepts |g| of a few roundings of its terms
_ROUNDING = 4 * np.finfo(float).eps


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the leading component axis."""
    return np.sqrt(np.sum(v * v, axis=0))


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

    def project_onto_K(self, a, b, out=None):
        raise NotImplementedError


class QuadraticCost(CostModel):
    """L(v) = |v|^2/2, H(w) = |w|^2/2."""

    kind = "quadratic"
    p = 2.0
    q = 2.0
    _newton: tuple = ()

    def eval_L(self, v):
        return 0.5 * np.sum(np.asarray(v) ** 2, axis=0)

    def eval_H(self, w):
        return 0.5 * np.sum(np.asarray(w) ** 2, axis=0)

    def lip_L(self, r):
        return float(r)

    def lip_H(self, r):
        return float(r)

    def project_onto_K(self, a, b, out=None):
        """Euclidean projection of (a, b) onto {(s, w): s + |w|^2/2 <= 0}.

        Feasible points are returned unchanged. For the rest the KKT system
        reduces to the scalar root problem

            g(lambda) = (a - lambda) + |b|^2 / (2 (1+lambda)^2) = 0

        with a unique root lambda >= 0; the projection is
        (s, w) = (a - lambda, b / (1+lambda)). Newton starts at the root in
        closed form (_cubic_start), or at lambda = 0 where that is undefined;
        g is convex and decreasing on lambda > -1. It stops at |g| <=
        NEWTON_TOL; after the first step, also at |g| <= _ROUNDING (|a -
        lambda| + |b|^2 / (2 (1+lambda)^2)), since g's rounding error grows
        with its terms; and where a step no longer changes lambda, which then
        ends at the midpoint of lambda and its neighbour float across the
        root, as the bisection would. Cells unconverged after NEWTON_MAX_ITER
        steps are bisected on the bracket [0, a + H(b)] (geometrically
        widened) down to two adjacent floats.

        The Newton steps run on whole arrays, with no boolean indexing:
        feasible cells are padded with a = 0, |b|^2 = 0, so they converge
        at the first step and keep lambda = 0, and a - 0 and b / 1 return
        them unchanged. Converged cells keep their lambda, as before. The
        arrays are held by the cost model and reused while the shape stays
        the same, so one model must not project from two threads at once.

        a has any shape, b has a leading component axis over the same shape.
        out, when given, is a pair (s, w) of arrays shaped like a and b; it
        may be (a, b) itself for an in-place projection.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        s, w = (np.empty_like(a), np.empty_like(b)) if out is None else out
        a_pad, b2, half_b2, lam, opl, opl2, tmp, g, infeas, converged, active = \
            self._newton_arrays(a.shape)
        np.multiply(b[0], b[0], out=b2)
        for k in range(1, b.shape[0]):
            np.multiply(b[k], b[k], out=tmp)
            b2 += tmp
        np.multiply(0.5, b2, out=half_b2)
        np.add(a, half_b2, out=tmp)
        np.greater(tmp, 0, out=infeas)
        if not infeas.any():
            np.copyto(s, a)
            np.copyto(w, b)
            return s, w
        # pad the feasible cells with a = 0, |b|^2 = 0: there g(0) = 0, so
        # they converge at the first step and keep lambda = 0
        np.logical_not(infeas, out=converged)
        np.copyto(a_pad, a)
        for arr in (a_pad, b2, half_b2):
            np.copyto(arr, 0.0, where=converged)
        _cubic_start(a_pad, half_b2, lam, opl, opl2, tmp, g, active)
        np.copyto(lam, 0.0, where=converged)  # exactly 0, however cbrt rounds
        tol = NEWTON_TOL
        stalled = False
        for _ in range(NEWTON_MAX_ITER):
            np.add(1.0, lam, out=opl)
            np.square(opl, out=opl2)
            np.divide(half_b2, opl2, out=g)
            np.subtract(a_pad, lam, out=tmp)
            if tol is not NEWTON_TOL:
                np.add(np.absolute(tmp, out=tol), g, out=tol)
                np.maximum(np.multiply(tol, _ROUNDING, out=tol), NEWTON_TOL, out=tol)
            g += tmp
            np.absolute(g, out=tmp)
            np.less_equal(tmp, tol, out=converged)
            if converged.all():
                stalled = False  # a stalled cell can meet the relative stop later
                break
            if tol is NEWTON_TOL:
                tol = np.empty_like(tmp)
            # (1 + lambda)^3 as a product with the kept square, cheaper than pow
            np.multiply(opl2, opl, out=tmp)
            np.divide(b2, tmp, out=tmp)
            np.subtract(-1.0, tmp, out=tmp)
            np.divide(g, tmp, out=tmp)
            np.subtract(lam, tmp, out=opl)
            # a step that no longer changes lambda cannot get closer to the
            # root; such a cell stalls, and is finished after the loop
            np.logical_not(converged, out=active)
            np.equal(opl, lam, out=infeas)
            infeas &= active
            stalled = infeas.any()
            if stalled:
                converged |= infeas
                if converged.all():
                    break
                np.logical_not(converged, out=active)
            np.copyto(lam, opl, where=active)
        if stalled:
            # a stalled cell's root lies between lambda and its neighbour on
            # the side of g's sign; end as the bisection ends on such a pair
            # of adjacent floats, at their midpoint
            li = lam[infeas]
            lam[infeas] = 0.5 * (li + np.nextafter(li, np.copysign(np.inf, g[infeas])))
        if not converged.all():
            # Newton stalled somewhere; bisect the survivors
            bad = ~converged
            ai = a_pad[bad]
            b2i = b2[bad]
            lo = np.zeros(ai.shape)
            hi = (ai + 0.5 * b2i).copy()
            gb = lambda l: (ai - l) + 0.5 * b2i / (1.0 + l) ** 2
            for _ in range(200):
                if np.all(gb(hi) <= 0):
                    break
                hi *= 2.0
            else:
                raise RuntimeError("projection onto K failed to bracket the root")
            # halve until each bracket holds two adjacent floats, however wide
            # it was; 2200 halvings reach that from any finite bracket
            for _ in range(2200):
                mid = 0.5 * (lo + hi)
                if np.all((mid == lo) | (mid == hi)):
                    break
                pos = gb(mid) > 0
                lo = np.where(pos, mid, lo)
                hi = np.where(pos, hi, mid)
            lam_bad = 0.5 * (lo + hi)
            # g cancels terms of size |a| + |b|^2/2, so its rounding error
            # grows with them and the accepted residual must too
            scale = np.maximum(1.0, np.abs(ai) + 0.5 * b2i)
            if np.any(np.abs(gb(lam_bad)) > 1e3 * NEWTON_TOL * scale):
                raise RuntimeError("projection onto K did not converge")
            lam[bad] = lam_bad
        # lambda = 0 on feasible cells, where a - 0 = a and b / 1 = b exactly
        np.add(1.0, lam, out=opl)
        np.subtract(a, lam, out=s)
        np.divide(b, opl, out=w)
        return s, w

    def _newton_arrays(self, shape: tuple) -> tuple:
        """Scratch arrays of project_onto_K, reallocated when the shape changes."""
        if not self._newton or self._newton[0].shape != shape:
            self._newton = (tuple(np.empty(shape) for _ in range(8))
                            + tuple(np.empty(shape, dtype=bool) for _ in range(3)))
        return self._newton


def _cubic_start(a, half_b2, lam, u, u2, t, x, bad):
    """Cardano's root lambda >= 0 of g = (a - lambda) + B/(1+lambda)^2, B = half_b2,
    into lam: mu = 1 + lambda solves mu^3 - 3u mu^2 = B, u = (1+a)/3, and where
    u^3 + B/4 >= 0 is mu = u + s + u^2/s, s^3 = u^3 + B/2 + sqrt(B) sqrt(u^3 + B/4);
    elsewhere lam is 0. u, u2, t, x, bad are scratch; no warning is emitted."""
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
        # Newton's (1+lambda)^3 overflows above 5.6e102; start there from 0
        np.copyto(lam, 0.0, where=np.greater(lam, 1e100, out=bad))


class PowerCost(CostModel):
    """L(v) = |v|^p / p with conjugate H(w) = |w|^q / q, 1/p + 1/q = 1."""

    kind = "power"

    def __init__(self, p: float):
        if not p > 1:
            raise ValueError("power cost requires p > 1")
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

    def project_onto_K(self, a, b, out=None):
        raise NotImplementedError(
            "projection onto {s + H(w) <= 0} is only implemented for the "
            "quadratic cost; the saddle-point solver supports quadratic runs only")


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

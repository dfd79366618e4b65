import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjot.cost import NEWTON_TOL, PowerCost, QuadraticCost, make_cost
from hjot.grid import make_grid
from hjot.transport import PrimalVars, primal_objective

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def project_oracle(a: float, b: np.ndarray, tol: float = 1e-14):
    """Projection onto {s + |w|^2/2 <= 0} by bisection on the KKT scalar.

    Independent of the library's Newton solve: brackets the root of
    g(lam) = (a - lam) + |b|^2/(2 (1+lam)^2) on [0, hi] and bisects.
    """
    b = np.asarray(b, dtype=float)
    b2 = float(b @ b)
    if a + 0.5 * b2 <= 0:
        return a, b
    g = lambda lam: (a - lam) + 0.5 * b2 / (1.0 + lam) ** 2
    lo, hi = 0.0, a + 0.5 * b2
    while g(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return a - lam, b / (1.0 + lam)


def test_quadratic_values(quad):
    v = np.array([[3.0]])
    assert quad.eval_L(v) == pytest.approx(4.5)
    assert quad.eval_H(v) == pytest.approx(4.5)
    assert quad.lip_L(0.7) == 0.7
    assert quad.lip_H(0.7) == 0.7
    assert quad.p == quad.q == 2.0


def test_project_feasible_identity(quad):
    s, w = quad.project_onto_K(np.array(-1.0), np.array([0.0]))
    assert s == -1.0 and w[0] == 0.0


def test_project_boundary_point(quad):
    s, w = quad.project_onto_K(np.array(1.0), np.array([0.0]))
    assert s == pytest.approx(0.0, abs=1e-12)
    assert w[0] == 0.0


def test_project_kkt_example(quad):
    # (0, 2): lambda solves lam (1+lam)^2 = 2
    s, w = quad.project_onto_K(np.array(0.0), np.array([2.0]))
    lam = -float(s)
    assert lam * (1.0 + lam) ** 2 == pytest.approx(2.0, abs=1e-10)
    assert float(w[0]) == pytest.approx(2.0 / (1.0 + lam), abs=1e-10)
    # projected point sits on the boundary
    assert float(s) + 0.5 * float(w[0]) ** 2 == pytest.approx(0.0, abs=1e-12)


def test_project_matches_bisection_on_100_points(quad):
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-2.0, 2.0, size=1)
        s, w = quad.project_onto_K(np.array(a), b.reshape(1, 1)[:, 0])
        s_ref, w_ref = project_oracle(a, b)
        assert abs(float(s) - s_ref) <= 1e-10
        assert np.max(np.abs(np.asarray(w, dtype=float).ravel() - w_ref)) <= 1e-10


def test_project_vectorized_matches_scalar(quad):
    rng = np.random.default_rng(8)
    a = rng.uniform(-2.0, 2.0, size=(5, 6))
    b = rng.uniform(-2.0, 2.0, size=(1, 5, 6))
    s, w = quad.project_onto_K(a, b)
    for i in range(5):
        for j in range(6):
            s_ref, w_ref = project_oracle(a[i, j], b[:, i, j])
            assert abs(s[i, j] - s_ref) <= 1e-10
            assert abs(w[0, i, j] - w_ref[0]) <= 1e-10


def test_project_extreme_inputs_match_bisection(quad):
    # |b| up to 1e6, a down to -1e6, points on and just outside the boundary
    # a = -|b|^2/2, all in one call so that feasible cells pad the Newton steps
    pts = [(a, sign * b)
           for b in (0.0, 1e-6, 1e-3, 1.0, 1e3, 1e6)
           for a in (-1e6, -1e3, -1.0, 0.0, 1.0, 1e3, 1e6)
           for sign in (1.0, -1.0)]
    pts += [(-0.5 * b * b + shift, b)
            for b in (0.0, 1e-3, 1.0, 1e3, 1414.0) for shift in (0.0, 1e-9, 1e-3)]
    a = np.array([p[0] for p in pts])
    b = np.array([[p[1] for p in pts]])
    s, w = quad.project_onto_K(a, b)
    for i, (ai, bi) in enumerate(pts):
        s_ref, w_ref = project_oracle(ai, np.array([bi]))
        assert abs(s[i] - s_ref) <= NEWTON_TOL, (ai, bi)
        assert abs(w[0, i] - w_ref[0]) <= NEWTON_TOL, (ai, bi)
    # a + |b|^2/2 = 0.5 with terms of size 5e11: Newton cannot reach
    # NEWTON_TOL there, and the bisection fallback must accept its answer
    a_big = -0.5e12 * (1.0 - 1e-12)
    for bi in (1e6, -1e6):
        s, w = quad.project_onto_K(np.array(a_big), np.array([bi]))
        s_ref, w_ref = project_oracle(a_big, np.array([bi]))
        assert abs(float(s) - s_ref) <= NEWTON_TOL * max(1.0, abs(a_big)), bi
        assert abs(float(w[0]) - w_ref[0]) <= NEWTON_TOL * max(1.0, abs(a_big)), bi


@settings(max_examples=200, deadline=None)
@given(a=finite, b=finite)
def test_project_idempotent_and_feasible(a, b):
    quad = QuadraticCost()
    s, w = quad.project_onto_K(np.array(a), np.array([b]))
    assert float(s) + 0.5 * float(w[0]) ** 2 <= 1e-10
    s2, w2 = quad.project_onto_K(s, w)
    assert abs(float(s2) - float(s)) <= 1e-10
    assert abs(float(w2[0]) - float(w[0])) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(a1=finite, b1=finite, a2=finite, b2=finite)
def test_project_nonexpansive(a1, b1, a2, b2):
    quad = QuadraticCost()
    s1, w1 = quad.project_onto_K(np.array(a1), np.array([b1]))
    s2, w2 = quad.project_onto_K(np.array(a2), np.array([b2]))
    dist_in = np.hypot(a1 - a2, b1 - b2)
    dist_out = np.hypot(float(s1) - float(s2), float(w1[0]) - float(w2[0]))
    assert dist_out <= dist_in + 1e-10


def test_legendre_involution_sampled(quad):
    rng = np.random.default_rng(12)
    v_grid = np.linspace(-5.0, 5.0, 20001).reshape(1, -1)
    for _ in range(10):
        w = rng.uniform(-2.0, 2.0)
        vals = w * v_grid[0] - quad.eval_L(v_grid)
        assert abs(vals.max() - float(quad.eval_H(np.array([w])))) < 1e-6


def test_pointwise_cost_midpoint_convex(quad):
    # the perspective cost rho L(m/rho) of one cell, through primal_objective
    g = make_grid(1, 1.0, 4, 4, quad)

    def cell_cost(rho, m):
        lam = PrimalVars.zeros(g)
        lam.lambda_rho[1, 2] = rho
        lam.lambda_m[0, 1, 2] = m
        return primal_objective(lam, g.R, quad)

    rng = np.random.default_rng(13)
    for _ in range(100):
        r1, r2 = rng.uniform(0.1, 2.0, size=2)
        m1, m2 = rng.uniform(-2.0, 2.0, size=2)
        mid = cell_cost((r1 + r2) / 2, (m1 + m2) / 2)
        assert mid <= (cell_cost(r1, m1) + cell_cost(r2, m2)) / 2 + 1e-12


def test_power_cost_basics():
    cost = PowerCost(3.0)
    assert cost.p == 3.0
    assert cost.q == pytest.approx(1.5)
    v = np.array([2.0])
    assert float(cost.eval_L(v)) == pytest.approx(2.0 ** 3 / 3.0)
    # L(0) = 0 and L >= 0
    assert float(cost.eval_L(np.array([0.0]))) == 0.0
    with pytest.raises(NotImplementedError):
        cost.project_onto_K(np.array(1.0), np.array([1.0]))


def test_make_cost_parses():
    assert make_cost("quadratic").kind == "quadratic"
    c = make_cost("power:3")
    assert c.kind == "power" and c.p == 3.0
    with pytest.raises(ValueError):
        make_cost("power:1")  # p must exceed 1
    with pytest.raises(ValueError):
        make_cost("unknown")

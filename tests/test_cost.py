import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjot.cost import ROOT_TOL, PowerCost, QuadraticCost, _cubic_start, make_cost
from hjot.grid import make_grid
from hjot.transport import PrimalVars, primal_objective
from tests.conftest import project

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def project_oracle(a: float, b: np.ndarray, tol: float = 1e-14):
    """Projection onto {s + |w|^2/2 <= 0} by bisection on the KKT scalar.

    Independent of the library's closed form: brackets the root of
    g(lam) = (a - lam) + |b|^2/(2 (1+lam)^2) on [0, hi] and bisects.
    """
    b = np.asarray(b, dtype=float)
    b2 = float(b @ b)
    if a + 0.5 * b2 <= 0:
        return a, b
    # a product, unlike ** 2 (C pow), is rounded correctly and never raises
    g = lambda lam: (a - lam) + 0.5 * b2 / ((1.0 + lam) * (1.0 + lam))
    lo, hi = 0.0, a + 0.5 * b2
    while g(hi) > 0:
        hi *= 2.0
    # halve until the bracket holds two adjacent floats, however wide it was
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cost_values_equal_the_np_sum_formulas_bitwise(d):
    # the sums of squares reduce with np.add.reduce, or not at all for one
    # component; both must equal np.sum's result bit for bit
    rng = np.random.default_rng(d)
    v = rng.standard_normal((d, 4, 9))
    v[0, 0, :4] = [-0.0, 0.0, np.nan, np.inf]
    quad, power = QuadraticCost(), PowerCost(3.0)
    half_sum = 0.5 * np.sum(v ** 2, axis=0)
    norm = np.sqrt(np.sum(v * v, axis=0))
    for got, want in ((quad.eval_L(v), half_sum), (quad.eval_H(v), half_sum),
                      (power.eval_L(v), norm ** power.p / power.p),
                      (power.eval_H(v), norm ** power.q / power.q)):
        assert got.tobytes() == want.tobytes()


def test_project_feasible_identity(quad):
    s, w = project(quad, np.array(-1.0), np.array([0.0]))
    assert s == -1.0 and w[0] == 0.0


def test_project_boundary_point(quad):
    s, w = project(quad, np.array(1.0), np.array([0.0]))
    assert s == pytest.approx(0.0, abs=1e-12)
    assert w[0] == 0.0


def test_project_kkt_example(quad):
    # (0, 2): lambda solves lam (1+lam)^2 = 2
    s, w = project(quad, np.array(0.0), np.array([2.0]))
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
        s, w = project(quad, np.array(a), b.reshape(1, 1)[:, 0])
        s_ref, w_ref = project_oracle(a, b)
        assert abs(float(s) - s_ref) <= 1e-10
        assert np.max(np.abs(np.asarray(w, dtype=float).ravel() - w_ref)) <= 1e-10


def test_project_vectorized_matches_scalar(quad):
    rng = np.random.default_rng(8)
    a = rng.uniform(-2.0, 2.0, size=(5, 6))
    b = rng.uniform(-2.0, 2.0, size=(1, 5, 6))
    s, w = project(quad, a, b)
    for i in range(5):
        for j in range(6):
            s_ref, w_ref = project_oracle(a[i, j], b[:, i, j])
            assert abs(s[i, j] - s_ref) <= 1e-10
            assert abs(w[0, i, j] - w_ref[0]) <= 1e-10


# |b| up to 1e6, a down to -1e6, points on and just outside the boundary
# a = -|b|^2/2
EXTREME_POINTS = [(a, sign * b)
                  for b in (0.0, 1e-6, 1e-3, 1.0, 1e3, 1e6)
                  for a in (-1e6, -1e3, -1.0, 0.0, 1.0, 1e3, 1e6)
                  for sign in (1.0, -1.0)]
EXTREME_POINTS += [(-0.5 * b * b + shift, b)
                   for b in (0.0, 1e-3, 1.0, 1e3, 1414.0) for shift in (0.0, 1e-9, 1e-3)]


def test_project_extreme_inputs_match_bisection(quad):
    # all in one call so that feasible cells pad the closed form
    pts = EXTREME_POINTS
    a = np.array([p[0] for p in pts])
    b = np.array([[p[1] for p in pts]])
    s, w = project(quad, a, b)
    for i, (ai, bi) in enumerate(pts):
        s_ref, w_ref = project_oracle(ai, np.array([bi]))
        assert abs(s[i] - s_ref) <= ROOT_TOL, (ai, bi)
        assert abs(w[0, i] - w_ref[0]) <= ROOT_TOL, (ai, bi)
    # a + |b|^2/2 = 0.5 with terms of size 5e11: the closed form cannot
    # reach ROOT_TOL there, and the bisection must accept its answer
    a_big = -0.5e12 * (1.0 - 1e-12)
    for bi in (1e6, -1e6):
        s, w = project(quad, np.array(a_big), np.array([bi]))
        s_ref, w_ref = project_oracle(a_big, np.array([bi]))
        assert abs(float(s) - s_ref) <= ROOT_TOL * max(1.0, abs(a_big)), bi
        assert abs(float(w[0]) - w_ref[0]) <= ROOT_TOL * max(1.0, abs(a_big)), bi


def test_cubic_start_alone_meets_root_tol():
    # wider than the projection inputs of the benchmark solves
    a, half_b2 = (x.ravel() for x in np.meshgrid(np.linspace(-0.2, 5.0, 105),
                                                 np.linspace(0.0, 3.0, 61)))
    keep = a + half_b2 > 0
    a, half_b2 = a[keep], half_b2[keep]
    lam = np.empty_like(a)
    scratch = [np.empty_like(a) for _ in range(4)]
    _cubic_start(a, half_b2, lam, *scratch)
    g = (a - lam) + half_b2 / (1.0 + lam) ** 2
    assert np.all(lam >= 0)
    assert np.max(np.abs(g)) <= ROOT_TOL
    # undefined roots are 0: a negative discriminant, cubes that overflow
    a, half_b2 = np.array([-6.0, -1e120, 1e200]), np.array([250.0 / 27.0, 5e121, 0.0])
    _cubic_start(a, half_b2, lam[:3], *(x[:3] for x in scratch))
    assert np.array_equal(lam[:3], np.zeros(3))


def test_project_warns_nowhere_and_matches_bisection(quad):
    # the discriminant 4 (1+a)^3 + 27 |b|^2/2 is negative at the first point,
    # and (1+a)^3 overflows at the second; the closed form misses both
    pts = [(-6.0, 4.303314829119352), (-1e120, 1e61)] + EXTREME_POINTS
    a = np.array([p[0] for p in pts])
    b = np.array([[p[1] for p in pts]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, w = project(quad, a, b)
        single = [project(quad, np.array(ai), np.array([bi])) for ai, bi in pts]
        # the closed form misses the root lambda = a here, and the bisection
        # returns it exactly, from the bracket [a, a] of b = 0
        big = project(quad, np.array(7e102), np.array([0.0]))
    assert float(big[0]) == 0.0 and float(big[1][0]) == 0.0
    for i, (ai, bi) in enumerate(pts):
        s_ref, w_ref = project_oracle(ai, np.array([bi]))
        for got_s, got_w in ((s[i], w[0, i]), (float(single[i][0]), float(single[i][1][0]))):
            assert abs(got_s - s_ref) <= ROOT_TOL * max(1.0, abs(s_ref)), (ai, bi)
            assert abs(got_w - w_ref[0]) <= ROOT_TOL * max(1.0, abs(w_ref[0])), (ai, bi)


def test_project_mixed_arrays_keep_feasible_cells_bitwise(quad):
    rng = np.random.default_rng(21)
    a = rng.uniform(-3.0, 5.0, size=(7, 40))
    b = rng.uniform(-3.0, 3.0, size=(2, 7, 40))
    feasible = a + 0.5 * np.sum(b * b, axis=0) <= 0
    assert 0 < feasible.sum() < feasible.size
    s, w = project(quad, a, b)
    assert np.array_equal(s[feasible], a[feasible])
    assert np.array_equal(w[:, feasible], b[:, feasible])
    lam = a - s  # the multiplier, which is >= 0
    assert np.all(lam >= 0)
    assert np.allclose(w * (1.0 + lam), b, rtol=1e-14, atol=0)


def test_project_feasible_cells_keep_their_bits(quad):
    # -0.0 and a NaN a among feasible cells: lambda is pinned to 0 there, so
    # a - 0 and b / 1 give back the same bits, with or without an
    # infeasible cell in the array
    a = np.array([-1.0, -0.0, np.nan, -3.5, -0.0])
    b = np.array([[0.5, -0.0, 0.25, -2.0, 0.0], [-0.0, 0.0, 1.0, 0.5, -0.0]])
    s, w = project(quad, a, b)
    assert s.tobytes() == a.tobytes() and w.tobytes() == b.tobytes()
    s, w = project(quad, np.append(a, 2.0), np.append(b, [[1.0], [-1.0]], axis=1))
    assert s[:-1].tobytes() == a.tobytes() and w[:, :-1].tobytes() == b.tobytes()
    assert s[-1] < 2.0


def extreme_inputs(n: int, seed: int):
    """n cells (a, b), d = 1, with |a| from 1e-6 to 1e300, |b| from 1e-6 to 1e150."""
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 300.0, n)
    b = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 150.0, n)
    return a, b


def test_projection_of_a_cell_does_not_depend_on_its_neighbours(quad):
    a, b = -4.759470714024043e45, -3.1232381465457116e98
    alone = project(quad, np.array([a]), np.array([[b]]))
    paired = project(quad, np.array([a, 1.2076811402033425e152]),
                                 np.array([[b, -1.39242039459236e56]]))
    assert alone[0][0] == paired[0][0] and alone[1][0, 0] == paired[1][0, 0]
    a, b = extreme_inputs(3000, seed=31)
    s, w = project(quad, a, b[None])
    for i in range(a.size):
        si, wi = project(quad, a[i:i + 1], b[None, i:i + 1])
        assert si[0] == s[i] and wi[0, 0] == w[0, i], (a[i], b[i])


@pytest.mark.parametrize("a0, b0", [(0.0, 1e200), (np.inf, 0.3), (np.inf, 1e200)],
                         ids=["b-overflows", "a-inf", "both"])
def test_projection_of_a_non_finite_cell_is_nan(quad, a0, b0):
    # |b|^2/2 or a is not finite: the cell has no root to find and comes
    # back NaN; the other cells keep the bits of a call on them alone
    a, b = np.array([a0, 1.0, -2.0]), np.array([[b0, 0.5, 0.1]])
    with np.errstate(over="ignore", invalid="ignore"):
        s, w = project(quad, a, b)
    assert np.isnan(s[0]) and np.isnan(w[0, 0])
    rest = project(quad, a[1:], b[:, 1:])
    assert np.array_equal(s[1:], rest[0]) and np.array_equal(w[:, 1:], rest[1])


def test_cells_the_closed_form_misses_match_the_oracle_bitwise(quad):
    a, b = extreme_inputs(3000, seed=32)
    half_b2 = 0.5 * (b * b)
    lam = np.empty_like(a)
    _cubic_start(a, half_b2, lam, *(np.empty_like(a) for _ in range(4)))
    with np.errstate(over="ignore"):
        g = (a - lam) + half_b2 / (1.0 + lam) ** 2
    missed = np.flatnonzero((a + half_b2 > 0) & ~(np.abs(g) <= ROOT_TOL))
    assert missed.size > 1000
    s, w = project(quad, a, b[None])
    for i in missed:
        s_ref, w_ref = project_oracle(float(a[i]), b[i:i + 1])
        assert s[i] == s_ref and w[0, i] == w_ref[0], (a[i], b[i])


def test_bisection_resolves_roots_far_below_its_bracket(quad):
    # the closed form is undefined here (negative discriminant); the root
    # lambda = 3.2e17 lies some 290 orders of magnitude below the top of the
    # search, the largest finite float
    a, b = -1e45, 1.414e40
    s, w = project(quad, np.array(a), np.array([b]))
    s_ref, w_ref = project_oracle(a, np.array([b]))
    assert abs(float(s) - s_ref) <= 1e-9 * abs(s_ref)
    assert abs(float(w[0]) - w_ref[0]) <= 1e-9 * abs(w_ref[0])


@settings(max_examples=200, deadline=None)
@given(a=finite, b=finite)
def test_project_idempotent_and_feasible(a, b):
    quad = QuadraticCost()
    s, w = project(quad, np.array(a), np.array([b]))
    assert float(s) + 0.5 * float(w[0]) ** 2 <= 1e-10
    s2, w2 = project(quad, s, w)
    assert abs(float(s2) - float(s)) <= 1e-10
    assert abs(float(w2[0]) - float(w[0])) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(a1=finite, b1=finite, a2=finite, b2=finite)
def test_project_nonexpansive(a1, b1, a2, b2):
    quad = QuadraticCost()
    s1, w1 = project(quad, np.array(a1), np.array([b1]))
    s2, w2 = project(quad, np.array(a2), np.array([b2]))
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


def test_make_cost_parses():
    assert make_cost("quadratic").kind == "quadratic"
    c = make_cost("power:3")
    assert c.kind == "power" and c.p == 3.0
    with pytest.raises(ValueError):
        make_cost("power:1")  # p must exceed 1
    with pytest.raises(ValueError, match="finite p > 1, got inf"):
        make_cost("power:inf")
    with pytest.raises(ValueError):
        make_cost("unknown")

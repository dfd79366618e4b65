import numpy as np
import pytest

from hjot.grid import GridSpec, forward_diff, make_grid
from hjot.hj import (
    SchemeParams,
    check_monotone,
    consistency_residual,
    hopf_lax,
    make_scheme,
    max_slope,
    random_cr_field,
    random_cr_pair,
    scheme_step,
    solve_ivp,
)
from hjot.measures import wrap


@pytest.fixture
def params4(quad):
    # eps/dx = 0.25 = lip_H(0.5)/2 gives hand-checkable values; make_scheme
    # would reject it at the radius 1.05 R
    g = GridSpec(d=1, D=1.0, N_T=4, N_X=4, eps=0.0625, R=0.5)
    return SchemeParams(grid=g, cost=quad)


def test_scheme_step_hand_example(params4):
    # grad = (0.4, 0, -0.4, 0), H = (0.08, 0, 0.08, 0)
    # lap = (0, -3.2, 0, 3.2) so the update is
    # psi - 0.25 * (H - 0.0625 * lap)
    psi = np.array([0.0, 0.1, 0.0, -0.1])
    out = scheme_step(psi, params4)
    assert np.allclose(out, [-0.02, 0.05, -0.02, -0.05], atol=1e-15)


def test_scheme_step_constants_are_fixed(params4):
    psi = np.full(4, 0.7)
    assert np.array_equal(scheme_step(psi, params4), psi)
    zero = np.zeros(4)
    assert np.array_equal(scheme_step(zero, params4), zero)


def test_scheme_step_commutes_with_constants(params4):
    psi = np.array([0.0, 0.1, 0.0, -0.1])
    assert np.allclose(scheme_step(psi + 3.0, params4),
                       scheme_step(psi, params4) + 3.0, atol=1e-15)


def test_scheme_step_commutes_with_shifts(params4):
    psi = np.array([0.0, 0.1, 0.05, -0.1])
    assert np.allclose(scheme_step(np.roll(psi, 1), params4),
                       np.roll(scheme_step(psi, params4), 1), atol=1e-15)


@pytest.mark.parametrize("slope", [0.0, 0.2, -0.4, 0.5])
def test_affine_consistency(params4, slope):
    assert consistency_residual(params4, slope) <= 1e-14


def test_affine_consistency_2d(quad):
    g = make_grid(2, 1.0, 16, 4, quad, R=0.5)
    params = make_scheme(g, quad)
    assert consistency_residual(params, (0.2, -0.1)) <= 1e-14


def test_max_slope(params4):
    psi = np.array([0.0, 0.1, 0.0, -0.1])
    assert max_slope(psi, params4.grid) == pytest.approx(0.4)


def test_solve_ivp_is_iterated_step(params4):
    phi0 = np.array([0.0, 0.1, 0.0, -0.1])
    out = solve_ivp(phi0, params4)
    assert out.shape == (5, 4)
    assert np.array_equal(out[0], phi0)
    cur = phi0
    for i in range(4):
        cur = scheme_step(cur, params4)
        assert np.array_equal(out[i + 1], cur)


def test_solve_ivp_rejects_nan(params4):
    with pytest.raises(ValueError):
        solve_ivp(np.array([0.0, np.nan, 0.0, 0.0]), params4)


def test_slope_bound_preserved_over_horizon(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    params = make_scheme(g, quad)
    rng = np.random.default_rng(21)
    for _ in range(10):
        phi0 = random_cr_field(g, g.R, rng)
        out = solve_ivp(phi0, params)
        for sl in out:
            assert max_slope(sl, g) <= g.R + 1e-12


def test_scheme_params_validation(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    bad = GridSpec(d=1, D=g.D, N_T=g.N_T, N_X=g.N_X, eps=0.0, R=g.R)
    with pytest.raises(ValueError, match="outside the monotone interval"):
        make_scheme(bad, quad)
    # building SchemeParams directly admits the inadmissible grid on purpose
    SchemeParams(grid=bad, cost=quad)


def test_make_scheme_default_radius(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    params = make_scheme(g, quad)
    assert params.monotone_on == pytest.approx(1.05 * g.R)


def test_random_cr_field_slope_bounded(quad):
    g = make_grid(1, 1.0, 32, 32, quad)
    rng = np.random.default_rng(5)
    for radius in (0.2, 0.5, 1.0):
        psi = random_cr_field(g, radius, rng)
        assert max_slope(psi, g) <= radius + 1e-12


def test_random_cr_field_2d_slope_bounded(quad):
    g = make_grid(2, 1.0, 16, 4, quad, R=0.5)
    rng = np.random.default_rng(6)
    psi = random_cr_field(g, 0.5, rng)
    assert psi.shape == (4, 4)
    for k in range(2):
        assert np.max(np.abs(forward_diff(psi, g, k))) / g.dx <= 0.5 + 1e-12


def test_random_cr_pair_ordered(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    rng = np.random.default_rng(7)
    lo, hi = random_cr_pair(g, 0.5, rng)
    assert np.all(lo <= hi)
    assert max_slope(lo, g) <= 0.5 + 1e-12
    assert max_slope(hi, g) <= 0.5 + 1e-12


def test_monotone_with_admissible_viscosity(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    params = make_scheme(g, quad)
    report = check_monotone(params, trials=300, seed=1)
    assert report.ok
    assert report.trials == 300


@pytest.mark.parametrize("trials", [0, -5])
def test_check_monotone_needs_a_trial(params4, trials):
    # no trial run is no evidence: an empty report must not read as a pass
    with pytest.raises(ValueError, match="trials must be at least 1"):
        check_monotone(params4, trials=trials)


def test_monotonicity_fails_without_viscosity(quad):
    g0 = GridSpec(d=1, D=1.0, N_T=16, N_X=16, eps=0.0, R=0.5)
    params = SchemeParams(grid=g0, cost=quad)
    report = check_monotone(params, trials=300, seed=1)
    assert report.monotone_violations > 0
    assert report.max_monotone_violation > 1e-6


def test_hopf_lax_at_time_zero(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    phi0 = lambda x: np.sin(2 * np.pi * np.asarray(x)) * 0.05
    assert hopf_lax(phi0, 0.0, 0.3, quad, g) == pytest.approx(phi0(0.3))


def test_hopf_lax_constant_initial_data(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    phi0 = lambda x: np.full_like(np.asarray(x, dtype=float), 0.4)
    for t in (0.25, 1.0):
        assert hopf_lax(phi0, t, 0.1, quad, g) == pytest.approx(0.4, abs=1e-10)


def test_hopf_lax_linear_patch(quad):
    # for phi0 = a x near x the solution is a x - t a^2 / 2
    g = make_grid(1, 1.0, 16, 16, quad)
    a, t, x = 0.3, 0.25, 0.1
    phi0 = lambda y: a * np.asarray(y)
    expected = a * x - t * a ** 2 / 2
    assert hopf_lax(phi0, t, x, quad, g) == pytest.approx(expected, abs=1e-9)


def test_hopf_lax_cone_two_regimes(quad):
    # phi0 = s |x|: value s|x| - s^2 t/2 outside the cone |x| < s t,
    # x^2 / (2 t) inside it
    g = make_grid(1, 1.0, 16, 16, quad)
    s = 0.45
    phi0 = lambda y: s * np.abs(wrap(np.asarray(y)))
    t = 0.5
    outside = hopf_lax(phi0, t, 0.3, quad, g)
    assert outside == pytest.approx(s * 0.3 - s ** 2 * t / 2, abs=1e-9)
    inside = hopf_lax(phi0, t, 0.1, quad, g)
    assert inside == pytest.approx(0.1 ** 2 / (2 * t), abs=1e-9)


def test_hopf_lax_matches_brute_force(quad):
    g = make_grid(1, 1.0, 16, 16, quad)
    phi0 = lambda y: 0.3 * np.sin(2 * np.pi * np.asarray(y)) / (2 * np.pi)
    ys = np.linspace(-0.5, 0.5, 200001)
    vals0 = phi0(ys)
    rng = np.random.default_rng(9)
    for _ in range(5):
        t = rng.uniform(0.1, 1.0)
        x = rng.uniform(-0.5, 0.5)
        # displacement on the torus: nearest periodic image
        disp = wrap(x - ys)
        brute = float(np.min(vals0 + disp ** 2 / (2 * t)))
        assert hopf_lax(phi0, t, x, quad, g) == pytest.approx(brute, abs=1e-6)


def test_hopf_lax_matches_closed_form_to_rounding(quad):
    # phi0 = x^2/2 gives phi(t, x) = x^2 / (2 (1 + t)) while the minimizer
    # x / (1 + t) stays inside the window and away from the seam
    g = make_grid(1, 1.0, 64, 64, quad)
    phi0 = lambda y: wrap(np.asarray(y)) ** 2 / 2
    for t in (1 / 64, 0.1, 0.37, 0.5, 1.0):
        for x in np.linspace(-0.45, 0.45, 31):
            exact = x ** 2 / (2 * (1 + t))
            assert abs(hopf_lax(phi0, t, float(x), quad, g) - exact) <= 1e-14


def test_hopf_lax_ends_where_float_spacing_exceeds_its_tolerance(quad):
    # at |x| = 3e6 neighbouring doubles lie 4.7e-10 apart, farther than the
    # 1e-10 bracket width the search aims for; it must still stop after a
    # number of evaluations fixed by its initial bracket
    g = make_grid(1, 1e7, 64, 64, quad)
    a, t, x = 0.3, 0.5, 3e6
    calls = []

    def phi0(y):
        calls.append(1)
        if len(calls) > 100:
            raise AssertionError("hopf_lax keeps evaluating phi0")
        return a * np.asarray(y)

    value = hopf_lax(phi0, t, x, quad, g)
    assert len(calls) <= 20
    assert value == pytest.approx(a * x - t * a ** 2 / 2, abs=1e-6)


def test_hopf_lax_d2_unsupported(quad):
    g = make_grid(2, 1.0, 16, 4, quad, R=0.5)
    with pytest.raises(NotImplementedError):
        hopf_lax(lambda x: np.zeros(2), 0.5, 0.0, quad, g)

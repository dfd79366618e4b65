import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from hjot.cost import PowerCost, QuadraticCost, make_cost
from hjot.grid import GridSpec, centered_gradient, discrete_laplacian, forward_gradient, make_grid
from hjot.hj import (
    MonotoneReport,
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


def test_max_slope_keeps_nan(quad):
    g1 = make_grid(1, 1.0, 16, 16, quad)
    g2 = make_grid(2, 1.0, 16, 4, quad, R=0.5)
    rng = np.random.default_rng(9)
    for g in (g1, g2):
        psi = rng.uniform(-0.1, 0.1, size=g.space_shape)
        # the fold over axes that max_slope replaced, for finite fields
        folded = 0.0
        for k in range(g.d):
            folded = max(folded, float(np.max(np.abs(forward_gradient(psi, g)[k]))) / g.dx)
        assert max_slope(psi, g) == folded
        assert np.isnan(max_slope(np.full(g.space_shape, np.nan), g))
    # inf - inf = NaN along the second axis only; the first one sees inf
    psi = np.zeros(g2.space_shape)
    psi[1, :2] = np.inf
    assert np.max(np.abs(forward_gradient(psi, g2)[0])) == np.inf
    assert np.isnan(max_slope(psi, g2))


def test_max_slope_of_a_stacked_trajectory(quad):
    for g in (make_grid(1, 1.0, 16, 16, quad), make_grid(2, 1.0, 16, 4, quad, R=0.5)):
        params = make_scheme(g, quad)
        traj = solve_ivp(random_cr_field(g, g.R, np.random.default_rng(3)), params)
        per_slice = [max_slope(sl, g) for sl in traj]
        assert max_slope(traj, g) == max(per_slice)
        assert max_slope(traj[None], g) == max(per_slice)
        # a NaN in any one slice makes the whole trajectory's slope NaN
        for i in (0, len(traj) // 2, len(traj) - 1):
            bad = traj.copy()
            bad[(i,) + (1,) * g.d] = np.nan
            assert np.isnan(max_slope(bad, g))


def test_solve_ivp_is_iterated_step(params4):
    phi0 = np.array([0.0, 0.1, 0.0, -0.1])
    out = solve_ivp(phi0, params4)
    assert out.shape == (5, 4)
    assert np.array_equal(out[0], phi0)
    cur = phi0
    for i in range(4):
        cur = scheme_step(cur, params4)
        assert np.array_equal(out[i + 1], cur)


def _formula_step(psi, params):
    """S(psi) composed from the public stencils and the cost, in the order
    the scheme documents: H(grad_D psi), then eps * lap_D psi, their
    difference, times dt, subtracted from psi, each formed in the
    Laplacian's array (so a float32 field stays float32 under a cost whose
    H is float64)."""
    g = params.grid
    h = params.cost.eval_H(centered_gradient(psi, g))
    out = discrete_laplacian(psi, g)
    out *= g.eps
    np.subtract(h, out, out=out)
    out *= g.dt
    return np.subtract(psi, out, out=out)


def _same(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


_STEP_CASES = [  # (d, N_X, batch, cost)
    (1, 16, (), QuadraticCost()), (1, 16, (3,), QuadraticCost()), (2, 8, (), QuadraticCost()),
    (2, 8, (2, 3), QuadraticCost()), (1, 16, (4,), PowerCost(3.0)), (2, 8, (3,), PowerCost(1.5)),
]


@pytest.mark.parametrize("d, n, batch, cost", _STEP_CASES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_scheme_step_is_the_formula_bitwise(d, n, batch, cost, dtype):
    g = GridSpec(d=d, D=1.0, N_T=8, N_X=n, eps=0.01, R=0.5)
    params = SchemeParams(g, cost)
    psi = np.random.default_rng(n + len(batch)).standard_normal(batch + g.space_shape)
    psi = (100 * psi).astype(dtype) if dtype is np.int64 else psi.astype(dtype)
    psi.flags.writeable = False
    assert _same(scheme_step(psi, params), _formula_step(psi, params))


@pytest.mark.parametrize("d, n, batch, cost", _STEP_CASES)
def test_solve_ivp_iterates_the_formula_bitwise(d, n, batch, cost):
    g = GridSpec(d=d, D=1.0, N_T=8, N_X=n, eps=0.01, R=0.5)
    params = SchemeParams(g, cost)
    rng = np.random.default_rng(3)
    phi0 = np.stack([random_cr_field(g, g.R, rng) for _ in range(math.prod(batch))])
    phi0 = phi0.reshape(batch + g.space_shape)
    phi0.flags.writeable = False  # the first slice is read, never written
    traj = solve_ivp(phi0, params)
    cur = phi0
    for i in range(g.N_T):
        cur = _formula_step(cur, params)
        assert _same(traj[i + 1], cur), i


def test_solve_ivp_of_an_integer_field_is_that_of_its_floats(quad):
    g = make_grid(1, 64.0, 16, 16, quad)  # dx = 4: integer steps stay stable
    params = make_scheme(g, quad)
    phi0 = np.arange(16) % 5
    assert _same(solve_ivp(phi0, params), solve_ivp(phi0.astype(float), params))


def test_two_solve_ivp_calls_return_independent_arrays(quad):
    g = make_grid(2, 1.0, 16, 8, quad)
    params = make_scheme(g, quad)
    phi0 = random_cr_field(g, g.R, np.random.default_rng(1))
    first, second = solve_ivp(phi0, params), solve_ivp(phi0, params)
    assert not np.shares_memory(first, second) and not np.shares_memory(first, phi0)
    assert _same(first, second)
    kept = second.copy()
    first[...] = np.nan
    assert _same(second, kept)
    # each output is one array of its own, not a view of kept scratch
    assert first.base is None and second.base is None


def test_solve_ivp_rejects_nan(params4):
    with pytest.raises(ValueError):
        solve_ivp(np.array([0.0, np.nan, 0.0, 0.0]), params4)


def test_solve_ivp_over_a_batch_equals_single_calls_bitwise(quad):
    g = make_grid(1, 1.0, 32, 32, quad)
    params = make_scheme(g, quad)
    rng = np.random.default_rng(5)
    batch = np.stack([random_cr_field(g, g.R, rng) for _ in range(4)])
    out = solve_ivp(batch, params)
    assert out.shape == (g.N_T + 1, 4, g.N_X)
    for b in range(4):
        assert out[:, b].tobytes() == solve_ivp(batch[b], params).tobytes()
    # two batch axes
    grid_of_fields = batch.reshape(2, 2, g.N_X)
    assert solve_ivp(grid_of_fields, params).tobytes() == out.tobytes()


def test_solve_ivp_rejects_a_nan_in_one_batch_member(params4):
    batch = np.zeros((3, 4))
    batch[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_ivp(batch, params4)


@pytest.mark.parametrize("d,shape", [(1, (15,)), (1, ()), (1, (16, 15)), (2, (16,)),
                                     (2, (16, 15)), (2, (4, 15, 16))])
def test_solve_ivp_rejects_a_field_off_the_grid(quad, d, shape):
    g = GridSpec(d=d, D=1.0, N_T=4, N_X=16, eps=0.01, R=0.5)
    with pytest.raises(ValueError, match=re.escape(f"{shape} does not end in the grid's "
                                                   f"space shape {g.space_shape}")):
        solve_ivp(np.zeros(shape), SchemeParams(g, quad))


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
        assert np.max(np.abs(forward_gradient(psi, g)[k])) / g.dx <= 0.5 + 1e-12


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


@pytest.mark.parametrize("trials", [0, -5, True, False, 2.5, 3.0, "3", None])
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


def _sequential_report(params, trials, seed):
    # check_monotone's trials one at a time, as it ran them before batching
    rng = np.random.default_rng(seed)
    mono_bad, mono_worst, nonexp_bad, nonexp_worst = 0, 0.0, 0, 0.0
    for _ in range(trials):
        lo, hi = random_cr_pair(params.grid, params.monotone_on, rng)
        s_lo = scheme_step(lo, params)
        s_hi = scheme_step(hi, params)
        gap = float(np.max(s_lo - s_hi))
        if gap > 1e-12:
            mono_bad += 1
            mono_worst = max(mono_worst, gap)
        excess = float(np.max(np.abs(s_lo - s_hi)) - np.max(np.abs(lo - hi)))
        if excess > 1e-12:
            nonexp_bad += 1
            nonexp_worst = max(nonexp_worst, excess)
    return MonotoneReport(trials, mono_bad, mono_worst, nonexp_bad, nonexp_worst)


@pytest.mark.parametrize("d, n_t, n_x, admissible, trials, seed", [
    (1, 128, 128, True, 777, 0),  # several batches, the last one partial
    (1, 32, 32, False, 1000, 0),  # violations counted and their worst values
    (2, 32, 16, True, 300, 1),
    (2, 32, 16, False, 300, 1),
    (1, 128, 128, True, 1, 5),
], ids=["d1-n128-777", "d1-n32-eps0", "d2-n16", "d2-n16-eps0", "one-trial"])
def test_check_monotone_equals_sequential_trials(quad, d, n_t, n_x, admissible, trials, seed):
    g = make_grid(d, 1.0, n_t, n_x, quad)
    if admissible:
        params = make_scheme(g, quad)
    else:
        params = SchemeParams(GridSpec(d=d, D=1.0, N_T=n_t, N_X=n_x, eps=0.0, R=g.R), quad)
    report = check_monotone(params, trials=trials, seed=seed)
    assert report == _sequential_report(params, trials, seed)
    assert report.ok == admissible


@pytest.mark.parametrize("n, trials", [(128, 2000), (256, 500)])
def test_check_monotone_memory_stays_small(quad, n, trials):
    # the trial batches bound the temporaries; a table of cells x cells
    # entries, or of anchors x cells per field of a batch, exceeds this
    params = make_scheme(make_grid(1, 1.0, n, n, quad), quad)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        check_monotone(params, trials=trials, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _mcshane_reference(grid, radius, rng):
    # random_cr_field's formula as first written, one (anchors, cells) array
    n_anchors = max(3, grid.N_X // 4)
    anchors = rng.integers(0, grid.N_X, size=(n_anchors, grid.d))
    values = rng.uniform(-radius * grid.D, radius * grid.D, size=n_anchors)
    idx = np.indices(grid.space_shape)
    dist = np.zeros((n_anchors,) + grid.space_shape)
    for k in range(grid.d):
        delta = np.abs(idx[k][None] - anchors[:, k].reshape((-1,) + (1,) * grid.d))
        dist += np.minimum(delta, grid.N_X - delta)
    return np.min(values.reshape((-1,) + (1,) * grid.d) + radius * grid.dx * dist, axis=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d, n_t, n_x", [(1, 128, 128), (2, 32, 16)])
def test_random_cr_field_bitwise_unchanged(quad, d, n_t, n_x, seed):
    g = make_grid(d, 1.0, n_t, n_x, quad)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # the second draw checks that the rng stream is in step
        psi = random_cr_field(g, g.R, rng)
        ref = _mcshane_reference(g, g.R, ref_rng)
        assert psi.shape == ref.shape
        assert psi.tobytes() == ref.tobytes()


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


@pytest.mark.parametrize("t,x,name", [
    (math.nan, 0.1, "t"), (math.inf, 0.1, "t"), (-math.inf, 0.1, "t"),
    (0.5, math.nan, "x"), (0.5, math.inf, "x"), (0.5, -math.inf, "x"),
    (0.0, math.nan, "x"), (0.5, np.array([0.1, math.nan, 0.3]), "x"),
    (0.5, np.array([[0.1], [math.inf]]), "x"),
])
def test_hopf_lax_rejects_non_finite_t_and_x(quad, t, x, name):
    g = make_grid(1, 1.0, 16, 16, quad)
    calls = []

    def phi0(y):
        calls.append(y)
        return np.zeros_like(y)

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic warns
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            hopf_lax(phi0, t, x, quad, g)
    assert not calls


@pytest.mark.parametrize("x", [0.3, np.array([0.1, 0.3]), np.array([[0.1], [0.7]])])
@pytest.mark.parametrize("t", [-1.0, -1e-300])
def test_hopf_lax_rejects_a_negative_t(quad, t, x):
    g = make_grid(1, 1.0, 16, 16, quad)
    calls = []

    def phi0(y):
        calls.append(y)
        return np.asarray(y) ** 2 / 2

    with pytest.raises(ValueError, match="t must not precede the initial time 0"):
        hopf_lax(phi0, t, x, quad, g)
    assert not calls


@pytest.mark.parametrize("t", [0.0, -0.0])
def test_hopf_lax_at_time_zero_is_phi0_for_scalar_and_array_x(quad, t):
    g = make_grid(1, 1.0, 16, 16, quad)

    def phi0(y):
        return np.asarray(y) ** 2 / 2

    assert hopf_lax(phi0, t, 0.3, quad, g) == phi0(0.3)
    x = np.array([[0.1, 0.3], [0.5, 0.9]])
    got = hopf_lax(phi0, t, x, quad, g)
    assert got.shape == x.shape and got.tobytes() == phi0(x).tobytes()


_ROUND = np.linspace(0.0, 1.0, 65)


def _hopf_lax_scalar_reference(phi0, t, x, cost, grid):
    """Reference oracle for one point, in Python scalars: the scan, then
    rounds of 65 points around the argmin."""
    if t <= 0.0:
        return float(phi0(np.asarray(x)))
    window = cost.lip_H(grid.R) * t + grid.dx
    n = int(np.ceil(2.0 * window / (grid.dx / 8))) + 1

    def value(yy):
        return phi0(wrap(yy, grid.D)) + t * cost.eval_L((x - yy)[None, :] / t)

    y = x + np.linspace(-window, window, n)
    vals = value(y)
    k = int(np.argmin(vals))
    best = vals[k]
    lo, hi = y[max(k - 1, 0)], y[min(k + 1, n - 1)]
    for _ in range(max(0, math.ceil(math.log((hi - lo) / 1e-10, 32.0)))):
        y = lo + (hi - lo) * _ROUND
        vals = value(y)
        k = int(np.argmin(vals))
        best = min(best, vals[k])
        lo, hi = y[max(k - 1, 0)], y[min(k + 1, len(y) - 1)]
    return float(best)


def _c08_phi0(y):
    return wrap(np.asarray(y, dtype=float)) ** 2 / 2.0


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_hopf_lax_over_an_array_equals_the_scalar_loop_bitwise(quad, n):
    # the grids and initial data of acceptance check c08
    g = make_grid(1, 1.0, n, n, quad)
    x = g.spatial_nodes()
    for t in (0.0, 1e-12, g.dt, 1.0):
        got = hopf_lax(_c08_phi0, t, x, quad, g)
        assert got.shape == x.shape
        scalar = [hopf_lax(_c08_phi0, t, float(xj), quad, g) for xj in x]
        assert all(isinstance(v, float) for v in scalar)
        reference = [_hopf_lax_scalar_reference(_c08_phi0, t, float(xj), quad, g) for xj in x]
        assert got.tobytes() == np.array(scalar).tobytes() == np.array(reference).tobytes(), t


@pytest.mark.parametrize("cost", ["quadratic", "power:3"])
def test_hopf_lax_points_keep_their_own_round_count(cost):
    # at N = 64 a bracket of one scan cell takes one round less than one of
    # two; phi0 steeper than R for y < 0 pins the argmin of the points there
    # at the window's edge, so at t = 0.1 the first points refine for one
    # round less than the last ones
    c = make_cost(cost)
    g = make_grid(1, 1.0, 64, 64, QuadraticCost())

    def phi0(y):
        y = wrap(np.asarray(y, dtype=float))
        return np.where(y < 0, -5.0 * y, 0.0)

    x = np.linspace(-0.4, 0.4, 23).reshape(1, 23)
    for t in (0.1, 0.5):
        got = hopf_lax(phi0, t, x, c, g)
        assert got.shape == (1, 23)
        reference = [_hopf_lax_scalar_reference(phi0, t, float(xj), c, g) for xj in x.ravel()]
        assert got.ravel().tobytes() == np.array(reference).tobytes()

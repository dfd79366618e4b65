import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjot.grid import GridSpec
from hjot.measures import (
    DEFAULT_W,
    AnalyticMeasure,
    box,
    build_test_case,
    cosine,
    dirac,
    double_box,
    double_triangle,
    invert_transport_map,
    project_measure,
    triangle,
    uniform,
    wrap,
)


def grid_1d(n: int) -> GridSpec:
    return GridSpec(d=1, D=1.0, N_T=n, N_X=n, eps=0.01, R=0.6)


def test_wrap_canonical_range():
    assert wrap(0.75) == pytest.approx(-0.25)
    assert wrap(-0.75) == pytest.approx(0.25)
    assert wrap(0.5) == -0.5  # half-open on the right
    assert wrap(0.3, D=2.0) == pytest.approx(0.3)
    xs = np.linspace(-3.0, 3.0, 101)
    w = wrap(xs)
    assert np.all(w >= -0.5) and np.all(w < 0.5)


def test_project_uniform_is_flat():
    pi = project_measure(uniform(), grid_1d(4))
    assert np.allclose(pi.weights, 0.25, atol=1e-14)


def test_project_dirac_nearest_node():
    pi = project_measure(dirac(0.1), grid_1d(4))
    assert pi.weights[0] == 1.0
    assert pi.mass == 1.0


def test_project_dirac_within_half_cell():
    # the atom never moves farther than half a cell
    for n in (8, 16, 32):
        g = grid_1d(n)
        for x0 in (0.03, -0.26, 0.49, -0.5):
            pi = project_measure(dirac(x0), g)
            j = int(np.argmax(pi.weights))
            dist = abs(wrap(x0 - j * g.dx))
            assert dist <= g.dx / 2 + 1e-12


@pytest.mark.parametrize("x0", [np.nan, -np.inf, np.inf])
def test_project_rejects_an_atom_at_a_non_finite_location(x0):
    # the int cast of floor(x0/dx + 1/2) used to put such an atom in an
    # arbitrary cell (cells 1, 2 and 0 at N_X = 3, 5 and 8), with only a
    # RuntimeWarning
    for n in (3, 5, 8):
        with pytest.raises(ValueError, match=f"non-finite location {x0!r}"):
            project_measure(dirac(x0), grid_1d(n))
    mixed = AnalyticMeasure(atoms=((0.25, 0.5), (x0, 0.5)))
    with pytest.raises(ValueError, match="non-finite location"):
        project_measure(mixed, grid_1d(8))


@pytest.mark.parametrize("kw", [{}, dict(cdf=None, atoms=None),
                                dict(cdf=lambda x: x, atoms=((0.25, 1.0),))],
                         ids=["neither", "both-none", "both"])
def test_analytic_measure_takes_exactly_one_of_cdf_and_atoms(kw):
    # with neither, project_measure died calling None; with both, it
    # projected the atoms and ignored the cumulative mass
    with pytest.raises(ValueError, match="exactly one of cdf and atoms"):
        AnalyticMeasure(**kw)


@pytest.mark.parametrize("mu", [dirac(0.25), uniform()], ids=["dirac", "uniform"])
def test_project_rejects_a_grid_of_more_than_one_axis(mu):
    # an atom's location is one coordinate: on a d = 2 grid it used to fill
    # a whole row of cells, mass 4.0 at N_X = 4
    with pytest.raises(NotImplementedError, match="d=1"):
        project_measure(mu, GridSpec(d=2, D=1.0, N_T=4, N_X=4, eps=0.0, R=0.5))


def test_project_atoms_on_any_period():
    # atoms take the grid's period, unlike a cumulative mass (test_bench)
    g = GridSpec(d=1, D=2.0, N_T=4, N_X=8, eps=0.0, R=0.5)
    assert np.array_equal(project_measure(dirac(0.6), g).weights, np.eye(8)[2])


def test_project_box_hand_weights():
    # box of half-width 0.05 on a 16-cell grid: the center cell holds
    # 10 * 0.0625 and each neighbor the remaining 10 * 0.01875
    pi = project_measure(box(0.05), grid_1d(16))
    assert pi.weights[0] == pytest.approx(0.625, abs=1e-12)
    assert pi.weights[1] == pytest.approx(0.1875, abs=1e-12)
    assert pi.weights[15] == pytest.approx(0.1875, abs=1e-12)
    assert np.sum(pi.weights[2:15]) == pytest.approx(0.0, abs=1e-12)


def test_project_double_box_seam():
    # band 0.45 <= |x| on the torus is an interval through the seam
    pi = project_measure(double_box(0.05), grid_1d(16))
    assert pi.weights[8] == pytest.approx(0.625, abs=1e-12)
    assert pi.weights[7] == pytest.approx(0.1875, abs=1e-12)
    assert pi.weights[9] == pytest.approx(0.1875, abs=1e-12)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize(
    "mu",
    [uniform(), cosine(1.0), triangle(0.2), double_triangle(0.2),
     box(0.05), double_box(0.05), dirac(0.3)],
    ids=["uniform", "cosine", "triangle", "double_triangle", "box", "double_box", "dirac"],
)
def test_projection_conserves_mass(mu, n):
    pi = project_measure(mu, grid_1d(n))
    assert pi.mass == pytest.approx(1.0, abs=1e-10)
    assert np.all(pi.weights >= 0.0)


def test_analytic_total_mass():
    # on a fine grid, where each weight is a difference of nearby cdf values
    for mu in (uniform(), cosine(2.0), triangle(0.1), double_triangle(0.1),
               box(0.05), double_box(0.05), dirac(-0.2)):
        assert project_measure(mu, grid_1d(4096)).mass == pytest.approx(1.0, abs=1e-9)


# The projection as it was computed before the cumulative mass: each box is
# split at the density's kinks, and each piece is integrated by 20- and
# 40-node Gauss-Legendre rules, which must agree within 1e-10.
_GL20 = np.polynomial.legendre.leggauss(20)
_GL40 = np.polynomial.legendre.leggauss(40)


def quadrature_projection(density, breakpoints, grid):
    N, dx, D = grid.N_X, grid.dx, grid.D
    edges = (np.arange(N + 1) - 0.5) * dx
    cuts = [edges]
    if breakpoints:
        b = np.asarray(breakpoints, dtype=float)
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
        vals = density(wrap(mids[:, None] + half[:, None] * xg[None, :], D))
        return np.sum(vals * wg[None, :], axis=1) * half

    i20, i40 = rule(_GL20), rule(_GL40)
    assert np.max(np.abs(i20 - i40)) <= 1e-10
    weights = np.zeros(N)
    np.add.at(weights, owner, i40)
    weights[weights < 0] = 0.0
    return weights


def _triangle_density(w):
    return (lambda x: np.maximum(w - np.abs(x), 0.0) / w ** 2), (-w, 0.0, w)


def _box_pair_density(lo, hi):
    # uniform on lo <= |x| <= hi, unit mass
    return ((lambda x: np.where((np.abs(x) >= lo) & (np.abs(x) <= hi), 0.5 / (hi - lo), 0.0)),
            (-hi, -lo, lo, hi))


def _marginal(name, mu, density, breakpoints=()):
    return pytest.param(mu, density, breakpoints, id=name)


def _slice(case_id, t):
    _, _, sol = build_test_case(case_id)
    w = DEFAULT_W[case_id]
    if case_id == 1:
        def density(x):
            y = invert_transport_map(t, x, w)
            cy = np.cos(2.0 * np.pi * w * y)
            return (1.0 + 0.5 * cy) / (1.0 + 0.5 * t * cy)
        breakpoints = ()
    elif case_id == 2:
        density, breakpoints = _triangle_density((1.0 + t) * w)
    else:
        s = 0.5 - w
        density, breakpoints = _box_pair_density(t * s, t * s + w)
    return pytest.param(sol.slice_measure(t), density, breakpoints, id=f"case{case_id}-t{t:g}")


PROJECTED = [
    _marginal("uniform", uniform(), lambda x: np.ones_like(x)),
    _marginal("cosine", cosine(1.0), lambda x: 1.0 + 0.5 * np.cos(2.0 * np.pi * x)),
    _marginal("cosine", cosine(2.0), lambda x: 1.0 + 0.5 * np.cos(4.0 * np.pi * x)),
    _marginal("triangle", triangle(0.2), *_triangle_density(0.2)),
    _marginal("double_triangle", double_triangle(0.2), *_triangle_density(0.4)),
    _marginal("box", box(0.05), *_box_pair_density(0.0, 0.05)),
    _marginal("double_box", double_box(0.05), *_box_pair_density(0.45, 0.5)),
] + [_slice(case_id, t) for case_id in (1, 2, 3) for t in (0.0, 0.3, 0.5, 0.75, 1.0)]


@pytest.mark.parametrize("mu, density, breakpoints, n", [
    pytest.param(*p.values, n, id=f"{p.id}-N{n}")
    for p in PROJECTED for n in (4, 7, 16, 64, 129, 192)
] + [
    # kinks exactly on box edges (j - 1/2)/n
    pytest.param(box(0.125), *_box_pair_density(0.0, 0.125), 4, id="box0.125-N4"),
    pytest.param(box(0.25), *_box_pair_density(0.0, 0.25), 6, id="box0.25-N6"),
    pytest.param(triangle(0.125), *_triangle_density(0.125), 4, id="triangle0.125-N4"),
    pytest.param(*_slice(2, 0.25).values, 6, id="case2-t0.25-N6"),
    pytest.param(*_slice(3, 0.0).values, 10, id="case3-t0-N10"),
    pytest.param(*_slice(3, 0.0).values, 30, id="case3-t0-N30"),
    pytest.param(*_slice(3, 1.0).values, 10, id="case3-t1-N10"),
])
def test_projection_matches_quadrature(mu, density, breakpoints, n):
    g = grid_1d(n)
    ref = quadrature_projection(density, breakpoints, g)
    assert np.max(np.abs(project_measure(mu, g).weights - ref)) <= 1e-12


_SEAMS = np.array([k - 0.5 for k in range(-1, 3)])


@pytest.mark.parametrize("mu", [p.values[0] for p in PROJECTED],
                         ids=[p.id for p in PROJECTED])
def test_cdf_is_lifted_and_nondecreasing(mu):
    xs = np.sort(np.concatenate([
        np.linspace(-1.7, 1.7, 3401), _SEAMS,
        np.nextafter(_SEAMS, -np.inf), np.nextafter(_SEAMS, np.inf)]))
    F = mu.cdf(xs)
    assert np.all(np.diff(F) >= 0.0)
    # F(x + 1) = F(x) + mass, with unit mass
    assert np.max(np.abs(mu.cdf(xs + 1.0) - F - 1.0)) <= 1e-12


def test_invert_transport_map_trivials():
    assert invert_transport_map(0.0, 0.37, 1.0) == pytest.approx(0.37, abs=1e-13)
    assert invert_transport_map(0.8, 0.0, 1.0) == pytest.approx(0.0, abs=1e-13)


def test_invert_transport_map_against_bisection():
    w, t, x = 1.0, 1.0, 0.1
    T = lambda y: y + t * np.sin(2.0 * np.pi * w * y) / (4.0 * np.pi * w)
    lo, hi = -0.5, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if T(mid) < x:
            lo = mid
        else:
            hi = mid
    y_ref = 0.5 * (lo + hi)
    assert invert_transport_map(t, x, w) == pytest.approx(y_ref, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1.0),
       x=st.floats(min_value=-0.5, max_value=0.4999))
def test_invert_transport_map_is_right_inverse(t, x):
    w = 1.0
    y = invert_transport_map(t, x, w)
    fwd = y + t * np.sin(2.0 * np.pi * w * y) / (4.0 * np.pi * w)
    assert abs(fwd - x) <= 1e-12


def test_case_costs():
    _, _, s1 = build_test_case(1)
    _, _, s2 = build_test_case(2)
    _, _, s3 = build_test_case(3)
    assert s1.cost == pytest.approx(1.0 / (64.0 * np.pi ** 2))
    assert s2.cost == pytest.approx(0.2 ** 2 / 12.0)
    assert s3.cost == pytest.approx(0.10125)


def test_case_parameter_validation():
    with pytest.raises(ValueError):
        build_test_case(1, w=0.5)
    with pytest.raises(ValueError):
        build_test_case(1, w=0.0)
    with pytest.raises(ValueError):
        build_test_case(2, w=0.3)
    with pytest.raises(ValueError):
        build_test_case(3, w=0.6)
    with pytest.raises(ValueError):
        build_test_case(4)


@pytest.mark.parametrize("case_id", [1, 2, 3])
def test_interpolation_endpoints_match_marginals(case_id):
    mu, nu, sol = build_test_case(case_id)
    xs = np.array([-0.41, -0.17, 0.0, 0.13, 0.29, 0.47])
    xs = np.concatenate([xs, xs + 1.0, xs - 2.0])  # lifted coordinates too
    assert np.allclose(sol.cdf(0.0, xs), mu.cdf(xs), rtol=0, atol=1e-12)
    assert np.allclose(sol.cdf(1.0, xs), nu.cdf(xs), rtol=0, atol=1e-12)


@pytest.mark.parametrize("case_id", [1, 2, 3])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_interpolation_slices_have_unit_mass(case_id, t):
    _, _, sol = build_test_case(case_id)
    pi = project_measure(sol.slice_measure(t), grid_1d(4096))
    assert pi.mass == pytest.approx(1.0, abs=1e-8)


def hj_residual(phi, t, x, h=1e-5):
    dt = (phi(t + h, x) - phi(t - h, x)) / (2 * h)
    dx = (phi(t, x + h) - phi(t, x - h)) / (2 * h)
    return dt + 0.5 * dx ** 2


def test_case2_potential_solves_hj():
    _, _, sol = build_test_case(2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.uniform(0.1, 0.9)
        x = rng.uniform(-0.45, 0.45)
        assert abs(hj_residual(sol.phi, t, x)) <= 1e-8


def test_case3_potential_solves_hj_away_from_kink():
    _, _, sol = build_test_case(3)
    rng = np.random.default_rng(4)
    for _ in range(50):
        t = rng.uniform(0.1, 0.9)
        x = rng.uniform(0.05, 0.45) * rng.choice([-1.0, 1.0])
        assert abs(hj_residual(sol.phi, t, x)) <= 1e-9


def test_case2_velocity_is_potential_gradient():
    _, _, sol = build_test_case(2)
    xs = np.linspace(-0.45, 0.45, 41)
    for t in (0.0, 0.3, 1.0):
        h = 1e-6
        grad = (sol.phi(t, xs + h) - sol.phi(t, xs - h)) / (2 * h)
        assert np.allclose(grad, sol.v(t, xs), atol=1e-8)


def test_case2_continuity_equation():
    # d_t rho + d_x (rho v) = 0 integrated from the empty seam up to x:
    # d_t F(t, x) + rho v = 0, with rho the centered difference of F in x
    _, _, sol = build_test_case(2)
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(50):
        t = rng.uniform(0.2, 0.8)
        # stay well inside the support and off the central kink
        x = rng.uniform(0.05, 0.15) * rng.choice([-1.0, 1.0])
        d_t = (sol.cdf(t + h, x) - sol.cdf(t - h, x)) / (2 * h)
        rho = (sol.cdf(t, x + h) - sol.cdf(t, x - h)) / (2 * h)
        assert abs(d_t + rho * sol.v(t, x)) <= 1e-8


def test_case3_velocity_sign_convention():
    _, _, sol = build_test_case(3)
    assert sol.v(0.5, np.array([0.0]))[()] == 0.0
    assert sol.v(0.5, np.array([0.2]))[()] == pytest.approx(0.45)
    assert sol.v(0.5, np.array([-0.2]))[()] == pytest.approx(-0.45)


def test_case1_has_no_closed_form_potential():
    _, _, sol = build_test_case(1)
    assert sol.phi is None

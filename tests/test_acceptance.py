"""End-to-end acceptance checks: convergence rates on the three benchmark
transport problems, scheme properties, solver oracles, and determinism.

The sweeps run the full N = 16..128 resolution family once per module and
every check reads from those shared reports. Thresholds are fixed here and
are not tuned to the observed outputs; checks that the current
implementation does not meet are kept as plain assertions with the measured
values documented next to them.
"""
import json
import math

import numpy as np
import pytest

from hjot.admm import SpectralPhiSolver, phi_update, solve
from hjot.bench import run_sweep
from hjot.cost import QuadraticCost
from hjot.grid import GridSpec, make_grid
from hjot.hj import (SchemeParams, check_monotone, consistency_residual,
                     hopf_lax, make_scheme, max_slope, random_cr_field,
                     solve_ivp)
from hjot.measures import build_test_case, dirac, project_measure, uniform, wrap
from hjot.transport import (PrimalVars, assemble_problem, primal_objective,
                            recover_velocity, support_threshold)
from tests.conftest import dense_constraint_matrix, flatten_primal, flatten_sigma

RESOLUTIONS = [16, 32, 64, 128]


@pytest.fixture(scope="module")
def sweep1():
    return run_sweep(1, RESOLUTIONS)


@pytest.fixture(scope="module")
def sweep2():
    return run_sweep(2, RESOLUTIONS)


@pytest.fixture(scope="module")
def sweep3():
    return run_sweep(3, RESOLUTIONS)


@pytest.fixture(scope="module")
def all_sweeps(sweep1, sweep2, sweep3):
    return {1: sweep1, 2: sweep2, 3: sweep3}


def eps_K(report):
    return [r.eps_K for r in report.records]


# ------------------------------------------------- 1: case 2 cost error


def test_c01_case2_eps_K_strictly_decreasing(sweep2):
    e = eps_K(sweep2)
    assert all(b < a for a, b in zip(e, e[1:])), e


def test_c01_case2_alpha_K_in_window(sweep2):
    assert 0.7 <= sweep2.alpha_K <= 1.6, sweep2.alpha_K


def test_c01_case2_absolute_error_at_finest(sweep2):
    # Measured: eps_K(128) = 1.59e-3. The artificial viscosity that makes
    # the scheme monotone (eps = 0.2625 dx) adds a bias of about 1.1 eps
    # to the discrete cost; at N = 128 that bias alone is 2.2e-3-ish and
    # dominates the 5e-4 budget. A zero-viscosity run meets the threshold
    # (4.8e-4 at N = 16) but loses monotonicity, which the scheme checks
    # below require. The threshold would be met near N = 360 on this
    # discretization.
    assert eps_K(sweep2)[-1] <= 5e-4


def test_c01_case2_sweep_wall_time(sweep2):
    assert sum(r.wall_time for r in sweep2.records) < 600.0


# ------------------------------------------------- 2: case 1 cost error


def test_c02_case1_alpha_K_in_window(sweep1):
    assert 0.7 <= sweep1.alpha_K <= 1.6, sweep1.alpha_K


def test_c02_case1_sqrt_h_envelope(sweep1):
    # single constant fitted at the coarsest resolution bounds the family
    recs = sweep1.records
    C = recs[0].eps_K / math.sqrt(recs[0].h)
    for r in recs:
        assert r.eps_K <= C * math.sqrt(r.h) * (1 + 1e-12), (r.N, r.eps_K)


# ------------------------------------------------- 3: case 3 cost error


def test_c03_case3_alpha_K_in_window(sweep3):
    # Measured: alpha_K = 0.45, just below the window. The N = 16 point is
    # anomalously accurate: at that resolution the box half-width (0.05) is
    # below dx = 0.0625, and the projection error (+3.5e-2 on the cost at
    # zero viscosity) happens to cancel against the viscosity bias (-3.1e-2),
    # which flattens the fitted slope. The pairwise rates over the three
    # finer points are 0.81 and 0.90, and a zero-viscosity fit gives 1.35,
    # outside the window on the high side; the window is missed by the
    # 4-point fit either way.
    assert 0.5 <= sweep3.alpha_K <= 1.3, sweep3.alpha_K


def test_c03_case3_eps_K_monotone_with_one_exception(sweep3):
    e = eps_K(sweep3)
    increases = [(sweep3.records[i].N, sweep3.records[i + 1].N)
                 for i in range(len(e) - 1) if e[i + 1] >= e[i]]
    for lo, hi in increases:
        print(f"eps_K increase at refinement {lo} -> {hi}")
    assert len(increases) <= 1, increases


# ------------------------------------------------- 4: velocity rates


def test_c04_alpha_v_case1(sweep1):
    assert 1.3 <= sweep1.alpha_v <= 2.5, sweep1.alpha_v


def test_c04_alpha_v_case2(sweep2):
    assert 1.3 <= sweep2.alpha_v <= 2.5, sweep2.alpha_v


def test_c04_alpha_v_case3(sweep3):
    assert 0.6 <= sweep3.alpha_v <= 1.4, sweep3.alpha_v


# ------------------------------------------------- 5: measure error


def test_c05_eps_rho_decreasing_all_cases(all_sweeps):
    for cid, report in all_sweeps.items():
        e = [r.eps_rho for r in report.records]
        assert all(b < a for a, b in zip(e, e[1:])), (cid, e)


def test_c05_alpha_rho_near_reference(all_sweeps):
    for cid, report in all_sweeps.items():
        ref = report.reference_rates["alpha_rho"]
        assert abs(report.alpha_rho - ref) <= 0.5, (cid, report.alpha_rho, ref)


# ------------------------------------------------- 6: duality gap


def test_c06_duality_gap_bound(all_sweeps):
    for cid, report in all_sweeps.items():
        for r in report.records:
            bound = 1e-3 * (1.0 + abs(r.K_D))
            assert r.duality_gap <= bound, (cid, r.N, r.duality_gap)


# ------------------------------------------------- 7: scheme properties


@pytest.fixture(scope="module")
def scheme32():
    quad = QuadraticCost()
    grid = make_grid(1, 1.0, 32, 32, quad)
    return make_scheme(grid, quad), quad


def test_c07_affine_consistency(scheme32):
    params, _ = scheme32
    for slope in np.linspace(-params.grid.R, params.grid.R, 9):
        assert consistency_residual(params, float(slope)) <= 1e-14


def test_c07_monotone_and_nonexpansive_1000_trials(scheme32):
    params, _ = scheme32
    report = check_monotone(params, trials=1000, seed=0)
    assert report.trials == 1000
    assert report.monotone_violations == 0, report.max_monotone_violation
    assert report.nonexpansive_violations == 0, report.max_expansion_excess


def test_c07_monotonicity_fails_without_viscosity(scheme32):
    params, quad = scheme32
    g = params.grid
    bare = GridSpec(d=g.d, D=g.D, N_T=g.N_T, N_X=g.N_X, eps=0.0, R=g.R)
    loose = SchemeParams(grid=bare, cost=quad)
    report = check_monotone(loose, trials=1000, seed=0)
    assert report.monotone_violations > 0


def test_c07_slope_class_preserved_over_horizon(scheme32):
    params, _ = scheme32
    g = params.grid
    rng = np.random.default_rng(2)
    for _ in range(5):
        traj = solve_ivp(random_cr_field(g, g.R, rng), params)
        for sl in traj:
            assert max_slope(sl, g) <= g.R + 1e-12


# ------------------------------------------------- 8: IVP vs Hopf-Lax


@pytest.fixture(scope="module")
def ivp_errors():
    quad = QuadraticCost()

    def phi0(x):
        return wrap(np.asarray(x, dtype=float)) ** 2 / 2.0

    rows = []
    for n in RESOLUTIONS:
        grid = make_grid(1, 1.0, n, n, quad)
        params = make_scheme(grid, quad)
        x = grid.spatial_nodes()
        traj = solve_ivp(phi0(x), params)
        sup = 0.0
        for i, t in enumerate(grid.times()):
            exact = np.array([hopf_lax(phi0, float(t), float(xj), quad, grid)
                              for xj in x])
            sup = max(sup, float(np.max(np.abs(traj[i] - exact))))
        rows.append((n, grid.h, sup))
    return rows


def test_c08_ivp_sup_error_decreasing(ivp_errors):
    sups = [s for _, _, s in ivp_errors]
    assert all(b < a for a, b in zip(sups, sups[1:])), sups


def test_c08_ivp_sqrt_h_envelope(ivp_errors):
    n0, h0, s0 = ivp_errors[0]
    C = s0 / math.sqrt(h0)
    for n, h, s in ivp_errors:
        assert s <= C * math.sqrt(h) * (1 + 1e-12), (n, s)


# ------------------------------------------------- 9: linear algebra oracles


def test_c09_operator_matches_dense_construction():
    g = GridSpec(d=1, D=1.0, N_T=2, N_X=4, eps=0.05, R=0.5)
    from hjot.transport import ConstraintOperator
    op = ConstraintOperator(g)
    A = dense_constraint_matrix(g)
    rng = np.random.default_rng(61)
    for _ in range(25):
        phi = rng.standard_normal((g.N_T + 1, g.N_X))
        assert np.max(np.abs(A @ phi.ravel()
                             - flatten_sigma(op.apply(phi)))) <= 1e-12
        lam = PrimalVars(rng.standard_normal((g.N_T, g.N_X)),
                         rng.standard_normal((1, g.N_T, g.N_X)),
                         rng.standard_normal((1, g.N_X)))
        assert np.max(np.abs(A.T @ flatten_primal(lam)
                             - op.apply_transpose(lam).ravel())) <= 1e-12


def test_c09_phi_update_matches_dense_least_squares():
    quad = QuadraticCost()
    g = GridSpec(d=1, D=1.0, N_T=2, N_X=4, eps=0.05, R=0.5)
    mu, nu, _ = build_test_case(2)
    problem = assemble_problem(g, quad, project_measure(mu, g),
                               project_measure(nu, g))
    A = dense_constraint_matrix(g)
    solver = SpectralPhiSolver(g)
    rng = np.random.default_rng(62)
    from hjot.transport import SigmaVars
    for r in (0.5, 1.0, 2.0):
        sigma = SigmaVars(rng.standard_normal((g.N_T, g.N_X)),
                          rng.standard_normal((1, g.N_T, g.N_X)),
                          rng.standard_normal((1, g.N_X)))
        lam = PrimalVars(rng.standard_normal((g.N_T, g.N_X)),
                         rng.standard_normal((1, g.N_T, g.N_X)),
                         rng.standard_normal((1, g.N_X)))
        phi = phi_update(solver, problem, sigma, lam, r)
        rhs = problem.objective_data.ravel() \
            - A.T @ (flatten_primal(lam) - r * flatten_sigma(sigma))
        dense, *_ = np.linalg.lstsq(r * (A.T @ A), rhs, rcond=None)
        dense = dense.reshape(g.N_T + 1, g.N_X)
        assert np.max(np.abs((phi - phi.mean())
                             - (dense - dense.mean()))) <= 1e-8


def test_c09_projection_matches_bisection():
    quad = QuadraticCost()
    rng = np.random.default_rng(63)

    def oracle(a, b):
        if a + 0.5 * b * b <= 0:
            return a, b
        f = lambda lm: (a - lm) + 0.5 * b * b / (1.0 + lm) ** 2
        lo, hi = 0.0, a + 0.5 * b * b
        while f(hi) > 0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        lm = 0.5 * (lo + hi)
        return a - lm, b / (1.0 + lm)

    for _ in range(100):
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-2.0, 2.0)
        s, w = quad.project_onto_K(np.array(a), np.array([b]))
        s_ref, w_ref = oracle(a, b)
        assert abs(float(s) - s_ref) <= 1e-10
        assert abs(float(w[0]) - w_ref) <= 1e-10


# ------------------------------------------------- 10: degenerate marginals


def test_c10_identical_marginals_cost_nearly_zero():
    quad = QuadraticCost()
    g = make_grid(1, 1.0, 32, 32, quad)
    pi = project_measure(uniform(), g)
    problem = assemble_problem(g, quad, pi, pi)
    phi, lam, state = solve(problem)
    assert state.converged
    K_D = primal_objective(lam, problem.R, quad)
    assert K_D <= 1e-4, K_D
    V = recover_velocity(lam)
    on = lam.lambda_rho > support_threshold(lam)
    vmax = float(np.max(np.abs(V[0][on]))) if on.any() else 0.0
    assert vmax <= 1e-2, vmax


def test_c10_dirac_pair_cost():
    # Measured: K_D = 0.0442 against the exact 0.03125, a 41% excess.
    # Point masses are the roughest inputs the scheme admits: the cost
    # error decays like sqrt(h) with a constant near 3.3 here (N = 128
    # still shows +24%), and the artificial viscosity both inflates the
    # constant and is required for convergence at all: with eps = 0 the
    # solver does not reach the tolerance on this pair.
    quad = QuadraticCost()
    g = make_grid(1, 1.0, 64, 64, quad)
    problem = assemble_problem(g, quad,
                               project_measure(dirac(0.25), g),
                               project_measure(dirac(0.5), g))
    phi, lam, state = solve(problem)
    assert state.converged
    K_D = primal_objective(lam, problem.R, quad)
    K = 0.25 ** 2 / 2.0
    assert abs(K_D - K) <= 0.1 * K, K_D


# ------------------------------------------------- 11: determinism


def test_c11_solve_artifacts_bitwise_identical(tmp_path):
    from hjot.cli import main
    out = tmp_path / "run"
    args = ["solve", "--case", "2", "--n", "16", "--out", str(out)]
    names = ("phi.csv", "lambda_rho.csv", "lambda_m.csv",
             "velocity.csv", "summary.json", "config_resolved.json")
    assert main(args) == 0
    first = {name: (out / name).read_bytes() for name in names}
    assert main(args) == 0  # identical config, same destination
    for name in names:
        assert (out / name).read_bytes() == first[name], name


@pytest.mark.filterwarnings("ignore:fewer than 3 usable resolutions")
def test_c11_sweep_outputs_identical_up_to_wall_time(tmp_path):
    from hjot.cli import main
    args = ["sweep", "--case", "1", "--n", "16,32"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0

    def masked_csv(p):
        rows = (p / "records.csv").read_text().splitlines()
        head = rows[1].split(",")
        wt = head.index("wall_time")
        out = rows[:2]
        for row in rows[2:]:
            cells = row.split(",")
            cells[wt] = "X"  # wall clock is measured, not computed
            out.append(",".join(cells))
        return "\n".join(out)

    def masked_json(p):
        payload = json.loads((p / "report.json").read_text())
        for rec in payload["records"]:
            rec["wall_time"] = None
        return json.dumps(payload, sort_keys=True)

    assert masked_csv(out1) == masked_csv(out2)
    assert masked_json(out1) == masked_json(out2)

import json
import math

import numpy as np
import pytest

from hjot.bench import (
    ConvergenceReport,
    ErrorRecord,
    error_cost,
    error_measure,
    error_potential_gradient,
    error_velocity,
    fit_rate,
    resolve_nx,
    run_sweep,
)
from hjot.cli import atomic_write_text, records_to_csv, report_to_json
from hjot.grid import make_grid
from hjot.measures import build_test_case, project_measure
from hjot.transport import PrimalVars


def test_fit_rate_recovers_exact_slopes():
    hs = [1.0 / n for n in (16, 32, 64, 128)]
    for alpha in (1.0, 2.0, 0.5):
        pts = [(h, 3.7 * h ** alpha) for h in hs]
        assert fit_rate(pts) == pytest.approx(alpha, abs=1e-12)


def test_fit_rate_scale_invariant():
    hs = [1.0 / n for n in (16, 32, 64)]
    pts = [(h, h ** 1.3) for h in hs]
    scaled = [(h, 250.0 * e) for h, e in pts]
    assert fit_rate(scaled) == pytest.approx(fit_rate(pts), abs=1e-12)


def test_fit_rate_drops_nonpositive_and_degrades_to_nan():
    with pytest.warns(UserWarning, match="nonpositive"):
        r = fit_rate([(0.1, 0.0), (0.05, 0.01), (0.025, 0.005)])
    assert r == pytest.approx(1.0)
    with pytest.warns(UserWarning, match="fewer than 2"):
        assert math.isnan(fit_rate([(0.1, 0.5)]))
    with pytest.warns(UserWarning):
        assert math.isnan(fit_rate([(0.1, -1.0), (0.05, 0.3)]))


def test_error_cost():
    assert error_cost(0.03125, 0.034) == pytest.approx(0.002750, abs=1e-12)
    with pytest.raises(ValueError):
        error_cost(math.inf, 1.0)


@pytest.fixture
def grid4(quad):
    return make_grid(1, 1.0, 4, 4, quad)


def exact_lam(sol, grid):
    lam = PrimalVars.zeros(grid)
    for i in range(grid.N_T):
        pi = project_measure(sol.slice_measure(i * grid.dt, grid.D), grid)
        lam.lambda_rho[i] = grid.dt * pi.weights
    return lam


def test_error_measure_zero_on_exact_slices(grid4, quad):
    _, _, sol = build_test_case(2)
    lam = exact_lam(sol, grid4)
    assert error_measure(lam, sol, grid4) == pytest.approx(0.0, abs=1e-14)


def test_error_measure_worked_perturbation(grid4, quad):
    # moving dt * 0.05 of mass between two cells of one slice changes the
    # slice l1 gap by 0.1, so the dt-weighted total is 0.25 * 0.1
    _, _, sol = build_test_case(2)
    lam = exact_lam(sol, grid4)
    lam.lambda_rho[2, 0] += grid4.dt * 0.05
    lam.lambda_rho[2, 2] -= grid4.dt * 0.05
    assert error_measure(lam, sol, grid4) == pytest.approx(0.025, abs=1e-12)


def test_error_velocity_zero_when_sampled(grid4):
    _, _, sol = build_test_case(2)
    lam = exact_lam(sol, grid4)
    x = grid4.spatial_nodes()
    V = np.stack([np.asarray(sol.v(i * grid4.dt, x)).reshape(1, -1)
                  for i in range(grid4.N_T)], axis=1)
    assert error_velocity(lam, V, sol, grid4) == pytest.approx(0.0, abs=1e-14)


def test_error_velocity_weighted_by_mass(grid4):
    _, _, sol = build_test_case(2)
    lam = PrimalVars.zeros(grid4)
    lam.lambda_rho[1, 2] = 0.5
    x = grid4.spatial_nodes()
    V = np.stack([np.asarray(sol.v(i * grid4.dt, x)).reshape(1, -1)
                  for i in range(grid4.N_T)], axis=1)
    V[0, 1, 2] += 2.0  # squared gap 4 on a cell carrying mass 0.5
    assert error_velocity(lam, V, sol, grid4) == pytest.approx(2.0, abs=1e-12)


def test_error_potential_gradient(grid4):
    _, _, sol = build_test_case(2)
    lam = exact_lam(sol, grid4)
    x = grid4.spatial_nodes()
    phi = np.stack([np.asarray(sol.phi(t, x)).reshape(-1) for t in grid4.times()])
    assert error_potential_gradient(phi, sol, lam, grid4) == pytest.approx(0.0, abs=1e-14)
    # only the N_T old slices enter: the final slice is free
    bumped = phi.copy()
    bumped[-1] += np.sin(2 * np.pi * x)
    assert error_potential_gradient(bumped, sol, lam, grid4) == pytest.approx(0.0, abs=1e-14)
    bumped = phi.copy()
    bumped[0] += np.sin(2 * np.pi * x)
    assert error_potential_gradient(bumped, sol, lam, grid4) > 1e-3
    _, _, sol1 = build_test_case(1)
    assert error_potential_gradient(phi, sol1, lam, grid4) is None


def test_resolve_nx():
    assert resolve_nx(16, 1.0, 1.0) == 16
    assert resolve_nx(16, 0.5, 1.0) == 8
    with pytest.raises(ValueError):
        resolve_nx(16, 1.0 / 3.0, 1.0)
    with pytest.raises(ValueError):
        resolve_nx(20, 0.1, 1.0)  # N_X = 2 is too coarse


def synthetic_report():
    records = [
        ErrorRecord(N=16, h=1 / 16, K_D=0.021, eps_K=1.8e-2, eps_phi=None,
                    eps_v=1.2e-2, eps_rho=0.12, iters=1000, wall_time=0.5,
                    converged=True, duality_gap=2e-8, stop_reason="converged",
                    r_final=0.015625),
        ErrorRecord(N=32, h=1 / 32, K_D=0.011, eps_K=7.9e-3, eps_phi=3e-3,
                    eps_v=4.2e-3, eps_rho=0.047, iters=3800, wall_time=2.0,
                    converged=False, duality_gap=7e-8, stop_reason="max_iters",
                    r_final=0.5),
    ]
    return ConvergenceReport(
        case_id=2, w=0.2, records=records, alpha_K=1.18, alpha_phi=None,
        alpha_v=1.69, alpha_rho=0.97,
        reference_rates={"alpha_K": 1.128}, comparator_rates={"alpha_K": 1.873})


def test_records_to_csv_format():
    text = records_to_csv(synthetic_report())
    lines = text.splitlines()
    assert lines[0] == "# case=2 w=0.20000000000000001"
    assert lines[1] == ("N,h,K_D,eps_K,eps_phi,eps_v,eps_rho,iters,wall_time,converged,"
                        "duality_gap,stop_reason,r_final")
    assert len(lines) == 4
    row16 = lines[2].split(",")
    assert row16[0] == "16"
    assert row16[4] == ""  # eps_phi None prints empty
    assert row16[9] == "1"
    row32 = lines[3].split(",")
    assert float(row32[3]) == pytest.approx(7.9e-3)
    assert row32[9] == "0"
    assert row32[11:] == ["max_iters", "0.5"]
    # serialization is deterministic
    assert records_to_csv(synthetic_report()) == text


def test_report_to_json_roundtrip():
    text = report_to_json(synthetic_report())
    assert report_to_json(synthetic_report()) == text
    payload = json.loads(text)
    assert payload["case_id"] == 2
    assert payload["alpha_phi"] is None
    assert payload["records"][0]["eps_K"] == pytest.approx(1.8e-2)
    assert payload["records"][1]["converged"] is False
    assert list(payload.keys()) == sorted(payload.keys())


def test_atomic_write_text(tmp_path):
    path = tmp_path / "sub" / "out.csv"
    atomic_write_text(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    atomic_write_text(str(path), "bye\n")
    assert path.read_text() == "bye\n"
    assert [p.name for p in path.parent.iterdir()] == ["out.csv"]


def test_solve_instance_record(case2_n16):
    r = case2_n16.record
    assert r.N == 16 and r.h == pytest.approx(1 / 16)
    assert r.converged and r.iters > 0
    assert r.wall_time > 0.0
    assert r.eps_phi is not None
    assert r.duality_gap <= 1e-6
    assert r.K_D == pytest.approx(0.0217635, abs=1e-6)


def test_run_sweep_two_resolutions_warns(quad):
    with pytest.warns(UserWarning, match="fewer than 3 usable resolutions"):
        rep = run_sweep(1, [16, 32])
    assert [r.N for r in rep.records] == [16, 32]
    assert rep.alpha_K is not None and rep.alpha_K > 0
    assert rep.alpha_phi is None  # case 1 has no closed-form potential
    assert rep.w == 1.0
    assert rep.reference_rates["alpha_K"] == pytest.approx(1.053)


def test_run_sweep_validates_input():
    with pytest.raises(ValueError):
        run_sweep(1, [32, 16])
    with pytest.raises(ValueError):
        run_sweep(1, [16, 16])
    with pytest.raises(ValueError):
        run_sweep(9, [16, 32])

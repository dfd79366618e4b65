import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hjot
from hjot.cli import COMMANDS, main, parse_resolutions, read_grid_csv, write_grid_csv
from hjot.grid import GridSpec

SOLVE16 = ["solve", "--case", "2", "--n", "16"]


def run_solve(tmp_path, name, extra=()):
    out = tmp_path / name
    code = main(SOLVE16 + ["--out", str(out)] + list(extra))
    return code, out


def test_parse_resolutions():
    assert parse_resolutions("16,32, 64") == [16, 32, 64]
    assert parse_resolutions(16) == [16]
    assert parse_resolutions([16, 32]) == [16, 32]
    from hjot.cli import ConfigError
    with pytest.raises(ConfigError):
        parse_resolutions("16,abc")
    with pytest.raises(ConfigError):
        parse_resolutions("1")


def test_grid_csv_roundtrip_scalar(tmp_path):
    g = GridSpec(d=1, D=1.0, N_T=3, N_X=4, eps=0.02, R=0.5)
    rng = np.random.default_rng(51)
    field = rng.standard_normal((4, 4))
    path = tmp_path / "f.csv"
    write_grid_csv(str(path), field, g, "phi")
    back = read_grid_csv(str(path))
    assert back.shape == field.shape
    assert np.array_equal(back, field)  # 17 digits round-trip bitwise
    text = path.read_text()
    assert text.startswith("# field=phi\n# kind=scalar\n# shape=4,4\n")
    assert "i,j,value" in text


def test_grid_csv_roundtrip_vector(tmp_path):
    g = GridSpec(d=1, D=1.0, N_T=3, N_X=4, eps=0.02, R=0.5)
    rng = np.random.default_rng(52)
    field = rng.standard_normal((1, 3, 4))
    path = tmp_path / "v.csv"
    write_grid_csv(str(path), field, g, "velocity")
    assert np.array_equal(read_grid_csv(str(path)), field)
    assert "# kind=vector" in path.read_text()


def test_grid_csv_rejects_bad_shape(tmp_path):
    g = GridSpec(d=1, D=1.0, N_T=3, N_X=4, eps=0.02, R=0.5)
    with pytest.raises(ValueError):
        write_grid_csv(str(tmp_path / "x.csv"), np.zeros((2, 3, 4)), g, "x")


def test_solve_writes_artifacts(tmp_path, capsys):
    code, out = run_solve(tmp_path, "run1")
    assert code == 0
    for name in ("phi.csv", "lambda_rho.csv", "lambda_m.csv", "velocity.csv",
                 "summary.json", "config_resolved.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["N"] == 16 and summary["case"] == 2
    assert summary["K_D"] == pytest.approx(0.0217635, abs=1e-6)
    assert summary["K_analytic"] == pytest.approx(0.2 ** 2 / 12)
    assert summary["errors"]["eps_K"] == pytest.approx(0.0184302, abs=1e-6)
    assert summary["stop_reason"] == "converged"
    # residual balancing only halves or doubles the starting r = 1
    assert summary["r_final"] > 0 and np.log2(summary["r_final"]).is_integer()
    assert "wall_time" not in summary  # solve artifacts are fully deterministic
    cfg = json.loads((out / "config_resolved.json").read_text())
    assert cfg["command"] == "solve" and cfg["case"] == 2
    stdout = capsys.readouterr().out
    assert "resolved config:" in stdout
    assert "K_D = " in stdout


def test_solve_outputs_are_bitwise_deterministic(tmp_path):
    _, out1 = run_solve(tmp_path, "run1")
    _, out2 = run_solve(tmp_path, "run2")
    for name in ("phi.csv", "lambda_rho.csv", "lambda_m.csv", "velocity.csv",
                 "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_solve_phi_csv_matches_grid_shape(tmp_path):
    _, out = run_solve(tmp_path, "run")
    phi = read_grid_csv(str(out / "phi.csv"))
    assert phi.shape == (17, 16)
    lam_m = read_grid_csv(str(out / "lambda_m.csv"))
    assert lam_m.shape == (1, 16, 16)


@pytest.mark.filterwarnings("ignore:ADMM did not converge")
def test_solve_nonconvergence_exit_code(tmp_path):
    code, out = run_solve(tmp_path, "short", ["--max-iters", "5"])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["stop_reason"] == "max_iters"


def test_solve_that_overflows_exits_2_with_its_artifacts(tmp_path):
    # the first projection overflows; the solve stops with a named reason
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.warns(UserWarning, match="non-finite"):
        code, out = run_solve(tmp_path, "tiny-r", ["--admm-r", "1e-200"])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] == "non_finite" and summary["iters"] == 1
    assert (out / "phi.csv").exists()


def test_solve_that_overflows_records_K_D_and_F_D_apart(tmp_path, capsys):
    # K_D is NaN; eps_K falls back to F_D, which is reported under its own name
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.warns(UserWarning, match="non-finite"):
        _, out = run_solve(tmp_path, "tiny-r", ["--admm-r", "1e-200"])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["K_D"] == "nan"
    assert math.isfinite(summary["F_D"])
    assert summary["errors"]["eps_K"] == abs(summary["K_analytic"] - summary["F_D"])
    assert summary["duality_gap"] == "inf"
    stdout = capsys.readouterr().out
    assert "K_D = nan " in stdout and f"F_D = {summary['F_D']:.8g}," in stdout


def test_solve_zero_iteration_cap_exits_3(tmp_path, capsys):
    code, _ = run_solve(tmp_path, "none", ["--max-iters", "0"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_missing_case_exits_3(tmp_path):
    assert main(["solve", "--out", str(tmp_path / "o")]) == 3


def test_solve_rejects_resolution_list(tmp_path):
    assert main(["solve", "--case", "2", "--n", "16,32",
                 "--out", str(tmp_path / "o")]) == 3


def test_unknown_flag_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus", "1"])
    assert exc.value.code == 3


def test_config_file_seeds_flags(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": "solve", "case": 2, "n": "16",
                                    "stop_tol": 1e-4}))
    out = tmp_path / "o"
    code = main(["solve", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["stop_tol"] == 1e-4
    assert resolved["case"] == 2


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"case": 2, "n": "32"}))
    out = tmp_path / "o"
    code = main(["solve", "--config", str(cfg_path), "--n", "16",
                 "--out", str(out)])
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["N"] == 16


def test_config_file_rejections(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"case": 2, "nope": 1}))
    assert main(["solve", "--config", str(bad_key)]) == 3

    wrong_cmd = tmp_path / "wrong_cmd.json"
    wrong_cmd.write_text(json.dumps({"command": "sweep", "case": 2}))
    assert main(["solve", "--config", str(wrong_cmd)]) == 3

    not_json = tmp_path / "not.json"
    not_json.write_text("{oops")
    assert main(["solve", "--config", str(not_json)]) == 3

    missing = tmp_path / "missing.json"
    assert main(["solve", "--config", str(missing)]) == 3

    not_obj = tmp_path / "arr.json"
    not_obj.write_text("[1,2]")
    assert main(["solve", "--config", str(not_obj)]) == 3


@pytest.mark.parametrize("command,key,value", [
    ("solve", "case", 2.7), ("solve", "max_iters", 3.9),
    ("verify-scheme", "trials", 10.5), ("verify-scheme", "seed", 0.5),
    ("hj-ivp", "n", [8, 16.5]), ("solve", "case", True), ("hj-ivp", "n", [True, 16]),
    ("hj-ivp", "n", 16.5),
])
def test_config_file_rejects_non_integral_integer_keys(tmp_path, capsys, command, key, value):
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(CHEAP[command], **{key: value}, out=str(out))))
    assert main([command, "--config", str(cfg_path)]) == 3
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not out.exists()


# a float key takes a real number, or null where its default is None:
# booleans, strings and a null for a key with a numeric default exit 3
@pytest.mark.parametrize("command,key,value", [
    ("solve", "zeta", True), ("solve", "stop_tol", True), ("solve", "admm_r", True),
    ("solve", "param", True), ("solve", "clamp_R", True), ("verify-scheme", "eps", True),
    ("hj-ivp", "clamp_R", "0.5"), ("solve", "zeta", None), ("solve", "stop_tol", "1e-3"),
], ids=["solve-zeta", "solve-stop_tol", "solve-admm_r", "solve-param", "solve-clamp_R",
        "verify-scheme-eps", "hj-ivp-clamp_R-string", "solve-zeta-null",
        "solve-stop_tol-string"])
def test_config_file_rejects_booleans_for_float_keys(tmp_path, capsys, command, key, value):
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(CHEAP[command], **{key: value}, out=str(out))))
    assert main([command, "--config", str(cfg_path)]) == 3
    assert f"{key} must be a number, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


# a null for an integer key with a numeric default, and a non-string for a
# string key other than n, exit 3 and name the key
@pytest.mark.parametrize("command,key,value,message", [
    ("solve", "max_iters", None, "must be an integer"),
    ("verify-scheme", "trials", None, "must be an integer"),
    ("solve", "out", 5, "must be a string"),
    ("verify-scheme", "cost", 5, "must be a string"),
], ids=["solve-max_iters-null", "verify-scheme-trials-null", "solve-out-number",
        "verify-scheme-cost-number"])
def test_config_file_rejects_wrong_types(tmp_path, capsys, monkeypatch, command, key, value,
                                         message):
    monkeypatch.chdir(tmp_path)  # a run that went ahead would write under ./out or ./5
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(CHEAP[command], **{key: value})))
    assert main([command, "--config", str(cfg_path)]) == 3
    assert f"{key} {message}, got {value!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_file_integral_floats_are_recorded_as_run(tmp_path):
    for i, n in enumerate(([8.0], 8.0)):  # n as a list and as a scalar
        out = tmp_path / f"o{i}"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"case": 2.0, "n": n, "max_iters": 3.0,
                                        "out": str(out)}))
        assert main(["solve", "--config", str(cfg_path)]) == 2  # 3 iterations do not converge
        resolved = (out / "config_resolved.json").read_text()
        assert '"case": 2,' in resolved and '"max_iters": 3,' in resolved
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["N"], summary["iters"]) == (8, 3)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_help_lists_config_and_one_flag_per_key(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
    keys = COMMANDS[command][2]
    assert listed == {"--config"} | {"--" + k.replace("_", "-") for k in keys}


# every key at its default, but for cheap resolutions and trial counts
CHEAP = {"solve": {"case": 2, "n": "8"}, "sweep": {"case": 2, "n": "8,16"},
         "verify-scheme": {"trials": 10}, "hj-ivp": {"n": "8,16"}}


@pytest.mark.filterwarnings("ignore:fewer than 3 usable resolutions")
@pytest.mark.parametrize("command", list(COMMANDS))
def test_config_file_with_every_key_is_accepted(tmp_path, command):
    out = tmp_path / "o"
    file_cfg = dict(COMMANDS[command][2], **CHEAP[command], out=str(out))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(file_cfg))
    assert main([command, "--config", str(cfg_path)]) == 0
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved == dict(file_cfg, command=command)


def test_seed_is_rejected_outside_verify_scheme(tmp_path, capsys):
    # only verify-scheme draws random numbers; elsewhere --seed is an
    # unknown flag, which exits 3 like any invalid configuration
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--case", "2", "--n", "8", "--seed", "5", "--out", str(out)])
    assert exc.value.code == 3
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_cost_is_rejected_by_the_solver_commands(tmp_path, capsys, command):
    # the saddle-point solver runs with the quadratic cost alone, so --cost
    # is an unknown flag there and "cost" an unknown config key
    out = tmp_path / "o"
    argv = [command, "--case", "2", "--n", CHEAP[command]["n"], "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cost", "power:3"])
    assert exc.value.code == 3
    assert "--cost" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cost": "quadratic"}))
    assert main(argv + ["--config", str(cfg_path)]) == 3
    assert "unknown config key 'cost'" in capsys.readouterr().err
    assert not out.exists()


def test_hj_ivp_runs_with_a_power_cost(tmp_path):
    out = tmp_path / "o"
    assert main(["hj-ivp", "--n", "16,32", "--cost", "power:3", "--out", str(out)]) == 0
    assert json.loads((out / "config_resolved.json").read_text())["cost"] == "power:3"
    assert json.loads((out / "ivp.json").read_text())["decreasing"] is True


@pytest.mark.filterwarnings("ignore:fewer than 3 usable resolutions")
@pytest.mark.parametrize("command", ["solve", "sweep", "hj-ivp"])
def test_config_resolved_has_no_seed(tmp_path, command):
    out = tmp_path / "o"
    argv = [command, "--out", str(out)]
    for key, value in CHEAP[command].items():
        argv += ["--" + key, str(value)]
    assert main(argv) == 0
    assert "seed" not in json.loads((out / "config_resolved.json").read_text())


@pytest.mark.parametrize("argv,message", [
    (["solve", "--case", "9"], "unknown test case"),
    (SOLVE16 + ["--zeta", "0.3"], "non-integral"),
    (["sweep", "--case", "9", "--n", "16,32"], "unknown test case"),
    (["verify-scheme", "--n", "4", "--zeta", "4"], "no admissible viscosity"),
    (["solve", "--case", "2", "--n", "8", "--stop-tol", "nan"], "must be finite and positive"),
    (["verify-scheme", "--n", "16", "--trials", "0"], "trials must be at least 1"),
    (["verify-scheme", "--n", "16", "--trials", "-5"], "trials must be at least 1"),
    (["solve", "--case", "2", "--n", "16", "--clamp-R", "nan"], "R must be finite, got nan"),
    (["solve", "--case", "2", "--n", "8", "--clamp-R", "inf"], "R must be finite, got inf"),
    (["verify-scheme", "--n", "8", "--clamp-R", "inf"], "R must be finite, got inf"),
    (["solve", "--case", "2", "--n", "8", "--clamp-R", "0"], "R must be positive, got 0.0"),
    (["verify-scheme", "--n", "16", "--eps", "nan"], "eps must be finite, got nan"),
    (["solve", "--case", "2", "--n", "8", "--zeta", "inf"], "N_X=inf"),
    (["solve", "--case", "2", "--n", "8", "--zeta", "1e308"], "N_X=inf"),
    (["verify-scheme", "--n", "8", "--zeta", "inf"], "N_X=inf"),
    (["solve", "--case", "1", "--n", "8", "--param", "inf"], "nonzero integer w, got inf"),
    (["solve", "--case", "1", "--n", "8", "--param", "nan"], "nonzero integer w, got nan"),
    (["hj-ivp", "--n", "16,16"], "strictly ascending"),
    (["hj-ivp", "--n", "32,16"], "strictly ascending"),
    (["verify-scheme", "--n", "16", "--trials", "5", "--seed", "-1"],
     "seed must be a non-negative integer, got -1"),
], ids=["solve-case9", "solve-zeta", "sweep-case9", "verify-empty-interval",
        "solve-stop-tol-nan", "verify-trials0", "verify-trials-neg", "solve-clamp-R-nan",
        "solve-clamp-R-inf", "verify-clamp-R-inf", "solve-clamp-R-0",
        "verify-eps-nan", "solve-zeta-inf", "solve-zeta-1e308", "verify-zeta-inf",
        "solve-param-inf", "solve-param-nan", "hj-ivp-repeated-n", "hj-ivp-descending-n",
        "verify-seed-neg"])
def test_rejected_run_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("ignore:fewer than 3 usable resolutions")
def test_sweep_two_resolutions(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(["sweep", "--case", "1", "--n", "16,32", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["N"] for r in report["records"]] == [16, 32]
    assert report["alpha_K"] is not None
    csv = (out / "records.csv").read_text().splitlines()
    assert csv[0] == "# case=1 w=1"
    assert csv[1].startswith("N,h,K_D")
    assert len(csv) == 4
    stdout = capsys.readouterr().out
    assert "alpha_K" in stdout and "reference" in stdout


@pytest.mark.filterwarnings("ignore:ADMM did not converge", "ignore:.*excluded from fits",
                            "ignore:fewer than 3 usable resolutions")
def test_sweep_records_carry_stop_reason_and_r_final(tmp_path):
    out = tmp_path / "capped"
    assert main(["sweep", "--case", "1", "--n", "8,16", "--max-iters", "1",
                 "--out", str(out)]) == 2
    records = json.loads((out / "report.json").read_text())["records"]
    assert [r["stop_reason"] for r in records] == ["max_iters", "max_iters"]
    assert all(r["r_final"] > 0 for r in records)
    head, *rows = (out / "records.csv").read_text().splitlines()[1:]
    cols = head.split(",")
    assert [row.split(",")[cols.index("stop_reason")] for row in rows] == ["max_iters"] * 2
    assert [float(row.split(",")[cols.index("r_final")]) for row in rows] \
        == [r["r_final"] for r in records]


def test_sweep_needs_two_resolutions(tmp_path):
    assert main(["sweep", "--case", "1", "--n", "16",
                 "--out", str(tmp_path / "o")]) == 3


def test_verify_scheme_passes_by_default(tmp_path, capsys):
    out = tmp_path / "v"
    code = main(["verify-scheme", "--n", "16", "--trials", "100",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "verify.json").read_text())
    for name in ("consistency_affine", "monotone", "cr_preservation",
                 "nonexpansive"):
        assert payload[name]["pass"] is True, name
    assert "PASS" in capsys.readouterr().out


def test_verify_scheme_fails_without_viscosity(tmp_path, capsys):
    out = tmp_path / "v0"
    code = main(["verify-scheme", "--n", "16", "--trials", "100",
                 "--eps", "0", "--out", str(out)])
    assert code == 4
    payload = json.loads((out / "verify.json").read_text())
    assert payload["monotone"]["pass"] is False
    assert payload["eps"] == 0.0
    assert "FAIL" in capsys.readouterr().out


def test_verify_scheme_fails_on_non_finite_trajectories(tmp_path):
    # without viscosity the N = 64 trajectories blow up to inf, then NaN
    out = tmp_path / "v64"
    code = main(["verify-scheme", "--n", "64", "--trials", "100",
                 "--eps", "0", "--out", str(out)])
    assert code == 4
    payload = json.loads((out / "verify.json").read_text())
    assert payload["cr_preservation"] == {"pass": False, "worst": "nan"}


def test_hj_ivp_errors_decrease(tmp_path, capsys):
    out = tmp_path / "ivp"
    code = main(["hj-ivp", "--n", "16,32", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "ivp.json").read_text())
    rows = payload["rows"]
    assert [r["N"] for r in rows] == [16, 32]
    assert rows[1]["sup_error"] < rows[0]["sup_error"]
    assert payload["decreasing"] is True
    assert payload["envelope_C"] == pytest.approx(rows[0]["c_over_sqrt_h"])
    csv = (out / "ivp.csv").read_text().splitlines()
    assert csv[0] == "N,h,sup_error"
    assert len(csv) == 3


@pytest.fixture(scope="module")
def diverged_ivp(tmp_path_factory):
    """(exit code, --out, stderr) of an hj-ivp run whose error blows up: a
    slope clamp far below the data's slopes."""
    out = tmp_path_factory.mktemp("ivp") / "ivp"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["hj-ivp", "--n", "32,64", "--clamp-R", "0.01", "--out", str(out)])
    return code, out, err.getvalue()


def test_hj_ivp_artifacts_are_standard_json(diverged_ivp):
    _, out, _ = diverged_ivp

    def reject(constant):
        raise ValueError(f"{constant} is not standard JSON")

    payload = json.loads((out / "ivp.json").read_text(), parse_constant=reject)
    assert payload["envelope_C"] == "inf" and payload["fitted_order"] == "nan"
    json.loads((out / "config_resolved.json").read_text(), parse_constant=reject)


def test_hj_ivp_exits_4_on_a_non_finite_error(diverged_ivp):
    # the diverged run still writes its artifacts, then fails like a property check
    code, out, err = diverged_ivp
    assert code == 4
    rows = json.loads((out / "ivp.json").read_text())["rows"]
    assert [r["sup_error"] == "inf" for r in rows] == [False, True]
    assert len((out / "ivp.csv").read_text().splitlines()) == 3
    assert "not finite" in err


@pytest.mark.skipif(shutil.which("hjot") is None,
                    reason="no installed 'hjot' console script on PATH")
def test_console_script_installed():
    exe = shutil.which("hjot")
    assert exe is not None, "console script 'hjot' is not on PATH"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "sweep" in proc.stdout


def test_console_script_exit_code_passthrough(tmp_path):
    # Run the entry point declared in pyproject.toml the way an installer's
    # wrapper does, so the check needs no installed package; an installed
    # 'hjot' script, if any, is checked as well.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "hjot" in scripts, "pyproject.toml declares no 'hjot' script"
    module, _, func = scripts["hjot"].partition(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    # the child imports the same hjot as this process, whatever its cwd
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(hjot.__file__).resolve().parents[1]),
                      env.get("PYTHONPATH")]))
    runs = [([sys.executable, "-c", wrapper], env)]
    exe = shutil.which("hjot")
    if exe is not None:
        runs.append(([exe], None))
    for cmd, run_env in runs:
        proc = subprocess.run(cmd + ["solve", "--case", "9",
                                     "--out", str(tmp_path / "o")],
                              capture_output=True, text=True,
                              cwd=tmp_path, env=run_env)
        assert proc.returncode == 3
        assert "error:" in proc.stderr

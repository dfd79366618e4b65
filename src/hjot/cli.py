"""Command-line front end.

Subcommands:

  solve          one transport solve of a test case, emits CSV grids + JSON summary
  sweep          resolution sweep with convergence-rate fits
  verify-scheme  randomized property checks of the finite-difference scheme
  hj-ivp         scheme vs Hopf-Lax oracle on an initial-value problem

Each command is one COMMANDS entry, whose defaults name its config keys;
FLAGS gives each key's type and help, and its flag is "--" + the key with
"_" turned into "-". Every artifact format is defined in this module.

Configuration comes from flags, optionally seeded by a JSON config file
(flags override the file). The resolved configuration is echoed to stdout
and, once the run is done, into the output directory, so any run can be
reproduced from its artifacts; a run rejected with exit code 3 writes
nothing there. All outputs are deterministic for a fixed config, except the
wall_time column of sweep records.

Exit codes: 0 success, 2 non-convergence, 3 invalid config, 4 property
failure (verify-scheme) or a non-finite error (hj-ivp).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import TYPE_CHECKING

import numpy as np

from .config import AdmmConfig
from .cost import make_cost
from .grid import GridSpec, fit_rate, make_grid, resolve_nx
from .hj import (SchemeParams, check_monotone, consistency_residual, hopf_lax,
                 make_scheme, max_slope, random_cr_field, solve_ivp)
from .measures import DEFAULT_W, wrap

# The saddle-point modules (bench, transport), which load SciPy, are
# imported where solve and sweep run, so that the scheme commands need
# numpy alone.
if TYPE_CHECKING:
    from .bench import ConvergenceReport


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 means non-convergence here,
    # so remap parse errors to the invalid-config code 3
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


FLAGS = {
    "case": (int, "test case id: 1, 2 or 3"),
    "param": (float, "test case parameter w (case-specific default)"),
    "n": (str, "time subdivisions, comma-separated list"),
    "zeta": (float, "ratio dt/dx (default 1)"),
    "cost": (str, "cost model: quadratic or power:p"),
    "clamp_R": (float, "slope clamp R (default: cost Lipschitz bound)"),
    "admm_r": (float, "ADMM penalty parameter"),
    "stop_tol": (float, "residual tolerance (primal and dual)"),
    "max_iters": (int, "ADMM iteration cap"),
    "eps": (float, "viscosity override (0 demonstrates failure)"),
    "trials": (int, "randomized trial count"),
    "out": (str, "output directory"),
    "seed": (int, "seed for randomized checks"),
}


def build_parser() -> _Parser:
    p = _Parser(prog="hjot",
                description="dynamic optimal transport via a monotone "
                            "finite-difference discretization of the dual problem")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, help_text, defaults) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file; flags override its entries")
        for key in defaults:
            kind, flag_help = FLAGS[key]
            sp.add_argument("--" + key.replace("_", "-"), type=kind, help=flag_help)
    return p


def resolve_config(ns: argparse.Namespace) -> dict:
    """The command's defaults <- config file <- flags, with unknown keys rejected."""
    cmd = ns.command
    cfg = dict(COMMANDS[cmd][2])
    if ns.config:
        try:
            with open(ns.config) as f:
                file_cfg = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        stored = file_cfg.pop("command", cmd)
        if stored != cmd:
            raise ConfigError(f"config file is for command {stored!r}, not {cmd!r}")
        for k, v in file_cfg.items():
            if k not in cfg:
                raise ConfigError(f"unknown config key {k!r} for {cmd}")
            cfg[k] = v
    for k in cfg:
        v = getattr(ns, k)
        if v is not None:
            cfg[k] = v
        kind, default = FLAGS[k][0], COMMANDS[cmd][2][k]
        # a number key takes null only where its default is None
        if kind is int and (cfg[k] is not None or default is not None):
            cfg[k] = _integer(k, cfg[k])
        elif kind is float and type(cfg[k]) not in (int, float, type(default)):
            raise ConfigError(f"{k} must be a number, got {cfg[k]!r}")
        elif kind is str and k != "n" and not isinstance(cfg[k], str):  # n: see parse_resolutions
            raise ConfigError(f"{k} must be a string, got {cfg[k]!r}")
    cfg["command"] = cmd
    return cfg


def _integer(key: str, value) -> int:
    """The int that value stands for; a bool, or a value int() would
    truncate, is rejected."""
    whole = value.is_integer() if isinstance(value, float) else not isinstance(value, bool)
    try:
        if whole:
            return int(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def parse_resolutions(value) -> list[int]:
    if isinstance(value, (int, float)):
        ns = [_integer("n", value)]
    elif isinstance(value, (list, tuple)):
        ns = [_integer("n", v) for v in value]
    else:
        try:
            ns = [int(s) for s in str(value).split(",") if s.strip()]
        except ValueError as e:
            raise ConfigError(f"cannot parse resolutions {value!r}") from e
    if not ns or any(n < 2 for n in ns):
        raise ConfigError(f"resolutions must be integers >= 2, got {value!r}")
    return ns


# ------------------------------------------------------------- artifacts

def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(x) -> str:
    """CSV cell: empty for None, 0/1 for bools, str for ints and strings,
    %.17g for floats."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (int, str)):
        return str(x)
    return "%.17g" % x


def records_to_csv(report: ConvergenceReport) -> str:
    """One row per ErrorRecord, its fields as the columns in declaration order."""
    from .bench import ErrorRecord
    names = [f.name for f in dataclasses.fields(ErrorRecord)]
    lines = [f"# case={report.case_id} w={_cell(report.w)}", ",".join(names)]
    lines += [",".join(_cell(getattr(r, name)) for name in names)
              for r in report.records]
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    """The JSON format of every artifact: sorted keys, two-space indent, and
    standard JSON only: a float JSON cannot carry, at any depth, becomes the
    string "inf", "-inf" or "nan"."""
    return json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _finite(x):
    """x with every non-finite float in it, at any depth, as its repr."""
    if isinstance(x, float):
        return x if math.isfinite(x) else repr(float(x))
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return x


def report_to_json(report: ConvergenceReport) -> str:
    return _json_text(dataclasses.asdict(report))


def _grid_meta(grid: GridSpec) -> str:
    return ("# N_T=%d N_X=%d d=%d D=%.17g dt=%.17g dx=%.17g eps=%.17g R=%.17g"
            % (grid.N_T, grid.N_X, grid.d, grid.D, grid.dt, grid.dx,
               grid.eps, grid.R))


def write_grid_csv(path: str, field: np.ndarray, grid: GridSpec, name: str) -> None:
    """Field on Q_D / Q'_D as CSV rows (i, j..., value).

    Scalar fields have shape (n_t, *space) and rows i,j,value; vector
    fields have shape (d, n_t, *space) and rows i,k,j,value with k the
    component. Values use 17 significant digits so reads round-trip
    bitwise.
    """
    arr = np.asarray(field, dtype=float)
    if arr.ndim == 1 + grid.d:
        kind, lead = "scalar", ["i"]
    elif arr.ndim == 2 + grid.d and arr.shape[0] == grid.d:
        kind, lead = "vector", ["i", "k"]
    else:
        raise ValueError(f"unexpected field shape {arr.shape}")
    jcols = ["j"] if grid.d == 1 else [f"j{k}" for k in range(grid.d)]
    lines = [f"# field={name}", f"# kind={kind}",
             "# shape=" + ",".join(str(s) for s in arr.shape),
             _grid_meta(grid), ",".join(lead + jcols + ["value"])]
    for idx in np.ndindex(arr.shape):
        pos = (idx[1], idx[0]) + idx[2:] if kind == "vector" else idx
        lines.append(",".join(str(p) for p in pos) + ",%.17g" % arr[idx])
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_grid_csv(path: str) -> np.ndarray:
    """Read back a grid CSV; rows are stored in C order of the array shape."""
    shape = None
    vals = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# shape="):
                    shape = tuple(int(s) for s in line[len("# shape="):].split(","))
                continue
            if line[0].isalpha():
                continue  # column header row
            vals.append(float(line.rsplit(",", 1)[1]))
    if shape is None:
        raise ValueError(f"{path}: missing '# shape=' metadata")
    return np.array(vals).reshape(shape)


# --------------------------------------------------------------- commands

def _solver_args(cfg: dict, n_ok, n_error: str) -> tuple[int, list[int], dict]:
    """Check --case, then --n, then build AdmmConfig; returns the case, the
    resolutions and the keywords that solve_instance and run_sweep share."""
    if cfg["case"] is None:
        raise ConfigError(f"{cfg['command']} requires --case")
    ns = parse_resolutions(cfg["n"])
    if not n_ok(len(ns)):
        raise ConfigError(n_error)
    admm_cfg = AdmmConfig(r=float(cfg["admm_r"]), stop_tol=float(cfg["stop_tol"]),
                          max_iters=cfg["max_iters"])
    return cfg["case"], ns, dict(w=cfg["param"], zeta=float(cfg["zeta"]),
                                 R=cfg["clamp_R"], admm_config=admm_cfg)


def cmd_solve(cfg: dict) -> int:
    from .bench import solve_instance
    from .transport import recover_velocity
    case, ns, kwargs = _solver_args(
        cfg, lambda k: k == 1, "solve takes a single resolution, use sweep for lists")
    res = solve_instance(case, ns[0], **kwargs)
    rec = res.record
    grid = res.problem.grid
    out = cfg["out"]
    for name, field in (("phi", res.phi), ("lambda_rho", res.lam.lambda_rho),
                        ("lambda_m", res.lam.lambda_m),
                        ("velocity", recover_velocity(res.lam))):
        write_grid_csv(os.path.join(out, f"{name}.csv"), field, grid, name)
    w = cfg["param"] if cfg["param"] is not None else DEFAULT_W[case]
    summary = {
        "case": case, "w": w,
        "N": rec.N, "N_X": grid.N_X, "zeta": grid.zeta, "cost": "quadratic",
        "R": grid.R, "eps": grid.eps,
        "K_D": rec.K_D, "F_D": rec.F_D, "K_analytic": res.sol.cost,
        "duality_gap": rec.duality_gap,
        "iters": rec.iters, "converged": rec.converged,
        "stop_reason": rec.stop_reason, "r_final": rec.r_final,
        "primal_res": res.state.primal_res, "dual_res": res.state.dual_res,
        "errors": {"eps_K": rec.eps_K, "eps_phi": rec.eps_phi,
                   "eps_v": rec.eps_v, "eps_rho": rec.eps_rho},
    }
    atomic_write_text(os.path.join(out, "summary.json"), _json_text(summary))
    print(f"K_D = {rec.K_D:.8g} (analytic {res.sol.cost:.8g}), F_D = {rec.F_D:.8g}, "
          f"duality gap {rec.duality_gap:.3g}, {rec.iters} iterations")
    print(f"errors: eps_K={rec.eps_K:.3g} "
          f"eps_phi={'n/a' if rec.eps_phi is None else format(rec.eps_phi, '.3g')} "
          f"eps_v={rec.eps_v:.3g} eps_rho={rec.eps_rho:.3g}")
    if not rec.converged:
        print("WARNING: solver did not reach the residual tolerance", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(cfg: dict) -> int:
    from .bench import run_sweep
    case, ns, kwargs = _solver_args(cfg, lambda k: k >= 2,
                                    "sweep needs at least 2 resolutions")
    report = run_sweep(case, ns, **kwargs)
    out = cfg["out"]
    atomic_write_text(os.path.join(out, "report.json"), report_to_json(report))
    atomic_write_text(os.path.join(out, "records.csv"), records_to_csv(report))
    print(f"case {report.case_id} (w={report.w:g}), N = {ns}")
    for label, fitted in (("alpha_K", report.alpha_K), ("alpha_phi", report.alpha_phi),
                          ("alpha_v", report.alpha_v), ("alpha_rho", report.alpha_rho)):
        ref = report.reference_rates.get(label)
        ref_txt = f"reference {ref:g}" if ref is not None else "no reference"
        fit_txt = "n/a" if fitted is None else f"{fitted:.3f}"
        print(f"  {label:<9} fitted {fit_txt:<8} ({ref_txt})")
    for r in report.records:
        print(f"  N={r.N:<4d} eps_K={r.eps_K:.3e} eps_v={r.eps_v:.3e} "
              f"eps_rho={r.eps_rho:.3e} iters={r.iters}"
              + ("" if r.converged else "  NOT CONVERGED"))
    if not all(r.converged for r in report.records):
        return 2
    return 0


def cmd_verify_scheme(cfg: dict) -> int:
    ns = parse_resolutions(cfg["n"])
    if len(ns) != 1:
        raise ConfigError("verify-scheme takes a single resolution")
    cost = make_cost(cfg["cost"])
    grid = make_grid(1, 1.0, ns[0], resolve_nx(ns[0], float(cfg["zeta"]), 1.0),
                     cost, R=cfg["clamp_R"])
    if cfg["eps"] is not None:
        grid = dataclasses.replace(grid, eps=float(cfg["eps"]))
        params = SchemeParams(grid, cost)
    else:
        params = make_scheme(grid, cost)

    slopes = np.linspace(-grid.R, grid.R, 7)
    cons = max(consistency_residual(params, s) for s in slopes)
    trials = cfg["trials"]
    rep = check_monotone(params, trials=trials, seed=cfg["seed"])
    rng = np.random.default_rng(cfg["seed"] + 1)
    preserve_excess = 0.0
    for _ in range(5):
        traj = solve_ivp(random_cr_field(grid, grid.R, rng), params)
        # np.maximum, unlike max, keeps a NaN slope
        preserve_excess = float(np.maximum(preserve_excess, max_slope(traj, grid) - grid.R))

    checks = [
        ("consistency_affine", cons <= 1e-14, cons),
        ("monotone", rep.monotone_violations == 0, rep.max_monotone_violation),
        ("cr_preservation", preserve_excess <= 1e-10, preserve_excess),
        ("nonexpansive", rep.nonexpansive_violations == 0, rep.max_expansion_excess),
    ]
    print(f"scheme checks at N={ns[0]}, eps={grid.eps:g}, R={grid.R:g}, "
          f"{trials} trials:")
    for name, ok, worst in checks:
        print(f"  {name:<20} {'PASS' if ok else 'FAIL'}  worst {worst:.3e}")
    payload = {name: {"pass": ok, "worst": worst}
               for name, ok, worst in checks}
    payload["eps"] = grid.eps
    payload["trials"] = trials
    atomic_write_text(os.path.join(cfg["out"], "verify.json"), _json_text(payload))
    return 0 if all(ok for _, ok, _ in checks) else 4


def cmd_hj_ivp(cfg: dict) -> int:
    ns = parse_resolutions(cfg["n"])
    if sorted(set(ns)) != ns:
        raise ConfigError("resolutions must be strictly ascending")
    cost = make_cost(cfg["cost"])

    def phi0(x):
        return wrap(np.asarray(x, dtype=float)) ** 2 / 2.0

    rows = []
    for n in ns:
        grid = make_grid(1, 1.0, n, resolve_nx(n, float(cfg["zeta"]), 1.0),
                         cost, R=cfg["clamp_R"])
        params = make_scheme(grid, cost)
        x = grid.spatial_nodes()
        traj = solve_ivp(phi0(x), params)
        sup = 0.0
        for i, t in enumerate(grid.times()):
            exact = hopf_lax(phi0, float(t), x, cost, grid)
            err = float(np.max(np.abs(traj[i] - exact)))
            sup = max(sup, math.inf if math.isnan(err) else err)  # max drops a NaN
        rows.append({"N": n, "h": grid.h, "sup_error": sup,
                     "c_over_sqrt_h": sup / math.sqrt(grid.h)})
        print(f"  N={n:<4d} h={grid.h:.5f} sup|Phi - phi| = {sup:.6e}")

    envelope = max(r["c_over_sqrt_h"] for r in rows)
    decreasing = all(rows[i + 1]["sup_error"] < rows[i]["sup_error"]
                     for i in range(len(rows) - 1))
    alpha = fit_rate([(r["h"], r["sup_error"]) for r in rows]) if len(rows) >= 2 else None
    print(f"  envelope C = max err/sqrt(h) = {envelope:.4g}, "
          f"decreasing: {decreasing}"
          + (f", fitted order {alpha:.3f}" if alpha is not None else ""))
    payload = {"rows": rows, "envelope_C": envelope, "decreasing": decreasing,
               "fitted_order": alpha}
    atomic_write_text(os.path.join(cfg["out"], "ivp.json"), _json_text(payload))
    csv = ["N,h,sup_error"] + ["%d,%.17g,%.17g" % (r["N"], r["h"], r["sup_error"])
                               for r in rows]
    atomic_write_text(os.path.join(cfg["out"], "ivp.csv"), "\n".join(csv) + "\n")
    if not all(math.isfinite(x) for x in [envelope] + [r["sup_error"] for r in rows]):
        print("FAIL: the scheme's error is not finite", file=sys.stderr)
        return 4
    return 0


# the keys every command has; solve and sweep add the test case and the
# ADMM keys, which default to AdmmConfig's. Only the scheme commands take a
# cost model: the saddle-point solver runs with the quadratic cost alone.
_COMMON = dict(zeta=1.0, clamp_R=None, out="out")
_ADMM = AdmmConfig()
_SOLVER = dict(case=None, param=None, **_COMMON, admm_r=_ADMM.r,
               stop_tol=_ADMM.stop_tol, max_iters=_ADMM.max_iters)
# name -> (handler, help, defaults); the defaults name the command's config keys
COMMANDS = {
    "solve": (cmd_solve, "solve one instance", dict(_SOLVER, n="32")),
    "sweep": (cmd_sweep, "resolution sweep with rate fits", dict(_SOLVER, n="16,32,64,128")),
    "verify-scheme": (cmd_verify_scheme, "scheme property checks",
                      dict(_COMMON, cost="quadratic", n="32", eps=None, trials=1000,
                           seed=0)),
    "hj-ivp": (cmd_hj_ivp, "Hamilton-Jacobi IVP vs Hopf-Lax oracle",
               dict(_COMMON, cost="quadratic", n="16,32,64,128")),
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = resolve_config(ns)
        text = _json_text(cfg)
        sys.stdout.write("resolved config:\n" + text)
        code = COMMANDS[ns.command][0](cfg)
        # written last: a command that raises (exit 3) leaves --out untouched
        atomic_write_text(os.path.join(cfg["out"], "config_resolved.json"), text)
        return code
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

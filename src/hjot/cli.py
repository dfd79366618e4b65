"""Command-line front end.

Subcommands:

  solve          one transport solve of a test case, emits CSV grids + JSON summary
  sweep          resolution sweep with convergence-rate fits
  verify-scheme  randomized property checks of the finite-difference scheme
  hj-ivp         scheme vs Hopf-Lax oracle on an initial-value problem

Configuration comes from flags, optionally seeded by a JSON config file
(flags override the file). The resolved configuration is echoed to stdout
and, once the run is done, into the output directory, so any run can be
reproduced from its artifacts; a run rejected with exit code 3 writes
nothing there. All outputs are deterministic for a fixed config, except the
wall_time column of sweep records.

Exit codes: 0 success, 2 non-convergence, 3 invalid config, 4 property failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .admm import AdmmConfig
from .bench import (atomic_write_text, fit_rate, records_to_csv,
                    report_to_json, resolve_nx, run_sweep, solve_instance)
from .cost import make_cost
from .grid import GridSpec, default_monotone_radius, make_grid
from .hj import (SchemeParams, check_monotone, consistency_residual, hopf_lax,
                 make_scheme, max_slope, random_cr_field, solve_ivp)
from .measures import DEFAULT_W, wrap
from .transport import recover_velocity


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 means non-convergence here,
    # so remap parse errors to the invalid-config code 3
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


# the keys solve and sweep share; the ADMM ones default to AdmmConfig's
_ADMM = AdmmConfig()
_SOLVER_DEFAULTS = dict(case=None, param=None, zeta=1.0, cost="quadratic", clamp_R=None,
                        admm_r=_ADMM.r, stop_tol=_ADMM.stop_tol, max_iters=_ADMM.max_iters,
                        out="out", seed=0)
DEFAULTS = {
    "solve": dict(_SOLVER_DEFAULTS, n="32"),
    "sweep": dict(_SOLVER_DEFAULTS, n="16,32,64,128"),
    "verify-scheme": dict(n="32", zeta=1.0, cost="quadratic", clamp_R=None,
                          eps=None, trials=1000, out="out", seed=0),
    "hj-ivp": dict(n="16,32,64,128", zeta=1.0, cost="quadratic", clamp_R=None,
                   out="out", seed=0),
}


def build_parser() -> _Parser:
    p = _Parser(prog="hjot",
                description="dynamic optimal transport via a monotone "
                            "finite-difference discretization of the dual problem")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(sp, *flags):
        for f in flags:
            if f == "case":
                sp.add_argument("--case", type=int, help="test case id: 1, 2 or 3")
            elif f == "param":
                sp.add_argument("--param", type=float,
                                help="test case parameter w (case-specific default)")
            elif f == "n":
                sp.add_argument("--n", type=str,
                                help="time subdivisions, comma-separated list")
            elif f == "zeta":
                sp.add_argument("--zeta", type=float, help="ratio dt/dx (default 1)")
            elif f == "cost":
                sp.add_argument("--cost", type=str,
                                help="cost model: quadratic or power:p")
            elif f == "clamp_R":
                sp.add_argument("--clamp-R", dest="clamp_R", type=float,
                                help="slope clamp R (default: cost Lipschitz bound)")
            elif f == "admm_r":
                sp.add_argument("--admm-r", dest="admm_r", type=float,
                                help="ADMM penalty parameter")
            elif f == "stop_tol":
                sp.add_argument("--stop-tol", dest="stop_tol", type=float,
                                help="residual tolerance (primal and dual)")
            elif f == "max_iters":
                sp.add_argument("--max-iters", dest="max_iters", type=int,
                                help="ADMM iteration cap")
            elif f == "out":
                sp.add_argument("--out", type=str, help="output directory")
            elif f == "config":
                sp.add_argument("--config", type=str,
                                help="JSON config file; flags override its entries")
            elif f == "seed":
                sp.add_argument("--seed", type=int, help="seed for randomized checks")
            elif f == "eps":
                sp.add_argument("--eps", type=float,
                                help="viscosity override (0 demonstrates failure)")
            elif f == "trials":
                sp.add_argument("--trials", type=int, help="randomized trial count")

    sp = sub.add_parser("solve", help="solve one instance")
    add(sp, "case", "param", "n", "zeta", "cost", "clamp_R", "admm_r",
        "stop_tol", "max_iters", "out", "config", "seed")
    sp = sub.add_parser("sweep", help="resolution sweep with rate fits")
    add(sp, "case", "param", "n", "zeta", "cost", "clamp_R", "admm_r",
        "stop_tol", "max_iters", "out", "config", "seed")
    sp = sub.add_parser("verify-scheme", help="scheme property checks")
    add(sp, "n", "zeta", "cost", "clamp_R", "eps", "trials", "out", "config", "seed")
    sp = sub.add_parser("hj-ivp", help="Hamilton-Jacobi IVP vs Hopf-Lax oracle")
    add(sp, "n", "zeta", "cost", "clamp_R", "out", "config", "seed")
    return p


def resolve_config(ns: argparse.Namespace) -> dict:
    """DEFAULTS <- config file <- flags, with unknown keys rejected."""
    cmd = ns.command
    cfg = dict(DEFAULTS[cmd])
    if getattr(ns, "config", None):
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
        v = getattr(ns, k, None)
        if v is not None:
            cfg[k] = v
    cfg["command"] = cmd
    return cfg


def parse_resolutions(value) -> list[int]:
    if isinstance(value, int):
        ns = [value]
    elif isinstance(value, (list, tuple)):
        ns = [int(v) for v in value]
    else:
        try:
            ns = [int(s) for s in str(value).split(",") if s.strip()]
        except ValueError as e:
            raise ConfigError(f"cannot parse resolutions {value!r}") from e
    if not ns or any(n < 2 for n in ns):
        raise ConfigError(f"resolutions must be integers >= 2, got {value!r}")
    return ns


def _jsonable(x):
    """floats that JSON cannot carry become strings; None passes through."""
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


# ---------------------------------------------------------------- grid CSV

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
        kind = "scalar"
        jcols = ["j"] if grid.d == 1 else [f"j{k}" for k in range(grid.d)]
        header = ",".join(["i"] + jcols + ["value"])
    elif arr.ndim == 2 + grid.d and arr.shape[0] == grid.d:
        kind = "vector"
        jcols = ["j"] if grid.d == 1 else [f"j{k}" for k in range(grid.d)]
        header = ",".join(["i", "k"] + jcols + ["value"])
    else:
        raise ValueError(f"unexpected field shape {arr.shape}")
    lines = [f"# field={name}", f"# kind={kind}",
             "# shape=" + ",".join(str(s) for s in arr.shape),
             _grid_meta(grid), header]
    for idx in np.ndindex(arr.shape):
        if kind == "vector":
            k, i, *j = idx
            pos = [i, k] + list(j)
        else:
            i, *j = idx
            pos = [i] + list(j)
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

def cmd_solve(cfg: dict) -> int:
    if cfg["case"] is None:
        raise ConfigError("solve requires --case")
    ns = parse_resolutions(cfg["n"])
    if len(ns) != 1:
        raise ConfigError("solve takes a single resolution, use sweep for lists")
    admm_cfg = AdmmConfig(r=float(cfg["admm_r"]), stop_tol=float(cfg["stop_tol"]),
                          max_iters=int(cfg["max_iters"]))
    res = solve_instance(int(cfg["case"]), ns[0], w=cfg["param"],
                         zeta=float(cfg["zeta"]), cost_spec=cfg["cost"],
                         R=cfg["clamp_R"], admm_config=admm_cfg)
    rec = res.record
    grid = res.problem.grid
    out = cfg["out"]
    write_grid_csv(os.path.join(out, "phi.csv"), res.phi, grid, "phi")
    write_grid_csv(os.path.join(out, "lambda_rho.csv"), res.lam.lambda_rho,
                   grid, "lambda_rho")
    write_grid_csv(os.path.join(out, "lambda_m.csv"), res.lam.lambda_m,
                   grid, "lambda_m")
    write_grid_csv(os.path.join(out, "velocity.csv"), recover_velocity(res.lam),
                   grid, "velocity")
    w = cfg["param"] if cfg["param"] is not None else DEFAULT_W[int(cfg["case"])]
    summary = {
        "case": int(cfg["case"]), "w": w,
        "N": rec.N, "N_X": grid.N_X, "zeta": grid.zeta, "cost": cfg["cost"],
        "R": grid.R, "eps": grid.eps,
        "K_D": _jsonable(rec.K_D), "K_analytic": res.sol.cost,
        "duality_gap": _jsonable(rec.duality_gap),
        "iters": rec.iters, "converged": rec.converged,
        "stop_reason": res.state.stop_reason, "r_final": res.state.r_final,
        "primal_res": res.state.primal_res[-1] if res.state.primal_res else None,
        "dual_res": res.state.dual_res[-1] if res.state.dual_res else None,
        "errors": {"eps_K": _jsonable(rec.eps_K), "eps_phi": _jsonable(rec.eps_phi),
                   "eps_v": _jsonable(rec.eps_v), "eps_rho": _jsonable(rec.eps_rho)},
    }
    atomic_write_text(os.path.join(out, "summary.json"),
                      json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"K_D = {rec.K_D:.8g} (analytic {res.sol.cost:.8g}), "
          f"duality gap {rec.duality_gap:.3g}, {rec.iters} iterations")
    print(f"errors: eps_K={rec.eps_K:.3g} "
          f"eps_phi={'n/a' if rec.eps_phi is None else format(rec.eps_phi, '.3g')} "
          f"eps_v={rec.eps_v:.3g} eps_rho={rec.eps_rho:.3g}")
    if not rec.converged:
        print("WARNING: solver did not reach the residual tolerance", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(cfg: dict) -> int:
    if cfg["case"] is None:
        raise ConfigError("sweep requires --case")
    ns = parse_resolutions(cfg["n"])
    if len(ns) < 2:
        raise ConfigError("sweep needs at least 2 resolutions")
    admm_cfg = AdmmConfig(r=float(cfg["admm_r"]), stop_tol=float(cfg["stop_tol"]),
                          max_iters=int(cfg["max_iters"]))
    report = run_sweep(int(cfg["case"]), ns, w=cfg["param"], zeta=float(cfg["zeta"]),
                       cost_spec=cfg["cost"], R=cfg["clamp_R"], admm_config=admm_cfg)
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
        params = SchemeParams(grid, cost, default_monotone_radius(grid.R),
                              validate=False)
    else:
        params = make_scheme(grid, cost)

    slopes = np.linspace(-grid.R, grid.R, 7)
    cons = max(consistency_residual(params, s) for s in slopes)
    trials = int(cfg["trials"])
    rep = check_monotone(params, trials=trials, seed=int(cfg["seed"]))
    rng = np.random.default_rng(int(cfg["seed"]) + 1)
    preserve_excess = 0.0
    for _ in range(5):
        traj = solve_ivp(random_cr_field(grid, grid.R, rng), params)
        for sl in traj:
            preserve_excess = max(preserve_excess, max_slope(sl, grid) - grid.R)

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
    payload = {name: {"pass": ok, "worst": _jsonable(worst)}
               for name, ok, worst in checks}
    payload["eps"] = grid.eps
    payload["trials"] = trials
    atomic_write_text(os.path.join(cfg["out"], "verify.json"),
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if all(ok for _, ok, _ in checks) else 4


def cmd_hj_ivp(cfg: dict) -> int:
    ns = parse_resolutions(cfg["n"])
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
            exact = np.array([hopf_lax(phi0, float(t), float(xj), cost, grid)
                              for xj in x])
            sup = max(sup, float(np.max(np.abs(traj[i] - exact))))
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
               "fitted_order": _jsonable(alpha) if alpha is not None else None}
    atomic_write_text(os.path.join(cfg["out"], "ivp.json"),
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
    csv = ["N,h,sup_error"] + ["%d,%.17g,%.17g" % (r["N"], r["h"], r["sup_error"])
                               for r in rows]
    atomic_write_text(os.path.join(cfg["out"], "ivp.csv"), "\n".join(csv) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    handlers = {"solve": cmd_solve, "sweep": cmd_sweep,
                "verify-scheme": cmd_verify_scheme, "hj-ivp": cmd_hj_ivp}
    try:
        cfg = resolve_config(ns)
        text = json.dumps(cfg, indent=2, sort_keys=True) + "\n"
        sys.stdout.write("resolved config:\n" + text)
        code = handlers[ns.command](cfg)
        # written last: a command that raises (exit 3) leaves --out untouched
        atomic_write_text(os.path.join(cfg["out"], "config_resolved.json"), text)
        return code
    except (ConfigError, ValueError, NotImplementedError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

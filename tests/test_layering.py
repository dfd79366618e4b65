"""hjot's dependencies by layer: the grid, cost, measure and scheme layers
need numpy alone, and SciPy loads with the saddle-point modules (admm,
bench, transport). Each check runs in a fresh interpreter, because this
process has long loaded them all.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import hjot

SRC = str(Path(hjot.__file__).resolve().parents[1])


def run_fresh(code: str):
    """Run code in a fresh interpreter that imports hjot from this checkout;
    returns what it prints last, read as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_scheme_path_loads_no_scipy():
    loaded = run_fresh("""
import json, sys
import numpy as np
import hjot
q = hjot.QuadraticCost()
g = hjot.make_grid(1, 1.0, 16, 16, q)
p = hjot.make_scheme(g, q)
hjot.solve_ivp(np.zeros(16), p)
hjot.check_monotone(p, trials=3)
hjot.hopf_lax(lambda y: y * y / 2, 0.5, 0.1, q, g)
mu, _, _ = hjot.build_test_case(2)
hjot.project_measure(mu, g)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
""")
    assert loaded == []


def test_every_exported_name_resolves_and_the_modules_are_their_entries():
    missing, same = run_fresh("""
import json, sys
import hjot
missing = [n for n in hjot.__all__ if not hasattr(hjot, n)]
same = [getattr(hjot, m) is sys.modules["hjot." + m] for m in ("admm", "bench", "transport")]
print(json.dumps([missing, same]))
""")
    assert missing == []
    assert same == [True, True, True]


def test_a_solve_loads_no_module():
    # SciPy's LAPACK wrappers load with hjot.admm, during set-up, not in
    # the first solve
    added = run_fresh("""
import json, sys, warnings
import hjot
q = hjot.QuadraticCost()
g = hjot.make_grid(1, 1.0, 8, 8, q)
mu, nu, _ = hjot.build_test_case(2)
problem = hjot.transport.assemble_problem(g, q, hjot.project_measure(mu, g),
                                          hjot.project_measure(nu, g))
solve = hjot.admm.solve
before = set(sys.modules)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    solve(problem, hjot.admm.AdmmConfig(max_iters=3))
print(json.dumps(sorted(set(sys.modules) - before)))
""")
    assert added == []

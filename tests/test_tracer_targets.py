"""The benchmark's tracer (perfbench/spans.py) wraps hjot callables by
name; a rename in hjot must fail here, not only in a traced benchmark run.
The tracer module is loaded by path and nothing in perfbench/ is changed.
"""
import importlib.util
import math
from collections import Counter
from pathlib import Path

import pytest

import hjot
import hjot.admm
import hjot.bench
import hjot.cost
import hjot.hj
import hjot.measures
import hjot.transport
from hjot.cost import QuadraticCost
from hjot.grid import make_grid
from hjot.hj import make_scheme
from hjot.measures import build_test_case, project_measure
from hjot.transport import assemble_problem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
needs_spans = pytest.mark.skipif(not SPANS.is_file(), reason="no perfbench/ in this checkout")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@needs_spans
def test_every_traced_callable_still_exists():
    targets = load_spans()._targets(hjot)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _ in targets
               if attr not in owner.__dict__]
    assert not missing


@needs_spans
def test_tracer_reaches_every_kernel_of_the_iteration():
    # a stepper that bound the kernels once, out of the tracer's reach,
    # would leave these spans uncounted
    quad = QuadraticCost()
    grid = make_grid(1, 1.0, 8, 8, quad)
    mu, nu, _ = build_test_case(2)
    problem = assemble_problem(grid, quad, project_measure(mu, grid), project_measure(nu, grid))
    with load_spans().Tracer().installed(hjot) as tracer:
        _, _, state = hjot.admm.solve(problem)
    counts = Counter(span[0] for span in tracer.spans)
    iters = state.iters
    assert state.converged and iters > 1
    for name in ("admm.phi_update", "admm.sigma_update", "admm.lambda_update",
                 "admm.phi_solver.solve", "transport.apply", "cost.project_onto_K"):
        assert counts[name] == iters, name
    # one per iteration, one per refresh and one to confirm the stop
    refreshes = iters // hjot.admm.REFRESH_INTERVAL
    assert counts["transport.apply_transpose"] == iters + refreshes + 1
    assert counts["transport.objective_FD"] == 1
    assert counts["admm.solve"] == counts["admm.phi_solver.init"] == 1


@needs_spans
def test_tracer_sees_both_steps_of_every_monotonicity_batch():
    # check_monotone steps each batch through scheme_step, once per side;
    # steps taken out of the tracer's reach would leave hj.scheme_step at 0
    quad = QuadraticCost()
    grid = make_grid(1, 1.0, 128, 128, quad)
    params = make_scheme(grid, quad)
    trials = 777
    batches = math.ceil(trials / (hjot.hj._BATCH // grid.N_X))
    assert batches > 1
    with load_spans().Tracer().installed(hjot) as tracer:
        hjot.hj.check_monotone(params, trials=trials, seed=0)
    names = [span[0] for span in tracer.spans]
    assert Counter(names)["hj.scheme_step"] == 2 * batches
    root = names.index("hj.check_monotone")
    assert all(span[3] == root for span in tracer.spans if span[0] == "hj.scheme_step")

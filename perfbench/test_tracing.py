"""Tracing must not change what hjot computes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_tracing.py
"""
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

hjot = workloads.import_hjot(os.path.dirname(HERE))
SPECS = [(2, 16, hjot.measures.DEFAULT_W[2]), (3, 16, hjot.measures.DEFAULT_W[3])]


@pytest.fixture(scope="module")
def runs():
    plain = workloads.admm_pass(hjot, workloads.build_admm(hjot, SPECS), None)
    tracer = spans.Tracer()
    with tracer.installed(hjot):
        traced = workloads.admm_pass(hjot, workloads.build_admm(hjot, SPECS), None,
                                     tracer=tracer)
    return plain, traced, tracer


def test_traced_and_untraced_results_are_bitwise_equal(runs):
    plain, traced, _ = runs
    assert plain.outputs.keys() == traced.outputs.keys()
    for key, out in plain.outputs.items():
        assert out["K_D"].hex() == traced.outputs[key]["K_D"].hex()
        assert out["iters"] == traced.outputs[key]["iters"]
    assert plain.iters == traced.iters > 0
    assert (plain.failed, plain.attempted) == (traced.failed, traced.attempted) == (0, 2)


def test_wrappers_are_removed_on_exit(runs):
    for owner, attr, _ in spans._targets(hjot):
        assert not hasattr(owner.__dict__[attr], "__wrapped__"), (owner, attr)


def test_per_iteration_counts_match_the_solve_loop(runs):
    _, traced, tracer = runs
    m, shares = spans.layer_metrics(tracer, traced.iters, traced.wall_s, 0)
    assert m["admm.iters"] == traced.iters
    assert m["transport.apply_transpose.per_iter"] == 2.0
    assert m["transport.objective_FD.per_iter"] == 1.0
    # one apply per iteration plus one before the loop, per instance
    assert m["transport.apply.per_iter"] == (traced.iters + len(SPECS)) / traced.iters
    assert 0.0 < m["cost.project_onto_K.active_frac"] <= 1.0
    assert m["hj.scheme_step.calls"] == 0
    assert sum(shares.values()) == pytest.approx(1.0)


def test_self_time_subtracts_direct_children():
    t = spans.Tracer()
    t.spans = [("a", 0.0, 10.0, -1, "r"), ("b", 1.0, 4.0, 0, "r"),
               ("c", 2.0, 3.0, 1, "r"), ("d", 5.0, 6.0, 0, "r")]
    assert t.self_times() == [6.0, 2.0, 1.0, 1.0]

"""The benchmark's tracer (perfbench/spans.py) wraps hjot callables by
name; a rename in hjot must fail here, not only in a traced benchmark run.
The tracer module is loaded by path and nothing in perfbench/ is changed.
"""
import importlib.util
from pathlib import Path

import pytest

import hjot
import hjot.admm
import hjot.bench
import hjot.cost
import hjot.hj
import hjot.measures
import hjot.transport

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.skipif(not SPANS.is_file(), reason="no perfbench/ in this checkout")
def test_every_traced_callable_still_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets(hjot)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _ in targets
               if attr not in owner.__dict__]
    assert not missing

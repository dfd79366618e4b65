"""In-memory span tracing of hjot from outside the package.

Tracing replaces public functions by timing wrappers under the names their
callers look up: module globals (``hjot.admm.phi_update`` is what
``admm.solve`` calls) and class attributes (``ConstraintOperator.apply``).
Nothing in ``src/`` is edited; ``Tracer.installed`` puts the originals back
on exit. A span is ``(name, start, end, parent, run_id)``: ``parent`` is the
index of the enclosing span or -1, ``run_id`` the operation the span belongs
to. Spans stay in memory until ``write_csv_gz``.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import time

# Span names for the benchmark's own phases; every other name is
# "<layer>.<function>" with layer the hjot module that owns the function.
LAYERS = ("admm", "cost", "transport", "grid", "measures", "bench", "hj")
STENCILS = ("forward_diff", "backward_diff", "centered_gradient", "discrete_laplacian")
# spans whose descendants count as solver work, for the per-iteration ratios
SOLVE_ROOTS = ("admm.solve", "hj.check_monotone", "hj.solve_ivp")


def _targets(hjot):
    """(owner, attribute, span name) for every wrapped callable."""
    admm, bench, hj, transport = hjot.admm, hjot.bench, hjot.hj, hjot.transport
    out = [
        (admm, "solve", "admm.solve"),
        (admm, "phi_update", "admm.phi_update"),
        (admm, "sigma_update", "admm.sigma_update"),
        (admm, "lambda_update", "admm.lambda_update"),
        (admm, "objective_FD", "transport.objective_FD"),
        (admm.SpectralPhiSolver, "__init__", "admm.phi_solver.init"),
        (admm.SpectralPhiSolver, "solve", "admm.phi_solver.solve"),
        (transport.ConstraintOperator, "apply", "transport.apply"),
        (transport.ConstraintOperator, "apply_transpose", "transport.apply_transpose"),
        (hjot.cost.QuadraticCost, "project_onto_K", "cost.project_onto_K"),
        (hjot.measures, "project_measure", "measures.project_measure"),
        (hjot.measures, "invert_transport_map", "measures.invert_transport_map"),
        (bench, "project_measure", "measures.project_measure"),
        (bench, "error_measure", "bench.error_measure"),
        (bench, "error_velocity", "bench.error_velocity"),
        (bench, "error_potential_gradient", "bench.error_potential_gradient"),
    ]
    for fn in ("scheme_step", "solve_ivp", "check_monotone", "random_cr_pair",
               "random_cr_field", "consistency_residual", "max_slope", "hopf_lax"):
        out.append((hj, fn, f"hj.{fn}"))
    for module in (transport, hj, bench):
        for fn in STENCILS:
            if hasattr(module, fn):
                out.append((module, fn, f"grid.{fn}"))
    return out


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self.run_id = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own code."""
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, time.perf_counter())

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, start, end) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.run_id)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, name: str, fn, before=None):
        """fn timed as span `name`; before(*args) runs outside the span."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, clock())

        return traced

    @contextlib.contextmanager
    def installed(self, hjot):
        """Swap every target for its traced wrapper; restore on exit."""
        import numpy as np  # imported here so that set-up timing covers it

        def active_cells(_self, a, b, *args, **kwargs):
            # cells outside K, from the projection's inputs
            a = np.asarray(a)
            slack = a + 0.5 * np.sum(np.square(b), axis=0)
            self.count("cost.project_onto_K.active", int(np.count_nonzero(slack > 0)))
            self.count("cost.project_onto_K.cells", a.size)

        saved = []
        try:
            for owner, attr, name in _targets(hjot):
                original = owner.__dict__[attr]
                before = active_cells if name == "cost.project_onto_K" else None
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, before))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def in_solve(self) -> list[bool]:
        """Whether each span is a SOLVE_ROOTS span or lies under one."""
        flags: list[bool] = []
        for name, _, _, parent, _ in self.spans:
            # a parent opens before its child, so its flag is already known
            flags.append(name in SOLVE_ROOTS or (parent >= 0 and flags[parent]))
        return flags

    def write_csv_gz(self, path: str) -> None:
        with gzip.open(path, "wt") as f:
            f.write("run_id,name,start,end,parent\n")
            for name, start, end, parent, run_id in self.spans:
                f.write(f"{run_id},{name},{start!r},{end!r},{parent}\n")


def layer_metrics(tracer: Tracer, iters: int, wall_s: float,
                  first: int) -> tuple[dict, dict]:
    """Per-layer metrics of a traced set-up and pass, and the share of the
    pass's wall time (spans from index `first` on) spent in each layer.

    iters is the pass's solver iteration count (ADMM iterations, or scheme
    steps for the scheme workload); the per_iter ratios count only calls
    made under a SOLVE_ROOTS span.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    solve_calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    shares = {layer: 0.0 for layer in LAYERS}
    for i, ((name, start, end, _, _), own, solving) in enumerate(zip(
            tracer.spans, tracer.self_times(), tracer.in_solve())):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        if solving:
            solve_calls[name] = solve_calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        if i >= first and layer in shares:
            shares[layer] += own / wall_s
    shares["outside_layers"] = 1.0 - sum(shares.values())

    def s(name):
        return total.get(name, 0.0)

    def per_iter(names):
        n = sum(solve_calls.get(x, 0) for x in names)
        return n / iters if iters else 0.0

    stencils = [f"grid.{fn}" for fn in STENCILS]
    cells = tracer.counters.get("cost.project_onto_K.cells", 0.0)
    m = {
        "admm.iters": int(tracer.counters.get("admm.iters", 0)),
        "admm.phi_update.s": s("admm.phi_update"),
        "admm.phi_solver.solve.s": s("admm.phi_solver.solve"),
        "admm.phi_solver.init.s": s("admm.phi_solver.init"),
        "admm.sigma_update.s": s("admm.sigma_update"),
        "admm.lambda_update.s": s("admm.lambda_update"),
        "admm.solve.self_s": self_by_name.get("admm.solve", 0.0),
        "cost.project_onto_K.s": s("cost.project_onto_K"),
        "cost.project_onto_K.active_frac":
            tracer.counters.get("cost.project_onto_K.active", 0.0) / cells if cells else 0.0,
        "transport.apply.s": s("transport.apply"),
        "transport.apply.per_iter": per_iter(["transport.apply"]),
        "transport.apply_transpose.s": s("transport.apply_transpose"),
        "transport.apply_transpose.per_iter": per_iter(["transport.apply_transpose"]),
        "transport.objective_FD.per_iter": per_iter(["transport.objective_FD"]),
        "transport.post.s": s("transport.post"),
        "grid.stencil.s": sum(s(x) for x in stencils),
        "grid.stencil.calls_per_iter": per_iter(stencils),
        "measures.project_measure.calls": calls.get("measures.project_measure", 0),
        "measures.project_measure.s": s("measures.project_measure"),
        "measures.invert_transport_map.s": s("measures.invert_transport_map"),
        "bench.error_measure.s": s("bench.error_measure"),
        "bench.error_velocity.s": s("bench.error_velocity"),
        "bench.error_potential_gradient.s": s("bench.error_potential_gradient"),
        "hj.scheme_step.calls": calls.get("hj.scheme_step", 0),
        "hj.scheme_step.s": s("hj.scheme_step"),
        "hj.random_cr_field.s": s("hj.random_cr_field"),
        "hj.solve_ivp.s": s("hj.solve_ivp"),
        "hj.hopf_lax.calls": calls.get("hj.hopf_lax", 0),
        "hj.hopf_lax.s": s("hj.hopf_lax"),
    }
    return m, shares

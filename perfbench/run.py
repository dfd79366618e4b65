"""Benchmark of hjot: time to a converged solve, split into iterations x
cost per iteration, on the workloads defined in workloads.py.

Run from the root of a checkout that holds the hjot sources under src/:

    python3 perfbench/run.py --workload iter-bound --seed 0 --seconds 30 --trace 0

The process drives the public hjot API in a closed loop, one instance at a
time. It times set-up (importing hjot and building every instance) here
and in SETUP_PROBES fresh interpreters, then repeats whole passes over the
workload while another pass fits in --seconds (at least one pass), and
reports per-pass medians. Times are reported in reference seconds, which
take the host's speed changes out (see calibrate.py); the raw seconds are
printed too. --trace 1 instead makes untraced and traced passes (see
spans.py and traced_run) and reports the per-layer metrics in raw seconds;
tracing must not change any result.

Every metric named in BENCHMARK.json is printed with its unit; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Details of the run (machine, every pass,
every output) go to perfbench/out/. Exit code 0: every check passed;
1: a check failed; 2: no hjot sources in the current directory.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import machine
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_setups(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, kernel seconds) measured in SETUP_PROBES fresh
    interpreters, one at a time."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        setup_s, kernel_s = proc.stdout.split()[-2:]
        out.append((float(setup_s), float(kernel_s)))
    return out


def pass_record(p: workloads.PassResult, ref: dict | None = None) -> dict:
    return {"wall_s": p.wall_s, "solve_s": p.solve_s, "eval_s": p.eval_s,
            "ref": ref, "iters": p.iters, "attempted": p.attempted, "failed": p.failed,
            "failures": p.failures, "outputs": p.outputs}


def same_results(a: workloads.PassResult, b: workloads.PassResult) -> bool:
    """Bitwise-equal outputs, iteration counts and failure counts."""
    return (json.dumps(a.outputs, sort_keys=True) == json.dumps(b.outputs, sort_keys=True)
            and a.iters == b.iters and a.failed == b.failed and a.attempted == b.attempted)


def timed_run(hjot, args, setup, reference, setup_samples):
    kernel = calibrate.Kernel(workloads.KERNELS[args.workload])
    passes = []
    with calibrate.Calibrator(kernel, reference["kernel_s"][args.workload]) as cal:
        start = time.perf_counter()
        while True:
            passes.append(workloads.run_pass(hjot, args.workload, setup, args.seed, reference))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
    refs = [{kind: sum(cal.ref_seconds(t0, t1) for t0, t1 in spans_)
             for kind, spans_ in p.intervals.items()} for p in passes]
    med = lambda key: statistics.median(getattr(p, key) for p in passes)  # noqa: E731
    ref_med = lambda kind: statistics.median(r[kind] for r in refs)  # noqa: E731
    metrics = {
        "wall_ref_s": ref_med("wall"),
        "setup_s": statistics.median(setup_samples),
        "solve_ref_s": ref_med("solve"),
        "iters": passes[0].iters,
        "ms_per_iter_ref": statistics.median(1e3 * r["solve"] / p.iters
                                             for r, p in zip(refs, passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {"wall_s": med("wall_s"), "solve_s": med("solve_s"), "eval_s": med("eval_s"),
           "eval_ref_s": ref_med("eval"),
           "ms_per_iter": statistics.median(1e3 * p.solve_s / p.iters for p in passes),
           "kernel_s": statistics.median(cal.kernel_seconds()),
           "kernel_samples": len(cal.kernel_seconds())}
    problems = [] if all(same_results(passes[0], p) for p in passes[1:]) else \
        ["passes over the same inputs gave different results"]
    return metrics, passes, problems, {"raw": raw, "refs": refs,
                                       "kernel_samples_s": cal.kernel_seconds()}


def traced_run(hjot, args, setup, reference):
    """Untraced pass, traced pass (with a traced set-up), untraced pass.

    The first pass warms the process up; the overhead compares the two
    later ones. All three must give bitwise-equal results.
    """
    def plain_pass():
        return workloads.run_pass(hjot, args.workload, setup, args.seed, reference)

    warm = plain_pass()
    tracer = spans.Tracer()
    with tracer.installed(hjot):
        with tracer.span("run.setup"):
            traced_setup = workloads.build(hjot, args.workload, args.seed)
        first = len(tracer.spans)
        traced = workloads.run_pass(hjot, args.workload, traced_setup, args.seed,
                                    reference, tracer=tracer)
    plain = plain_pass()
    metrics, shares = spans.layer_metrics(tracer, traced.iters, traced.wall_s, first)
    metrics["trace_overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    problems = [] if same_results(warm, traced) and same_results(warm, plain) else \
        ["the traced pass gave other results than the untraced passes"]
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_csv_gz(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.csv.gz"))
    return metrics, [warm, traced, plain], problems, {"layer_self_share": shares}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    t0 = time.perf_counter()
    try:
        hjot = workloads.import_hjot(root)
    except workloads.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup = workloads.build(hjot, args.workload, args.seed)
    setup_raw = [(time.perf_counter() - t0,
                  calibrate.Kernel(workloads.KERNELS[args.workload]).median_seconds())]
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)

    if args.trace:
        metrics, passes, problems, extra = traced_run(hjot, args, setup, reference)
        wanted = spec["per_layer"]
    else:
        setup_raw += probe_setups(args.workload, args.seed)
        kernel_ref = reference["kernel_s"][args.workload]
        setup_samples = [s * kernel_ref / k for s, k in setup_raw]
        metrics, passes, problems, extra = timed_run(hjot, args, setup, reference,
                                                     setup_samples)
        wanted = spec["end_to_end"]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not problems
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)}")
    for name, v in result.items():
        print(f"  {name:<36} {v['value']:<24.10g} {v['unit']}")
    for name, value in extra.get("raw", {}).items():
        print(f"  {name:<36} {value:<24.10g} (not gated)")
    print(f"  {'fail_frac':<36} {failed / attempted:<24.10g} ({failed}/{attempted})")
    for p in passes:
        for what in p.failures:
            print(f"  FAILED {what}")
    for what in problems:
        print(f"  FAILED {what}")

    os.makedirs(OUT_DIR, exist_ok=True)
    refs = extra.pop("refs", [None] * len(passes))
    record = {"args": vars(args), "machine": machine.describe(),
              "setup_raw_s": setup_raw, "metrics": metrics,
              "passes": [pass_record(p, r) for p, r in zip(passes, refs)],
              "problems": problems, **extra}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, default=repr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

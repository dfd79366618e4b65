"""Repeat the benchmark over several seeds and summarize each metric.

Run from the checkout root, for example

    python3 perfbench/prove.py --seeds 0-9 --out perfbench/baseline.json

Each run is a fresh `python3 perfbench/run.py` process, one at a time. For
every workload and end-to-end metric this prints the median, the first and
third quartiles (statistics.quantiles, n=4), and the spread (q3 - q1) /
median next to the metric's bound in BENCHMARK.json. With --traced it also
makes one traced run per workload on the first seed and keeps its
per-layer metrics and each layer's share of the pass's wall time.
Exits 1 if a run failed its checks or a spread (other than setup_s)
exceeds its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values),
            "values": values}


def main(argv=None) -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            res = run(workload, seed, args.seconds, 0)
            ok &= res["correct"]
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        entry = {"fail_frac": sum(r["failed"] for r in results)
                 / sum(r["attempted"] for r in results), "end_to_end": {}}
        for name, bound in bounds.items():
            st = summarize([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = st
            flag = "" if st["spread"] <= bound else "  OVER BOUND"
            if flag and name != "setup_s":
                ok = False
            print(f"  {name:<14} median {st['median']:<12.6g} q1 {st['q1']:<12.6g} "
                  f"q3 {st['q3']:<12.6g} spread {st['spread']:.4f} "
                  f"(bound {bound}, bound/3 {bound / 3:.4f}){flag}", flush=True)
        if args.traced:
            res = run(workload, seeds[0], args.seconds, 1)
            ok &= res["correct"]
            with open(os.path.join(HERE, "out",
                                   f"{workload}-seed{seeds[0]}-trace1.json")) as f:
                detail = json.load(f)
            entry["traced"] = {"seed": seeds[0],
                               "per_layer": {k: v["value"] for k, v in res["metrics"].items()},
                               "layer_self_share": detail["layer_self_share"]}
            print(f"  traced seed {seeds[0]}: shares {detail['layer_self_share']}", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        last = os.path.join(HERE, "out", f"{workload}-seed{seeds[-1]}-trace0.json")
        with open(last) as f:
            summary["machine"] = json.load(f)["machine"]
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Time one set-up of a workload in a fresh interpreter.

Run from the checkout root as `python3 perfbench/probe.py <workload> <seed>`;
prints the seconds spent importing hjot and building every instance, then
the median seconds of the workload's calibration kernel right after.
"""
import os
import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (stdlib only; hjot is imported below)

hjot = workloads.import_hjot(os.getcwd())
workloads.build(hjot, sys.argv[1], int(sys.argv[2]))
setup = time.perf_counter() - t0

import calibrate  # noqa: E402

print(repr(setup), repr(calibrate.Kernel(workloads.KERNELS[sys.argv[1]]).median_seconds()))

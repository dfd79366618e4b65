"""Description of the machine and libraries a result set was measured on."""
from __future__ import annotations

import ctypes
import os
import platform

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS library will use, keyed by file name."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return {}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def describe() -> dict:
    """Call after numpy and scipy.linalg are imported, so BLAS is loaded."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        # hjot's FFTs are numpy.fft calls, which take no worker count
        "fft": "numpy.fft, calling thread only",
    }

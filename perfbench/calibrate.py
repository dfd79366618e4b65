"""Machine-speed calibration of the timed metrics.

The shared host this benchmark was written on has slow and fast phases: a
fixed numpy loop runs up to 1.8 times slower for seconds to minutes at a
time, and CPU time moves with wall time. A run's raw seconds therefore
depend on when it ran. To take that out, a fixed numpy kernel that does
not call hjot runs every PERIOD_S seconds of the timed part, from a
SIGALRM handler on the main thread, so that it interrupts the workload
between two Python bytecodes. Each timed interval is then converted to
reference seconds: its stretches between two kernel samples, without the
samples themselves, each scaled by

    reference kernel seconds / local kernel seconds

where the local kernel seconds are the median of the LOCAL samples nearest
to the stretch, and the reference kernel seconds a constant recorded in
reference.json. A reference second is thus a second of the workload at the
speed the host had when the reference was recorded. A change to hjot moves
the workload and not the kernel, so it shows in full.

Set-up is calibrated the same way, with KERNEL_REPEATS kernel samples taken
right after it.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.3
LOCAL = 7
KERNEL_REPEATS = 7


class Kernel:
    """Fixed work whose speed followed the workloads' speed closely on the
    host: a pure-Python integer loop of about 5 ms; then, per array shape of
    the workload, fresh arrays of that shape (allocation, first touch and
    one pass) and rounds of a real FFT round trip, element-wise arithmetic
    and a reduction on fixed arrays of that shape."""

    PY_LOOP = 45_000

    def __init__(self, parts):
        """parts: (shape, fresh arrays, FFT rounds) per array shape."""
        import numpy as np

        rng = np.random.default_rng(20231219)
        self.parts = [(shape, n_alloc, n_fft, rng.random(shape), rng.random(shape))
                      for shape, n_alloc, n_fft in parts]

    def __call__(self) -> float:
        import numpy as np

        acc = 0
        for i in range(self.PY_LOOP):
            acc += i * i % 7
        out = float(acc)
        for shape, n_alloc, n_fft, a, b in self.parts:
            for _ in range(n_alloc):
                z = np.empty(shape)
                z.fill(1.0)
                out += float((z * 2.0).flat[-1])
            for _ in range(n_fft):
                f = np.fft.irfft(np.fft.rfft(a, axis=-1), shape[-1], axis=-1)
                c = np.maximum(f - b, 0.0) * b + a
                out += float(np.sum(c * c))
        return out

    def timed(self) -> float:
        t0 = time.perf_counter()
        self()
        return time.perf_counter() - t0

    def median_seconds(self, repeats: int = KERNEL_REPEATS) -> float:
        return statistics.median(self.timed() for _ in range(repeats))


class Calibrator:
    """Runs the kernel every PERIOD_S seconds while installed and converts
    raw perf_counter intervals to reference seconds."""

    def __init__(self, kernel: Kernel, reference_s: float, period: float = PERIOD_S):
        self.kernel, self.reference_s, self.period = kernel, reference_s, period
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self._busy = False

    def __enter__(self) -> "Calibrator":
        self.kernel()  # warm-up, not a sample
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def _local(self, k: int) -> float:
        """Median kernel seconds of the LOCAL samples nearest to index k."""
        n = len(self.durations)
        lo = min(max(0, k - LOCAL // 2), max(0, n - LOCAL))
        return statistics.median(self.durations[lo:lo + LOCAL])

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the workload between raw times t0 and t1,
        without the kernel samples taken in between."""
        if not self.durations:
            raise RuntimeError("no kernel samples: the timed part was shorter "
                               f"than the {self.period} s sampling period")
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        total, prev = 0.0, t0
        for k in range(i, j):
            total += (self.starts[k] - prev) / self._local(k)
            prev = self.starts[k] + self.durations[k]
        total += max(0.0, t1 - prev) / self._local(j)
        return total * self.reference_s

    def kernel_seconds(self) -> list[float]:
        return list(self.durations)

"""Parameters of the ADMM solver, in a module of their own so that they
load without SciPy: the command line reads its defaults for every command,
and only solve and sweep load hjot.admm, which re-exports AdmmConfig.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass
class AdmmConfig:
    """Solver parameters.

    :param r: initial penalty parameter, finite and positive
    :param stop_tol: threshold for both residual norms, finite and positive
    :param max_iters: iteration cap, an integer of at least 1 (non-convergence is
        flagged, not raised)
    """

    r: float = 1.0
    stop_tol: float = 1e-5
    max_iters: int = 200000

    def __post_init__(self) -> None:
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   and math.isfinite(v) and v > 0 for v in (self.r, self.stop_tol)):
            raise ValueError(f"r and stop_tol must be finite and positive numbers, "
                             f"got r={self.r!r}, stop_tol={self.stop_tol!r}")
        m = self.max_iters
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise ValueError(f"max_iters must be an integer of at least 1, got {m!r}")

"""Dynamic optimal transport on the torus via its dual Hamilton-Jacobi problem.

The transport cost between two probability measures is computed by
maximizing the discrete dual objective over potentials constrained to be
subsolutions of a monotone vanishing-viscosity scheme for the
Hamilton-Jacobi equation. ADMM on the saddle-point form returns both the
potential and the primal mass/momentum variables, whose convergence rates
against analytic solutions are measured by the bench module.

The grid, cost, measure and scheme layers need numpy only and load with
the package. The saddle-point modules (admm, bench and transport) import
SciPy, so they load on first access (PEP 562): hjot.admm, or any name they
re-export here, such as hjot.solve.
"""
import importlib

from .cost import CostModel, PowerCost, QuadraticCost, make_cost
from .grid import GridSpec, make_grid
from .hj import (SchemeParams, check_monotone, hopf_lax, make_scheme,
                 scheme_step, solve_ivp)
from .measures import (AnalyticMeasure, DiscreteMeasure, build_test_case,
                       project_measure)

__version__ = "0.1.0"

# module -> the names the package re-exports from it on first access
_LAZY = {
    "admm": ("AdmmConfig", "AdmmState", "solve"),
    "bench": ("ConvergenceReport", "ErrorRecord", "REFERENCE_RATES",
              "run_sweep", "solve_instance"),
    "transport": ("PrimalVars", "SigmaVars", "TransportProblem", "assemble_problem",
                  "objective_FD", "primal_objective", "recover_velocity"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Import a saddle-point module, or the one that owns name, and keep
    the name in the package namespace, so that this runs once per name."""
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


__all__ = [
    "AdmmConfig", "AdmmState", "solve",
    "ConvergenceReport", "ErrorRecord", "REFERENCE_RATES",
    "run_sweep", "solve_instance",
    "CostModel", "PowerCost", "QuadraticCost", "make_cost",
    "GridSpec", "make_grid",
    "SchemeParams", "check_monotone", "hopf_lax", "make_scheme",
    "scheme_step", "solve_ivp",
    "AnalyticMeasure", "DiscreteMeasure", "build_test_case", "project_measure",
    "PrimalVars", "SigmaVars", "TransportProblem", "assemble_problem",
    "objective_FD", "primal_objective", "recover_velocity",
    "__version__",
]

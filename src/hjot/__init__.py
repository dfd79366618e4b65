"""Dynamic optimal transport on the torus via its dual Hamilton-Jacobi problem.

The transport cost between two probability measures is computed by
maximizing the discrete dual objective over potentials constrained to be
subsolutions of a monotone vanishing-viscosity scheme for the
Hamilton-Jacobi equation. ADMM on the saddle-point form returns both the
potential and the primal mass/momentum variables, whose convergence rates
against analytic solutions are measured by the bench module.
"""
from .admm import AdmmConfig, AdmmState, solve
from .bench import (ConvergenceReport, ErrorRecord, REFERENCE_RATES,
                    run_sweep, solve_instance)
from .cost import CostModel, PowerCost, QuadraticCost, make_cost
from .grid import GridSpec, make_grid
from .hj import (SchemeParams, check_monotone, hopf_lax, make_scheme,
                 scheme_step, solve_ivp)
from .measures import (AnalyticMeasure, DiscreteMeasure, build_test_case,
                       project_measure)
from .transport import (PrimalVars, SigmaVars, TransportProblem,
                        assemble_problem, objective_FD,
                        primal_objective, recover_velocity)

__version__ = "0.1.0"

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

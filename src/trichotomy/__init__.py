"""Bounded solutions and remote almost periodicity for nonautonomous ODEs.

The package certifies exponential dichotomies and trichotomies of
x' = A(t) x on finite windows, builds the associated Green kernel, computes
bounded solutions of linear and semilinear problems by exponentially
weighted quadrature and Picard iteration, and runs finite-horizon
diagnostics for remote almost periodicity.  The ``trichotomy`` console
script drives everything from JSON problem files; the problem-file API
(``load_problem``, ``ProblemSpec``) lives in ``trichotomy.cli``.
"""

from .expr import (
    EvalError,
    ExprError,
    ExprSyntaxError,
    eval_expr,
    eval_stack,
    free_vars,
    parse,
)
from .grid import GridFunction, write_csv
from .propagator import (
    CoefficientMatrix,
    ExactLeg,
    MagnusLeg,
    PropagationError,
    TransitionOperator,
    expm,
)
from .hyperbolicity import (
    DichotomyCertificate,
    GreenKernel,
    HyperbolicityError,
    NoDichotomyDetected,
    NonHyperbolicError,
    SubspaceEstimate,
    TrichotomyCertificate,
    TrichotomyIncompatibility,
    WindowTooSmall,
    build_trichotomy,
    certificate_to_json,
    estimate_constants,
    estimate_stable_projector,
    verify_dichotomy,
)
from .solvers import (
    AccuracyError,
    ContractionError,
    LipschitzSpec,
    PicardReport,
    SolverError,
    epsilon_continuation,
    ode_residual,
    picard_solve,
    solve_linear_bounded,
)
from .rap import (
    AuditReport,
    LagrangeReport,
    RapReport,
    almost_period_scan,
    lagrange_report,
    remote_period_residual,
    solution_rap_audit,
)

__version__ = "0.1.0"

__all__ = [
    "EvalError",
    "ExprError",
    "ExprSyntaxError",
    "eval_expr",
    "eval_stack",
    "free_vars",
    "parse",
    "GridFunction",
    "write_csv",
    "CoefficientMatrix",
    "ExactLeg",
    "MagnusLeg",
    "PropagationError",
    "TransitionOperator",
    "expm",
    "DichotomyCertificate",
    "GreenKernel",
    "HyperbolicityError",
    "NoDichotomyDetected",
    "NonHyperbolicError",
    "SubspaceEstimate",
    "TrichotomyCertificate",
    "TrichotomyIncompatibility",
    "WindowTooSmall",
    "build_trichotomy",
    "certificate_to_json",
    "estimate_constants",
    "estimate_stable_projector",
    "verify_dichotomy",
    "AccuracyError",
    "ContractionError",
    "LipschitzSpec",
    "PicardReport",
    "SolverError",
    "epsilon_continuation",
    "ode_residual",
    "picard_solve",
    "solve_linear_bounded",
    "AuditReport",
    "LagrangeReport",
    "RapReport",
    "almost_period_scan",
    "lagrange_report",
    "remote_period_residual",
    "solution_rap_audit",
    "__version__",
]

"""Bounded solutions and remote almost periodicity for nonautonomous ODEs.

The package certifies exponential dichotomies and trichotomies of
x' = A(t) x on finite windows, builds the associated Green kernel, computes
bounded solutions of linear and semilinear problems by exponentially
weighted quadrature and Picard iteration, and runs finite-horizon
diagnostics for remote almost periodicity.  The ``trichotomy`` console
script drives everything from JSON problem files; the problem-file API
(``load_problem``, ``save_problem``) lives in ``trichotomy.cli``.
"""

from .expr import (
    EvalError,
    ExprError,
    ExprSyntaxError,
    compile_expr,
    eval_expr,
    free_vars,
    parse,
    substitute,
    to_source,
)
from .grid import GridFunction, write_csv
from .propagator import (
    CoefficientMatrix,
    PropagationError,
    TransitionOperator,
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
    certificate_from_json,
    certificate_to_json,
    estimate_constants,
    estimate_stable_projector,
    green_shift_check,
    verify_dichotomy,
)
from .solvers import (
    AccuracyError,
    C1ProbeReport,
    ContractionError,
    LipschitzSpec,
    PicardReport,
    SolverError,
    epsilon_continuation,
    example_c1_probe,
    ode_residual,
    picard_solve,
    solve_linear_bounded,
)
from .rap import (
    AuditReport,
    LagrangeReport,
    RapReport,
    almost_period_scan,
    bebutov_distance,
    lagrange_report,
    remote_period_residual,
    solution_rap_audit,
)

__version__ = "0.1.0"

__all__ = [
    "EvalError",
    "ExprError",
    "ExprSyntaxError",
    "compile_expr",
    "eval_expr",
    "free_vars",
    "parse",
    "substitute",
    "to_source",
    "GridFunction",
    "write_csv",
    "CoefficientMatrix",
    "PropagationError",
    "TransitionOperator",
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
    "certificate_from_json",
    "certificate_to_json",
    "estimate_constants",
    "estimate_stable_projector",
    "green_shift_check",
    "verify_dichotomy",
    "AccuracyError",
    "C1ProbeReport",
    "ContractionError",
    "LipschitzSpec",
    "PicardReport",
    "SolverError",
    "epsilon_continuation",
    "example_c1_probe",
    "ode_residual",
    "picard_solve",
    "solve_linear_bounded",
    "AuditReport",
    "LagrangeReport",
    "RapReport",
    "almost_period_scan",
    "bebutov_distance",
    "lagrange_report",
    "remote_period_residual",
    "solution_rap_audit",
    "__version__",
]

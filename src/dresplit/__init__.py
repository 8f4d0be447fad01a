"""Low-rank LDL^T splitting schemes for differential Riccati equations.

Solves P' = A^T P + P A + Q - P S P in factored form with Lie, Strang and
additive splitting schemes of arbitrary even/odd order, embedded error
estimation, and adaptive PI-controlled time stepping.
"""

from .adaptive import (
    ControllerParams,
    QuadraturePool,
    StepRecord,
    Trajectory,
    default_quad_degree,
    integrate_adaptive,
    integrate_fixed,
    pi_update,
    reject_resize,
)
from .errors import (
    CoefficientConditioning,
    DresplitError,
    IngestError,
    InvalidInput,
    InvalidReference,
    NoEmbeddedMethod,
    NonFiniteFactor,
    OracleDiverged,
    RefusedDense,
    StepSizeCollapse,
    StepTooLarge,
    ToleranceNotMet,
)
from .expaction import ExpActionOptions, StiffOperator, exp_action
from .lowrank import (
    CompressionOptions,
    LDLTFactor,
    combine,
    compress,
    frob_norm,
    to_dense,
)
from .oracle import (
    DenseProblem,
    dense_reference,
    dense_subflow,
    relative_error,
)
from .problems import (
    export_problem,
    generate_problem,
    ingest_problem,
    to_dense_problem,
)
from .schemes import (
    SchemeCoefficients,
    SchemeSpec,
    additive_coeffs,
    additive_step,
    embedded_coeffs,
    lie_chain,
    multiplicative_step,
)
from .study import RunConfig, StudySpec, run_solve, run_study
from .subflows import (
    ProblemData,
    QuadraticTerm,
    QuadratureState,
    affine_flow,
    init_quadrature,
    quad_weights,
    quadratic_flow,
    update_quadrature,
)

__version__ = "0.1.0"

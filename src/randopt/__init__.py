"""randopt: sample-path optimization over finite probability spaces.

Solves scenario-indexed smooth optimization problems, constructs
measurable minimizers (random solutions), and verifies the measurability
and second-order conditions that make a per-scenario answer a legitimate
random solution rather than just a family of pointwise ones.
"""

from .errors import (
    DimensionError,
    DivByZero,
    DomainMismatch,
    DomainViolation,
    EvalError,
    HypothesisViolation,
    IncompatibleRepresentation,
    NonMeasurableC,
    NonMeasurableF,
    NoRadiusFound,
    NotSymmetric,
    ParseError,
    PartitionError,
    RandoptError,
    SchemaError,
    WeightSumError,
)
from .exprlang import Env, Expression, differentiate, evaluate, parse
from .probspace import (
    MeasurabilityVerdict,
    ProbSpace,
    RandomVariableRn,
    Witness,
    is_measurable_rv,
    is_measurable_setmap,
    make_space,
)
from .randfunc import (
    Box,
    LevelSet,
    PointCloud,
    RandomFunction,
    RandomSet,
    check_joint_measurability,
    default_probe_grid,
    eval_f,
    gradient,
    hessian,
)
from .optimize import (
    Definiteness,
    GlobalMinResult,
    LocalMinCertificate,
    LocalMinFailure,
    OptimalValue,
    SolverOptions,
    StationaryPoint,
    StationarySearch,
    classify_definiteness,
    find_stationary_points,
    global_min_compact,
    jacobi_eigenvalues,
    leading_principal_minors,
    optimal_value,
)
from .selection import (
    GlobalCert,
    NecessaryReport,
    NoPDStationaryPoint,
    NoStationaryPoints,
    Selection,
    check_necessary_conditions,
    solve_rlop,
    solve_rop,
)
from .document import ProblemDocument, load_problem

__version__ = "0.1.0"

"""H-infinity and strong H-infinity norms of delay differential algebraic systems.

Interconnections of time-delay systems reduce to the standard form

    E x'(t) = A_0 x(t) + sum_i A_i x(t - tau_i) + B w(t),   z(t) = C x(t)

with a possibly singular E, via slack variables (:mod:`ddaenorm.interconnect`)
and without any elimination.  The plain H-infinity norm of the transfer
function from w to z can jump under arbitrarily small delay perturbations;
the strong H-infinity norm -- the maximum of the plain norm and a torus
maximum over the delay-difference part -- is the smallest delay-insensitive
upper bound and depends continuously on the delays (:mod:`ddaenorm.norms`).
"""

from .errors import (
    AssumptionError,
    ConvergenceError,
    DdaeError,
    DecompositionError,
    DimensionError,
    EvaluationError,
    InstabilityError,
    UnboundedNormError,
)
from .fileio import (
    SchemaError,
    build_from_dict,
    load_interconnect,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
)
from .interconnect import (
    PlantBlock,
    StaticDelayController,
    absorb_io_delay,
    close_feedback,
    eliminate_feedthrough,
    from_neutral,
)
from .norms import (
    BRANCH_ASYMPTOTIC,
    BRANCH_PLAIN,
    NormResult,
    frequency_bound,
    hinf_norm_T,
    strong_hinf_norm_T,
    strong_norm_Ta,
)
from .response import (
    FrequencyGrid,
    SvCurve,
    eval_T,
    eval_Ta,
    eval_Ta_torus,
    sweep,
    system_hash,
)
from .sensitivity import (
    PerturbationRecord,
    PerturbationStudy,
    commensurate_approximation,
    run_perturbation_study,
    sample_delays,
)
from .system_model import (
    BlockDecomposition,
    DdaeSystem,
    ValidationReport,
    check_assumption1,
    check_difference_stability,
    decompose,
    imaginary_axis_margin,
    nullspace_bases,
    validate_system,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "BRANCH_ASYMPTOTIC",
    "BRANCH_PLAIN",
    "BlockDecomposition",
    "ConvergenceError",
    "DdaeError",
    "DdaeSystem",
    "DecompositionError",
    "DimensionError",
    "EvaluationError",
    "FrequencyGrid",
    "InstabilityError",
    "NormResult",
    "PerturbationRecord",
    "PerturbationStudy",
    "PlantBlock",
    "SchemaError",
    "StaticDelayController",
    "SvCurve",
    "UnboundedNormError",
    "ValidationReport",
    "absorb_io_delay",
    "build_from_dict",
    "check_assumption1",
    "check_difference_stability",
    "close_feedback",
    "commensurate_approximation",
    "decompose",
    "eliminate_feedthrough",
    "eval_T",
    "eval_Ta",
    "eval_Ta_torus",
    "frequency_bound",
    "from_neutral",
    "hinf_norm_T",
    "imaginary_axis_margin",
    "load_interconnect",
    "load_system",
    "nullspace_bases",
    "run_perturbation_study",
    "sample_delays",
    "save_system",
    "strong_hinf_norm_T",
    "strong_norm_Ta",
    "sweep",
    "system_from_dict",
    "system_hash",
    "system_to_dict",
    "validate_system",
]

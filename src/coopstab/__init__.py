"""Stability class and non-negative steady states of linear cooperative
systems dm/dt = A m, decided block-by-block on the strongly connected
components of the dependence graph."""

__version__ = "0.1.0"

from .condensation import Condensation, condense, to_dot
from .errors import (
    BadBlockOrder,
    CondensationError,
    CoopStabError,
    DuplicateEntry,
    GapTooSmall,
    IndexOutOfRange,
    InfeasibleSpec,
    NegativeOffDiagonal,
    NegativeSteadyStateEntry,
    NoConvergence,
    NonFiniteResult,
    NonSquare,
    NotMarginallyStable,
    ParseError,
    SingularSubCriticalSolve,
    SuperCriticalPresent,
    TooLargeForDense,
    TooManyBlocks,
    UnknownLabel,
    ValidationError,
    ZeroWeightEdge,
)
from .oracle import (
    DenseVerdict,
    GeneratorSpec,
    LimitCheckResult,
    dense_verdict,
    expm_limit_check,
    extract_coupling,
    generate,
    generate_compartmental,
    generate_marginally_stable,
    generate_with_plan,
    path_sum_matrix,
    random_critical_matrix,
    random_metzler,
    simulate,
    spectrum_match_error,
    steady_state_by_path_sum,
)
from .spectral import (
    BlockClass,
    SpectralOptions,
    Spectra,
    analyze_all_blocks,
    classify,
    dominant_eigenpair,
)
from .stability import (
    CriticalPath,
    StabilityReport,
    SteadyStateBasis,
    SuperCriticalBlock,
    Verdict,
    find_traps,
    full_analysis,
    nullspace_residual,
    steady_state_basis,
    trivial_blocks,
    verdict,
)
from .system import (
    CooperativeSystem,
    from_dense,
    is_compartmental,
    load_edge_list_json,
    load_matrix_market,
    state_vector,
    to_edge_list_json,
    to_matrix_market,
    validate,
)

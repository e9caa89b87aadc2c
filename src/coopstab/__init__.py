"""Stability class and non-negative steady states of linear cooperative
systems dm/dt = A m, decided block-by-block on the strongly connected
components of the dependence graph."""

__version__ = "0.1.0"

from .condensation import Condensation, condense, to_dot
from .errors import (
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
    UnknownLabel,
    ValidationError,
    ZeroWeightEdge,
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
    nullspace_residuals,
    steady_state_basis,
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

# The dense cross-checks and generators load on first use (PEP 562), so that importing the
# pipeline does not compile and run the oracle module.
_ORACLE_NAMES = frozenset({
    "DenseVerdict", "GeneratorSpec", "LimitCheckResult", "dense_verdict", "expm_limit_check", "generate",
    "generate_compartmental", "generate_marginally_stable", "generate_with_plan", "random_critical_matrix",
    "simulate",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)

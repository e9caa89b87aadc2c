"""Exception types shared across the package."""
from __future__ import annotations


class CoopStabError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CoopStabError):
    """Input data violates the cooperative-system contract."""


class NegativeOffDiagonal(ValidationError):
    def __init__(self, row: int, col: int, value: float):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(
            f"off-diagonal entry a[{row},{col}] = {value} is negative; "
            f"a cooperative system requires a_ij >= 0 for i != j"
        )


class IndexOutOfRange(ValidationError):
    def __init__(self, row: int, col: int, n: int):
        self.row = row
        self.col = col
        self.n = n
        super().__init__(f"entry index ({row},{col}) outside [0,{n})")


class DuplicateEntry(ValidationError):
    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(
            f"coordinate ({row},{col}) appears more than once; duplicates are "
            f"rejected rather than summed"
        )


class ZeroWeightEdge(ValidationError):
    def __init__(self, src: int | str, dst: int | str):
        self.src = src
        self.dst = dst
        super().__init__(f"edge {src} -> {dst} has weight 0; edges exist only for nonzero weights")


class UnknownLabel(ValidationError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"node label {label!r} not found")


class ParseError(CoopStabError):
    """Malformed input text; `line` is 1-based (0 for structural problems)."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class NonSquare(ParseError):
    def __init__(self, line: int, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        super().__init__(line, f"matrix is {rows}x{cols}, expected square")


class CondensationError(CoopStabError):
    """The computed condensation breaks an invariant of its construction: a
    defect in the program, not in the input."""


class NoConvergence(CoopStabError):
    def __init__(self, iterations: int, last_residual: float, block_index: int | None = None):
        self.iterations = iterations
        self.last_residual = last_residual
        self.block_index = block_index
        where = "" if block_index is None else f" (block {block_index})"
        super().__init__(
            f"eigensolver did not converge{where}: {iterations} iterations, "
            f"last residual {last_residual:.3e}"
        )


class SuperCriticalPresent(CoopStabError):
    """Operation defined only for systems without super-critical blocks."""


class NotMarginallyStable(CoopStabError):
    """Steady-state construction refused: the system is not marginally stable."""


class SingularSubCriticalSolve(CoopStabError):
    def __init__(self, block_index: int):
        self.block_index = block_index
        super().__init__(
            f"linear solve on block {block_index} hit a tiny pivot; the block was "
            f"classified sub-critical but is numerically singular (likely a "
            f"borderline criticality call)"
        )


class NegativeSteadyStateEntry(CoopStabError):
    def __init__(self, block_index: int, node: int, value: float):
        self.block_index = block_index
        self.node = node
        self.value = value
        super().__init__(
            f"steady-state entry for node {node} (block {block_index}) is {value:.3e}, "
            f"too negative to be rounding dust"
        )


class NonFiniteResult(CoopStabError):
    """A computed quantity overflowed or became NaN."""


class TooLargeForDense(CoopStabError):
    def __init__(self, n: int, limit: int):
        self.n = n
        self.limit = limit
        super().__init__(f"dense computation refused for n = {n} (limit {limit})")


class GapTooSmall(CoopStabError):
    MIN_GAP = 1e-8  # the smallest spectral gap the limit check certifies, as the message says

    def __init__(self, gap: float):
        self.gap = gap
        super().__init__(
            f"spectral gap {gap:.3e} below 1e-8; limit convergence too slow to certify"
        )


class InfeasibleSpec(ValidationError):
    """Generator specification cannot be realized."""

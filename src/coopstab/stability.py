"""Stability verdict and explicit steady-state construction.

The verdict is a trichotomy. All blocks sub-critical: asymptotically stable,
only the zero fixed point. Any super-critical block, or any directed path
between two critical blocks: unstable. Otherwise marginally stable, and the
non-negative steady states form a family with one free parameter per final
critical block (a critical block with no critical block downstream). Roles,
multiplicities and the witness path all come from one forward and one
backward sweep over the block DAG.

A basis vector for free block k is zero outside the cone downstream of k and
carries the block's positive eigenvector on k itself. All basis vectors are
propagated together, as the columns of one array, one DAG level at a time:
the blocks of a level depend on lower levels only, so all their couplings
are gathered in one step and all their singletons solved by one division;
each multi-node block in some cone is factorized once for all free
parameters. The alternating path-sum form of the same propagation, which
enumerates block paths, is a cross-check in the oracle module.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .condensation import Block, Condensation, condense
from .errors import (
    NegativeSteadyStateEntry,
    NonFiniteResult,
    NotMarginallyStable,
    SingularSubCriticalSolve,
    SuperCriticalPresent,
)
from .spectral import BlockClass, SpectralOptions, Spectra, analyze_all_blocks
from .system import CooperativeSystem

TINY_PIVOT_REL = 1e-13


class Verdict(enum.Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically-stable"
    MARGINALLY_STABLE = "marginally-stable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class SuperCriticalBlock:
    block_index: int


@dataclass(frozen=True)
class CriticalPath:
    upstream_block: int
    downstream_block: int
    path: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """The verdict and its evidence; read-only bool columns over the blocks
    flag the `trivial` ones and the `free` (final critical) ones."""

    verdict: Verdict
    unstable_reason: SuperCriticalBlock | CriticalPath | None
    algebraic_multiplicity_zero: int
    geometric_multiplicity_zero: int
    trivial: np.ndarray
    free: np.ndarray


@dataclass(frozen=True, eq=False)
class SteadyStateBasis:
    """Non-negative nullspace basis, one full-length vector per free block;
    the vectors are read-only column views of one n x F array.

    The general steady state is sum over k of alpha_k * vectors[k] with free
    parameters named in free_parameters.
    """

    vectors: tuple[np.ndarray, ...]
    free_blocks: tuple[int, ...]
    free_parameters: tuple[str, ...]


def _block_dag(cond: Condensation, crit: list[bool]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Two sweeps over the block DAG (edges point from lower to higher index).

    up[k]: some critical block is strictly upstream of k.
    near[k]: length of the shortest path from k to a critical block strictly
    downstream, 0 if there is none; hop[k] is the smallest successor on such a
    path, so following hop traces the lexicographically smallest of them.
    """
    h = cond.h
    ptr, succ = (a.tolist() for a in cond.dag)
    up = [False] * h
    for l in range(h):
        if crit[l] or up[l]:
            for k in succ[ptr[l]:ptr[l + 1]]:
                up[k] = True
    near = [0] * h
    hop = [-1] * h
    for l in reversed(range(h)):
        for k in succ[ptr[l]:ptr[l + 1]]:
            d = 1 if crit[k] else (near[k] + 1 if near[k] else 0)
            if d and (not near[l] or d < near[l]):
                near[l], hop[l] = d, k
    return np.array(up, dtype=bool), np.array(near, dtype=np.intp), hop


def _refuse_super_critical(report: StabilityReport) -> None:
    if isinstance(report.unstable_reason, SuperCriticalBlock):
        raise SuperCriticalPresent(
            f"block {report.unstable_reason.block_index} is super-critical"
        )


def trivial_blocks(cond: Condensation, spectra: Spectra) -> set[int]:
    """Blocks whose sub-vector is zero in every non-negative stable fixed point."""
    report = verdict(cond, spectra)
    _refuse_super_critical(report)
    return set(np.flatnonzero(report.trivial).tolist())


def verdict(cond: Condensation, spectra: Spectra) -> StabilityReport:
    """Apply the graph-theoretic criterion and report the evidence.

    Algebraic multiplicity of eigenvalue zero is the number of critical
    blocks; geometric multiplicity is the number of final critical blocks.
    A block is trivial when it is upstream of a critical block, or
    sub-critical and not downstream of one; the characterization holds only
    without super-critical blocks, so with one present all flags are False.
    The witness of a critical-critical path is the shortest one, from the
    smallest upstream block, with the lexicographically smallest block
    sequence.
    """
    crit = spectra.classification == BlockClass.CRITICAL
    sub = spectra.classification == BlockClass.SUB_CRITICAL
    supers = np.flatnonzero(spectra.classification == BlockClass.SUPER_CRITICAL)
    up, near, hop = _block_dag(cond, crit.tolist())
    critical = np.flatnonzero(crit)
    connected = critical[near[critical] > 0]
    trivial = ((near > 0) | (sub & ~up)) & (supers.size == 0)
    free = crit & (near == 0)
    for a in (trivial, free):
        a.setflags(write=False)
    reason: SuperCriticalBlock | CriticalPath | None = None
    if supers.size:
        reason = SuperCriticalBlock(int(supers[0]))
    elif connected.size:
        src = int(connected[np.argmin(near[connected])])  # ties: the smallest index
        path = [src, hop[src]]
        while not crit[path[-1]]:
            path.append(hop[path[-1]])
        reason = CriticalPath(src, path[-1], tuple(path))
    if reason is not None:
        result = Verdict.UNSTABLE
    elif critical.size:
        result = Verdict.MARGINALLY_STABLE
    else:
        result = Verdict.ASYMPTOTICALLY_STABLE
    return StabilityReport(
        verdict=result,
        unstable_reason=reason,
        algebraic_multiplicity_zero=critical.size,
        geometric_multiplicity_zero=critical.size - connected.size,
        trivial=trivial,
        free=free,
    )


def full_analysis(
    system: CooperativeSystem, opts: SpectralOptions | None = None
) -> tuple[Condensation, Spectra, StabilityReport]:
    """Condense, analyze every block, and render the verdict in one call."""
    cond = condense(system)
    spectra = analyze_all_blocks(cond, opts)
    return cond, spectra, verdict(cond, spectra)


def _solve_block(block: Block, rhs: np.ndarray) -> np.ndarray:
    """Solve B X = rhs column by column (a multi-column LU solve rounds
    differently); a column that is not finite has no finite solution."""
    b = block.matrix
    lu, piv = lu_factor(b)
    if np.min(np.abs(np.diag(lu))) <= TINY_PIVOT_REL * max(
        1e-300, float(np.max(np.sum(np.abs(b), axis=1)))
    ):
        raise SingularSubCriticalSolve(block.index)
    return np.column_stack([
        lu_solve((lu, piv), col) if np.isfinite(col).all() else np.full(len(col), np.inf)
        for col in rhs.T
    ])


def _levels(cond: Condensation, sub: np.ndarray):
    """Yield the couplings into sub-critical blocks as (rows, cols, vals) and
    the blocks they feed, one DAG level at a time. Every source of a block
    lies on a lower level, so it is final before the block is solved; other
    blocks are never solved and sit on level 0. Stable sorts keep the order
    of `cond.cross` within every row and ascending block indices within
    every level."""
    target, rows, cols, vals = (a[sub[cond.cross[0]]] for a in cond.cross)
    depth = np.where(sub, cond.level, 0)
    top = int(depth.max(initial=0))

    def by_level(level: np.ndarray) -> list[np.ndarray]:
        ends = np.cumsum(np.bincount(level, minlength=top + 1))[:-1]
        return np.split(np.argsort(level, kind="stable"), ends)

    cells, blocks = by_level(depth[target]), by_level(depth)
    for d in range(1, top + 1):
        yield rows[cells[d]], cols[cells[d]], vals[cells[d]], blocks[d]


def steady_state_basis(
    cond: Condensation,
    spectra: Spectra,
    report: StabilityReport | None = None,
    *,
    force: bool = False,
    residual_tol: float = 1e-10,
) -> SteadyStateBasis:
    """Construct one non-negative nullspace basis vector per free block.

    `report` is the verdict for the same condensation and spectra; it is
    computed when omitted. Refuses to run unless the system is marginally
    stable; `force` computes the (still well-defined) zero-eigenvectors for a
    system that is unstable only through a critical-critical path.
    Super-critical blocks always refuse: the construction is not defined for
    them.

    Each level's right-hand sides are summed in one step in the order of
    `cond.cross`, so they round exactly as block by block; when several
    blocks fail, the lowest-indexed one raises, as in a sweep in block order.
    """
    if report is None:
        report = verdict(cond, spectra)
    _refuse_super_critical(report)
    if report.verdict is Verdict.ASYMPTOTICALLY_STABLE:
        raise NotMarginallyStable(
            "all blocks are sub-critical; the only fixed point is zero"
        )
    witness = report.unstable_reason
    if witness is not None and not force:
        raise NotMarginallyStable(
            f"critical blocks {witness.upstream_block} and {witness.downstream_block} "
            f"are connected by a path"
        )
    final = np.flatnonzero(report.free).tolist()

    size = np.diff(cond.bounds)
    first_node = cond.permutation[cond.bounds[:-1]]
    sub = spectra.classification == BlockClass.SUB_CRITICAL

    # One column per free block.
    x = np.zeros((len(cond.node_to_block), len(final)), order="F")
    for col, k in enumerate(final):
        x[cond.permutation[cond.bounds[k]:cond.bounds[k + 1]], col] = spectra.phi[k]
    failures: dict[int, Exception] = {}
    # An overflow here is reported by the finiteness check on the result.
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, cols, vals, level in _levels(cond, sub):
            np.add.at(x, rows, vals[:, None] * x[cols])

            single = level[size[level] == 1]
            nodes = first_node[single]
            sol = -x[nodes] / spectra.mu[single, None]  # a singleton's mu is its diagonal entry
            bad = sol < -10.0 * residual_tol * np.maximum(1.0, abs(sol))
            if bad.any():
                t = int(bad.any(axis=1).argmax())
                failures[int(single[t])] = NegativeSteadyStateEntry(
                    int(single[t]), int(nodes[t]), float(sol[t, bad[t].argmax()])
                )
            sol[sol < 0] = 0.0
            x[nodes] = sol

            for l in level[size[level] > 1].tolist():
                block = cond.block(l)
                rhs = x[block.nodes]
                solved = rhs.any(axis=0).nonzero()[0]
                if not solved.size:
                    continue
                try:
                    sol = _solve_block(block, -rhs[:, solved])
                except SingularSubCriticalSolve as exc:
                    failures[l] = exc
                    continue
                bad = sol < -10.0 * residual_tol * np.maximum(1.0, abs(sol).max(axis=0))
                if bad.any():
                    col = bad.any(axis=0).argmax()
                    worst = int(sol[:, col].argmin())
                    failures[l] = NegativeSteadyStateEntry(l, int(block.nodes[worst]), float(sol[worst, col]))
                sol[sol < 0] = 0.0
                x[block.nodes[:, None], solved] = sol
    if failures:
        raise failures[min(failures)]
    overflow = ~np.isfinite(x).all(axis=1)
    if overflow.any():
        node = int(overflow.argmax())
        raise NonFiniteResult(
            f"steady-state entry for node {node} (block {cond.node_to_block[node]}) "
            f"is not finite"
        )
    x.setflags(write=False)

    return SteadyStateBasis(
        vectors=tuple(x.T),
        free_blocks=tuple(final),
        free_parameters=tuple(f"alpha_{k}" for k in final),
    )


def nullspace_residual(system: CooperativeSystem, vector: np.ndarray) -> float:
    """Infinity norm of A v, the defect of v as a fixed point."""
    rows, cols, vals = system.coo
    out = np.bincount(rows, weights=vals * np.asarray(vector)[cols], minlength=system.n)
    return float(np.max(np.abs(out))) if system.n else 0.0


def find_traps(cond: Condensation, spectra: Spectra) -> tuple[int, ...]:
    """Critical blocks with no outgoing edges; in a compartmental system these
    are exactly the blocks that can hold mass forever."""
    sink = np.diff(cond.dag[0]) == 0
    return tuple(np.flatnonzero((spectra.classification == BlockClass.CRITICAL) & sink).tolist())

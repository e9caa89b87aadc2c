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
parameters. The alternating path-sum form of the same propagation is
kept as a cross-validation oracle only; enumerating block paths is
exponential in the condensation size.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .condensation import Condensation, extract_coupling
from .errors import (
    BadBlockOrder,
    NegativeSteadyStateEntry,
    NonFiniteResult,
    NotMarginallyStable,
    SingularSubCriticalSolve,
    SuperCriticalPresent,
    TooManyBlocks,
)
from .spectral import BlockClass, BlockSpectrum, SpectralOptions, analyze_all_blocks
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


@dataclass(frozen=True)
class BlockRole:
    block_index: int
    is_trivial: bool
    is_final_critical: bool


@dataclass(frozen=True)
class StabilityReport:
    verdict: Verdict
    unstable_reason: SuperCriticalBlock | CriticalPath | None
    algebraic_multiplicity_zero: int
    geometric_multiplicity_zero: int
    roles: tuple[BlockRole, ...]


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


def _classes(spectra: Sequence[BlockSpectrum]) -> list[BlockClass]:
    return [s.classification for s in spectra]


def _block_dag(
    cond: Condensation, classes: Sequence[BlockClass]
) -> tuple[list[bool], list[int], list[int]]:
    """Two sweeps over the block DAG (edges point from lower to higher index).

    up[k]: some critical block is strictly upstream of k.
    near[k]: length of the shortest path from k to a critical block strictly
    downstream, 0 if there is none; hop[k] is the smallest successor on such a
    path, so following hop traces the lexicographically smallest of them.
    """
    h = cond.h
    succ: list[list[int]] = [[] for _ in range(h)]
    for l, k in sorted(cond.dag_edges):
        succ[l].append(k)
    crit = [c is BlockClass.CRITICAL for c in classes]
    up = [False] * h
    for l in range(h):
        if crit[l] or up[l]:
            for k in succ[l]:
                up[k] = True
    near = [0] * h
    hop = [-1] * h
    for l in reversed(range(h)):
        for k in succ[l]:
            d = 1 if crit[k] else (near[k] + 1 if near[k] else 0)
            if d and (not near[l] or d < near[l]):
                near[l], hop[l] = d, k
    return up, near, hop


def _refuse_super_critical(report: StabilityReport) -> None:
    if isinstance(report.unstable_reason, SuperCriticalBlock):
        raise SuperCriticalPresent(
            f"block {report.unstable_reason.block_index} is super-critical"
        )


def trivial_blocks(cond: Condensation, spectra: Sequence[BlockSpectrum]) -> set[int]:
    """Blocks whose sub-vector is zero in every non-negative stable fixed point."""
    report = verdict(cond, spectra)
    _refuse_super_critical(report)
    return {r.block_index for r in report.roles if r.is_trivial}


def verdict(cond: Condensation, spectra: Sequence[BlockSpectrum]) -> StabilityReport:
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
    classes = _classes(spectra)
    up, near, hop = _block_dag(cond, classes)
    critical = [k for k, c in enumerate(classes) if c is BlockClass.CRITICAL]
    supers = [k for k, c in enumerate(classes) if c is BlockClass.SUPER_CRITICAL]
    connected = [k for k in critical if near[k]]
    roles = tuple(
        BlockRole(
            k,
            not supers and (near[k] > 0 or (c is BlockClass.SUB_CRITICAL and not up[k])),
            c is BlockClass.CRITICAL and not near[k],
        )
        for k, c in enumerate(classes)
    )
    reason: SuperCriticalBlock | CriticalPath | None = None
    if supers:
        reason = SuperCriticalBlock(min(supers))
    elif connected:
        src = min(connected, key=lambda k: (near[k], k))
        path = [src, hop[src]]
        while classes[path[-1]] is not BlockClass.CRITICAL:
            path.append(hop[path[-1]])
        reason = CriticalPath(src, path[-1], tuple(path))
    if reason is not None:
        result = Verdict.UNSTABLE
    elif critical:
        result = Verdict.MARGINALLY_STABLE
    else:
        result = Verdict.ASYMPTOTICALLY_STABLE
    return StabilityReport(
        verdict=result,
        unstable_reason=reason,
        algebraic_multiplicity_zero=len(critical),
        geometric_multiplicity_zero=len(critical) - len(connected),
        roles=roles,
    )


def full_analysis(
    system: CooperativeSystem, opts: SpectralOptions | None = None
) -> tuple[Condensation, list[BlockSpectrum], StabilityReport]:
    """Condense, analyze every block, and render the verdict in one call."""
    from .condensation import condense

    cond = condense(system)
    spectra = analyze_all_blocks(cond, opts)
    return cond, spectra, verdict(cond, spectra)


def _solve_block(cond: Condensation, l: int, rhs: np.ndarray) -> np.ndarray:
    """Solve B_l X = rhs column by column (a multi-column LU solve rounds
    differently); a column that is not finite has no finite solution."""
    b = cond.blocks[l].matrix
    lu, piv = lu_factor(b)
    if np.min(np.abs(np.diag(lu))) <= TINY_PIVOT_REL * max(
        1e-300, float(np.max(np.sum(np.abs(b), axis=1)))
    ):
        raise SingularSubCriticalSolve(l)
    return np.column_stack([
        lu_solve((lu, piv), col) if np.isfinite(col).all() else np.full(len(col), np.inf)
        for col in rhs.T
    ])


def _levels(cond: Condensation, sub: np.ndarray):
    """Yield the couplings into sub-critical blocks as (rows, cols, vals) and
    the blocks they feed, one level at a time. A block lies one level below
    its deepest source, so it depends on lower levels only. Stable sorts keep
    the order of `cond.cross` within every row and ascending block indices
    within every level."""
    target, rows, cols, vals = (a[sub[cond.cross[0]]] for a in cond.cross)
    edges = np.unique(target * cond.h + np.asarray(cond.node_to_block)[cols])  # by target
    depth = [0] * cond.h
    for k, l in zip((edges // cond.h).tolist(), (edges % cond.h).tolist()):
        if depth[k] <= depth[l]:
            depth[k] = depth[l] + 1
    depth = np.array(depth)
    top = int(depth.max(initial=0))

    def by_level(level: np.ndarray) -> list[np.ndarray]:
        ends = np.cumsum(np.bincount(level, minlength=top + 1))[:-1]
        return np.split(np.argsort(level, kind="stable"), ends)

    cells, blocks = by_level(depth[target]), by_level(depth)
    for d in range(1, top + 1):
        yield rows[cells[d]], cols[cells[d]], vals[cells[d]], blocks[d]


def steady_state_basis(
    cond: Condensation,
    spectra: Sequence[BlockSpectrum],
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
    classes = _classes(spectra)
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
    final = [r.block_index for r in report.roles if r.is_final_critical]

    size = np.bincount(cond.node_to_block, minlength=cond.h)
    first_node = np.asarray(cond.permutation)[np.cumsum(size) - size]
    diag = np.array([s.mu for s in spectra])  # a singleton's mu is its diagonal entry
    sub = np.array([c is BlockClass.SUB_CRITICAL for c in classes])

    # One column per free block.
    x = np.zeros((len(cond.node_to_block), len(final)), order="F")
    for col, k in enumerate(final):
        x[list(cond.blocks[k].nodes), col] = spectra[k].phi
    failures: dict[int, Exception] = {}
    # An overflow here is reported by the finiteness check on the result.
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, cols, vals, level in _levels(cond, sub):
            np.add.at(x, rows, vals[:, None] * x[cols])

            single = level[size[level] == 1]
            nodes = first_node[single]
            sol = -x[nodes] / diag[single, None]
            bad = sol < -10.0 * residual_tol * np.maximum(1.0, abs(sol))
            if bad.any():
                t = int(bad.any(axis=1).argmax())
                failures[int(single[t])] = NegativeSteadyStateEntry(
                    int(single[t]), int(nodes[t]), float(sol[t, bad[t].argmax()])
                )
            sol[sol < 0] = 0.0
            x[nodes] = sol

            for l in level[size[level] > 1].tolist():
                nodes = cond.blocks[l].nodes
                rhs = x[list(nodes)]
                solved = rhs.any(axis=0).nonzero()[0]
                if not solved.size:
                    continue
                try:
                    sol = _solve_block(cond, l, -rhs[:, solved])
                except SingularSubCriticalSolve as exc:
                    failures[l] = exc
                    continue
                bad = sol < -10.0 * residual_tol * np.maximum(1.0, abs(sol).max(axis=0))
                if bad.any():
                    col = bad.any(axis=0).argmax()
                    worst = int(sol[:, col].argmin())
                    failures[l] = NegativeSteadyStateEntry(l, nodes[worst], float(sol[worst, col]))
                sol[sol < 0] = 0.0
                x[np.array(nodes)[:, None], solved] = sol
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


def path_sum_matrix(
    cond: Condensation,
    spectra: Sequence[BlockSpectrum],
    k: int,
    l: int,
    *,
    max_blocks: int = 12,
) -> np.ndarray:
    """Alternating sum over all directed block paths from l to k.

    Each path l -> b_1 -> ... -> b_{n-1} -> k of n edges contributes
    (-1)^(n-1) C[k, b_{n-1}] B_{b_{n-1}}^{-1} ... B_{b_1}^{-1} C[b_1, l].
    Test oracle only; path enumeration is exponential in the block count.
    """
    if cond.h > max_blocks:
        raise TooManyBlocks(cond.h, max_blocks)
    if not (0 <= l < k < cond.h):
        raise BadBlockOrder(f"need 0 <= l < k < h, got l={l}, k={k}, h={cond.h}")

    succ: list[list[int]] = [[] for _ in range(cond.h)]
    for a, b in sorted(cond.dag_edges):
        succ[a].append(b)

    inv_cache: dict[int, np.ndarray] = {}

    def inv_block(b: int) -> np.ndarray:
        if b not in inv_cache:
            inv_cache[b] = np.linalg.inv(cond.blocks[b].matrix)
        return inv_cache[b]

    def coupling(t: int, s: int) -> np.ndarray:
        return extract_coupling(cond, t, s).matrix

    total = np.zeros((cond.blocks[k].size, cond.blocks[l].size))
    stack: list[list[int]] = [[l]]
    while stack:
        path = stack.pop()
        for nxt in succ[path[-1]]:
            if nxt == k:
                full = path + [k]
                n_edges = len(full) - 1
                term = coupling(full[1], full[0])
                for step in range(1, n_edges):
                    term = coupling(full[step + 1], full[step]) @ inv_block(full[step]) @ term
                total += (-1.0) ** (n_edges - 1) * term
            elif nxt < k:
                stack.append(path + [nxt])
    return total


def steady_state_by_path_sum(
    cond: Condensation,
    spectra: Sequence[BlockSpectrum],
    free_block: int,
    *,
    max_blocks: int = 12,
) -> np.ndarray:
    """Basis vector for one free block evaluated through the path-sum form;
    cross-validates the recursive propagation."""
    classes = _classes(spectra)
    n = len(cond.node_to_block)
    x = np.zeros(n)
    phi = spectra[free_block].phi
    x[list(cond.blocks[free_block].nodes)] = phi
    for k in range(free_block + 1, cond.h):
        if classes[k] is not BlockClass.SUB_CRITICAL:
            continue
        p = path_sum_matrix(cond, spectra, k, free_block, max_blocks=max_blocks)
        if not p.any():
            continue
        sol = -np.linalg.inv(cond.blocks[k].matrix) @ (p @ phi)
        x[list(cond.blocks[k].nodes)] = sol
    x.setflags(write=False)
    return x


def find_traps(cond: Condensation, spectra: Sequence[BlockSpectrum]) -> tuple[int, ...]:
    """Critical blocks with no outgoing edges; in a compartmental system these
    are exactly the blocks that can hold mass forever."""
    has_out = {l for (l, _) in cond.dag_edges}
    return tuple(
        k for k, s in enumerate(spectra)
        if s.classification is BlockClass.CRITICAL and k not in has_out
    )

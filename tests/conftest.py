"""Shared helpers for the test suite."""
from __future__ import annotations

import math
import operator
from collections import deque
from typing import Mapping

import numpy as np
from scipy.linalg import lu_factor, lu_solve, null_space

from coopstab import (
    BlockClass,
    BlockRole,
    CriticalPath,
    DuplicateEntry,
    IndexOutOfRange,
    NegativeOffDiagonal,
    NegativeSteadyStateEntry,
    NonFiniteResult,
    NotMarginallyStable,
    SingularSubCriticalSolve,
    StabilityReport,
    SteadyStateBasis,
    SuperCriticalBlock,
    ValidationError,
    Verdict,
    verdict,
)
from coopstab.stability import TINY_PIVOT_REL, _refuse_super_critical


def reference_entries(raw_entries, n: int) -> dict:
    """The per-triple validation loop `validate` replaced by array checks:
    the accepted {(i, j): value} entries in input order, or the error of the
    first offending triple."""
    if isinstance(raw_entries, Mapping):
        triples = ((i, j, v) for (i, j), v in raw_entries.items())
    else:
        triples = iter(raw_entries)
    seen = set()
    entries = {}
    for i, j, v in triples:
        try:
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise IndexOutOfRange(i, j, n) from None
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(i, j, n)
        if (i, j) in seen:
            raise DuplicateEntry(i, j)
        seen.add((i, j))
        v = float(v)
        if not math.isfinite(v):
            raise ValidationError(f"entry ({i},{j}) = {v} is not finite")
        if i != j and v < 0:
            raise NegativeOffDiagonal(i, j, v)
        if v != 0.0:
            entries[(i, j)] = v
    return entries


def bfs_reachable(adj: list[list[int]], start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def strongly_connected(matrix: np.ndarray) -> bool:
    """Every node pair mutually reachable over the edges j -> i of the block
    matrix (diagonal ignored)."""
    d = matrix.shape[0]
    if d == 1:
        return True
    fwd: list[list[int]] = [[] for _ in range(d)]
    back: list[list[int]] = [[] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i != j and matrix[i, j] != 0.0:
                fwd[j].append(i)
                back[i].append(j)
    return len(bfs_reachable(fwd, 0)) == d and len(bfs_reachable(back, 0)) == d


def nullspace_projector(a: np.ndarray, basis_vectors) -> np.ndarray:
    """Projector onto the nullspace of a along its range, built from a right
    nullspace basis and a dense left-nullspace solve."""
    v = np.column_stack(basis_vectors)
    w = null_space(a.T)
    return v @ np.linalg.solve(w.T @ v, w.T)


def spectral_gap(a: np.ndarray, zero_tol: float = 1e-8) -> float:
    """Distance from the imaginary-ish axis to the nearest genuinely negative
    eigenvalue real part; infinite when every eigenvalue is (near) zero."""
    scale = max(1.0, float(np.abs(a).sum(axis=1).max())) if a.size else 1.0
    real = np.linalg.eigvals(a).real
    negative = real[real < -zero_tol * scale]
    return float(-negative.max()) if negative.size else np.inf


# ---------------------------------------------------------------------------
# Reference block-DAG facts: the dense reachability relation and one BFS per
# critical block, against which the linear sweeps of `verdict` are checked.
# ---------------------------------------------------------------------------

def upstream_reachability(cond) -> np.ndarray:
    """Boolean h x h relation: reachable[l, k] is True iff a directed path of
    dag edges runs from block l to block k. A block is not upstream of itself."""
    h = cond.h
    succ: list[list[int]] = [[] for _ in range(h)]
    for l, k in cond.dag_edges:
        succ[l].append(k)
    reach = np.zeros((h, h), dtype=bool)
    for l in reversed(range(h)):
        for k in succ[l]:
            reach[l, k] = True
            reach[l] |= reach[k]
    return reach


def shortest_critical_path(cond, critical: list[int]) -> CriticalPath | None:
    """Shortest directed block path connecting two critical blocks, by a BFS
    from each critical block over sorted successors; ties go to the smaller
    upstream block."""
    succ: list[list[int]] = [[] for _ in range(cond.h)]
    for l, k in sorted(cond.dag_edges):
        succ[l].append(k)
    crit_set = set(critical)
    best = None
    for src in sorted(critical):
        parent = {src: -1}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in succ[v]:
                if w in parent:
                    continue
                parent[w] = v
                if w in crit_set:
                    path = [w]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    cand = (len(path), src, w, tuple(path))
                    if best is None or cand < best:
                        best = cand
                    queue.clear()
                    break
                queue.append(w)
    if best is None:
        return None
    _, src, dst, path = best
    return CriticalPath(upstream_block=src, downstream_block=dst, path=path)


def reference_verdict(cond, spectra) -> StabilityReport:
    """The stability report derived from the dense reachability relation."""
    classes = [s.classification for s in spectra]
    reach = upstream_reachability(cond)
    critical = [k for k, c in enumerate(classes) if c is BlockClass.CRITICAL]
    supers = [k for k, c in enumerate(classes) if c is BlockClass.SUPER_CRITICAL]
    final = {k for k in critical if not reach[k, critical].any()}
    trivial = set() if supers else {
        k for k, c in enumerate(classes)
        if reach[k, critical].any()
        or (c is BlockClass.SUB_CRITICAL and not reach[critical, k].any())
    }
    if supers:
        reason = SuperCriticalBlock(min(supers))
    else:
        reason = shortest_critical_path(cond, critical)
    if reason is not None:
        result = Verdict.UNSTABLE
    else:
        result = Verdict.MARGINALLY_STABLE if critical else Verdict.ASYMPTOTICALLY_STABLE
    return StabilityReport(
        verdict=result,
        unstable_reason=reason,
        algebraic_multiplicity_zero=len(critical),
        geometric_multiplicity_zero=len(final),
        roles=tuple(BlockRole(k, k in trivial, k in final) for k in range(cond.h)),
    )


# ---------------------------------------------------------------------------
# Reference steady-state basis: one sequential sweep over the blocks in
# index order, against which the level-scheduled sweep is checked bitwise.
# ---------------------------------------------------------------------------

def _reference_solve_block(cond, l: int, rhs: np.ndarray) -> np.ndarray:
    """Solve B_l X = rhs column by column (a multi-column LU solve rounds
    differently); a singleton divides by its diagonal. A column that is not
    finite gets an infinite solution, where lu_solve would raise."""
    b = cond.blocks[l].matrix
    if b.shape == (1, 1):
        return rhs / b[0, 0]
    lu, piv = lu_factor(b)
    if np.min(np.abs(np.diag(lu))) <= TINY_PIVOT_REL * max(
        1e-300, float(np.max(np.sum(np.abs(b), axis=1)))
    ):
        raise SingularSubCriticalSolve(l)
    return np.column_stack([
        lu_solve((lu, piv), col) if np.isfinite(col).all() else np.full(len(col), np.inf)
        for col in rhs.T
    ])


def reference_steady_state_basis(
    cond, spectra, report=None, *, force=False, residual_tol=1e-10
) -> SteadyStateBasis:
    """The block-by-block sweep: every sub-critical block with a source in
    some cone is solved in index order from `cross_entries`, and the first
    failing block raises. Unlike the sweep it stood for, a non-finite column
    of a multi-node block gets an infinite solution (lu_solve raised a
    ValueError) and the solve runs under `np.errstate` too."""
    classes = [s.classification for s in spectra]
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

    sources_of: dict[int, list[int]] = {}
    for (k, l) in cond.cross_entries:
        sources_of.setdefault(k, []).append(l)

    x = np.zeros((len(cond.node_to_block), len(final)), order="F")
    in_cone = [False] * cond.h
    for col, k in enumerate(final):
        x[list(cond.blocks[k].nodes), col] = spectra[k].phi
        in_cone[k] = True
    for l in range(cond.h):
        cone_sources = [s for s in sources_of.get(l, ()) if in_cone[s]]
        if classes[l] is not BlockClass.SUB_CRITICAL or not cone_sources:
            continue
        block = cond.blocks[l]
        rhs = np.zeros((block.size, len(final)))
        with np.errstate(over="ignore", invalid="ignore"):
            for src in cone_sources:
                src_nodes = cond.blocks[src].nodes
                for li, lj, v in cond.cross_entries[(l, src)]:
                    rhs[li] += v * x[src_nodes[lj]]
        cols = rhs.any(axis=0).nonzero()[0]
        if not cols.size:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            sol = _reference_solve_block(cond, l, -rhs[:, cols])
        too_negative = sol < -10.0 * residual_tol * np.maximum(1.0, abs(sol).max(axis=0))
        if too_negative.any():
            col = too_negative.any(axis=0).argmax()
            worst = int(sol[:, col].argmin())
            raise NegativeSteadyStateEntry(l, block.nodes[worst], float(sol[worst, col]))
        sol[sol < 0] = 0.0
        x[np.array(block.nodes)[:, None], cols] = sol
        in_cone[l] = True
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

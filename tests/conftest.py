"""Shared helpers for the test suite."""
from __future__ import annotations

from collections import deque

import numpy as np
from scipy.linalg import null_space

from coopstab import (
    BlockClass,
    BlockRole,
    CriticalPath,
    StabilityReport,
    SuperCriticalBlock,
    Verdict,
)


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

"""Shared helpers for the test suite."""
from __future__ import annotations

import heapq
import importlib.util
import math
import operator
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.linalg import lu_factor, lu_solve, null_space

from coopstab import (
    __version__,
    BlockClass,
    CondensationError,
    CriticalPath,
    DuplicateEntry,
    IndexOutOfRange,
    NegativeOffDiagonal,
    NoConvergence,
    NegativeSteadyStateEntry,
    NonFiniteResult,
    NonSquare,
    NotMarginallyStable,
    ParseError,
    SingularSubCriticalSolve,
    StabilityReport,
    SteadyStateBasis,
    SuperCriticalBlock,
    SuperCriticalPresent,
    ValidationError,
    Verdict,
    classify,
    validate,
    verdict,
)
from coopstab.cli import _reason_dict
from coopstab.stability import TINY_PIVOT_REL, nullspace_residual
from coopstab.system import _index_column, _raise_for, _value_column


def bench_workloads():
    """The bench's bench/workloads.py, loaded by path once (the bench is not a package)."""
    workloads = sys.modules.get("bench_workloads")
    if workloads is None:
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", Path(__file__).parents[1] / "bench" / "workloads.py")
        workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    return workloads


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


def lexsort_validate(raw_rows, raw_cols, raw_vals, n: int) -> tuple[np.ndarray, ...]:
    """`validate`'s array checks with the duplicate check by `np.lexsort` of
    the two index columns: the accepted coo arrays, or the error of the first
    offending triple."""
    rows, bad_row = _index_column(raw_rows, n)
    cols, bad_col = _index_column(raw_cols, n)
    vals, not_float = _value_column(raw_vals)
    not_index = bad_row | bad_col
    in_range = (rows >= 0) & (cols >= 0)
    order = np.lexsort((cols, rows))
    repeat = (rows[order[1:]] == rows[order[:-1]]) & (cols[order[1:]] == cols[order[:-1]])
    duplicate = np.zeros(len(raw_rows), dtype=bool)
    duplicate[order[1:][repeat]] = True
    checks = (not_index, ~in_range & ~not_index, duplicate & in_range, not_float,
              ~np.isfinite(vals), (rows != cols) & (vals < 0))
    failed = np.logical_or.reduce(checks)
    if failed.any():
        t = int(failed.argmax())
        _raise_for((raw_rows[t], raw_cols[t], raw_vals[t]), [bool(c[t]) for c in checks], n)
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


def entry_dict(system) -> dict[tuple[int, int], float]:
    """The {(i, j): a_ij} dict of `system.coo`, in the same order."""
    rows, cols, vals = system.coo
    return dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))


def graph_edges(system) -> list[tuple[int, int]]:
    """Graph edges as sorted (src, dst) pairs: entry a_ij yields edge j -> i."""
    rows, cols, _ = system.coo
    off = rows != cols
    return sorted(zip(cols[off].tolist(), rows[off].tolist()))


def reference_load_matrix_market(text: str):
    """The line-by-line Matrix Market reader, one tuple per entry, against
    which the vectorised reader is checked: same system or same error."""
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")

    banner = lines[0].split()
    if len(banner) != 5 or banner[0].lower() != "%%matrixmarket":
        raise ParseError(1, "expected banner '%%MatrixMarket matrix coordinate real general'")
    obj, fmt, fld, sym = (t.lower() for t in banner[1:])
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(1, f"unsupported object/format {obj!r}/{fmt!r}")
    if fld not in ("real", "integer"):
        raise ParseError(1, f"unsupported field {fld!r}; need real or integer")
    if sym != "general":
        raise ParseError(1, f"unsupported symmetry {sym!r}; need general")

    data = (
        (no, ln) for no, ln in enumerate(lines[1:], start=2)
        if ln.strip() and not ln.lstrip().startswith("%")
    )
    try:
        size_no, size_line = next(data)
    except StopIteration:
        raise ParseError(len(lines), "missing size line") from None
    parts = size_line.split()
    if len(parts) != 3:
        raise ParseError(size_no, f"size line needs 'rows cols nnz', got {size_line!r}")
    try:
        rows, cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError(size_no, f"non-integer size line {size_line!r}") from None
    if rows != cols:
        raise NonSquare(size_no, rows, cols)

    triples: list[tuple[int, int, float]] = []
    for no, ln in data:
        if len(triples) == nnz:
            raise ParseError(no, f"more than the declared {nnz} entries")
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(no, f"entry needs 'row col value', got {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            raise ParseError(no, f"malformed entry {ln!r}") from None
        if fld == "integer" and not (math.isfinite(v) and v == math.floor(v)):
            raise ParseError(no, f"value {parts[2]} is not a whole number, as the 'integer' field requires")
        triples.append((i - 1, j - 1, v))
    if len(triples) != nnz:
        raise ParseError(len(lines), f"declared {nnz} entries, found {len(triples)}")

    return validate(triples, rows)


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
# Reference Perron pair: the two refinement loops `dominant_eigenpair` once
# ran, power iteration and the polished dense eigensolve, kept verbatim so
# the merged loop can be checked against them bitwise.
# ---------------------------------------------------------------------------

def _reference_power_iteration(m: np.ndarray, tol: float, max_iter: int):
    d = m.shape[0]
    x = np.full(d, 1.0 / d)
    lam = 0.0
    res = np.inf
    check_every = 16
    for it in range(1, max_iter + 1):
        y = m @ x
        x = y / y.sum()
        if it % check_every == 0 or it == max_iter:
            y = m @ x
            lam = float(x @ y) / float(x @ x)
            res = float(np.max(np.abs(y - lam * x)))
            if res <= tol and x.min() > 0.0:
                return lam, x, res, it
    return lam, x, res, max_iter


def _reference_dense_perron(m: np.ndarray, tol: float):
    d = m.shape[0]
    w, vecs = np.linalg.eig(m)
    idx = int(np.argmax(w.real))
    x = np.real(vecs[:, idx])
    if x.sum() < 0:
        x = -x
    x = np.clip(x, 0.0, None)
    if not x.any():
        x = np.ones(d)
    x = x / x.sum()

    best = None
    lam = float(w[idx].real)
    for it in range(1, max(2 * d, 50) + 1):
        y = m @ x
        lam = float(x @ y) / float(x @ x)
        res = float(np.max(np.abs(y - lam * x)))
        if x.min() > 0.0 and (best is None or res < best[2]):
            best = (lam, x, res)
            if res <= tol:
                return lam, x, res, it
        x = y / y.sum()
    if best is None:
        return lam, x, float(np.max(np.abs(m @ x - lam * x))), max(2 * d, 50)
    return (*best, max(2 * d, 50))


def reference_dominant_eigenpair(matrix, opts, block=0):
    """`dominant_eigenpair` over the two reference loops."""
    b = np.asarray(matrix, dtype=float)
    d = b.shape[0]
    if d == 1:
        return float(b[0, 0]), np.ones(1)

    shift = float(np.max(np.abs(np.diag(b)))) + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        m = b + shift * np.eye(d)
        tol = opts.eig_tol * max(1.0, float(np.max(np.sum(np.abs(m), axis=1))))
    if not math.isfinite(tol):
        raise NonFiniteResult(f"block {block}: shifted matrix overflows")

    iters = 0
    if d > opts.dense_cutoff:
        lam, x, res, iters = _reference_power_iteration(m, tol, opts.max_iter)
        if res <= tol and x.min() > 0.0:
            return lam - shift, x
    lam, x, res, extra = _reference_dense_perron(m, tol)
    iters += extra
    if res > tol or x.min() <= 0.0:
        raise NoConvergence(iterations=iters, last_residual=res)
    return lam - shift, x


def reference_analyze_all_blocks(cond, opts):
    """`analyze_all_blocks` as the per-block loop it once was: blocks in
    order, each over `reference_dominant_eigenpair`, the first failure raising.
    Returns the columns mu, tolerance, classification and phi, the last one
    block k's eigenvector at phi[bounds[k]:bounds[k + 1]]."""
    mu, scale, phi = np.zeros(cond.h), np.zeros(cond.h), []
    for k in range(cond.h):
        matrix = matrix_of(cond, k)
        with np.errstate(over="ignore"):
            scale[k] = np.max(np.sum(np.abs(matrix), axis=1))
        if not math.isfinite(scale[k]):
            raise NonFiniteResult(f"block {k}: absolute row sum overflows")
        try:
            mu[k], vector = reference_dominant_eigenpair(matrix, opts, k)
        except NoConvergence as exc:
            raise NoConvergence(exc.iterations, exc.last_residual, block_index=k) from None
        phi.append(vector)
    phi = np.concatenate(phi)
    return mu, opts.crit_tol_rel * np.maximum(1.0, scale), classify(mu, scale, opts), phi


# ---------------------------------------------------------------------------
# Reference orderings of `condense`: Kahn's loop with a heap of (key,
# component) tuples, and the couplings and block DAG sorted by `np.lexsort`.
# ---------------------------------------------------------------------------

def reference_topological_order(min_node: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple[list, list]:
    """The components in Kahn's order, always taking the ready one with the
    smallest key, and each one's longest-path depth; the edges come grouped
    by source."""
    c = len(min_node)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=c)))).tolist()
    succ = dst.tolist()
    indeg = np.bincount(dst, minlength=c).tolist()
    key = min_node.tolist()
    heap = [(key[a], a) for a in range(c) if indeg[a] == 0]
    heapq.heapify(heap)
    topo: list[int] = []
    depth = [0] * c
    while heap:
        _, a = heapq.heappop(heap)
        topo.append(a)
        for b in succ[indptr[a]:indptr[a + 1]]:
            if depth[b] <= depth[a]:
                depth[b] = depth[a] + 1
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, (key[b], b))
    if len(topo) != c:
        raise CondensationError("the component graph has a cycle")
    return topo, depth


def lexsort_cross_and_dag(system, cond) -> tuple[tuple, tuple]:
    """`cond.cross` and `cond.dag` rebuilt from the system and the block
    numbering: couplings grouped by (k, l) in order of first appearance, cells
    by `np.lexsort` of (group rank, li, lj); DAG edges by `np.lexsort` of
    (source, target)."""
    rows, cols, vals = system.coo
    k, l = cond.node_to_block[rows], cond.node_to_block[cols]
    local = np.empty(system.n, dtype=np.intp)
    local[cond.permutation] = np.arange(system.n) - np.repeat(cond.bounds[:-1], np.diff(cond.bounds))
    cross = k != l
    codes, first, group = np.unique(l[cross] * cond.h + k[cross], return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(codes))
    order = np.lexsort((local[cols[cross]], local[rows[cross]], rank[group]))
    src, dst = codes // cond.h, codes % cond.h
    by_edge = np.lexsort((dst, src))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=cond.h))))
    return (k[cross][order], rows[cross][order], cols[cross][order], vals[cross][order]), (indptr, dst[by_edge])


# ---------------------------------------------------------------------------
# Reference block-DAG facts: the dense reachability relation and one BFS per
# critical block, against which the linear sweeps of `verdict` are checked.
# ---------------------------------------------------------------------------

def dag_edges(cond) -> list[tuple[int, int]]:
    """The (l, k) edges of the stored block DAG `cond.dag`, in CSR order: by
    source, then target."""
    indptr, succ = cond.dag
    return list(zip(np.repeat(np.arange(cond.h), np.diff(indptr)).tolist(), succ.tolist()))


def dag_csr(h: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """The block DAG over h blocks with the given (l, k) edges, as the
    read-only (indptr, successors) arrays `condense` stores; `dag_edges`
    reads them back."""
    edges = sorted(set(edges))
    src = np.array([l for l, _ in edges], dtype=np.intp)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=h))))
    succ = np.array([k for _, k in edges], dtype=np.intp)
    for a in (indptr, succ):
        a.flags.writeable = False
    return indptr, succ


def upstream_reachability(cond) -> np.ndarray:
    """Boolean h x h relation: reachable[l, k] is True iff a directed path of
    dag edges runs from block l to block k. A block is not upstream of itself."""
    h = cond.h
    succ: list[list[int]] = [[] for _ in range(h)]
    for l, k in dag_edges(cond):
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
    for l, k in dag_edges(cond):
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
    classes = list(spectra.classification)
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
        trivial=np.isin(np.arange(cond.h), list(trivial)),
        free=np.isin(np.arange(cond.h), list(final)),
    )


# ---------------------------------------------------------------------------
# Reference steady-state basis: one sequential sweep over the blocks in
# index order, against which the level-scheduled sweep is checked bitwise.
# ---------------------------------------------------------------------------

def _reference_solve_block(cond, l: int, rhs: np.ndarray) -> np.ndarray:
    """Solve B_l X = rhs column by column (a multi-column LU solve rounds
    differently); a singleton divides by its diagonal. A column that is not
    finite gets an infinite solution, where lu_solve would raise."""
    b = matrix_of(cond, l)
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


def basis_from_vectors(n: int, vectors, free_blocks, free_parameters) -> SteadyStateBasis:
    """A basis holding dense n-vectors as its CSC columns: every entry that
    is not +0.0 is stored, -0.0 and non-finite ones included."""
    vectors = np.array(vectors, dtype=float).reshape(len(vectors), n)
    col, node = np.nonzero((vectors != 0) | np.signbit(vectors))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=len(vectors)))))
    return SteadyStateBasis(n=n, csc=(indptr, node, vectors[col, node]),
                            free_blocks=tuple(free_blocks), free_parameters=tuple(free_parameters))


def nodes_of(cond, k: int) -> np.ndarray:
    """Block k's nodes, ascending: its slice of `cond.permutation`."""
    return cond.permutation[cond.bounds[k]:cond.bounds[k + 1]]


def matrix_of(cond, k: int) -> np.ndarray:
    """Block k's dense matrix, its cells in `cond.cells` written one by one into zeros."""
    d = int(cond.bounds[k + 1] - cond.bounds[k])
    indptr, place, value = cond.cells
    matrix = np.zeros(d * d)
    for at in range(indptr[k], indptr[k + 1]):
        matrix[place[at]] = value[at]
    return matrix.reshape(d, d)


def phi_of(cond, spectra, k: int) -> np.ndarray:
    """Block k's eigenvector: its slice of `spectra.phi`."""
    return spectra.phi[cond.bounds[k]:cond.bounds[k + 1]]


def block_nodes(cond) -> list[tuple[int, ...]]:
    """The nodes of every block as a tuple, in block order."""
    return [tuple(nodes_of(cond, k).tolist()) for k in range(cond.h)]


def cross_entries(cond) -> dict[tuple[int, int], tuple[tuple[int, int, float], ...]]:
    """{(k, l): ((local_row, local_col, value), ...)} view of `cond.cross`,
    in the same order: the dict form the sequential references sum over."""
    pos = {node: p for nodes in block_nodes(cond) for p, node in enumerate(nodes)}
    block_of = cond.node_to_block.tolist()
    groups: dict[tuple[int, int], list] = {}
    for k, i, j, v in zip(*(a.tolist() for a in cond.cross)):
        groups.setdefault((k, block_of[j]), []).append((pos[i], pos[j], v))
    return {key: tuple(cells) for key, cells in groups.items()}


@dataclass(frozen=True, eq=False)
class ReferenceBasis:
    """The reference sweep's result: `vectors` are the read-only columns of
    the dense n x F array it fills, independent of `SteadyStateBasis`."""

    vectors: tuple[np.ndarray, ...]
    free_blocks: tuple[int, ...]
    free_parameters: tuple[str, ...]


def reference_steady_state_basis(
    cond, spectra, report=None, *, force=False, residual_tol=1e-10
) -> ReferenceBasis:
    """The block-by-block sweep: every sub-critical block with a source in
    some cone is solved in index order from `cross_entries`, and the first
    failing block raises. Unlike the sweep it stood for, a non-finite column
    of a multi-node block gets an infinite solution (lu_solve raised a
    ValueError) and the solve runs under `np.errstate` too."""
    classes = list(spectra.classification)
    if report is None:
        report = verdict(cond, spectra)
    if isinstance(report.unstable_reason, SuperCriticalBlock):
        raise SuperCriticalPresent(f"block {report.unstable_reason.block_index} is super-critical")
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

    coupling = cross_entries(cond)
    sources_of: dict[int, list[int]] = {}
    for (k, l) in coupling:
        sources_of.setdefault(k, []).append(l)

    x = np.zeros((len(cond.node_to_block), len(final)), order="F")
    in_cone = [False] * cond.h
    for col, k in enumerate(final):
        x[nodes_of(cond, k), col] = phi_of(cond, spectra, k)
        in_cone[k] = True
    for l in range(cond.h):
        cone_sources = [s for s in sources_of.get(l, ()) if in_cone[s]]
        if classes[l] is not BlockClass.SUB_CRITICAL or not cone_sources:
            continue
        nodes = nodes_of(cond, l)
        rhs = np.zeros((len(nodes), len(final)))
        with np.errstate(over="ignore", invalid="ignore"):
            for src in cone_sources:
                src_nodes = nodes_of(cond, src)
                for li, lj, v in coupling[(l, src)]:
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
            raise NegativeSteadyStateEntry(l, nodes[worst], float(sol[worst, col]))
        sol[sol < 0] = 0.0
        x[nodes[:, None], cols] = sol
        in_cone[l] = True
    overflow = ~np.isfinite(x).all(axis=1)
    if overflow.any():
        node = int(overflow.argmax())
        raise NonFiniteResult(
            f"steady-state entry for node {node} (block {cond.node_to_block[node]}) "
            f"is not finite"
        )
    x.setflags(write=False)
    return ReferenceBasis(tuple(x.T), tuple(final), tuple(f"alpha_{k}" for k in final))


# ---------------------------------------------------------------------------
# Reference analyze payload: the dict the command line once passed to
# json.dumps, against which the streamed report writer is checked bytewise.
# ---------------------------------------------------------------------------

def reference_report_payload(system, cond, spectra, report, opts) -> dict:
    # Every value comes from .tolist(): json rejects numpy scalars.
    nodes, bounds = cond.permutation.tolist(), cond.bounds.tolist()
    labels = [system.node_labels[i] for i in nodes]
    mu, tol = spectra.mu.tolist(), spectra.tolerance.tolist()
    trivial, free = report.trivial.tolist(), report.free.tolist()
    return {
        "version": __version__,
        "tolerances": vars(opts),
        "n": system.n,
        "h": cond.h,
        "verdict": report.verdict.value,
        "unstable_reason": _reason_dict(report.unstable_reason),
        "algebraic_multiplicity_zero": report.algebraic_multiplicity_zero,
        "geometric_multiplicity_zero": report.geometric_multiplicity_zero,
        "blocks": [
            {
                "index": k,
                "size": bounds[k + 1] - bounds[k],
                "nodes": nodes[bounds[k]:bounds[k + 1]],
                "labels": labels[bounds[k]:bounds[k + 1]],
                "mu": mu[k],
                "class": spectra.classification[k].value,
                "criticality_tolerance": tol[k],
                "trivial": trivial[k],
                "free": free[k],
            }
            for k in range(cond.h)
        ],
    }


# ---------------------------------------------------------------------------
# Reference steady-state payload: the dict the command line once passed to
# json.dumps, against which the array-backed JSON writer is checked bytewise.
# ---------------------------------------------------------------------------

def reference_basis_payload(system, basis: SteadyStateBasis, opts, forced: bool) -> dict:
    vectors = []
    for name, k, vec in zip(basis.free_parameters, basis.free_blocks, basis.vectors):
        vectors.append(
            {
                "alpha": name,
                "free_block": k,
                "values": vec.tolist(),
                "residual_inf": nullspace_residual(system, vec),
            }
        )
    payload = {
        "version": __version__,
        "tolerances": vars(opts),
        "n": system.n,
        "labels": list(system.node_labels),
        "vectors": vectors,
    }
    if forced:
        payload["warning"] = (
            "forced nullspace of an unstable system: these are zero-eigenvectors, "
            "not stable equilibria"
        )
    return payload

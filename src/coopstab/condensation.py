"""Strongly connected components, their topological order, and the block
structure they induce on the system matrix.

The dependence graph has an edge j -> i for every off-diagonal entry a_ij.
Blocks are numbered 0..h-1 so that every cross-block entry couples a block l
into a block k with l < k; permuting the node axis accordingly makes the
matrix block lower-triangular. Block matrices are stored dense (SCCs are
assumed small relative to n), as views of one flat buffer; cross-block
couplings are kept sparse. Everything is built from the system's coo arrays.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CondensationError
from .system import CooperativeSystem


@dataclass(frozen=True, eq=False)
class Condensation:
    """Blocks in topological order plus the sparse cross-block structure.

    All arrays are read-only. Block k has the nodes
    permutation[bounds[k]:bounds[k + 1]] and its dense matrix, row-major, in
    matrices[matrix_bounds[k]:matrix_bounds[k + 1]], which `matrix(k)` reads.
    `dag` = (indptr, successors) is the block DAG as CSR sorted by source,
    then target; an edge l -> k, l < k, means some entry couples block l
    into block k. `level[k]` is the length of the longest DAG path into k.
    `cross` holds the couplings as (target block, target node, source node,
    value) arrays, one cell per nonzero cross-block entry, grouped by (k, l)
    in order of first appearance in the input, cells sorted within a group.
    """

    h: int
    bounds: np.ndarray
    matrices: np.ndarray
    matrix_bounds: np.ndarray
    dag: tuple[np.ndarray, np.ndarray]
    level: np.ndarray
    node_to_block: np.ndarray
    permutation: np.ndarray
    cross: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def matrix(self, k, d: int | None = None) -> np.ndarray:
        """Block k's dense matrix (d x d), or for an array k of blocks of d nodes each, their
        stack (len(k) x d x d); a copy gathered from `matrices`."""
        if d is None:
            k = range(self.h)[k]  # an IndexError outside [-h, h), as for a sequence
            d = int(self.bounds[k + 1] - self.bounds[k])
        return self.matrices[self.matrix_bounds[k, None] + np.arange(d * d)].reshape(*np.shape(k), d, d)


def _tarjan(n: int, indptr: np.ndarray, indices: np.ndarray) -> list[int]:
    """Iterative Tarjan SCC over an out-neighbour CSR; returns the component
    of every node. Explicit stack, no recursion, so graphs with very long
    paths (n ~ 1e6) do not overflow the interpreter stack."""
    ptr, nbrs = indptr.tolist(), indices.tolist()
    order = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    comp_of = [-1] * n
    comps = 0
    counter = 0

    for root in range(n):
        if order[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, -1)]
        while work:
            v, e = work[-1]
            if e < 0:
                order[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
                e = ptr[v]
            descended = False
            end = ptr[v + 1]
            while e < end:
                w = nbrs[e]
                e += 1
                if order[w] == -1:
                    work[-1] = (v, e)
                    work.append((w, -1))
                    descended = True
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            if descended:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == order[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp_of[w] = comps
                    if w == v:
                        break
                comps += 1
    return comp_of


def _csr(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Out-neighbour CSR of the edges src -> dst, neighbours ascending."""
    order = np.lexsort((dst, src))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return indptr, dst[order]


def _topological_order(min_node: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple[list, list]:
    """Kahn's algorithm on the component DAG, always taking the ready
    component with the smallest node; also each component's longest-path depth."""
    c = len(min_node)
    indptr, succ = (a.tolist() for a in _csr(src, dst, c))
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


def condense(system: CooperativeSystem) -> Condensation:
    """Decompose the dependence graph into SCCs in a deterministic topological
    order (ties broken by smallest original node index in the block)."""
    n = system.n
    rows, cols, vals = system.coo
    off = rows != cols
    comp_of = np.array(_tarjan(n, *_csr(cols[off], rows[off], n)), dtype=np.intp)
    _, min_node = np.unique(comp_of, return_index=True)
    c = len(min_node)

    # Component DAG edges, once each, then blocks numbered in topological order.
    ca, cb = comp_of[cols[off]], comp_of[rows[off]]
    between = ca != cb
    codes = np.unique(ca[between] * c + cb[between])
    topo, depth = _topological_order(min_node, codes // c, codes % c)
    new_of = np.empty(c, dtype=np.intp)
    new_of[topo] = np.arange(c)
    node_block = new_of[comp_of]

    # Nodes grouped by block, ascending within each; local position in block.
    permutation = np.argsort(node_block, kind="stable")
    size = np.bincount(node_block, minlength=c)
    bounds = np.concatenate(([0], np.cumsum(size)))
    local = np.empty(n, dtype=np.intp)
    local[permutation] = np.arange(n) - np.repeat(bounds[:-1], size)

    # All block matrices live in one flat buffer, block k at matrix_bounds[k].
    k, l = node_block[rows], node_block[cols]
    li, lj = local[rows], local[cols]
    inner = k == l
    matrix_bounds = np.concatenate(([0], np.cumsum(size * size)))
    matrices = np.zeros(matrix_bounds[-1])
    matrices[matrix_bounds[k[inner]] + li[inner] * size[k[inner]] + lj[inner]] = vals[inner]

    # Couplings grouped by (k, l) in order of first appearance, cells sorted.
    cross = ~inner
    k, l, li, lj = k[cross], l[cross], li[cross], lj[cross]
    if np.any(l >= k):
        raise CondensationError("a coupling runs against the topological order")
    keys, first, group = np.unique(k * c + l, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(keys))
    order = np.lexsort((lj, li, rank[group]))
    arrays = (k[order], rows[cross][order], cols[cross][order], vals[cross][order])
    dag, level = _csr(keys % c, keys // c, c), np.array(depth)[topo]
    for a in (*arrays, *dag, level, node_block, permutation, bounds, matrices, matrix_bounds):
        a.flags.writeable = False

    return Condensation(h=c, bounds=bounds, matrices=matrices, matrix_bounds=matrix_bounds, dag=dag,
                        level=level, node_to_block=node_block, permutation=permutation, cross=arrays)


_CLASS_COLOR = {
    "critical": "blue",
    "sub-critical": "grey",
    "super-critical": "red",
}


def to_dot(
    cond: Condensation,
    spectra=None,
    trivial: Sequence[bool] | None = None,
    verdict_name: str | None = None,
) -> str:
    """Render the condensation as a DOT digraph, one node per block.

    With spectral data (a `Spectra`) attached, nodes are labeled
    ``B<k> (size, mu, class)`` and colored grey / blue / red for sub-critical /
    critical / super-critical; blocks flagged in `trivial` get a dashed outline.
    """
    lines = ["digraph condensation {"]
    if verdict_name is not None:
        lines.append(f"  // verdict: {verdict_name}")
    lines.append("  rankdir=LR;")
    lines.append("  node [shape=ellipse];")
    for k, size in enumerate(np.diff(cond.bounds).tolist()):
        if spectra is None:
            attrs = [f'label="B{k} (size={size})"']
        else:
            cls = spectra.classification[k].value
            label = f"B{k} (size={size}, mu={spectra.mu[k]:.6g}, {cls})"
            style = '"filled,dashed"' if trivial is not None and trivial[k] else "filled"
            attrs = [f'label="{label}"', f"style={style}", f"fillcolor={_CLASS_COLOR[cls]}"]
        lines.append(f"  B{k} [{', '.join(attrs)}];")
    indptr, succ = cond.dag
    for l, k in zip(np.repeat(np.arange(cond.h), np.diff(indptr)).tolist(), succ.tolist()):
        lines.append(f"  B{l} -> B{k};")
    lines.append("}")
    return "\n".join(lines) + "\n"

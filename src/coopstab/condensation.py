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
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import BadBlockOrder, CondensationError
from .system import CooperativeSystem


@dataclass(frozen=True, eq=False)
class Block:
    """One SCC: original node ids (ascending) and the dense induced submatrix."""

    index: int
    nodes: tuple[int, ...]
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, eq=False)
class Coupling:
    """Cross-block submatrix: rows over the target block, columns over the source."""

    target_block: int
    source_block: int
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class Condensation:
    """Blocks in topological order plus the sparse cross-block structure.

    dag_edges holds (l, k) pairs, l < k, meaning at least one matrix entry
    couples block l into block k. `cross` is the stored form of the couplings:
    read-only (target block, target node, source node, value) arrays, one
    cell per nonzero cross-block entry, grouped by (k, l) in order of first
    appearance in the input, cells sorted within a group.
    """

    h: int
    blocks: tuple[Block, ...]
    dag_edges: frozenset[tuple[int, int]]
    node_to_block: tuple[int, ...]
    permutation: tuple[int, ...]
    cross: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @cached_property
    def cross_entries(self) -> Mapping[tuple[int, int], tuple[tuple[int, int, float], ...]]:
        """Read-only {(k, l): ((local_row, local_col, value), ...)} view of
        `cross`, in the same order."""
        pos = {node: p for b in self.blocks for p, node in enumerate(b.nodes)}
        groups: dict[tuple[int, int], list] = {}
        for k, i, j, v in zip(*(a.tolist() for a in self.cross)):
            groups.setdefault((k, self.node_to_block[j]), []).append((pos[i], pos[j], v))
        return MappingProxyType({key: tuple(cells) for key, cells in groups.items()})


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


def _topological_order(min_node: np.ndarray, src: np.ndarray, dst: np.ndarray) -> list[int]:
    """Kahn's algorithm on the component DAG, always taking the ready
    component with the smallest node."""
    c = len(min_node)
    indptr, succ = (a.tolist() for a in _csr(src, dst, c))
    indeg = np.bincount(dst, minlength=c).tolist()
    key = min_node.tolist()
    heap = [(key[a], a) for a in range(c) if indeg[a] == 0]
    heapq.heapify(heap)
    topo: list[int] = []
    while heap:
        _, a = heapq.heappop(heap)
        topo.append(a)
        for b in succ[indptr[a]:indptr[a + 1]]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, (key[b], b))
    if len(topo) != c:
        raise CondensationError("the component graph has a cycle")
    return topo


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
    new_of = np.empty(c, dtype=np.intp)
    new_of[_topological_order(min_node, codes // c, codes % c)] = np.arange(c)
    node_block = new_of[comp_of]

    # Nodes grouped by block, ascending within each; local position in block.
    permutation = np.argsort(node_block, kind="stable")
    size = np.bincount(node_block, minlength=c)
    start = np.cumsum(size) - size
    local = np.empty(n, dtype=np.intp)
    local[permutation] = np.arange(n) - np.repeat(start, size)

    # All block matrices live in one flat buffer, block k at offset[k].
    k, l = node_block[rows], node_block[cols]
    li, lj = local[rows], local[cols]
    inner = k == l
    offset = np.cumsum(size * size) - size * size
    buf = np.zeros(int((size * size).sum()))
    buf[offset[k[inner]] + li[inner] * size[k[inner]] + lj[inner]] = vals[inner]
    buf.flags.writeable = False
    nodes = permutation.tolist()
    bounds = zip(start.tolist(), size.tolist(), offset.tolist())
    blocks = tuple(
        Block(index=b, nodes=tuple(nodes[s:s + d]), matrix=buf[o:o + d * d].reshape(d, d))
        for b, (s, d, o) in enumerate(bounds)
    )

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
    for a in arrays:
        a.flags.writeable = False

    return Condensation(
        h=c,
        blocks=blocks,
        dag_edges=frozenset(zip((keys % c).tolist(), (keys // c).tolist())),
        node_to_block=tuple(node_block.tolist()),
        permutation=tuple(nodes),
        cross=arrays,
    )


def extract_coupling(cond: Condensation, k: int, l: int) -> Coupling:
    """Dense coupling matrix from block l into block k (zero when no edge)."""
    if not (0 <= l < k < cond.h):
        raise BadBlockOrder(f"need 0 <= l < k < h, got l={l}, k={k}, h={cond.h}")
    mat = np.zeros((cond.blocks[k].size, cond.blocks[l].size))
    for li, lj, v in cond.cross_entries.get((k, l), ()):
        mat[li, lj] = v
    mat.setflags(write=False)
    return Coupling(target_block=k, source_block=l, matrix=mat)


_CLASS_COLOR = {
    "critical": "blue",
    "sub-critical": "grey",
    "super-critical": "red",
}


def to_dot(
    cond: Condensation,
    spectra: Sequence | None = None,
    roles: Sequence | None = None,
    verdict_name: str | None = None,
) -> str:
    """Render the condensation as a DOT digraph, one node per block.

    With spectral data attached, nodes are labeled ``B<k> (size, mu, class)``
    and colored grey / blue / red for sub-critical / critical / super-critical;
    trivial blocks get a dashed outline.
    """
    lines = ["digraph condensation {"]
    if verdict_name is not None:
        lines.append(f"  // verdict: {verdict_name}")
    lines.append("  rankdir=LR;")
    lines.append("  node [shape=ellipse];")
    for k, block in enumerate(cond.blocks):
        if spectra is not None:
            spec = spectra[k]
            cls = spec.classification.value
            label = f"B{k} (size={block.size}, mu={spec.mu:.6g}, {cls})"
            attrs = [f'label="{label}"', "style=filled", f"fillcolor={_CLASS_COLOR[cls]}"]
            if roles is not None and roles[k].is_trivial:
                attrs = [f'label="{label}"', 'style="filled,dashed"', f"fillcolor={_CLASS_COLOR[cls]}"]
        else:
            attrs = [f'label="B{k} (size={block.size})"']
        lines.append(f"  B{k} [{', '.join(attrs)}];")
    for l, k in sorted(cond.dag_edges):
        lines.append(f"  B{l} -> B{k};")
    lines.append("}")
    return "\n".join(lines) + "\n"

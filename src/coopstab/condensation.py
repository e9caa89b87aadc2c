"""Strongly connected components, their topological order, and the block
structure they induce on the system matrix.

The dependence graph has an edge j -> i for every off-diagonal entry a_ij.
Blocks are numbered 0..h-1 so that every cross-block entry couples a block l
into a block k with l < k; permuting the node axis accordingly makes the
matrix block lower-triangular. Block matrices are stored dense (SCCs are
assumed small relative to n); cross-block couplings are kept sparse.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import BadBlockOrder
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
    couples block l into block k. cross_entries maps (k, l) to the nonzero
    coupling cells as (local_row, local_col, value) triples.
    """

    h: int
    blocks: tuple[Block, ...]
    dag_edges: frozenset[tuple[int, int]]
    node_to_block: tuple[int, ...]
    permutation: tuple[int, ...]
    cross_entries: Mapping[tuple[int, int], tuple[tuple[int, int, float], ...]]


def _tarjan(n: int, adj: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Iterative Tarjan SCC. Explicit stack, no recursion, so graphs with very
    long paths (n ~ 1e6) do not overflow the interpreter stack."""
    order = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    comp_of = [-1] * n
    comps: list[list[int]] = []
    counter = 0

    for root in range(n):
        if order[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, ci = work[-1]
            if ci == 0:
                order[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            descended = False
            nbrs = adj[v]
            while ci < len(nbrs):
                w = nbrs[ci]
                ci += 1
                if order[w] == -1:
                    work[-1] = (v, ci)
                    work.append((w, 0))
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
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps, comp_of


def condense(system: CooperativeSystem) -> Condensation:
    """Decompose the dependence graph into SCCs in a deterministic topological
    order (ties broken by smallest original node index in the block)."""
    n = system.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in system.entries:
        if i != j:
            adj[j].append(i)
    for lst in adj:
        lst.sort()

    comps, comp_of = _tarjan(n, adj)
    c = len(comps)
    min_node = [min(comp) for comp in comps]

    succ: list[set[int]] = [set() for _ in range(c)]
    for i, j in system.entries:
        if i != j and comp_of[j] != comp_of[i]:
            succ[comp_of[j]].add(comp_of[i])

    indeg = [0] * c
    for a in range(c):
        for b in succ[a]:
            indeg[b] += 1
    heap = [(min_node[a], a) for a in range(c) if indeg[a] == 0]
    heapq.heapify(heap)
    topo: list[int] = []
    while heap:
        _, a = heapq.heappop(heap)
        topo.append(a)
        for b in succ[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, (min_node[b], b))
    assert len(topo) == c, "condensation of a directed graph must be acyclic"

    new_of = [0] * c
    for k, a in enumerate(topo):
        new_of[a] = k

    block_nodes = [sorted(comps[a]) for a in topo]
    local_pos = [0] * n
    for nodes in block_nodes:
        for pos, node in enumerate(nodes):
            local_pos[node] = pos

    mats = [np.zeros((len(nodes), len(nodes))) for nodes in block_nodes]
    cross: dict[tuple[int, int], list[tuple[int, int, float]]] = {}
    for (i, j), v in system.entries.items():
        k = new_of[comp_of[i]]
        l = new_of[comp_of[j]]
        if k == l:
            mats[k][local_pos[i], local_pos[j]] = v
        else:
            assert l < k, "topological order violated"
            cross.setdefault((k, l), []).append((local_pos[i], local_pos[j], v))

    blocks = []
    for k, nodes in enumerate(block_nodes):
        mats[k].setflags(write=False)
        blocks.append(Block(index=k, nodes=tuple(nodes), matrix=mats[k]))

    permutation = tuple(node for nodes in block_nodes for node in nodes)
    node_to_block = tuple(new_of[comp_of[i]] for i in range(n))
    cross_frozen = MappingProxyType(
        {key: tuple(sorted(cells)) for key, cells in cross.items()}
    )
    dag_edges = frozenset((l, k) for (k, l) in cross_frozen)

    return Condensation(
        h=c,
        blocks=tuple(blocks),
        dag_edges=dag_edges,
        node_to_block=node_to_block,
        permutation=permutation,
        cross_entries=cross_frozen,
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

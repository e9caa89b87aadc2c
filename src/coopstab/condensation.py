"""Strongly connected components, their topological order, and the block
structure they induce on the system matrix.

The dependence graph has an edge j -> i for every off-diagonal entry a_ij.
Blocks are numbered 0..h-1 so that every cross-block entry couples a block l
into a block k with l < k; permuting the node axis accordingly makes the
matrix block lower-triangular. The entries within each block and the
cross-block couplings are both kept sparse; a block's dense matrix is built
from its cells only when asked for. Everything comes from the system's coo arrays.
The components are found in whole-array steps where that pays: a peel of the
acyclic part, then colouring passes on the cycle-heavy core left, with an
iterative Tarjan search only on what neither settles (see `_components`).
"""
from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from .errors import CondensationError
from .system import CooperativeSystem, Record


class Condensation(Record):
    """Blocks in topological order plus the sparse cross-block structure.

    All arrays are read-only. Block k has the d nodes permutation[bounds[k]:bounds[k + 1]].
    Its entries are kept sparse in `cells` = (indptr, place, value), in input order at
    value[indptr[k]:indptr[k + 1]], each at place = li * d + lj of its row-major d x d
    matrix (local row li, local column lj); `matrix(k)` scatters them.
    `dag` = (indptr, successors) is the block DAG as CSR sorted by source,
    then target; an edge l -> k, l < k, means some entry couples block l
    into block k. `level[k]` is the length of the longest DAG path into k.
    `cross` holds the couplings as (target block, target node, source node,
    value) arrays, one cell per nonzero cross-block entry, grouped by (k, l)
    in order of first appearance in the input, cells sorted within a group.
    """

    def __init__(self, h: int, bounds: np.ndarray, cells: tuple, dag: tuple, level: np.ndarray,
                 node_to_block: np.ndarray, permutation: np.ndarray, cross: tuple):
        vars(self).update(h=h, bounds=bounds, cells=cells, dag=dag, level=level, node_to_block=node_to_block,
                          permutation=permutation, cross=cross)

    def matrix(self, k, d: int | None = None) -> np.ndarray:
        """Block k's dense matrix (d x d), or for an array k of blocks of d nodes each, their
        stack (len(k) x d x d); a new array, scattered from `cells` into zeros."""
        if d is None:
            k = range(self.h)[k]  # an IndexError outside [-h, h), as for a sequence
            d = int(self.bounds[k + 1] - self.bounds[k])
        ks, (indptr, place, value) = np.atleast_1d(k), self.cells
        at, of = _ranges(indptr[ks], indptr[ks + 1] - indptr[ks])
        stack = np.zeros((len(ks), d * d))
        stack[of, place[at]] = value[at]
        return stack.reshape(*np.shape(k), d, d)


def _tarjan(n: int, indptr: np.ndarray, indices: np.ndarray) -> list[int]:
    """Iterative Tarjan SCC over an out-neighbour CSR; returns the component
    of every node. Explicit stack, no recursion, so graphs with very long
    paths (n ~ 1e6) do not overflow the interpreter stack. A visited node is
    on Tarjan's stack until its component is set, so no flag marks it, and
    `pos` keeps each node's next edge, so the call stack holds bare nodes."""
    ptr, nbrs = indptr.tolist(), indices.tolist()
    pos = ptr[:-1]
    order = [-1] * n
    low = [0] * n
    comp_of = [-1] * n
    stack: list[int] = []
    comps = counter = 0

    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        call = [root]
        while call:
            v = call[-1]
            e, end = pos[v], ptr[v + 1]
            while e < end:
                w = nbrs[e]
                e += 1
                if order[w] < 0:
                    pos[v] = e
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    call.append(w)
                    break
                if comp_of[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                call.pop()
                if call and low[v] < low[call[-1]]:
                    low[call[-1]] = low[v]
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        comp_of[w] = comps
                        if w == v:
                            break
                    comps += 1
    return comp_of


# The peel stops after a round that peels fewer than max(_PEEL_MIN, live // _PEEL_DIVISOR) of
# its live nodes: a chain loses only its two ends per round, and a core only its last fringe.
_PEEL_MIN = 32
_PEEL_DIVISOR = 8
# Colouring runs on a core of at least _COLOUR_MIN_CORE nodes. It leaves the nodes still live to
# Tarjan when a sweep of a pass has not settled in _COLOUR_ROUNDS rounds (a long cycle takes one
# round per node), or after a pass that labels fewer than live // _COLOUR_DIVISOR of its nodes.
_COLOUR_MIN_CORE = 256
_COLOUR_ROUNDS = 12
_COLOUR_DIVISOR = 8


def _colour(smallest: np.ndarray, core: np.ndarray, live: int, src: np.ndarray, dst: np.ndarray):
    """Colouring passes (Orzan 2004; Slota, Rajamanickam & Madduri 2014) over the `live`
    nodes in `core` and the edges src -> dst among them. A pass spreads the smallest node
    id backward along the edges until no colour changes, so each node's colour is its
    smallest descendant. A node whose colour is its own id is then the smallest node of its
    SCC, and that SCC is the nodes of its colour that it reaches, which a forward sweep along
    the edges inside one colour finds. The pass writes those SCCs into `smallest` and drops
    them from `core`; the count and the edges left are returned. Spreading the smallest id
    backward, rather than the largest forward, names each SCC by its smallest node directly,
    and on ids that grow along the edges, the usual numbering from upstream, a colour moves
    only where an edge runs back."""
    while live >= _COLOUR_MIN_CORE:
        colour = smallest.copy()  # a live node's entry is still its own id
        for _ in range(_COLOUR_ROUNDS):
            cs, cd = colour[src], colour[dst]
            at = np.flatnonzero(cd < cs)
            if not at.size:
                break
            np.minimum.at(colour, src[at], cd[at])
        else:
            break
        inside = cs == cd
        s, d = src[inside], dst[inside]
        done = core & (colour == smallest)
        for _ in range(_COLOUR_ROUNDS):
            at = d[done[s] > done[d]]
            if not at.size:
                break
            done[at] = True
        else:
            break
        smallest[done] = colour[done]
        core &= ~done
        keep = core[src] & core[dst]
        src, dst = src[keep], dst[keep]
        labelled = int(np.count_nonzero(done))
        live -= labelled
        if labelled < (live + labelled) // _COLOUR_DIVISOR:
            break
    return live, src, dst


def _components(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[int, np.ndarray]:
    """The number of SCCs over the edges src -> dst, and every node's SCC, numbered
    by smallest node, in three steps. A node with no live in-edge or no live out-edge
    lies on no cycle, so it is a singleton: such nodes are peeled in rounds of array
    steps. Colouring passes (`_colour`) then label the SCCs of the core left, and
    Tarjan runs only on the nodes that colouring leaves."""
    core, live = np.ones(n, dtype=bool), n
    while live:
        has_out = np.zeros(n, dtype=bool)
        has_out[src] = True
        core = np.zeros(n, dtype=bool)
        core[dst] = True
        core &= has_out
        both = core[src] & core[dst]
        src, dst = src[both], dst[both]
        live, before = int(np.count_nonzero(core)), live
        if before - live < max(_PEEL_MIN, before // _PEEL_DIVISOR):
            break
    smallest = np.arange(n)
    live, src, dst = _colour(smallest, core, live, src, dst)
    if live:
        nodes, at = np.flatnonzero(core), np.cumsum(core) - 1  # at: each core node's index in nodes
        src, dst = at[src], at[dst]
        comp = np.array(_tarjan(live, *_csr(src, dst, live, np.argsort(src))), dtype=np.intp)
        least = np.full(live, n)
        np.minimum.at(least, comp, nodes)
        smallest[nodes] = least[comp]
    root = smallest == np.arange(n)
    return int(np.count_nonzero(root)), (np.cumsum(root) - 1)[smallest]


def _csr(src: np.ndarray, dst: np.ndarray, n: int, order=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Out-neighbour CSR of the edges src -> dst taken in `order`, which groups them by source."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return indptr, dst[order]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges [starts[i], starts[i] + counts[i]) in turn, and the i of each item."""
    of = np.repeat(np.arange(len(counts)), counts)
    return np.arange(len(of)) + (starts - np.cumsum(counts) + counts)[of], of


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable") for non-negative integer keys, taken in the smallest
    unsigned type that holds them: NumPy radix-sorts keys of up to 16 bits."""
    return np.argsort(keys.astype(np.min_scalar_type(keys.max(initial=0))), kind="stable")


def _topological_order(c: int, src: np.ndarray, dst: np.ndarray) -> tuple[list, list]:
    """Kahn's algorithm on the DAG of components 0..c-1, always taking the ready
    component with the smallest number; also each component's longest-path depth.
    The edges come grouped by source, in any order within it."""
    indptr, succ = (a.tolist() for a in _csr(src, dst, c))
    indeg = np.bincount(dst, minlength=c)
    heap = np.flatnonzero(indeg == 0).tolist()  # ascending, so already a heap
    indeg = indeg.tolist()
    push, pop = heapq.heappush, heapq.heappop
    topo: list[int] = []
    depth = [0] * c
    while heap:
        a = pop(heap)
        topo.append(a)
        d = depth[a] + 1
        for b in succ[indptr[a]:indptr[a + 1]]:
            if depth[b] < d:
                depth[b] = d
            indeg[b] -= 1
            if indeg[b] == 0:
                push(heap, b)
    if len(topo) != c:
        raise CondensationError("the component graph has a cycle")
    return topo, depth


def condense(system: CooperativeSystem) -> Condensation:
    """Decompose the dependence graph into SCCs in a deterministic topological
    order (ties broken by smallest original node index in the block)."""
    n = system.n
    rows, cols, vals = system.coo
    off = rows != cols
    c, comp_of = _components(n, cols[off], rows[off])  # numbered by smallest node, the order Kahn's heap keeps

    # The component DAG's edges, deduplicated once and so sorted by source: they give the
    # topological numbering of the blocks, the grouping of the couplings and the block DAG.
    ca, cb = comp_of[cols], comp_of[rows]
    cross = ca != cb
    # This key and the sort keys below are below n * n: they fit int64 as n <= system.MAX_NODES.
    codes, first, group = np.unique(ca[cross] * c + cb[cross], return_index=True, return_inverse=True)
    topo, depth = _topological_order(c, codes // c, codes % c)
    new_of = np.empty(c, dtype=np.intp)
    new_of[topo] = np.arange(c)
    node_block = new_of[comp_of]

    # Nodes grouped by block, ascending within each (a unique key, so any sort); local position in block.
    permutation = np.argsort(node_block * n + np.arange(n))
    size = np.bincount(node_block, minlength=c)
    bounds = np.concatenate(([0], np.cumsum(size)))
    local = np.empty(n, dtype=np.intp)
    local[permutation] = np.arange(n) - np.repeat(bounds[:-1], size)

    # Each block's own entries as cells, grouped by block in input order, at li * d + lj.
    k, l = node_block[rows], node_block[cols]
    li, lj = local[rows], local[cols]
    inner = ~cross
    own = k[inner]
    by_block = _stable_order(own)
    cells = (*_csr(own, li[inner] * size[own] + lj[inner], c, by_block), vals[inner][by_block])

    # Couplings grouped by (k, l) in order of first appearance, cells sorted: each group
    # (l -> k) owns size[k] * size[l] keys from its offset on, one per cell (li, lj).
    k, l, li, lj = k[cross], l[cross], li[cross], lj[cross]
    if np.any(l >= k):
        raise CondensationError("a coupling runs against the topological order")
    src, dst = new_of[codes // c], new_of[codes % c]
    by_first = np.argsort(first)
    span = (size[src] * size[dst])[by_first]
    offset = np.empty_like(span)
    offset[by_first] = np.cumsum(span) - span
    order = np.argsort(offset[group] + li * size[l] + lj)  # unique keys: any sort will do
    del inner, by_first, span, offset  # not held to the end, where the memory of condense peaks
    arrays = (k[order], rows[cross][order], cols[cross][order], vals[cross][order])
    dag, level = _csr(src, dst, c, np.argsort(src * c + dst)), np.array(depth)[topo]
    for a in (*arrays, *cells, *dag, level, node_block, permutation, bounds):
        a.flags.writeable = False

    return Condensation(h=c, bounds=bounds, cells=cells, dag=dag, level=level, node_to_block=node_block,
                        permutation=permutation, cross=arrays)


_CLASS_COLOR = {
    "critical": "blue",
    "sub-critical": "grey",
    "super-critical": "red",
}


def to_dot(cond: Condensation, spectra, trivial: Sequence[bool], verdict_name: str) -> str:
    """Render the condensation as a DOT digraph, one node per block, with the
    verdict as a comment. From the `Spectra`, nodes are labeled
    ``B<k> (size, mu, class)`` and colored grey / blue / red for sub-critical /
    critical / super-critical; blocks flagged in `trivial` get a dashed outline.
    """
    lines = ["digraph condensation {", f"  // verdict: {verdict_name}", "  rankdir=LR;",
             "  node [shape=ellipse];"]
    for k, size in enumerate(np.diff(cond.bounds).tolist()):
        cls = spectra.classification[k].value
        label = f"B{k} (size={size}, mu={spectra.mu[k]:.6g}, {cls})"
        style = '"filled,dashed"' if trivial[k] else "filled"
        lines.append(f'  B{k} [label="{label}", style={style}, fillcolor={_CLASS_COLOR[cls]}];')
    indptr, succ = cond.dag
    for l, k in zip(np.repeat(np.arange(cond.h), np.diff(indptr)).tolist(), succ.tolist()):
        lines.append(f"  B{l} -> B{k};")
    lines.append("}")
    return "\n".join(lines) + "\n"

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (bench_workloads, bfs_reachable, block_nodes, dag_edges, entry_dict, lexsort_cross_and_dag,
                      matrix_of, nodes_of, reference_topological_order, strongly_connected, upstream_reachability)
from coopstab import (
    CondensationError,
    condense,
    from_dense,
    full_analysis,
    load_matrix_market,
    to_dot,
    validate,
)
from coopstab import cli, condensation
from coopstab.condensation import _topological_order
from oracles import BadBlockOrder, extract_coupling, random_metzler

FIXTURES = Path(__file__).parent / "fixtures"


def test_two_singletons_one_edge():
    cond = condense(from_dense([[0, 0], [1, 0]]))
    assert cond.h == 2
    assert block_nodes(cond) == [(0,), (1,)]
    assert dag_edges(cond) == [(0, 1)]
    assert cond.node_to_block.tolist() == [0, 1]


def test_two_cycle_is_one_block():
    cond = condense(from_dense([[0, 1], [1, 0]]))
    assert cond.h == 1
    assert block_nodes(cond) == [(0, 1)]
    np.testing.assert_array_equal(cond.matrix(0), [[0, 1], [1, 0]])
    assert dag_edges(cond) == []


def test_chain_into_two_cycle():
    # 0 -> 1 plus the cycle 1 <-> 2
    s = validate({(1, 0): 1.0, (2, 1): 1.0, (1, 2): 1.0}, 3)
    cond = condense(s)
    assert cond.h == 2
    assert block_nodes(cond) == [(0,), (1, 2)]
    assert dag_edges(cond) == [(0, 1)]


def test_matrix_is_scattered_from_the_stored_cells():
    cond = condense(validate({(1, 0): 1.0, (2, 1): 1.0, (1, 2): 1.0, (2, 2): -3.0, (0, 0): -1.0}, 3))
    assert cond.bounds.tolist() == [0, 1, 3]
    # block 0 holds (0, 0); block 1 holds (2, 1), (1, 2) and (2, 2) at li * 2 + lj, in input order
    assert [a.tolist() for a in cond.cells] == [[0, 1, 4], [0, 2, 1, 3], [-1.0, 1.0, 1.0, -3.0]]
    assert cond.permutation[cond.bounds[1]:cond.bounds[2]].tolist() == [1, 2]
    np.testing.assert_array_equal(cond.matrix(1), [[0, 1], [1, -3]])
    np.testing.assert_array_equal(cond.matrix(0), [[-1]])
    matrix = cond.matrix(1)
    assert not any(np.shares_memory(matrix, a) for a in cond.cells)
    matrix[0, 0] = 7.0  # a new array: the stored cells stay as they are
    np.testing.assert_array_equal(cond.matrix(1), [[0, 1], [1, -3]])
    np.testing.assert_array_equal(cond.matrix(-1), [[0, 1], [1, -3]])  # sequence indexing
    for k in (2, -3):
        with pytest.raises(IndexError):
            cond.matrix(k)
    # a stack of blocks of one size, one per index, and an empty one
    np.testing.assert_array_equal(cond.matrix(np.array([1, 1]), 2), [[[0, 1], [1, -3]]] * 2)
    np.testing.assert_array_equal(cond.matrix(np.array([0]), 1), [[[-1]]])
    assert cond.matrix(np.array([], dtype=np.intp), 2).shape == (0, 2, 2)


def test_reachability_of_chain():
    s = validate({(1, 0): 1.0, (2, 1): 1.0}, 3)
    reach = upstream_reachability(condense(s))
    expected = {(0, 1), (0, 2), (1, 2)}
    assert {(l, k) for l in range(3) for k in range(3) if reach[l, k]} == expected


def test_reachability_isolated_blocks():
    reach = upstream_reachability(condense(from_dense(np.zeros((2, 2)))))
    assert not reach.any()


def test_coupling_single_edge():
    cond = condense(from_dense([[0, 0], [1, 0]]))
    c = extract_coupling(cond, 1, 0)
    np.testing.assert_array_equal(c, [[1.0]])
    assert not c.flags.writeable


def test_coupling_absent_edge_is_zero():
    cond = condense(from_dense(np.zeros((2, 2))))
    np.testing.assert_array_equal(extract_coupling(cond, 1, 0), [[0.0]])
    assert (0, 1) not in dag_edges(cond)


def test_coupling_into_larger_block():
    s = validate({(1, 0): 1.0, (2, 1): 1.0, (1, 2): 1.0}, 3)
    cond = condense(s)
    np.testing.assert_array_equal(extract_coupling(cond, 1, 0), [[1.0], [0.0]])


def test_coupling_order_enforced():
    cond = condense(from_dense([[0, 0], [1, 0]]))
    with pytest.raises(BadBlockOrder):
        extract_coupling(cond, 0, 1)
    with pytest.raises(BadBlockOrder):
        extract_coupling(cond, 1, 1)


# ---------------------------------------------------------------------------
# An 8-block layered DAG with mixed SCC sizes; the condensation must recover
# the blocks and an ordering where every edge points to a larger index.
# ---------------------------------------------------------------------------

def _eight_block_fixture():
    entries = {}

    def cycle(nodes, w=1.0):
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            if a != b:
                entries[(b, a)] = w  # link a -> b

    groups = [
        (0, 1, 2),          # B0
        (3,),               # B1
        (4, 5),             # B2
        (6,),               # B3
        (7, 8, 9, 10),      # B4
        (11,),              # B5
        (12, 13),           # B6
        (14,),              # B7
    ]
    for g in groups:
        cycle(list(g))
    links = [(0, 4), (3, 4), (5, 7), (6, 7), (8, 11), (9, 12), (11, 14), (13, 14)]
    for src, dst in links:
        entries[(dst, src)] = 1.0
    return validate(entries, 15), groups


def test_eight_block_fixture_structure():
    system, groups = _eight_block_fixture()
    cond = condense(system)
    assert cond.h == 8
    assert block_nodes(cond) == [tuple(g) for g in groups]
    assert dag_edges(cond) == [
        (0, 2), (1, 2), (2, 4), (3, 4), (4, 5), (4, 6), (5, 7), (6, 7)
    ]
    assert cond.level.tolist() == [0, 0, 1, 0, 2, 3, 3, 4]
    reach = upstream_reachability(cond)
    got = {(l, k) for l in range(8) for k in range(8) if reach[l, k]}
    assert got == {
        (0, 2), (0, 4), (0, 5), (0, 6), (0, 7),
        (1, 2), (1, 4), (1, 5), (1, 6), (1, 7),
        (2, 4), (2, 5), (2, 6), (2, 7),
        (3, 4), (3, 5), (3, 6), (3, 7),
        (4, 5), (4, 6), (4, 7),
        (5, 7), (6, 7),
    }
    # the ordering property: all reachability points forward
    assert all(l < k for (l, k) in got)


def test_dot_export_shapes_and_colors():
    system, _ = _eight_block_fixture()
    cond, spectra, report = full_analysis(system)
    dot = to_dot(cond, spectra, report.trivial, verdict_name=report.verdict.value)
    assert dot.count("->") == len(dag_edges(cond))
    assert dot.count("[label=") == 8
    assert "fillcolor=blue" in dot  # zero-diagonal cycles are critical
    assert "// verdict:" in dot


# ---------------------------------------------------------------------------
# Structural invariants on random systems
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(25))
def test_condensation_invariants_random(seed):
    n = 2 + seed % 11
    system = random_metzler(n, density=0.25, seed=seed)
    cond = condense(system)

    # partition
    all_nodes = sorted(node for k in range(cond.h) for node in nodes_of(cond, k).tolist())
    assert all_nodes == list(range(n))
    assert 1 <= cond.h <= n
    for k in range(cond.h):
        assert cond.node_to_block[nodes_of(cond, k)[0]] == k

    # triangularity under the reported permutation
    a = system.to_dense()
    perm = list(cond.permutation)
    pa = a[np.ix_(perm, perm)]
    starts = cond.bounds
    for k in range(cond.h):
        for l in range(k + 1, cond.h):
            upper = pa[starts[k]:starts[k + 1], starts[l]:starts[l + 1]]
            assert not upper.any()

    # every multi-node block is strongly connected
    for k in range(cond.h):
        assert strongly_connected(cond.matrix(k))
        np.testing.assert_array_equal(cond.matrix(k), matrix_of(cond, k))
        np.testing.assert_array_equal(cond.matrix(k), a[np.ix_(nodes_of(cond, k), nodes_of(cond, k))])

    # the stored DAG: CSR rows ascend strictly, edges point forward, and the
    # edge set is the cross-block entries mapped through node_to_block
    indptr, succ = cond.dag
    assert len(indptr) == cond.h + 1 and indptr[0] == 0 and indptr[-1] == len(succ)
    assert (np.diff(indptr) >= 0).all()
    for l in range(cond.h):
        assert (np.diff(succ[indptr[l]:indptr[l + 1]]) > 0).all()
    edges = dag_edges(cond)
    rows, cols, _ = system.coo
    block = cond.node_to_block
    assert set(edges) == set(zip(block[cols].tolist(), block[rows].tolist())) - {
        (k, k) for k in range(cond.h)
    }
    for l, k in edges:
        assert l < k
        assert extract_coupling(cond, k, l).any()

    # level: 0 without predecessors, else one more than the deepest predecessor
    preds = {k: [] for k in range(cond.h)}
    for l, k in edges:
        preds[k].append(l)
    for k in range(cond.h):
        assert cond.level[k] == (1 + max(cond.level[preds[k]]) if preds[k] else 0)

    stored = (*cond.dag, cond.level, cond.node_to_block, cond.permutation,
              cond.bounds, *cond.cells)
    assert not any(a.flags.writeable for a in stored)
    assert cond.node_to_block.dtype == cond.permutation.dtype == np.intp


@pytest.mark.parametrize("seed", range(10))
def test_reachability_matches_floyd_warshall(seed):
    system = random_metzler(9, density=0.2, seed=100 + seed)
    cond = condense(system)
    reach = upstream_reachability(cond)
    h = cond.h
    closure = np.zeros((h, h), dtype=bool)
    for l, k in dag_edges(cond):
        closure[l, k] = True
    for m in range(h):
        for a in range(h):
            for b in range(h):
                if closure[a, m] and closure[m, b]:
                    closure[a, b] = True
    np.testing.assert_array_equal(reach, closure)


@pytest.mark.parametrize("seed", range(10))
def test_cross_entries_keep_input_order_with_sorted_cells(seed):
    dense = random_metzler(14, density=0.3, seed=200 + seed).to_dense()
    triples = [(i, j, dense[i, j]) for i, j in zip(*np.nonzero(dense))]
    order = np.random.default_rng(seed).permutation(len(triples))
    system = validate([triples[t] for t in order], 14)
    cond = condense(system)
    pos = {node: p for nodes in block_nodes(cond) for p, node in enumerate(nodes)}
    block = cond.node_to_block.tolist()
    expected = {}
    for (i, j), v in entry_dict(system).items():
        if block[i] != block[j]:
            expected.setdefault((block[i], block[j]), []).append((pos[i], pos[j], block[i], i, j, v))
    # (k, l) groups in order of first appearance, cells sorted by local position
    want = [cell[2:] for cells in expected.values() for cell in sorted(cells)]
    assert list(zip(*(a.tolist() for a in cond.cross))) == want
    assert not any(a.flags.writeable for a in cond.cross)


def test_condense_deterministic():
    system = random_metzler(10, density=0.3, seed=7)
    c1, c2 = condense(system), condense(system)
    assert block_nodes(c1) == block_nodes(c2)
    assert dag_edges(c1) == dag_edges(c2)
    np.testing.assert_array_equal(c1.level, c2.level)
    np.testing.assert_array_equal(c1.permutation, c2.permutation)


def test_condense_survives_long_chain():
    n = 5000
    entries = {(i + 1, i): 1.0 for i in range(n - 1)}
    cond = condense(validate(entries, n))
    assert cond.h == n
    np.testing.assert_array_equal(cond.permutation, np.arange(n))
    np.testing.assert_array_equal(cond.level, np.arange(n))


@st.composite
def component_graphs(draw):
    """Unique edges over c components, numbered at random against the topological
    order, grouped by source in shuffled order within each group; acyclic unless
    a back edge is left in."""
    c = draw(st.integers(1, 25))
    position = draw(st.permutations(range(c)))
    pairs = st.tuples(st.integers(0, c - 1), st.integers(0, c - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=3 * c, unique=True))
    if draw(st.integers(0, 4)):  # else any cycles stay
        edges = list(dict.fromkeys((a, b) if position[a] < position[b] else (b, a) for a, b in edges))
    edges = draw(st.permutations(edges))
    src = np.array([a for a, _ in edges], dtype=np.intp)
    dst = np.array([b for _, b in edges], dtype=np.intp)
    grouped = np.argsort(src, kind="stable")
    return c, src[grouped], dst[grouped]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CondensationError as exc:
        return type(exc), str(exc)


@given(component_graphs())
@settings(max_examples=300, deadline=None)
def test_topological_order_matches_the_tuple_heap_loop(graph):
    c, src, dst = graph
    assert _outcome(_topological_order, c, src, dst) == _outcome(reference_topological_order, np.arange(c), src, dst)


@st.composite
def systems_with_multi_node_blocks(draw):
    """A random Metzler system in shuffled input order, with planted cycles."""
    n = draw(st.integers(1, 14))
    cell = st.integers(0, n - 1)
    cells = draw(st.lists(st.tuples(cell, cell), max_size=3 * n, unique=True))
    for _ in range(draw(st.integers(0, 3))):  # a two-cycle makes (or joins) a multi-node block
        i, j = draw(cell), draw(cell)
        cells += [(i, j), (j, i)]
    cells = draw(st.permutations(list(dict.fromkeys(cells))))
    value = st.floats(0.125, 4.0)
    return validate([(i, j, -draw(value) if i == j else draw(value)) for i, j in cells], n)


def _bits(arrays) -> list:
    return [(a.dtype, a.tobytes()) for a in arrays]


@given(systems_with_multi_node_blocks())
@settings(max_examples=300, deadline=None)
def test_block_order_cross_and_dag_match_the_references(system):
    cond = condense(system)
    cross, dag = lexsort_cross_and_dag(system, cond)
    assert _bits(cond.cross) == _bits(cross)
    assert _bits(cond.dag) == _bits(dag)
    # The blocks are numbered in the tuple-heap loop's order, keyed by each block's smallest node.
    indptr, succ = cond.dag
    src = np.repeat(np.arange(cond.h), np.diff(indptr))
    topo, depth = reference_topological_order(cond.permutation[cond.bounds[:-1]], src, succ)
    assert topo == list(range(cond.h)) and depth == cond.level.tolist()


def _check_cells(system):
    """`cond.cells` holds every entry within a block once, grouped by block with `indptr`
    the running count, at a place inside the block's d x d matrix, all read-only; and the
    stack `matrix(ks, d)` of each size group, and of none, is the dense submatrices bitwise."""
    cond = condense(system)
    rows, cols, vals = system.coo
    block, size = cond.node_to_block, np.diff(cond.bounds)
    indptr, place, value = cond.cells
    inner = block[rows] == block[cols]
    assert indptr.tolist() == [0, *np.cumsum(np.bincount(block[rows[inner]], minlength=cond.h)).tolist()]
    of = np.repeat(np.arange(cond.h), np.diff(indptr))
    assert ((0 <= place) & (place < size[of] ** 2)).all()
    assert len(set(zip(of.tolist(), place.tolist()))) == len(place) == len(value)
    assert not any(a.flags.writeable for a in cond.cells)
    entries = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
    for d in sorted(set(size.tolist())):
        ks = np.flatnonzero(size == d)
        want = np.array([[[entries.get((i, j), 0.0) for j in nodes] for i in nodes]
                         for nodes in (nodes_of(cond, k).tolist() for k in ks.tolist())])
        got = cond.matrix(ks, d)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert cond.matrix(ks[:0], d).shape == (0, d, d)


@given(systems_with_multi_node_blocks())
@example(from_dense([[0.0, 0.0], [1.0, -1.0]]))  # node 0 is a singleton block with no diagonal entry
@settings(max_examples=150, deadline=None)
def test_cells_hold_each_block_entry_once(system):
    _check_cells(system)


@pytest.mark.parametrize("name", [*sorted(p.name for p in FIXTURES.iterdir() if p.is_file()),
                                  "dag-singletons", "critical-antichain"])
def test_cells_hold_each_block_entry_once_on_the_fixtures_and_bench_workloads(name):
    if name in ("dag-singletons", "critical-antichain"):
        system = load_matrix_market(getattr(bench_workloads(), name.replace("-", "_"))(1).text)
    else:
        system = cli._load_system(str(FIXTURES / name), "auto")
    _check_cells(system)


def test_condense_of_a_ring_holds_no_dense_block():
    """One 2000-node block: its cells take O(d) memory, where a dense d x d matrix took 32 MB."""
    n = 2000
    system = validate({**{((i + 1) % n, i): 1.0 for i in range(n)}, **{(i, i): -2.0 for i in range(n)}}, n)
    tracemalloc.start()
    try:
        cond = condense(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cond.h == 1 and peak < 2 * 2**20, peak


# ---------------------------------------------------------------------------
# The acyclic peel and the colouring passes: the settings of their stop rules
# change only how much of the graph Tarjan sees, never the condensation.
# ---------------------------------------------------------------------------

PEEL_SETTINGS = {  # (_PEEL_MIN, _PEEL_DIVISOR)
    "fixpoint": (1, sys.maxsize),  # stop after a round that peels nothing
    "one round": (sys.maxsize, 1),  # stop after the first round
    "default": (condensation._PEEL_MIN, condensation._PEEL_DIVISOR),
}
_ROUNDS, _DIVISOR = condensation._COLOUR_ROUNDS, condensation._COLOUR_DIVISOR
COLOUR_SETTINGS = {  # (_COLOUR_MIN_CORE, _COLOUR_ROUNDS, _COLOUR_DIVISOR)
    "tarjan only": (sys.maxsize, _ROUNDS, _DIVISOR),
    "fixpoint": (1, sys.maxsize, sys.maxsize),  # colour until every node is labelled
    "any core": (1, _ROUNDS, _DIVISOR),  # the default stop rules on cores of every size
    "default": (condensation._COLOUR_MIN_CORE, _ROUNDS, _DIVISOR),
}


def reference_peel(n: int, edges, minimum: int, divisor: int) -> tuple[int, set[int]]:
    """Rounds and the core left by the peel, over Python sets: each round drops every
    live node without a live in-edge or without a live out-edge, and the peel stops
    after a round that drops fewer than max(minimum, live // divisor) of the live nodes."""
    live, edges, rounds = set(range(n)), set(edges), 0
    while live:
        rounds += 1
        kept = live & {b for _, b in edges} & {a for a, _ in edges}
        edges = {(a, b) for a, b in edges if a in kept and b in kept}
        before, live = len(live), kept
        if before - len(live) < max(minimum, before // divisor):
            break
    return rounds, live


def reference_colouring(core: set[int], edges, min_core: int, rounds: int, divisor: int) -> set[int]:
    """The nodes of the core that colouring leaves to Tarjan, over Python sets. Each pass
    gives every live node its smallest descendant as colour, one edge step back per round,
    then grows each node whose colour is its own id by the nodes of its colour one edge step
    forward per round, and drops the nodes found. Colouring stops when a sweep has not
    settled after `rounds` rounds (the pass is lost), after a pass that drops fewer than
    live // divisor nodes, or at once if the core has fewer than min_core nodes."""
    live = set(core)
    edges = {(a, b) for a, b in edges if a in live and b in live}
    while len(live) >= min_core:
        colour = {v: v for v in live}
        for _ in range(rounds):
            spread = dict(colour)
            for a, b in edges:
                spread[a] = min(spread[a], colour[b])
            if spread == colour:
                break
            colour = spread
        else:
            return live
        found = {v for v in live if colour[v] == v}
        for _ in range(rounds):
            ahead = {b for a, b in edges if a in found and colour[a] == colour[b]} - found
            if not ahead:
                break
            found |= ahead
        else:
            return live
        live -= found
        edges = {(a, b) for a, b in edges if a in live and b in live}
        if len(found) < (len(live) + len(found)) // divisor:
            break
    return live


def _condense_with(system, peel="default", colour="default"):
    """condense under one setting of each stop rule; also every graph Tarjan was called
    on, as its node count and its set of edges."""
    real_tarjan, calls = condensation._tarjan, []

    def tarjan(n, indptr, indices):
        src = np.repeat(np.arange(n), np.diff(indptr))
        calls.append((n, set(zip(src.tolist(), indices.tolist()))))
        return real_tarjan(n, indptr, indices)

    with pytest.MonkeyPatch.context() as mp:
        for name, value in zip(("_PEEL_MIN", "_PEEL_DIVISOR"), PEEL_SETTINGS[peel]):
            mp.setattr(condensation, name, value)
        for name, value in zip(("_COLOUR_MIN_CORE", "_COLOUR_ROUNDS", "_COLOUR_DIVISOR"), COLOUR_SETTINGS[colour]):
            mp.setattr(condensation, name, value)
        mp.setattr(condensation, "_tarjan", tarjan)
        return condense(system), calls


def _tarjan_left(system, peel="default", colour="default") -> list[int]:
    """The nodes the reference peel and colouring leave to Tarjan, ascending."""
    edges = _edges(system)
    _, core = reference_peel(system.n, edges, *PEEL_SETTINGS[peel])
    return sorted(reference_colouring(core, edges, *COLOUR_SETTINGS[colour]))


def _tarjan_calls(system, left) -> list:
    """The Tarjan calls expected on the nodes `left`: none if it is empty, else one on
    those nodes numbered in order, with the edges among them."""
    at = {v: i for i, v in enumerate(left)}
    return [(len(left), {(at[a], at[b]) for a, b in _edges(system) if a in at and b in at})] if left else []


def _all_bits(cond) -> list:
    return [cond.h] + _bits((cond.bounds, *cond.cells, *cond.dag, cond.level,
                             cond.node_to_block, cond.permutation, *cond.cross))


def _edges(system) -> list[tuple[int, int]]:
    rows, cols, _ = system.coo
    return [(j, i) for i, j in zip(rows.tolist(), cols.tolist()) if i != j]


def mutual_reachability_blocks(system) -> set[frozenset[int]]:
    """The SCCs as the classes of mutual reachability, from breadth-first searches."""
    fwd: list[list[int]] = [[] for _ in range(system.n)]
    back: list[list[int]] = [[] for _ in range(system.n)]
    for a, b in _edges(system):
        fwd[a].append(b)
        back[b].append(a)
    blocks, done = set(), set()
    for v in range(system.n):
        if v not in done:
            block = frozenset(bfs_reachable(fwd, v) & bfs_reachable(back, v))
            blocks.add(block)
            done |= block
    return blocks


@st.composite
def fringed_systems(draw):
    """Planted cycles (some linked), DAG fringes of layers above and below them,
    chains and isolated nodes, plus a few random edges; shuffled node ids."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = 0

    def new(k):
        nonlocal count
        count += k
        return list(range(count - k, count))

    edges = set()
    cycles = [new(draw(st.integers(2, 6))) for _ in range(draw(st.integers(0, 4)))]
    for cycle in cycles:
        edges |= set(zip(cycle, cycle[1:] + cycle[:1]))
    for a, b in zip(cycles, cycles[1:]):  # a path between two cycles stays in the core
        if draw(st.booleans()):
            path = [int(rng.choice(a)), *new(draw(st.integers(0, 3))), int(rng.choice(b))]
            edges |= set(zip(path, path[1:]))
    core = [v for cycle in cycles for v in cycle] or new(1)
    for upstream in (True, False):
        layers = [new(draw(st.integers(1, 40))) for _ in range(draw(st.integers(0, 5)))]
        for a, b in zip(layers, layers[1:]):  # each node an edge to the next layer, and one from it
            edges |= {(v, int(rng.choice(b))) for v in a} | {(int(rng.choice(a)), v) for v in b}
        if layers:
            ends = layers[-1] if upstream else layers[0]
            edges |= {(v, int(rng.choice(core))) if upstream else (int(rng.choice(core)), v) for v in ends}
    for _ in range(draw(st.integers(0, 2))):
        chain = new(draw(st.integers(1, 40)))
        edges |= set(zip(chain, chain[1:]))
    new(draw(st.integers(0, 8)))  # isolated nodes
    for _ in range(draw(st.integers(0, 3))):
        a, b = rng.integers(0, count, size=2).tolist()
        if a != b:
            edges.add((a, b))
    perm = draw(st.permutations(range(count)))
    entries = {(perm[b], perm[a]): 1.0 for a, b in edges}
    entries.update({(perm[v], perm[v]): -2.0 for v in range(0, count, 3)})
    return validate(entries, count)


@given(fringed_systems())
@settings(max_examples=150, deadline=None)
def test_every_peel_setting_gives_the_same_condensation(system):
    runs = {setting: _condense_with(system, peel=setting) for setting in PEEL_SETTINGS}
    bits = _all_bits(runs["default"][0])
    for setting, (cond, calls) in runs.items():
        assert _all_bits(cond) == bits, setting
        assert calls == _tarjan_calls(system, _tarjan_left(system, peel=setting))  # Tarjan sees what is left
    assert set(map(frozenset, block_nodes(runs["default"][0]))) == mutual_reachability_blocks(system)


def test_fringe_core_fixture_is_peeled_in_rounds_around_a_core():
    path = Path(__file__).parent / "fixtures" / "fringe_core.mtx"
    system = load_matrix_market(path.read_text(encoding="utf-8"))
    rounds, core = reference_peel(system.n, _edges(system), *PEEL_SETTINGS["default"])
    assert rounds >= 4 and 0 < len(core) < min(system.n // 4, condensation._COLOUR_MIN_CORE)
    cond, calls = _condense_with(system)
    assert calls == _tarjan_calls(system, sorted(core))  # a core too small to colour
    assert set(map(frozenset, block_nodes(cond))) == mutual_reachability_blocks(system)


def _colour_runs(system) -> dict:
    """condense under every colouring setting, checked: bitwise one condensation, and
    Tarjan called on exactly the nodes the reference colouring leaves."""
    runs = {setting: _condense_with(system, colour=setting) for setting in COLOUR_SETTINGS}
    bits = _all_bits(runs["default"][0])
    for setting, (cond, calls) in runs.items():
        assert _all_bits(cond) == bits, setting
        assert calls == _tarjan_calls(system, _tarjan_left(system, colour=setting)), setting
    assert runs["fixpoint"][1] == []
    return runs


@given(st.one_of(fringed_systems(), systems_with_multi_node_blocks()))
@settings(max_examples=150, deadline=None)
def test_every_colouring_setting_gives_the_same_condensation(system):
    runs = _colour_runs(system)
    assert set(map(frozenset, block_nodes(runs["default"][0]))) == mutual_reachability_blocks(system)


def _shape(name: str) -> list[tuple[int, int]]:
    """Edges on which colouring ends one way each and leaves 40 nodes to Tarjan."""
    ring = [(v, (v + 1) % 40) for v in range(40)]
    if name == "long cycle":  # the backward spread goes round it, one node per round
        perm = np.random.default_rng(1).permutation(40).tolist()
        return [(perm[a], perm[b]) for a, b in ring]
    if name == "spokes into the smallest node":  # settled in one round; the sweep goes round
        return ring + [(v, 0) for v in range(2, 40)]
    # 20 2-cycles feed the 2-cycle {0, 1}, the smallest descendant of all: a pass labels it alone
    return [(0, 1), (1, 0)] + [e for k in range(1, 21) for e in ((2 * k, 2 * k + 1), (2 * k + 1, 2 * k), (2 * k, 0))]


@pytest.mark.parametrize("name", ["long cycle", "spokes into the smallest node", "a pass that labels too few"])
def test_each_colouring_stop_rule_leaves_the_core_to_tarjan(name):
    edges = _shape(name)
    n = 1 + max(max(e) for e in edges)
    runs = _colour_runs(validate({(b, a): 1.0 for a, b in edges}, n))
    assert [k for k, _ in runs["any core"][1]] == [40]


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.iterdir() if p.is_file()))
def test_every_colouring_setting_gives_the_same_condensation_on_the_fixtures(fixture):
    _colour_runs(cli._load_system(str(FIXTURES / fixture), "auto"))


def test_cycle_core_fixture_leaves_tarjan_only_what_colouring_cannot_settle():
    """cycle_core.mtx is coloured at the default settings: three passes, the last of which
    stalls on a 64-node cycle, which a forward sweep needs 63 rounds to go round."""
    system = load_matrix_market((FIXTURES / "cycle_core.mtx").read_text(encoding="utf-8"))
    _, core = reference_peel(system.n, _edges(system), *PEEL_SETTINGS["default"])
    left = _tarjan_left(system)
    assert len(core) >= condensation._COLOUR_MIN_CORE and len(left) < len(core) // 4
    cond, calls = _condense_with(system)
    assert calls == _tarjan_calls(system, left)
    (long_cycle,) = [nodes for nodes in block_nodes(cond) if len(nodes) > condensation._COLOUR_ROUNDS]
    assert len(long_cycle) == 64 and set(long_cycle) <= set(left)


def _critical_antichain(seed: int, pairs: int = 250):
    """The bench's `critical-antichain` workload, from bench/workloads.py."""
    return bench_workloads().critical_antichain(seed, pairs=pairs)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_critical_antichain_is_coloured_without_tarjan(seed):
    system = load_matrix_market(_critical_antichain(seed).text)
    runs = _colour_runs(system)
    assert runs["default"][1] == [] and len(runs["tarjan only"][1]) == 1


# ---------------------------------------------------------------------------
# Differential check at n ~ 1e5: `_components` against SciPy's strongly
# connected components (a test-only reference; the package does not use it).
# ---------------------------------------------------------------------------

def _csgraph_components(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[int, np.ndarray]:
    """SciPy's strong components of the edges src -> dst, renumbered by smallest node."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    graph = sp.csr_array((np.ones(src.size), (src, dst)), shape=(n, n))
    count, labels = connected_components(graph, directed=True, connection="strong")
    least = np.full(count, n)
    np.minimum.at(least, labels, np.arange(n))
    rank = np.empty(count, dtype=np.intp)
    rank[np.argsort(least)] = np.arange(count)
    return count, rank[labels]


def _giant_and_fringe(n: int, seed: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """A random digraph of mean degree 2 on half of the nodes, which has a giant SCC and
    many small ones, and a DAG fringe on the other half: each fringe node has an edge from
    a smaller node, so it lies on no cycle; ids shuffled."""
    rng = np.random.default_rng(seed)
    half = n // 2
    src = np.concatenate((rng.integers(0, half, size=2 * half), rng.integers(0, np.arange(half, n))))
    dst = np.concatenate((rng.integers(0, half, size=2 * half), np.arange(half, n)))
    key = np.unique(src[src != dst] * n + dst[src != dst])  # no self-loops or repeated edges
    perm = rng.permutation(n)
    return perm[key // n], perm[key % n]


def _ring(n: int) -> tuple[np.ndarray, np.ndarray]:
    perm = np.random.default_rng(3).permutation(n)
    return perm, np.roll(perm, -1)


@pytest.mark.parametrize("graph", ["critical-antichain", "ring", "giant and fringe"])
def test_components_match_csgraph_at_1e5_nodes(graph):
    if graph == "critical-antichain":
        coo = _critical_antichain(1, pairs=12_500).matrix.tocoo()
        n, off = coo.shape[0], coo.row != coo.col
        src, dst = coo.col[off].astype(np.intp), coo.row[off].astype(np.intp)
    else:
        n = 100_000
        src, dst = _ring(n) if graph == "ring" else _giant_and_fringe(n)
    count, labels = _csgraph_components(n, src, dst)
    assert n > 99_000 and (graph != "giant and fringe" or 20_000 < np.bincount(labels).max() < n // 2)
    settings_ = ["default"] if graph == "ring" else ["default", "fixpoint"]
    for setting in settings_:
        with pytest.MonkeyPatch.context() as mp:
            for name, value in zip(("_COLOUR_MIN_CORE", "_COLOUR_ROUNDS", "_COLOUR_DIVISOR"),
                                   COLOUR_SETTINGS[setting]):
                mp.setattr(condensation, name, value)
            c, comp = condensation._components(n, src, dst)
        assert c == count and np.array_equal(comp, labels), setting

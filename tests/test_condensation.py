import numpy as np
import pytest

from conftest import (block_nodes, dag_edges, entry_dict, matrix_of, nodes_of, strongly_connected,
                      upstream_reachability)
from coopstab import (
    BadBlockOrder,
    condense,
    extract_coupling,
    from_dense,
    full_analysis,
    random_metzler,
    to_dot,
    validate,
)


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


def test_matrix_gathers_from_the_stored_arrays():
    cond = condense(validate({(1, 0): 1.0, (2, 1): 1.0, (1, 2): 1.0, (2, 2): -3.0, (0, 0): -1.0}, 3))
    assert cond.bounds.tolist() == [0, 1, 3]
    assert cond.matrix_bounds.tolist() == [0, 1, 5]
    assert cond.permutation[cond.bounds[1]:cond.bounds[2]].tolist() == [1, 2]
    np.testing.assert_array_equal(cond.matrix(1), [[0, 1], [1, -3]])
    np.testing.assert_array_equal(cond.matrix(0), [[-1]])
    matrix = cond.matrix(1)
    assert not np.shares_memory(matrix, cond.matrices)
    matrix[0, 0] = 7.0  # a copy: the stored matrices stay as they are
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
    bare = to_dot(cond)
    assert "fillcolor" not in bare


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
              cond.bounds, cond.matrices, cond.matrix_bounds)
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

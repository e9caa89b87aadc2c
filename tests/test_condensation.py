import numpy as np
import pytest

from conftest import strongly_connected, upstream_reachability
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
    assert [b.nodes for b in cond.blocks] == [(0,), (1,)]
    assert cond.dag_edges == {(0, 1)}
    assert cond.node_to_block == (0, 1)


def test_two_cycle_is_one_block():
    cond = condense(from_dense([[0, 1], [1, 0]]))
    assert cond.h == 1
    assert cond.blocks[0].nodes == (0, 1)
    np.testing.assert_array_equal(cond.blocks[0].matrix, [[0, 1], [1, 0]])
    assert cond.dag_edges == frozenset()


def test_chain_into_two_cycle():
    # 0 -> 1 plus the cycle 1 <-> 2
    s = validate({(1, 0): 1.0, (2, 1): 1.0, (1, 2): 1.0}, 3)
    cond = condense(s)
    assert cond.h == 2
    assert cond.blocks[0].nodes == (0,)
    assert cond.blocks[1].nodes == (1, 2)
    assert cond.dag_edges == {(0, 1)}


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
    np.testing.assert_array_equal(c.matrix, [[1.0]])
    assert (c.target_block, c.source_block) == (1, 0)


def test_coupling_absent_edge_is_zero():
    cond = condense(from_dense(np.zeros((2, 2))))
    np.testing.assert_array_equal(extract_coupling(cond, 1, 0).matrix, [[0.0]])
    assert (0, 1) not in cond.dag_edges


def test_coupling_into_larger_block():
    s = validate({(1, 0): 1.0, (2, 1): 1.0, (1, 2): 1.0}, 3)
    cond = condense(s)
    np.testing.assert_array_equal(extract_coupling(cond, 1, 0).matrix, [[1.0], [0.0]])


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
    assert [b.nodes for b in cond.blocks] == [tuple(g) for g in groups]
    assert cond.dag_edges == {
        (0, 2), (1, 2), (2, 4), (3, 4), (4, 5), (4, 6), (5, 7), (6, 7)
    }
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
    dot = to_dot(cond, spectra, report.roles, verdict_name=report.verdict.value)
    assert dot.count("->") == len(cond.dag_edges)
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
    all_nodes = sorted(node for b in cond.blocks for node in b.nodes)
    assert all_nodes == list(range(n))
    assert 1 <= cond.h <= n
    for b in cond.blocks:
        assert cond.node_to_block[b.nodes[0]] == b.index

    # triangularity under the reported permutation
    a = system.to_dense()
    perm = list(cond.permutation)
    pa = a[np.ix_(perm, perm)]
    starts = np.cumsum([0] + [b.size for b in cond.blocks])
    for k in range(cond.h):
        for l in range(k + 1, cond.h):
            upper = pa[starts[k]:starts[k + 1], starts[l]:starts[l + 1]]
            assert not upper.any()

    # every multi-node block is strongly connected
    for b in cond.blocks:
        assert strongly_connected(b.matrix)

    # dag edges point forward and match couplings
    for l, k in cond.dag_edges:
        assert l < k
        assert extract_coupling(cond, k, l).matrix.any()


@pytest.mark.parametrize("seed", range(10))
def test_reachability_matches_floyd_warshall(seed):
    system = random_metzler(9, density=0.2, seed=100 + seed)
    cond = condense(system)
    reach = upstream_reachability(cond)
    h = cond.h
    closure = np.zeros((h, h), dtype=bool)
    for l, k in cond.dag_edges:
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
    pos = {node: p for b in cond.blocks for p, node in enumerate(b.nodes)}
    expected = {}
    for (i, j), v in system.entries.items():
        k, l = cond.node_to_block[i], cond.node_to_block[j]
        if k != l:
            expected.setdefault((k, l), []).append((pos[i], pos[j], v))
    assert list(cond.cross_entries) == list(expected)
    assert dict(cond.cross_entries) == {key: tuple(sorted(c)) for key, c in expected.items()}
    assert not any(a.flags.writeable for a in cond.cross)


def test_condense_deterministic():
    system = random_metzler(10, density=0.3, seed=7)
    c1, c2 = condense(system), condense(system)
    assert [b.nodes for b in c1.blocks] == [b.nodes for b in c2.blocks]
    assert c1.dag_edges == c2.dag_edges
    assert c1.permutation == c2.permutation


def test_condense_survives_long_chain():
    n = 5000
    entries = {(i + 1, i): 1.0 for i in range(n - 1)}
    cond = condense(validate(entries, n))
    assert cond.h == n
    assert cond.permutation == tuple(range(n))

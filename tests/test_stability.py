import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    block_nodes,
    cross_entries,
    dag_csr,
    dag_edges,
    entry_dict,
    nodes_of,
    phi_of,
    reference_steady_state_basis,
    reference_verdict,
)
from coopstab import (
    BlockClass,
    CooperativeSystem,
    CriticalPath,
    GeneratorSpec,
    NegativeSteadyStateEntry,
    NonFiniteResult,
    NotMarginallyStable,
    SingularSubCriticalSolve,
    SpectralOptions,
    SuperCriticalBlock,
    SuperCriticalPresent,
    ValidationError,
    Verdict,
    condense,
    analyze_all_blocks,
    find_traps,
    from_dense,
    full_analysis,
    generate,
    generate_marginally_stable,
    nullspace_residual,
    nullspace_residuals,
    steady_state_basis,
    to_matrix_market,
    validate,
    verdict,
)
from oracles import TooManyBlocks, path_sum_matrix, steady_state_by_path_sum


def _analyze(matrix, opts=None):
    system = from_dense(matrix)
    cond = condense(system)
    spectra = analyze_all_blocks(cond, opts)
    return system, cond, spectra


# ---------------------------------------------------------------------------
# trivial blocks
# ---------------------------------------------------------------------------

def test_block_feeding_a_critical_is_trivial():
    _, cond, spectra = _analyze([[-1, 0], [1, 0]])
    assert verdict(cond, spectra).trivial.tolist() == [True, False]


def test_block_fed_by_a_critical_is_not_trivial():
    _, cond, spectra = _analyze([[0, 0], [1, -2]])
    assert verdict(cond, spectra).trivial.tolist() == [False, False]


def test_isolated_sub_critical_is_trivial():
    _, cond, spectra = _analyze([[-1.0]])
    assert verdict(cond, spectra).trivial.tolist() == [True]


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------

def test_all_sub_critical_is_asymptotically_stable():
    _, cond, spectra = _analyze([[-1, 0], [1, -1]])
    report = verdict(cond, spectra)
    assert report.verdict is Verdict.ASYMPTOTICALLY_STABLE
    assert report.unstable_reason is None
    assert report.algebraic_multiplicity_zero == 0
    assert report.trivial.all()


def test_connected_criticals_are_unstable_with_witness():
    _, cond, spectra = _analyze([[0, 0], [1, 0]])
    report = verdict(cond, spectra)
    assert report.verdict is Verdict.UNSTABLE
    assert report.unstable_reason == CriticalPath(0, 1, (0, 1))
    assert report.algebraic_multiplicity_zero == 2
    assert report.geometric_multiplicity_zero == 1


def test_two_free_criticals_are_marginally_stable():
    _, cond, spectra = _analyze([[0, 0, 0], [0, 0, 0], [1, 2, -1]])
    report = verdict(cond, spectra)
    assert report.verdict is Verdict.MARGINALLY_STABLE
    assert report.algebraic_multiplicity_zero == 2
    assert report.geometric_multiplicity_zero == 2
    assert report.free.tolist() == [True, True, False]


def test_super_critical_block_forces_instability():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0   # 2-cycle block with dominant eigenvalue +1
    a[2, 2] = -1.0
    _, cond, spectra = _analyze(a)
    report = verdict(cond, spectra)
    assert report.verdict is Verdict.UNSTABLE
    assert report.unstable_reason == SuperCriticalBlock(0)


def test_critical_path_witness_is_shortest():
    # two routes between the critical endpoints; the witness takes the short one
    a = np.zeros((4, 4))
    a[3, 0] = 1.0                     # direct: B0 -> B3
    a[1, 0] = a[2, 1] = a[3, 2] = 1.0  # long way round through sub-criticals
    a[1, 1] = a[2, 2] = -1.0
    _, cond, spectra = _analyze(a)
    report = verdict(cond, spectra)
    assert report.unstable_reason.path == (0, 3)


def _bare_condensation(h, edges, critical=(), super_critical=()):
    """What `verdict` reads of a condensation and its spectra, and no more."""
    cond = SimpleNamespace(h=h, dag=dag_csr(h, edges))
    spectra = SimpleNamespace(classification=np.array([
        BlockClass.CRITICAL if k in critical
        else BlockClass.SUPER_CRITICAL if k in super_critical
        else BlockClass.SUB_CRITICAL
        for k in range(h)
    ], dtype=object))
    return cond, spectra


def _report_fields(report):
    """A StabilityReport as comparable values, its columns as lists."""
    return (report.verdict, report.unstable_reason, report.algebraic_multiplicity_zero,
            report.geometric_multiplicity_zero, report.trivial.tolist(), report.free.tolist())


def test_witness_follows_smallest_successor_not_nearest_target():
    # two shortest routes from B0: via B1 to B5 and via B2 to B3
    cond, spectra = _bare_condensation(
        6, [(0, 1), (1, 5), (0, 2), (2, 3)], critical={0, 3, 5}
    )
    assert verdict(cond, spectra).unstable_reason == CriticalPath(0, 5, (0, 1, 5))


@pytest.mark.parametrize("seed", range(20))
def test_verdict_matches_reachability_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        h = int(rng.integers(1, 15))
        density = rng.uniform(0.0, 0.9)
        edges = [(l, k) for l in range(h) for k in range(l + 1, h) if rng.random() < density]
        critical = set(np.flatnonzero(rng.random(h) < rng.uniform(0.1, 0.7)).tolist())
        supers = set(np.flatnonzero(rng.random(h) < 0.1).tolist()) if rng.random() < 0.2 else set()
        cond, spectra = _bare_condensation(h, edges, critical, supers - critical)
        assert _report_fields(verdict(cond, spectra)) == _report_fields(reference_verdict(cond, spectra))


def test_verdict_on_long_chain_stays_linear_in_memory():
    h = 20_000
    cond, spectra = _bare_condensation(
        h, [(k, k + 1) for k in range(h - 1)], critical={0, h - 1}
    )
    tracemalloc.start()
    try:
        report = verdict(cond, spectra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.unstable_reason == CriticalPath(0, h - 1, tuple(range(h)))
    assert report.geometric_multiplicity_zero == 1
    assert peak < 20 * 2**20


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

def test_single_downstream_solve():
    system, cond, spectra = _analyze([[0, 0], [1, -2]])
    basis = steady_state_basis(cond, spectra)
    assert basis.free_blocks == (0,)
    assert basis.free_parameters == ("alpha_0",)
    np.testing.assert_allclose(basis.vectors[0], [1.0, 0.5], atol=1e-14)
    assert nullspace_residual(system, basis.vectors[0]) < 1e-12


def test_two_parameter_family():
    system, cond, spectra = _analyze([[0, 0, 0], [0, 0, 0], [1, 2, -1]])
    basis = steady_state_basis(cond, spectra)
    np.testing.assert_allclose(basis.vectors[0], [1, 0, 1], atol=1e-14)
    np.testing.assert_allclose(basis.vectors[1], [0, 1, 2], atol=1e-14)


def test_single_free_node():
    _, cond, spectra = _analyze([[0.0]])
    basis = steady_state_basis(cond, spectra)
    np.testing.assert_array_equal(basis.vectors[0], [1.0])


def test_refuses_asymptotically_stable_systems():
    _, cond, spectra = _analyze([[-1, 0], [1, -1]])
    with pytest.raises(NotMarginallyStable):
        steady_state_basis(cond, spectra)


def test_refuses_critical_path_unless_forced():
    system, cond, spectra = _analyze([[0, 0], [1, 0]])
    with pytest.raises(NotMarginallyStable):
        steady_state_basis(cond, spectra)
    basis = steady_state_basis(cond, spectra, force=True)
    np.testing.assert_array_equal(basis.vectors[0], [0.0, 1.0])
    assert nullspace_residual(system, basis.vectors[0]) == 0.0


def test_always_refuses_super_critical():
    _, cond, spectra = _analyze([[0, 1], [1, 0]])
    with pytest.raises(SuperCriticalPresent):
        steady_state_basis(cond, spectra, force=True)


def test_singular_sub_critical_solve_detected():
    # a block that scrapes the criticality tolerance from below: classified
    # sub-critical under a tiny tolerance, numerically singular in the solve
    eps = 1e-14
    a = np.array([
        [0.0, 0.0, 0.0],
        [1.0, -1.0 - eps, 1.0],
        [0.0, 1.0, -1.0 - eps],
    ])
    opts = SpectralOptions(crit_tol_rel=1e-15)
    _, cond, spectra = _analyze(a, opts)
    assert [c.value for c in spectra.classification] == ["critical", "sub-critical"]
    with pytest.raises(SingularSubCriticalSolve) as exc:
        steady_state_basis(cond, spectra)
    assert exc.value.block_index == 1


def test_singular_sub_critical_solve_shared_by_two_free_blocks():
    # the same near-singular block sits in the cone of both free blocks
    eps = 1e-14
    a = np.zeros((4, 4))
    a[2, 0] = a[3, 1] = 1.0
    a[2:, 2:] = [[-1.0 - eps, 1.0], [1.0, -1.0 - eps]]
    _, cond, spectra = _analyze(a, SpectralOptions(crit_tol_rel=1e-15))
    assert [c.value for c in spectra.classification] == [
        "critical", "critical", "sub-critical"
    ]
    with pytest.raises(SingularSubCriticalSolve) as exc:
        steady_state_basis(cond, spectra)
    assert exc.value.block_index == 2


def test_negative_steady_state_entry_names_block_and_node():
    # validate rejects negative couplings, so build the system directly: node
    # 2 is a critical source, node 0 a sub-critical sink fed by -1.0
    system = CooperativeSystem(
        n=3,
        coo=(np.array([0, 0, 1]), np.array([0, 2, 1]), np.array([-2.0, -1.0, -1.0])),
        node_labels=("a", "b", "c"),
    )
    cond = condense(system)
    spectra = analyze_all_blocks(cond)
    assert block_nodes(cond) == [(1,), (2,), (0,)]
    with pytest.raises(NegativeSteadyStateEntry) as exc:
        steady_state_basis(cond, spectra)
    assert (exc.value.block_index, exc.value.node) == (2, 0)
    assert exc.value.value == -0.5


def _basis_one_free_block_at_a_time(cond, spectra, residual_tol=1e-10):
    """Reference: propagate each free block separately through every later
    sub-critical block, accumulating and clamping in the same order."""
    classes = spectra.classification
    final = list(steady_state_basis(cond, spectra).free_blocks)
    coupling = cross_entries(cond)
    sources_of = {}
    for (k, l) in coupling:
        sources_of.setdefault(k, []).append(l)
    vectors = []
    for k in final:
        x = np.zeros(len(cond.node_to_block))
        x[nodes_of(cond, k)] = phi_of(cond, spectra, k)
        for l in range(k + 1, cond.h):
            if classes[l] is not BlockClass.SUB_CRITICAL:
                continue
            nodes = nodes_of(cond, l)
            rhs = np.zeros(len(nodes))
            for src in sources_of.get(l, ()):
                for li, lj, v in coupling[(l, src)]:
                    rhs[li] += v * x[nodes_of(cond, src)[lj]]
            if rhs.any():
                lu = scipy.linalg.lu_factor(cond.matrix(l))
                sol = scipy.linalg.lu_solve(lu, -rhs)
                sol[sol < 0] = 0.0
                x[nodes] = sol
        vectors.append(x)
    return vectors


@pytest.mark.parametrize("seed", range(40))
def test_sweep_matches_per_free_block_reference_bitwise(seed):
    spec = GeneratorSpec(
        num_blocks=(6, 12), block_size=(1, 4), edge_density=0.6, seed=900 + seed
    )
    system = generate_marginally_stable(spec)
    cond = condense(system)
    spectra = analyze_all_blocks(cond)
    basis = steady_state_basis(cond, spectra)
    expected = _basis_one_free_block_at_a_time(cond, spectra)
    assert len(basis.vectors) == len(expected)
    for got, want in zip(basis.vectors, expected):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def _entry_loop_residual(system, vector) -> float:
    """max |A v| with every entry's term added to its row in input order."""
    out = np.zeros(system.n)
    with np.errstate(invalid="ignore"):  # inf - inf in the loop
        for (i, j), v in entry_dict(system).items():
            out[i] += v * vector[j]
    return float(np.max(np.abs(out)))


@pytest.mark.parametrize("seed", range(10))
def test_nullspace_residual_matches_entry_loop_bitwise(seed):
    rng = np.random.default_rng(seed)
    system = generate(GeneratorSpec(num_blocks=(9, 16), block_size=(1, 4), seed=seed))
    kinds = ("dense", "quarter", "sparse", "signed zeros", "infinite", "empty")
    for kind in kinds:
        vector = rng.normal(size=system.n)
        if kind == "quarter":  # a support of over a quarter of the nodes: every entry is read
            vector[rng.permutation(system.n)[system.n // 4 + 1:]] = 0.0
        elif kind != "dense":  # a support under an eighth of the nodes: only its columns are read
            vector[rng.permutation(system.n)[system.n // 9:]] = -0.0 if kind == "signed zeros" else 0.0
        if kind == "infinite":
            vector[np.flatnonzero(vector)[0]] = np.inf
        if kind == "empty":
            vector[:] = 0.0
        assert nullspace_residual(system, vector) == _entry_loop_residual(system, vector), kind
        # The column order of the entries is built on the first sparse support only.
        assert ("by_column" in vars(system)) is (kinds.index(kind) >= kinds.index("sparse")), kind


# Terms of both signs and sizes apart, so that summing a row out of input order shows.
_TERMS = (1.0, -1.0, 0.5, 3.0, 1e16, -1e16)


@st.composite
def _residual_cases(draw):
    """An unvalidated system of n nodes and a CSC of columns with 0, 1, the most a sparse support
    has, the least a dense one has, or n stored values, up to two of them +-0.0, +-inf or NaN.
    The entries lie in rows 0-3, so that a row often reads several nodes of a sparse support,
    and the order of its terms shows."""
    n = draw(st.integers(64, 128))
    pairs = draw(st.permutations([(i, j) for i in range(4) for j in range(n)]))[:draw(st.integers(n, 3 * n))]
    rows, cols = np.array(pairs).T
    vals = np.array(draw(st.lists(st.sampled_from(_TERMS), min_size=len(pairs), max_size=len(pairs))))
    system = CooperativeSystem(n=n, coo=(rows, cols, vals), node_labels=tuple(map(str, range(n))))
    indptr, nodes, values = [0], [], []
    sizes = (0, 1, (n - 1) // 8, (n - 1) // 8, (n + 7) // 8, n)
    for size in draw(st.lists(st.sampled_from(sizes), min_size=1, max_size=6)):
        nodes += sorted(draw(st.permutations(range(n)))[:size])
        column = draw(st.lists(st.sampled_from(_TERMS), min_size=size, max_size=size))
        for i in draw(st.lists(st.integers(0, size - 1), max_size=2)) if size else ():
            column[i] = draw(st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan)))
        values += column
        indptr.append(len(nodes))
    return system, (np.array(indptr), np.array(nodes, dtype=np.intp), np.array(values))


@given(_residual_cases())
@settings(max_examples=100, deadline=None)
def test_nullspace_residuals_match_the_entry_loop_bitwise(case):
    system, csc = case
    got = nullspace_residuals(system, csc)
    indptr, nodes, values = csc
    sparse = [8 * np.count_nonzero(values[a:b]) < system.n for a, b in zip(indptr, indptr[1:])]
    # The column order of the entries is built only for a column with a sparse support.
    assert ("by_column" in vars(system)) is any(sparse)
    for c, (a, b) in enumerate(zip(indptr, indptr[1:])):
        vector = np.zeros(system.n)
        vector[nodes[a:b]] = values[a:b]
        assert float.hex(float(got[c])) == float.hex(_entry_loop_residual(system, vector)), c


@pytest.mark.parametrize("shape", [(3,), (1,), (2, 1), (1, 2), ()])
def test_nullspace_residual_refuses_a_vector_of_another_shape(shape):
    system = from_dense([[-1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(ValidationError, match=rf"^vector has shape {re.escape(str(shape))}, expected \(2,\)$"):
        nullspace_residual(system, np.ones(shape))
    assert nullspace_residual(system, np.ones(2)) == 0.0


def test_nullspace_residual_sums_each_row_in_input_order():
    # Row 0 reads columns 3, 1, 2 in input order: 1.0 + 1e16 - 1e16 is 0.0, while
    # column order gives 1.0. With 34 nodes, the three support nodes are few
    # enough for only their columns to be read (the system is not validated,
    # so a coupling may be negative).
    rows, cols = np.array([0, 0, 0, *range(4, 34)]), np.array([3, 1, 2, *range(4, 34)])
    vals = np.array([1.0, 1e16, -1e16, *[-1.0] * 30])
    system = CooperativeSystem(n=34, coo=(rows, cols, vals), node_labels=tuple(map(str, range(34))))
    vector = np.zeros(34)
    vector[1:4] = 1.0
    assert nullspace_residual(system, vector) == 0.0
    assert "by_column" in vars(system)


def _paired_blocks(pairs: int) -> CooperativeSystem:
    """`pairs` free critical 2-node blocks, each feeding its own sub-critical
    2-node block by one link: n = 4 * pairs and one basis column per pair."""
    b = 4 * np.arange(pairs)
    rows = np.concatenate([b + 1, b, b + 3, b + 2, b + 2, b, b + 1, b + 2, b + 3])
    cols = np.concatenate([b, b + 1, b + 2, b + 3, b + 1, b, b + 1, b + 2, b + 3])
    vals = np.concatenate([np.ones(5 * pairs), np.full(2 * pairs, -1.0), np.full(2 * pairs, -2.0)])
    return validate((rows, cols, vals), 4 * pairs)


def test_basis_memory_follows_the_stored_entries_not_n_times_f():
    system = _paired_blocks(1000)
    cond, spectra, report = full_analysis(system)
    assert report.verdict is Verdict.MARGINALLY_STABLE and report.free.sum() == 1000
    tracemalloc.start()
    try:
        basis = steady_state_basis(cond, spectra, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak  # an n x F array alone is 32 MB
    indptr, nodes, values = basis.csc
    assert np.diff(indptr).tolist() == [4] * 1000 and values.min() > 0
    vector = basis.vectors[-1]
    assert vector.shape == (4000,) and vector[-4:].min() > 0 and not vector[:-4].any()


def test_basis_vectors_read_the_csc_columns_as_a_sequence():
    cond, spectra, report = full_analysis(_paired_blocks(3))
    basis = steady_state_basis(cond, spectra, report)
    vectors = basis.vectors
    indptr, nodes, values = basis.csc
    want = np.zeros((3, 12))
    for c in range(3):
        want[c, nodes[indptr[c]:indptr[c + 1]]] = values[indptr[c]:indptr[c + 1]]
    assert len(vectors) == 3 and np.array(vectors).tobytes() == want.tobytes()
    assert [v.tobytes() for v in vectors] == [w.tobytes() for w in want]
    assert vectors[-1].tobytes() == vectors[np.int64(2)].tobytes() == want[2].tobytes()
    for cut in (slice(1, None), slice(None, None, -2), slice(5, 9)):
        got = vectors[cut]
        assert isinstance(got, tuple) and [v.tobytes() for v in got] == [w.tobytes() for w in want[cut]]
    assert not any(v.flags.writeable for v in vectors)
    assert vectors[0] is not vectors[0]  # built on every read, so `in` compares arrays
    with pytest.raises(IndexError):
        vectors[3]
    with pytest.raises(ValueError, match="ambiguous"):
        vectors[0] in vectors


def _signed_zero_system() -> CooperativeSystem:
    """Free singleton 0 feeds the sub-critical block {1, 2} by a negative
    coupling of -5e-324 (the system is not validated). Its solve gives
    [-0.0, -5e-324]; the tiny negative entry is clamped to +0.0, the -0.0
    stays."""
    cells = {(1, 1): -2.1144096457611505, (1, 2): 1.312335398111254,
             (2, 1): 1.3800981213040697, (2, 2): -2.2790663035336154, (2, 0): -5e-324}
    keys = sorted(cells)
    return CooperativeSystem(
        n=3,
        coo=(np.array([i for i, _ in keys]), np.array([j for _, j in keys]),
             np.array([cells[key] for key in keys])),
        node_labels=("a", "b", "c"),
    )


def test_csc_stores_every_nonzero_and_negative_zero_of_the_reference():
    systems = [_signed_zero_system()] + [_planted_system(7000 + t, "none") for t in range(40)]
    systems += [generate_marginally_stable(GeneratorSpec(seed=t)) for t in range(10)]
    signed_zeros = 0
    for system in systems:
        cond, spectra, report = full_analysis(system)
        if report.verdict is Verdict.UNSTABLE and isinstance(report.unstable_reason, SuperCriticalBlock):
            continue
        if report.verdict is Verdict.ASYMPTOTICALLY_STABLE:
            continue
        basis = steady_state_basis(cond, spectra, report, force=True)
        want = np.array(reference_steady_state_basis(cond, spectra, report, force=True).vectors)
        indptr, nodes, values = basis.csc
        assert not any(a.flags.writeable for a in basis.csc)
        assert indptr[0] == 0 and len(indptr) == len(want) + 1 and (np.diff(indptr) >= 0).all()
        stored = np.zeros(want.shape, dtype=bool)
        for c, (a, b) in enumerate(zip(indptr, indptr[1:])):
            assert (np.diff(nodes[a:b]) > 0).all()  # ascending within a column
            assert values[a:b].tobytes() == want[c, nodes[a:b]].tobytes()
            stored[c, nodes[a:b]] = True
        assert not (~stored & ((want != 0) | np.signbit(want))).any()  # the rest is +0.0
        signed_zeros += int((np.signbit(values) & (values == 0)).sum())
        got = basis.vectors
        assert len(got) == len(want) and np.array(got).tobytes() == want.tobytes()
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    assert signed_zeros == 1


# ---------------------------------------------------------------------------
# path-sum cross-validation
# ---------------------------------------------------------------------------

def test_path_sum_single_edge_is_the_coupling():
    _, cond, spectra = _analyze([[0, 0], [1, -2]])
    np.testing.assert_array_equal(path_sum_matrix(cond, spectra, 1, 0), [[1.0]])


def test_path_sum_chain_matches_recursion():
    _, cond, spectra = _analyze([[0, 0, 0], [1, -1, 0], [0, 1, -1]])
    rec = steady_state_basis(cond, spectra).vectors[0]
    ps = steady_state_by_path_sum(cond, spectra, 0)
    np.testing.assert_allclose(rec, [1.0, 1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(ps, rec, atol=1e-12)


def test_path_sum_diamond_sums_both_routes():
    a = np.zeros((4, 4))
    a[1, 0] = a[2, 0] = 1.0
    a[3, 1] = a[3, 2] = 1.0
    a[1, 1] = a[2, 2] = a[3, 3] = -1.0
    _, cond, spectra = _analyze(a)
    p = path_sum_matrix(cond, spectra, 3, 0)
    np.testing.assert_allclose(p, [[2.0]], atol=1e-14)
    rec = steady_state_basis(cond, spectra).vectors[0]
    ps = steady_state_by_path_sum(cond, spectra, 0)
    np.testing.assert_allclose(rec, [1.0, 1.0, 1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(ps, rec, atol=1e-12)


def test_path_sum_block_budget():
    a = np.diag([0.0] + [-1.0] * 12) + np.eye(13, k=-1)  # a chain of 13 singletons
    _, cond, spectra = _analyze(a)
    assert cond.h == 13
    with pytest.raises(TooManyBlocks):
        path_sum_matrix(cond, spectra, 12, 0)


@pytest.mark.parametrize("seed", range(20))
def test_path_sum_equals_recursion_random(seed):
    spec = GeneratorSpec(topology="random-dag", num_blocks=(2, 6), block_size=(1, 2), seed=seed)
    system = generate_marginally_stable(spec)
    cond, spectra, report = full_analysis(system)
    basis = steady_state_basis(cond, spectra, report)
    for k, vec in zip(basis.free_blocks, basis.vectors):
        ps = steady_state_by_path_sum(cond, spectra, k)
        np.testing.assert_allclose(ps, vec, rtol=0, atol=1e-10 * max(1.0, vec.max()))


# ---------------------------------------------------------------------------
# properties on generated systems
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(25))
def test_nullspace_dimension_and_residuals(seed):
    system = generate_marginally_stable(GeneratorSpec(seed=seed))
    cond, spectra, report = full_analysis(system)
    assert report.verdict is Verdict.MARGINALLY_STABLE
    basis = steady_state_basis(cond, spectra, report)
    a = system.to_dense()
    scale = max(1.0, np.abs(a).sum(axis=1).max())
    for k, vec in zip(basis.free_blocks, basis.vectors):
        assert np.all(vec >= 0)
        assert vec.max() > 0
        assert np.max(np.abs(a @ vec)) <= 1e-10 * scale * vec.max()
        assert vec[nodes_of(cond, k)].min() > 0
    sv = np.linalg.svd(a, compute_uv=False)
    nullity = int(np.sum(sv <= 1e-10 * scale))
    assert len(basis.vectors) == report.geometric_multiplicity_zero == nullity


@pytest.mark.parametrize("seed", range(15))
def test_sub_critical_zero_iff_all_immediate_sources_zero(seed):
    """On a generic positive combination of the basis, a sub-critical block
    vanishes exactly when everything immediately upstream of it vanishes."""
    system = generate_marginally_stable(
        GeneratorSpec(topology="random-dag", num_blocks=(2, 5), seed=seed)
    )
    cond, spectra, report = full_analysis(system)
    basis = steady_state_basis(cond, spectra, report)
    combined = np.sum(basis.vectors, axis=0)

    def block_zero(k):
        return not combined[nodes_of(cond, k)].any()

    preds = {k: [] for k in range(cond.h)}
    for l, k in dag_edges(cond):
        preds[k].append(l)
    from coopstab import BlockClass

    for k in range(cond.h):
        if spectra.classification[k] is BlockClass.SUB_CRITICAL:
            sources_zero = all(block_zero(l) for l in preds[k])
            assert block_zero(k) == sources_zero


@pytest.mark.parametrize("seed", range(30))
def test_verdict_trichotomy(seed):
    spec = GeneratorSpec(
        classes=("sub-critical", "critical", "super-critical"),
        topology=("chain", "diamond", "forest", "random-dag")[seed % 4],
        seed=seed,
    )
    system = generate(spec)
    _, _, report = full_analysis(system)
    assert report.verdict in (
        Verdict.ASYMPTOTICALLY_STABLE,
        Verdict.MARGINALLY_STABLE,
        Verdict.UNSTABLE,
    )
    if report.verdict is Verdict.MARGINALLY_STABLE:
        assert report.algebraic_multiplicity_zero == report.geometric_multiplicity_zero >= 1
    if report.verdict is Verdict.ASYMPTOTICALLY_STABLE:
        assert report.algebraic_multiplicity_zero == 0


def test_find_traps():
    # a critical block with an outgoing link is not a trap
    _, cond, spectra = _analyze([[0, 0], [1, -2]])
    assert find_traps(cond, spectra) == ()
    _, cond, spectra = _analyze([[-1, 0], [1, 0]])
    assert find_traps(cond, spectra) == (1,)


# ---------------------------------------------------------------------------
# level-scheduled sweep against the block-by-block reference
# ---------------------------------------------------------------------------

PLANTS = ("none", "negative", "singular", "overflow")


def _planted_system(seed: int, plant: str) -> CooperativeSystem:
    """A random block DAG mixing long singleton chains with multi-node
    blocks, critical singletons (diagonal 0) anywhere, so some lie downstream
    of others, and failures planted at random levels: negative couplings
    (the system is not validated; tiny ones leave entries to clamp),
    near-singular sub-critical blocks, or couplings of 1e300 whose products
    overflow."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 16))
    sizes = np.where(rng.random(m) < 0.6, 1, rng.integers(2, 5, m))
    sizes[0] = 1
    critical = (sizes == 1) & (rng.random(m) < 0.2)
    critical[0] = True
    start = np.cumsum(sizes) - sizes
    n = int(sizes.sum())
    cells = {}
    for b in range(m):
        s, d = int(start[b]), int(sizes[b])
        if d == 1:
            if not critical[b]:
                cells[s, s] = -rng.uniform(0.2, 2.0)
            continue
        mat = np.zeros((d, d))
        for t in range(d):
            mat[(t + 1) % d, t] = rng.uniform(0.5, 1.5)
        extra = (rng.random((d, d)) < 0.3) & ~np.eye(d, dtype=bool)
        mat[extra] = rng.uniform(0.5, 1.5, extra.sum())
        near_singular = plant == "singular" and rng.random() < 0.5
        mat[np.diag_indices(d)] = -mat.sum(axis=0) - (3e-14 if near_singular else rng.uniform(0.2, 1))
        for i, j in zip(*np.nonzero(mat)):
            cells[s + i, s + j] = mat[i, j]
    cross = []
    for b in range(1, m):
        for a in range(b):
            if (a == b - 1 and rng.random() < 0.7) or rng.random() < 0.25:
                for _ in range(int(rng.integers(1, 4))):
                    i = int(start[b] + rng.integers(sizes[b]))
                    j = int(start[a] + rng.integers(sizes[a]))
                    cells[i, j] = rng.uniform(0.1, 3.0)
                    cross.append((i, j))
    if cross and plant in ("negative", "overflow"):
        for t in rng.choice(len(cross), size=min(len(cross), int(rng.integers(1, 4))), replace=False):
            if plant == "overflow":
                cells[cross[t]] = 1e300
            else:  # a tiny negative is clamped to zero, a large one raises
                cells[cross[t]] = -rng.uniform(1, 5) * (1e-12 if rng.random() < 0.5 else 1.0)
    perm = rng.permutation(n)
    keys = list(cells)
    rng.shuffle(keys)
    return CooperativeSystem(
        n=n,
        coo=(perm[[i for i, _ in keys]], perm[[j for _, j in keys]],
             np.array([cells[key] for key in keys])),
        node_labels=tuple(str(i) for i in range(n)),
    )


def _outcome(build, *args, **kwargs):
    """Vectors as bytes, or the exception's type, message and fields."""
    try:
        basis = build(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc), vars(exc)
    assert all(not v.flags.writeable for v in basis.vectors)
    return basis.free_blocks, [v.tobytes() for v in basis.vectors]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("plant", PLANTS)
def test_level_sweep_matches_block_by_block_reference(plant):
    opts = SpectralOptions(crit_tol_rel=1e-15)
    seen = set()
    for seed in range(150):
        system = _planted_system(7000 + seed, plant)
        cond = condense(system)
        spectra = analyze_all_blocks(cond, opts)
        report = verdict(cond, spectra)
        for force in (False, True):
            got = _outcome(steady_state_basis, cond, spectra, report, force=force)
            want = _outcome(reference_steady_state_basis, cond, spectra, report, force=force)
            assert got == want, (seed, force)
            seen.add(got[0] if isinstance(got[0], type) else "vectors")
    expected = {"vectors", NotMarginallyStable, {
        "none": "vectors", "negative": NegativeSteadyStateEntry,
        "singular": SingularSubCriticalSolve, "overflow": NonFiniteResult,
    }[plant]}
    assert expected <= seen


def test_level_sweep_raises_for_lowest_block_at_a_later_level():
    # n0 critical feeds n1 and n3; n1 feeds n2. Blocks are n0, n1, n2, n3 in
    # that order, so B2 (level 2) and B3 (level 1) both get a negative entry
    system = CooperativeSystem(
        n=4,
        coo=(np.array([1, 1, 2, 2, 3, 3]), np.array([0, 1, 1, 2, 0, 3]),
             np.array([1.0, -1.0, -2.0, -1.0, -3.0, -1.0])),
        node_labels=("a", "b", "c", "d"),
    )
    cond = condense(system)
    spectra = analyze_all_blocks(cond)
    assert block_nodes(cond) == [(0,), (1,), (2,), (3,)]
    with pytest.raises(NegativeSteadyStateEntry) as exc:
        steady_state_basis(cond, spectra)
    assert (exc.value.block_index, exc.value.node, exc.value.value) == (2, 2, -2.0)
    with pytest.raises(NegativeSteadyStateEntry) as ref:
        reference_steady_state_basis(cond, spectra)
    assert vars(ref.value) == vars(exc.value)


def _grouped_case(case: str) -> CooperativeSystem:
    """Hand-built block DAGs for the grouped multi-node solves. Free blocks
    are critical singletons without a diagonal entry; every other block is a
    ring with random chords whose diagonal cancels its column sums less a
    slack, so it is sub-critical (the system is not validated, so couplings
    may be negative)."""
    rng = np.random.default_rng(11)
    cells: dict[tuple[int, int], float] = {}

    def ring(start: int, d: int) -> None:
        mat = np.zeros((d, d))
        for t in range(d):
            mat[(t + 1) % d, t] = rng.uniform(0.5, 1.5)
        chords = (rng.random((d, d)) < 0.4) & ~np.eye(d, dtype=bool)
        mat[chords] = rng.uniform(0.5, 1.5, chords.sum())
        mat[np.diag_indices(d)] = -mat.sum(axis=0) - rng.uniform(0.2, 1.0, d)
        cells.update(((start + i, start + j), mat[i, j]) for i, j in zip(*np.nonzero(mat)))

    if case == "sizes 2, 3, 3, 5 on one level":
        n = 15  # free 0 and 1; blocks {2, 3}, {4..6}, {7..9}, {10..14}
        for start, d in ((2, 2), (4, 3), (7, 3), (10, 5)):
            ring(start, d)
        cells.update({(2, 0): 0.8, (4, 0): 1.1, (6, 1): 0.6, (8, 1): 1.3, (12, 0): 0.9,
                      (14, 1): 0.7, (13, 0): 1.2})
    elif case == "two sources, zero columns":
        # free 0, 1, 2; singleton 3 holds exactly 1.0 in column 0. Block
        # {4, 5, 6} is fed by 0 and 1 on level 2: its column 0 cancels to
        # zero, column 2 has no inflow. {7, 8} is fed by 0 and 2 on level 1,
        # {9, 10, 11} by 3 on level 2; the inflow of {12, 13} cancels.
        n = 14
        cells[3, 3] = -1.0
        for start, d in ((4, 3), (7, 2), (9, 3), (12, 2)):
            ring(start, d)
        cells.update({(3, 0): 1.0, (4, 0): 1.0, (4, 3): -1.0, (5, 1): 0.7, (7, 0): 0.4,
                      (8, 2): 1.5, (9, 3): 0.5, (12, 0): 1.0, (12, 3): -1.0})
    elif " in one group" in case:
        # free 0 and 1; singleton 2 feeds {3, 4} (block 3, level 2); blocks
        # 4 and 5, a singular one and a negative one (two bad columns), and
        # a sound one share level 1
        n = 11
        sing, neg = (5, 7) if case.startswith("singular below") else (7, 5)
        cells[2, 2] = -1.0
        for start in (3, neg, 9):
            ring(start, 2)
        eps = 1e-14
        cells.update({(sing, sing): -1.0 - eps, (sing, sing + 1): 1.0,
                      (sing + 1, sing): 1.0, (sing + 1, sing + 1): -1.0 - eps})
        lower_fails = case.endswith("a lower block fails later")
        cells.update({(2, 0): 1.0, (3, 2): -1.0 if lower_fails else 1.0, (sing, 0): 1.0,
                      (neg, 0): -2.0, (neg + 1, 1): -3.0, (9, 0): 1.0, (10, 1): 0.5})
    elif case == "overflowing column":
        # free 0 and 1; singleton 2 takes 1.0 from 1. {3, 4, 5} takes 1e300
        # from 0 and passes 1e300 on to {6, 7}, whose column 0 overflows;
        # {6, 7} and {8, 9} share level 2 and take column 1 from 2, where
        # only the solve with {8, 9}'s own factors keeps its entries positive
        n = 10
        cells[2, 2] = -1.0
        ring(3, 3)
        cells.update({(6, 6): -1.0, (6, 7): 0.1, (7, 6): 0.1, (7, 7): -1.0,
                      (8, 8): -1.0, (8, 9): 0.9, (9, 8): 0.9, (9, 9): -1.0})
        cells.update({(2, 1): 1.0, (3, 0): 1e300, (6, 4): 1e300, (7, 2): 1.0, (8, 2): 1.0,
                      (9, 2): -0.5})
    keys = sorted(cells)
    return CooperativeSystem(
        n=n,
        coo=(np.array([i for i, _ in keys]), np.array([j for _, j in keys]),
             np.array([cells[key] for key in keys])),
        node_labels=tuple(str(i) for i in range(n)),
    )


GROUPED_CASES = {
    "sizes 2, 3, 3, 5 on one level": "vectors",
    "two sources, zero columns": "vectors",
    "singular below negative in one group": (SingularSubCriticalSolve, 4),
    "negative below singular in one group": (NegativeSteadyStateEntry, 4),
    "singular below negative in one group, a lower block fails later": (NegativeSteadyStateEntry, 3),
    "overflowing column": NonFiniteResult,
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", GROUPED_CASES)
def test_grouped_solves_match_block_by_block_reference_bitwise(case):
    cond = condense(_grouped_case(case))
    spectra = analyze_all_blocks(cond, SpectralOptions(crit_tol_rel=1e-15))
    multi = np.flatnonzero(np.diff(cond.bounds) > 1)
    assert (spectra.classification[multi] == BlockClass.SUB_CRITICAL).all()
    if case.startswith("sizes"):
        assert np.diff(cond.bounds)[multi].tolist() == [2, 3, 3, 5]
        assert (cond.level[multi] == 1).all()
    got = _outcome(steady_state_basis, cond, spectra)
    assert got == _outcome(reference_steady_state_basis, cond, spectra)
    want = GROUPED_CASES[case]
    if want == "vectors":
        assert isinstance(got[0], tuple)
    elif isinstance(want, tuple):
        assert (got[0], got[2]["block_index"]) == want
    else:
        assert got[0] is want
    if case.startswith("two sources"):  # cancelled and empty columns stay +0.0
        v = steady_state_basis(cond, spectra).vectors
        assert v[0][4:7].tobytes() == v[2][4:7].tobytes() == bytes(24)
        assert np.array(v)[:, 12:].tobytes() == bytes(48)
        assert v[1][4:7].min() > 0


def test_lu_factor_runs_once_per_multi_node_block_with_a_nonzero_right_hand_side(monkeypatch):
    import coopstab.stability as stability

    calls = []
    original = stability.lu_factor
    monkeypatch.setattr(stability, "lu_factor", lambda b: calls.append(b.shape[0]) or original(b))
    checked = 0
    systems = [_grouped_case(case) for case, want in GROUPED_CASES.items() if want == "vectors"]
    for seed, system in enumerate(systems + [_planted_system(7000 + t, "none") for t in range(60)]):
        cond = condense(system)
        spectra = analyze_all_blocks(cond)
        report = verdict(cond, spectra)
        if report.verdict is not Verdict.MARGINALLY_STABLE:
            continue
        calls.clear()
        vectors = np.array(steady_state_basis(cond, spectra, report).vectors)
        size = np.diff(cond.bounds)
        reached = [k for k in np.flatnonzero(size > 1).tolist() if vectors[:, nodes_of(cond, k)].any()
                   and spectra.classification[k] is BlockClass.SUB_CRITICAL]
        assert sorted(calls) == sorted(size[reached].tolist()), seed
        checked += bool(reached)
    assert checked >= 10


def _mixed_system():
    """300 singletons plus two multi-node blocks: node 0 (critical) feeds the
    sub-critical cycle {1, 2}, which feeds a chain of 150 singletons; the
    critical cycle {3, 4, 5} feeds another chain of 150."""
    entries = {(1, 0): 1.0, (1, 2): 1.0, (2, 1): 1.0, (1, 1): -2.0, (2, 2): -2.0}
    entries.update({(4, 3): 1.0, (5, 4): 1.0, (3, 5): 1.0})
    entries.update({(i, i): -1.0 for i in range(3, 306)})
    for head, first in ((2, 6), (3, 156)):
        for i in range(first, first + 150):
            entries[(i, i - 1 if i > first else head)] = 1.0
    return validate(entries, 306)


def test_no_block_is_built_for_a_singleton(monkeypatch, tmp_path, capsys):
    from coopstab.cli import main
    from coopstab.condensation import Condensation

    requested = []
    original = Condensation.matrix

    def spy(self, k, d=None):
        requested.append(np.atleast_1d(k).tolist())
        return original(self, k, d)
    monkeypatch.setattr(Condensation, "matrix", spy)
    system = _mixed_system()
    cond, spectra, report = full_analysis(system)
    multi = np.flatnonzero(np.diff(cond.bounds) > 1).tolist()
    assert cond.h == 303 and len(multi) == 2
    assert requested == [multi[:1], multi[1:]]  # one stack per size, no singleton
    assert report.verdict is Verdict.MARGINALLY_STABLE and report.free.sum() == 2
    requested.clear()
    basis = steady_state_basis(cond, spectra, report)
    assert requested == [multi[:1]]  # only the sub-critical cycle {1, 2} is solved from its matrix
    assert all(v[nodes_of(cond, k)].min() > 0 for k, v in zip(basis.free_blocks, basis.vectors))
    assert basis.vectors[basis.free_blocks.index(int(cond.node_to_block[0]))][[1, 2]].min() > 0

    path = tmp_path / "mixed.mtx"
    path.write_text(to_matrix_market(system))
    requested.clear()
    for command in ("analyze", "steady-state"):
        assert main([command, str(path)]) == 0
    capsys.readouterr()
    assert requested == [multi[:1], multi[1:], multi[:1], multi[1:], multi[:1]]

    columns = (spectra.mu, spectra.tolerance, spectra.classification, spectra.phi,
               report.trivial, report.free)
    assert not any(a.flags.writeable for a in columns)
    assert isinstance(spectra.phi, np.ndarray) and spectra.phi.shape == (system.n,)  # one column
    assert spectra.classification.tolist().count(BlockClass.CRITICAL) == 2


def test_direct_lapack_binding_is_scipys_bit_for_bit():
    """lu_factor and _GETRS, loaded from SciPy's LAPACK extension without the scipy.linalg
    package import, factor and solve exactly as scipy.linalg's own float64 getrf and getrs,
    on seeded Metzler blocks of size 2 to 8 and on one exactly singular block."""
    import coopstab.stability as stability

    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)
    rng = np.random.default_rng(2021)
    blocks = []
    for _ in range(300):
        d = int(rng.integers(2, 9))
        b = np.where(rng.random((d, d)) < 0.5, rng.uniform(0.0, 2.0, (d, d)), 0.0)
        np.fill_diagonal(b, -rng.uniform(0.0, 2.0 * d, d))
        blocks.append(b)
    blocks.append(np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.5, 0.5, -1.0]]))  # row 1 = -row 0
    infos = set()
    for b in blocks:
        got, want = stability.lu_factor(b), getrf(b)
        assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
        assert got[2] == want[2]
        infos.add(got[2] > 0)
        for rhs in (np.ones(len(b)), rng.uniform(-1.0, 1.0, len(b))):
            x, y = stability._GETRS(*got[:2], rhs), getrs(*want[:2], rhs)
            assert x[0].tobytes() == y[0].tobytes() and x[1] == y[1]
    assert infos == {False, True}  # the singular block reports its zero pivot


def test_lapack_loader_names_scipy_when_it_is_missing(monkeypatch):
    import importlib.util

    import coopstab.stability as stability

    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    with pytest.raises(ImportError, match="scipy"):
        stability._load_flapack()


def test_steady_state_prints_one_error_line_when_lapack_cannot_load(monkeypatch, capsys):
    """SciPy's LAPACK is loaded by the first multi-node solve; when that load fails, steady-state
    ends in one `error:` line and exit 70, and the next solve tries the load again."""
    import importlib.util
    from pathlib import Path

    import coopstab.stability as stability
    from coopstab.cli import main

    fixture = str(Path(__file__).parent / "fixtures" / "shared_cone.mtx")  # solves a multi-node block
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    monkeypatch.setattr(stability, "_lapack", None)  # as in a fresh process
    assert main(["steady-state", fixture]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scipy not found\n"
    assert stability._lapack is None
    monkeypatch.setattr(importlib.util, "find_spec", find_spec)
    assert main(["steady-state", fixture]) == 0
    assert stability._lapack is not None


def test_lapack_loads_once_under_concurrent_first_solves(monkeypatch):
    """Threads that factor their first block at once run the loader once, and all get its routines."""
    import sys
    import threading
    import time

    import coopstab.stability as stability

    loads, load = [], stability._load_flapack

    def slow_load():
        loads.append(1)
        time.sleep(0.05)  # a window for a second caller to start another load
        return load()

    monkeypatch.setattr(stability, "_load_flapack", slow_load)
    monkeypatch.setattr(stability, "_lapack", None)
    b = np.array([[-2.0, 1.0], [1.0, -3.0]])
    start, results = threading.Barrier(8), []

    def first_solve():
        start.wait(timeout=30)
        results.append(stability.lu_factor(b)[0].tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_solve) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert loads == [1]
    assert results == [scipy.linalg.lu_factor(b, check_finite=False)[0].tobytes()] * 8

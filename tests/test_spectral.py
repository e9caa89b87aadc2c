import math

import numpy as np
import pytest

from conftest import nodes_of, phi_of, reference_analyze_all_blocks, reference_dominant_eigenpair
from coopstab import (
    BlockClass,
    NoConvergence,
    NonFiniteResult,
    SpectralOptions,
    ValidationError,
    analyze_all_blocks,
    classify,
    condense,
    dominant_eigenpair,
    from_dense,
    random_critical_matrix,
    validate,
)
from coopstab import spectral
from coopstab.spectral import DEFAULT_OPTIONS
from oracles import random_metzler, spectrum_match_error


def _block(matrix):
    """A block's dense matrix, as `dominant_eigenpair` takes it."""
    return np.asarray(matrix, dtype=float)


def test_one_by_one():
    mu, phi = dominant_eigenpair(_block([[-1.0]]))
    assert mu == -1.0
    np.testing.assert_array_equal(phi, [1.0])


def test_symmetric_two_cycle():
    mu, phi = dominant_eigenpair(_block([[0, 1], [1, 0]]))
    assert abs(mu - 1.0) < 1e-12
    np.testing.assert_allclose(phi, [0.5, 0.5], atol=1e-12)


def test_zero_row_sums_force_zero_eigenvalue():
    mu, phi = dominant_eigenpair(_block([[-1, 1], [1, -1]]))
    assert abs(mu) < 1e-12
    np.testing.assert_allclose(phi, [0.5, 0.5], atol=1e-12)


def test_asymmetric_two_by_two_closed_form():
    # characteristic polynomial x^2 + 3x - 1, dominant root (-3 + sqrt(13)) / 2
    b = _block([[-2, 1], [3, -1]])
    mu, phi = dominant_eigenpair(b)
    exact = (-3 + math.sqrt(13)) / 2
    assert abs(mu - exact) < 1e-12
    # mu * (3 + mu) = 1, so the sum-normalized eigenvector is (mu, 1 - mu)
    np.testing.assert_allclose(phi, [exact, 1 - exact], atol=1e-12)
    res = np.max(np.abs(b @ phi - mu * phi))
    assert res <= 1e-12 * 4


def test_classify_bands():
    assert classify(0.0, 2.0) is BlockClass.CRITICAL
    assert classify(-1e-12, 1.0) is BlockClass.CRITICAL
    assert classify(0.3028, 4.0) is BlockClass.SUPER_CRITICAL
    assert classify(-0.5, 1.0) is BlockClass.SUB_CRITICAL
    # the band scales with the matrix norm
    assert classify(-1e-7, 1e3) is BlockClass.CRITICAL
    assert classify(-1e-7, 1.0) is BlockClass.SUB_CRITICAL


def test_analyze_all_blocks_classes():
    spectra = analyze_all_blocks(condense(from_dense([[0, 0], [1, 0]])))
    assert spectra.classification.tolist() == [BlockClass.CRITICAL] * 2

    spectra = analyze_all_blocks(condense(from_dense([[-1, 0], [1, 0]])))
    assert spectra.classification.tolist() == [
        BlockClass.SUB_CRITICAL,
        BlockClass.CRITICAL,
    ]


def test_spectrum_union_random_ten_by_ten():
    system = random_metzler(10, density=0.3, seed=42)
    assert spectrum_match_error(system) <= 1e-8


@pytest.mark.parametrize("seed", range(12))
def test_perron_dominance_and_positivity(seed):
    """The returned eigenvalue is real with strictly largest real part and a
    simple eigenvector, per the shifted Perron-Frobenius theorem."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    m = np.zeros((d, d))
    for j in range(d):
        m[(j + 1) % d, j] = rng.uniform(0.5, 1.5)
    extra = rng.random((d, d)) < 0.4
    np.fill_diagonal(extra, False)
    m[extra] += rng.uniform(0.5, 1.5, size=int(extra.sum()))
    m[np.diag_indices(d)] = rng.uniform(-2, 1, size=d)

    mu, phi = dominant_eigenpair(_block(m))
    assert phi.min() > 0
    assert abs(phi.sum() - 1.0) < 1e-12
    eigs = np.linalg.eigvals(m)
    assert abs(mu - eigs.real.max()) < 1e-9
    near_top = np.sum(eigs.real > mu - 1e-9)
    assert near_top == 1


@pytest.mark.parametrize("c", [-3.0, 0.0, 5.0])
def test_shift_invariance(c):
    base = np.array([[-2.0, 1.0], [3.0, -1.0]])
    mu0, phi0 = dominant_eigenpair(_block(base))
    mu, phi = dominant_eigenpair(_block(base + c * np.eye(2)))
    assert abs(mu - (mu0 + c)) < 1e-10
    np.testing.assert_allclose(phi, phi0, atol=1e-10)


def test_power_iteration_path_matches_dense():
    """Blocks above the dense cutoff go through power iteration."""
    rng = np.random.default_rng(3)
    d = 100
    m = np.zeros((d, d))
    for j in range(d):
        m[(j + 1) % d, j] = rng.uniform(0.5, 1.5)
    extra = rng.random((d, d)) < 0.05
    np.fill_diagonal(extra, False)
    m[extra] += rng.uniform(0.5, 1.5, size=int(extra.sum()))
    m[np.diag_indices(d)] = rng.uniform(-1, 0, size=d)

    mu, phi = dominant_eigenpair(_block(m), SpectralOptions(dense_cutoff=16))
    dense_mu = np.linalg.eigvals(m).real.max()
    assert abs(mu - dense_mu) < 1e-9
    assert phi.min() > 0


def _perron_outcome(solve, block, opts):
    try:
        mu, phi = solve(block, opts)
    except NoConvergence as exc:
        return exc.iterations, np.float64(exc.last_residual).tobytes()
    return np.float64(mu).tobytes(), phi.tobytes()


PERRON_SIZES = (2, 3, 5, 8, 9, 13, 21, 34, 55, 64, 65, 72, 81, 90)


PERRON_KINDS = ("critical", "generic", "ring", "underflow")


def _perron_test_matrix(d, kind, rng):
    """Critical blocks (row sums cancelled, so the uniform start is already
    within tolerance), generic ones, sparse rings that need many power steps,
    and blocks whose iterates are never strictly positive."""
    m = random_critical_matrix(d, seed=rng)
    if kind == "ring":
        m = np.roll(np.diag(rng.uniform(0.5, 1.5, d)), 1, axis=0)
        m[rng.integers(0, d, 3), rng.integers(0, d, 3)] += 1.0
    if kind in ("generic", "ring"):
        m[np.diag_indices(d)] = -m.sum(axis=1) + np.diag(m) - rng.uniform(0.2, 0.8, d)
    if kind == "underflow":  # two links of weight 1e-300: phi has entries below the float range
        m = np.roll(np.diag(np.r_[1e-300, 1e-300, np.ones(d - 2)]), 1, axis=0) - np.eye(d)
        m[0, 0] = -0.5
    return m


@pytest.mark.parametrize("kind", PERRON_KINDS)
@pytest.mark.parametrize("d", PERRON_SIZES)
def test_dominant_eigenpair_matches_the_two_loop_reference_bitwise(d, kind):
    """Power iteration above the cutoff, the dense fallback, and their
    NoConvergence, against the two loops the merged one replaced, on the
    kinds of `_perron_test_matrix`."""
    block = _block(_perron_test_matrix(d, kind, np.random.default_rng(d)))
    for cutoff in (64, 8):
        for max_iter in (0, 1, 17, SpectralOptions.max_iter):
            for eig_tol in (1e-12, 0.0):
                if eig_tol == 0.0 and max_iter > 17 and d > cutoff:
                    continue  # every one of 1e5 power steps would run
                opts = SpectralOptions(eig_tol=eig_tol, max_iter=max_iter, dense_cutoff=cutoff)
                got = _perron_outcome(dominant_eigenpair, block, opts)
                want = _perron_outcome(reference_dominant_eigenpair, block, opts)
                assert got == want, (cutoff, max_iter, eig_tol)


def _spectra_outcome(solve, cond, opts):
    """The bytes of every column, or what the raised error carries."""
    try:
        mu, tolerance, classification, phi = solve(cond, opts)
    except (NoConvergence, NonFiniteResult) as exc:
        residual = getattr(exc, "last_residual", None)
        residual = None if residual is None else np.float64(residual).tobytes()
        return ("raised", type(exc), str(exc), getattr(exc, "block_index", None),
                getattr(exc, "iterations", None), residual)
    return mu.tobytes(), tolerance.tobytes(), list(classification), phi.tobytes()


def _stacked(cond, opts):
    spectra = analyze_all_blocks(cond, opts)
    return spectra.mu, spectra.tolerance, spectra.classification, spectra.phi


def _stack_test_system(kind, rng):
    """Two blocks of each size 2-9, one of 63, 64 and 65 (just above the
    cutoff) in random order, two singletons, one coupling."""
    sizes = [*rng.permutation([*range(2, 10), *range(2, 10), 63, 64, 65]).tolist(), 1, 1]
    a = np.zeros((sum(sizes), sum(sizes)))
    for start, d in zip(np.cumsum(sizes) - sizes, sizes):
        a[start:start + d, start:start + d] = _perron_test_matrix(d, kind, rng) if d > 1 else -0.5
    a[sizes[0], 0] = 1.0
    return a


@pytest.mark.parametrize("kind", PERRON_KINDS)
@pytest.mark.parametrize("eig_tol", [1e-12, 3e-16, 1e-16, 0.0])
def test_stacked_solves_match_the_per_block_reference_bitwise(kind, eig_tol):
    """Many blocks per size, singletons among them, solved in stacks, against
    a per-block loop over the reference pair: each column's bytes, or the
    raised error. After an error the failing block is dropped and the rest
    solved again, twice at most, so that values are checked as well."""
    a = _stack_test_system(kind, np.random.default_rng(len(kind)))
    for cutoff in (64, 8, 0):
        for max_iter in (0, 1, SpectralOptions.max_iter):
            if eig_tol < 1e-12 and max_iter > 1:
                continue  # every one of 1e5 power steps would run on block 65
            opts = SpectralOptions(eig_tol=eig_tol, max_iter=max_iter, dense_cutoff=cutoff)
            system = a
            for _ in range(3):
                cond = condense(from_dense(system))
                got = _spectra_outcome(_stacked, cond, opts)
                assert got == _spectra_outcome(reference_analyze_all_blocks, cond, opts), (cutoff, max_iter)
                if got[0] != "raised":
                    break
                nodes = nodes_of(cond, got[3])
                system = np.delete(np.delete(system, nodes, axis=0), nodes, axis=1)


def test_chunks_of_one_matrix_change_no_bit(monkeypatch):
    cond = condense(from_dense(_stack_test_system("critical", np.random.default_rng(1))))
    opts = SpectralOptions(eig_tol=1e-16)  # some blocks take several polishing steps
    whole = _spectra_outcome(_stacked, cond, opts)
    monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", 1)
    assert _spectra_outcome(_stacked, cond, opts) == whole


def test_inf_norm_in_row_slabs_is_the_whole_sum_bitwise(monkeypatch):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 7, 7)) * 10.0 ** rng.integers(-300, 300, (6, 7, 7))
    m[0, 2, 3], m[1, 4, 4], m[2, 6, 0], m[3, 5] = np.nan, np.inf, -np.inf, 1e308  # row 5 of 3 overflows
    with np.errstate(over="ignore", invalid="ignore"):
        whole = np.max(np.sum(np.abs(m), axis=2), axis=1)
    for entries in (1, 84, 126, 294, 1 << 20):  # slabs of 1, 2, 3 and 7 rows, then the whole stack
        monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", entries)
        assert spectral._inf_norm(m).tobytes() == whole.tobytes(), entries


@pytest.mark.parametrize("diagonal", [np.inf, -np.inf, np.nan, 1e308])
def test_an_infinite_shift_fails_as_an_overflow(diagonal):
    """The shift is added on a copy's diagonal in place; an infinite one must still fail."""
    with pytest.raises(NonFiniteResult, match=r"^block 0: shifted matrix overflows$"):
        dominant_eigenpair(_block([[diagonal, 1], [1, 0]]))


def test_dominant_eigenpair_names_the_block_it_is_given():
    with pytest.raises(NonFiniteResult, match=r"^block 4: shifted matrix overflows$"):
        dominant_eigenpair(_block([[1e308, 1], [1, 0]]), block=4)
    with pytest.raises(NonFiniteResult, match=r"^block 0: shifted matrix overflows$"):
        dominant_eigenpair(_block([[1e308, 1], [1, 0]]))
    with pytest.raises(NoConvergence, match=r"\(block 7\)") as exc:
        dominant_eigenpair(_block([[-2, 1], [3, -1]]), SpectralOptions(eig_tol=0.0), block=7)
    assert exc.value.block_index == 7


def test_unreachable_tolerance_reports_no_convergence():
    opts = SpectralOptions(eig_tol=0.0)
    with pytest.raises(NoConvergence) as exc:
        dominant_eigenpair(_block([[-2, 1], [3, -1]]), opts)
    assert exc.value.iterations > 0
    assert exc.value.last_residual > 0


TOLERANCE_VALUES = [(field, value) for field in ("crit_tol_rel", "eig_tol", "residual_tol")
                    for value in (-1.0, -1e-300, math.nan, math.inf)]
LIMIT_VALUES = [(field, value) for field in ("max_iter", "dense_cutoff")
                for value in (-1, True, 2.0, None)]


@pytest.mark.parametrize("field, value", TOLERANCE_VALUES + LIMIT_VALUES,
                         ids=[f"{value}-{field}" for field, value in TOLERANCE_VALUES + LIMIT_VALUES])
def test_tolerances_must_be_finite_and_non_negative(field, value):
    with pytest.raises(ValidationError, match=field):
        SpectralOptions(**{field: value})
    zero = type(getattr(DEFAULT_OPTIONS, field))(0)  # 0 is legal: dense solve only, for max_iter
    assert getattr(SpectralOptions(**{field: zero}), field) == 0


def test_analyze_all_blocks_tags_block_index():
    opts = SpectralOptions(eig_tol=0.0)
    cond = condense(
        validate({(0, 0): -2.0, (0, 1): 1.0, (1, 0): 3.0, (1, 1): -1.0}, 2)
    )
    with pytest.raises(NoConvergence) as exc:
        analyze_all_blocks(cond, opts)
    assert exc.value.block_index == 0


def _chained(*blocks):
    """Blocks numbered in the order given: each feeds the next by one link."""
    sizes = [len(b) for b in blocks]
    starts = np.cumsum(sizes) - sizes
    a = np.zeros((sum(sizes), sum(sizes)))
    for start, b in zip(starts, blocks):
        a[start:start + len(b), start:start + len(b)] = b
    a[starts[1:], starts[:-1]] = 1.0
    return condense(from_dense(a))


NON_CONVERGING = _perron_test_matrix(70, "generic", np.random.default_rng(70))  # at eig_tol 0
SMALL_NON_CONVERGING = _perron_test_matrix(2, "generic", np.random.default_rng(2))
ROW_SUM_OVERFLOW = [[-1e308, 1e308], [1.0, -1.0]]
SHIFT_OVERFLOW = [[1e308, 1.0], [1.0, -1.0]]


@pytest.mark.parametrize("blocks, raised", [
    ((NON_CONVERGING, ROW_SUM_OVERFLOW), NoConvergence),
    ((ROW_SUM_OVERFLOW, NON_CONVERGING), NonFiniteResult),
    ((SHIFT_OVERFLOW, ROW_SUM_OVERFLOW), NonFiniteResult),
    ((ROW_SUM_OVERFLOW, SHIFT_OVERFLOW), NonFiniteResult),
    ((SMALL_NON_CONVERGING, SHIFT_OVERFLOW), NoConvergence),
    ((SHIFT_OVERFLOW, SMALL_NON_CONVERGING), NonFiniteResult),
], ids=["power-then-row-sum", "row-sum-then-power", "shift-then-row-sum", "row-sum-then-shift",
        "stacked-no-convergence-then-shift", "stacked-shift-then-no-convergence"])
def test_lowest_failing_block_raises_whatever_the_kind_or_route(blocks, raised):
    """Block 0 fails one way and a later block another, on the per-block
    power route (70 nodes, max_iter=1) or in a stack of one size."""
    cond = _chained(*map(np.asarray, blocks))
    opts = SpectralOptions(eig_tol=0.0, max_iter=1)
    with pytest.raises(raised, match=r"\bblock 0\b"):
        analyze_all_blocks(cond, opts)
    want = _spectra_outcome(reference_analyze_all_blocks, cond, opts)
    assert _spectra_outcome(_stacked, cond, opts) == want


@pytest.mark.parametrize("blocks", [(ROW_SUM_OVERFLOW, NON_CONVERGING), (SHIFT_OVERFLOW, SMALL_NON_CONVERGING)],
                         ids=["row-sum-then-power", "shift-then-stacked"])
def test_no_block_past_a_failure_is_solved(blocks, monkeypatch):
    """Block 0 fails first (sizes are solved in ascending order, one matrix
    per chunk here), so block 1 cannot change the error and is never solved."""
    cond = _chained(*map(np.asarray, blocks))
    solved, perron = [], spectral._perron

    def spy(b, index, opts):
        solved.extend(index.tolist())
        return perron(b, index, opts)
    monkeypatch.setattr(spectral, "_perron", spy)
    monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", 1)
    with pytest.raises(NonFiniteResult, match=r"\bblock 0\b"):
        analyze_all_blocks(cond, SpectralOptions(eig_tol=0.0, max_iter=1))
    assert 1 not in solved


def test_residual_meets_contract():
    """Eigenpair residual stays within ten times the steady-state scale."""
    opts = SpectralOptions()
    for seed in range(8):
        system = random_metzler(8, density=0.4, seed=seed)
        cond = condense(system)
        spectra = analyze_all_blocks(cond, opts)
        for k in range(cond.h):
            matrix, mu, phi = cond.matrix(k), spectra.mu[k], phi_of(cond, spectra, k)
            scale = max(1.0, np.abs(matrix).sum(axis=1).max())
            res = np.max(np.abs(matrix @ phi - mu * phi))
            assert res <= 10 * opts.residual_tol * scale
            assert spectra.tolerance[k] == opts.crit_tol_rel * scale

import math

import numpy as np
import pytest

from conftest import entry_dict, nullspace_projector
from coopstab import (
    GapTooSmall,
    GeneratorSpec,
    InfeasibleSpec,
    NonFiniteResult,
    TooLargeForDense,
    ValidationError,
    Verdict,
    dense_verdict,
    expm_limit_check,
    from_dense,
    full_analysis,
    generate,
    generate_compartmental,
    generate_with_plan,
    is_compartmental,
    random_critical_matrix,
    random_metzler,
    simulate,
    steady_state_basis,
    validate,
)


def _block(matrix):
    """A block's dense matrix, as `expm_limit_check` takes it."""
    return np.asarray(matrix, dtype=float)


# ---------------------------------------------------------------------------
# dense verdict
# ---------------------------------------------------------------------------

def test_dense_verdict_jordan_block():
    dv = dense_verdict(from_dense([[0, 0], [1, 0]]))
    assert dv.algebraic_multiplicity_zero == 2
    assert dv.geometric_multiplicity_zero == 1
    assert dv.verdict is Verdict.UNSTABLE


def test_dense_verdict_marginal():
    dv = dense_verdict(from_dense([[-1, 0], [1, 0]]))
    assert dv.algebraic_multiplicity_zero == 1
    assert dv.geometric_multiplicity_zero == 1
    assert dv.verdict is Verdict.MARGINALLY_STABLE
    assert abs(dv.dominant_real) < 1e-12


def test_dense_verdict_asymptotically_stable():
    dv = dense_verdict(from_dense([[-1, 0], [1, -1]]))
    assert dv.verdict is Verdict.ASYMPTOTICALLY_STABLE
    assert dv.algebraic_multiplicity_zero == 0


def test_dense_verdict_size_limit():
    with pytest.raises(TooLargeForDense):
        dense_verdict(validate({}, 501))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_scalar_decay():
    traj = simulate(from_dense([[-1.0]]), [1.0], [1.0])
    assert abs(traj[0, 0] - math.exp(-1)) < 1e-12


def test_nilpotent_linear_growth():
    traj = simulate(from_dense([[0, 0], [1, 0]]), [1.0, 0.0], [10.0])
    np.testing.assert_allclose(traj[0], [1.0, 10.0], atol=1e-12)


def test_marginal_trajectory_reaches_nullspace_projection():
    system = from_dense([[0, 0, 0], [0, 0, 0], [1, 2, -1]])
    cond, spectra, report = full_analysis(system)
    basis = steady_state_basis(cond, spectra, report)
    p = nullspace_projector(system.to_dense(), basis.vectors)
    m0 = np.array([0.3, 1.1, 0.2])
    traj = simulate(system, m0, [100.0])
    np.testing.assert_allclose(traj[0], p @ m0, atol=1e-6)


def test_simulate_input_checks():
    system = from_dense([[-1.0]])
    with pytest.raises(ValidationError):
        simulate(system, [-1.0], [1.0])
    with pytest.raises(ValidationError):
        simulate(system, [1.0], [2.0, 1.0])


@pytest.mark.parametrize("seed", range(10))
def test_marginal_trajectories_stay_bounded(seed):
    """For a diagonalizable marginally stable system, ||m(t)|| never exceeds
    the eigenbasis condition number times ||m0||."""
    from coopstab import GeneratorSpec, generate_marginally_stable

    system = generate_marginally_stable(GeneratorSpec(seed=200 + seed))
    a = system.to_dense()
    _, vecs = np.linalg.eig(a)
    kappa = np.linalg.cond(vecs)
    if kappa > 1e6:  # numerically defective; the bound does not apply
        pytest.skip("eigenbasis too ill-conditioned for the diagonalizable bound")
    rng = np.random.default_rng(seed)
    m0 = rng.uniform(0.1, 1.0, size=system.n)
    traj = simulate(system, m0, list(np.logspace(-1, 2, 12)))
    sup = np.max(np.abs(traj))
    assert sup <= 10 * kappa * np.max(np.abs(m0))


@pytest.mark.parametrize("seed", range(10))
def test_asymptotically_stable_trajectories_decay(seed):
    """All-sub-critical systems with a healthy measured gap are far below
    1e-6 of the initial mass by t = 100."""
    from conftest import spectral_gap
    from coopstab import GeneratorSpec

    system = generate(GeneratorSpec(classes=("sub-critical",), seed=300 + seed))
    if spectral_gap(system.to_dense()) < 0.05:
        pytest.skip("gap below the bound's applicability filter")
    _, _, report = full_analysis(system)
    assert report.verdict is Verdict.ASYMPTOTICALLY_STABLE
    rng = np.random.default_rng(seed)
    m0 = rng.uniform(0.1, 1.0, size=system.n)
    at_100 = simulate(system, m0, [100.0])[0]
    assert np.max(np.abs(at_100)) <= 1e-6 * np.max(np.abs(m0))


@pytest.mark.parametrize("seed", range(5))
def test_semigroup_property(seed):
    system = random_metzler(6, density=0.3, seed=seed)
    rng = np.random.default_rng(seed)
    m0 = rng.uniform(0.1, 1.0, size=6)
    t, s = 0.7, 1.9
    one_hop = simulate(system, m0, [t + s])[0]
    two_hop = simulate(system, simulate(system, m0, [s])[0], [t])[0]
    np.testing.assert_allclose(one_hop, two_hop, atol=1e-9 * max(1, one_hop.max()))


# ---------------------------------------------------------------------------
# limit check
# ---------------------------------------------------------------------------

def test_limit_check_symmetric_two_by_two():
    result = expm_limit_check(_block([[-1, 1], [1, -1]]))
    assert result.residual < 1e-8
    assert result.gap == pytest.approx(2.0)


def test_limit_check_trivial_single_node():
    result = expm_limit_check(_block([[0.0]]))
    assert result.residual == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_limit_check_random_critical(seed):
    d = 2 + seed % 4
    result = expm_limit_check(_block(random_critical_matrix(d, seed=seed)))
    assert result.residual < 1e-6


def test_limit_check_refuses_an_infinite_gap():
    # eigenvalues +-1e308: the gap overflows, and a horizon of 50 / inf = 0 would certify nothing
    with pytest.raises(NonFiniteResult, match=r"^block 3: eigenvalues or spectral gap not finite$"):
        expm_limit_check(_block([[0, 1e308], [1e308, 0]]), block=3)


def test_limit_check_gap_too_small():
    w = 2.5e-10
    with pytest.raises(GapTooSmall):
        expm_limit_check(_block([[-w, w], [w, -w]]))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_planted_critical_singletons_no_edges():
    spec = GeneratorSpec(
        topology="forest",
        planted=((1, "critical"), (1, "critical")),
        edge_density=0.0,
        shuffle_nodes=False,
    )
    system = generate(spec)
    np.testing.assert_array_equal(system.to_dense(), np.zeros((2, 2)))


def test_generate_deterministic_per_seed():
    spec = GeneratorSpec(seed=42)
    assert entry_dict(generate(spec)) == entry_dict(generate(spec))
    other = GeneratorSpec(seed=43)
    assert entry_dict(generate(other)) != entry_dict(generate(spec))


@pytest.mark.parametrize("seed", range(40))
def test_planted_classes_recovered(seed):
    spec = GeneratorSpec(
        classes=("sub-critical", "critical", "super-critical"), seed=seed
    )
    system, plan = generate_with_plan(spec)
    cond, spectra, _ = full_analysis(system)
    sizes = np.diff(cond.bounds).tolist()
    assert sorted((d, c.value) for d, c in zip(sizes, spectra.classification)) \
        == sorted((size, klass) for size, klass in plan)


def test_critical_matrix_plants_zero_within_rounding():
    for seed in range(6):
        m = random_critical_matrix(5, seed=seed)
        assert np.max(np.abs(m @ np.ones(5))) < 1e-13
        assert abs(np.linalg.eigvals(m).real.max()) < 1e-13


@pytest.mark.parametrize("seed", range(10))
def test_compartmental_has_one_trap(seed):
    system = generate_compartmental(seed=seed)
    assert is_compartmental(system)
    cond, spectra, report = full_analysis(system)
    assert report.verdict is Verdict.MARGINALLY_STABLE
    assert report.geometric_multiplicity_zero == 1
    from coopstab import find_traps

    assert len(find_traps(cond, spectra)) == 1


def test_infeasible_specs_rejected():
    with pytest.raises(InfeasibleSpec):
        generate(GeneratorSpec(topology="ring"))
    with pytest.raises(InfeasibleSpec):
        generate(GeneratorSpec(classes=()))
    with pytest.raises(InfeasibleSpec):
        generate(GeneratorSpec(edge_density=1.5))
    with pytest.raises(InfeasibleSpec):
        generate(GeneratorSpec(num_blocks=(3, 2)))
    with pytest.raises(InfeasibleSpec):
        generate(GeneratorSpec(planted=((0, "critical"),)))


def test_random_metzler_is_valid():
    system = random_metzler(12, density=0.4, seed=9)
    a = system.to_dense()
    off = a - np.diag(np.diag(a))
    assert np.all(off >= 0)

"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass line (run with -s to see them; a failed assert fails the criterion).
"""
import time

import numpy as np

from conftest import nodes_of, nullspace_projector, spectral_gap
from coopstab import (
    GeneratorSpec,
    Verdict,
    dense_verdict,
    expm_limit_check,
    find_traps,
    from_dense,
    full_analysis,
    generate,
    generate_compartmental,
    generate_marginally_stable,
    is_compartmental,
    random_critical_matrix,
    random_metzler,
    simulate,
    spectrum_match_error,
    steady_state_basis,
    steady_state_by_path_sum,
    trivial_blocks,
)

TOPOLOGIES = ("chain", "diamond", "forest", "random-dag")
CLASS_MIXES = (
    ("sub-critical",),
    ("sub-critical", "critical"),
    ("sub-critical", "critical", "super-critical"),
)


def _marginal_fixture(count, *, num_blocks=(1, 4), block_size=(1, 3), base_seed=0):
    systems = []
    for i in range(count):
        spec = GeneratorSpec(
            topology=TOPOLOGIES[i % 4],
            num_blocks=num_blocks,
            block_size=block_size,
            seed=base_seed + i,
        )
        systems.append(generate_marginally_stable(spec))
    return systems


def test_criterion_1_oracle_verdict_equivalence():
    """Diakoptic verdict equals the dense spectral verdict on >= 1000 planted
    systems across all topology families and class mixes."""
    start = time.monotonic()
    checked = 0
    for topology in TOPOLOGIES:
        for mix_index, mix in enumerate(CLASS_MIXES):
            for seed in range(85):
                spec = GeneratorSpec(
                    topology=topology,
                    classes=mix,
                    seed=100_000 * mix_index + 1000 * seed + TOPOLOGIES.index(topology),
                )
                system = generate(spec)
                assert system.n <= 12
                _, _, report = full_analysis(system)
                oracle = dense_verdict(system)
                assert report.verdict is oracle.verdict, (
                    topology, mix, seed, report.verdict, oracle.verdict
                )
                checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 1000
    assert elapsed < 120.0
    print(f"\n[criterion 1] PASS: {checked} systems, verdicts identical, {elapsed:.1f}s")


def test_criterion_2_spectrum_union():
    """Block spectra, as a multiset, reproduce the spectrum of A to 1e-8."""
    worst = 0.0
    for seed in range(200):
        n = 2 + seed % 11
        system = random_metzler(n, density=0.35, seed=seed)
        worst = max(worst, spectrum_match_error(system))
    assert worst <= 1e-8
    print(f"\n[criterion 2] PASS: 200 systems, worst eigenvalue match {worst:.3e}")


def test_criterion_3_steady_state_residuals_and_dimension():
    """Basis vectors are non-negative near-exact fixed points and their count
    equals both the free-block count and the SVD nullity."""
    worst_rel = 0.0
    for system in _marginal_fixture(200, base_seed=300):
        cond, spectra, report = full_analysis(system)
        basis = steady_state_basis(cond, spectra, report)
        a = system.to_dense()
        scale = max(1.0, float(np.abs(a).sum(axis=1).max()))
        for vec in basis.vectors:
            assert np.all(vec >= 0)
            residual = float(np.max(np.abs(a @ vec)))
            bound = 1e-10 * scale * float(np.max(np.abs(vec)))
            assert residual <= bound
            worst_rel = max(worst_rel, residual / bound)
        sv = np.linalg.svd(a, compute_uv=False)
        nullity = int(np.sum(sv <= 1e-10 * scale))
        assert len(basis.vectors) == report.geometric_multiplicity_zero == nullity
    print(f"\n[criterion 3] PASS: 200 systems, worst residual at {worst_rel:.2%} of bound")


def test_criterion_4_path_sum_equals_recursion():
    """The alternating path-sum construction agrees with the recursive
    propagation to 1e-10 relative on condensations of up to 8 blocks."""
    compared = 0
    for i in range(100):
        spec = GeneratorSpec(
            topology=TOPOLOGIES[i % 4],
            num_blocks=(2, 8),
            block_size=(1, 2),
            edge_density=0.4,
            seed=7000 + i,
        )
        system = generate_marginally_stable(spec)
        cond, spectra, report = full_analysis(system)
        assert cond.h <= 8
        basis = steady_state_basis(cond, spectra, report)
        for k, vec in zip(basis.free_blocks, basis.vectors):
            ps = steady_state_by_path_sum(cond, spectra, k)
            err = float(np.max(np.abs(ps - vec)))
            assert err <= 1e-10 * max(1.0, float(np.max(np.abs(vec))))
            compared += 1
    print(f"\n[criterion 4] PASS: 100 condensations, {compared} basis vectors matched")


def test_criterion_5_trivial_blocks_match_basis_support():
    """The reachability characterization of trivial blocks coincides with the
    blocks that carry no mass in any basis vector."""
    for system in _marginal_fixture(200, base_seed=900):
        cond, spectra, report = full_analysis(system)
        predicted = trivial_blocks(cond, spectra)
        basis = steady_state_basis(cond, spectra, report)
        support_zero = set()
        for k in range(cond.h):
            nodes = nodes_of(cond, k)
            if all(np.max(np.abs(vec[nodes])) <= 1e-13 for vec in basis.vectors):
                support_zero.add(k)
        assert predicted == support_zero
    print("\n[criterion 5] PASS: 200 systems, trivial sets identical")


def test_criterion_6_dynamics_consistency():
    """Marginal trajectories converge to the nullspace projection; unstable
    ones grow without bound."""
    # convergence for marginally stable systems with a measured gap >= 0.05
    tested = skipped = 0
    for i, system in enumerate(_marginal_fixture(60, base_seed=1500)):
        a = system.to_dense()
        if spectral_gap(a) < 0.05:
            skipped += 1
            continue
        cond, spectra, report = full_analysis(system)
        basis = steady_state_basis(cond, spectra, report)
        rng = np.random.default_rng(i)
        m0 = rng.uniform(0.1, 1.0, size=system.n)
        projected = nullspace_projector(a, basis.vectors) @ m0
        at_100 = simulate(system, m0, [100.0])[0]
        assert np.max(np.abs(at_100 - projected)) <= 1e-6
        tested += 1
    assert tested >= 30, f"gap filter removed too many systems ({skipped} skipped)"

    # the pinned nilpotent example grows linearly: exact value (1, 10) at t=10
    growth = simulate(from_dense([[0, 0], [1, 0]]), [1.0, 0.0], [10.0])[0]
    np.testing.assert_allclose(growth, [1.0, 10.0], atol=1e-12)
    assert np.max(np.abs(growth)) >= 10.0

    # generated unstable systems: super-critical growth within t <= 10/mu,
    # critical-path growth eventually
    grown = 0
    for seed in range(40):
        spec = GeneratorSpec(
            classes=("sub-critical", "critical", "super-critical"),
            topology=TOPOLOGIES[seed % 4],
            seed=40_000 + seed,
        )
        system = generate(spec)
        _, spectra, report = full_analysis(system)
        if report.verdict is not Verdict.UNSTABLE:
            continue
        rng = np.random.default_rng(seed)
        m0 = rng.uniform(0.5, 1.0, size=system.n)
        mu_max = spectra.mu.max()
        horizon = 10.0 / mu_max if mu_max > 0 else 1000.0
        times = sorted({horizon / 4, horizon / 2, horizon})
        traj = simulate(system, m0, times)
        ratio = np.max(np.abs(traj)) / np.max(np.abs(m0))
        assert ratio >= 10.0, (seed, ratio)
        grown += 1
    assert grown >= 10
    print(f"\n[criterion 6] PASS: {tested} marginal projections, {grown} unstable growths")


def test_criterion_7_left_vector_fixed_by_limit():
    """u e^(tB) = u for the left dominant vector of critical blocks, checked
    at the certification horizon on 50 blocks of sizes 2..10."""
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 50:
        d = 2 + (checked % 9)
        matrix = random_critical_matrix(d, seed=5000 + seed)
        seed += 1
        result = expm_limit_check(matrix)
        assert result.residual < 1e-6
        worst = max(worst, result.residual)
        checked += 1
    print(f"\n[criterion 7] PASS: 50 critical blocks, worst residual {worst:.3e}")


def test_criterion_8_compartmental_trap():
    """A compartmental system with exactly one trap is marginally stable with
    a one-dimensional non-negative steady state."""
    for seed in range(100):
        system = generate_compartmental(seed=seed)
        assert is_compartmental(system)
        cond, spectra, report = full_analysis(system)
        assert len(find_traps(cond, spectra)) == 1
        assert report.verdict is Verdict.MARGINALLY_STABLE
        assert report.geometric_multiplicity_zero == 1
        basis = steady_state_basis(cond, spectra, report)
        assert len(basis.vectors) == 1
        assert np.all(basis.vectors[0] >= 0) and basis.vectors[0].max() > 0
    print("\n[criterion 8] PASS: 100 compartmental systems, single trap each")

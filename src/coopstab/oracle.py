"""Independent brute-force verification and random system generation.

Everything here takes a slow route of its own, so it can cross-check the
decomposed pipeline: a full eigensolve on the dense matrix renders the
textbook verdict, a matrix exponential simulates trajectories, an
alternating sum over block paths gives each steady state without the level
sweep, and seeded generators plant block classes and topologies that the
decomposition must recover. No pipeline module imports this one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .condensation import Condensation, condense
from .errors import (BadBlockOrder, GapTooSmall, InfeasibleSpec, NonFiniteResult,
                     TooLargeForDense, TooManyBlocks, ValidationError)
from .spectral import BlockClass, SpectralOptions, Spectra, dominant_eigenpair
from .stability import Verdict
from .system import CooperativeSystem, from_dense, state_vector, validate

DENSE_LIMIT = 500

TOPOLOGIES = ("chain", "diamond", "forest", "random-dag")
CLASS_NAMES = ("critical", "sub-critical", "super-critical")


@dataclass(frozen=True, eq=False)
class DenseVerdict:
    """Textbook verdict from the full spectrum: dominant real part, and the
    algebraic (eigenvalue count near zero) versus geometric (SVD rank
    deficiency) multiplicity of the eigenvalue zero."""

    dominant_real: float
    algebraic_multiplicity_zero: int
    geometric_multiplicity_zero: int
    verdict: Verdict


def dense_verdict(
    system: CooperativeSystem,
    *,
    eig_tol_rel: float = 1e-8,
    rank_tol_rel: float = 1e-10,
) -> DenseVerdict:
    if system.n > DENSE_LIMIT:
        raise TooLargeForDense(system.n, DENSE_LIMIT)
    a = system.to_dense()
    scale = system.inf_norm()
    tol = eig_tol_rel * max(1.0, scale)

    eigs = np.linalg.eigvals(a)
    dominant = float(np.max(eigs.real))
    alg = int(np.sum((np.abs(eigs.real) <= tol) & (np.abs(eigs.imag) <= tol)))

    sv = np.linalg.svd(a, compute_uv=False)
    rank = int(np.sum(sv > rank_tol_rel * scale))
    geo = system.n - rank

    if dominant > tol:
        v = Verdict.UNSTABLE
    elif dominant < -tol:
        v = Verdict.ASYMPTOTICALLY_STABLE
    elif alg >= 1 and alg == geo:
        v = Verdict.MARGINALLY_STABLE
    else:
        v = Verdict.UNSTABLE
    return DenseVerdict(
        dominant_real=dominant,
        algebraic_multiplicity_zero=alg,
        geometric_multiplicity_zero=geo,
        verdict=v,
    )


def simulate(
    system: CooperativeSystem, m0: np.ndarray | Sequence[float], times: Sequence[float]
) -> np.ndarray:
    """Trajectory e^(A t) m0 at the requested times, one row per time."""
    if system.n > DENSE_LIMIT:
        raise TooLargeForDense(system.n, DENSE_LIMIT)
    m0 = state_vector(m0, system.n, nonnegative=True)
    ts = [float(t) for t in times]
    if not all(map(math.isfinite, ts)):
        raise ValidationError(f"times must be finite, got {ts}")
    if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
        raise ValidationError("times must be strictly increasing")
    if not ts:
        return np.zeros((0, system.n))
    a = system.to_dense()
    return np.vstack([expm(a * t) @ m0 for t in ts])


@dataclass(frozen=True)
class LimitCheckResult:
    """Residual of u e^(tB) = u at the certification horizon t_big."""

    residual: float
    t_big: float
    gap: float


def expm_limit_check(
    matrix,
    *,
    block: int = 0,
    opts: SpectralOptions | None = None,
    gap_min: float = 1e-8,
    t_cap: float = 1e4,
) -> LimitCheckResult:
    """For a critical irreducible block matrix B, check that the left dominant
    vector u is fixed by e^(tB) at a horizon where every other mode has decayed.

    The horizon is 50 over the spectral gap, capped; finite-t residuals are
    all a numeric check can certify, so the horizon is reported alongside.
    A gap that is not finite certifies nothing; errors name `block`.
    """
    b = np.asarray(matrix, dtype=float)
    d = b.shape[0]
    if d == 1:
        t_big = 1.0
        l = expm(b * t_big)
        u = np.ones(1)
        res = float(np.max(np.abs(u @ l - u)))
        return LimitCheckResult(residual=res, t_big=t_big, gap=np.inf)

    eigs = np.linalg.eigvals(b)
    order = np.argsort(eigs.real)[::-1]
    mu = float(eigs[order[0]].real)
    second = float(eigs[order[1]].real)
    gap = mu - second  # Python floats: inf or nan without a warning
    if not math.isfinite(gap):
        raise NonFiniteResult(f"block {block}: eigenvalues or spectral gap not finite")
    if gap < gap_min:
        raise GapTooSmall(gap)
    t_big = min(50.0 / gap, t_cap)

    l = expm(b * t_big)
    _, u = dominant_eigenpair(b.T.copy(), opts, block)
    res = float(np.max(np.abs(u @ l - u))) / float(np.max(np.abs(u)))
    return LimitCheckResult(residual=res, t_big=t_big, gap=gap)


# ---------------------------------------------------------------------------
# Path-sum form of the steady state: each basis vector as an alternating sum
# over block paths, exponential in the block count
# ---------------------------------------------------------------------------

def extract_coupling(cond: Condensation, k: int, l: int) -> np.ndarray:
    """Dense read-only coupling matrix from block l into block k, rows over
    k's nodes and columns over l's (zero when no edge), from `cond.cross`."""
    if not (0 <= l < k < cond.h):
        raise BadBlockOrder(f"need 0 <= l < k < h, got l={l}, k={k}, h={cond.h}")
    target, rows, cols, vals = cond.cross
    pick = (target == k) & (cond.node_to_block[cols] == l)
    into, out_of = (cond.permutation[cond.bounds[b]:cond.bounds[b + 1]] for b in (k, l))
    mat = np.zeros((len(into), len(out_of)))
    mat[np.searchsorted(into, rows[pick]), np.searchsorted(out_of, cols[pick])] = vals[pick]
    mat.setflags(write=False)
    return mat


def path_sum_matrix(
    cond: Condensation,
    spectra: Spectra,
    k: int,
    l: int,
    *,
    max_blocks: int = 12,
) -> np.ndarray:
    """Alternating sum over all directed block paths from l to k.

    Each path l -> b_1 -> ... -> b_{n-1} -> k of n edges contributes
    (-1)^(n-1) C[k, b_{n-1}] B_{b_{n-1}}^{-1} ... B_{b_1}^{-1} C[b_1, l].
    Path enumeration is exponential in the block count.
    """
    if cond.h > max_blocks:
        raise TooManyBlocks(cond.h, max_blocks)
    if not (0 <= l < k < cond.h):
        raise BadBlockOrder(f"need 0 <= l < k < h, got l={l}, k={k}, h={cond.h}")

    ptr, succ = (a.tolist() for a in cond.dag)

    inv_cache: dict[int, np.ndarray] = {}

    def inv_block(b: int) -> np.ndarray:
        if b not in inv_cache:
            inv_cache[b] = np.linalg.inv(cond.matrix(b))
        return inv_cache[b]

    total = np.zeros(np.diff(cond.bounds)[[k, l]])
    stack: list[list[int]] = [[l]]
    while stack:
        path = stack.pop()
        for nxt in succ[ptr[path[-1]]:ptr[path[-1] + 1]]:
            if nxt == k:
                full = path + [k]
                n_edges = len(full) - 1
                term = extract_coupling(cond, full[1], full[0])
                for step in range(1, n_edges):
                    c = extract_coupling(cond, full[step + 1], full[step])
                    term = c @ inv_block(full[step]) @ term
                total += (-1.0) ** (n_edges - 1) * term
            elif nxt < k:
                stack.append(path + [nxt])
    return total


def steady_state_by_path_sum(
    cond: Condensation,
    spectra: Spectra,
    free_block: int,
    *,
    max_blocks: int = 12,
) -> np.ndarray:
    """Basis vector for one free block evaluated through the path-sum form;
    cross-validates the recursive propagation."""
    x = np.zeros(len(cond.node_to_block))
    s, e = cond.bounds[free_block:free_block + 2]
    phi = spectra.phi[s:e]
    x[cond.permutation[s:e]] = phi
    for k in range(free_block + 1, cond.h):
        if spectra.classification[k] is not BlockClass.SUB_CRITICAL:
            continue
        p = path_sum_matrix(cond, spectra, k, free_block, max_blocks=max_blocks)
        if not p.any():
            continue
        x[cond.permutation[cond.bounds[k]:cond.bounds[k + 1]]] = -np.linalg.inv(cond.matrix(k)) @ (p @ phi)
    x.setflags(write=False)
    return x


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    """Plan for a random block-structured Metzler matrix.

    Block count and sizes are drawn from the inclusive ranges; classes are
    drawn from `classes` unless an explicit `planted` list of (size, class)
    pairs is given. Non-critical blocks get a dominant eigenvalue of magnitude
    at least `class_margin`, so planted classes never straddle the criticality
    tolerance. Node ids are shuffled so the condensation is exercised on a
    non-trivial ordering.
    """

    topology: str = "random-dag"
    num_blocks: tuple[int, int] = (1, 4)
    block_size: tuple[int, int] = (1, 3)
    classes: tuple[str, ...] = ("sub-critical", "critical")
    planted: tuple[tuple[int, str], ...] | None = None
    edge_density: float = 0.5
    class_margin: float = 0.5
    weight_range: tuple[float, float] = (0.5, 1.5)
    shuffle_nodes: bool = True
    seed: int = 0


def _check_spec(spec: GeneratorSpec) -> None:
    if spec.topology not in TOPOLOGIES:
        raise InfeasibleSpec(f"unknown topology {spec.topology!r}; choose from {TOPOLOGIES}")
    if spec.planted is not None:
        if not spec.planted:
            raise InfeasibleSpec("planted block list is empty")
        for size, klass in spec.planted:
            if size < 1:
                raise InfeasibleSpec(f"planted block size {size} < 1")
            if klass not in CLASS_NAMES:
                raise InfeasibleSpec(f"unknown class {klass!r}; choose from {CLASS_NAMES}")
    else:
        lo, hi = spec.num_blocks
        slo, shi = spec.block_size
        if not (1 <= lo <= hi):
            raise InfeasibleSpec(f"bad num_blocks range {spec.num_blocks}")
        if not (1 <= slo <= shi):
            raise InfeasibleSpec(f"bad block_size range {spec.block_size}")
        if not spec.classes:
            raise InfeasibleSpec("class pool is empty")
        for klass in spec.classes:
            if klass not in CLASS_NAMES:
                raise InfeasibleSpec(f"unknown class {klass!r}; choose from {CLASS_NAMES}")
    if not (0.0 <= spec.edge_density <= 1.0):
        raise InfeasibleSpec(f"edge density {spec.edge_density} outside [0, 1]")
    if spec.class_margin <= 0:
        raise InfeasibleSpec(f"class margin must be positive, got {spec.class_margin}")
    wlo, whi = spec.weight_range
    if not (0 < wlo <= whi):
        raise InfeasibleSpec(f"bad weight range {spec.weight_range}")


def _nonneg_irreducible(d: int, rng: np.random.Generator, wlo: float, whi: float) -> np.ndarray:
    """Random non-negative matrix with zero diagonal whose graph is strongly
    connected: a full directed cycle plus random extra links."""
    m = np.zeros((d, d))
    for j in range(d):
        m[(j + 1) % d, j] = rng.uniform(wlo, whi)
    extra = rng.random((d, d)) < 0.3
    np.fill_diagonal(extra, False)
    m[extra] += rng.uniform(wlo, whi, size=int(extra.sum()))
    return m


def random_critical_matrix(
    d: int, *, seed: int | np.random.Generator = 0, weight_range: tuple[float, float] = (0.5, 1.5)
) -> np.ndarray:
    """Irreducible Metzler matrix with dominant eigenvalue zero, built by
    canceling each row sum on the diagonal (the constant vector is then a
    dominant eigenvector). Zero up to one rounding of the row sums, orders of
    magnitude inside any reasonable criticality tolerance."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if d == 1:
        return np.zeros((1, 1))
    m = _nonneg_irreducible(d, rng, *weight_range)
    np.fill_diagonal(m, -m.sum(axis=1))
    return m


def _make_block(klass: str, d: int, rng: np.random.Generator, spec: GeneratorSpec) -> np.ndarray:
    wlo, whi = spec.weight_range
    margin = spec.class_margin + rng.uniform(0.0, 0.5)
    if klass == "critical":
        return random_critical_matrix(d, seed=rng, weight_range=spec.weight_range)
    if d == 1:
        sign = -1.0 if klass == "sub-critical" else 1.0
        return np.array([[sign * margin]])
    m = _nonneg_irreducible(d, rng, wlo, whi)
    perron = float(np.max(np.linalg.eigvals(m).real))
    shift = perron + margin if klass == "sub-critical" else perron - margin
    return m - shift * np.eye(d)


def _planted_edges(topology: str, h: int, density: float, rng: np.random.Generator) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    if h < 2:
        return edges
    if topology == "chain":
        edges = {(k, k + 1) for k in range(h - 1)}
    elif topology == "diamond":
        if h < 3:
            edges = {(k, k + 1) for k in range(h - 1)}
        else:
            for mid in range(1, h - 1):
                edges.add((0, mid))
                edges.add((mid, h - 1))
    elif topology == "forest":
        for k in range(1, h):
            if rng.random() < density:
                edges.add((int(rng.integers(0, k)), k))
    else:  # random-dag
        for l in range(h):
            for k in range(l + 1, h):
                if rng.random() < density:
                    edges.add((l, k))
    return edges


def _assemble(
    plan: list[tuple[int, str]],
    dag: set[tuple[int, int]],
    rng: np.random.Generator,
    spec: GeneratorSpec,
) -> CooperativeSystem:
    sizes = [size for size, _ in plan]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    n = int(offsets[-1])
    wlo, whi = spec.weight_range

    triples: list[tuple[int, int, float]] = []
    for k, (d, klass) in enumerate(plan):
        mat = _make_block(klass, d, rng, spec)
        base = int(offsets[k])
        for i in range(d):
            for j in range(d):
                if mat[i, j] != 0.0:
                    triples.append((base + i, base + j, float(mat[i, j])))
    for l, k in sorted(dag):
        dl, dk = sizes[l], sizes[k]
        cells = rng.random((dk, dl)) < 0.4
        if not cells.any():
            cells[rng.integers(0, dk), rng.integers(0, dl)] = True
        for i in range(dk):
            for j in range(dl):
                if cells[i, j]:
                    triples.append(
                        (int(offsets[k]) + i, int(offsets[l]) + j, float(rng.uniform(wlo, whi)))
                    )

    if spec.shuffle_nodes:
        perm = rng.permutation(n)
        triples = [(int(perm[i]), int(perm[j]), v) for i, j, v in triples]
    return validate(triples, n)


def _draw_plan(spec: GeneratorSpec, rng: np.random.Generator) -> list[tuple[int, str]]:
    if spec.planted is not None:
        return [(int(size), klass) for size, klass in spec.planted]
    h = int(rng.integers(spec.num_blocks[0], spec.num_blocks[1] + 1))
    return [
        (int(rng.integers(spec.block_size[0], spec.block_size[1] + 1)),
         spec.classes[int(rng.integers(0, len(spec.classes)))])
        for _ in range(h)
    ]


def generate_with_plan(spec: GeneratorSpec) -> tuple[CooperativeSystem, list[tuple[int, str]]]:
    """Like generate(), also returning the realized (size, class) plan."""
    _check_spec(spec)
    rng = np.random.default_rng(spec.seed)
    plan = _draw_plan(spec, rng)
    dag = _planted_edges(spec.topology, len(plan), spec.edge_density, rng)
    return _assemble(plan, dag, rng, spec), plan


def generate(spec: GeneratorSpec) -> CooperativeSystem:
    """Random Metzler system with planted block classes and topology;
    deterministic per seed."""
    return generate_with_plan(spec)[0]


def generate_marginally_stable(spec: GeneratorSpec) -> CooperativeSystem:
    """Random system constrained to be marginally stable: the planted critical
    blocks form an antichain of the planted DAG (no path connects two), and at
    least one critical block survives."""
    _check_spec(spec)
    rng = np.random.default_rng(spec.seed)
    plan = _draw_plan(spec, rng)
    h = len(plan)
    dag = _planted_edges(spec.topology, h, spec.edge_density, rng)

    reach = np.zeros((h, h), dtype=bool)
    for l in reversed(range(h)):
        for (a, b) in dag:
            if a == l:
                reach[l, b] = True
                reach[l] |= reach[b]

    kept: list[int] = []
    for k in range(h):
        if plan[k][1] != "critical":
            continue
        if any(reach[k, c] or reach[c, k] for c in kept):
            plan[k] = (plan[k][0], "sub-critical")
        else:
            kept.append(k)
    if not kept:
        k = int(rng.integers(0, h))
        plan[k] = (plan[k][0], "critical")
        for c in range(h):
            if c != k and plan[c][1] == "critical" and (reach[k, c] or reach[c, k]):
                plan[c] = (plan[c][0], "sub-critical")

    return _assemble(plan, dag, rng, spec)


def generate_compartmental(
    *,
    num_blocks: tuple[int, int] = (1, 4),
    block_size: tuple[int, int] = (1, 3),
    edge_density: float = 0.5,
    weight_range: tuple[float, float] = (0.5, 1.5),
    seed: int = 0,
) -> CooperativeSystem:
    """Random compartmental matrix (all column sums <= 0) with exactly one
    trap: the last block keeps zero column sums and no outgoing links, every
    other block leaks."""
    spec = GeneratorSpec(
        num_blocks=num_blocks,
        block_size=block_size,
        edge_density=edge_density,
        weight_range=weight_range,
        seed=seed,
    )
    _check_spec(spec)
    rng = np.random.default_rng(seed)
    h = int(rng.integers(num_blocks[0], num_blocks[1] + 1))
    sizes = [int(rng.integers(block_size[0], block_size[1] + 1)) for _ in range(h)]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    n = int(offsets[-1])
    wlo, whi = weight_range

    a = np.zeros((n, n))
    for k, d in enumerate(sizes):
        base = offsets[k]
        if d > 1:
            a[base : base + d, base : base + d] = _nonneg_irreducible(d, rng, wlo, whi)
    dag = _planted_edges("random-dag", h, edge_density, rng)
    dag = {(l, k) for (l, k) in dag if l != h - 1}  # the trap keeps no outgoing links
    for l, k in sorted(dag):
        i = int(rng.integers(0, sizes[k]))
        j = int(rng.integers(0, sizes[l]))
        a[offsets[k] + i, offsets[l] + j] = rng.uniform(wlo, whi)

    # Every column pays its outflow on the diagonal; non-trap blocks leak on
    # one node so they cannot themselves be traps.
    for j in range(n):
        a[j, j] = -(a[:, j].sum() - a[j, j])
    for k in range(h - 1):
        leak_node = offsets[k] + int(rng.integers(0, sizes[k]))
        a[leak_node, leak_node] -= rng.uniform(0.2, 1.0)

    perm = rng.permutation(n)
    triples = [
        (int(perm[i]), int(perm[j]), float(a[i, j]))
        for i, j in zip(*np.nonzero(a))
    ]
    return validate(triples, n)


def random_metzler(
    n: int, *, density: float = 0.3, seed: int = 0,
    diag_range: tuple[float, float] = (-2.0, 1.0),
    weight_range: tuple[float, float] = (0.0, 2.0),
) -> CooperativeSystem:
    """Generic random Metzler matrix, no planted structure."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    a[mask] = rng.uniform(weight_range[0], weight_range[1], size=int(mask.sum()))
    diag = rng.uniform(diag_range[0], diag_range[1], size=n)
    a[np.diag_indices(n)] = diag
    return from_dense(a)


def spectrum_match_error(system: CooperativeSystem, cond=None) -> float:
    """Largest greedy nearest-neighbour distance between the spectrum of A and
    the union of the block spectra (both dense)."""
    if system.n > DENSE_LIMIT:
        raise TooLargeForDense(system.n, DENSE_LIMIT)
    if cond is None:
        cond = condense(system)
    whole = list(np.linalg.eigvals(system.to_dense()))
    parts: list[complex] = []
    for k in range(cond.h):
        parts.extend(np.linalg.eigvals(cond.matrix(k)))
    if len(whole) != len(parts):
        raise ValidationError(f"condensation has {len(parts)} nodes, system has {len(whole)}")
    worst = 0.0
    pool = parts[:]
    for lam in sorted(whole, key=lambda z: (z.real, z.imag)):
        dists = [abs(lam - p) for p in pool]
        best = int(np.argmin(dists))
        worst = max(worst, dists[best])
        pool.pop(best)
    return worst

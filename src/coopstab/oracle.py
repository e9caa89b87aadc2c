"""Independent brute-force verification and random system generation.

Everything here takes a slow route of its own, so it can cross-check the
decomposed pipeline: a full eigensolve on the dense matrix renders the
textbook verdict, a matrix exponential simulates trajectories, and seeded
generators plant block classes and topologies that the decomposition must
recover. No pipeline module imports this one.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import GapTooSmall, InfeasibleSpec, NonFiniteResult, TooLargeForDense, ValidationError
from .spectral import BlockClass, SpectralOptions, _inf_norm, classify, dominant_eigenpair
from .stability import Verdict
from .system import CooperativeSystem, state_vector, validate

DENSE_LIMIT = 500
# The dense verdict's bands: an eigenvalue within DENSE_ZERO_TOL * max(1, ||A||_inf) of zero
# counts as zero, a singular value at most DENSE_RANK_TOL * ||A||_inf as rank-deficient.
DENSE_ZERO_TOL = 1e-8
DENSE_RANK_TOL = 1e-10
HORIZON_CAP = 1e4  # the limit check's largest certification horizon
# The most nodes a generator spec may draw: every dense array the generators build is at
# most n x n floats (32 MB here), so a spec past it is refused before anything is drawn.
GENERATOR_LIMIT = 2000

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


def dense_verdict(system: CooperativeSystem) -> DenseVerdict:
    if system.n > DENSE_LIMIT:
        raise TooLargeForDense(system.n, DENSE_LIMIT)
    a = system.to_dense()
    scale = system.inf_norm()
    tol = DENSE_ZERO_TOL * max(1.0, scale)

    eigs = np.linalg.eigvals(a)
    dominant = float(np.max(eigs.real))
    alg = int(np.sum((np.abs(eigs.real) <= tol) & (np.abs(eigs.imag) <= tol)))

    sv = np.linalg.svd(a, compute_uv=False)
    rank = int(np.sum(sv > DENSE_RANK_TOL * scale))
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
    m0 = state_vector(m0, system.n)
    ts = [float(t) for t in times]
    if not all(map(math.isfinite, ts)):
        raise ValidationError(f"times must be finite, got {ts}")
    if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
        raise ValidationError("times must be strictly increasing")
    if not ts:
        return np.zeros((0, system.n))
    from scipy.linalg import expm  # not at module level: the CLI's analysis never imports scipy.linalg

    a = system.to_dense()
    return np.vstack([expm(a * t) @ m0 for t in ts])


@dataclass(frozen=True)
class LimitCheckResult:
    """Residual of u e^(tB) = u at the certification horizon t_big."""

    residual: float
    t_big: float
    gap: float


def expm_limit_check(matrix, *, block: int = 0, opts: SpectralOptions | None = None) -> LimitCheckResult:
    """For a critical irreducible block matrix B, check that the left dominant
    vector u is fixed by e^(tB) at a horizon where every other mode has decayed.

    The horizon is 50 over the spectral gap, capped at HORIZON_CAP; finite-t
    residuals are all a numeric check can certify, so the horizon is reported
    alongside. A gap that is not finite certifies nothing. A block that `analyze` would
    not call critical (the same eigensolve and band) is refused with a
    ValidationError; errors name `block`.
    """
    from scipy.linalg import expm  # see simulate

    b = np.asarray(matrix, dtype=float)
    gap = math.inf
    if len(b) > 1:
        eigs = np.linalg.eigvals(b)
        order = np.argsort(eigs.real)[::-1]
        gap = float(eigs[order[0]].real) - float(eigs[order[1]].real)  # Python floats: no warning
        if not math.isfinite(gap):
            raise NonFiniteResult(f"block {block}: eigenvalues or spectral gap not finite")
        if gap < GapTooSmall.MIN_GAP:
            raise GapTooSmall(gap)
    scale = float(_inf_norm(b[None])[0])
    if not math.isfinite(scale):
        raise NonFiniteResult(f"block {block}: absolute row sum overflows")
    klass = classify(dominant_eigenpair(b, opts, block)[0], scale, opts)
    if klass is not BlockClass.CRITICAL:
        raise ValidationError(f"block {block} is {klass.value}; the limit check needs a critical block")
    t_big = min(50.0 / gap, HORIZON_CAP) if len(b) > 1 else 1.0  # a 1x1 block has no other mode
    l = expm(b * t_big)
    _, u = dominant_eigenpair(b.T.copy(), opts, block)
    res = float(np.max(np.abs(u @ l - u))) / float(np.max(np.abs(u)))
    return LimitCheckResult(residual=res, t_big=t_big, gap=gap)


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
    sizes = [size for size, _ in spec.planted or ()]
    for name, values in (("num_blocks", spec.num_blocks), ("block_size", spec.block_size),
                         ("planted block size", sizes), ("seed", [spec.seed])):
        for value in values:
            if not 0 <= value < 2**63:
                raise InfeasibleSpec(f"{name} must be in [0, 2**63), got {value}")
    # A row or column sum the generators build adds at most as many weights as there are nodes.
    nodes = sum(sizes) if spec.planted is not None else spec.num_blocks[1] * spec.block_size[1]
    if nodes > GENERATOR_LIMIT:
        raise InfeasibleSpec(f"the spec draws up to {nodes} nodes, over the generators' limit of "
                             f"{GENERATOR_LIMIT} (their dense arrays are n x n)")
    if not math.isfinite(nodes * float(whi)):  # a Python float: no overflow warning
        raise InfeasibleSpec(f"weight_range {spec.weight_range} overflows: {nodes} nodes of weight "
                             f"up to {whi} sum past the largest float")


def _int_pair(text: str, flag: str) -> tuple[int, int]:
    """`N` or `LO,HI` as an inclusive integer range."""
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 2:
        raise ValidationError(f"{flag} {text!r}: expected N or LO,HI integers")
    return parts[0], parts[-1]


# The JSON shape of each GeneratorSpec field in a --config file: a type, a
# tuple of shapes (a list of that length) or a one-shape list (any length).
_CONFIG_SHAPES = {
    "topology": str, "num_blocks": (int, int), "block_size": (int, int), "classes": [str],
    "planted": [(int, str)], "edge_density": float, "class_margin": float,
    "weight_range": (float, float), "shuffle_nodes": bool, "seed": int,
}


def _conform(value, shape, what: str):
    """`value` checked against `shape`, its lists turned into tuples."""
    if isinstance(shape, (tuple, list)):
        size = len(shape) if isinstance(shape, tuple) else None
        if not isinstance(value, list) or size not in (None, len(value)):
            raise ValidationError(f"{what} must be a list{f' of {size}' if size else ''}, got {value!r}")
        shapes = shape if size else shape * len(value)
        return tuple(_conform(v, s, f"{what}[{i}]") for i, (v, s) in enumerate(zip(value, shapes)))
    if shape is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, shape)
    if not ok or (isinstance(value, bool) and shape is not bool):
        name = "a finite number" if shape is float else shape.__name__
        raise ValidationError(f"{what} must be {name}, got {value!r}")
    return value


def _spec_from_config(raw, source: str) -> GeneratorSpec:
    """A GeneratorSpec from a --config JSON object, every field shape-checked."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{source}: expected a JSON object, got {raw!r}")
    fields = {}
    for key, value in raw.items():
        if key not in _CONFIG_SHAPES:
            raise ValidationError(f"{source}: unknown key {key!r}; choose from {sorted(_CONFIG_SHAPES)}")
        planted_none = key == "planted" and value is None
        fields[key] = None if planted_none else _conform(value, _CONFIG_SHAPES[key], f"{source}: {key}")
    return GeneratorSpec(**fields)


def _nonneg_irreducible(d: int, rng: np.random.Generator, wlo: float, whi: float) -> np.ndarray:
    """Random non-negative matrix with zero diagonal whose graph is strongly
    connected: a full directed cycle plus random extra links."""
    m = np.zeros((d, d))
    ring = np.arange(d)
    m[(ring + 1) % d, ring] = rng.uniform(wlo, whi, d)
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


def _planted_edges(topology: str, h: int, density: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """The block DAG's edges (l, k), each with l < k, sorted."""
    if topology == "chain" or (topology == "diamond" and h < 3):
        edges = [(k, k + 1) for k in range(h - 1)]
    elif topology == "diamond":
        edges = [(0, mid) for mid in range(1, h - 1)] + [(mid, h - 1) for mid in range(1, h - 1)]
    elif topology == "forest":
        edges = [(int(rng.integers(0, k)), k) for k in range(1, h) if rng.random() < density]
    else:  # random-dag: one draw per pair, in row-major order
        l, k = np.triu_indices(h, 1)
        keep = rng.random(len(l)) < density
        edges = list(zip(l[keep].tolist(), k[keep].tolist()))
    return sorted(edges)


def _assemble(
    plan: list[tuple[int, str]],
    dag: list[tuple[int, int]],
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
        i, j = np.nonzero(mat)
        triples += zip((offsets[k] + i).tolist(), (offsets[k] + j).tolist(), mat[i, j].tolist())
    for l, k in dag:
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

    succ = np.zeros((h, h), dtype=bool)
    src, dst = np.array(dag, dtype=np.intp).reshape(-1, 2).T
    succ[src, dst] = True
    reach = np.zeros((h, h), dtype=bool)
    for l in reversed(range(h)):  # every edge goes from a lower to a higher block
        reach[l] = succ[l] | reach[succ[l]].any(axis=0)

    related = np.zeros(h, dtype=bool)  # kept critical, or joined to one by a path
    for k in range(h):
        if plan[k][1] != "critical":
            continue
        if related[k]:
            plan[k] = (plan[k][0], "sub-critical")
        else:
            related |= reach[k] | reach[:, k]
            related[k] = True
    if not related.any():  # then no block is critical, so the one chosen joins none
        k = int(rng.integers(0, h))
        plan[k] = (plan[k][0], "critical")

    return _assemble(plan, dag, rng, spec)


def generate_compartmental(spec: GeneratorSpec) -> CooperativeSystem:
    """Random compartmental matrix (all column sums <= 0) with exactly one
    trap: the last block keeps zero column sums and no outgoing links, every
    other block leaks. Block count and sizes come from the spec's ranges, and
    the blocks link as a random DAG; the fields it does not read must keep
    their defaults, or the spec is infeasible."""
    _check_spec(replace(spec, planted=None))
    unread = [name for name in ("topology", "classes", "planted", "class_margin", "shuffle_nodes")
              if getattr(spec, name) != getattr(GeneratorSpec, name)]
    if unread:
        raise InfeasibleSpec(f"the compartmental generator does not read {', '.join(unread)}; "
                             "leave them at their defaults")
    rng = np.random.default_rng(spec.seed)
    h = int(rng.integers(spec.num_blocks[0], spec.num_blocks[1] + 1))
    sizes = [int(rng.integers(spec.block_size[0], spec.block_size[1] + 1)) for _ in range(h)]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    n = int(offsets[-1])
    wlo, whi = spec.weight_range

    a = np.zeros((n, n))
    for k, d in enumerate(sizes):
        base = offsets[k]
        if d > 1:
            a[base : base + d, base : base + d] = _nonneg_irreducible(d, rng, wlo, whi)
    # Every edge runs to a later block, so the trap, last, has no outgoing links.
    for l, k in _planted_edges("random-dag", h, spec.edge_density, rng):
        i = int(rng.integers(0, sizes[k]))
        j = int(rng.integers(0, sizes[l]))
        a[offsets[k] + i, offsets[l] + j] = rng.uniform(wlo, whi)

    # Every column pays its outflow on the diagonal, summed pairwise as a row of the transposed
    # copy; non-trap blocks leak on one node so they cannot themselves be traps.
    np.fill_diagonal(a, -np.ascontiguousarray(a.T).sum(axis=1))
    for k in range(h - 1):
        leak_node = offsets[k] + int(rng.integers(0, sizes[k]))
        a[leak_node, leak_node] -= rng.uniform(0.2, 1.0)

    perm = rng.permutation(n)
    i, j = np.nonzero(a)
    return validate((perm[i], perm[j], a[i, j]), n)


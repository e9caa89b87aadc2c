"""Stability verdict and explicit steady-state construction.

The verdict is a trichotomy. All blocks sub-critical: asymptotically stable,
only the zero fixed point. Any super-critical block, or any directed path
between two critical blocks: unstable. Otherwise marginally stable, and the
non-negative steady states form a family with one free parameter per final
critical block (a critical block with no critical block downstream). Roles,
multiplicities and the witness path all come from one forward and one
backward sweep over the block DAG.

A basis vector for free block k is zero outside the cone downstream of k and
carries the block's positive eigenvector on k itself. All of them propagate
together as sparse entries, one DAG level at a time, solving the blocks of a
level in groups of one size.
"""
from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import os
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .condensation import Condensation, _ranges, _stable_order, condense
from .errors import (
    NegativeSteadyStateEntry,
    NonFiniteResult,
    NotMarginallyStable,
    SingularSubCriticalSolve,
    SuperCriticalPresent,
    ValidationError,
)
from .spectral import DEFAULT_OPTIONS, BlockClass, SpectralOptions, Spectra, _inf_norm, analyze_all_blocks
from .system import CooperativeSystem, Record

TINY_PIVOT_REL = 1e-13


def _load_flapack():
    """SciPy's compiled LAPACK wrappers, `scipy.linalg._flapack`, loaded from their file without
    running the `scipy` or `scipy.linalg` package `__init__`: the latter's array-API shim imports
    numpy.f2py, numpy.testing and numpy.ma. Its dgetrf and dgetrs are the objects
    `get_lapack_funcs` returns for float64."""
    if os.name == "nt":
        import scipy  # noqa: F401  its __init__ puts the bundled OpenBLAS on the DLL search path
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy not found", name="scipy")
    root = scipy_spec.submodule_search_locations[0]
    name = "scipy.linalg._flapack"
    spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(root, "linalg")])
    if spec is None:
        raise ImportError(f"{name} not found under {root}")
    registered = name in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython files a single-phase extension module in sys.modules as it creates it. Drop that
    # entry, so that a later `import scipy.linalg` loads and binds its own copy as usual.
    if not registered:
        sys.modules.pop(name, None)
    return module.dgetrf, module.dgetrs


# LAPACK's dgetrf and dgetrs, called directly: `_solve` checks the pivots and the finiteness
# itself. The factorization keeps the name lu_factor, the boundary that tracing wraps.
lu_factor, _GETRS = _load_flapack()


class Verdict(enum.Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically-stable"
    MARGINALLY_STABLE = "marginally-stable"
    UNSTABLE = "unstable"


class SuperCriticalBlock(NamedTuple):
    block_index: int


class CriticalPath(NamedTuple):
    upstream_block: int
    downstream_block: int
    path: tuple[int, ...]


class StabilityReport(Record):
    """The verdict and its evidence; read-only bool columns over the blocks
    flag the `trivial` ones and the `free` (final critical) ones."""

    def __init__(self, verdict: Verdict, unstable_reason: SuperCriticalBlock | CriticalPath | None,
                 algebraic_multiplicity_zero: int, geometric_multiplicity_zero: int, trivial: np.ndarray,
                 free: np.ndarray):
        vars(self).update(verdict=verdict, unstable_reason=unstable_reason,
                          algebraic_multiplicity_zero=algebraic_multiplicity_zero,
                          geometric_multiplicity_zero=geometric_multiplicity_zero, trivial=trivial, free=free)


class SteadyStateBasis(Record):
    """Non-negative nullspace basis, one column per free block, as read-only
    CSC arrays `csc` = (indptr, nodes, values): column c holds the values
    values[indptr[c]:indptr[c + 1]] at those nodes, ascending, and +0.0 at
    the other of the n nodes. `vectors` reads the columns as dense vectors;
    the general steady state is sum over c of alpha_c * vectors[c]."""

    def __init__(self, n: int, csc: tuple[np.ndarray, np.ndarray, np.ndarray], free_blocks: tuple[int, ...],
                 free_parameters: tuple[str, ...]):
        vars(self).update(n=n, csc=csc, free_blocks=free_blocks, free_parameters=free_parameters)

    @property
    def vectors(self) -> Sequence[np.ndarray]:
        return _Columns(self.n, self.csc)


class _Columns(Sequence):
    """The columns of CSC arrays as read-only dense n-vectors, each built when read."""

    def __init__(self, n: int, csc: tuple[np.ndarray, np.ndarray, np.ndarray]):
        self.n, self.csc = n, csc

    def __len__(self) -> int:
        return len(self.csc[0]) - 1

    def __getitem__(self, c):
        if isinstance(c, slice):
            return tuple(self[i] for i in range(len(self))[c])
        (indptr, nodes, values), c = self.csc, range(len(self))[c]
        vector = np.zeros(self.n)
        vector[nodes[indptr[c]:indptr[c + 1]]] = values[indptr[c]:indptr[c + 1]]
        vector.setflags(write=False)
        return vector


def _block_dag(cond: Condensation, crit: list[bool]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Two sweeps over the block DAG (edges point from lower to higher index).

    up[k]: some critical block is strictly upstream of k.
    near[k]: length of the shortest path from k to a critical block strictly
    downstream, 0 if there is none; hop[k] is the smallest successor on such a
    path, so following hop traces the lexicographically smallest of them.
    """
    h = cond.h
    ptr, succ = (a.tolist() for a in cond.dag)
    up = [False] * h
    for l in range(h):
        if crit[l] or up[l]:
            for k in succ[ptr[l]:ptr[l + 1]]:
                up[k] = True
    near = [0] * h
    hop = [-1] * h
    for l in reversed(range(h)):
        for k in succ[ptr[l]:ptr[l + 1]]:
            d = 1 if crit[k] else (near[k] + 1 if near[k] else 0)
            if d and (not near[l] or d < near[l]):
                near[l], hop[l] = d, k
    return np.array(up, dtype=bool), np.array(near, dtype=np.intp), hop


def _refuse_super_critical(report: StabilityReport) -> None:
    if isinstance(report.unstable_reason, SuperCriticalBlock):
        raise SuperCriticalPresent(
            f"block {report.unstable_reason.block_index} is super-critical"
        )


def verdict(cond: Condensation, spectra: Spectra) -> StabilityReport:
    """Apply the graph-theoretic criterion and report the evidence.

    Algebraic multiplicity of eigenvalue zero is the number of critical
    blocks; geometric multiplicity is the number of final critical blocks.
    A block is trivial when it is upstream of a critical block, or
    sub-critical and not downstream of one; the characterization holds only
    without super-critical blocks, so with one present all flags are False.
    The witness of a critical-critical path is the shortest one, from the
    smallest upstream block, with the lexicographically smallest block
    sequence.
    """
    crit = spectra.classification == BlockClass.CRITICAL
    sub = spectra.classification == BlockClass.SUB_CRITICAL
    supers = np.flatnonzero(spectra.classification == BlockClass.SUPER_CRITICAL)
    up, near, hop = _block_dag(cond, crit.tolist())
    critical = np.flatnonzero(crit)
    connected = critical[near[critical] > 0]
    trivial = ((near > 0) | (sub & ~up)) & (supers.size == 0)
    free = crit & (near == 0)
    for a in (trivial, free):
        a.setflags(write=False)
    reason: SuperCriticalBlock | CriticalPath | None = None
    if supers.size:
        reason = SuperCriticalBlock(int(supers[0]))
    elif connected.size:
        src = int(connected[np.argmin(near[connected])])  # ties: the smallest index
        path = [src, hop[src]]
        while not crit[path[-1]]:
            path.append(hop[path[-1]])
        reason = CriticalPath(src, path[-1], tuple(path))
    if reason is not None:
        result = Verdict.UNSTABLE
    elif critical.size:
        result = Verdict.MARGINALLY_STABLE
    else:
        result = Verdict.ASYMPTOTICALLY_STABLE
    return StabilityReport(
        verdict=result,
        unstable_reason=reason,
        algebraic_multiplicity_zero=critical.size,
        geometric_multiplicity_zero=critical.size - connected.size,
        trivial=trivial,
        free=free,
    )


def full_analysis(
    system: CooperativeSystem, opts: SpectralOptions | None = None
) -> tuple[Condensation, Spectra, StabilityReport]:
    """Condense, analyze every block, and render the verdict in one call."""
    cond = condense(system)
    spectra = analyze_all_blocks(cond, opts)
    return cond, spectra, verdict(cond, spectra)


def _solve(cond: Condensation, spectra: Spectra, blk: np.ndarray, col: np.ndarray, rhs: np.ndarray,
           failures: dict[int, Exception], residual_tol: float):
    """Solve B_k x = rhs[p] for (block k, column) pairs p of one block size, record failures and
    return the pairs solved with their clamped solutions. A block is factorized once and each
    column solved alone (more at once round differently); a column not finite gets inf."""
    d = rhs.shape[1]
    if d == 1:
        sol = rhs / spectra.mu[blk, None]  # a singleton's mu is its diagonal entry
    else:
        ks, at = np.unique(blk, return_inverse=True)
        b = cond.matrix(ks, d)
        factors = [lu_factor(m)[:2] for m in b]  # (lu, piv); a zero pivot is caught below
        singular = np.abs([lu.diagonal() for lu, _ in factors]).min(axis=1) <= TINY_PIVOT_REL * np.maximum(
            1e-300, _inf_norm(b))
        failures.update((k, SingularSubCriticalSolve(k)) for k in ks[singular].tolist())
        live = ~singular[at]
        sol = np.full(rhs.shape, np.inf)
        for p in np.flatnonzero(live & np.isfinite(rhs).all(axis=1)).tolist():
            sol[p] = _GETRS(*factors[at[p]], rhs[p])[0]
        blk, col, sol = blk[live], col[live], sol[live]
    bad = sol < -10.0 * residual_tol * np.maximum(1.0, abs(sol).max(axis=1, keepdims=True))
    if bad.any():
        hit = np.flatnonzero(bad.any(axis=1))
        ks, first = np.unique(blk[hit], return_index=True)  # a block's first bad column
        p = hit[first]
        worst = sol[p].argmin(axis=1)
        failures.update((k, NegativeSteadyStateEntry(k, i, v)) for k, i, v in zip(
            ks.tolist(), cond.permutation[cond.bounds[ks] + worst].tolist(), sol[p, worst].tolist()))
    sol[sol < 0] = 0.0
    return blk, col, sol


def steady_state_basis(
    cond: Condensation,
    spectra: Spectra,
    report: StabilityReport | None = None,
    *,
    force: bool = False,
    residual_tol: float = DEFAULT_OPTIONS.residual_tol,
) -> SteadyStateBasis:
    """Construct one non-negative nullspace basis vector per free block.

    `report` is the verdict for the same condensation and spectra; it is
    computed when omitted. Refuses to run unless the system is marginally
    stable; `force` computes the (still well-defined) zero-eigenvectors for a
    system that is unstable only through a critical-critical path.
    Super-critical blocks always refuse: the construction is not defined for
    them.

    Each level's right-hand sides are summed in one step in the order of
    `cond.cross`, so they round exactly as block by block; when several
    blocks fail, the lowest-indexed one raises, as in a sweep in block order.
    """
    if report is None:
        report = verdict(cond, spectra)
    _refuse_super_critical(report)
    if report.verdict is Verdict.ASYMPTOTICALLY_STABLE:
        raise NotMarginallyStable(
            "all blocks are sub-critical; the only fixed point is zero"
        )
    witness = report.unstable_reason
    if witness is not None and not force:
        raise NotMarginallyStable(
            f"critical blocks {witness.upstream_block} and {witness.downstream_block} "
            f"are connected by a path"
        )
    final = np.flatnonzero(report.free)
    f, n, size = len(final), len(cond.node_to_block), np.diff(cond.bounds)
    local = np.empty(n, dtype=np.intp)  # each node's place in its block
    local[cond.permutation] = np.arange(n) - np.repeat(cond.bounds[:-1], size)
    # Node j has count[j] entries from start[j] on in (column, value) buffers; first the free blocks.
    at = _ranges(cond.bounds[final], size[final])[0]  # places in cond.permutation and spectra.phi
    nodes = cond.permutation[at]
    start, count = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    start[nodes], count[nodes], used = np.arange(len(nodes)), 1, len(nodes)
    buf = [np.repeat(np.arange(f), size[final]), spectra.phi[at]]
    # Couplings into sub-critical blocks by level (a source lies lower), in `cond.cross` order.
    sub = np.flatnonzero((spectra.classification == BlockClass.SUB_CRITICAL)[cond.cross[0]])
    sub = sub[_stable_order(cond.level[cond.cross[0][sub]])]
    target, rows, cols, vals = (a[sub] for a in cond.cross)
    ends = [*np.flatnonzero(np.diff(cond.level[target], prepend=-1)).tolist(), len(target)]
    # With the blocks laid out level by level, block k from place[k] on, a target node's code in
    # a column is base + column * step, in (block, column, node) order; a level's codes are the
    # range [f * edge[level], f * edge[level + 1]).
    by_level = _stable_order(cond.level)
    place, block_at = np.empty_like(size), np.repeat(by_level, size[by_level])
    place[by_level] = np.cumsum(size[by_level]) - size[by_level]
    edge = f * np.concatenate(([0], np.cumsum(np.bincount(cond.level[cond.node_to_block]))))
    base, step = place[target] * f + local[rows], size[target]
    levels = cond.level[target[ends[:-1]]]
    del local, sub, by_level, target, rows  # each dropped after its last read, as the memory grows
    spans = zip(ends, ends[1:], edge[levels].tolist(), edge[levels + 1].tolist())
    failures: dict[int, Exception] = {}
    # An overflow here is reported by the finiteness check on the result.
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b, lo, hi in spans:
            # Sources' entries summed per (target node, column) in coupling order, as into zeros.
            at, cell = _ranges(start[cols[a:b]], count[cols[a:b]])
            cell += a
            weight, code = vals[cell] * buf[1][at], base[cell] + buf[0][at] * step[cell]
            if hi - lo <= len(code):  # no more codes than terms: sum into all of them, unsorted
                key, at = np.arange(lo, hi), code - lo
            else:
                key, at = np.unique(code, return_inverse=True)
            total = np.bincount(at, weight, len(key))
            key, total = key[total != 0], total[total != 0]  # the rest stays +0.0, unsolved
            k = block_at[key // f]
            col, i = np.divmod(key - place[k] * f, size[k])
            one = size[k] == 1  # a singleton's (block, column) pair is its entry
            groups = [(k[one], col[one], -total[one, None])]
            if not one.all():
                key, k, col, i, total = key[~one], k[~one], col[~one], i[~one], total[~one]
                new = np.flatnonzero(np.diff(key - i, prepend=-1))  # each (block, column) pair's first
                blk, col, d = k[new], col[new], size[k[new]]
                rhs = np.full(d.sum(), -0.0)  # -x, and x is +0.0 without inflow
                offset = np.cumsum(d) - d
                rhs[np.repeat(offset, np.diff(new, append=len(key))) + i] = -total
                groups += [(blk[d == m], col[d == m], rhs[offset[d == m, None] + np.arange(m)])
                           for m in np.flatnonzero(np.bincount(d)).tolist()]
            for group in groups:
                blk, col, sol = _solve(cond, spectra, *group, failures, residual_tol)
                # Stored node by node: node i of every (block, column) pair, then node i + 1.
                (p, m), end = sol.shape, used + sol.size
                first = np.flatnonzero(blk != np.concatenate(([-1], blk[:-1])))
                nodes = cond.permutation[cond.bounds[blk[first], None] + np.arange(m)]
                start[nodes] = used + first[:, None] + np.arange(m) * p
                count[nodes] = (np.append(first[1:], p) - first)[:, None]
                if end > len(buf[0]):
                    buf = [np.concatenate((x[:used], np.empty(max(end, n), x.dtype))) for x in buf]
                buf[0][used:end].reshape(m, p)[:], buf[1][used:end].reshape(m, p)[:] = col, sol.T
                used = end
    del cols, vals, base, step, place, block_at
    if failures:
        raise failures[min(failures)]
    at, of = _ranges(start[count > 0], count[count > 0])
    del start
    node = np.flatnonzero(count)[of]
    del count, of
    col = buf[0][at]
    val = buf[1][at]
    del buf, at
    overflow = node[~np.isfinite(val)]
    if overflow.size:
        node = overflow.min()
        raise NonFiniteResult(
            f"steady-state entry for node {node} (block {cond.node_to_block[node]}) is not finite")
    order = _stable_order(col)  # the nodes ascend already
    indptr = np.bincount(col + 1, minlength=f + 1).cumsum()
    del col
    node = node[order]  # one gather at a time, so that each old array goes before the next new one
    val = val[order]
    csc = (indptr, node, val)
    for a in csc:
        a.setflags(write=False)
    return SteadyStateBasis(n=n, csc=csc, free_blocks=tuple(final.tolist()),
                            free_parameters=tuple(f"alpha_{k}" for k in final.tolist()))


def nullspace_residuals(system: CooperativeSystem, csc: tuple[np.ndarray, ...]) -> np.ndarray:
    """Infinity norm of A v, the defect of v as a fixed point, for each column v of the CSC arrays
    `csc`, each row's terms summed in input order. The columns with under an eighth of the nodes
    in their support read only those columns' entries (a term skipped is finite times +-0.0), all
    in one pass, put in (column, input position) order by one sort. A column with more support
    writes at least n / 8 values anyway, so it reads every entry, one column at a time."""
    rows, cols, vals = system.coo
    indptr, nodes, values = csc
    col = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    live = values != 0  # NaN included
    sparse = 8 * np.bincount(col[live], minlength=len(indptr) - 1) < system.n
    out = np.zeros(len(sparse))
    for c in np.flatnonzero(~sparse).tolist():
        out[c] = np.abs(np.bincount(rows, weights=vals * _Columns(system.n, csc)[c][cols])).max(initial=0.0)
    if sparse.any():
        live &= sparse[col]
        by_ptr, by_order = system.by_column
        j = nodes[live]
        at, of = _ranges(by_ptr[j], by_ptr[j + 1] - by_ptr[j])
        pos, col, x = by_order[at], col[live][of], values[live][of]
        order = np.argsort(col * len(rows) + pos)
        code, at = np.unique(col[order] * system.n + rows[pos[order]], return_inverse=True)
        total = np.abs(np.bincount(at, vals[pos[order]] * x[order], len(code)))
        first = np.flatnonzero(np.diff(code // system.n, prepend=-1))  # each column's first code
        out[code[first] // system.n] = np.maximum.reduceat(total, first)
    return out


def nullspace_residual(system: CooperativeSystem, vector: np.ndarray) -> float:
    """Infinity norm of A v, the defect of v as a fixed point: `nullspace_residuals` of one column."""
    vector = np.asarray(vector)
    if vector.shape != (system.n,):
        raise ValidationError(f"vector has shape {vector.shape}, expected ({system.n},)")
    return float(nullspace_residuals(system, (np.array([0, system.n]), np.arange(system.n), vector))[0])


def find_traps(cond: Condensation, spectra: Spectra) -> tuple[int, ...]:
    """Critical blocks with no outgoing edges; in a compartmental system these
    are exactly the blocks that can hold mass forever."""
    sink = np.diff(cond.dag[0]) == 0
    return tuple(np.flatnonzero((spectra.classification == BlockClass.CRITICAL) & sink).tolist())

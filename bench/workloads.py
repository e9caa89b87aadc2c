"""Seeded, vectorised workload generators with planted answers.

Each generator returns a `Workload`: the system as Matrix Market text (what
the CLI reads), the same matrix in CSR form (for independent residual
checks), and the `Plan` the CLI must reproduce. The same seed gives the same
text and plan. Both systems are marginally stable, so `analyze` and
`steady-state` run the whole pipeline.

A third workload, one 3000-node strongly connected block that stresses the
dense power iteration, was left out: on a shared virtual machine its times
followed memory-bandwidth contention, which the pure-Python calibration in
child.py does not track, and ten runs spread by more than 25%.

`coopstab.oracle` is deliberately not used: its generators loop per entry or
build dense n x n arrays, and at the sizes here that would cost more than the
work being measured.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

MARGINAL = "marginally-stable"
EXIT_MARGINAL = 0


@dataclass(frozen=True)
class Plan:
    """The answer planted by construction."""

    verdict: str
    exit_code: int
    n: int
    nnz: int
    h: int
    algebraic: int
    geometric: int
    free_sets: frozenset[frozenset[int]]
    a_inf_norm: float


@dataclass(frozen=True, eq=False)
class Workload:
    name: str
    seed: int
    text: str
    matrix: sp.csr_matrix
    plan: Plan


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _finish(name, seed, rng, rows, cols, vals, n, h, free_sets) -> Workload:
    """Shuffle node ids, format Matrix Market text and build the plan.

    `free_sets` are node sets before the shuffle; every entry in `vals` must
    be nonzero, because the parser drops explicit zeros.
    """
    perm = rng.permutation(n)
    rows, cols = perm[rows], perm[cols]
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    body = io.StringIO()
    body.write("%%MatrixMarket matrix coordinate real general\n")
    body.write(f"{n} {n} {vals.size}\n")
    np.savetxt(body, np.column_stack((rows + 1, cols + 1, vals)), fmt="%d %d %.17g")
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    plan = Plan(
        verdict=MARGINAL,
        exit_code=EXIT_MARGINAL,
        n=n,
        nnz=int(vals.size),
        h=h,
        algebraic=len(free_sets),
        geometric=len(free_sets),
        free_sets=frozenset(frozenset(int(v) for v in perm[list(s)]) for s in free_sets),
        a_inf_norm=float(abs(matrix).sum(axis=1).max()),
    )
    return Workload(name=name, seed=seed, text=body.getvalue(), matrix=matrix, plan=plan)


def _two_distinct(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray):
    """Two distinct integers per element, each uniform on [lo, hi)."""
    span = hi - lo
    a = (rng.random(span.size) * span).astype(np.int64)
    b = (rng.random(span.size) * (span - 1)).astype(np.int64)
    b += b >= a
    return lo + a, lo + b


def dag_singletons(seed: int, n: int = 5_000, sources: int = 4) -> Workload:
    """A DAG of n singleton blocks in the weakly coupled regime.

    Node t >= `sources` has two in-links from distinct earlier nodes, so the
    first `sources` nodes are the only sources and form an antichain. Sources
    have a zero diagonal (critical, free); every other node has diagonal
    -(in-sum + U(0.5, 1)) (sub-critical).
    """
    rng = _rng(seed, 1)
    t = np.arange(sources, n)
    src_a, src_b = _two_distinct(rng, np.zeros_like(t), t)
    w = rng.uniform(0.5, 1.5, size=(2, t.size))
    diag = -(w.sum(axis=0) + rng.uniform(0.5, 1.0, size=t.size))
    rows = np.concatenate((t, t, t))
    cols = np.concatenate((src_a, src_b, t))
    vals = np.concatenate((w[0], w[1], diag))
    free = [[s] for s in range(sources)]
    return _finish("dag-singletons", seed, rng, rows, cols, vals, n, n, free)


def _strong_blocks(rng: np.random.Generator, sizes: np.ndarray):
    """Off-diagonal entries of consecutive strongly connected blocks: a ring
    per block plus, in blocks of three or more nodes, one more link per node."""
    offset = np.repeat(np.cumsum(sizes) - sizes, sizes)
    d = np.repeat(sizes, sizes)
    local = np.arange(d.size) - offset
    cols = [offset + local]
    rows = [offset + (local + 1) % d]
    big = d >= 3
    step = 2 + (rng.random(big.sum()) * (d[big] - 2)).astype(np.int64)
    cols.append((offset + local)[big])
    rows.append(offset[big] + (local[big] + step) % d[big])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return rows, cols, rng.uniform(0.5, 1.5, size=rows.size)


def critical_antichain(seed: int, pairs: int = 250) -> Workload:
    """`pairs` critical blocks of size 2-6, each feeding its own sub-critical
    block of size 2-6 by a single link.

    Each block's diagonal cancels its in-block column sums, so 1^T B = 0 and
    mu = 0 exactly; sub-critical blocks subtract a further U(0.5, 1), which
    makes them strictly column-diagonally dominant (mu <= -0.5). The critical
    blocks are sources, hence an antichain, and all of them are free.
    """
    rng = _rng(seed, 2)
    sizes = rng.integers(2, 7, size=2 * pairs)  # critical, sub-critical, ...
    rows, cols, vals = _strong_blocks(rng, sizes)
    n = int(sizes.sum())
    starts = np.cumsum(sizes) - sizes
    colsum = np.bincount(cols, weights=vals, minlength=n)
    critical_node = np.repeat(np.arange(2 * pairs) % 2 == 0, sizes)
    diag = -colsum - np.where(critical_node, 0.0, rng.uniform(0.5, 1.0, size=n))
    src = starts[0::2] + (rng.random(pairs) * sizes[0::2]).astype(np.int64)
    dst = starts[1::2] + (rng.random(pairs) * sizes[1::2]).astype(np.int64)
    nodes = np.arange(n)
    rows = np.concatenate((rows, dst, nodes))
    cols = np.concatenate((cols, src, nodes))
    vals = np.concatenate((vals, rng.uniform(0.5, 1.5, size=pairs), diag))
    free = [range(starts[2 * i], starts[2 * i] + sizes[2 * i]) for i in range(pairs)]
    return _finish("critical-antichain", seed, rng, rows, cols, vals, n, 2 * pairs, free)


GENERATORS = {
    "dag-singletons": dag_singletons,
    "critical-antichain": critical_antichain,
}

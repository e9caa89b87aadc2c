"""Dominant eigenvalue and positive eigenvector of each irreducible block.

Shifting an irreducible Metzler block by s = max|diag| + 1 gives a
non-negative matrix with strictly positive diagonal, hence primitive: power
iteration converges to the Perron root without period-2 cycling, and the
dominant eigenvalue of the block is the Perron root minus s. Singletons are
read in one array step. Blocks of at most `dense_cutoff` nodes are solved in
stacks of one size, one dense eigensolve and one polishing loop per stack;
larger ones run power iteration, then that fallback as a stack of one.
"""
from __future__ import annotations

import enum
import math

import numpy as np

from .condensation import Condensation
from .errors import NoConvergence, NonFiniteResult, ValidationError
from .system import Record


class BlockClass(enum.Enum):
    CRITICAL = "critical"
    SUB_CRITICAL = "sub-critical"
    SUPER_CRITICAL = "super-critical"


class SpectralOptions(Record):
    """Tolerances and limits, all surfaced as CLI flags; read-only, compared and hashed by value.

    crit_tol_rel: criticality band, |mu| <= crit_tol_rel * max(1, ||B||_inf).
    eig_tol: eigenpair residual target, relative to max(1, ||B + sI||_inf).
    residual_tol: steady-state residual scale (shared with the stability module).
    max_iter: power steps for blocks above dense_cutoff nodes (0: dense only).
    """

    crit_tol_rel: float = 1e-9
    eig_tol: float = 1e-12
    max_iter: int = 100_000
    dense_cutoff: int = 64
    residual_tol: float = 1e-10

    def __init__(self, crit_tol_rel: float = crit_tol_rel, eig_tol: float = eig_tol, max_iter: int = max_iter,
                 dense_cutoff: int = dense_cutoff, residual_tol: float = residual_tol):
        vars(self).update(crit_tol_rel=crit_tol_rel, eig_tol=eig_tol, max_iter=max_iter,
                          dense_cutoff=dense_cutoff, residual_tol=residual_tol)
        for name in ("crit_tol_rel", "eig_tol", "residual_tol"):
            if not 0.0 <= (value := vars(self)[name]) < math.inf:
                raise ValidationError(f"{name} = {value!r} must be finite and non-negative")
        for name in ("max_iter", "dense_cutoff"):
            if isinstance(value := vars(self)[name], bool) or not isinstance(value, int) or value < 0:
                raise ValidationError(f"{name} = {value!r} must be a non-negative integer")

    def __eq__(self, other) -> bool:
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


DEFAULT_OPTIONS = SpectralOptions()


class Spectra(Record):
    """Read-only columns, one entry per block: the dominant eigenvalue `mu`,
    the criticality `tolerance` used and the `classification` (BlockClass
    members); and `phi`, one entry per node in the order of `cond.permutation`:
    block k's positive eigenvector of unit entry sum is phi[bounds[k]:bounds[k + 1]]."""

    def __init__(self, mu: np.ndarray, tolerance: np.ndarray, classification: np.ndarray, phi: np.ndarray):
        vars(self).update(mu=mu, tolerance=tolerance, classification=classification, phi=phi)


# Matrix entries per stack (8 MB of float64); a size group is solved in chunks of
# it. Peak per chunk of 64-node blocks, by tracemalloc: 34 MB (stack, shift, eig).
_CHUNK_ENTRIES = 1 << 20


def _inf_norm(m: np.ndarray) -> np.ndarray:
    """Max absolute row sum of each matrix in a stack; inf where it overflows. Summed in
    slabs of rows of about _CHUNK_ENTRIES entries, so that |m| is never held whole."""
    step = max(1, _CHUNK_ENTRIES // max(1, m.shape[0] * m.shape[2]))
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.max(np.sum(np.abs(m[:, :step]), axis=2), axis=1)
        for i in range(step, m.shape[1], step):
            np.maximum(norm, np.max(np.sum(np.abs(m[:, i:i + step]), axis=2), axis=1), out=norm)
    return norm


def _refine(
    m: np.ndarray, x: np.ndarray, tol: np.ndarray, steps: int, every: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Power steps x <- m x / sum(m x) from x_0 = x, over x_0 .. x_{steps-1},
    on each row of a stack (m: N x d x d, x: N x d, tol: N). Measures (Rayleigh
    quotient and residual, from the step's own matvec) the last iterate and
    every `every`-th, x_0 only when every == 1. Per row, returns the first
    measured positive iterate within tol, where the row retires, else the best
    positive one, else the final iterate against the last estimate."""
    lam, res, est, best = np.zeros(len(x)), np.zeros(len(x)), np.zeros(len(x)), np.empty_like(x)
    live, found = np.arange(len(x)), np.zeros(len(x), dtype=bool)
    for t in range(steps):
        y = (m @ x[..., None])[..., 0]
        if t == steps - 1 or t % every == 0 and (t > 0 or every == 1):
            # row-wise dots as matmuls: bitwise equal to the 1-D x @ y, unlike (x * y).sum(1)
            est = (x[:, None] @ y[..., None])[:, 0, 0] / (x[:, None] @ x[..., None])[:, 0, 0]
            r = np.max(np.abs(y - est[:, None] * x), axis=1)
            take = (x.min(axis=1) > 0.0) & (~found[live] | (r < res[live]))
            i = live[take]
            lam[i], best[i], res[i], found[i] = est[take], x[take], r[take], True
            keep = ~(take & (r <= tol))
            if not keep.all():
                live, m, x, y, tol, est = live[keep], m[keep], x[keep], y[keep], tol[keep], est[keep]
                if not live.size:
                    return lam, best, res
        x = y / y.sum(axis=1, keepdims=True)
    last = ~found[live]
    i, x, est = live[last], x[last], est[last]
    lam[i], best[i] = est, x
    res[i] = np.max(np.abs((m[last] @ x[..., None])[..., 0] - est[:, None] * x), axis=1)
    return lam, best, res


def _perron(
    b: np.ndarray, index: np.ndarray, opts: SpectralOptions
) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Dominant eigenvalues and unit-sum positive eigenvectors of a stack b (N x d x d,
    d > 1) of irreducible Metzler blocks numbered `index`, and each failure by number,
    naming its block. Above the dense cutoff, power iteration from the uniform
    vector runs first; the rest take one dense eigensolve, polished by power steps."""
    n, d = b.shape[:2]
    shift = np.max(np.abs(np.diagonal(b, axis1=1, axis2=2)), axis=1) + 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf entries, and 0 * inf, fail below
        m = b.copy()  # shifted on its diagonal in place: one d x d copy per block
        m.reshape(n, d * d)[:, ::d + 1] += shift[:, None]
        tol = opts.eig_tol * np.maximum(1.0, _inf_norm(m))
    finite = np.isfinite(tol)
    failures = {k: NonFiniteResult(f"block {k}: shifted matrix overflows") for k in index[~finite].tolist()}
    rows, mu, phi, iters = np.flatnonzero(finite), np.zeros(n), np.zeros((n, d)), 0
    m, tol = (m, tol) if finite.all() else (m[rows], tol[rows])  # from here on, m and tol are per row
    if rows.size and d > opts.dense_cutoff and opts.max_iter:
        lam, x, res = _refine(m, np.full((rows.size, d), 1.0 / d), tol, opts.max_iter + 1, 16)
        done = (res <= tol) & (x.min(axis=1) > 0.0)
        mu[rows[done]], phi[rows[done]] = lam[done] - shift[rows[done]], x[done]
        m, tol = (m[~done], tol[~done]) if done.any() else (m, tol)
        rows, iters = rows[~done], opts.max_iter
    if rows.size:
        w, vecs = np.linalg.eig(m)
        x = np.real(vecs.transpose(0, 2, 1)[np.arange(rows.size), np.argmax(w.real, axis=1)])
        x = np.clip(np.where(x.sum(axis=1, keepdims=True) < 0, -x, x), 0.0, None)
        x[~x.any(axis=1)] = 1.0
        steps = max(2 * d, 50)
        lam, x, res = _refine(m, x / x.sum(axis=1, keepdims=True), tol, steps, 1)
        mu[rows], phi[rows] = lam - shift[rows], x
        failed = (res > tol) | (x.min(axis=1) <= 0.0)
        failures.update((k, NoConvergence(iters + steps, r, k))
                        for k, r in zip(index[rows[failed]].tolist(), res[failed].tolist()))
    return mu, phi, failures


def dominant_eigenpair(matrix, opts: SpectralOptions | None = None,
                       block: int = 0) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue (real, simple) and positive eigenvector of an
    irreducible Metzler matrix, normalized to unit entry sum: `_perron` on a
    stack of one, its errors naming `block`. Raises NoConvergence when neither
    power iteration nor the polished dense eigensolve reaches the residual target."""
    b = np.asarray(matrix, dtype=float)
    if b.shape[0] == 1:
        return float(b[0, 0]), np.ones(1)
    mu, phi, failures = _perron(b[None], np.array([block]), opts or DEFAULT_OPTIONS)
    if failures:
        raise failures[block]
    return float(mu[0]), phi[0]


_CLASSES = np.array([BlockClass.CRITICAL, BlockClass.SUB_CRITICAL, BlockClass.SUPER_CRITICAL], dtype=object)


def classify(mu, scale, opts: SpectralOptions | None = None):
    """Criticality call with a relative tolerance band around zero; exact
    mu = 0 is untestable in floating point. On arrays of mu and scale, an
    array of BlockClass members."""
    opts = opts or DEFAULT_OPTIONS
    tau = opts.crit_tol_rel * np.maximum(1.0, scale)
    return _CLASSES[np.where(np.abs(mu) <= tau, 0, np.where(mu < 0, 1, 2))]


def analyze_all_blocks(cond: Condensation, opts: SpectralOptions | None = None) -> Spectra:
    """The spectral columns of all blocks. A singleton's pair is (a_ii, [1])
    and its absolute row sum |a_ii|, all read in one array step. Multi-node
    blocks go to `_perron` in stacks of one size scattered by `cond.matrix`,
    one block each on the power-iteration route; the lowest failing block raises."""
    opts = opts or DEFAULT_OPTIONS
    indptr, _, value = cond.cells
    mu = np.where(indptr[1:] > indptr[:-1], np.append(value, 0.0)[indptr[:-1]], 0.0)  # a singleton's only cell, or 0
    scale = np.abs(mu)
    phi = np.ones(len(cond.permutation))  # a singleton's eigenvector is [1]
    failures: dict[int, Exception] = {}
    size = np.diff(cond.bounds)
    # the multi-node sizes, ascending; NumPy 2.4's np.unique would import numpy.ma on first use
    for d in (np.flatnonzero(np.bincount(size)[2:]) + 2).tolist():
        group = np.flatnonzero(size == d)
        per = 1 if d > opts.dense_cutoff and opts.max_iter else max(1, _CHUNK_ENTRIES // (d * d))
        for ks in np.split(group, range(per, group.size, per)):
            ks = ks[ks < min(failures, default=cond.h)]  # blocks past a failure cannot raise
            b = cond.matrix(ks, d)
            scale[ks] = _inf_norm(b)
            ok = np.isfinite(scale[ks])
            failures.update((k, NonFiniteResult(f"block {k}: absolute row sum overflows"))
                            for k in ks[~ok].tolist())
            ks = ks[ok]
            mu[ks], x, more = _perron(b if ok.all() else b[ok], ks, opts)
            phi[cond.bounds[ks, None] + np.arange(d)] = x
            failures.update(more)
    if failures:
        raise failures[min(failures)]
    classification = classify(mu, scale, opts)
    tolerance = opts.crit_tol_rel * np.maximum(1.0, scale)
    for a in (mu, tolerance, classification, phi):
        a.setflags(write=False)
    return Spectra(mu=mu, tolerance=tolerance, classification=classification, phi=phi)

"""Dominant eigenvalue and positive eigenvector of each irreducible block.

Shifting an irreducible Metzler block by s = max|diag| + 1 gives a
non-negative matrix with strictly positive diagonal, hence primitive: power
iteration converges to the Perron root without period-2 cycling, and the
dominant eigenvalue of the block is the Perron root minus s. Small blocks go
straight to a dense eigensolve, which is also the fallback when iteration is
slow.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .condensation import Block, Condensation
from .errors import NoConvergence, NonFiniteResult


class BlockClass(enum.Enum):
    CRITICAL = "critical"
    SUB_CRITICAL = "sub-critical"
    SUPER_CRITICAL = "super-critical"


@dataclass(frozen=True)
class SpectralOptions:
    """Tolerances and limits; all surfaced as CLI flags.

    crit_tol_rel: criticality band, |mu| <= crit_tol_rel * max(1, ||B||_inf).
    eig_tol: eigenpair residual target, relative to max(1, ||B + sI||_inf).
    residual_tol: steady-state residual scale (shared with the stability module).
    """

    crit_tol_rel: float = 1e-9
    eig_tol: float = 1e-12
    max_iter: int = 100_000
    dense_cutoff: int = 64
    residual_tol: float = 1e-10


DEFAULT_OPTIONS = SpectralOptions()


@dataclass(frozen=True, eq=False)
class BlockSpectrum:
    block_index: int
    mu: float
    phi: np.ndarray
    classification: BlockClass
    tolerance_used: float


def _inf_norm(m: np.ndarray) -> float:
    """Max absolute row sum; inf when it overflows, which callers reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0


# The eigenvector of every singleton block, shared and read-only.
_SINGLETON_PHI = np.ones(1)
_SINGLETON_PHI.flags.writeable = False


def _power_iteration(m: np.ndarray, tol: float, max_iter: int) -> tuple[float, np.ndarray, float, int]:
    """Power iteration on a non-negative primitive matrix, started from the
    uniform vector (stays strictly positive throughout). Residual is checked
    periodically against a Rayleigh-quotient eigenvalue estimate."""
    d = m.shape[0]
    x = np.full(d, 1.0 / d)
    lam = 0.0
    res = np.inf
    check_every = 16
    for it in range(1, max_iter + 1):
        y = m @ x
        x = y / y.sum()
        if it % check_every == 0 or it == max_iter:
            y = m @ x
            lam = float(x @ y) / float(x @ x)
            res = float(np.max(np.abs(y - lam * x)))
            if res <= tol and x.min() > 0.0:
                return lam, x, res, it
    return lam, x, res, max_iter


def _dense_perron(m: np.ndarray, tol: float) -> tuple[float, np.ndarray, float, int]:
    """Dense eigensolve for the Perron pair, polished by a few power steps to
    scrub sign dust off the eigenvector and guarantee strict positivity."""
    d = m.shape[0]
    w, vecs = np.linalg.eig(m)
    idx = int(np.argmax(w.real))
    x = np.real(vecs[:, idx])
    if x.sum() < 0:
        x = -x
    x = np.clip(x, 0.0, None)
    if not x.any():
        x = np.ones(d)
    x = x / x.sum()

    best: tuple[float, np.ndarray, float] | None = None
    lam = float(w[idx].real)
    for it in range(1, max(2 * d, 50) + 1):
        y = m @ x
        lam = float(x @ y) / float(x @ x)
        res = float(np.max(np.abs(y - lam * x)))
        if x.min() > 0.0 and (best is None or res < best[2]):
            best = (lam, x, res)
            if res <= tol:
                return lam, x, res, it
        x = y / y.sum()
    if best is None:
        return lam, x, float(np.max(np.abs(m @ x - lam * x))), max(2 * d, 50)
    return (*best, max(2 * d, 50))


def dominant_eigenpair(block: Block, opts: SpectralOptions | None = None) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue (real, simple) and positive eigenvector of an
    irreducible Metzler block. The eigenvector is normalized to unit entry sum.

    Raises NoConvergence when neither power iteration nor the dense fallback
    reaches the residual target.
    """
    opts = opts or DEFAULT_OPTIONS
    b = np.asarray(block.matrix, dtype=float)
    d = b.shape[0]
    if d == 1:
        return float(b[0, 0]), np.ones(1)

    shift = float(np.max(np.abs(np.diag(b)))) + 1.0
    with np.errstate(over="ignore"):
        m = b + shift * np.eye(d)
    tol = opts.eig_tol * max(1.0, _inf_norm(m))
    if not np.isfinite(tol):
        raise NonFiniteResult(f"block {block.index}: shifted matrix overflows")

    iters = 0
    if d > opts.dense_cutoff:
        lam, x, res, iters = _power_iteration(m, tol, opts.max_iter)
        if res <= tol and x.min() > 0.0:
            return lam - shift, x
    lam, x, res, extra = _dense_perron(m, tol)
    iters += extra
    if res > tol or x.min() <= 0.0:
        raise NoConvergence(iterations=iters, last_residual=res)
    return lam - shift, x


def classify(mu: float, scale: float, opts: SpectralOptions | None = None) -> BlockClass:
    """Criticality call with a relative tolerance band around zero; exact
    mu = 0 is untestable in floating point."""
    opts = opts or DEFAULT_OPTIONS
    tau = opts.crit_tol_rel * max(1.0, scale)
    if abs(mu) <= tau:
        return BlockClass.CRITICAL
    return BlockClass.SUB_CRITICAL if mu < 0 else BlockClass.SUPER_CRITICAL


def analyze_all_blocks(cond: Condensation, opts: SpectralOptions | None = None) -> list[BlockSpectrum]:
    """One BlockSpectrum per block, in topological order. Blocks are spectrally
    independent, so failures are tagged with the offending block index. A
    singleton's pair is (a_ii, [1]) and its absolute row sum |a_ii|, read
    directly with no eigensolve."""
    opts = opts or DEFAULT_OPTIONS
    out: list[BlockSpectrum] = []
    for block in cond.blocks:
        singleton = block.size == 1
        if singleton:
            mu = float(block.matrix[0, 0])
            scale, phi = abs(mu), _SINGLETON_PHI
        else:
            scale = _inf_norm(block.matrix)
        if not math.isfinite(scale):
            raise NonFiniteResult(f"block {block.index}: absolute row sum overflows")
        if not singleton:
            try:
                mu, phi = dominant_eigenpair(block, opts)
            except NoConvergence as exc:
                raise NoConvergence(exc.iterations, exc.last_residual, block_index=block.index) from None
            phi = phi.copy()
            phi.setflags(write=False)
        out.append(
            BlockSpectrum(
                block_index=block.index,
                mu=mu,
                phi=phi,
                classification=classify(mu, scale, opts),
                tolerance_used=opts.crit_tol_rel * max(1.0, scale),
            )
        )
    return out

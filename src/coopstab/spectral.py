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
from .errors import NoConvergence, NonFiniteResult, ValidationError


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
    max_iter: power steps for blocks above dense_cutoff nodes (0: dense only).
    """

    crit_tol_rel: float = 1e-9
    eig_tol: float = 1e-12
    max_iter: int = 100_000
    dense_cutoff: int = 64
    residual_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("crit_tol_rel", "eig_tol", "residual_tol"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValidationError(f"{name} = {value!r} must be finite and non-negative")
        for name in ("max_iter", "dense_cutoff"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValidationError(f"{name} = {value!r} must be a non-negative integer")


DEFAULT_OPTIONS = SpectralOptions()


@dataclass(frozen=True, eq=False)
class Spectra:
    """Read-only columns, one entry per block: the dominant eigenvalue `mu`,
    the criticality `tolerance` used, the `classification` (BlockClass
    members) and the positive eigenvector `phi` of unit entry sum."""

    mu: np.ndarray
    tolerance: np.ndarray
    classification: np.ndarray
    phi: tuple[np.ndarray, ...]


def _inf_norm(m: np.ndarray) -> float:
    """Max absolute row sum; inf when it overflows, which callers reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0


# The eigenvector of every singleton block, shared and read-only.
_SINGLETON_PHI = np.ones(1)
_SINGLETON_PHI.flags.writeable = False


def _refine(
    m: np.ndarray, x: np.ndarray, tol: float, steps: int, every: int
) -> tuple[float, np.ndarray, float]:
    """Power steps x <- m x / sum(m x) from x_0 = x, over x_0 .. x_{steps-1}.
    Measures (Rayleigh quotient and residual, from the step's own matvec) the
    last iterate and every `every`-th, x_0 only when every == 1. Returns the
    first measured positive iterate within tol, else the best positive one,
    else the final iterate against the last estimate."""
    best: tuple[float, np.ndarray, float] | None = None
    lam, last = 0.0, steps - 1
    for t in range(steps):
        y = m @ x
        if t == last or t % every == 0 and (t > 0 or every == 1):
            lam = float(x @ y) / float(x @ x)
            res = float(np.max(np.abs(y - lam * x)))
            if x.min() > 0.0 and (best is None or res < best[2]):
                best = (lam, x, res)
                if res <= tol:
                    return best
        x = y / y.sum()
    return best or (lam, x, float(np.max(np.abs(m @ x - lam * x))))


def dominant_eigenpair(block: Block, opts: SpectralOptions | None = None) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue (real, simple) and positive eigenvector of an
    irreducible Metzler block. The eigenvector is normalized to unit entry sum.

    Blocks above the dense cutoff try power iteration from the uniform vector
    first. Otherwise, or when it falls short, a dense eigensolve is polished
    by a few power steps that scrub sign dust off the eigenvector. Raises
    NoConvergence when neither reaches the residual target.
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
    if d > opts.dense_cutoff and opts.max_iter:
        lam, x, res = _refine(m, np.full(d, 1.0 / d), tol, opts.max_iter + 1, 16)
        if res <= tol and x.min() > 0.0:
            return lam - shift, x
        iters = opts.max_iter
    w, vecs = np.linalg.eig(m)
    x = np.real(vecs[:, int(np.argmax(w.real))])
    x = np.clip(-x if x.sum() < 0 else x, 0.0, None)
    if not x.any():
        x = np.ones(d)
    steps = max(2 * d, 50)
    lam, x, res = _refine(m, x / x.sum(), tol, steps, 1)
    if res > tol or x.min() <= 0.0:
        raise NoConvergence(iterations=iters + steps, last_residual=res)
    return lam - shift, x


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
    and its absolute row sum |a_ii|, all read in one array step; only
    multi-node blocks are built and eigensolved, in block order, so a failure
    is tagged with the lowest offending block index."""
    opts = opts or DEFAULT_OPTIONS
    mu = cond.matrices[cond.matrix_bounds[:-1]]  # a singleton's only entry
    scale = np.abs(mu)
    phi = [_SINGLETON_PHI] * cond.h
    for k in np.flatnonzero(np.diff(cond.bounds) > 1).tolist():
        block = cond.block(k)
        scale[k] = _inf_norm(block.matrix)
        if not math.isfinite(scale[k]):
            raise NonFiniteResult(f"block {k}: absolute row sum overflows")
        try:
            mu[k], phi[k] = dominant_eigenpair(block, opts)
        except NoConvergence as exc:
            raise NoConvergence(exc.iterations, exc.last_residual, block_index=k) from None
        phi[k].setflags(write=False)
    classification = classify(mu, scale, opts)
    tolerance = opts.crit_tol_rel * np.maximum(1.0, scale)
    for a in (mu, tolerance, classification):
        a.setflags(write=False)
    return Spectra(mu=mu, tolerance=tolerance, classification=classification, phi=tuple(phi))

"""Test-only references that no command runs: the path-sum form of the
steady state, the spectrum-union check and an unstructured Metzler generator.

The path-sum form writes each basis vector as an alternating sum over block
paths, exponential in the block count, so it cross-checks the level sweep of
`steady_state_basis` without sharing its propagation.
"""
from __future__ import annotations

import numpy as np

from coopstab import (BlockClass, Condensation, CooperativeSystem, CoopStabError, Spectra,
                      TooLargeForDense, ValidationError, condense, from_dense)
from coopstab.oracle import DENSE_LIMIT

PATH_SUM_LIMIT = 12  # the most blocks a path-sum enumeration takes


class BadBlockOrder(CoopStabError):
    """Coupling requested with source block not strictly upstream of target."""


class TooManyBlocks(CoopStabError):
    def __init__(self, h: int, limit: int):
        self.h = h
        self.limit = limit
        super().__init__(f"path enumeration over {h} blocks exceeds the limit of {limit}")


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


def path_sum_matrix(cond: Condensation, spectra: Spectra, k: int, l: int) -> np.ndarray:
    """Alternating sum over all directed block paths from l to k.

    Each path l -> b_1 -> ... -> b_{n-1} -> k of n edges contributes
    (-1)^(n-1) C[k, b_{n-1}] B_{b_{n-1}}^{-1} ... B_{b_1}^{-1} C[b_1, l].
    Path enumeration is exponential in the block count, so a condensation of
    more than PATH_SUM_LIMIT blocks is refused.
    """
    if cond.h > PATH_SUM_LIMIT:
        raise TooManyBlocks(cond.h, PATH_SUM_LIMIT)
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


def steady_state_by_path_sum(cond: Condensation, spectra: Spectra, free_block: int) -> np.ndarray:
    """Basis vector for one free block evaluated through the path-sum form;
    cross-validates the recursive propagation."""
    x = np.zeros(len(cond.node_to_block))
    s, e = cond.bounds[free_block:free_block + 2]
    phi = spectra.phi[s:e]
    x[cond.permutation[s:e]] = phi
    for k in range(free_block + 1, cond.h):
        if spectra.classification[k] is not BlockClass.SUB_CRITICAL:
            continue
        p = path_sum_matrix(cond, spectra, k, free_block)
        if not p.any():
            continue
        x[cond.permutation[cond.bounds[k]:cond.bounds[k + 1]]] = -np.linalg.inv(cond.matrix(k)) @ (p @ phi)
    x.setflags(write=False)
    return x


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

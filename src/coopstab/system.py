"""Linear cooperative system model: the matrix A of dm/dt = A m and its graph.

Entry a_ij (row i, column j) is the weight of the dependence-graph link
j -> i. Off-diagonal entries must be non-negative (Metzler); the diagonal is
an unrestricted node self-weight and is never treated as a graph edge.
Explicit zeros are dropped, so the stored entry set and the edge set of the
implied graph coincide exactly off the diagonal.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DuplicateEntry,
    IndexOutOfRange,
    NegativeOffDiagonal,
    NonSquare,
    ParseError,
    UnknownLabel,
    ValidationError,
    ZeroWeightEdge,
)

Coord = tuple[int, int]

EDGE_LIST_FIELDS = ("n", "labels", "edges", "self")


@dataclass(frozen=True)
class CooperativeSystem:
    """Validated Metzler matrix; immutable and safe to share across threads."""

    n: int
    entries: Mapping[Coord, float]
    node_labels: tuple[str, ...]

    @cached_property
    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries as (rows, cols, vals) arrays, in `entries` order."""
        ij = np.array(list(self.entries), dtype=np.intp).reshape(-1, 2)
        vals = np.fromiter(self.entries.values(), float, len(self.entries))
        ij.flags.writeable = vals.flags.writeable = False
        return ij[:, 0], ij[:, 1], vals

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.coo[:2]] = self.coo[2]
        return a

    def edges(self) -> list[tuple[int, int]]:
        """Graph edges as (src, dst) pairs: entry a_ij yields edge j -> i."""
        return sorted((j, i) for (i, j) in self.entries if i != j)

    def inf_norm(self) -> float:
        """Max absolute row sum, computed without densifying."""
        rows, _, vals = self.coo
        return float(np.bincount(rows, np.abs(vals), self.n).max()) if self.n else 0.0


def validate(
    raw_entries: Mapping[Coord, float] | Iterable[tuple[int, int, float]],
    n: int,
    node_labels: Iterable[str] | None = None,
) -> CooperativeSystem:
    """Check the cooperativity contract and build an immutable system.

    `raw_entries` is either a {(i, j): value} mapping or an iterable of
    (i, j, value) triples; the triple form can carry duplicates, which are a
    hard error. Explicit zero entries are dropped.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"system dimension must be a positive integer, got {n!r}")

    if isinstance(raw_entries, Mapping):
        triples: Iterator[tuple[int, int, float]] = (
            (i, j, v) for (i, j), v in raw_entries.items()
        )
    else:
        triples = iter(raw_entries)

    seen: set[Coord] = set()
    entries: dict[Coord, float] = {}
    for i, j, v in triples:
        try:
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise IndexOutOfRange(i, j, n) from None
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(i, j, n)
        if (i, j) in seen:
            raise DuplicateEntry(i, j)
        seen.add((i, j))
        v = float(v)
        if not math.isfinite(v):
            raise ValidationError(f"entry ({i},{j}) = {v} is not finite")
        if i != j and v < 0:
            raise NegativeOffDiagonal(i, j, v)
        if v != 0.0:
            entries[(i, j)] = v

    labels = _checked_labels(node_labels, n)
    return CooperativeSystem(n=n, entries=MappingProxyType(entries), node_labels=labels)


def from_dense(matrix: np.ndarray | list, node_labels: Iterable[str] | None = None) -> CooperativeSystem:
    """Build a system from a dense array (mostly a test and generator aid)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    triples = [(int(i), int(j), float(a[i, j])) for i, j in zip(*np.nonzero(a))]
    return validate(triples, n, node_labels)


def state_vector(values: Iterable[float], n: int | None = None, *, nonnegative: bool = False) -> np.ndarray:
    """Validate a state vector; returns a float copy."""
    v = np.array(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if v.ndim != 1:
        raise ValidationError(f"state vector must be one-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValidationError(f"state vector has length {v.shape[0]}, system has {n} nodes")
    if nonnegative and np.any(v < 0):
        bad = int(np.argmin(v))
        raise ValidationError(f"state vector entry {bad} is negative ({v[bad]})")
    return v


def _checked_labels(node_labels: Iterable[str] | None, n: int) -> tuple[str, ...]:
    if node_labels is None:
        return tuple(str(i) for i in range(n))
    labels = tuple(node_labels)
    if len(labels) != n:
        raise ValidationError(f"{len(labels)} labels for {n} nodes")
    if any(not isinstance(s, str) for s in labels):
        raise ValidationError("node labels must be strings")
    if len(set(labels)) != n:
        raise ValidationError("node labels must be unique")
    return labels


# ---------------------------------------------------------------------------
# Matrix Market coordinate format (real, general), 1-based indices
# ---------------------------------------------------------------------------

def load_matrix_market(text: str) -> CooperativeSystem:
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")

    banner = lines[0].split()
    if len(banner) != 5 or banner[0].lower() != "%%matrixmarket":
        raise ParseError(1, "expected banner '%%MatrixMarket matrix coordinate real general'")
    obj, fmt, fld, sym = (t.lower() for t in banner[1:])
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(1, f"unsupported object/format {obj!r}/{fmt!r}")
    if fld not in ("real", "integer"):
        raise ParseError(1, f"unsupported field {fld!r}; need real or integer")
    if sym != "general":
        raise ParseError(1, f"unsupported symmetry {sym!r}; need general")

    data = (
        (no, ln) for no, ln in enumerate(lines[1:], start=2)
        if ln.strip() and not ln.lstrip().startswith("%")
    )
    try:
        size_no, size_line = next(data)
    except StopIteration:
        raise ParseError(len(lines), "missing size line") from None
    parts = size_line.split()
    if len(parts) != 3:
        raise ParseError(size_no, f"size line needs 'rows cols nnz', got {size_line!r}")
    try:
        rows, cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError(size_no, f"non-integer size line {size_line!r}") from None
    if rows != cols:
        raise NonSquare(size_no, rows, cols)

    triples: list[tuple[int, int, float]] = []
    for no, ln in data:
        if len(triples) == nnz:
            raise ParseError(no, f"more than the declared {nnz} entries")
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(no, f"entry needs 'row col value', got {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            raise ParseError(no, f"malformed entry {ln!r}") from None
        triples.append((i - 1, j - 1, v))
    if len(triples) != nnz:
        raise ParseError(len(lines), f"declared {nnz} entries, found {len(triples)}")

    return validate(triples, rows)


def to_matrix_market(system: CooperativeSystem) -> str:
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"{system.n} {system.n} {len(system.entries)}",
    ]
    for i, j in sorted(system.entries):
        lines.append(f"{i + 1} {j + 1} {system.entries[(i, j)]!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Edge-list format. Field names are exactly: n, labels, edges, self.
# An edge {from: j, to: i, weight: w} contributes a_ij = w, i.e. a link j -> i.
# ---------------------------------------------------------------------------

def load_edge_list_json(text: str) -> CooperativeSystem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    if not isinstance(data, dict):
        raise ParseError(0, "top level must be an object")
    for key in data:
        if key not in EDGE_LIST_FIELDS:
            raise ParseError(0, f"unknown field {key!r}")
    if "n" not in data:
        raise ParseError(0, "missing field 'n'")
    n = data["n"]
    if not isinstance(n, int):
        raise ParseError(0, f"field 'n' must be an integer, got {n!r}")

    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ParseError(0, "field 'labels' must be a list of strings")

    def resolve(ref, what: str) -> int:
        if isinstance(ref, bool) or not isinstance(ref, (int, str)):
            raise ParseError(0, f"{what} must be an index or a label, got {ref!r}")
        if isinstance(ref, int):
            return ref
        if labels is None or ref not in labels:
            raise UnknownLabel(ref)
        return labels.index(ref)

    triples: list[tuple[int, int, float]] = []
    for edge in _require_list(data.get("edges", []), "edges"):
        _require_keys(edge, ("from", "to", "weight"), "edge")
        src = resolve(edge["from"], "edge 'from'")
        dst = resolve(edge["to"], "edge 'to'")
        w = _require_number(edge["weight"], "edge 'weight'")
        if w == 0.0:
            raise ZeroWeightEdge(edge["from"], edge["to"])
        triples.append((dst, src, w))
    for selfw in _require_list(data.get("self", []), "self"):
        _require_keys(selfw, ("node",), "self entry", optional=("weight", "self_weight"))
        node = resolve(selfw["node"], "self 'node'")
        w = _require_number(selfw.get("weight", selfw.get("self_weight", 0.0)), "self weight")
        if w != 0.0:
            triples.append((node, node, w))

    return validate(triples, n, labels)


def to_edge_list_json(system: CooperativeSystem) -> str:
    edges = [
        {"from": j, "to": i, "weight": v}
        for (i, j), v in sorted(system.entries.items())
        if i != j
    ]
    selfs = [
        {"node": i, "weight": v}
        for (i, j), v in sorted(system.entries.items())
        if i == j
    ]
    payload = {
        "n": system.n,
        "labels": list(system.node_labels),
        "edges": edges,
        "self": selfs,
    }
    return json.dumps(payload, indent=2, allow_nan=False)


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(0, f"field {what!r} must be a list")
    return value


def _require_keys(obj, required: tuple[str, ...], what: str, optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ParseError(0, f"{what} must be an object, got {obj!r}")
    for key in required:
        if key not in obj:
            raise ParseError(0, f"{what} missing key {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(0, f"{what} has unknown key {key!r}")


def _require_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(0, f"{what} must be a number, got {value!r}")
    return float(value)


def is_compartmental(system: CooperativeSystem, tol_rel: float = 1e-12) -> bool:
    """True when every column sum is non-positive (a conserved quantity with
    possible external leaks)."""
    col = np.zeros(system.n)
    scale = 0.0
    for (_, j), v in system.entries.items():
        col[j] += v
        scale = max(scale, abs(v))
    return bool(np.all(col <= tol_rel * max(1.0, scale)))

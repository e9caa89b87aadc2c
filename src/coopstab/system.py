"""Linear cooperative system model: the matrix A of dm/dt = A m and its graph.

Entry a_ij (row i, column j) is the weight of the dependence-graph link
j -> i. Off-diagonal entries must be non-negative (Metzler); the diagonal is
an unrestricted node self-weight and is never treated as a graph edge.
Explicit zeros are dropped, so the stored entry set and the edge set of the
implied graph coincide exactly off the diagonal.
"""
from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True, eq=False)
class CooperativeSystem:
    """Validated Metzler matrix; immutable and safe to share across threads.

    `coo` is the stored form: read-only (rows, cols, vals) arrays in input
    order, explicit zeros dropped, each coordinate at most once.
    """

    n: int
    coo: tuple[np.ndarray, np.ndarray, np.ndarray]
    node_labels: tuple[str, ...]

    @cached_property
    def by_column(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, order): column j's entries of `coo` are order[indptr[j]:indptr[j + 1]]."""
        cols = self.coo[1]
        return np.bincount(cols + 1, minlength=self.n + 1).cumsum(), np.argsort(cols, kind="stable")

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.coo[:2]] = self.coo[2]
        return a

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

    `raw_entries` is a {(i, j): value} mapping, an iterable of (i, j, value)
    triples, or a tuple of three NumPy arrays (rows, cols, values), the form
    of `CooperativeSystem.coo`; the triple and array forms can carry
    duplicates, which are a hard error. Explicit zero entries are dropped.
    The first offending triple in input order is reported, checked in this
    order: index type, index range, duplicate coordinate, value conversion,
    finiteness, sign.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"system dimension must be a positive integer, got {n!r}")

    if isinstance(raw_entries, tuple) and len(raw_entries) == 3 and all(
        isinstance(c, np.ndarray) for c in raw_entries
    ):
        raw_rows, raw_cols, raw_vals = raw_entries
        if raw_rows.ndim != 1 or any(c.shape != raw_rows.shape for c in raw_entries):
            raise ValidationError("entry arrays must be one-dimensional and of one length")
    else:
        triples = (
            [(i, j, v) for (i, j), v in raw_entries.items()]
            if isinstance(raw_entries, Mapping) else list(raw_entries)
        )
        # Unpacking in place allocates nothing per triple; zip(*triples) makes
        # an iterator per triple, enough to set off a full garbage collection.
        raw_rows = [i for i, _, _ in triples]
        raw_cols = [j for _, j, _ in triples]
        raw_vals = [v for _, _, v in triples]

    rows, bad_row = _index_column(raw_rows, n)
    cols, bad_col = _index_column(raw_cols, n)
    vals, not_float = _value_column(raw_vals)
    not_index = bad_row | bad_col
    in_range = (rows >= 0) & (cols >= 0)
    order = np.lexsort((cols, rows))  # stable: a coordinate's first triple is not marked
    repeat = (rows[order[1:]] == rows[order[:-1]]) & (cols[order[1:]] == cols[order[:-1]])
    duplicate = np.zeros(len(raw_rows), dtype=bool)
    duplicate[order[1:][repeat]] = True
    checks = (
        not_index,
        ~in_range & ~not_index,
        duplicate & in_range,
        not_float,
        ~np.isfinite(vals),
        (rows != cols) & (vals < 0),
    )
    failed = np.logical_or.reduce(checks)
    if failed.any():
        t = int(failed.argmax())
        _raise_for((raw_rows[t], raw_cols[t], raw_vals[t]), [bool(c[t]) for c in checks], n)

    keep = vals != 0.0
    coo = (rows[keep], cols[keep], vals[keep])
    for a in coo:
        a.flags.writeable = False
    labels = _checked_labels(node_labels, n)
    return CooperativeSystem(n=n, coo=coo, node_labels=labels)


def _array_of_kind(raw: Sequence, kinds: str) -> np.ndarray | None:
    """`raw` as an array when NumPy reads it with a dtype kind in `kinds`."""
    try:
        arr = np.asarray(raw)
    except (ValueError, TypeError, OverflowError):
        return None
    return arr if arr.dtype.kind in kinds else None


def _index_column(raw: Sequence, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices as an intp array holding -1 where an index is out of [0, n) or
    not an integer, and a mask of those `operator.index` rejects. Columns that
    NumPy does not read as integers are checked one value at a time."""
    arr = _array_of_kind(raw, "iu")
    if arr is not None:
        idx = arr.astype(np.intp)
        idx[(arr < 0) | (arr >= n)] = -1
        return idx, np.zeros(len(raw), dtype=bool)
    idx = np.full(len(raw), -1, dtype=np.intp)
    not_index = np.zeros(len(raw), dtype=bool)
    for t, x in enumerate(raw):
        try:
            x = operator.index(x)
        except TypeError:
            not_index[t] = True
            continue
        if 0 <= x < n:
            idx[t] = x
    return idx, not_index


def _value_column(raw: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Values as a float array holding 0.0 where `float` rejects a value, and
    a mask of those. Columns that NumPy does not read as numbers are
    converted one value at a time."""
    arr = _array_of_kind(raw, "biuf")
    if arr is not None:
        return arr.astype(float), np.zeros(len(raw), dtype=bool)
    vals = np.zeros(len(raw))
    not_float = np.zeros(len(raw), dtype=bool)
    for t, x in enumerate(raw):
        try:
            vals[t] = float(x)
        except (TypeError, ValueError, OverflowError):
            not_float[t] = True
    return vals, not_float


def _raise_for(triple: tuple, failed: list[bool], n: int) -> None:
    """Raise the error for the first of `validate`'s checks the triple fails."""
    not_index, out_of_range, duplicate, _, not_finite, _ = failed
    i, j, v = triple
    if not_index:
        raise IndexOutOfRange(i, j, n)
    i, j = operator.index(i), operator.index(j)
    if out_of_range:
        raise IndexOutOfRange(i, j, n)
    if duplicate:
        raise DuplicateEntry(i, j)
    v = float(v)
    if not_finite:
        raise ValidationError(f"entry ({i},{j}) = {v} is not finite")
    raise NegativeOffDiagonal(i, j, v)


def from_dense(matrix: np.ndarray | list, node_labels: Iterable[str] | None = None) -> CooperativeSystem:
    """Build a system from a dense array (mostly a test and generator aid)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    i, j = np.nonzero(a)
    return validate((i, j, a[i, j]), a.shape[0], node_labels)


def state_vector(values: Iterable[float], n: int | None = None, *, nonnegative: bool = False) -> np.ndarray:
    """Validate a state vector; returns a float copy."""
    v = np.array(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if v.ndim != 1:
        raise ValidationError(f"state vector must be one-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValidationError(f"state vector has length {v.shape[0]}, system has {n} nodes")
    finite = np.isfinite(v)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValidationError(f"state vector entry {bad} is not finite ({v[bad]})")
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
    try:
        "".join(labels).encode("utf-8")  # a lone surrogate cannot be printed or written
    except UnicodeEncodeError as exc:
        bad = int(np.searchsorted(np.cumsum([len(s) for s in labels]), exc.start, side="right"))
        raise ValidationError(f"node label {bad} ({labels[bad]!r}) is not valid UTF-8 text") from None
    return labels


# ---------------------------------------------------------------------------
# Matrix Market coordinate format (real, general), 1-based indices
# ---------------------------------------------------------------------------

# The banner, any blank or comment lines, and the size line, each ended by "\n".
_HEAD = re.compile(r"[^\n]*\n(?:[^\S\n]*(?:%[^\n]*)?\n)*[^\S\n]*[^\s%][^\n]*\n")
# A canonical entry line: 1-based indices of at most 15 digits (exact as
# doubles) without leading zeros, and a plain decimal value, single spaces.
_ENTRY = r"[1-9][0-9]{0,14} [1-9][0-9]{0,14} -?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
# Matches at the line break before the first line that is not canonical. A
# lookahead per line keeps no state across lines, as `(?:LINE\n)*` would for
# every line, and the literal "\n" lets the search skip from break to break.
_NOT_ENTRY = re.compile(rf"\n(?!{_ENTRY}$)", re.M)


def load_matrix_market(text: str) -> CooperativeSystem:
    """A system from Matrix Market text. When every entry line is canonical
    (`i j value`, single spaces, each line ended by "\n"), the entries are
    converted in one vectorised pass; any other text takes the line-by-line
    path, with the same result or the same error."""
    head = _HEAD.match(text)  # its lines, unless a line break in it is not "\n" or "\r\n"
    start = head.end() if head and len(head[0].splitlines()) == head[0].count("\n") else len(text)
    lines = text[:start].splitlines()
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

    # `data` reads `lines` lazily: it goes on into the body lines appended below.
    data = (
        (no, ln) for no, ln in enumerate(lines, start=1)
        if no > 1 and ln.strip() and not ln.lstrip().startswith("%")
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

    if start < len(text) and text.endswith("\n") and not _NOT_ENTRY.search(text, start - 1, len(text) - 1):
        entries = np.fromstring(text[start:], sep=" ").reshape(-1, 3)  # three numbers a line
        if len(entries) == nnz:
            i, j = (entries[:, c].astype(np.intp) - 1 for c in (0, 1))
            return validate((i, j, entries[:, 2]), rows)
    lines += text[start:].splitlines()  # the head ends with a line break
    return validate(_entries_by_line(data, nnz, len(lines)), rows)


def _entries_by_line(data, nnz: int, line_count: int) -> list[tuple[int, int, float]]:
    """The 0-based (i, j, value) triples of the entry lines, one at a time."""
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
        raise ParseError(line_count, f"declared {nnz} entries, found {len(triples)}")
    return triples


def to_matrix_market(system: CooperativeSystem) -> str:
    rows, cols, vals = system.coo
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"{system.n} {system.n} {len(vals)}",
    ]
    lines += map("{} {} {!r}".format, (rows + 1).tolist(), (cols + 1).tolist(), vals.tolist())
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
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError(0, f"field 'n' must be an integer, got {n!r}")

    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ParseError(0, "field 'labels' must be a list of strings")
    # First occurrence wins, as with list.index; `validate` then rejects
    # duplicate and non-string labels.
    index_of = {s: i for i, s in reversed(list(enumerate(labels or []))) if isinstance(s, str)}

    def resolve(ref, what: str) -> int:
        if isinstance(ref, bool) or not isinstance(ref, (int, str)):
            raise ParseError(0, f"{what} must be an index or a label, got {ref!r}")
        if isinstance(ref, int):
            return ref
        if ref not in index_of:
            raise UnknownLabel(ref)
        return index_of[ref]

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
    rows, cols, vals = system.coo
    order = np.lexsort((cols, rows))
    entries = list(zip(rows[order].tolist(), cols[order].tolist(), vals[order].tolist()))
    payload = {
        "n": system.n,
        "labels": list(system.node_labels),
        "edges": [{"from": j, "to": i, "weight": v} for i, j, v in entries if i != j],
        "self": [{"node": i, "weight": v} for i, j, v in entries if i == j],
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
    try:
        return float(value)
    except OverflowError:
        raise ParseError(0, f"{what} is not finite as a float") from None


def is_compartmental(system: CooperativeSystem, tol_rel: float = 1e-12) -> bool:
    """True when every column sum is non-positive (a conserved quantity with
    possible external leaks)."""
    _, cols, vals = system.coo
    col = np.bincount(cols, vals, system.n)
    scale = float(np.abs(vals).max(initial=0.0))
    return bool(np.all(col <= tol_rel * max(1.0, scale)))

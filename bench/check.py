"""Per-operation correctness check of CLI output against a planted answer."""
from __future__ import annotations

import json

import numpy as np

from workloads import Plan

# The CLI's documented steady-state residual scale (`--residual-tol` default).
RESIDUAL_TOL = 1e-10


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def check(command: str, plan: Plan, matrix, exit_code: int, stdout: str) -> str | None:
    """None when one `analyze` or `steady-state` result matches the plan,
    otherwise a one-line description of the first problem found."""
    if exit_code != plan.exit_code:
        return f"exit code {exit_code}, planned {plan.exit_code}"
    try:
        out = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"output is not strict JSON: {exc}"
    try:
        if command == "analyze":
            return _check_report(plan, out)
        return _check_basis(plan, matrix, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed {command} output: {exc!r}"


def _check_report(plan: Plan, out: dict) -> str | None:
    got = (out["verdict"], out["n"], out["h"],
           out["algebraic_multiplicity_zero"], out["geometric_multiplicity_zero"])
    want = (plan.verdict, plan.n, plan.h, plan.algebraic, plan.geometric)
    if got != want:
        return f"(verdict, n, h, algebraic, geometric) = {got}, planned {want}"
    free = {frozenset(b["nodes"]) for b in out["blocks"] if b["free"]}
    if free != plan.free_sets:
        return f"{len(free ^ plan.free_sets)} free-block node sets differ from the plan"
    return None


def _check_basis(plan: Plan, matrix, out: dict) -> str | None:
    vectors = out["vectors"]
    if out["n"] != plan.n or len(vectors) != plan.geometric:
        return f"{len(vectors)} vectors over n={out['n']}, planned {plan.geometric} over n={plan.n}"
    values = np.array([v["values"] for v in vectors], dtype=float).reshape(len(vectors), -1)
    if values.shape[1] != plan.n:
        return f"vectors have {values.shape[1]} entries, planned {plan.n}"
    if values.size and values.min() < 0:
        return f"negative entry {values.min()!r}"

    members = [np.fromiter(s, dtype=np.int64) for s in plan.free_sets]
    set_of = np.full(plan.n, -1)
    for idx, nodes in enumerate(members):
        set_of[nodes] = idx
    touched = set()
    for vec in values:
        ids = np.unique(set_of[(vec != 0) & (set_of >= 0)])
        if ids.size != 1 or not np.all(vec[members[ids[0]]] > 0):
            return "a vector is not positive on exactly one planted free block"
        touched.add(int(ids[0]))
    if len(touched) != len(members):
        return "two vectors carry the same free block"

    bound = RESIDUAL_TOL * max(1.0, plan.a_inf_norm)
    reported = max((float(v["residual_inf"]) for v in vectors), default=0.0)
    actual = float(np.abs(matrix @ values.T).max()) if values.size else 0.0
    if not reported <= bound or not actual <= bound:
        return f"residual reported {reported!r}, recomputed {actual!r}, bound {bound!r}"
    return None

"""Self-tests of the benchmark: generators, planted answers, checker, tracer.

    PYTHONPATH=src python3 -m pytest bench -q
"""
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coopstab import cli
from coopstab.oracle import dense_verdict
from coopstab.system import load_matrix_market

import run
from check import check
from tracer import BOUNDARIES, Tracer
from workloads import GENERATORS

ROOT = Path(__file__).resolve().parent.parent
# Sizes within the dense oracle's limit of 500 nodes.
SMALL = {
    "dag-singletons": {"n": 300},
    "critical-antichain": {"pairs": 40},
}


def small(name: str, seed: int):
    return GENERATORS[name](seed, **SMALL[name])


def run_cli(command: str, path: Path) -> tuple[int, str]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main([command, str(path)])
    return code, captured.getvalue()


@pytest.fixture
def restore_coopstab():
    """Undo the tracer's attribute replacements after the test."""
    saved = {name: dict(vars(m)) for name, m in sys.modules.items()
             if name == "coopstab" or name.startswith("coopstab.")}
    yield
    for name, attrs in saved.items():
        vars(sys.modules[name]).update(attrs)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_deterministic(name):
    a, b, other = small(name, 5), small(name, 5), small(name, 6)
    assert a.text == b.text and a.plan == b.plan
    assert (a.matrix != b.matrix).nnz == 0
    assert other.text != a.text


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plan_agrees_with_dense_oracle(name, seed):
    workload = small(name, seed)
    system = load_matrix_market(workload.text)
    assert system.n == workload.plan.n <= 500
    oracle = dense_verdict(system)
    assert oracle.verdict.value == workload.plan.verdict
    assert oracle.algebraic_multiplicity_zero == workload.plan.algebraic
    assert oracle.geometric_multiplicity_zero == workload.plan.geometric


def _corrupt_values(text: str, value: float) -> str:
    out = json.loads(text)
    vec = out["vectors"][0]["values"]
    vec[int(np.argmax(vec))] = value
    return json.dumps(out)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_checker_accepts_cli_output_and_rejects_corruptions(name, tmp_path):
    workload = small(name, 3)
    plan, matrix = workload.plan, workload.matrix
    path = tmp_path / "system.mtx"
    path.write_text(workload.text)

    code, report = run_cli("analyze", path)
    assert check("analyze", plan, matrix, code, report) is None
    assert "exit code" in check("analyze", plan, matrix, code + 1, report)
    wrong = report.replace('"marginally-stable"', '"unstable"')
    assert "verdict" in check("analyze", plan, matrix, code, wrong)

    code, basis = run_cli("steady-state", path)
    assert check("steady-state", plan, matrix, code, basis) is None
    assert "exit code" in check("steady-state", plan, matrix, 70, basis)
    assert "strict JSON" in check("steady-state", plan, matrix, code,
                                  _corrupt_values(basis, float("nan")))
    assert "negative" in check("steady-state", plan, matrix, code,
                               _corrupt_values(basis, -1e-3))
    assert "residual" in check("steady-state", plan, matrix, code,
                               _corrupt_values(basis, 10.0))
    assert "malformed" in check("steady-state", plan, matrix, code, "{}")


@pytest.mark.parametrize("memory", [False, True])
def test_tracer_records_layers_and_survives_missing_targets(memory, tmp_path, restore_coopstab):
    workload = small("critical-antichain", 1)
    path = tmp_path / "system.mtx"
    path.write_text(workload.text)
    tracer = Tracer(memory=memory)
    tracer.install((
        *BOUNDARIES,
        ("ghost", "coopstab.cli", "no_such_function"),
        ("gone", "coopstab.no_such_module", "anything"),
    ))
    assert set(tracer.unmeasured) == {"ghost", "gone"}
    if memory:
        tracemalloc.start()
    try:
        code, out = run_cli("steady-state", path)
    finally:
        tracemalloc.stop()
    assert check("steady-state", workload.plan, workload.matrix, code, out) is None
    summary = tracer.summary()
    assert summary["calls"]["output"] == 1
    assert summary["calls"]["residual"] == summary["calls"]["basis.lu"] == workload.plan.geometric
    assert summary["calls"]["spectra.eigenpair"] == workload.plan.h
    root = next(s for s in tracer.spans if s[0] == "output")
    assert sum(summary["self_s"].values()) == pytest.approx(root[2] - root[1])
    if memory:
        assert set(summary["peak_mb"]) == set(run.PEAK_LAYERS)
        assert all(v >= 0 for v in summary["peak_mb"].values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(GENERATORS)


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "critical-antichain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Seeded benchmark of the coopstab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload from the seed, writes it as Matrix Market text, and
runs the real entry point `coopstab.cli.main` for `analyze` and
`steady-state`, each sample in a fresh child process (bench/child.py), one
child at a time. Every output is checked against the planted answer.

--trace 0 measures the end-to-end metrics until S seconds are used, each
time starting the command that has used the least time so far, so both get
about half of it. Every child's import time is a sample of `setup_s`. All
figures are medians over the run.

Times are scaled to a reference machine speed. On a shared 2-vCPU virtual
machine everything, a plain Python loop included, runs up to 1.5 times
slower for minutes at a time; raw medians of two sets of ten runs differed by
20-35%. So every child first times a fixed pure-Python task (child.py), and
the run's times are multiplied by CALIBRATION_REF_S over the median of those
calibration times. Raw medians are printed next to the scaled ones.

--trace 1 measures the per-layer metrics: one tracemalloc pass per command,
then rounds of an untraced and a span-traced child per command. Span figures
are totals over the traced `analyze` and `steady-state` children of a round,
reported as the median over rounds; peaks are the larger of the two
commands'. `trace.overhead_s` is the traced minus the untraced end-to-end time
of a round.

Human-readable lines come first; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The run exits non-zero without
a result when the coopstab sources are missing or a metric got no sample.
"""
import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy

from check import check
from tracer import layer_of
from workloads import GENERATORS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
COMMANDS = ("analyze", "steady-state")
# One BLAS/OpenMP thread in every child: with OpenBLAS's default of one
# thread per core, the first burst of matvecs pays about a second of thread
# start-up on a 2-core machine, which measures the scheduler.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A fixed string-hash seed, so every child lays out its dicts and sets alike.
CHILD_ENV = {**THREAD_PIN, "PYTHONHASHSEED": "0"}
# Stop starting children after this long, so a run ends well inside 180 s
# even when one round takes far longer than the requested seconds.
HARD_LIMIT_S = 150.0
SHOW_PROBLEMS = 5

END_TO_END_UNITS = {
    "analyze_s": "s",
    "steady_state_s": "s",
    "analyze_rss_mb": "MB",
    "steady_state_rss_mb": "MB",
    "setup_s": "s",
}
# Calibration time the end-to-end timings are scaled to (see the docstring).
CALIBRATION_REF_S = 0.05
PEAK_LAYERS = ("ingest", "condense", "spectra", "verdict", "basis", "residual", "output")
PER_LAYER_UNITS = {
    "ingest.parse_s": "s",
    "ingest.validate_s": "s",
    "condense_s": "s",
    "spectra_s": "s",
    "spectra.eigenpair_s": "s",
    "spectra.eigenpair_calls": "count",
    "verdict_s": "s",
    "basis_s": "s",
    "basis.lu_calls": "count",
    "residual_s": "s",
    "residual.calls": "count",
    "output_s": "s",
    "output.bytes": "B",
    **{f"{layer}.peak_alloc_mb": "MB" for layer in PEAK_LAYERS},
    "trace.overhead_s": "s",
}


class Runner:
    """Starts children one at a time, checks every operation and counts
    failures."""

    def __init__(self, workload, workdir: Path, started: float):
        self.workload = workload
        self.input = workdir / "system.mtx"
        self.input.write_text(workload.text)
        self.output = workdir / "output.json"
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.unmeasured: dict[str, str] = {}

    def out_of_time(self) -> bool:
        return time.monotonic() - self.started > HARD_LIMIT_S

    def _child(self, *args: str) -> tuple[dict | None, str | None]:
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), *args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["no message"]
            return None, f"crashed with status {proc.returncode}: {lines[-1]}"
        return json.loads(proc.stdout.splitlines()[-1]), None

    def warm_up(self) -> None:
        """One import-only child that fills the bytecode and page caches."""
        _, problem = self._child()
        if problem:
            self.problems.append(f"import: {problem}")

    def op(self, command: str, trace: str = "off") -> dict | None:
        """One checked CLI operation; returns the child's record, or None when
        the child did not finish."""
        self.attempted += 1
        record, problem = self._child(command, str(self.input), str(self.output), trace)
        if record is not None:
            plan, matrix = self.workload.plan, self.workload.matrix
            problem = check(command, plan, matrix, record["exit_code"], self.output.read_text())
            self.unmeasured.update(record.get("trace", {}).get("unmeasured", {}))
        if problem:
            self.failed += 1
            self.problems.append(f"{command} ({trace}): {problem}")
        return record


def _rounds(runner: Runner, deadline: float, one_round, minimum: int = 1) -> None:
    """Call one_round() `minimum` times, and again while another round of the
    longest length seen so far still ends before the deadline."""
    longest = 0.0
    for done in itertools.count(1):
        began = time.monotonic()
        one_round()
        longest = max(longest, time.monotonic() - began)
        if runner.out_of_time() or (done >= minimum and time.monotonic() + longest > deadline):
            return


def end_to_end(runner: Runner, deadline: float) -> tuple[dict[str, list[float]], list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    calibration: list[float] = []
    spent = dict.fromkeys(COMMANDS, 0.0)

    def one_op():
        command = min(COMMANDS, key=spent.get)
        began = time.monotonic()
        record = runner.op(command)
        spent[command] += time.monotonic() - began
        if record is not None:
            key = command.replace("-", "_")
            calibration.append(record["calibration_s"])
            samples["setup_s"].append(record["import_s"])
            samples[f"{key}_s"].append(record["op_s"])
            samples[f"{key}_rss_mb"].append(record["rss_mb"])

    _rounds(runner, deadline, one_op, minimum=len(COMMANDS))
    return samples, calibration


def _span_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer span figures, summed over the traced children of one round."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for record in records:
        self_s.update(record["trace"]["self_s"])
        calls.update(record["trace"]["calls"])
    layer_s: dict[str, float] = defaultdict(float)
    for boundary, seconds in self_s.items():
        layer_s[layer_of(boundary)] += seconds
    return {
        "ingest.parse_s": self_s["ingest.parse"],
        "ingest.validate_s": self_s["ingest.validate"],
        "condense_s": layer_s["condense"],
        "spectra_s": layer_s["spectra"],
        "spectra.eigenpair_s": self_s["spectra.eigenpair"],
        "spectra.eigenpair_calls": calls["spectra.eigenpair"],
        "verdict_s": layer_s["verdict"],
        "basis_s": layer_s["basis"],
        "basis.lu_calls": calls["basis.lu"],
        "residual_s": layer_s["residual"],
        "residual.calls": calls["residual"],
        "output_s": layer_s["output"],
        "output.bytes": sum(record["output_bytes"] for record in records),
    }


def per_layer(runner: Runner, deadline: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER_UNITS}
    allocs = [runner.op(command, "alloc") for command in COMMANDS]
    for layer in PEAK_LAYERS:
        peaks = [r["trace"]["peak_mb"].get(layer, 0.0) for r in allocs if r is not None]
        if peaks:
            samples[f"{layer}.peak_alloc_mb"].append(max(peaks))

    def one_round():
        plain, traced = [], []
        for command in COMMANDS:
            plain.append(runner.op(command, "off"))
            traced.append(runner.op(command, "spans"))
        if None in plain or None in traced:
            return
        for name, value in _span_metrics(traced).items():
            samples[name].append(value)
        overhead = sum(r["op_s"] for r in traced) - sum(r["op_s"] for r in plain)
        samples["trace.overhead_s"].append(overhead)

    _rounds(runner, deadline, one_round)
    return samples


def _blas_version(module) -> str | None:
    try:
        return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(np),
        "scipy_openblas": _blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "child_env": CHILD_ENV,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coopstab" / "cli.py").is_file():
        print(f"error: no coopstab sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    workload = GENERATORS[args.workload](args.seed)
    plan = workload.plan
    print("env", json.dumps(environment(), sort_keys=True))
    print("workload", json.dumps({
        "name": workload.name, "seed": args.seed, "n": plan.n, "nnz": plan.nnz,
        "h": plan.h, "free_blocks": plan.geometric,
    }))

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        runner = Runner(workload, Path(workdir), started)
        runner.warm_up()
        deadline = time.monotonic() + args.seconds
        speed = 1.0
        if args.trace:
            samples, units = per_layer(runner, deadline), PER_LAYER_UNITS
        else:
            (samples, calibration), units = end_to_end(runner, deadline), END_TO_END_UNITS
            if calibration:
                speed = CALIBRATION_REF_S / statistics.median(calibration)
                print(f"calibration_s median {statistics.median(calibration):.6g} of"
                      f" {len(calibration)}: times scaled by {speed:.6g}")

    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        if not values:
            print(f"error: no sample of {name}", file=sys.stderr)
            return 1
        median = statistics.median(values)
        value = median * speed if unit == "s" else median
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<26} {value:>14.6g} {unit:<5} median of {len(values):<3}"
              f" (raw: min {min(values):.6g}, median {median:.6g}, max {max(values):.6g})")
    print(f"{'fail_frac':<26} {runner.failed / runner.attempted:>14.6g} {'1':<5}"
          f" {runner.failed} failed of {runner.attempted} operations")
    for boundary, reason in sorted(runner.unmeasured.items()):
        print(f"unmeasured: {boundary} ({reason})")
    for problem in runner.problems[:SHOW_PROBLEMS]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

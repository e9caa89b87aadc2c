import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_from_vectors, reference_basis_payload, reference_report_payload
from coopstab import (
    BlockClass,
    CoopStabError,
    CriticalPath,
    NonFiniteResult,
    Spectra,
    StabilityReport,
    SuperCriticalBlock,
    Verdict,
    condense,
    from_dense,
    full_analysis,
    load_matrix_market,
    nullspace_residual,
    nullspace_residuals,
    steady_state_basis,
    to_matrix_market,
    validate,
)
from coopstab import cli
from coopstab import system as system_module
from coopstab.cli import _write_basis, _write_report, main
from coopstab.spectral import DEFAULT_OPTIONS

MM_HEADER = "%%MatrixMarket matrix coordinate real general"
FIXTURES = Path(__file__).parent / "fixtures"


def _write(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(to_matrix_market(from_dense(matrix)))
    return str(path)


@pytest.fixture
def marginal(tmp_path):
    return _write(tmp_path, "marginal.mtx", [[0.0]])


@pytest.fixture
def unstable(tmp_path):
    return _write(tmp_path, "unstable.mtx", [[0, 0], [1, 0]])


@pytest.fixture
def stable(tmp_path):
    return _write(tmp_path, "stable.mtx", [[-1, 0], [1, -1]])


def test_analyze_exit_codes(marginal, unstable, stable, capsys):
    assert main(["analyze", marginal]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "marginally-stable"
    assert payload["algebraic_multiplicity_zero"] == 1

    assert main(["analyze", stable]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "asymptotically-stable"

    assert main(["analyze", unstable]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["unstable_reason"] == {
        "kind": "critical-path",
        "upstream": 0,
        "downstream": 1,
        "path": [0, 1],
    }


def test_analyze_reports_tolerances(marginal, capsys):
    assert main(["analyze", marginal, "--crit-tol-rel", "1e-6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tolerances"]["crit_tol_rel"] == 1e-6


def test_analyze_pretty(unstable, capsys):
    assert main(["analyze", unstable, "--pretty"]) == 2
    out = capsys.readouterr().out
    assert "verdict: unstable" in out
    assert "B0 -> B1" in out


def test_parse_error_exit_64(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a matrix\n")
    assert main(["analyze", str(bad)]) == 64
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, command",
    [
        ("nan.mtx", f"{MM_HEADER}\n1 1 1\n1 1 nan\n", "analyze"),
        ("inf.mtx", f"{MM_HEADER}\n2 2 1\n2 1 inf\n", "steady-state"),
        ("nan.json", '{"n": 1, "self": [{"node": 0, "weight": NaN}]}', "analyze"),
        ("huge.json", '{"n": 1, "self": [{"node": 0, "weight": 1%s}]}' % ("0" * 400), "analyze"),
    ],
)
def test_non_finite_input_exit_64(tmp_path, capsys, name, text, command):
    path = tmp_path / name
    path.write_text(text)
    assert main([command, str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


@pytest.mark.parametrize("command", ["analyze", "steady-state"])
def test_fraction_under_the_integer_field_exit_64(tmp_path, capsys, command):
    # once read as a real: exit 2, "block 1 is super-critical"
    path = tmp_path / "integer.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 -1\n2 2 0.5\n")
    assert main([command, str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 4: value 0.5 is not a whole number, as the 'integer' field requires\n"


def _only_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


# A RuntimeWarning raised as an error shows any overflow warning the CLI
# would print before its error line.
@pytest.mark.filterwarnings("error")
def test_overflowing_steady_state_exit_70(tmp_path, capsys):
    # finite weights whose propagation overflows: 1 -> 1e300 -> 1e600
    path = tmp_path / "overflow.mtx"
    path.write_text(f"{MM_HEADER}\n3 3 4\n2 1 1e300\n2 2 -1\n3 2 1e300\n3 3 -1\n")
    assert main(["analyze", str(path)]) == 0
    # parse_constant sees only NaN, Infinity and -Infinity
    json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert main(["steady-state", str(path)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "block 2" in captured.err
    assert _only_error_line(captured.err)


@pytest.mark.parametrize(
    "entries",
    [
        "1 2 1e308\n2 1 1e308\n1 1 -1e308",  # absolute row sum overflows
        "1 2 1\n2 1 1\n1 1 1e308",  # diagonal shift overflows
    ],
)
@pytest.mark.filterwarnings("error")
def test_overflowing_block_norm_exit_70(tmp_path, capsys, entries):
    path = tmp_path / "huge.mtx"
    path.write_text(f"{MM_HEADER}\n2 2 3\n{entries}\n")
    assert main(["analyze", str(path)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "block 0" in captured.err
    assert _only_error_line(captured.err)


@pytest.mark.filterwarnings("error")
def test_overflow_into_multi_node_block_exit_70(tmp_path, capsys):
    # 1 -> 2e300 in a singleton, then an infinite right-hand side for the
    # two-node block {3, 4}; lu_solve would reject it with a ValueError
    path = tmp_path / "overflow.mtx"
    path.write_text(
        f"{MM_HEADER}\n4 4 7\n2 1 1e300\n2 2 -0.5\n3 2 1e300\n3 3 -2\n"
        "3 4 1\n4 3 1\n4 4 -2\n"
    )
    assert main(["steady-state", str(path)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: steady-state entry for node 2 (block 2) is not finite\n"


def test_non_finite_residual_exit_70(monkeypatch, marginal, capsys):
    monkeypatch.setattr("coopstab.cli.nullspace_residuals", lambda system, csc: np.full(len(csc[0]) - 1, np.inf))
    assert main(["steady-state", marginal]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _only_error_line(captured.err)


@pytest.mark.parametrize(
    "name, data, line, byte",
    [
        ("entry.mtx", f"{MM_HEADER}\n2 2 1\n".encode() + b"2 1 1\xff\n", 3, 0xFF),
        ("comment.mtx", f"{MM_HEADER}\n".encode() + b"% caf\xe9\n1 1 1\n1 1 -1\n", 2, 0xE9),
        ("labels.json", b'{"n": 1,\n"labels": ["\xff"]}', 2, 0xFF),
        ("cr.mtx", f"{MM_HEADER}\r2 2 1\r".encode() + b"2 1 1\xff\r", 3, 0xFF),
        ("crlf.mtx", f"{MM_HEADER}\r\n2 2 1\r\n".encode() + b"2 1 1\xff\r\n", 3, 0xFF),
    ],
)
@pytest.mark.parametrize("command", ["analyze", "steady-state"])
def test_non_utf8_input_exit_64(tmp_path, capsys, name, data, line, byte, command):
    path = tmp_path / name
    path.write_bytes(data)
    assert main([command, str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line}: byte 0x{byte:02x} is not UTF-8\n"


@pytest.mark.parametrize(
    "flag, args",
    [("--initial", ["simulate", "{system}", "--times", "1"]), ("--config", ["oracle", "generate"])],
)
def test_non_utf8_side_file_is_named(tmp_path, capsys, marginal, flag, args):
    side = tmp_path / "side.txt"
    side.write_bytes(b"1\n1 \xfe")
    args = [a.format(system=marginal) for a in args]
    assert main([*args, flag, str(side)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {side}: line 2: byte 0xfe is not UTF-8\n"


def test_input_lines_end_at_any_newline(tmp_path, capsys):
    mm = tmp_path / "crlf.mtx"
    mm.write_bytes(f"{MM_HEADER}\r\n1 1 1\r\n1 1 -1\r\n".encode())
    assert main(["analyze", str(mm)]) == 1
    bad = tmp_path / "cr.json"
    bad.write_bytes(b'{"n": 1,\r"self": x}')
    assert main(["analyze", str(bad)]) == 64
    assert "error: line 2: " in capsys.readouterr().err


SURROGATE_LABEL = (
    '{"n": 2, "labels": ["a\\ud800", "b"], "edges": [{"from": 0, "to": 1, "weight": 1.0}], '
    '"self": [{"node": 1, "weight": -1.0}]}'
)


@pytest.mark.parametrize(
    "command, extra",
    [("analyze", []), ("steady-state", ["--pretty"]), ("simulate", ["--times", "1"])],
)
def test_lone_surrogate_label_exit_64(tmp_path, capsys, command, extra):
    path = tmp_path / "surrogate.json"
    path.write_text(SURROGATE_LABEL)
    assert main([command, str(path), *extra]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: node label 0 ('a\\ud800') is not valid UTF-8 text\n"


@pytest.mark.parametrize("command", ["analyze", "steady-state"])
def test_boolean_dimension_exit_64(tmp_path, capsys, command):
    # True passes isinstance(n, int) and once failed inside condense: exit 1
    path = tmp_path / "bool.json"
    path.write_text('{"n": true}')
    assert main([command, str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 0: field 'n' must be an integer, got True\n"


@pytest.mark.parametrize("command", ["analyze", "steady-state", "condense"])
def test_dimension_above_the_key_bound_exit_64_at_once(tmp_path, capsys, monkeypatch, command):
    def no_labels_for(node_labels, n):  # were the bound not checked first, n labels would be built
        raise AssertionError(f"labels built for n = {n}")

    monkeypatch.setattr(system_module, "_checked_labels", no_labels_for)
    path = tmp_path / "huge.mtx"
    path.write_text(f"{MM_HEADER}\n{2**32} {2**32} 1\n1 1 -1\n", encoding="utf-8")
    start = time.perf_counter()
    assert main([command, str(path)]) == 64
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: system dimension 4294967296 exceeds the supported maximum 3037000498\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_steady_state_restores_the_garbage_collector(marginal, capsys, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["steady-state", marginal]) == 0
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert json.loads(capsys.readouterr().out)["vectors"][0]["values"] == [1.0]


@pytest.mark.parametrize(
    "exc",
    [ArithmeticError("boom"), ZeroDivisionError("boom"), np.linalg.LinAlgError("boom"),
     ValueError("boom")],
    ids=type,
)
@pytest.mark.parametrize("command", ["analyze", "steady-state"])
def test_uncaught_numeric_failure_exit_70(monkeypatch, marginal, capsys, exc, command):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("coopstab.cli.full_analysis", fail)
    assert main([command, marginal]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _only_error_line(captured.err)
    assert f"({type(exc).__name__}): boom" in captured.err


def test_steady_state_decides_the_verdict_once(monkeypatch, marginal, capsys):
    import coopstab.stability as stability

    calls = []
    original = stability.verdict
    monkeypatch.setattr(stability, "verdict", lambda *a: calls.append(a) or original(*a))
    assert main(["steady-state", marginal]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["analyze", "steady-state"])
def test_memory_exhaustion_exit_70(monkeypatch, marginal, capsys, command):
    def exhaust(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr("coopstab.cli.full_analysis", exhaust)
    assert main([command, marginal]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 74.5 GiB\n"


FEED = str(FIXTURES / "feed.mtx")
USAGE_ERRORS = {
    "non-integer-max-iter": ["analyze", FEED, "--max-iter", "1.5"],
    "non-number-crit-tol": ["analyze", FEED, "--crit-tol-rel", "abc"],
    "unknown-flag": ["steady-state", FEED, "--no-such-flag"],
    "missing-input": ["analyze"],
    "missing-command": [],
    "missing-oracle-command": ["oracle"],
    "simulate-tolerance": ["simulate", FEED, "--times", "1", "--crit-tol-rel", "1e-9"],
    "simulate-pretty": ["simulate", FEED, "--times", "1", "--pretty"],
    "dense-verdict-tolerance": ["oracle", "dense-verdict", FEED, "--eig-tol", "1e-12"],
    "dense-verdict-pretty": ["oracle", "dense-verdict", FEED, "--pretty"],
    "condense-pretty": ["condense", FEED, "--pretty"],
    "limit-check-pretty": ["oracle", "limit-check", FEED, "--pretty"],
    "generate-bad-int": ["oracle", "generate", "--seed", "x"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exit_64(argv, capsys):
    # argparse exits 2, which scripts read as "unstable"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["analyze", "--help"],
                                  ["oracle", "limit-check", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_missing_file_exit_64(capsys):
    assert main(["analyze", "/nonexistent/file.mtx"]) == 64


def test_analyze_deterministic_output(unstable, capsys):
    main(["analyze", unstable])
    first = capsys.readouterr().out
    main(["analyze", unstable])
    assert capsys.readouterr().out == first


def test_steady_state_vectors(tmp_path, capsys):
    path = _write(tmp_path, "two_free.mtx", [[0, 0, 0], [0, 0, 0], [1, 2, -1]])
    assert main(["steady-state", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [v["alpha"] for v in payload["vectors"]] == ["alpha_0", "alpha_1"]
    np.testing.assert_allclose(payload["vectors"][0]["values"], [1, 0, 1], atol=1e-12)
    np.testing.assert_allclose(payload["vectors"][1]["values"], [0, 1, 2], atol=1e-12)
    assert all(v["residual_inf"] < 1e-12 for v in payload["vectors"])


def test_steady_state_refusal_and_force(stable, unstable, capsys):
    assert main(["steady-state", stable]) == 2
    assert "refusing" in capsys.readouterr().err

    assert main(["steady-state", unstable, "--force-nullspace"]) == 0
    captured = capsys.readouterr()
    assert "WARNING" in captured.err
    payload = json.loads(captured.out)
    assert "warning" in payload
    assert payload["vectors"][0]["values"] == [0.0, 1.0]


def test_condense_dot(unstable, capsys, tmp_path):
    assert main(["condense", unstable]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph condensation {")
    assert "fillcolor=blue" in out
    assert "B0 -> B1;" in out

    target = tmp_path / "graph.dot"
    assert main(["condense", unstable, "--dot", str(target)]) == 0
    assert target.read_text() == out


def test_analyze_dot_side_output(unstable, tmp_path, capsys):
    target = tmp_path / "annotated.dot"
    assert main(["analyze", unstable, "--dot", str(target)]) == 2
    capsys.readouterr()
    assert "// verdict: unstable" in target.read_text()


def test_simulate_table(tmp_path, capsys):
    path = _write(tmp_path, "decay.mtx", [[-1.0]])
    assert main(["simulate", path, "--times", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t m_0"
    t, value = lines[1].split()
    assert float(t) == 1.0
    assert abs(float(value) - np.exp(-1)) < 1e-10


def test_simulate_initial_file(tmp_path, capsys):
    path = _write(tmp_path, "growth.mtx", [[0, 0], [1, 0]])
    init = tmp_path / "init.txt"
    init.write_text("1\n0\n")
    assert main(["simulate", path, "--times", "10", "--initial", str(init)]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split()
    np.testing.assert_allclose([float(x) for x in row], [10.0, 1.0, 10.0], atol=1e-9)


@pytest.mark.parametrize("times, initial", [("nan,inf", None), ("1,inf", None), ("1", "1 nan")])
def test_simulate_rejects_non_finite_input(tmp_path, capsys, times, initial):
    path = _write(tmp_path, "decay.mtx", [[-1.0, 0.0], [1.0, -1.0]])
    args = ["simulate", path, "--times", times]
    if initial is not None:
        (tmp_path / "init.txt").write_text(initial)
        args += ["--initial", str(tmp_path / "init.txt")]
    assert main(args) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize(
    "times, initial, token",
    [("abc", None, "'abc'"), ("1,,2x", None, "'2x'"), ("1", "1 0x1", "'0x1'")],
)
def test_simulate_rejects_malformed_numbers(tmp_path, capsys, times, initial, token):
    path = _write(tmp_path, "growth.mtx", [[0, 0], [1, 0]])
    args = ["simulate", path, "--times", times]
    if initial is not None:
        (tmp_path / "init.txt").write_text(initial)
        args += ["--initial", str(tmp_path / "init.txt")]
    assert main(args) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _only_error_line(captured.err)
    assert f"could not convert string to float: {token}" in captured.err
    assert ("--initial" if initial else "--times") in captured.err


def test_oracle_dense_verdict(unstable, capsys):
    assert main(["oracle", "dense-verdict", unstable]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "unstable"
    assert payload["algebraic_multiplicity_zero"] == 2
    assert payload["geometric_multiplicity_zero"] == 1


def test_oracle_limit_check(tmp_path, capsys):
    path = _write(tmp_path, "critical.mtx", [[-1, 1], [1, -1]])
    assert main(["oracle", "limit-check", path, "--block", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] < 1e-8
    assert payload["certified_to_t"] == 25.0


def test_oracle_limit_check_reads_the_spectral_flags(capsys):
    path = str(FIXTURES / "large_scc.mtx")
    assert main(["oracle", "limit-check", path, "--max-iter", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] == 7.262255364996325e-14
    assert main(["oracle", "limit-check", path]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] == 6.312506414065668e-10
    assert main(["oracle", "limit-check", path, "--eig-tol", "-1"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eig_tol = -1.0 must be finite and non-negative\n"


@pytest.mark.parametrize("entries, block, error", [
    # +-1e308: an infinite gap, where the horizon 50 / gap would be 0
    ("2 2 2\n1 2 1e308\n2 1 1e308", 0, "block 0: eigenvalues or spectral gap not finite"),
    # block 1 is {2, 3}, whose 1e308 diagonal overflows the shift
    ("3 3 4\n2 2 1e308\n2 3 1\n3 2 1\n2 1 1", 1, "block 1: shifted matrix overflows"),
    # a finite gap (1e308), but the absolute row sum overflows: analyze's error, not a class
    ("2 2 4\n1 1 -1e308\n1 2 1e308\n2 1 1\n2 2 -1", 0, "block 0: absolute row sum overflows"),
], ids=["infinite-gap", "shift-overflow", "row-sum-overflow"])
@pytest.mark.filterwarnings("error")
def test_oracle_limit_check_non_finite_exit_70(tmp_path, capsys, entries, block, error):
    path = tmp_path / "huge.mtx"
    path.write_text(f"{MM_HEADER}\n{entries}\n")
    assert main(["oracle", "limit-check", str(path), "--block", str(block)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in FIXTURES.iterdir() if p.is_file())
)
def test_oracle_limit_check_refuses_the_blocks_analyze_calls_not_critical(capsys, fixture):
    main(["analyze", str(FIXTURES / fixture)])
    classes = [block["class"] for block in json.loads(capsys.readouterr().out)["blocks"]]
    for k, klass in enumerate(classes):
        rc = main(["oracle", "limit-check", str(FIXTURES / fixture), "--block", str(k)])
        captured = capsys.readouterr()
        if klass == "critical":
            assert (rc, captured.err) == (0, "")
        else:
            assert (rc, captured.out) == (64, "")
            assert captured.err == f"error: block {k} is {klass}; the limit check needs a critical block\n"


def test_steady_state_on_a_singular_sub_critical_block_prints_one_error_line(capsys):
    # block 1 = [[-0.5, 2], [0.5, -2]] is singular; its computed mu, -4.4e-16, is sub-critical
    # only in a band of width zero
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["steady-state", str(FIXTURES / "singular_sub.mtx"), "--crit-tol-rel", "0"])
    captured = capsys.readouterr()
    assert rc == 70
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: linear solve on block 1 hit a tiny pivot; the block was classified sub-critical "
        "but is numerically singular (likely a borderline criticality call)"]
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("block", ["2", "9", "-1"])
def test_oracle_limit_check_rejects_block_out_of_range(capsys, block):
    path = str(FIXTURES / "feed.mtx")  # two blocks
    assert main(["oracle", "limit-check", path, "--block", block]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--block {block} outside [0,2)" in captured.err


def test_oracle_generate_round_trips(capsys):
    assert main(["oracle", "generate", "--seed", "5", "--marginal"]) == 0
    text = capsys.readouterr().out
    system = load_matrix_market(text)
    assert system.n >= 1

    assert main(["oracle", "generate", "--seed", "5", "--marginal"]) == 0
    assert capsys.readouterr().out == text  # deterministic per seed


@pytest.mark.parametrize("args, sha256", [
    pytest.param("--seed 5", "14173f98d050286a0ba53617862dc0dfd5b32c01f8ff5d590bd1c55edb6a628b",
                 id="default"),
    pytest.param("--topology forest --num-blocks 30,40 --block-size 1,4 --seed 11",
                 "20e27b0c78fc61a9c815a38db3642a839af138f209cd462511f29d850069c6e8", id="forest"),
    pytest.param("--block-size 1 --num-blocks 300,300 --seed 3",
                 "193e0e3f43b58c6fa9e65e0d5fd84c3011159b4a0558958b10fb51e129d359f5", id="random-dag-300"),
])
def test_oracle_generate_marginal_output_is_pinned(args, sha256, capsys):
    """The marginal generator's output, hashed as written before its reachability sweep read
    successor lists instead of scanning the whole DAG once per block."""
    assert main(["oracle", "generate", *args.split(), "--marginal"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("args, sha256", [
    pytest.param("--num-blocks 40,60 --block-size 1,6 --seed 3",
                 "301d7680200e0b1f0abf14de2a55a9ed85674f1c4ce6cc4e38eebb9dffd84613", id="random-dag"),
    pytest.param("--topology forest --num-blocks 30,40 --block-size 1,4 --seed 11",
                 "64c6d21d572329f5354a70ac14d0698312b3c89b83b310281e46604800d11df5", id="forest"),
    pytest.param("--compartmental --num-blocks 5,12 --block-size 1,5 --seed 2",
                 "f4c89ac09657c430966de7c0034df54b6d1c5afad5cfac6e05e3bc539c4998d3", id="compartmental"),
    pytest.param("--config {config}",
                 "2655b7886e3a3b63e54da41a5a16718f55c212d0b7a5e6193a47b0bbd3f68864", id="planted-config"),
])
def test_oracle_generate_output_is_pinned(args, sha256, tmp_path, capsys):
    """The plain and compartmental generators' output, hashed as written when the random DAG
    drew its pairs, and the compartmental diagonal summed its columns, one at a time."""
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({
        "planted": [[3, "critical"], [1, "sub-critical"], [2, "super-critical"], [4, "critical"],
                    [1, "critical"]],
        "topology": "diamond", "shuffle_nodes": False, "seed": 7,
    }), encoding="utf-8")
    assert main(["oracle", "generate", *args.format(config=config).split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


_IMPORT_PROBE = """
import importlib.util, io, os, sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
import coopstab.cli as cli
from coopstab import stability
unused = ["scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma", "coopstab.oracle", "dataclasses"]
if os.name != "nt":  # there the scipy package's __init__ runs first, for its DLL search path
    unused.append("scipy")
heavy = [m for m in unused if m in sys.modules]
assert not heavy, heavy
loads, load = [], stability._load_flapack
stability._load_flapack = lambda: loads.append(1) or load()
fixtures = sorted(p for p in Path(sys.argv[1]).iterdir() if p.is_file())
for path in fixtures:  # analyze solves no block, so SciPy's LAPACK and its OpenBLAS stay unloaded
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        cli.main(["analyze", str(path)])
assert stability._lapack is None and not loads, loads
if os.path.exists("/proc/self/maps"):
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]  # also a prefix of scipy.libs
    with open("/proc/self/maps", encoding="utf-8") as maps:
        mapped = sorted({line.split()[-1] for line in maps if scipy_dir in line})
    assert not mapped, mapped
runs = 0
for path in fixtures:
    for command in ("analyze", "steady-state"):
        before = set(sys.modules)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main([command, str(path)])
        gained = sorted(set(sys.modules) - before)
        assert not gained, (command, path.name, gained)
        runs += 1
assert len(loads) == 1, loads  # by the first solve of a multi-node block, and by no later one
import scipy.linalg  # still imports as usual, and binds the same LAPACK routines
assert scipy.linalg._flapack.dgetrf is stability._lapack[0]
import coopstab
for name in ("DenseVerdict", "GeneratorSpec", "LimitCheckResult", "dense_verdict", "expm_limit_check",
             "generate", "generate_compartmental", "generate_marginally_stable", "generate_with_plan",
             "random_critical_matrix", "simulate"):
    names = {}
    exec(f"from coopstab import {name}", names)
    assert names[name] is getattr(sys.modules["coopstab.oracle"], name), name
try:
    coopstab.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("coopstab.no_such_name resolved")
print(runs)
"""


def test_cli_imports_nothing_heavy_and_nothing_during_an_op():
    """A fresh `import coopstab.cli` leaves out the scipy package, scipy.linalg and the NumPy
    subpackages that its import pulls in, the oracle module, and `dataclasses`, whose decorator
    compiles generated methods for each class at import; `analyze` on every fixture leaves SciPy's
    LAPACK unloaded (on Linux, no file of SciPy's is mapped), the first multi-node solve of
    `steady-state` loads it once, and no op imports a module; a later `import scipy.linalg`
    works as usual and binds the same dgetrf, and the package's oracle names resolve on first use
    to the oracle module's own objects. A subprocess, because this process has imported all of them."""
    src = Path(cli.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-W", "error", "-c", _IMPORT_PROBE, str(FIXTURES)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) == 2 * sum(p.is_file() for p in FIXTURES.iterdir())


def test_oracle_generate_compartmental(capsys):
    assert main(["oracle", "generate", "--seed", "2", "--compartmental",
                 "--out-format", "json"]) == 0
    out = capsys.readouterr().out
    from coopstab import is_compartmental, load_edge_list_json

    assert is_compartmental(load_edge_list_json(out))


@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in FIXTURES.iterdir() if p.is_file())
)
def test_golden_corpus(fixture, capsys):
    """analyze output is byte-identical to the stored golden report."""
    rc = main(["analyze", str(FIXTURES / fixture)])
    out = capsys.readouterr().out
    assert out == (FIXTURES / "golden" / f"{fixture}.report.json").read_text()
    assert rc == int((FIXTURES / "golden" / f"{fixture}.exit").read_text())


@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in FIXTURES.iterdir() if p.is_file())
)
def test_analyze_pretty_golden_corpus(fixture, capsys):
    """analyze --pretty output and exit code are byte-identical to the stored golden."""
    rc = main(["analyze", str(FIXTURES / fixture), "--pretty"])
    out = capsys.readouterr().out
    assert out == (FIXTURES / "golden" / f"{fixture}.analyze-pretty.out").read_text()
    assert rc == int((FIXTURES / "golden" / f"{fixture}.analyze-pretty.exit").read_text())


@pytest.mark.parametrize(
    "fixture, tag, extra",
    # large_scc.mtx comes after the rest, next to the limits that vary its
    # power-iteration path; later fixtures are appended, so that no case id
    # (which counts the cases) changes
    [(p.name, "steady", []) for p in sorted(FIXTURES.iterdir())
     if p.is_file() and p.name not in ("large_scc.mtx", "grouped_levels.mtx", "singular_sub.mtx",
                                       "fringe_core.mtx", "cycle_core.mtx")]
    + [("critical_pair.mtx", "steady-forced", ["--force-nullspace"]),
       ("shared_cone.mtx", "steady-pretty", ["--pretty"]),
       ("critical_pair.mtx", "steady-pretty", ["--pretty", "--force-nullspace"]),
       ("large_scc.mtx", "steady", []),
       ("large_scc.mtx", "steady-max-iter-0", ["--max-iter", "0"]),
       ("large_scc.mtx", "steady-max-iter-1", ["--max-iter", "1"]),
       ("large_scc.mtx", "steady-dense-cutoff-0", ["--dense-cutoff", "0"]),
       ("grouped_levels.mtx", "steady", []),
       ("grouped_levels.mtx", "steady-pretty", ["--pretty"]),
       ("singular_sub.mtx", "steady", []),
       ("singular_sub.mtx", "steady-crit-tol-rel-0", ["--crit-tol-rel", "0"]),
       ("fringe_core.mtx", "steady", []),
       ("cycle_core.mtx", "steady", [])],
)
def test_steady_state_golden_corpus(fixture, tag, extra, capsys):
    """steady-state stdout and exit code are byte-identical to the stored golden."""
    rc = main(["steady-state", str(FIXTURES / fixture), *extra])
    out = capsys.readouterr().out
    assert out == (FIXTURES / "golden" / f"{fixture}.{tag}.out").read_text()
    assert rc == int((FIXTURES / "golden" / f"{fixture}.{tag}.exit").read_text())


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in FIXTURES.iterdir() if p.is_file())
)
def test_streamed_output_in_small_chunks_equals_the_goldens(fixture, chunk, monkeypatch, capsys):
    """With 1, 2 or 3 blocks, labels or stored values of a column per write, the streamed
    `analyze` and `steady-state` JSON split at every kind of boundary, byte-identical."""
    monkeypatch.setattr(cli, "_REPORT_CHUNK", chunk)
    monkeypatch.setattr(cli, "_BASIS_CHUNK", chunk)
    runs = [(["analyze"], "report.json", "exit"), (["steady-state"], "steady.out", "steady.exit")]
    if fixture == "critical_pair.mtx":
        runs.append((["steady-state", "--force-nullspace"], "steady-forced.out", "steady-forced.exit"))
    for command, out_tag, exit_tag in runs:
        rc = main([*command, str(FIXTURES / fixture)])
        assert capsys.readouterr().out == (FIXTURES / "golden" / f"{fixture}.{out_tag}").read_text()
        assert rc == int((FIXTURES / "golden" / f"{fixture}.{exit_tag}").read_text())


def test_batched_residuals_equal_the_one_vector_residual_on_every_fixture():
    """The residuals `steady-state` prints, from one pass over the basis, equal
    `nullspace_residual` of each column as a dense vector, forced bases included."""
    built = []
    for path in sorted(p for p in FIXTURES.iterdir() if p.is_file()):
        system = cli._load_system(str(path), "auto")
        cond, spectra, report = full_analysis(system)
        try:
            basis = steady_state_basis(cond, spectra, report, force=True)
        except CoopStabError:
            continue
        residuals = nullspace_residuals(system, basis.csc)
        assert len(residuals) == len(basis.vectors)
        for c, vector in enumerate(basis.vectors):
            assert float.hex(float(residuals[c])) == float.hex(nullspace_residual(system, vector)), (path.name, c)
        built.append((path.name, report.verdict))
    assert ("critical_pair.mtx", Verdict.UNSTABLE) in built and len(built) >= 7


@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in FIXTURES.iterdir() if p.is_file())
)
def test_condense_golden_corpus(fixture, capsys):
    """condense DOT output and exit code are byte-identical to the stored golden."""
    rc = main(["condense", str(FIXTURES / fixture)])
    out = capsys.readouterr().out
    assert out == (FIXTURES / "golden" / f"{fixture}.condense.out").read_text()
    assert rc == int((FIXTURES / "golden" / f"{fixture}.condense.exit").read_text())


@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in FIXTURES.iterdir() if p.is_file())
)
def test_limit_check_golden_corpus(fixture, capsys):
    """oracle limit-check --block k: stdout, stderr and exit code of every block k are
    byte-identical to the stored golden, a JSON list with one entry per block."""
    want = json.loads((FIXTURES / "golden" / f"{fixture}.limit-check.json").read_text())
    got = []
    for k in range(len(want)):
        rc = main(["oracle", "limit-check", str(FIXTURES / fixture), "--block", str(k)])
        captured = capsys.readouterr()
        got.append({"exit": rc, "stderr": captured.err, "stdout": captured.out})
    assert got == want
    # the golden covers every block: the next number is out of range
    assert main(["oracle", "limit-check", str(FIXTURES / fixture), "--block", str(len(want))]) == 64


def test_analyze_json_input(tmp_path, capsys):
    from coopstab import to_edge_list_json

    path = tmp_path / "system.json"
    path.write_text(to_edge_list_json(from_dense([[0, 0], [1, -2]])))
    assert main(["analyze", str(path)]) == 0  # format inferred from extension
    assert json.loads(capsys.readouterr().out)["verdict"] == "marginally-stable"

    renamed = tmp_path / "system.data"
    renamed.write_text(path.read_text())
    assert main(["analyze", str(renamed), "--format", "json"]) == 0


def test_oracle_generate_config_file(tmp_path, capsys):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({
        "topology": "chain",
        "planted": [[1, "critical"], [2, "sub-critical"]],
        "seed": 11,
        "shuffle_nodes": False,
    }))
    assert main(["oracle", "generate", "--config", str(config)]) == 0
    system = load_matrix_market(capsys.readouterr().out)
    assert system.n == 3


TOLERANCE_FLAGS = [(flag, value) for flag in ("--crit-tol-rel", "--eig-tol", "--residual-tol")
                   for value in ("-1", "nan", "inf")]
LIMIT_FLAGS = [("--max-iter", "-1"), ("--dense-cutoff", "-1"), ("--max-iter", "-3")]


@pytest.mark.parametrize("command", ["analyze", "steady-state"])
@pytest.mark.parametrize("flag, value", TOLERANCE_FLAGS + LIMIT_FLAGS,
                         ids=[f"{value}-{flag}" for flag, value in TOLERANCE_FLAGS + LIMIT_FLAGS])
def test_invalid_tolerance_is_an_input_error(command, flag, value, capsys):
    # feed.mtx has a block with mu exactly 0.0: a negative band once called
    # it super-critical (exit 2), and a NaN band ended in exit 70. A negative
    # --max-iter or --dense-cutoff was once accepted and echoed in the report.
    assert main([command, str(FIXTURES / "feed.mtx"), flag, value]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag[2:].replace('-', '_')} = ")


@pytest.mark.parametrize(
    "config, message",
    [
        ('{"seed": 1,', "Expecting property name"),
        ('{"sed": 1}', "unknown key 'sed'"),
        ('{"num_blocks": 5}', "num_blocks must be a list of 2, got 5"),
        ('{"num_blocks": [1, "2"]}', "num_blocks[1] must be int"),
        ('{"classes": "critical"}', "classes must be a list"),
        ('{"planted": [[2.5, "critical"]]}', "planted[0][0] must be int"),
        ('{"seed": true}', "seed must be int"),
        ('{"edge_density": NaN}', "edge_density must be a finite number"),
        ('{"weight_range": [0.5, 1e400]}', "weight_range[1] must be a finite number"),
        ("[1]", "expected a JSON object"),
    ],
)
def test_oracle_generate_bad_config_is_an_input_error(tmp_path, capsys, config, message):
    path = tmp_path / "spec.json"
    path.write_text(config)
    assert main(["oracle", "generate", "--config", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --config {path}: ")
    assert message in captured.err


def test_oracle_generate_compartmental_refuses_config_fields_it_does_not_read(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"planted": [[2, "critical"]], "class_margin": 1.0, "shuffle_nodes": false, "seed": 3}')
    assert main(["oracle", "generate", "--compartmental", "--config", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the compartmental generator does not read planted, class_margin, "
                            "shuffle_nodes; leave them at their defaults\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--num-blocks", "a"], "--num-blocks 'a'"),
        (["--num-blocks", ""], "--num-blocks ''"),
        (["--block-size", "1,2,3"], "--block-size '1,2,3'"),
        (["--num-blocks", "3,1"], "num_blocks"),
        (["--classes", "foo"], "unknown class 'foo'"),
        (["--density", "2"], "edge density"),
        (["--topology", "ring"], "unknown topology"),
        # the compartmental generator checks the fields it does not read as well
        (["--classes", "foo", "--compartmental"], "unknown class 'foo'"),
        (["--topology", "ring", "--compartmental"], "unknown topology"),
        # and refuses valid values of them but the defaults
        (["--topology", "chain", "--compartmental"], "does not read topology;"),
        (["--classes", "super-critical", "--compartmental"], "does not read classes;"),
    ],
)
def test_oracle_generate_bad_flag_is_an_input_error(capsys, args, message):
    assert main(["oracle", "generate", *args]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


HUGE = 10**20  # past int64: NumPy's integer draws and sums once failed on it with exit 70
GENERATOR_REFUSALS = [
    (["--seed", "-1"], None, "seed must be in [0, 2**63), got -1"),
    ([], {"seed": -3}, "seed must be in [0, 2**63), got -3"),
    ([], {"seed": HUGE}, f"seed must be in [0, 2**63), got {HUGE}"),
    (["--num-blocks", f"1,{HUGE}"], None, f"num_blocks must be in [0, 2**63), got {HUGE}"),
    (["--block-size", f"1,{HUGE}"], None, f"block_size must be in [0, 2**63), got {HUGE}"),
    ([], {"num_blocks": [1, HUGE]}, f"num_blocks must be in [0, 2**63), got {HUGE}"),
    ([], {"block_size": [1, HUGE]}, f"block_size must be in [0, 2**63), got {HUGE}"),
    ([], {"planted": [[HUGE, "critical"]]}, f"planted block size must be in [0, 2**63), got {HUGE}"),
    # weights of 1e308 once overflowed in the generator with a RuntimeWarning
    ([], {"weight_range": [1e308, 1.7e308]}, "weight_range (1e+308, 1.7e+308) overflows: 12 nodes"),
    ([], {"weight_range": [1e307, 1e307], "block_size": [1, 5]}, "weight_range (1e+307, 1e+307) overflows"),
    # sizes that fit int64 but not memory once ended in exit 70, or would ask for gigabytes
    ([], {"planted": [[4_000_000_000, "critical"]]}, "the spec draws up to 4000000000 nodes, over the generators'"),
    ([], {"planted": [[50_000, "critical"]]}, "the spec draws up to 50000 nodes"),
    (["--num-blocks", f"1,{2**62}"], None, f"the spec draws up to {3 * 2**62} nodes"),
    (["--block-size", "2001"], None, "the spec draws up to 8004 nodes"),
]


@pytest.mark.parametrize("compartmental", [[], ["--compartmental"]], ids=["default", "compartmental"])
@pytest.mark.parametrize("args, config, message", GENERATOR_REFUSALS)
def test_oracle_generate_refuses_out_of_range_numbers(tmp_path, capsys, compartmental, args, config, message):
    if config is not None:
        if compartmental and "planted" in config:
            message = "does not read planted"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        args = [*args, "--config", str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["oracle", "generate", *args, *compartmental])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (64, "")
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert message in captured.err
    assert [str(w.message) for w in caught] == []


# ---------------------------------------------------------------------------
# The analyze contract on arbitrary Matrix Market text
# ---------------------------------------------------------------------------

MM_FAULTS = (
    "out of range", "repeat", "negative", "nan", "inf", "short line", "long line",
    "not a number", "count", "size line", "banner",
)


def _assert_analyze_contract(path) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["analyze", str(path)])  # an uncaught exception fails here
    assert code in {0, 1, 2, 64, 70}
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=pytest.fail)


@st.composite
def matrix_market_text(draw):
    """Valid files, some with huge weights, with up to two faults planted:
    an entry out of range, repeated, negative, non-finite or malformed, a
    wrong entry count, a bad size line or a bad banner."""
    n = draw(st.integers(1, 4))
    cell = st.tuples(st.integers(1, n), st.integers(1, n))
    weight = st.sampled_from(["1", "0", "-0", "2.5", "1e300", "1e-320"])
    self_weight = weight | st.sampled_from(["-1", "-1e308"])
    lines = [
        f"{i} {j} {draw(self_weight if i == j else weight)}"
        for i, j in draw(st.lists(cell, max_size=8, unique=True))
    ]
    banner, size, extra = MM_HEADER, None, 0
    for fault in draw(st.lists(st.sampled_from(MM_FAULTS), max_size=2)):
        i, j = draw(cell)
        line = {
            "out of range": f"{draw(st.sampled_from([0, n + 1]))} {j} 1",
            "repeat": draw(st.sampled_from(lines)) if lines else None,
            "negative": f"{i} {j} -2",
            "nan": f"{i} {j} nan",
            "inf": f"{i} {j} {draw(st.sampled_from(['inf', '-inf']))}",
            "short line": f"{i} {j}",
            "long line": f"{i} {j} 1 1",
            "not a number": f"{i} {j} x",
        }.get(fault)
        if line is not None:
            lines.insert(draw(st.integers(0, len(lines))), line)
        extra += fault == "count"
        size = "x y z" if fault == "size line" else size
        banner = banner.replace("real", "complex") if fault == "banner" else banner
    size = size or f"{n} {n} {len(lines) + extra}"
    return "\n".join([banner, size, *lines]) + "\n"


@given(matrix_market_text())
@settings(max_examples=300, deadline=None)
def test_analyze_contract_on_arbitrary_matrix_market(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "system.mtx"
    path.write_text(text)
    _assert_analyze_contract(path)


# ---------------------------------------------------------------------------
# The analyze contract on arbitrary edge-list JSON text
# ---------------------------------------------------------------------------

EDGE_FAULTS = (
    "unknown field", "no n", "bad n", "bad labels", "unknown label", "missing key",
    "extra key", "bad weight", "zero weight", "negative", "non-finite", "huge int",
    "out of range", "repeat", "edge not object", "edges not list", "not object",
    "truncated",
)


@st.composite
def edge_list_text(draw):
    """Valid edge lists, with indices or labels and some huge weights, with
    up to two faults planted: a bad field, key, label, index or weight, a
    repeated edge, a wrong shape, or text cut short."""
    n = draw(st.integers(1, 4))
    labels = [f"v{i}" for i in range(n)] if draw(st.booleans()) else None

    def node():
        i = draw(st.integers(0, n - 1))
        return labels[i] if labels and draw(st.booleans()) else i

    weight = st.sampled_from([1, 2.5, 1e300, 1e-320])
    edges = [
        {"from": src, "to": dst, "weight": draw(weight)}
        for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                      .filter(lambda e: e[0] != e[1]),
                                      max_size=8, unique=True))
    ]
    selfs = [
        {"node": i, "weight": draw(weight | st.sampled_from([-1, -1e308, 0]))}
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    ]
    data = {"n": n, "edges": list(edges), "self": selfs}
    if labels:
        data["labels"] = labels
    text_faults = []
    for fault in draw(st.lists(st.sampled_from(EDGE_FAULTS), max_size=2)):
        edge = {"from": node(), "to": node(), "weight": 1}
        if fault == "unknown field":
            data["extra"] = 1
        elif fault == "no n":
            data.pop("n", None)
        elif fault == "bad n":
            data["n"] = draw(st.sampled_from([0, -1, 2.5, "3", None]))
        elif fault == "bad labels":
            data["labels"] = draw(st.sampled_from(["v0", [1, 2], ["a", "a", "b", "c"], []]))
        elif fault == "unknown label":
            edge["from"] = "nope"
        elif fault == "missing key":
            del edge["weight"]
        elif fault == "extra key":
            edge["w"] = 1
        elif fault == "bad weight":
            edge["weight"] = draw(st.sampled_from(["1", None, True, [1]]))
        elif fault == "zero weight":
            edge["weight"] = 0
        elif fault == "negative":
            edge["weight"] = -2
        elif fault == "non-finite":
            edge["weight"] = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
        elif fault == "huge int":
            edge["weight"] = 10**400
        elif fault == "out of range":
            edge["to"] = draw(st.sampled_from([-1, n, 1.5]))
        elif fault == "repeat" and edges:
            edge = dict(draw(st.sampled_from(edges)))
        elif fault == "edge not object":
            edge = [0, 1, 1]
        elif fault == "edges not list":
            data["edges"] = {}
            continue
        else:
            text_faults.append(fault)
            continue
        if isinstance(data.get("edges"), list):
            data["edges"].insert(draw(st.integers(0, len(data["edges"]))), edge)
    text = json.dumps(data)
    if "not object" in text_faults:
        text = json.dumps([data])
    if "truncated" in text_faults:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@given(edge_list_text())
@settings(max_examples=300, deadline=None)
def test_analyze_contract_on_arbitrary_edge_list_json(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "system.json"
    path.write_text(text)
    _assert_analyze_contract(path)


# ---------------------------------------------------------------------------
# The steady-state JSON writer against json.dumps of the reference payload
# ---------------------------------------------------------------------------

AWKWARD_TEXT = ['"vectors": null', 'q"uote', "back\\slash", "\x00\x1f\x7f\n", "caf\u00e9",
                "\u65e5\u672c", "\U0001f600", "\u2028"]
# Labels holding the texts the report writer splits on, joins with or assembles from.
REPORT_TEXT = [*AWKWARD_TEXT, '"blocks": null', ", ", '"], "mu": ', '}, {"class": "critical", ', "null"]
EXTREME_FLOATS = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2.2250738585072014e-308,
                  0.1, 1 / 3]


def _basis_text(system, basis, forced):
    out = io.StringIO()
    _write_basis(system, basis, DEFAULT_OPTIONS, forced, out)
    return out.getvalue()


def _assert_writer_matches_reference(system, basis, forced):
    # Huge vectors overflow in the residual; both sides must then refuse.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            expected = json.dumps(
                reference_basis_payload(system, basis, DEFAULT_OPTIONS, forced),
                sort_keys=True, allow_nan=False,
            ) + "\n"
        except ValueError:
            out = io.StringIO()
            with pytest.raises(NonFiniteResult):
                _write_basis(system, basis, DEFAULT_OPTIONS, forced, out)
            assert out.getvalue() == ""
            return
        assert _basis_text(system, basis, forced) == expected


def test_basis_text_keeps_sign_repr_and_ascii_escapes():
    n = 10
    system = validate([(0, 0, -1.0), (2, 1, 0.5)], n, AWKWARD_TEXT + ["x", "y"])
    sparse = np.zeros(n)
    sparse[[0, 2, 3, 7]] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
    dense = np.linspace(-1.0, 1.0, n)
    basis = basis_from_vectors(n, (sparse, dense), (3, 0), ("alpha_\u00e9", '"'))
    for forced in (False, True):
        _assert_writer_matches_reference(system, basis, forced)
    text = _basis_text(system, basis, False)
    assert '"values": [-0.0, 0.0, 5e-324, 1.7976931348623157e+308, 0.0, 0.0, 0.0, 0.1, ' in text
    assert '"alpha": "alpha_\\u00e9"' in text


@st.composite
def basis_cases(draw):
    """A small system with arbitrary labels, or now and then the default ones, and a basis of
    arbitrary vectors: sparse or dense, with extreme values and now and then a non-finite one."""
    n = draw(st.integers(1, 12))
    text = st.text() | st.sampled_from(AWKWARD_TEXT)
    labels = draw(st.none() | st.lists(text, min_size=n, max_size=n, unique=True))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n, unique=True))
    system = validate([(i, j, -0.5 if i == j else 0.25) for i, j in cells], n, labels)
    value = st.sampled_from(EXTREME_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    vectors = []
    for _ in range(draw(st.integers(0, 4))):
        dense = draw(st.booleans())
        vectors.append(np.array([
            draw(value) if dense or draw(st.integers(0, 3)) == 0 else 0.0 for _ in range(n)
        ]))
    if vectors and draw(st.integers(0, 9)) == 0:
        vectors[-1][draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    basis = basis_from_vectors(n, vectors, [draw(st.integers(0, 10**6)) for _ in vectors],
                               [draw(text) for _ in vectors])
    return system, basis, draw(st.booleans())


@given(basis_cases(), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_basis_text_matches_json_dumps_of_the_reference_payload(case, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BASIS_CHUNK", chunk)  # most cases span several chunks
        _assert_writer_matches_reference(*case)


@pytest.mark.parametrize("bad", ["value", "residual"])
def test_basis_writer_writes_nothing_when_a_value_or_a_residual_is_not_finite(monkeypatch, bad):
    # No entry reads node 2, so an infinite value there leaves every residual finite.
    system = validate([(0, 0, -1.0), (1, 0, 0.5)], 3)
    vectors = [[1.0, 0.5, 0.0], [0.0, 0.0, np.inf if bad == "value" else 2.0]]
    if bad == "residual":
        monkeypatch.setattr(cli, "nullspace_residuals", lambda system, csc: np.array([0.0, np.nan]))
    out = io.StringIO()
    with pytest.raises(NonFiniteResult):
        _write_basis(system, basis_from_vectors(3, vectors, (0, 2), ("a", "b")), DEFAULT_OPTIONS, False, out)
    assert out.getvalue() == ""


# ---------------------------------------------------------------------------
# The streamed analyze report against json.dumps of the reference payload
# ---------------------------------------------------------------------------

def _assert_report_matches_reference(system, cond, spectra, report):
    out = io.StringIO()
    try:
        expected = json.dumps(
            reference_report_payload(system, cond, spectra, report, DEFAULT_OPTIONS),
            sort_keys=True, allow_nan=False,
        ) + "\n"
    except ValueError:
        with pytest.raises(NonFiniteResult):
            _write_report(system, cond, spectra, report, DEFAULT_OPTIONS, out)
        assert out.getvalue() == ""
        return
    _write_report(system, cond, spectra, report, DEFAULT_OPTIONS, out)
    assert out.getvalue() == expected


@st.composite
def report_cases(draw):
    """A small system with arbitrary labels, or now and then the default ones, its
    condensation, and arbitrary block columns and report fields: extreme values, now and
    then one that is not finite."""
    n = draw(st.integers(1, 12))
    text = st.text() | st.sampled_from(REPORT_TEXT)
    labels = draw(st.none() | st.lists(text, min_size=n, max_size=n, unique=True))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n, unique=True))
    system = validate([(i, j, -0.5 if i == j else 0.25) for i, j in cells], n, labels)
    cond, spectra, _ = full_analysis(system)
    h = cond.h
    value = st.sampled_from(EXTREME_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    mu, tol = (np.array(draw(st.lists(value, min_size=h, max_size=h))) for _ in range(2))
    if draw(st.integers(0, 9)) == 0:
        column = draw(st.sampled_from([mu, tol]))
        column[draw(st.integers(0, h - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    classes = np.array(draw(st.lists(st.sampled_from(list(BlockClass)), min_size=h, max_size=h)),
                       dtype=object)
    path = tuple(draw(st.lists(st.integers(0, h - 1), min_size=2, max_size=4)))
    reason = draw(st.sampled_from([None, SuperCriticalBlock(draw(st.integers(0, h - 1))),
                                   CriticalPath(path[0], path[-1], path)]))
    spectra = Spectra(mu=mu, tolerance=tol, classification=classes, phi=spectra.phi)
    report = StabilityReport(
        verdict=draw(st.sampled_from(list(Verdict))),
        unstable_reason=reason,
        algebraic_multiplicity_zero=draw(st.integers(0, h)),
        geometric_multiplicity_zero=draw(st.integers(0, h)),
        trivial=np.array(draw(st.lists(st.booleans(), min_size=h, max_size=h))),
        free=np.array(draw(st.lists(st.booleans(), min_size=h, max_size=h))),
    )
    return system, cond, spectra, report


@given(report_cases(), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_report_matches_json_dumps_of_the_reference_payload(case, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_REPORT_CHUNK", chunk)  # most cases span several chunks
        _assert_report_matches_reference(*case)


def test_report_of_multi_node_blocks_and_of_one_block():
    large = load_matrix_market((FIXTURES / "large_scc.mtx").read_text())
    one = from_dense([[-1.0, 1.0], [1.0, -1.0]], node_labels=AWKWARD_TEXT[:2])
    for system in (large, one):
        _assert_report_matches_reference(system, *full_analysis(system)[:3])
    assert condense(one).h == 1


def test_report_with_a_nan_mu_writes_nothing(capsys):
    system = from_dense([[-1.0, 0.0], [1.0, -2.0]])
    cond, spectra, report = full_analysis(system)
    spectra = Spectra(np.array([np.nan, -2.0]), spectra.tolerance, spectra.classification, spectra.phi)
    with pytest.raises(NonFiniteResult):
        _write_report(system, cond, spectra, report, DEFAULT_OPTIONS, sys.stdout)
    assert capsys.readouterr().out == ""

import gc
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopstab import from_dense, load_matrix_market, to_matrix_market
from coopstab.cli import main

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
    "fixture, tag, extra",
    [(p.name, "steady", []) for p in sorted(FIXTURES.iterdir()) if p.is_file()]
    + [("critical_pair.mtx", "steady-forced", ["--force-nullspace"])],
)
def test_steady_state_golden_corpus(fixture, tag, extra, capsys):
    """steady-state stdout and exit code are byte-identical to the stored golden."""
    rc = main(["steady-state", str(FIXTURES / fixture), *extra])
    out = capsys.readouterr().out
    assert out == (FIXTURES / "golden" / f"{fixture}.{tag}.out").read_text()
    assert rc == int((FIXTURES / "golden" / f"{fixture}.{tag}.exit").read_text())


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

import json
from pathlib import Path

import numpy as np
import pytest

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
    ],
)
def test_non_finite_input_exit_64(tmp_path, capsys, name, text, command):
    path = tmp_path / name
    path.write_text(text)
    assert main([command, str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


def test_overflowing_steady_state_exit_70(tmp_path, capsys):
    # finite weights whose propagation overflows: 1 -> 1e300 -> 1e600
    path = tmp_path / "overflow.mtx"
    path.write_text(f"{MM_HEADER}\n3 3 4\n2 1 1e300\n2 2 -1\n3 2 1e300\n3 3 -1\n")
    assert main(["analyze", str(path)]) == 0
    # parse_constant sees only NaN, Infinity and -Infinity
    json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    with np.errstate(over="ignore"):
        assert main(["steady-state", str(path)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "block 2" in captured.err


@pytest.mark.parametrize(
    "entries",
    [
        "1 2 1e308\n2 1 1e308\n1 1 -1e308",  # absolute row sum overflows
        "1 2 1\n2 1 1\n1 1 1e308",  # diagonal shift overflows
    ],
)
def test_overflowing_block_norm_exit_70(tmp_path, capsys, entries):
    path = tmp_path / "huge.mtx"
    path.write_text(f"{MM_HEADER}\n2 2 3\n{entries}\n")
    with np.errstate(over="ignore"):
        assert main(["analyze", str(path)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "block 0" in captured.err


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

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_entries
from coopstab import (
    DuplicateEntry,
    IndexOutOfRange,
    NegativeOffDiagonal,
    NonSquare,
    ParseError,
    UnknownLabel,
    ValidationError,
    ZeroWeightEdge,
    from_dense,
    is_compartmental,
    load_edge_list_json,
    load_matrix_market,
    state_vector,
    to_edge_list_json,
    to_matrix_market,
    validate,
)


def test_single_node_negative_diagonal_is_valid():
    s = validate({(0, 0): -1.0}, 1)
    assert s.n == 1
    assert dict(s.entries) == {(0, 0): -1.0}
    assert s.edges() == []


def test_negative_off_diagonal_rejected():
    with pytest.raises(NegativeOffDiagonal) as exc:
        validate({(0, 1): -0.5}, 2)
    assert (exc.value.row, exc.value.col, exc.value.value) == (0, 1, -0.5)


def test_two_node_system_has_one_edge():
    s = validate({(1, 0): 1.0, (1, 1): -2.0}, 2)
    assert s.edges() == [(0, 1)]
    np.testing.assert_array_equal(s.to_dense(), [[0.0, 0.0], [1.0, -2.0]])


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        validate({(0, 5): 1.0}, 2)


def test_duplicate_triple_rejected():
    with pytest.raises(DuplicateEntry):
        validate([(0, 1, 1.0), (0, 1, 2.0)], 2)


def test_zero_entries_dropped():
    s = validate([(0, 1, 0.0), (1, 0, 3.0)], 2)
    assert dict(s.entries) == {(1, 0): 3.0}


@pytest.mark.parametrize("n", [0, -3])
def test_dimension_must_be_positive(n):
    with pytest.raises(ValidationError):
        validate({}, n)


def test_state_vector_checks():
    v = state_vector([1.0, 2.0], 2)
    assert v.shape == (2,)
    with pytest.raises(ValidationError):
        state_vector([1.0], 2)
    with pytest.raises(ValidationError):
        state_vector([1.0, -0.1], 2, nonnegative=True)


# ---------------------------------------------------------------------------
# Matrix Market
# ---------------------------------------------------------------------------

MM_HEADER = "%%MatrixMarket matrix coordinate real general"


def test_mm_basic():
    s = load_matrix_market(f"{MM_HEADER}\n2 2 2\n1 1 -1\n2 1 1\n")
    assert dict(s.entries) == {(0, 0): -1.0, (1, 0): 1.0}


def test_mm_non_square():
    with pytest.raises(NonSquare) as exc:
        load_matrix_market(f"{MM_HEADER}\n2 3 1\n1 1 1\n")
    assert (exc.value.rows, exc.value.cols) == (2, 3)


def test_mm_negative_off_diagonal():
    with pytest.raises(NegativeOffDiagonal):
        load_matrix_market(f"{MM_HEADER}\n2 2 1\n1 2 -3\n")


def test_mm_comments_and_blank_lines_skipped():
    text = f"{MM_HEADER}\n% a comment\n\n2 2 1\n% another\n2 1 0.25\n"
    s = load_matrix_market(text)
    assert dict(s.entries) == {(1, 0): 0.25}


@pytest.mark.parametrize(
    "text, line",
    [
        ("%%MatrixMarket matrix array real general\n2 2 1\n1 1 1\n", 1),
        (f"{MM_HEADER}\n2 2\n", 2),
        (f"{MM_HEADER}\n2 2 1\n1 1\n", 3),
        (f"{MM_HEADER}\n2 2 1\n1 1 1\n2 2 1\n", 4),
        (f"{MM_HEADER}\n2 2 2\n1 1 1\n", 3),
    ],
)
def test_mm_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        load_matrix_market(text)
    assert exc.value.line == line


# ---------------------------------------------------------------------------
# Edge-list format
# ---------------------------------------------------------------------------

def test_json_basic():
    text = '{"n": 2, "edges": [{"from": 0, "to": 1, "weight": 1}], "self": [{"node": 1, "weight": -2}]}'
    s = load_edge_list_json(text)
    assert dict(s.entries) == {(1, 0): 1.0, (1, 1): -2.0}


def test_json_empty_single_node():
    s = load_edge_list_json('{"n": 1, "edges": [], "self": []}')
    assert s.n == 1
    assert dict(s.entries) == {}


def test_json_zero_weight_edge_rejected():
    text = '{"n": 2, "edges": [{"from": 0, "to": 1, "weight": 0}], "self": []}'
    with pytest.raises(ZeroWeightEdge):
        load_edge_list_json(text)


def test_json_labels_resolve_and_unknown_label():
    text = (
        '{"n": 2, "labels": ["src", "dst"],'
        ' "edges": [{"from": "src", "to": "dst", "weight": 2.5}], "self": []}'
    )
    s = load_edge_list_json(text)
    assert dict(s.entries) == {(1, 0): 2.5}
    with pytest.raises(UnknownLabel):
        load_edge_list_json(
            '{"n": 1, "labels": ["a"], "edges": [{"from": "b", "to": "a", "weight": 1}], "self": []}'
        )


def test_json_unknown_field():
    with pytest.raises(ParseError):
        load_edge_list_json('{"n": 1, "matrix": []}')


def test_json_self_weight_alias():
    s = load_edge_list_json('{"n": 1, "edges": [], "self": [{"node": 0, "self_weight": -4}]}')
    assert dict(s.entries) == {(0, 0): -4.0}


# ---------------------------------------------------------------------------
# Round trips and graph/matrix duality
# ---------------------------------------------------------------------------

@st.composite
def small_systems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    coords = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n * n,
        )
    )
    finite = st.floats(
        min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
    )
    entries = {}
    for i, j in coords:
        v = draw(finite)
        entries[(i, j)] = -v if i == j and draw(st.booleans()) else v
    return validate(entries, n)


@given(small_systems())
@settings(max_examples=60, deadline=None)
def test_matrix_market_round_trip(system):
    again = load_matrix_market(to_matrix_market(system))
    assert dict(again.entries) == dict(system.entries)
    assert again.n == system.n


@given(small_systems())
@settings(max_examples=60, deadline=None)
def test_edge_list_round_trip(system):
    again = load_edge_list_json(to_edge_list_json(system))
    assert dict(again.entries) == dict(system.entries)
    assert again.node_labels == system.node_labels


@given(small_systems())
@settings(max_examples=60, deadline=None)
def test_graph_matrix_duality(system):
    expected = sorted((j, i) for (i, j) in system.entries if i != j)
    assert system.edges() == expected


@given(small_systems())
@settings(max_examples=60, deadline=None)
def test_coo_arrays_match_entry_loops_bitwise(system):
    rows, cols, vals = system.coo
    assert list(zip(rows.tolist(), cols.tolist(), vals.tolist())) == [
        (i, j, v) for (i, j), v in system.entries.items()
    ]
    assert system.coo is system.coo
    assert not (rows.flags.writeable or cols.flags.writeable or vals.flags.writeable)
    dense = np.zeros((system.n, system.n))
    row_sums = np.zeros(system.n)
    for (i, j), v in system.entries.items():
        dense[i, j] = v
        row_sums[i] += abs(v)
    assert system.to_dense().tobytes() == dense.tobytes()
    assert system.inf_norm() == float(row_sums.max())


def test_labels_survive_edge_list_round_trip():
    s = validate({(1, 0): 2.0}, 2, node_labels=("source", "sink"))
    again = load_edge_list_json(to_edge_list_json(s))
    assert again.node_labels == ("source", "sink")
    assert dict(again.entries) == {(1, 0): 2.0}


def test_from_dense_matches_validate():
    a = np.array([[-1.0, 0.5], [0.0, 2.0]])
    s = from_dense(a)
    np.testing.assert_array_equal(s.to_dense(), a)
    with pytest.raises(ValidationError):
        from_dense(np.zeros((2, 3)))


def test_is_compartmental():
    assert is_compartmental(from_dense([[-1.0, 0.0], [1.0, 0.0]]))
    assert not is_compartmental(from_dense([[-1.0, 0.0], [2.0, 0.0]]))


# ---------------------------------------------------------------------------
# validate against the per-triple reference loop
# ---------------------------------------------------------------------------

ODD_INDICES = st.sampled_from([True, 1.0, 2.5, "1", None, np.int64(1), np.uint8(2), 2**70])
ODD_VALUES = st.sampled_from([10**400, "2.5", "x", None, 1j, np.float32(0.5), True, 2**64])


@st.composite
def raw_triples(draw):
    """Valid triples with up to three faults planted: a bad or oddly typed
    index, a negative, non-finite or oddly typed value, or a repeated
    coordinate."""
    n = draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)
    value = st.one_of(st.floats(0, 3), st.integers(0, 3), st.just(-0.0))
    unique = st.lists(st.tuples(cell, cell, value), max_size=10, unique_by=lambda t: t[:2])
    triples = [list(t) for t in draw(unique)]
    bad_index = st.one_of(st.sampled_from([-1, n, -(2**70)]), ODD_INDICES)
    bad_value = st.one_of(
        st.floats(max_value=-1e-300, allow_infinity=False),
        st.integers(-3, -1),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        ODD_VALUES,
    )
    for _ in range(draw(st.integers(0, 3)) if triples else 0):
        t = draw(st.integers(0, len(triples) - 1))
        kind = draw(st.sampled_from(("row", "col", "value", "duplicate")))
        if kind == "duplicate":
            triples[t][:2] = triples[draw(st.integers(0, len(triples) - 1))][:2]
            triples[t][2] = draw(value | bad_value)
        elif kind == "value":
            triples[t][2] = draw(bad_value)
        else:
            triples[t][kind == "col"] = draw(bad_index)
    return [tuple(t) for t in triples], n


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@given(raw_triples(), st.booleans())
@example(([(1.5, 9, 1.0)], 2), False)  # index type before range
@example(([(0, 1, 1.0), (0, 1, "x")], 2), False)  # duplicate before conversion
@example(([(0, 1, 1.0), (0, 1, math.nan)], 2), False)  # duplicate before finiteness
@example(([(0, 1, -math.inf)], 2), False)  # finiteness before sign
@example(([(0, 1, -1.0), (5, 5, 1.0)], 2), True)  # input order before check order
@settings(max_examples=400, deadline=None)
def test_validate_matches_reference_loop(case, as_mapping):
    triples, n = case
    raw = {(i, j): v for i, j, v in triples} if as_mapping else triples

    def accepted():
        rows, cols, vals = validate(raw, n).coo
        assert rows.dtype == cols.dtype == np.intp and vals.dtype == np.float64
        assert not (rows.flags.writeable or cols.flags.writeable or vals.flags.writeable)
        return list(zip(rows.tolist(), cols.tolist(), vals.tolist()))

    def expected():
        return [(i, j, v) for (i, j), v in reference_entries(raw, n).items()]

    assert _outcome(accepted) == _outcome(expected)

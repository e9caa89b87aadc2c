import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (bench_workloads, entry_dict, graph_edges, lexsort_validate, reference_entries,
                      reference_load_matrix_market)
from coopstab import (
    Condensation,
    CooperativeSystem,
    CriticalPath,
    DuplicateEntry,
    IndexOutOfRange,
    NegativeOffDiagonal,
    NonSquare,
    ParseError,
    SpectralOptions,
    Spectra,
    StabilityReport,
    SteadyStateBasis,
    SuperCriticalBlock,
    UnknownLabel,
    ValidationError,
    Verdict,
    ZeroWeightEdge,
    from_dense,
    full_analysis,
    is_compartmental,
    load_edge_list_json,
    load_matrix_market,
    state_vector,
    steady_state_basis,
    to_edge_list_json,
    to_matrix_market,
    validate,
)
from coopstab import system as system_module

FIXTURES = Path(__file__).parent / "fixtures"


def test_single_node_negative_diagonal_is_valid():
    s = validate({(0, 0): -1.0}, 1)
    assert s.n == 1
    assert entry_dict(s) == {(0, 0): -1.0}
    assert graph_edges(s) == []


def test_negative_off_diagonal_rejected():
    with pytest.raises(NegativeOffDiagonal) as exc:
        validate({(0, 1): -0.5}, 2)
    assert (exc.value.row, exc.value.col, exc.value.value) == (0, 1, -0.5)


def test_two_node_system_has_one_edge():
    s = validate({(1, 0): 1.0, (1, 1): -2.0}, 2)
    assert graph_edges(s) == [(0, 1)]
    np.testing.assert_array_equal(s.to_dense(), [[0.0, 0.0], [1.0, -2.0]])


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        validate({(0, 5): 1.0}, 2)


def test_duplicate_triple_rejected():
    with pytest.raises(DuplicateEntry):
        validate([(0, 1, 1.0), (0, 1, 2.0)], 2)


def test_zero_entries_dropped():
    s = validate([(0, 1, 0.0), (1, 0, 3.0)], 2)
    assert entry_dict(s) == {(1, 0): 3.0}


@pytest.mark.parametrize("n", [0, -3, True, False, 2.0])
def test_dimension_must_be_positive(n):
    with pytest.raises(ValidationError):
        validate({}, n)


def _no_labels(node_labels, n):
    """Stands in for `_checked_labels`: were the bound not checked first, n labels would be built."""
    raise AssertionError(f"labels built for n = {n}")


@pytest.mark.parametrize("n", [1, 2, 7])
def test_default_labels_behave_as_the_tuple_of_node_numbers(n):
    labels = validate({}, n).node_labels
    expected = tuple(map(str, range(n)))
    assert isinstance(labels, system_module.DefaultLabels)
    assert len(labels) == n and list(labels) == list(expected) and tuple(labels) == expected
    for i in range(-n, n):
        assert labels[i] == expected[i]
    for i in (n, -n - 1, 10**20):
        with pytest.raises(IndexError):
            labels[i]
    with pytest.raises(TypeError):
        labels[1.0]
    for cut in (slice(None), slice(1, None), slice(-2, None), slice(None, None, -1), slice(1, n + 5, 2),
                slice(n, None), slice(None, -n - 3), slice(-1, 0, -2)):
        assert type(labels[cut]) is tuple and labels[cut] == expected[cut]
    assert labels == expected and expected == labels
    assert not (labels != expected or expected != labels)
    for other in (expected[:-1], expected + ("x",), ("x",) + expected[1:], list(expected), (0,) * n):
        assert labels != other and other != labels
    assert labels == validate({}, n).node_labels and hash(labels) == hash(expected)
    assert "0" in labels and str(n) not in labels and labels.index(str(n - 1)) == n - 1
    given = tuple(f"v{i}" for i in range(n))
    assert validate({}, n, given).node_labels == given


def test_validate_builds_no_default_labels():
    """With no labels given, `validate` holds none of the n label strings: one entry at
    n = 10**6 allocates well under 1 MB, where the strings alone take over 50 MB."""
    tracemalloc.start()
    try:
        system = validate([(0, 0, -1.0)], 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert len(system.node_labels) == 10**6 and system.node_labels[-1] == "999999"


@pytest.mark.parametrize("n", [system_module.MAX_NODES + 1, 2**32, 2**63])
def test_dimension_above_the_key_bound_is_refused(n, monkeypatch):
    monkeypatch.setattr(system_module, "_checked_labels", _no_labels)
    with pytest.raises(ValidationError, match="exceeds the supported maximum 3037000498"):
        validate([(0, 0, -1.0)], n)


def test_the_duplicate_key_fits_int64_up_to_the_bound():
    def largest_key(n):  # of the row and column n - 1, computed as validate does
        return (np.array([n - 1]) + 1) * (n + 1) + n

    bound = system_module.MAX_NODES
    assert largest_key(bound)[0] == (bound + 1) ** 2 - 1 <= np.iinfo(np.int64).max
    assert (bound + 2) ** 2 - 1 > np.iinfo(np.int64).max


def test_state_vector_checks():
    v = state_vector([1.0, 2.0], 2)
    assert v.shape == (2,)
    with pytest.raises(ValidationError):
        state_vector([1.0], 2)
    with pytest.raises(ValidationError):
        state_vector([1.0, -0.1], 2)


def test_validate_takes_the_coo_arrays():
    s = validate([(1, 0, 2.0), (0, 1, 0.0), (0, 0, -1.0)], 2)
    again = validate(s.coo, 2)
    assert [(a.dtype, a.tobytes()) for a in again.coo] == [(a.dtype, a.tobytes()) for a in s.coo]
    with pytest.raises(DuplicateEntry):
        validate((np.array([1, 1]), np.array([0, 0]), np.array([1.0, 2.0])), 2)
    with pytest.raises(ValidationError, match="one length"):
        validate((np.array([0]), np.array([0, 1]), np.array([1.0, 2.0])), 2)


# ---------------------------------------------------------------------------
# Matrix Market
# ---------------------------------------------------------------------------

MM_HEADER = "%%MatrixMarket matrix coordinate real general"


def test_mm_basic():
    s = load_matrix_market(f"{MM_HEADER}\n2 2 2\n1 1 -1\n2 1 1\n")
    assert entry_dict(s) == {(0, 0): -1.0, (1, 0): 1.0}


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
    assert entry_dict(s) == {(1, 0): 0.25}


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


def _parsed(load, text):
    """The system's n and coo bytes, or the error's type, line and message."""
    try:
        s = load(text)
    except Exception as exc:  # compared, not handled
        return type(exc), getattr(exc, "line", None), str(exc)
    return s.n, [(a.dtype.str, a.tobytes()) for a in s.coo]


MM_INDICES = ["0", "007", "+1", "1_0", "\u0661", "99999999999999", "999999999999999",
              "1000000000000000", str(2**53), str(2**53 + 1), "1.0", "-1", "1e3", "+007", "-0",
              str(2**63 - 1), str(-2**63), str(2**63)]  # 19 digits: the int64 limits, and past them
MM_VALUES = ["+1", "007.5", "1_000", "\u0661", "nan", "-nan", "inf", "-inf", "1e400", "-1e400",
             "0", "0.0", "-0.0", "-1.5", "1.", ".5", "-.5", "1e", ".", "-", "", "5e-324",
             "1E5", "1e+05", "4.9e-324", "0x1p3", "\uff11"]
MM_FLOATS = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2.2250738585072014e-308,
             0.1, 1 / 3, 1e-5, 1e16, 123456789.125]
MM_ANOMALIES = ["comment", "blank", "add-line", "line-end", "no-final-newline", "drop-line",
                "repeat-line", "tab", "trailing", "index", "value", "drop-token", "add-token",
                "integer-field", "break"]
# Line breaks of `str.splitlines` that NumPy's reader does not break at.
MM_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
MM_INT_HEADER = "%%MatrixMarket matrix coordinate integer general"


@st.composite
def mm_texts(draw):
    """Matrix Market text: the canonical text `to_matrix_market` writes for
    a random system, with up to four anomalies planted."""
    n = draw(st.integers(1, 6))
    coords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           unique=True, max_size=10))
    value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(MM_FLOATS)
    values = draw(st.lists(value, min_size=len(coords), max_size=len(coords)))
    entries = {(i, j): v if i == j else abs(v) for (i, j), v in zip(coords, values)}
    lines = to_matrix_market(validate(entries, n)).split("\n")[:-1]
    if draw(st.integers(0, 9)) == 0:  # too few or too many lines for the size line
        lines[1] = f"{n} {n} {len(entries) + draw(st.sampled_from([-1, 1]))}"
    ends = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(MM_ANOMALIES))
        at = draw(st.integers(1, len(lines)))  # after the banner
        k = draw(st.integers(2, max(2, len(lines) - 1)))  # after the size line, if any
        if kind in ("comment", "blank", "add-line"):
            lines.insert(at, "% note" if kind == "comment" else
                         draw(st.sampled_from(["", "  "])) if kind == "blank" else
                         f"{draw(st.integers(1, n))} {draw(st.integers(1, n))} "
                         f"{draw(st.sampled_from(['1.0', '-2.0', '0.0']))}")
            ends.insert(at, "\n")
        elif kind == "line-end":
            ends[at - 1] = draw(st.sampled_from(["\r\n", "\r"]))
        elif kind == "no-final-newline":
            ends[-1] = ""
        elif kind == "integer-field":
            lines[0] = MM_INT_HEADER
        elif k >= len(lines):
            continue
        elif kind == "drop-line":
            del lines[k], ends[k]
        elif kind == "repeat-line":  # a duplicate coordinate
            lines.insert(at, lines[k])
            ends.insert(at, "\n")
        elif kind == "tab":
            lines[k] = lines[k].replace(" ", "\t", 1)
        elif kind == "trailing":
            lines[k] += " "
        elif kind == "break":  # anywhere in the line, between or beside its tokens
            cut = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:cut] + draw(st.sampled_from(MM_BREAKS)) + lines[k][cut:]
        else:
            tokens = lines[k].split(" ")
            if kind == "index":
                tokens[draw(st.integers(0, min(1, len(tokens) - 1)))] = draw(
                    st.sampled_from(MM_INDICES + [str(n), str(n + 1)]))
            elif kind == "value":
                tokens[-1] = draw(st.sampled_from(MM_VALUES))
            elif kind == "drop-token":
                del tokens[draw(st.integers(0, len(tokens) - 1))]
            else:
                tokens.append("1")
            lines[k] = " ".join(tokens)
    return "".join(line + end for line, end in zip(lines, ends))


@given(mm_texts())
@example(f"{MM_HEADER}\n2 2 1\n1 1 1e400\n")  # overflow to inf on both paths
@example(f"{MM_HEADER}\n2 2 1\n999999999999999 1 1.0\n")  # 15 digits: canonical, out of range
@example(f"{MM_HEADER}\n2 2 1\n9007199254740993 1 1.0\n")  # 2**53 + 1: not exact as a double
@example(f"{MM_HEADER}\r2 2 1\r1 1 1.0\r")  # line ends the vectorised pass does not split at
@example(f"{MM_HEADER}\n% c\r\n2 2 1\r\n1 1 1.0\n")
@example(f"{MM_HEADER}\n2 2 0\n")
@example(f"{MM_HEADER}\n2 2 1\n1 1 1.0x")  # no final newline: the last character counts too
@example(f"{MM_HEADER}\n2 2 2\n1 1 1.0\n2 2 1.0x\n")  # the last line's last character
@example(f"{MM_HEADER}\n% c\r2 2 1\n1 1 1.0\n2 2 1.0\n")  # a lone "\r" hides the size line
@example(f"{MM_HEADER}\n2 2 1\n1 \u0661 1.0\n")
@example(f"{MM_INT_HEADER}\n2 2 2\n1 1 -1.0\n2 2 0.5\n")  # not whole, on both paths
@example(f"{MM_INT_HEADER}\n2 2 2\n1 1 -1.0\n2 2 0.5 \n")
@example(f"{MM_HEADER}\n2 2 1\n1 2\x0b 3\n")  # NumPy's reader strips the break from "2\x0b"
@example(f"{MM_HEADER}\n2 2 2\n\n\n")  # NumPy's reader warns of no data
@example(f"{MM_INT_HEADER}\r\n2 2 2\r\n1 1 -1\r\n2 2 0.5\r\n")  # named "0.5", not "0.5\r"
@example(f"{MM_INT_HEADER}\n2 2 2\n1 1 -1\n2 2 0.5\t\n")  # named "0.5", not "0.5\t"
@example(f"{MM_HEADER}\n2 2 1\n{-2**63} 1 1.0\n")  # i - 1 would wrap to 2**63 - 1 in int64
@example(f"{MM_HEADER}\n% \ud800\n2 2 1\n1 1 -1\n")  # a lone surrogate cannot be encoded
@settings(max_examples=500, deadline=None)
def test_mm_reader_matches_the_line_by_line_reference(text):
    assert _parsed(load_matrix_market, text) == _parsed(reference_load_matrix_market, text)


def _no_line_loop(*args):
    raise AssertionError("canonical text took the line-by-line path")


def test_canonical_mm_takes_the_vectorised_pass(monkeypatch):
    """A fixture and both bench workloads' texts reach NumPy's reader, not the line loop: a
    silent fall-back would only slow the bench down."""
    workloads = bench_workloads()
    texts = [(FIXTURES / "layered.mtx").read_text(encoding="utf-8"),
             workloads.dag_singletons(1).text, workloads.critical_antichain(1).text]
    expected = [_parsed(reference_load_matrix_market, text) for text in texts]
    monkeypatch.setattr(system_module, "_entries_by_line", _no_line_loop)
    assert [_parsed(load_matrix_market, text) for text in texts] == expected
    # One anomaly sends the whole text down the line loop.
    with pytest.raises(AssertionError, match="line-by-line"):
        load_matrix_market(texts[0].replace("\n", " \n", 3))


@pytest.mark.parametrize("case", ["no-data", "index-through-float"])
def test_mm_reader_takes_a_warning_of_numpys_reader_as_a_fall_back(case, monkeypatch):
    """A body of empty lines makes NumPy's reader warn of no data, and NumPy releases from 1.23
    on, until the deprecation expired, read "1.0" into an integer field through float with a
    DeprecationWarning, where `int` refuses it. Either warning sends the text down the line
    loop, whatever the warning filters, and none is shown."""
    if case == "no-data":
        text = f"{MM_HEADER}\n2 2 2\n\n\n"
    else:
        text = f"{MM_HEADER}\n2 2 1\n1.0 1 -1\n"

        def older_loadtxt(body, **kwargs):  # how those releases read the body
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return np.array([(1, 1, -1.0)], dtype=kwargs["dtype"])

        monkeypatch.setattr(np, "loadtxt", older_loadtxt)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert _parsed(load_matrix_market, text) == _parsed(reference_load_matrix_market, text)
    assert shown == []


@pytest.mark.parametrize("by_line", [False, True])
def test_mm_integer_field_takes_whole_values(by_line, monkeypatch):
    text = f"{MM_INT_HEADER}\n3 3 4\n1 1 -2\n2 1 3.0\n2 2 -1e3\n3 3 -7\n"
    if by_line:
        text = text.replace("3.0\n", "3.0 \n")  # one non-canonical line sends the text down the line loop
    else:
        monkeypatch.setattr(system_module, "_entries_by_line", _no_line_loop)
    assert entry_dict(load_matrix_market(text)) == {(0, 0): -2.0, (1, 0): 3.0, (1, 1): -1000.0, (2, 2): -7.0}


@pytest.mark.parametrize("value", ["0.5", "1e-3", "1e400", "inf", "-nan"])
def test_mm_integer_field_refuses_a_value_that_is_not_whole(value, monkeypatch):
    """A fractional or non-finite value under the `integer` field is a ParseError naming its line,
    the same on the vectorised pass (canonical values) and on the line loop."""
    text = f"{MM_INT_HEADER}\n% c\n2 2 3\n1 1 -1\n2 1 2\n2 2 {value}\n"
    with pytest.raises(ParseError) as by_line:
        load_matrix_market(text.replace("-1\n", "-1 \n"))
    if value not in ("inf", "-nan"):
        monkeypatch.setattr(system_module, "_entries_by_line", _no_line_loop)
    with pytest.raises(ParseError) as vectorised:
        load_matrix_market(text)
    assert vectorised.value.line == by_line.value.line == 6
    assert str(vectorised.value) == str(by_line.value)
    assert str(by_line.value).endswith("is not a whole number, as the 'integer' field requires")


@pytest.mark.parametrize("token", ["1e400", "9" * 400], ids=["1e400", "400-digits"])
@pytest.mark.parametrize("by_line", [False, True])
def test_mm_integer_field_names_a_value_past_the_float_range_by_its_text(token, by_line, monkeypatch):
    """Such a value reads as inf, which the file does not hold: on either path the error names
    the file's own token, on its line."""
    text = f"{MM_INT_HEADER}\n% c\n2 2 3\n1 1 -1\n2 1 {token}\n2 2 -1\n"
    if by_line:
        text = text.replace("1 1 -1\n", "1 1 -1 \n")  # one non-canonical line sends the text down the line loop
    else:
        monkeypatch.setattr(system_module, "_entries_by_line", _no_line_loop)
    with pytest.raises(ParseError) as refused:
        load_matrix_market(text)
    assert refused.value.line == 5
    assert str(refused.value) == f"line 5: value {token} is not a whole number, as the 'integer' field requires"


def test_mm_parse_peak_memory():
    """The vectorised pass holds a few arrays of the entry count, where one
    tuple per entry and a list of line strings took twice as much."""
    rng = np.random.default_rng(0)
    n, nnz = 2000, 20_000
    cells = rng.choice(n * n, size=nnz, replace=False)
    text = "\n".join([MM_HEADER, f"{n} {n} {nnz}"] + [
        f"{i + 1} {j + 1} {v!r}" for i, j, v in
        zip((cells // n).tolist(), (cells % n).tolist(), rng.random(nnz).tolist())
    ]) + "\n"
    assert 500_000 < len(text) < 700_000
    tracemalloc.start()
    try:
        load_matrix_market(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


# ---------------------------------------------------------------------------
# Edge-list format
# ---------------------------------------------------------------------------

def test_json_basic():
    text = '{"n": 2, "edges": [{"from": 0, "to": 1, "weight": 1}], "self": [{"node": 1, "weight": -2}]}'
    s = load_edge_list_json(text)
    assert entry_dict(s) == {(1, 0): 1.0, (1, 1): -2.0}


def test_json_empty_single_node():
    s = load_edge_list_json('{"n": 1, "edges": [], "self": []}')
    assert s.n == 1
    assert entry_dict(s) == {}


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
    assert entry_dict(s) == {(1, 0): 2.5}
    with pytest.raises(UnknownLabel):
        load_edge_list_json(
            '{"n": 1, "labels": ["a"], "edges": [{"from": "b", "to": "a", "weight": 1}], "self": []}'
        )


@pytest.mark.parametrize(
    "labels, ref, message",
    [
        ('["a", "a"]', "a", "node labels must be unique"),  # first occurrence resolves
        ('[["x"], "a"]', "a", "node labels must be strings"),  # unhashable label
        ('[["x"], "a"]', "b", "node label 'b' not found"),
    ],
)
def test_json_label_resolution_outcomes(labels, ref, message):
    text = f'{{"n": 2, "labels": {labels}, "edges": [{{"from": "{ref}", "to": 0, "weight": 1}}]}}'
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_edge_list_json(text)


def test_json_unknown_field():
    with pytest.raises(ParseError):
        load_edge_list_json('{"n": 1, "matrix": []}')


@pytest.mark.parametrize("entry", ['{"node": 0, "self_weight": -4}',
                                   '{"node": 0, "weight": -1, "self_weight": 4}'], ids=["alone", "beside-weight"])
def test_json_self_weight_key_is_refused(entry):
    with pytest.raises(ParseError, match="self entry has unknown key 'self_weight'"):
        load_edge_list_json(f'{{"n": 1, "edges": [], "self": [{entry}]}}')


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
    with pytest.MonkeyPatch.context() as mp:
        if len(system.coo[2]):  # an empty body has no entry line for either path
            mp.setattr(system_module, "_entries_by_line", _no_line_loop)
        again = load_matrix_market(to_matrix_market(system))
    assert entry_dict(again) == entry_dict(system)
    assert again.n == system.n


@given(small_systems())
@settings(max_examples=60, deadline=None)
def test_edge_list_round_trip(system):
    again = load_edge_list_json(to_edge_list_json(system))
    assert entry_dict(again) == entry_dict(system)
    assert again.node_labels == system.node_labels


@given(small_systems())
@settings(max_examples=60, deadline=None)
def test_graph_matrix_duality(system):
    expected = sorted((j, i) for (i, j) in entry_dict(system) if i != j)
    assert graph_edges(system) == expected


@given(small_systems())
@settings(max_examples=60, deadline=None)
def test_coo_arrays_match_entry_loops_bitwise(system):
    rows, cols, vals = system.coo
    assert list(zip(rows.tolist(), cols.tolist(), vals.tolist())) == [
        (i, j, v) for (i, j), v in entry_dict(system).items()
    ]
    assert system.coo is system.coo
    assert not (rows.flags.writeable or cols.flags.writeable or vals.flags.writeable)
    dense = np.zeros((system.n, system.n))
    row_sums = np.zeros(system.n)
    for (i, j), v in entry_dict(system).items():
        dense[i, j] = v
        row_sums[i] += abs(v)
    assert system.to_dense().tobytes() == dense.tobytes()
    assert system.inf_norm() == float(row_sums.max())


def test_labels_survive_edge_list_round_trip():
    s = validate({(1, 0): 2.0}, 2, node_labels=("source", "sink"))
    again = load_edge_list_json(to_edge_list_json(s))
    assert again.node_labels == ("source", "sink")
    assert entry_dict(again) == {(1, 0): 2.0}


@pytest.mark.parametrize(
    "labels, bad",
    [(["\ud800", "b", "c"], 0), (["ab", "", "\udfffc"], 2), (["a", "b\udc00", "\ud83d"], 1)],
)
def test_labels_must_encode_as_utf8(labels, bad):
    with pytest.raises(ValidationError, match=rf"^node label {bad} \("):
        validate({}, 3, node_labels=labels)


def test_from_dense_matches_validate():
    a = np.array([[-1.0, 0.5], [0.0, 2.0]])
    s = from_dense(a)
    np.testing.assert_array_equal(s.to_dense(), a)
    with pytest.raises(ValidationError):
        from_dense(np.zeros((2, 3)))

    def outcome(build):
        try:
            return [c.tobytes() for c in build().coo]
        except ValidationError as exc:
            return type(exc), str(exc)
    # With NaN and negative entries: the same coo bytes, or the same error and
    # message, as validating the (i, j, value) triples one at a time.
    rng = np.random.default_rng(0)
    for t in range(200):
        a = np.where(rng.random((6, 6)) < 0.5, 0.0, np.abs(rng.normal(size=(6, 6))))
        a[np.diag_indices(6)] *= -1.0
        a[tuple(rng.integers(0, 6, (2, t % 4)))] = (np.nan, -1.0, 0.0)[t % 3]
        triples = [(int(i), int(j), float(a[i, j])) for i, j in zip(*np.nonzero(a))]
        assert outcome(lambda: from_dense(a)) == outcome(lambda: validate(triples, 6))


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


@st.composite
def index_triples(draw):
    """Triples over n >= 1 with frequent duplicates, -1 and other out-of-range
    indices, now and then a non-integer one; as lists, or as integer arrays."""
    n = draw(st.integers(1, 6))
    index = st.integers(-2, n + 1) | st.sampled_from([-1, n - 1])
    value = st.sampled_from([0.0, -0.0, 1.5, -2.0, math.nan]) | st.floats(-3, 3)
    triples = draw(st.lists(st.tuples(index, index, value), max_size=30))
    rows, cols, vals = ([t[c] for t in triples] for c in range(3))
    if draw(st.booleans()):
        return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(vals), n
    if rows and not draw(st.integers(0, 3)):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(ODD_INDICES)
    return rows, cols, vals, n


@given(index_triples())
@settings(max_examples=400, deadline=None)
def test_validate_matches_the_lexsort_reference(case):
    rows, cols, vals, n = case
    raw = (rows, cols, vals) if isinstance(rows, np.ndarray) else list(zip(rows, cols, vals))

    def coo_bits(coo):
        return [(a.dtype, a.tobytes()) for a in coo]

    assert _outcome(lambda: coo_bits(validate(raw, n).coo)) == _outcome(
        lambda: coo_bits(lexsort_validate(rows, cols, vals, n)))


# Each record's fields, in constructor order, under the names they have always had.
RECORD_FIELDS = {
    CooperativeSystem: ("n", "coo", "node_labels"),
    Condensation: ("h", "bounds", "matrices", "matrix_bounds", "dag", "level", "node_to_block", "permutation",
                   "cross"),
    SpectralOptions: ("crit_tol_rel", "eig_tol", "max_iter", "dense_cutoff", "residual_tol"),
    Spectra: ("mu", "tolerance", "classification", "phi"),
    StabilityReport: ("verdict", "unstable_reason", "algebraic_multiplicity_zero", "geometric_multiplicity_zero",
                      "trivial", "free"),
    SteadyStateBasis: ("n", "csc", "free_blocks", "free_parameters"),
    SuperCriticalBlock: ("block_index",),
    CriticalPath: ("upstream_block", "downstream_block", "path"),
}
VALUE_RECORDS = (SpectralOptions, SuperCriticalBlock, CriticalPath)


def _record_fields(cls) -> dict:
    """One instance's fields, by name: the array-holding records from a run of the pipeline."""
    if cls in VALUE_RECORDS:
        record = {SpectralOptions: SpectralOptions(eig_tol=1e-8, dense_cutoff=3),
                  SuperCriticalBlock: SuperCriticalBlock(2), CriticalPath: CriticalPath(0, 2, (0, 1, 2))}[cls]
    else:
        system = from_dense([[0.0, 0.0], [1.0, -1.0]])
        cond, spectra, report = full_analysis(system)
        record = {CooperativeSystem: system, Condensation: cond, Spectra: spectra, StabilityReport: report,
                  SteadyStateBasis: steady_state_basis(cond, spectra, report)}[cls]
    return {name: getattr(record, name) for name in RECORD_FIELDS[cls]}


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_records_are_read_only_and_keep_their_constructors(cls):
    """Every record builds by keyword under its field names and refuses any assignment or
    deletion. The three value records also build positionally, and equal ones compare equal
    and hash alike; the others compare by identity."""
    fields = _record_fields(cls)
    record = cls(**fields)
    for name in (*fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert all(getattr(record, name) is value for name, value in fields.items())
    if cls in VALUE_RECORDS:
        twin = cls(*fields.values())
        assert all(getattr(twin, name) is value for name, value in fields.items())
        assert record == twin and hash(record) == hash(twin)
    else:
        assert record == record and record != cls(**fields)
    if cls is SpectralOptions:  # the JSON "tolerances" object is vars() of the options
        assert list(vars(SpectralOptions()).items()) == [
            ("crit_tol_rel", 1e-9), ("eig_tol", 1e-12), ("max_iter", 100_000), ("dense_cutoff", 64),
            ("residual_tol", 1e-10)]
        assert record != SpectralOptions() and SpectralOptions.max_iter == 100_000
    if cls is CriticalPath:
        assert repr(CriticalPath(0, 1, (0, 1))) == "CriticalPath(upstream_block=0, downstream_block=1, path=(0, 1))"
    if cls is CooperativeSystem:  # a cached_property still caches in the instance dict
        assert record.by_column is record.by_column is vars(record)["by_column"]

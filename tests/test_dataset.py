"""Tables, CSV ingestion, model specs, and design-matrix packing."""

import csv
import functools
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashmle import dataset, serialize
from crashmle.dataset import (
    CONSTANT,
    ModelSpec,
    ObservationTable,
    Term,
    _load_rows,
    build_design,
    load_csv,
    load_spec,
    parse_spec,
    scale_param_name,
    split_by_flag,
    term_param_name,
)
from crashmle.influence import InfluenceProfile
from crashmle.lrtest import LrTestResult, ModelPiece
from crashmle.negbin import nb_logpmf
from crashmle.reporting import EffectRow, EffectsReport


def severity_table(n=6):
    rng = np.random.default_rng(0)
    cols = {"x1": rng.normal(size=n), "x2": rng.uniform(size=n)}
    labels = np.array(["a", "b", "base"] * (n // 3))[:n]
    return ObservationTable(cols, labels, "severity")


def mnl_spec():
    return ModelSpec("mnl", (
        Term(CONSTANT, ("a",)), Term("x1", ("a",)), Term("x2", ("a", "b"))),
        ("a", "b", "base"), "base")


# ---------------------------------------------------------------- tables

def test_table_basic_properties():
    t = severity_table()
    assert t.n_rows == 6
    assert t.column_names == ("x1", "x2")
    assert t.mode == "severity"
    assert t.n_dropped == 0


def test_table_columns_are_float64_and_readonly():
    t = ObservationTable({"x": [1, 2, 3]}, np.array([0, 1, 2]), "frequency")
    assert t.columns["x"].dtype == np.float64
    with pytest.raises(ValueError):
        t.columns["x"][0] = 9.0
    with pytest.raises(ValueError):
        t.outcome[0] = 9


def test_table_rejects_bad_mode_and_shapes():
    with pytest.raises(ValueError, match="mode"):
        ObservationTable({}, np.array(["a"]), "weird")
    with pytest.raises(ValueError, match="shape"):
        ObservationTable({"x": [1.0, 2.0]}, np.array(["a", "b", "c"]), "severity")
    with pytest.raises(ValueError, match="non-finite"):
        ObservationTable({"x": [1.0, np.nan]}, np.array(["a", "b"]), "severity")


def test_frequency_outcomes_coerced_and_validated():
    for counts in (np.array([3.0, 0.0]), np.array([3, 0], dtype=np.uint64),
                   np.array([3, 0], dtype=object)):
        t = ObservationTable({"x": [1.0, 2.0]}, counts, "frequency")
        assert t.outcome.dtype == np.int64
        assert list(t.outcome) == [3, 0]
    with pytest.raises(ValueError, match="integers"):
        ObservationTable({"x": [1.0]}, np.array([1.5]), "frequency")
    with pytest.raises(ValueError, match="non-negative"):
        ObservationTable({"x": [1.0]}, np.array([-1]), "frequency")


@pytest.mark.parametrize("value", [1e19, np.inf, np.uint64(2**63), 10**20, -10**20])
@pytest.mark.parametrize("call, what", [
    (lambda v: ObservationTable({"x": [1.0]}, np.array([v]), "frequency"),
     "frequency outcomes"),
    (lambda v: nb_logpmf(np.array([v]), 1.0, 0.5), "counts"),
], ids=["table", "nb_logpmf"])
def test_a_count_beyond_int64_is_refused_before_the_cast(call, what, value):
    """Casting 1e19 or the unsigned 2**63 to int64 wraps to a negative
    number, which was then refused as negative, an infinite count warned
    before it was refused, and numpy holds a Python integer beyond 64 bits
    as an object, whose cast overflowed; the range is checked first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{what} must lie within the int64 range$"):
            call(value)


def test_subset_with_mask_and_index():
    t = severity_table()
    sub = t.subset(np.array([True, False, True, False, False, False]))
    assert sub.n_rows == 2
    assert sub.columns["x1"][0] == t.columns["x1"][0]
    assert sub.outcome[1] == t.outcome[2]
    sub2 = t.subset(np.array([5, 0]))
    assert sub2.outcome[0] == t.outcome[5]


def test_split_by_flag():
    t = ObservationTable({"x": [1.0, 2.0, 3.0], "f": [1.0, 0.0, 1.0]},
                         np.array(["a", "b", "a"]), "severity")
    flagged, unflagged = split_by_flag(t, "f")
    assert flagged.n_rows == 2 and unflagged.n_rows == 1
    assert list(flagged.columns["x"]) == [1.0, 3.0]
    assert list(unflagged.outcome) == ["b"]
    with pytest.raises(ValueError, match="not in table"):
        split_by_flag(t, "nope")
    bad = ObservationTable({"f": [0.5]}, np.array(["a"]), "severity")
    with pytest.raises(ValueError, match="binary"):
        split_by_flag(bad, "f")


# ------------------------------------------------------------------- CSV

def test_csv_round_trip_preserves_floats_exactly(tmp_path):
    t = severity_table()
    path = tmp_path / "data.csv"
    t.to_csv(path)
    back = load_csv(path, "severity", "outcome")
    for name in t.column_names:
        assert np.array_equal(back.columns[name], t.columns[name])
    assert list(back.outcome) == list(t.outcome)


def test_load_csv_reads_counts_above_2_53_exactly(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("x,outcome\n1.0,9007199254740993\n2.0,3.0\n3.0,7\n")
    back = load_csv(path, "frequency", "outcome")
    assert back.outcome.tolist() == [2**53 + 1, 3, 7]


def test_csv_round_trip_frequency(tmp_path):
    t = ObservationTable({"x": [0.1, 0.2]}, np.array([4, 0]), "frequency")
    path = tmp_path / "counts.csv"
    t.to_csv(path, outcome_column="crashes")
    back = load_csv(path, "frequency", "crashes")
    assert list(back.outcome) == [4, 0]
    assert np.array_equal(back.columns["x"], t.columns["x"])


def test_to_csv_rejects_outcome_name_clash(tmp_path):
    t = severity_table()
    with pytest.raises(ValueError, match="clashes"):
        t.to_csv(tmp_path / "x.csv", outcome_column="x1")


def test_load_csv_drops_rows_with_missing_cells(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("x,outcome\n1.0,a\n,b\n2.0,\n3.0,a\n")
    t = load_csv(path, "severity", "outcome")
    assert t.n_rows == 2
    assert t.n_dropped == 2
    assert list(t.columns["x"]) == [1.0, 3.0]


def test_load_csv_error_cases(tmp_path):
    def write(text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        return p

    with pytest.raises(ValueError, match="empty file"):
        load_csv(write(""), "severity", "outcome")
    with pytest.raises(ValueError, match="duplicate column"):
        load_csv(write("x,x,outcome\n1,2,a\n"), "severity", "outcome")
    with pytest.raises(ValueError, match="not in header"):
        load_csv(write("x,y\n1,2\n"), "severity", "outcome")
    with pytest.raises(ValueError, match="expected 2 fields"):
        load_csv(write("x,outcome\n1,a,extra\n"), "severity", "outcome")
    with pytest.raises(ValueError, match="bad.csv:3: expected 2 fields, got 3"):
        load_csv(write("x,outcome\n1,a\n2,b,3\n"), "severity", "outcome")
    with pytest.raises(ValueError, match="non-numeric value"):
        load_csv(write("x,outcome\noops,a\n"), "severity", "outcome")
    with pytest.raises(ValueError, match="unknown outcome label"):
        load_csv(write("x,outcome\n1,zzz\n"), "severity", "outcome",
                 outcome_labels=("a", "b"))
    # a count's value: test_a_count_cell_loads_as_a_table_takes_its_value
    with pytest.raises(ValueError, match="non-numeric count"):
        load_csv(write("x,outcome\n1,many\n"), "frequency", "outcome")
    with pytest.raises(ValueError, match=f"count '{-10**20}' must lie within the int64 range"):
        load_csv(write(f"x,outcome\n1,{-10**20}\n"), "frequency", "outcome")
    with pytest.raises(ValueError, match="mode"):
        load_csv(write("x,outcome\n1,a\n"), "oops", "outcome")


@pytest.mark.parametrize("cell, want", [
    ("3.0", 3), ("-0.0000000001", 0), ("1e-9", "must be integers"),
    ("2.5", "must be integers"), ("-2", "must be non-negative"),
    ("inf", "must lie within the int64 range"), (str(2**63), "must lie within the int64 range"),
])
def test_a_count_cell_loads_as_a_table_takes_its_value(tmp_path, cell, want):
    """The row loop reads a count cell's text and leaves its value to the
    one count rule, so the CSV and ``ObservationTable`` agree."""
    path = tmp_path / "counts.csv"
    path.write_text(f"x,outcome\n1,{cell}\n")
    try:
        value = int(cell)
    except ValueError:
        value = float(cell)

    def table():
        return ObservationTable({"x": [1.0]}, np.array([value]), "frequency")

    if isinstance(want, int):
        assert load_csv(path, "frequency", "outcome").outcome.tolist() == [want]
        assert table().outcome.tolist() == [want]
        return
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: count {cell!r} {want}")):
        load_csv(path, "frequency", "outcome")
    with pytest.raises(ValueError, match=re.escape(f"frequency outcomes {want}")):
        table()


def test_the_row_loop_checks_only_float_and_negative_count_text(tmp_path, monkeypatch):
    # a dropped row sends the file to the row loop; integer text in range
    # is a count as it stands, float text is checked cell by cell, and the
    # table checks the whole column once
    path = tmp_path / "counts.csv"
    path.write_text("x,outcome\n" + "".join(f"{i},{i % 7}\n" for i in range(1000))
                    + "1,\n2.0,3.0\n")
    calls = []
    real = dataset.as_counts
    monkeypatch.setattr(dataset, "as_counts",
                        lambda values, what: calls.append(what) or real(values, what))
    table = load_csv(path, "frequency", "outcome")
    assert table.n_rows == 1001 and table.n_dropped == 1
    assert table.outcome[-1] == 3 and table.outcome.sum() == 2997 + 3
    assert calls == [f"{path}:1003: count '3.0'", "frequency outcomes"]


@pytest.mark.parametrize("later, first", [
    ("x,outcome\n1,2\n1,-2\n1,3\noops,4\n", "bad.csv:3: count '-2' must be non-negative"),
    ("x,outcome\n1,2\noops,3\n1,-2\n", "bad.csv:3: non-numeric value 'oops'"),
    ("x,outcome\n1,2.5\n1,2\n1,2,3\n", "bad.csv:2: count '2.5' must be integers"),
    ("x,outcome\n1,2\n1,many\n1,-1\n", "bad.csv:3: non-numeric count 'many'"),
    ("x,outcome\n1,2\n1,1e-9\n1,-1\n", "bad.csv:3: count '1e-9' must be integers"),
], ids=["count-then-covariate", "covariate-then-count", "count-then-fields",
        "text-then-count", "float-then-count"])
def test_the_first_bad_line_is_named_first(tmp_path, later, first):
    """A refused count and every other error of the row loop are named in
    line order."""
    path = tmp_path / "bad.csv"
    path.write_text(later)
    with pytest.raises(ValueError, match=re.escape(first)):
        load_csv(path, "frequency", "outcome")


def test_load_csv_accepts_unknown_labels_without_declared_set(tmp_path):
    p = tmp_path / "free.csv"
    p.write_text("x,outcome\n1,anything\n")
    t = load_csv(p, "severity", "outcome")
    assert list(t.outcome) == ["anything"]


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True)


@st.composite
def tables(draw):
    """A table of any finite doubles (signed zeros and subnormals included)
    and labels or counts; labels may hold commas, quotes and inner spaces,
    which the CSV writer has to quote."""
    names = draw(st.lists(NAMES.filter(lambda v: v != "outcome"), max_size=4,
                          unique=True))
    n = draw(st.integers(1, 12))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    cols = {name: np.array(draw(st.lists(floats, min_size=n, max_size=n)))
            for name in names}
    if draw(st.booleans()):
        edge = r"[A-Za-z0-9,\"';.]"
        label = st.from_regex(rf"{edge}([A-Za-z0-9,\"'; .]*{edge})?", fullmatch=True)
        outcome = np.array(draw(st.lists(label, min_size=n, max_size=n)))
        return ObservationTable(cols, outcome, "severity")
    # integer count text is read exactly over the whole int64 range
    counts = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n))
    return ObservationTable(cols, np.array(counts, dtype=np.int64), "frequency")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tables())
def test_csv_round_trip_is_bit_exact(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        table.to_csv(path)
        back = load_csv(path, table.mode, "outcome")
    assert back.n_dropped == 0
    assert back.column_names == table.column_names
    for name, values in table.columns.items():
        assert back.columns[name].tobytes() == values.tobytes(), name
    assert back.outcome.tolist() == table.outcome.tolist()


def _csv_writer_bytes(path, header, rows):
    """The reference file: the ``header`` cells and the cells of each of
    ``rows`` passed to ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path).read_bytes()


#: labels with every character ``csv.writer`` quotes, padding spaces,
#: non-ASCII text and the empty label
_WRITER_LABELS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\t", "#", "a",
                                          "b", "é", "事"]), max_size=6)


@st.composite
def writer_tables(draw):
    """A table with no to four covariates, of severity labels (as a string
    or an object array) or of counts up to 2**63 - 1; column names, the
    outcome column's too, may need quoting or be empty.  Each case is a
    writer, its header and the cells of its rows."""
    names = draw(st.lists(st.one_of(NAMES, _WRITER_LABELS), max_size=4, unique=True))
    outcome_column = draw(st.one_of(NAMES, _WRITER_LABELS).filter(lambda v: v not in names))
    n = draw(st.integers(0, 9))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    cols = {name: np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=float)
            for name in names}
    if draw(st.booleans()):
        labels = draw(st.lists(_WRITER_LABELS, min_size=n, max_size=n))
        dtype = draw(st.sampled_from([str, object]))
        table = ObservationTable(cols, np.array(labels, dtype=dtype), "severity")
    else:
        counts = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n))
        table = ObservationTable(cols, np.array(counts, dtype=np.int64), "frequency")
    cells = [map(repr, col.tolist()) for col in table.columns.values()]
    cells.append(map(str, table.outcome.tolist()))
    return (functools.partial(table.to_csv, outcome_column=outcome_column),
            list(table.columns) + [outcome_column], list(zip(*cells)))


#: report values: NaN and the infinities included
_VALUES = st.floats()


@st.composite
def writer_effects(draw):
    """An effects report of up to six rows named with :data:`_WRITER_LABELS`."""
    rows = draw(st.lists(st.builds(EffectRow, _WRITER_LABELS, _WRITER_LABELS,
                                   _WRITER_LABELS, _WRITER_LABELS, _VALUES), max_size=6))
    cells = [[r.variable, r.target, r.outcome, r.kind, repr(float(r.value)), int(r.elastic)]
             for r in rows]
    return (EffectsReport("elasticity", tuple(rows), 10).to_csv,
            ["variable", "target", "outcome", "kind", "value", "elastic"], cells)


@st.composite
def writer_profiles(draw):
    """An influence profile of up to nine caps."""
    n = draw(st.integers(0, 9))
    grid, ll = (np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)), dtype=float)
                for _ in range(2))
    converged = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    profile = InfluenceProfile(draw(_WRITER_LABELS), grid, ll, converged, 1.0, 2.0, False)
    cells = [[repr(float(grid[i])), repr(float(ll[i])), int(converged[i])] for i in range(n)]
    return profile.to_csv, ["D", "ll", "converged"], cells


@st.composite
def writer_histograms(draw):
    """A pooling test's histogram of up to nine bins."""
    n = draw(st.integers(0, 9))
    edges = np.array(draw(st.lists(_VALUES, min_size=n + 1, max_size=n + 1)), dtype=float)
    counts = np.array(draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n)),
                      dtype=np.int64)
    piece = ModelPiece("pooled", -1.0, 1, 1, True)
    result = LrTestResult(0.0, 1, 1.0, 3.84, piece, piece, piece, draw(_WRITER_LABELS), "nb",
                          histogram_edges=edges, histogram_counts=counts)
    cells = [[repr(float(edges[i])), repr(float(edges[i + 1])), int(c)]
             for i, c in enumerate(counts)]
    return result.write_histogram_csv, ["bin_left", "bin_right", "count"], cells


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(writer_tables(), writer_effects(), writer_profiles(), writer_histograms()),
       st.integers(1, 4))
def test_to_csv_writes_the_bytes_of_csv_writer(case, chunk_rows):
    """Every CSV writer, a table's and the reports', writes the bytes of
    ``csv.writer`` fed the cells it wrote them from before
    :func:`crashmle.serialize.write_csv`."""
    write, header, rows = case
    # chunks of a few rows put chunk boundaries inside the small tables
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(serialize, "CSV_CHUNK_ROWS", chunk_rows):
        write(Path(tmp) / "data.csv")
        written = (Path(tmp) / "data.csv").read_bytes()
        assert written == _csv_writer_bytes(Path(tmp) / "reference.csv", header, rows)


def test_load_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_bytes(b"x,outcome\r\n\r\n1.5,a\r\n\r\n\r\n2.5,b\r\n\r\n")
    for load in (load_csv, _load_rows):
        t = load(path, "severity", "outcome", None)
        assert t.columns["x"].tolist() == [1.5, 2.5]
        assert t.outcome.tolist() == ["a", "b"]
        assert t.n_dropped == 0


def test_load_csv_header_only_gives_no_rows_and_no_warning(tmp_path, recwarn):
    path = tmp_path / "empty.csv"
    path.write_text("x,outcome\n")
    t = load_csv(path, "frequency", "outcome")
    assert t.n_rows == 0 and t.n_dropped == 0
    assert t.column_names == ("x",) and t.outcome.dtype == np.int64
    assert len(recwarn) == 0


def test_load_csv_drops_a_gap_in_the_last_row(tmp_path):
    path = tmp_path / "last.csv"
    path.write_text("x,y,outcome\n1,2,3\n4,5,6\n7,,9")
    t = load_csv(path, "frequency", "outcome")
    assert t.n_rows == 2 and t.n_dropped == 1
    assert t.columns["y"].tolist() == [2.0, 5.0]
    assert t.outcome.tolist() == [3, 6]


_FLOAT_TEXT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_LABELS = ("a", "b", "base", "x, y", 'say "hi"', "two\nlines", "#3")


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


#: cells both loaders read, one kind of column each
_CELLS = {
    "covariate": st.one_of(_FLOAT_TEXT, _FLOAT_TEXT.map(lambda v: f" {v}\t"),
                           _FLOAT_TEXT.map(_quoted), st.just("3.0")),
    "severity": st.one_of(st.sampled_from(_LABELS).map(_quoted),
                          st.sampled_from(["a", " base ", "zzz"])),
    "frequency": st.one_of(st.integers(0, 2**63 - 1).map(str),
                           st.integers(0, 50).map(lambda v: f" {v} "),
                           st.sampled_from(["+4", "-0", "007"])),
}
#: cells that make a row dropped, an error, or text only the row loop reads
_ODD_CELLS = {
    "covariate": ["", " ", '""', "1_0", "٣.٥", "７", "inf", "nan", "1e400",
                  "oops", "1#2", "0x1p0"],
    "severity": ["", " ", '""', "a#"],
    "frequency": ["", " ", "3.0", "2.5", "1_0", "-2", "٣", str(2**63), "1e3",
                  "inf", "many"],
}


@st.composite
def csv_texts(draw):
    """CSV text with a header, in any of the line-ending conventions:
    readable cells with at most a few odd ones, and now and then a blank
    line or a row with a field too many or too few."""
    mode = draw(st.sampled_from(["severity", "frequency"]))
    n_cov = draw(st.integers(0, 3))
    kinds = ["covariate"] * n_cov
    kinds.insert(draw(st.integers(0, n_cov)), mode)
    header = [f"c{j}" for j in range(n_cov)]
    header.insert(kinds.index(mode), "outcome")
    rows = [[draw(_CELLS[k]) for k in kinds]
            for _ in range(draw(st.integers(0, 6)))]
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(rows) - 1))
            # the outcome column, which takes both loaders' own checks, twice as often
            j = draw(st.sampled_from([kinds.index(mode), *range(len(kinds))]))
            rows[i][j] = draw(st.sampled_from(_ODD_CELLS[kinds[j]]))
        i = draw(st.integers(0, len(rows) - 1))
        shape = draw(st.sampled_from(["keep"] * 8 + ["extra", "short"]))
        if shape == "extra":
            rows[i].append("1")
        elif shape == "short" and len(kinds) > 1:
            rows[i].pop()
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    labels = draw(st.sampled_from([None, _LABELS]))
    return text, mode, labels


def _load_result(load, path, mode, labels):
    """The table a loader returns, as plain values, or its error message."""
    try:
        t = load(path, mode, "outcome", labels)
    except ValueError as exc:
        return "error", str(exc)
    return ("table", {n: c.tobytes() for n, c in t.columns.items()},
            t.outcome.tolist(), t.outcome.dtype, t.n_dropped)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(csv_texts())
def test_typed_pass_and_row_loop_agree(case):
    text, mode, labels = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _load_result(load_csv, path, mode, labels) == \
            _load_result(_load_rows, path, mode, labels)


# ----------------------------------------------------------- terms/specs

def test_term_validation():
    t = Term("x1", ("a", "b"), "random_normal")
    assert t.is_random and t.n_params == 2
    assert Term("x1", ("a",)).n_params == 1
    with pytest.raises(ValueError, match="non-empty"):
        Term("")
    with pytest.raises(ValueError, match="kind"):
        Term("x1", ("a",), "lognormal")


def test_model_spec_severity_validation():
    with pytest.raises(ValueError, match="no terms"):
        ModelSpec("mnl", (), ("a", "b"), "a")
    with pytest.raises(ValueError, match="at least two"):
        ModelSpec("mnl", (Term("x", ("a",)),), ("a",), "a")
    with pytest.raises(ValueError, match="duplicate outcome"):
        ModelSpec("mnl", (Term("x", ("a",)),), ("a", "a", "b"), "b")
    with pytest.raises(ValueError, match="base outcome"):
        ModelSpec("mnl", (Term("x", ("a",)),), ("a", "b"), "c")
    with pytest.raises(ValueError, match="non-base"):
        ModelSpec("mnl", (Term("x", ("b",)),), ("a", "b"), "b")
    with pytest.raises(ValueError, match="has no outcomes"):
        ModelSpec("mnl", (Term("x"),), ("a", "b"), "b")
    with pytest.raises(ValueError, match="duplicate term"):
        ModelSpec("mnl", (Term("x", ("a",)), Term("x", ("a",))), ("a", "b"), "b")


def test_model_spec_frequency_validation():
    ModelSpec("nb", (Term(CONSTANT), Term("z")))
    with pytest.raises(ValueError, match="do not declare outcomes"):
        ModelSpec("nb", (Term("z"),), ("a", "b"), "b")
    with pytest.raises(ValueError, match="lists outcomes"):
        ModelSpec("nb", (Term("z", ("a",)),))


def test_plain_families_reject_random_terms():
    with pytest.raises(ValueError, match="fixed terms only"):
        ModelSpec("mnl", (Term("x", ("a",), "random_normal"),), ("a", "b"), "b")
    with pytest.raises(ValueError, match="fixed terms only"):
        ModelSpec("nb", (Term("z", (), "random_uniform"),))
    # mixed families accept them
    ModelSpec("mixed_mnl", (Term("x", ("a",), "random_normal"),), ("a", "b"), "b")
    ModelSpec("mixed_nb", (Term("z", (), "random_uniform"),))


def test_spec_dict_round_trip():
    spec = ModelSpec("mixed_mnl", (
        Term("x1", ("a",), "random_normal"), Term("x2", ("a", "b"))),
        ("a", "b", "base"), "base")
    assert ModelSpec.from_dict(spec.to_dict()) == spec
    freq = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z", (), "random_uniform")))
    assert ModelSpec.from_dict(freq.to_dict()) == freq


def test_param_names():
    sev = Term("x1", ("a", "b"), "random_normal")
    assert term_param_name(sev, True) == "x1[a+b]"
    assert scale_param_name(sev, True) == "x1[a+b]:sd"
    freq = Term("z", (), "random_uniform")
    assert term_param_name(freq, False) == "z"
    assert scale_param_name(freq, False) == "z:spread"


# --------------------------------------------------------------- parsing

SEVERITY_SPEC_TEXT = """
# comment line
[model]
family = mixed_mnl
outcomes = fatal, injury, pdo
base = pdo

[term]
var = constant
outcomes = fatal

[term]
var = aadt
outcomes = fatal, injury
dist = normal

; another comment
[term]
var = shoulder
outcomes = injury
dist = uniform
"""


def test_parse_spec_severity():
    spec = parse_spec(SEVERITY_SPEC_TEXT)
    assert spec.family == "mixed_mnl"
    assert spec.outcomes == ("fatal", "injury", "pdo")
    assert spec.base_outcome == "pdo"
    assert spec.terms[0] == Term("constant", ("fatal",))
    assert spec.terms[1] == Term("aadt", ("fatal", "injury"), "random_normal")
    assert spec.terms[2] == Term("shoulder", ("injury",), "random_uniform")


def test_parse_spec_frequency():
    spec = parse_spec("[model]\nfamily = nb\n[term]\nvar = constant\n"
                      "[term]\nvar = aadt\n")
    assert spec.family == "nb"
    assert spec.outcomes == ()
    assert [t.variable for t in spec.terms] == ["constant", "aadt"]


def test_parse_spec_errors():
    with pytest.raises(ValueError, match="missing 'family'"):
        parse_spec("[term]\nvar = x\n")
    with pytest.raises(ValueError, match="unknown section"):
        parse_spec("[model]\nfamily = nb\n[weird]\n")
    with pytest.raises(ValueError, match="repeated \\[model\\]"):
        parse_spec("[model]\nfamily = nb\n[model]\n")
    with pytest.raises(ValueError, match="line 4: repeated \\[model\\]"):
        parse_spec("[model]\n[term]\nvar = x\n[model]\nfamily = nb\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_spec("[model]\nfamily = nb\ncolor = red\n")
    with pytest.raises(ValueError, match="repeated key"):
        parse_spec("[model]\nfamily = nb\nfamily = mnl\n")
    with pytest.raises(ValueError, match="outside any section"):
        parse_spec("family = nb\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_spec("[model]\nfamily nb\n")
    with pytest.raises(ValueError, match="family must be one of"):
        parse_spec("[model]\nfamily = probit\n")
    with pytest.raises(ValueError, match="list of at least two outcomes"):
        parse_spec("[model]\nfamily = mnl\n[term]\nvar = x\noutcomes = a\n")
    with pytest.raises(ValueError, match="do not declare a base outcome"):
        parse_spec("[model]\nfamily = nb\nbase = a\n[term]\nvar = x\n")
    with pytest.raises(ValueError, match="missing 'var'"):
        parse_spec("[model]\nfamily = nb\n[term]\ndist = normal\n")
    with pytest.raises(ValueError, match="has no outcomes"):
        parse_spec("[model]\nfamily = mnl\noutcomes = a, b\nbase = b\n"
                   "[term]\nvar = x\n")
    with pytest.raises(ValueError, match="dist must be one of"):
        parse_spec("[model]\nfamily = mixed_nb\n[term]\nvar = x\ndist = cauchy\n")
    with pytest.raises(ValueError, match="need a base outcome"):
        parse_spec("[model]\nfamily = mnl\noutcomes = a, b\n[term]\nvar = x\noutcomes = a\n")
    with pytest.raises(ValueError, match="unknown key 'distribution' in \\[term\\]"):
        parse_spec("[model]\nfamily = nb\n[term]\nvar = x\ndistribution = normal\n")


def test_the_readme_spec_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    spec = parse_spec(readme.split("```ini\n")[1].split("```")[0])
    assert spec.terms[-1] == Term("x1", ("a", "b"), "random_normal")


def test_parse_spec_folds_the_case_of_family_and_dist():
    assert parse_spec("[MODEL]\nFamily = Mixed_NB\n[term]\nvar = x\nDist = Normal\n") == \
        ModelSpec("mixed_nb", (Term("x", (), "random_normal"),))


@pytest.mark.parametrize("mistype, key", [
    (lambda d: d.update(colour="red"), "colour"),
    (lambda d: d.update(famly=d.pop("family")), "famly"),
    (lambda d: d["terms"][1].update(distribution="normal"), "distribution"),
], ids=["model_key", "mistyped_family", "term_key"])
def test_spec_from_dict_refuses_an_unknown_key(mistype, key):
    # a mistyped key is named: a mistyped "dist" must not quietly leave the
    # coefficient fixed, and "famly" is named rather than the missing "family"
    d = mnl_spec().to_dict()
    mistype(d)
    with pytest.raises(ValueError, match=f"unknown keys \\['{key}'\\]"):
        ModelSpec.from_dict(d)


def test_load_spec_file(tmp_path):
    p = tmp_path / "model.ini"
    p.write_text(SEVERITY_SPEC_TEXT)
    assert load_spec(p) == parse_spec(SEVERITY_SPEC_TEXT)


@st.composite
def specs(draw):
    """Any valid spec: severity specs tie terms to non-empty outcome sets,
    plain families keep their terms fixed."""
    family = draw(st.sampled_from(("mnl", "mixed_mnl", "nb", "mixed_nb")))
    kinds = (("fixed",) if family in ("mnl", "nb")
             else ("fixed", "random_normal", "random_uniform"))
    variables = st.one_of(st.just(CONSTANT), NAMES)
    if family in ("nb", "mixed_nb"):
        names = draw(st.lists(variables, min_size=1, max_size=4, unique=True))
        return ModelSpec(family, tuple(Term(v, (), draw(st.sampled_from(kinds)))
                                       for v in names))
    outcomes = draw(st.lists(NAMES, min_size=2, max_size=4, unique=True))
    base = draw(st.sampled_from(outcomes))
    nonbase = [o for o in outcomes if o != base]
    keys = draw(st.lists(
        st.tuples(variables, st.lists(st.sampled_from(nonbase), min_size=1,
                                      unique=True)),
        min_size=1, max_size=4, unique_by=lambda k: (k[0], frozenset(k[1]))))
    terms = tuple(Term(v, tuple(outs), draw(st.sampled_from(kinds)))
                  for v, outs in keys)
    return ModelSpec(family, terms, tuple(outcomes), base)


_DIST = {"fixed": "fixed", "random_normal": "normal", "random_uniform": "uniform"}


def spec_ini(spec: ModelSpec) -> str:
    lines = ["[model]", f"family = {spec.family}"]
    if spec.is_severity:
        lines += [f"outcomes = {', '.join(spec.outcomes)}",
                  f"base = {spec.base_outcome}"]
    for t in spec.terms:
        lines += ["[term]", f"var = {t.variable}", f"dist = {_DIST[t.kind]}"]
        if t.outcomes:
            lines.append(f"outcomes = {','.join(t.outcomes)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(specs())
def test_spec_round_trips_through_dict_and_ini(spec):
    assert ModelSpec.from_dict(spec.to_dict()) == spec
    assert parse_spec(spec_ini(spec)) == spec


# ---------------------------------------------------------------- design

def test_design_layout_severity():
    t = severity_table()
    d = build_design(t, mnl_spec())
    assert d.x.shape == (6, 3)
    assert np.all(d.x[:, 0] == 1.0)          # constant expands to ones
    assert np.array_equal(d.x[:, 1], t.columns["x1"])
    assert d.param_names == ("constant[a]", "x1[a]", "x2[a+b]")
    assert d.n_params == 3
    # incidence: rows = terms, cols = outcomes (a, b, base); base all-zero
    expected = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    assert np.array_equal(d.incidence, expected)
    assert d.base_index == 2
    assert np.all(d.incidence[:, d.base_index] == 0.0)
    assert list(d.y_index) == [0, 1, 2, 0, 1, 2]
    assert d.counts is None
    assert d.n_outcomes == 3


@pytest.mark.parametrize("dtype", [str, object])
def test_design_encodes_prefix_labels_against_an_unsorted_outcome_order(dtype):
    labels = ["ab", "a", "base", "b", "ab", "a", "b"]
    outcomes = ("b", "ab", "base", "a")
    spec = ModelSpec("mnl", (Term("x", ("ab", "a")), Term("x", ("b",))), outcomes, "base")
    table = ObservationTable({"x": np.arange(7.0)}, np.array(labels, dtype=dtype),
                             "severity")
    d = build_design(table, spec)
    assert d.y_index.tolist() == [outcomes.index(v) for v in labels]
    assert d.y_index.dtype == np.int64


@pytest.mark.parametrize("dtype", [str, object])
def test_design_names_the_first_unknown_label_in_row_order(dtype):
    # "ab" and "c" sort before "zz", and "ab" extends a known label
    spec = ModelSpec("mnl", (Term("x", ("a",)),), ("a", "b"), "b")
    table = ObservationTable({"x": np.zeros(5)},
                             np.array(["a", "zz", "b", "ab", "c"], dtype=dtype), "severity")
    with pytest.raises(ValueError) as info:
        build_design(table, spec)
    assert str(info.value) == "outcome label 'zz' not in spec outcomes ('a', 'b')"


def test_design_layout_frequency_with_random_term():
    t = ObservationTable({"z": [0.5, 1.5]}, np.array([2, 0]), "frequency")
    spec = ModelSpec("mixed_nb", (Term(CONSTANT), Term("z", (), "random_normal")))
    d = build_design(t, spec)
    assert d.param_names == ("constant", "z", "z:sd", "alpha")
    assert d.n_params == 4
    assert list(d.loc_pos) == [0, 1]
    assert list(d.scale_pos) == [-1, 2]
    assert list(d.log_pos) == [2, 3]
    assert d.random_terms == (1,)
    assert d.incidence is None and d.y_index is None
    assert np.array_equal(d.counts, [2, 0])


def test_design_linear_predictors():
    t = severity_table()
    d = build_design(t, mnl_spec())
    theta = np.array([0.5, -1.0, 0.25])
    v = d.linear_predictors(theta)
    x1, x2 = t.columns["x1"], t.columns["x2"]
    np.testing.assert_allclose(v[:, 0], 0.5 - x1 + 0.25 * x2, rtol=1e-15)
    np.testing.assert_allclose(v[:, 1], 0.25 * x2, rtol=1e-15)
    assert np.all(v[:, 2] == 0.0)

    tf = ObservationTable({"z": [2.0, 3.0]}, np.array([1, 0]), "frequency")
    df = build_design(tf, ModelSpec("nb", (Term(CONSTANT), Term("z"))))
    np.testing.assert_allclose(df.linear_predictors([1.0, 0.5]), [2.0, 2.5])


def test_design_index_map():
    d = build_design(severity_table(), mnl_spec())
    assert d.index_map() == {"constant[a]": 0, "x1[a]": 1, "x2[a+b]": 2}


def test_design_errors():
    t = severity_table()
    with pytest.raises(ValueError, match="needs a frequency table"):
        build_design(t, ModelSpec("nb", (Term(CONSTANT),)))
    with pytest.raises(ValueError, match="not in table"):
        build_design(t, ModelSpec("mnl", (Term("missing", ("a",)),),
                                  ("a", "b", "base"), "base"))
    bad_labels = ObservationTable({"x1": [1.0]}, np.array(["zzz"]), "severity")
    with pytest.raises(ValueError, match="not in spec outcomes"):
        build_design(bad_labels, ModelSpec("mnl", (Term("x1", ("a",)),),
                                           ("a", "b"), "b"))

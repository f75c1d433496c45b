import builtins
import codecs
import csv
import hashlib
import importlib
import io
import json
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pairrank
from pairrank.counts import CountMatrix
from pairrank.errors import DomainError, ParseError
from pairrank.io import matrix_to_csv, parse_articles, parse_input
from pairrank.report import (MatrixBlock, RunReport, ScoreEntry, load_schema,
                             sort_scores)

EDGES = """winner,loser,count
a,b,1
a,c,1
b,a,2
b,c,2
c,a,4
c,b,4
"""

MATRIX = """,a,b,c
a,0,1,1
b,2,0,2
c,4,4,0
"""

EXPECTED = np.array([[0, 1, 1], [2, 0, 2], [4, 4, 0]], float)

SNIFF_ERROR = ("line {}: cannot determine input format: expected an edges "
               "header 'winner,loser,count' or a matrix header with an "
               "empty corner cell")


def test_star_import_binds_no_submodule():
    # pairrank.io would otherwise shadow the standard library's io
    namespace = {"io": io}
    exec("from pairrank import *", namespace)
    assert namespace["io"] is io
    assert namespace["parse_input"] is pairrank.parse_input
    assert [name for name in pairrank.__all__
            if isinstance(getattr(pairrank, name), types.ModuleType)] == []


def test_lazy_exports_resolve_to_their_submodules():
    # each public name is imported on first access from the submodule its
    # table entry names, which must be the one that defines it
    for name in pairrank.__all__:
        module = importlib.import_module(
            f"pairrank.{pairrank._SOURCE[name]}")
        value = getattr(pairrank, name)
        assert value is getattr(module, name)
        assert value.__module__ == module.__name__
    assert set(pairrank.__all__) <= set(dir(pairrank))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pairrank.no_such_name


def test_public_api_is_pinned():
    # a name joins or leaves the public API only by editing this list
    assert sorted(pairrank.__all__) == [
        "AbilityVector", "ConnectivityError", "ConsistencyError",
        "ConvergenceError", "CountMatrix", "DanglingNodeError",
        "DecompositionError", "DegenerateSampleError", "DimensionError",
        "DomainError", "FitReport", "MatrixBlock", "MonteCarloResult",
        "NotQuasiSymmetricError", "ParseError", "QSDecomposition",
        "RankingError", "RankingVector", "ReducibilityError",
        "ReversibilityReport", "RunReport", "ScoreEntry", "SeparationError",
        "SimulationConfig", "StationaryResult", "TripletReport",
        "TripletViolation", "as_count_matrix", "bt_covariance", "bt_deviance",
        "check_triplets", "circular", "circular_covariance", "decompose_qs",
        "default_labels", "delta_method_covariance", "fit_bt",
        "influence_per_publication", "influence_weight", "is_irreducible",
        "is_reversible", "iw_from_pagerank", "lexicographic_pairs",
        "load_schema", "log_iw_jacobian", "matrix_to_csv",
        "monte_carlo_covariance", "pagerank", "pagerank_from_iw",
        "parse_articles", "parse_input", "predict_prob",
        "random_quasi_symmetric", "round_robin", "round_robin_covariance",
        "simulate_tournament", "stationary_derivative", "stationary_vector",
        "structure_matrix", "total_influence", "transition_matrix",
        "verify_equivalence"]


class TestParseEdges:
    def test_basic(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text(EDGES)
        C = parse_input(p)
        assert C.labels == ("a", "b", "c")
        assert_allclose(C.counts, EXPECTED)

    def test_auto_detection(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text(EDGES)
        assert_allclose(parse_input(p).counts, EXPECTED)

    def test_repeated_rows_accumulate(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("winner,loser,count\nx,y,2\nx,y,3\ny,x,1\n")
        C = parse_input(p)
        assert_allclose(C.counts, [[0, 5], [1, 0]])

    def test_labels_in_first_appearance_order(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("winner,loser,count\nz,m,1\nm,a,2\na,z,3\n")
        assert parse_input(p).labels == ("z", "m", "a")

    def test_bad_count_reports_line(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("winner,loser,count\nx,y,2\nx,y,oops\n")
        with pytest.raises(ParseError) as exc:
            parse_input(p)
        assert exc.value.line == 3

    def test_negative_count_is_domain_error(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("winner,loser,count\nx,y,-2\ny,x,1\n")
        with pytest.raises(DomainError) as exc:
            parse_input(p)
        assert "line 2" in str(exc.value)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("winner,loser,count\nx,y\n")
        with pytest.raises(ParseError) as exc:
            parse_input(p)
        assert exc.value.line == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            parse_input(p)

    # fmt named the layout parse_input was told to use; the header decides
    # it now, and the column keeps each case's id
    @pytest.mark.parametrize("text, fmt, kind, message", [
        ("a,b,c\nx,y,1\n", "edges", ParseError, SNIFF_ERROR.format(1)),
        ("winner,loser,count\nx,y,1\n,y,1\n", "edges", ParseError,
         "line 3: empty label"),
        ("winner,loser,count\nx,,1\n", "edges", ParseError,
         "line 2: empty label"),
        ("winner,loser,count\nx,y,inf\n", "edges", ParseError,
         "line 2: count 'inf' is not finite"),
        ("winner,loser,count\nx,y,nan\n", "auto", ParseError,
         "line 2: count 'nan' is not finite"),
        ("winner,loser,count\nx,y,\n", "edges", ParseError,
         "line 2: count '' is not a number"),
        ("winner,loser,count\n\n", "edges", ParseError,
         "no edge rows after the header"),
    ])
    def test_errors(self, tmp_path, text, fmt, kind, message):
        p = tmp_path / "e.csv"
        p.write_text(text)
        with pytest.raises(kind) as exc:
            parse_input(p)
        assert str(exc.value) == message


class TestParseMatrix:
    def test_basic(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(MATRIX)
        C = parse_input(p)
        assert C.labels == ("a", "b", "c")
        assert_allclose(C.counts, EXPECTED)

    def test_auto_detection(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(MATRIX)
        assert_allclose(parse_input(p).counts, EXPECTED)

    def test_row_label_mismatch(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b\nb,0,1\na,2,0\n")
        with pytest.raises(ParseError) as exc:
            parse_input(p)
        assert exc.value.line == 2

    def test_missing_rows(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b\na,0,1\n")
        with pytest.raises(ParseError):
            parse_input(p)

    def test_non_numeric_entry(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b\na,0,1\nb,x,0\n")
        with pytest.raises(ParseError) as exc:
            parse_input(p)
        assert exc.value.line == 3

    def test_negative_entry_is_domain_error(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b\na,0,-1\nb,2,0\n")
        with pytest.raises(DomainError):
            parse_input(p)

    def test_unrecognizable_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("foo,bar\n1,2\n")
        with pytest.raises(ParseError):
            parse_input(p)


def _matrix_error(tmp_path, text: str, kind=ParseError) -> str:
    p = tmp_path / "m.csv"
    p.write_text(text)
    with pytest.raises(kind) as exc:
        parse_input(p)
    return str(exc.value)


class TestMatrixParserBehaviour:
    """Messages, line numbers and error order of the matrix layout."""

    def test_whitespace_padded_cells(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(" , a ,b \n a , 0 , 1 \nb,  2,0  \n")
        C = parse_input(p)
        assert C.labels == ("a", "b")
        assert np.array_equal(C.counts, [[0, 1], [2, 0]])

    def test_blank_lines_between_rows(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b\n\na,0,1\n , \n\nb,2,0\n\n")
        C = parse_input(p)
        assert np.array_equal(C.counts, [[0, 1], [2, 0]])

    def test_blank_lines_count_in_line_numbers(self, tmp_path):
        msg = _matrix_error(tmp_path, ",a,b\n\na,0,1\n\nb,x,0\n")
        assert msg == "line 5: entry 'x' is not a number"

    @pytest.mark.parametrize("raw, message", [
        ("nan", "line 3: entry 'nan' is not finite"),
        ("inf", "line 3: entry 'inf' is not finite"),
        ("-inf", "line 3: entry '-inf' is not finite"),
        ("1e400", "line 3: entry '1e400' is not finite"),
        ("x", "line 3: entry 'x' is not a number"),
        ("", "line 3: entry '' is not a number"),
    ])
    def test_bad_entry(self, tmp_path, raw, message):
        assert _matrix_error(tmp_path, f",a,b\na,0,1\nb,{raw},0\n") == message

    def test_negative_entry_message(self, tmp_path):
        msg = _matrix_error(tmp_path, ",a,b\na,0,1\nb,-1.5,0\n",
                            DomainError)
        assert msg == "line 3: negative count -1.5 at ('b', 'a')"

    def test_first_bad_cell_of_a_row_wins(self, tmp_path):
        msg = _matrix_error(tmp_path, ",a,b,c\na,0,1,1\nb,1,-2,x\nc,1,1,0\n",
                            DomainError)
        assert msg == "line 3: negative count -2 at ('b', 'b')"
        msg = _matrix_error(tmp_path, ",a,b,c\na,0,1,1\nb,1,x,-2\nc,1,1,0\n")
        assert msg == "line 3: entry 'x' is not a number"

    def test_first_bad_row_wins(self, tmp_path):
        msg = _matrix_error(tmp_path, ",a,b\na,0,nan\nb,-1,0\n")
        assert msg == "line 2: entry 'nan' is not finite"

    def test_row_count_reported_before_a_bad_cell(self, tmp_path):
        msg = _matrix_error(tmp_path, ",a,b\na,0,x\nb,1,0\nc,1,1\n")
        assert msg == "line 1: expected 2 data rows for 2 labels, got 3"
        msg = _matrix_error(tmp_path, ",a,b,c\na,0,-1,1\nb,1,0,1\n")
        assert msg == "line 1: expected 3 data rows for 3 labels, got 2"

    def test_short_row(self, tmp_path):
        msg = _matrix_error(tmp_path, ",a,b\na,0\nb,1,0\n")
        assert msg == "line 2: expected 3 fields, got 2"

    def test_long_row(self, tmp_path):
        msg = _matrix_error(tmp_path, ",a,b\na,0,1\nb,1,0,4\n")
        assert msg == "line 3: expected 3 fields, got 4"

    @pytest.mark.parametrize("text, message", [
        ("a,b\na,0,1\n", SNIFF_ERROR.format(1)),
        (",a,a\na,0,1\na,1,0\n", "line 1: duplicate labels in matrix header"),
        # an empty label is rejected as in an edge list
        (",a,\na,0,1\n,2,0\n", "line 1: empty label"),
        (",,a\n,0,1\na,2,0\n", "line 1: empty label"),
        (",a,,\na,0,1,1\n,2,0,1\n,1,1,0\n", "line 1: empty label"),
        # a header of the corner cell alone is a blank row, so no header
        # ever reaches the parser without a label
        (",\n , \n", "input file is empty"),
        # the first non-blank row is the header, and errors name its line
        (",\na,0\n", SNIFF_ERROR.format(2)),
    ])
    def test_header_errors(self, tmp_path, text, message):
        assert _matrix_error(tmp_path, text) == message


class TestParseArticles:
    def test_header_skipped_and_label_order(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("label,articles\n\n c , 2 \na,1\nb,4\n")
        assert np.array_equal(parse_articles(p, ("a", "b", "c")), [1, 4, 2])

    @pytest.mark.parametrize("text, kind, message", [
        ("a,1\na,2\n", ParseError, "line 2: duplicate label 'a'"),
        ("a,1,2\n", ParseError, "line 1: expected 2 fields, got 3"),
        ("a,x\n", ParseError, "line 1: articles value 'x' is not a number"),
        ("b,1\n", DomainError, "articles file is missing labels: a"),
        ("a,1\nb,1\nz,1\n", DomainError,
         "articles file has unknown labels: z"),
    ])
    def test_errors(self, tmp_path, text, kind, message):
        p = tmp_path / "a.csv"
        p.write_text(text)
        with pytest.raises(kind) as exc:
            parse_articles(p, ("a", "b"))
        assert str(exc.value) == message


# float() reads these as 10, 1 and 12; np.loadtxt reads none of them
FLOAT_ONLY = ("1_0", "\u0661", "\uff11\uff12")


class TestNumberGrammar:
    """Both parse paths read the numbers np.loadtxt reads, and no more."""

    @pytest.mark.parametrize("raw", FLOAT_ONLY)
    def test_matrix_entry(self, tmp_path, raw):
        assert _matrix_error(tmp_path, f",a,b\na,0,1\nb,{raw},0\n") == \
            f"line 3: entry {raw!r} is not a number"
        # a quoted label sends the file to the walk from the header on
        assert _matrix_error(tmp_path, f',"a",b\na,0,1\nb, {raw} ,0\n') == \
            f"line 3: entry {raw!r} is not a number"

    @pytest.mark.parametrize("raw", FLOAT_ONLY)
    def test_edge_count(self, tmp_path, raw):
        p = tmp_path / "e.csv"
        p.write_text(f"winner,loser,count\nx,y,1\ny,x,{raw}\n")
        with pytest.raises(ParseError) as exc:
            parse_input(p)
        assert str(exc.value) == f"line 3: count {raw!r} is not a number"

    @pytest.mark.parametrize("raw", FLOAT_ONLY)
    def test_articles_value(self, tmp_path, raw):
        p = tmp_path / "a.csv"
        p.write_text(f"label,articles\na,1\nb,{raw}\n")
        with pytest.raises(ParseError) as exc:
            parse_articles(p, ("a", "b"))
        assert str(exc.value) == \
            f"line 3: articles value {raw!r} is not a number"

    def test_spellings_both_paths_read(self, tmp_path):
        cells = ["1e3", "+1", ".5", "-0.0", " 2 "]
        p = tmp_path / "e.csv"
        p.write_text("winner,loser,count\n" + "".join(
            f"x{k},y{k},{raw}\n" for k, raw in enumerate(cells)))
        C = parse_input(p)
        assert [C.counts[2 * k, 2 * k + 1] for k in range(5)] == \
            [1000.0, 1.0, 0.5, 0.0, 2.0]
        p = tmp_path / "m.csv"
        p.write_text(',"a",b\na,1e3,+1\nb,.5,-0.0\n')
        assert parse_input(p).counts.tolist() == [[1000.0, 1.0], [0.5, 0.0]]
        p = tmp_path / "a.csv"
        p.write_text("a,1e3\nb,+.5\n")
        assert parse_articles(p, ("a", "b")).tolist() == [1000.0, 0.5]


class TestUnreadableText:
    # (reader, file text with the bad cell as {}, line of that cell)
    FILES = {
        "input": (parse_input, b",a,b\na,0,1\nb,{},0\n", 3),
        "articles": (lambda p: parse_articles(p, ("a", "b")),
                     b"a,1\nb,{}\n", 2),
    }

    @pytest.mark.parametrize("which", sorted(FILES))
    def test_not_utf8(self, tmp_path, which):
        parse, text, _ = self.FILES[which]
        p = tmp_path / "bad.csv"
        p.write_bytes(text.replace(b"{}", b"\xff"))
        with pytest.raises(ParseError) as exc:
            parse(p)
        assert str(exc.value) == "file is not valid UTF-8: invalid start byte"

    @pytest.mark.parametrize("which", sorted(FILES))
    def test_cell_over_the_csv_field_limit(self, tmp_path, which):
        parse, text, line = self.FILES[which]
        limit = csv.field_size_limit()
        p = tmp_path / "bad.csv"
        p.write_bytes(text.replace(b"{}", b"1" * (limit + 1)))
        with pytest.raises(ParseError) as exc:
            parse(p)
        assert str(exc.value) == (
            f"line {line}: field larger than field limit ({limit})")

    def test_later_decoding_error_wins_over_a_parse_error(self, tmp_path):
        # the bad byte lies beyond the first block the text layer decodes
        filler = "".join(f"x{i},y{i},1\n" for i in range(4000)).encode()
        p = tmp_path / "bad.csv"
        p.write_bytes(b"winner,loser,count\nx,y,oops\n" + filler + b"\xff\n")
        with pytest.raises(ParseError, match="not valid UTF-8"):
            parse_input(p)


class TestByteOrderMark:
    # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark
    BOM = codecs.BOM_UTF8

    def test_matrix(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(self.BOM + MATRIX.encode())
        C = parse_input(p)
        assert C.labels == ("a", "b", "c")
        assert np.array_equal(C.counts, EXPECTED)

    def test_edges(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_bytes(self.BOM + EDGES.encode())
        C = parse_input(p)
        assert C.labels == ("a", "b", "c")
        assert np.array_equal(C.counts, EXPECTED)

    def test_articles(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(self.BOM + b"a,1\nb,4\n")
        assert np.array_equal(parse_articles(p, ("a", "b")), [1, 4])


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        C = CountMatrix(rng.uniform(0, 7, size=(5, 5)) ** 3,
                        ("a", "b", "c", "d", "e"))
        p = tmp_path / "m.csv"
        p.write_text(matrix_to_csv(C))
        back = parse_input(p)
        assert back.labels == C.labels
        assert np.array_equal(back.counts, C.counts)  # no tolerance

    def test_awkward_labels_quoted(self, tmp_path):
        C = CountMatrix([[0, 2], [1, 0]], ('x, "the" team', "y"))
        p = tmp_path / "m.csv"
        p.write_text(matrix_to_csv(C))
        back = parse_input(p)
        assert back.labels == C.labels
        assert np.array_equal(back.counts, C.counts)

    # each label would read back as another label, or not at all
    @pytest.mark.parametrize("labels, bad", [
        ((" a",), " a"), (("",), ""), (("a", "a "), "a "),
        (("a\rb",), "a\rb"),
    ])
    def test_label_that_would_not_read_back(self, labels, bad):
        C = CountMatrix(np.zeros((len(labels),) * 2), labels)
        with pytest.raises(DomainError) as exc:
            matrix_to_csv(C)
        assert str(exc.value) == (
            f"label {bad!r} would not read back from CSV: a label must be "
            f"non-empty, without surrounding whitespace or carriage returns")


class TestReport:
    def _report(self):
        scores = sort_scores(("a", "b", "c"), (0.25, 0.5, 0.25))
        return RunReport(command="rank", scores=scores, method="pagerank",
                         alpha=0.85,
                         diagnostics={"converged": True, "note": "x"},
                         metadata={"input_sha256": "00", "tol": 1e-10})

    def test_score_sorting_with_label_tiebreak(self):
        entries = sort_scores(("c", "a", "b"), (0.25, 0.25, 0.5))
        assert [e.label for e in entries] == ["b", "a", "c"]

    def test_json_validates_against_schema(self):
        import jsonschema

        obj = json.loads(self._report().to_json())
        jsonschema.validate(obj, load_schema())

    def test_json_with_matrices_validates(self):
        import jsonschema

        rep = RunReport(
            command="asymptotics",
            matrices={"covariance": MatrixBlock(("p1", "p2"),
                                                np.eye(2))},
            diagnostics={"n": 2}, metadata={})
        jsonschema.validate(json.loads(rep.to_json()), load_schema())

    def test_formats_are_deterministic(self):
        rep = self._report()
        for fmt in ("table", "csv", "json"):
            assert rep.render(fmt) == rep.render(fmt)

    def test_csv_and_table_round_to_twelve_digits(self):
        scores = sort_scores(("a",), (1 / 3,))
        rep = RunReport(command="rank", scores=scores)
        assert "0.333333333333" in rep.to_csv()
        assert "0.333333333333" in rep.to_table()

    def test_json_keeps_full_precision(self):
        scores = sort_scores(("a",), (1 / 3,))
        rep = RunReport(command="rank", scores=scores)
        assert json.loads(rep.to_json())["scores"][0]["score"] == 1 / 3

    def test_stderr_column_included_when_present(self):
        scores = (ScoreEntry("a", 1.0, 0.5), ScoreEntry("b", 0.0, 0.25))
        rep = RunReport(command="rank", scores=scores)
        assert "label,score,stderr" in rep.to_csv()
        assert "(se 0.5)" in rep.to_table()


def _outcome(parse, path):
    """What parsing path gives: the labels and count bytes (for an articles
    file, () and the values' bytes), or the error's type and message."""
    try:
        C = parse(path)
    except Exception as exc:  # any exception is part of the outcome
        return type(exc), str(exc)
    if isinstance(C, CountMatrix):
        return C.labels, C.counts.tobytes()
    return (), C.tobytes()


# cell and line tokens that float(), the csv reader or np.loadtxt treat
# differently from a plain number
ODD_CELLS = ("1_0", "\u0661", "\uff11\uff12", "nan", "NaN", "-0.0", "0x10",
             "", " ", "\t", '"1"', '1"', "inf", "-Infinity", "-1", "1e400",
             "1e-400", "+4", ".5", "5.", "1e5", "1e", "1d5", " 2 ", "\t3\t",
             "\xa02\u3000", "1\x1c", "\x1c1", "\x85", "1\x00", "\x00",
             "\ufeff1", "1,2", "1 2", "x")
ODD_LINES = ("", " ", " , ", ",", "\t,\t", "\x00", "\ufeff")


def _mutated_matrix(rng) -> bytes:
    """A small matrix file with up to three random mutations."""
    limit = csv.field_size_limit()
    n = int(rng.integers(1, 6))
    labels = [f"t{i}" for i in range(n)]
    rows = [[""] + labels]
    for i in range(n):
        values = rng.uniform(0, 50, n) ** rng.choice([1, 3])
        cells = [repr(float(v)) if rng.random() < 0.7 else str(int(v))
                 for v in values]
        rows.append([labels[i]] + cells)
    if rng.random() < 0.1:
        # the same new label in the header and in its row
        i = int(rng.integers(0, n))
        rows[0][i + 1] = rows[i + 1][0] = str(rng.choice(
            [f'"t{i}"', f" t{i} ", f"t{i}\x00", "x" * (limit + 1)]))
    for _ in range(int(rng.integers(0, 4))):
        kind = int(rng.integers(0, 13))
        r = int(rng.integers(0, len(rows)))
        c = int(rng.integers(0, len(rows[r])))
        if kind <= 3:
            rows[r][c] = str(rng.choice(ODD_CELLS))
        elif kind == 4:
            lines = ODD_LINES + (" " * (limit + 1),)
            rows.insert(r + int(rng.integers(0, 2)),
                        [str(rng.choice(lines))])
        elif kind == 5 and len(rows) > 1:
            del rows[r]
        elif kind == 6:
            rows.insert(r, list(rows[r]))
        elif kind == 7:
            rows[r].append(str(rng.choice(["", "1", " "])))
        elif kind == 8 and len(rows[r]) > 1:
            del rows[r][c]
        elif kind == 9:
            rows[r][c] = f" {rows[r][c]} "
        elif kind == 10:
            rows[r][c] = str(rng.choice(["0", "1"])) * (limit + 1)
        elif kind == 11:
            rows[r][0] = str(rng.choice(
                ["t0", "T1", "t9", '"t1"', "\ufefft0"]))
        else:
            rows.append(list(rows[-1]))
    end = str(rng.choice(["\n", "\r\n", "\r"]))
    text = end.join(",".join(row) for row in rows)
    if rng.random() < 0.8:
        text += end
    raw = text.encode()
    kind = rng.random()
    if kind < 0.05:
        raw = codecs.BOM_UTF8 + raw
    elif kind < 0.1:
        at = int(rng.integers(0, len(raw) + 1))
        raw = raw[:at] + rng.choice([b"\xff", b"\xef\xbb\xbf"]) + raw[at:]
    return raw


ARTICLE_LABELS = ("a", "b", "c")


def _mixed_file(rng) -> tuple[str, bytes]:
    """A small edge, matrix or articles file (the layout is returned) with
    up to four cells quoted, split over lines, padded or over-long."""
    limit = csv.field_size_limit()
    layout = str(rng.choice(["edges", "matrix", "articles"]))
    if layout == "edges":
        rows = [["winner", "loser", "count"]] + [
            [str(rng.choice(["a", "b", "c"])) for _ in range(2)]
            + [str(int(rng.integers(0, 9)))]
            for _ in range(int(rng.integers(1, 5)))]
    elif layout == "matrix":
        labels = list(ARTICLE_LABELS[:int(rng.integers(1, 4))])
        rows = [[""] + labels] + [
            [lab] + [str(int(v)) for v in rng.integers(0, 9, len(labels))]
            for lab in labels]
    else:
        rows = [[lab, str(int(rng.integers(1, 9)))] for lab in ARTICLE_LABELS]
        if rng.random() < 0.5:
            rows.insert(0, ["label", "articles"])
    for _ in range(int(rng.integers(0, 5))):
        r = int(rng.integers(0, len(rows)))
        c = int(rng.integers(0, len(rows[r])))
        cell = rows[r][c]
        k = int(rng.integers(0, len(cell) + 1))
        if rng.random() < 0.04:
            cell = "1" * (limit + 1)
        rows[r][c] = str(rng.choice([
            f'"{cell}"',
            f'"{cell[:k]}\n{cell[k:]}"',  # a quoted cell over two lines
            f'"{cell[:k]}\r\n{cell[k:]}"',
            f'"{cell},1"',
            f'"{cell}""x"',
            f'{cell[:k]}"{cell[k:]}',  # a quote inside an unquoted cell
            f'"{cell}',  # an open quote takes in the rest of the file
            f' "{cell}" ',
            f'"{cell}" x',
            f" {cell}\t",
            '""',
            cell,
            str(rng.choice(ODD_CELLS)),
        ]))
        if rng.random() < 0.1:
            rows.insert(r, [str(rng.choice(ODD_LINES + ('""', ',""')))])
    end = str(rng.choice(["\n", "\r\n", "\r"]))
    raw = (end.join(",".join(row) for row in rows) + end).encode()
    if rng.random() < 0.05:
        # a line longer than the field limit, each of its cells within it
        raw += (",".join(["a", "0" * (limit // 2)] * 2) + end).encode()
    if rng.random() < 0.05:
        at = int(rng.integers(0, len(raw) + 1))
        raw = raw[:at] + b"\xff" + raw[at:]
    return layout, raw


def _digest(outcomes) -> str:
    """sha256 over the reprs of outcomes, with each error's type by name
    and each array's bytes little-endian."""
    h = hashlib.sha256()
    for value, detail in outcomes:
        if isinstance(value, type):
            value = value.__name__
        elif isinstance(detail, bytes):
            detail = np.frombuffer(detail).astype("<f8").tobytes()
        h.update(repr((value, detail)).encode() + b"\n")
    return h.hexdigest()


# digests of the outcomes parse_input and parse_articles gave at commit
# aadb861, the last with a second matrix reader, where every outcome came
# from the csv walk (_parse_csv)
MUTATED_DIGEST = ("26061d9f37b20dce704384bca56b4873"
                  "c5f9d8c35f617efc7473c75561448f86")
MIXED_DIGEST = ("f2428b66d69d2749a8aa3fd35df19871"
                "7beab627479457917342d3d87c8ccbc3")


def _outcomes(monkeypatch, path, files) -> tuple[list, int]:
    """The outcome of each (parse, raw bytes) of files, written to path in
    turn, and how many of the files had a record read by csv.reader."""
    calls = []
    reader = csv.reader

    def counted(*args, **kwargs):
        calls.append(None)
        return reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counted)
    outcomes, read_by_csv = [], 0
    for parse, raw in files:
        path.write_bytes(raw)
        before = len(calls)
        outcomes.append(_outcome(parse, path))
        read_by_csv += len(calls) > before
    return outcomes, read_by_csv


class TestBlockPath:
    """Matrix rows go to np.loadtxt in blocks, and only a block it declines
    is walked row by row; csv.reader reads only records that hold a quote
    or an over-long line. Outcomes must be those of the csv walk, which
    read every file before the two matrix readers became one."""

    SHORT_FILES = {
        b"": (ParseError, "input file is empty"),
        b"\n": (ParseError, "input file is empty"),
        b" , \n\n": (ParseError, "input file is empty"),
        b",\n": (ParseError, "input file is empty"),
        b",a\n": (ParseError,
                  "line 1: expected 1 data rows for 1 labels, got 0"),
        codecs.BOM_UTF8: (ParseError, "input file is empty"),
        b",a\na,1": (("a",), np.ones(1).tobytes()),
        b",a\r\na,1\r\n": (("a",), np.ones(1).tobytes()),
        b"\n,a\na,1\n": (("a",), np.ones(1).tobytes()),
        b",a\na,1\n,\n": (("a",), np.ones(1).tobytes()),
    }

    @pytest.mark.parametrize("raw", list(SHORT_FILES))
    # fmt named the layout parse_input was told to use; the header decides
    # it now, and the parameter keeps each case's id
    @pytest.mark.parametrize("fmt", ["auto", "matrix"])
    def test_agrees_with_the_walk_on_edge_files(self, tmp_path, raw, fmt):
        p = tmp_path / "m.csv"
        p.write_bytes(raw)
        assert _outcome(parse_input, p) == self.SHORT_FILES[raw]

    def test_agrees_with_the_walk_on_mutated_files(self, tmp_path,
                                                   monkeypatch):
        rng = np.random.default_rng(20261019)
        files = 2000

        def mutated():
            for _ in range(files):
                raw = _mutated_matrix(rng)
                rng.choice(["auto", "matrix"])  # once a layout; keeps files
                yield parse_input, raw

        outcomes, read_by_csv = _outcomes(monkeypatch, tmp_path / "m.csv",
                                          mutated())
        # a failed check in the walk is no outcome of a file's
        assert AssertionError not in [kind for kind, _ in outcomes]
        assert _digest(outcomes) == MUTATED_DIGEST
        # both ways of reading a record are exercised
        assert files // 10 < read_by_csv < files * 9 // 10

    def test_mixed_files_match_the_walk(self, tmp_path, monkeypatch):
        # edge, matrix and articles files with quoted, multi-line and
        # over-long cells, CR and CRLF line ends and a stray byte
        rng = np.random.default_rng(20261020)
        files = 1000

        def mixed():
            for _ in range(files):
                layout, raw = _mixed_file(rng)
                if layout == "articles":
                    yield lambda p: parse_articles(p, ARTICLE_LABELS), raw
                else:
                    yield parse_input, raw

        outcomes, read_by_csv = _outcomes(monkeypatch, tmp_path / "f.csv",
                                          mixed())
        assert _digest(outcomes) == MIXED_DIGEST
        assert files // 10 < read_by_csv < files * 9 // 10

    @pytest.mark.parametrize("cell", ["1", "1_0"])
    @pytest.mark.parametrize("label", ["p1", '"p1"'])
    def test_opens_the_file_once(self, tmp_path, monkeypatch, label, cell):
        n = 300
        text = matrix_to_csv(CountMatrix(np.ones((n, n)))).replace(
            ",p1,", f",{label},", 1)
        p = tmp_path / "m.csv"
        p.write_text(text[:-len("1.0\n")] + cell + "\n")
        opened = []
        real_open = builtins.open

        def counted(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counted)
        outcome = _outcome(parse_input, p)
        assert (outcome[0] is ParseError) == (cell == "1_0")
        assert opened == [p]

    @pytest.mark.parametrize("layout", [
        lambda text: text,
        lambda text: text.replace("\n", "\r\n"),
        # blank rows, which are skipped, between rows and at the end
        lambda text: text.replace("\np2,", "\n\n , \np2,") + ",,\n\n",
    ])
    def test_plain_file_takes_the_block_path(self, tmp_path, monkeypatch,
                                             layout):
        rng = np.random.default_rng(3)
        C = CountMatrix(rng.uniform(0, 9, size=(50, 50)) ** 3)
        p = tmp_path / "m.csv"
        p.write_bytes(layout(matrix_to_csv(C)).encode())

        def reader(*args):
            raise AssertionError("csv.reader was called")

        monkeypatch.setattr(csv, "reader", reader)
        back = parse_input(p)
        assert back.labels == C.labels
        assert back.counts.tobytes() == C.counts.tobytes()

    def test_blocks_cover_every_row(self, tmp_path, monkeypatch):
        # blocks of a few rows each, ending on and off a block boundary
        monkeypatch.setattr(pairrank.io, "_BLOCK_CHARS", 30)
        for n in (6, 7):
            C = CountMatrix(np.arange(n * n, dtype=float).reshape(n, n))
            p = tmp_path / "m.csv"
            p.write_text(matrix_to_csv(C))
            assert parse_input(p).counts.tobytes() == C.counts.tobytes()

    @pytest.mark.parametrize("text", [
        ",a\na\n", ",a\na,\n", ",a\na,\n\n", ",a,b\na,,\nb,1,0\n",
        ",a,b\na\nb,1,0\n", ",a,b\na,0,1\nb\n", ",a\n\na,\n",
    ])
    def test_declined_file_shows_no_warning(self, tmp_path, capsys, text):
        from pairrank.cli import main

        p = tmp_path / "m.csv"
        p.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError):
                parse_input(p)
        assert caught == []
        assert main(["rank", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line ") and err.count("\n") == 1

    def test_peak_memory_is_the_matrix_and_one_block(self, tmp_path):
        # reading the whole text first peaks at about 5.6 x 8 n^2 bytes
        n = 600
        rng = np.random.default_rng(7)
        C = CountMatrix(rng.uniform(0, 10, size=(n, n)))
        p = tmp_path / "m.csv"
        p.write_text(matrix_to_csv(C))
        tracemalloc.start()
        try:
            back = parse_input(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.counts.tobytes() == C.counts.tobytes()
        assert peak < 3 * 8 * n * n

"""CSV input parsing and matrix serialization.

Two input layouts are accepted, and the header row decides which:

* edges: header ``winner,loser,count``, one row per observed (or aggregated)
  result; repeated pairs accumulate. Labels appear in first-appearance order.
* matrix: a square table with an empty corner cell, column labels in the
  header row, and each data row starting with its label (row order must
  match the header). Entry (i, j) counts wins of row label i over column
  label j.

Each file is read once, as a stream of CSV records (_read_rows). A line
with no quote character and no more characters than the csv field limit is
split at its commas, as the csv module splits it; only the other records
go through csv.reader.
A matrix file's data rows are converted in blocks by one np.loadtxt call
each; its C reader rounds through the same routine as float(), so every
entry has the same bits. Only a block np.loadtxt declines, or one that ends
at a row it cannot take (a label out of order, or cells csv.reader split),
is walked row by row, and that walk reports the first bad row. One number
grammar holds everywhere: the cell walk rejects the spellings float()
alone reads (non-ASCII digits, '_' between digits). Parsing holds the
n x n array plus one block of text, never the whole file.

matrix_to_csv writes floats with repr(), the shortest string that parses
back to the same binary64 value, so a matrix -> csv -> matrix round trip is
bit-exact.
"""

from __future__ import annotations

import csv
import io as _io
import warnings
from collections.abc import Iterator
from itertools import chain

from .counts import CountMatrix
from .errors import DomainError, ParseError, RankingError

import numpy as np

EDGE_HEADER = ("winner", "loser", "count")

Row = tuple[int, str, "str | list[str]"]  # a record, see _read_rows


def parse_input(path) -> CountMatrix:
    """Parse a CSV file into a count matrix, in the layout its header row
    names.

    The file is read once, as a stream: memory is the n x n array plus one
    block of about _BLOCK_CHARS characters of matrix rows. Cells are
    stripped of surrounding whitespace and blank rows are skipped; line
    numbers in errors count CSV records, blank ones included. A decoding
    or CSV error anywhere in the file is reported first, then a matrix
    file's wrong number of data rows, then the first bad row."""
    with open(path, encoding="utf-8-sig") as f:
        rows = _read_rows(f)
        try:
            return _parse_rows(rows)
        except RankingError:
            # a decoding or CSV error further on still comes first, as when
            # the whole file was read before parsing
            for _ in rows:
                pass
            raise


def _read_rows(f) -> Iterator[Row]:
    """(line number, stripped first cell, rest) of each CSV record of an
    open text file that has a non-blank cell. A line with no quote and no
    more characters than csv.field_size_limit() is split at its first
    comma, as the csv module would split it; rest is the text after that
    comma ([] where it has none). Any other record is read by a csv.reader
    started at its line, which takes in the further lines of a quoted
    cell; rest is the list of its other stripped cells. Text that is not
    UTF-8, and a record csv.reader rejects, raise ParseError."""
    limit = csv.field_size_limit()
    line_no = 0
    try:
        # one line starts each record, so this counts records
        for line_no, line in enumerate(f, start=1):
            if '"' not in line and len(line) <= limit:
                first, comma, rest = line.partition(",")
                first = first.strip()
                if first or rest.replace(",", "").strip():
                    yield line_no, first, rest if comma else []
            else:
                first, *rest = map(str.strip,
                                   next(csv.reader(chain((line,), f))))
                if first or any(rest):
                    yield line_no, first, rest
    except UnicodeDecodeError as exc:
        # the text layer decodes in blocks, so the line is not known
        raise ParseError(f"file is not valid UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise ParseError(str(exc), line=line_no) from None


def _cells(first: str, rest: str | list[str]) -> list[str]:
    """The stripped cells of a record from _read_rows."""
    if isinstance(rest, str):
        rest = [c.strip() for c in rest.split(",")]
    return [first, *rest]


def _parse_rows(rows: Iterator[Row]) -> CountMatrix:
    first = next(rows, None)
    if first is None:
        raise ParseError("input file is empty")
    line_no, corner, rest = first
    header = _cells(corner, rest)
    if tuple(c.lower() for c in header) == EDGE_HEADER:
        return _parse_edges(rows)
    if corner == "":
        return _parse_matrix(line_no, header[1:], rows)
    raise ParseError(
        "cannot determine input format: expected an edges header "
        "'winner,loser,count' or a matrix header with an empty corner cell",
        line=line_no)


def parse_articles(path, labels: tuple[str, ...]) -> np.ndarray:
    """Per-player sizes from a CSV file of label,articles rows (an optional
    header row whose second cell is 'articles'), in the order of labels.
    Every label must appear exactly once, and no other."""
    with open(path, encoding="utf-8-sig") as f:
        rows = [(line_no, _cells(first, rest))
                for line_no, first, rest in _read_rows(f)]
    values: dict[str, float] = {}
    for line_no, cells in rows:
        if len(cells) != 2:
            raise ParseError(f"expected 2 fields, got {len(cells)}",
                             line=line_no)
        label, raw = cells
        if line_no == rows[0][0] and raw.lower() == "articles":
            continue
        try:
            value = _number(raw)
        except ValueError:
            raise ParseError(f"articles value {raw!r} is not a number",
                             line=line_no) from None
        if label in values:
            raise ParseError(f"duplicate label {label!r}", line=line_no)
        values[label] = value
    missing = [lab for lab in labels if lab not in values]
    if missing:
        raise DomainError(f"articles file is missing labels: "
                          f"{', '.join(missing)}")
    unknown = [lab for lab in values if lab not in labels]
    if unknown:
        raise DomainError(f"articles file has unknown labels: "
                          f"{', '.join(unknown)}")
    return np.array([values[lab] for lab in labels])


def _parse_edges(rows: Iterator[Row]) -> CountMatrix:
    index: dict[str, int] = {}
    entries: dict[tuple[int, int], float] = {}
    for line_no, first, rest in rows:
        cells = _cells(first, rest)
        if len(cells) != 3:
            raise ParseError(
                f"expected 3 fields, got {len(cells)}", line=line_no)
        winner, loser, raw = cells
        count = _cell("count", raw, line_no)
        if count < 0:
            raise DomainError(
                f"line {line_no}: negative count {count:g} for "
                f"{winner!r} over {loser!r}")
        if "" in (winner, loser):
            raise ParseError("empty label", line=line_no)
        i = index.setdefault(winner, len(index))
        j = index.setdefault(loser, len(index))
        entries[(i, j)] = entries.get((i, j), 0.0) + count
    if not index:
        raise ParseError("no edge rows after the header")
    labels = tuple(index)
    C = np.zeros((len(labels), len(labels)))
    for (i, j), count in entries.items():
        C[i, j] = count
    return CountMatrix(C, labels)


# characters of data-row text converted per np.loadtxt call
_BLOCK_CHARS = 1 << 20


def _parse_matrix(line_no: int, labels: list[str],
                  rows: Iterator[Row]) -> CountMatrix:
    # a header of the corner cell alone is a blank row, so n >= 1
    n = len(labels)
    if "" in labels:
        raise ParseError("empty label", line=line_no)
    if len(set(labels)) != n:
        raise ParseError("duplicate labels in matrix header", line=line_no)
    C = np.empty((n, n))
    # the first bad row is held until the row count is known, which is
    # reported first
    held: RankingError | None = None
    count = 0
    block: list[Row] = []  # data rows not yet in C
    size = 0
    for row in rows:
        if held is None and count < n:
            block.append(row)
            _, label, rest = row
            size += len(rest)
            plain = isinstance(rest, str) and label == labels[count]
            if not plain or size >= _BLOCK_CHARS:
                try:
                    _fill_block(C, count + 1, block, labels, plain)
                except RankingError as exc:
                    held = exc
                block, size = [], 0
        count += 1
    if count != n:
        raise ParseError(
            f"expected {n} data rows for {n} labels, got {count}",
            line=line_no)
    if held is not None:
        raise held
    _fill_block(C, n, block, labels, plain=True)
    return CountMatrix(C, tuple(labels))


def _fill_block(C: np.ndarray, stop: int, block: list[Row],
                labels: list[str], plain: bool) -> None:
    """Write block, the data rows of C that end before row stop, into C,
    or raise the error of its first bad row. A plain block (every rest a
    string, every label in header order) goes to np.loadtxt at once; any
    other block, and a plain one _fill_rows declines, is walked row by
    row, and a row _fill_rows declines cell by cell."""
    if plain and _fill_rows(C, stop, [rest for _, _, rest in block]):
        return
    n = len(labels)
    for r, (line, label, rest) in enumerate(block, start=stop - len(block)):
        cells = _cells(label, rest)
        if len(cells) != n + 1:
            raise ParseError(
                f"expected {n + 1} fields, got {len(cells)}", line=line)
        if label != labels[r]:
            raise ParseError(
                f"row label {label!r} does not match header label "
                f"{labels[r]!r} (row order must follow the header)",
                line=line)
        if _fill_rows(C, r + 1, [",".join(cells[1:])]):
            continue
        for c, raw in enumerate(cells[1:]):
            value = _cell("entry", raw, line)
            if value < 0:
                raise DomainError(
                    f"line {line}: negative count {value:g} at "
                    f"({labels[r]!r}, {labels[c]!r})")
        raise AssertionError("a row that failed the checks has no bad cell")


def _fill_rows(C: np.ndarray, stop: int, block: list[str]) -> bool:
    """Write the numbers of block, the text after each row label, into the
    rows of C that end before row stop. False, with nothing raised or
    shown, where np.loadtxt rejects or warns about the text, or a value is
    negative, NaN or infinite."""
    if not block:
        return True
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = np.loadtxt(block, delimiter=",", comments=None,
                                quotechar=None, dtype=float, ndmin=2)
        except ValueError:
            return False
    if (caught or values.shape != (len(block), C.shape[1])
            or not (values.min() >= 0 and values.max() < np.inf)):
        return False  # NaN fails both comparisons
    C[stop - len(block):stop] = values
    return True


def _number(raw: str) -> float:
    """float(raw) for the spellings np.loadtxt also reads; ValueError for
    the rest (non-ASCII digits and spaces, '_' between digits), so every
    path accepts one number grammar."""
    if not raw.isascii() or "_" in raw:
        raise ValueError(f"not a plain number: {raw!r}")
    return float(raw)


def _cell(what: str, raw: str, line: int) -> float:
    """A count or entry cell as a finite float."""
    try:
        value = _number(raw)
    except ValueError:
        raise ParseError(f"{what} {raw!r} is not a number",
                         line=line) from None
    if not np.isfinite(value):
        raise ParseError(f"{what} {raw!r} is not finite", line=line)
    return value


def matrix_to_csv(C: CountMatrix) -> str:
    """Serialize to the matrix layout with bit-exact float round-tripping.

    parse_input reads the output back to the same labels and bits. A label
    it would not read back (empty, with surrounding whitespace, holding a
    carriage return, or longer than csv.field_size_limit()) raises
    DomainError."""
    limit = csv.field_size_limit()
    for label in C.labels:
        if len(label) > limit:
            raise DomainError(
                f"a label of {len(label)} characters would not read back "
                f"from CSV: a label must be at most the csv module's field "
                f"limit of {limit} characters")
        if not label or label != label.strip() or "\r" in label:
            raise DomainError(
                f"label {label!r} would not read back from CSV: a label "
                f"must be non-empty, without surrounding whitespace or "
                f"carriage returns")
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(C.labels))
    for i, label in enumerate(C.labels):
        writer.writerow([label] + [repr(float(v)) for v in C.counts[i]])
    return buf.getvalue()

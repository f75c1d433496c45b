"""CSV input parsing and matrix serialization.

Two input layouts are accepted, and the header row decides which:

* edges: header ``winner,loser,count``, one row per observed (or aggregated)
  result; repeated pairs accumulate. Labels appear in first-appearance order.
* matrix: a square table with an empty corner cell, column labels in the
  header row, and each data row starting with its label (row order must
  match the header). Entry (i, j) counts wins of row label i over column
  label j.

parse_input reads a plain matrix file in blocks of rows, each block's
numbers converted by one np.loadtxt call; its C reader rounds through the
same routine as float(), so every entry has the same bits. It declines
every other file (see parse_input for the rules), and the csv walk parses
that file from the start, a matrix row's numbers through the same reader.
Only a row that reader declines is walked cell by cell, and that walk is
the only source of parse errors. One number grammar holds everywhere: the
cell walk rejects the spellings float() alone reads (non-ASCII digits, '_'
between digits). Either path holds the n x n array plus one block of text
(the walk: one row), never the whole file.

matrix_to_csv writes floats with repr(), the shortest string that parses
back to the same binary64 value, so a matrix -> csv -> matrix round trip is
bit-exact.
"""

from __future__ import annotations

import csv
import io as _io
import warnings
from collections.abc import Iterator

from .counts import CountMatrix
from .errors import DomainError, ParseError, RankingError

import numpy as np

EDGE_HEADER = ("winner", "loser", "count")


def parse_input(path) -> CountMatrix:
    """Parse a CSV file into a count matrix, in the layout its header row
    names.

    A plain matrix file takes the block path: the header on the first
    line, no quote character, no line longer than csv.field_size_limit(),
    each row label (stripped) equal to the next header label, n data rows
    (blank rows are skipped), and every entry a number np.loadtxt reads
    that is nonnegative and finite. Data rows go to np.loadtxt in blocks of
    about _BLOCK_CHARS characters. The block path raises, warns and prints
    nothing: on any other file it declines, and the csv walk parses the
    file from the start, so errors, messages and their order are the
    walk's.

    The file is read as a stream: memory is the n x n array plus one block
    of text (the walk: one row). Cells are stripped of surrounding
    whitespace and blank rows are skipped; line numbers in errors count
    CSV records, blank ones included. A matrix file with the wrong number
    of data rows reports that ahead of any error inside a row."""
    C = _parse_plain_matrix(path)
    return C if C is not None else _parse_csv(path)


def _parse_csv(path) -> CountMatrix:
    """The csv walk: every layout, and the source of every parse error."""
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


# characters of data-row text converted per np.loadtxt call
_BLOCK_CHARS = 1 << 20


def _parse_plain_matrix(path) -> CountMatrix | None:
    """A plain matrix file read in blocks of rows (see parse_input), or
    None where the file is not plain and the csv walk must decide."""
    limit = csv.field_size_limit()
    try:
        with open(path, encoding="utf-8-sig") as f:
            header = f.readline()
            cells = [c.strip() for c in header.split(",")]
            labels = cells[1:]
            n = len(labels)
            # a quote further on sits in a row label, which then matches no
            # header label, or in a cell np.loadtxt rejects
            if ('"' in header or len(header) > limit or cells[0] or n == 0
                    or "" in labels or len(set(labels)) != n):
                return None
            C = np.empty((n, n))
            r = 0  # data rows read
            block: list[str] = []  # their text after the label, not in C
            size = 0
            for line in f:
                if len(line) > limit:
                    return None
                label, _, rest = line.partition(",")
                if r == n or label.strip() != labels[r]:
                    if line.replace(",", "").strip():
                        return None
                    continue  # a blank row, which the walk skips too
                block.append(rest)
                size += len(rest)
                r += 1
                if size >= _BLOCK_CHARS:
                    if not _fill_rows(C, r, block):
                        return None
                    block, size = [], 0
            if r != n or not _fill_rows(C, r, block):
                return None
    except (OSError, UnicodeDecodeError, MemoryError):
        return None
    return CountMatrix(C, tuple(labels))


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


def _parse_rows(rows: Iterator[tuple[int, list[str]]]) -> CountMatrix:
    first = next(rows, None)
    if first is None:
        raise ParseError("input file is empty")
    line_no, header = first
    if tuple(c.lower() for c in header) == EDGE_HEADER:
        return _parse_edges(rows)
    if header[0] == "":
        return _parse_matrix(first, rows)
    raise ParseError(
        "cannot determine input format: expected an edges header "
        "'winner,loser,count' or a matrix header with an empty corner cell",
        line=line_no)


def parse_articles(path, labels: tuple[str, ...]) -> np.ndarray:
    """Per-player sizes from a CSV file of label,articles rows (an optional
    header row whose second cell is 'articles'), in the order of labels.
    Every label must appear exactly once, and no other."""
    with open(path, encoding="utf-8-sig") as f:
        rows = list(_read_rows(f))
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


def _read_rows(f) -> Iterator[tuple[int, list[str]]]:
    """(line number, stripped cells) of each CSV record of an open text
    file that has a non-blank cell. Text that is not UTF-8, and a record
    the csv module rejects (a cell over csv.field_size_limit()), raise
    ParseError."""
    line_no = 0
    try:
        for line_no, row in enumerate(csv.reader(f), start=1):
            cells = list(map(str.strip, row))
            if any(cells):
                yield line_no, cells
    except UnicodeDecodeError as exc:
        # the text layer decodes in blocks, so the line is not known
        raise ParseError(f"file is not valid UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise ParseError(str(exc), line=line_no + 1) from None


def _parse_edges(rows: Iterator[tuple[int, list[str]]]) -> CountMatrix:
    index: dict[str, int] = {}
    entries: dict[tuple[int, int], float] = {}
    for line_no, cells in rows:
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


def _parse_matrix(first: tuple[int, list[str]],
                  rows: Iterator[tuple[int, list[str]]]) -> CountMatrix:
    line_no, header = first
    # a header of the corner cell alone is a blank row, so n >= 1
    labels = header[1:]
    n = len(labels)
    if "" in labels:
        raise ParseError("empty label", line=line_no)
    if len(set(labels)) != n:
        raise ParseError("duplicate labels in matrix header", line=line_no)
    C = np.zeros((n, n))
    # the first bad row is held until the row count is known, which is
    # reported first
    held: RankingError | None = None
    count = 0
    for data_line, cells in rows:
        if held is None and count < n:
            try:
                _matrix_row(C, count, cells, labels, data_line)
            except RankingError as exc:
                held = exc
        count += 1
    if count != n:
        raise ParseError(
            f"expected {n} data rows for {n} labels, got {count}",
            line=line_no)
    if held is not None:
        raise held
    return CountMatrix(C, tuple(labels))


def _matrix_row(C: np.ndarray, r: int, cells: list[str],
                labels: list[str], data_line: int) -> None:
    """Write row r of a matrix file into C. A row _fill_rows declines has a
    bad cell; a walk over its cells reports the first one."""
    n = len(labels)
    if len(cells) != n + 1:
        raise ParseError(
            f"expected {n + 1} fields, got {len(cells)}", line=data_line)
    if cells[0] != labels[r]:
        raise ParseError(
            f"row label {cells[0]!r} does not match header label "
            f"{labels[r]!r} (row order must follow the header)",
            line=data_line)
    if _fill_rows(C, r + 1, [",".join(cells[1:])]):
        return
    for c, raw in enumerate(cells[1:]):
        value = _cell("entry", raw, data_line)
        if value < 0:
            raise DomainError(
                f"line {data_line}: negative count {value:g} at "
                f"({labels[r]!r}, {labels[c]!r})")
    raise AssertionError("a row that failed the checks has no bad cell")


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
    """Serialize to the matrix layout with bit-exact float round-tripping."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(C.labels))
    for i, label in enumerate(C.labels):
        writer.writerow([label] + [repr(float(v)) for v in C.counts[i]])
    return buf.getvalue()

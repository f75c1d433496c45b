"""CSV input parsing and matrix serialization.

Two input layouts are accepted, and the header row decides which:

* edges: header ``winner,loser,count``, one row per observed (or aggregated)
  result; repeated pairs accumulate. Labels appear in first-appearance order.
* matrix: a square table with an empty corner cell, column labels in the
  header row, and each data row starting with its label (row order must
  match the header). Entry (i, j) counts wins of row label i over column
  label j.

Text is read as a stream of CSV records (_read_rows). A line with no quote
character and no more characters than the csv field limit is split at its
commas, as the csv module splits it; only the other records go through
csv.reader.
A matrix file's data rows are converted in blocks by one np.loadtxt call
each; its C reader rounds through the same routine as float(), so every
entry has the same bits. Only a block np.loadtxt declines, or one that ends
at a row it cannot take (a label out of order, or cells csv.reader split),
is walked row by row, and that walk reports the first bad row. One number
grammar holds everywhere: the cell walk rejects the spellings float()
alone reads (non-ASCII digits, '_' between digits).

parse_input and parse_articles read their file once, as a stream: parsing
holds the n x n array plus one block of text, never the whole file.
load_input and load_articles, which the CLI calls, read the file once as
bytes, hash those bytes for the report and parse them with the same reader.
load_input keeps each successful parse in an on-disk cache (_CACHE_BYTES,
_CACHE_ENTRIES), so the same bytes read by the same parser are parsed once.

matrix_to_csv writes floats with repr(), the shortest string that parses
back to the same binary64 value, so a matrix -> csv -> matrix round trip is
bit-exact.
"""

from __future__ import annotations

import csv
import functools
import io as _io
import os
import sys
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
        return _parse_text(f)


def _parse_text(f) -> CountMatrix:
    """The count matrix of an open text stream, as parse_input reads it."""
    rows = _read_rows(f)
    try:
        return _parse_rows(rows)
    except RankingError:
        # a decoding or CSV error further on still comes first, as when
        # the whole file was read before parsing
        for _ in rows:
            pass
        raise


def load_input(path) -> tuple[CountMatrix, str]:
    """parse_input(path) and the sha256 of the file's bytes, from one read
    of the file as bytes, so a pipe is hashed as it is parsed.

    A parse of the same bytes by the same parser is taken from the cache
    where it holds one, and a successful parse is stored there. The cache
    never changes an outcome: a bad or unreadable entry is a miss, and
    when the cache cannot be read or written the call runs without it."""
    data, digest = _read(path)
    entry = _cache_entry(digest)
    if entry is not None:
        C = _load_entry(entry)
        if C is not None:
            return C, digest
    C = _parse_text(_text(data))
    if entry is not None:
        _store_entry(entry, C)
    return C, digest


def load_articles(path, labels: tuple[str, ...]) -> tuple[np.ndarray, str]:
    """parse_articles(path, labels) and the sha256 of the file's bytes, from
    one read of the file as bytes. Not cached: an articles file is small."""
    data, digest = _read(path)
    return _parse_articles(_text(data), labels), digest


def _read(path) -> tuple[bytes, str]:
    """The bytes of the file at path and their sha256."""
    import hashlib

    with open(path, "rb") as f:
        data = f.read()
    return data, hashlib.sha256(data).hexdigest()


def _text(data: bytes) -> _io.TextIOWrapper:
    """data as the text stream open(path, encoding="utf-8-sig") gives."""
    return _io.TextIOWrapper(_io.BytesIO(data), encoding="utf-8-sig")


# The parse cache. An entry is np.save of a parsed matrix's counts followed
# by its labels as UTF-8 JSON, named <sha256 of the input bytes>-<parser
# key>.npy, in $XDG_CACHE_HOME/pairrank or else ~/.cache/pairrank. After
# each store, the least recently used entries beyond _CACHE_BYTES in total
# (room for 32 tables of n=1000) or beyond _CACHE_ENTRIES in number are
# deleted, so a store stats a bounded number of entries; a hit refreshes
# its entry's mtime. Deleting the directory clears the cache.
_CACHE_BYTES = 256 << 20
_CACHE_ENTRIES = 1024


@functools.cache
def _parser_key() -> str | None:
    """sha256 of this module's and counts.py's source, numpy's version and
    Python's, so an entry is read only by the parser that stored it; None,
    for no cache, where a source file cannot be read."""
    import hashlib

    h = hashlib.sha256(f"{np.__version__}\n{sys.version}".encode())
    try:
        for source in (__file__,
                       os.path.join(os.path.dirname(__file__), "counts.py")):
            with open(source, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    except OSError:
        return None
    return h.hexdigest()


def _cache_entry(digest: str) -> str | None:
    """The cache entry path for input bytes of this sha256, or None where
    there is no cache: neither XDG_CACHE_HOME nor HOME an absolute path,
    or no parser key."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.environ.get("HOME", ""), ".cache")
    key = _parser_key() if os.path.isabs(base) else None
    if key is None:
        return None
    return os.path.join(base, "pairrank", f"{digest}-{key}.npy")


def _load_entry(entry: str) -> CountMatrix | None:
    """The count matrix entry holds, or None, for a miss, where it cannot be
    read or does not hold a valid one: a float64 square array, one string
    label per row, and what CountMatrix accepts."""
    import json

    try:
        with open(entry, "rb") as f:
            values = np.load(f, allow_pickle=False)
            labels = json.loads(f.read().decode("utf-8"))
        if not (values.dtype == np.float64 and type(labels) is list
                and values.shape == (len(labels), len(labels))
                and all(type(label) is str for label in labels)):
            return None
        C = CountMatrix(values, tuple(labels))
    except Exception:  # any failure to read or validate is a miss
        return None
    try:
        os.utime(entry)  # recently used
    except OSError:
        pass
    return C


def _store_entry(entry: str, C: CountMatrix) -> None:
    """Write C's entry through a temporary file moved into place, then evict
    (_evict). An OSError leaves the store undone."""
    import json
    import tempfile

    root = os.path.dirname(entry)
    try:
        os.makedirs(root, mode=0o700, exist_ok=True)
        fd, temp = tempfile.mkstemp(suffix=".tmp", dir=root)
        try:
            with os.fdopen(fd, "wb") as f:
                np.save(f, C.counts, allow_pickle=False)
                f.write(json.dumps(C.labels, ensure_ascii=False).encode())
            os.replace(temp, entry)
        except BaseException:
            os.unlink(temp)
            raise
        _evict(root)
    except OSError:
        pass


def _evict(root: str) -> None:
    """Delete the least recently used entries in root until the rest are
    at most _CACHE_ENTRIES and hold at most _CACHE_BYTES."""
    with os.scandir(root) as it:
        entries = sorted((e.stat().st_mtime_ns, e.name, e.stat().st_size)
                         for e in it if e.name.endswith(".npy"))
    total, left = sum(size for _, _, size in entries), len(entries)
    for _, name, size in entries:
        if total <= _CACHE_BYTES and left <= _CACHE_ENTRIES:
            break
        os.unlink(os.path.join(root, name))
        total, left = total - size, left - 1


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
        return _parse_articles(f, labels)


def _parse_articles(f, labels: tuple[str, ...]) -> np.ndarray:
    """The per-player sizes of an open text stream, as parse_articles reads
    them."""
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

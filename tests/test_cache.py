"""The CLI's parse cache (pairrank.io.load_input): a hit gives what a parse
of the same bytes gives, and no entry, good or bad, changes an outcome."""

import hashlib
import io
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pairrank.io
from pairrank.cli import main
from pairrank.counts import CountMatrix
from pairrank.errors import ParseError
from pairrank.io import (load_articles, load_input, matrix_to_csv,
                         parse_articles, parse_input)

from test_io import (ARTICLE_LABELS, MATRIX, _mixed_file, _mutated_matrix,
                     _outcome)


def _cache() -> Path:
    return Path(os.environ["XDG_CACHE_HOME"]) / "pairrank"


def _entry(raw: bytes) -> Path:
    digest = hashlib.sha256(raw).hexdigest()
    return _cache() / f"{digest}-{pairrank.io._parser_key()}.npy"


def _entries() -> list[str]:
    return sorted(p.name for p in _cache().glob("*.npy"))


def test_load_input_agrees_with_parse_input(tmp_path, monkeypatch):
    # the files of TestBlockPath's two differential tests, each parsed by
    # load_input with an empty cache and again with every parse stored
    rng = np.random.default_rng(20261019)
    files = []
    for _ in range(2000):
        files.append(_mutated_matrix(rng))
        rng.choice(["auto", "matrix"])
    rng = np.random.default_rng(20261020)
    mixed = [_mixed_file(rng) for _ in range(1000)]
    files += [raw for _, raw in mixed]
    articles = [raw for layout, raw in mixed if layout == "articles"]
    p = tmp_path / "f.csv"

    parse_text = pairrank.io._parse_text

    def counted(f):
        parses.append(None)
        return parse_text(f)

    parses: list = []
    monkeypatch.setattr(pairrank.io, "_parse_text", counted)
    expected = []
    for raw in files:
        p.write_bytes(raw)
        expected.append(_outcome(parse_input, p))
    accepted = {raw for raw, (kind, _) in zip(files, expected)
                if not isinstance(kind, type)}
    assert 500 < len(accepted) < len(files) - 500
    for first in (True, False):
        for raw, want in zip(files, expected):
            p.write_bytes(raw)
            before = len(parses)
            try:
                C, digest = load_input(p)
            except Exception as exc:
                assert (type(exc), str(exc)) == want
            else:
                assert (C.labels, C.counts.tobytes()) == want
                assert digest == hashlib.sha256(raw).hexdigest()
            if not first:
                # a hit for every accepted file, a parse for every other
                assert (len(parses) > before) == (raw not in accepted)
        assert len(_entries()) == len(accepted)
    for raw in articles:
        p.write_bytes(raw)
        want = _outcome(lambda q: parse_articles(q, ARTICLE_LABELS), p)
        assert _outcome(lambda q: load_articles(q, ARTICLE_LABELS)[0],
                        p) == want


@pytest.fixture()
def table(tmp_path, capsys):
    """A matrix file, its stdout from `rank --format json` with no cache,
    and the argv that prints it."""
    p = tmp_path / "m.csv"
    p.write_text(MATRIX)
    argv = ["rank", str(p), "--method", "iw", "--format", "json"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairrank.io, "_cache_entry", lambda digest: None)
        assert main(argv) == 0
    out = capsys.readouterr().out
    assert not _cache().exists()
    return p, out, argv


def _run(argv, capsys) -> str:
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def _npy(values, labels) -> bytes:
    buf = io.BytesIO()
    np.save(buf, values)
    return buf.getvalue() + json.dumps(labels).encode()


BAD_ENTRIES = {
    "truncated": lambda good: good[:len(good) // 2],
    "float32": lambda good: _npy(np.ones((3, 3), np.float32), ["a", "b", "c"]),
    "non-square": lambda good: _npy(np.ones((3, 2)), ["a", "b", "c"]),
    "a-label-short": lambda good: _npy(np.ones((3, 3)), ["a", "b"]),
    "negative": lambda good: _npy(-np.ones((3, 3)), ["a", "b", "c"]),
    "bad-json": lambda good: good[:-3],
    "not-a-list": lambda good: _npy(np.ones((3, 3)), "abc"),
}


@pytest.mark.parametrize("kind", list(BAD_ENTRIES))
def test_a_bad_entry_is_a_miss_and_is_rewritten(table, capsys, kind):
    p, out, argv = table
    assert _run(argv, capsys) == out  # stores the entry
    entry = _entry(p.read_bytes())
    good = entry.read_bytes()
    entry.write_bytes(BAD_ENTRIES[kind](good))
    assert _run(argv, capsys) == out
    assert entry.read_bytes() == good


def test_a_hit_reads_the_entry_alone(table, capsys, monkeypatch):
    p, out, argv = table
    assert _run(argv, capsys) == out

    def no_parse(f):
        raise AssertionError("a hit parsed the file")

    monkeypatch.setattr(pairrank.io, "_parse_text", no_parse)
    assert _run(argv, capsys) == out


def test_a_cache_home_that_is_a_file_runs_uncached(table, tmp_path,
                                                   monkeypatch, capsys):
    p, out, argv = table
    home = tmp_path / "not-a-dir"
    home.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    assert _run(argv, capsys) == out
    assert _run(argv, capsys) == out
    assert home.read_text() == ""


def test_a_relative_cache_home_is_ignored(table, tmp_path, monkeypatch,
                                          capsys):
    p, out, argv = table
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", "rel")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert _run(argv, capsys) == out
    assert not (tmp_path / "rel").exists()
    assert len(list((tmp_path / "home/.cache/pairrank").glob("*.npy"))) == 1


def test_one_byte_changed_is_a_miss(table, capsys):
    p, out, argv = table
    assert _run(argv, capsys) == out
    p.write_text(MATRIX.replace("c,4,4,0", "c,4,5,0"))
    changed = _run(argv, capsys)
    assert changed != out
    assert len(_entries()) == 2
    p.write_text(MATRIX)
    assert _run(argv, capsys) == out


def test_a_bad_file_stores_nothing(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text(MATRIX.replace("c,4,4,0", "c,4,x,0"))
    errors = []
    for _ in range(2):
        assert main(["rank", str(p)]) == 2
        errors.append(capsys.readouterr())
    assert errors[0] == errors[1]
    assert errors[0].err == "error: line 4: entry 'x' is not a number\n"
    assert _entries() == []
    with pytest.raises(ParseError):
        load_input(p)


def test_an_entry_under_another_parser_key_is_not_read(table, capsys,
                                                       monkeypatch):
    p, out, argv = table
    raw = p.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    # a valid entry for these bytes, with other counts, as another parser
    # version might have stored them
    other = _cache() / f"{digest}-{'0' * 64}.npy"
    _cache().mkdir(parents=True)
    other.write_bytes(_npy(np.ones((3, 3)), ["a", "b", "c"]))
    assert _run(argv, capsys) == out
    assert _entries() == sorted([other.name, _entry(raw).name])
    monkeypatch.setattr(pairrank.io, "_parser_key", lambda: "0" * 64)
    assert _run(argv, capsys) != out  # the same name is read under its key


def test_eviction_is_least_recently_used_first(tmp_path, capsys,
                                               monkeypatch):
    paths = []
    for k in range(4):
        p = tmp_path / f"m{k}.csv"
        p.write_text(MATRIX.replace("a,0,1,1", f"a,0,1,{k + 1}"))
        paths.append(p)
    for p in paths[:3]:
        load_input(p)
    entries = [_entry(p.read_bytes()) for p in paths]
    size = entries[0].stat().st_size
    assert {e.stat().st_size for e in entries[:3]} == {size}
    for age, e in zip((30, 20, 10), entries[:3]):
        t = e.stat().st_mtime_ns - age * 10**9
        os.utime(e, ns=(t, t))
    load_input(paths[0])  # a hit: entry 0 is now the most recently used
    monkeypatch.setattr(pairrank.io, "_CACHE_BYTES", 3 * size)
    load_input(paths[3])
    assert _entries() == sorted(e.name for e in (entries[0], entries[2],
                                                 entries[3]))
    monkeypatch.setattr(pairrank.io, "_CACHE_BYTES", size - 1)
    load_input(paths[1])  # even the new entry is beyond the bound
    assert _entries() == []


def test_eviction_bounds_the_entry_count(tmp_path, capsys):
    # many small entries, far below the byte bound: one store deletes the
    # oldest until _CACHE_ENTRIES are left, the new entry among them
    bound = pairrank.io._CACHE_ENTRIES
    assert bound < pairrank.io._CACHE_BYTES // 1000
    _cache().mkdir(parents=True)
    old = []
    for k in range(bound + 5):
        entry = _cache() / f"{k:064x}-{'0' * 64}.npy"
        entry.write_bytes(_npy(np.ones((1, 1)), ["a"]))
        t = 10**18 + k * 10**9  # oldest first
        os.utime(entry, ns=(t, t))
        old.append(entry.name)
    path = tmp_path / "m.csv"
    path.write_text(MATRIX)
    load_input(path)
    assert _entries() == sorted(old[6:] + [_entry(path.read_bytes()).name])


def test_peak_memory_is_the_file_and_three_matrices(tmp_path):
    n = 1000
    C = CountMatrix(np.random.default_rng(8).uniform(0, 10, size=(n, n)))
    p = tmp_path / "m.csv"
    p.write_text(matrix_to_csv(C))
    bound = p.stat().st_size + 3 * 8 * n * n
    for expect_entry in (False, True):  # a miss, then a hit
        assert _entry(p.read_bytes()).exists() == expect_entry
        tracemalloc.start()
        try:
            back, _ = load_input(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.counts.tobytes() == C.counts.tobytes()
        assert peak < bound

import argparse
import builtins
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pairrank.io
from pairrank import asymptotics, bradley_terry, rankings
from pairrank.cli import build_parser, main
from pairrank.counts import CountMatrix, default_labels
from pairrank.io import matrix_to_csv
from pairrank.report import load_schema

from oracles import lognormal_table, pagerank_eig, quasi_symmetric_ring

MATRIX = """,a,b,c
a,0,1,1
b,2,0,2
c,4,4,0
"""

EDGES = """winner,loser,count
a,b,1
a,c,1
b,a,2
b,c,2
c,a,4
c,b,4
"""


@pytest.fixture()
def matrix_file(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(MATRIX)
    return str(p)


@pytest.fixture()
def edges_file(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text(EDGES)
    return str(p)


def _ring_edges(tmp_path, n: int) -> tuple[str, np.ndarray, np.ndarray]:
    """A quasi-symmetric ring written as an edge list, its counts and its
    d; labels are p1..pn in index order."""
    C, d = quasi_symmetric_ring(n)
    rows = ["winner,loser,count"]
    rows += [f"p{i + 1},p{j + 1},{float(C[i, j])!r}"
             for i, j in zip(*np.nonzero(C))]
    p = tmp_path / f"ring{n}.csv"
    p.write_text("\n".join(rows) + "\n")
    return str(p), C, d


def _noisy_qs(n: int) -> CountMatrix:
    """Quasi-symmetric counts times 1 + 1e-6 noise: they pass the triplet
    test and the decomposition at --tol 1e-4, then miss the equivalence
    check's own 1e-10."""
    rng = np.random.default_rng(3)
    d = rng.uniform(0.5, 2.0, n)
    S = rng.uniform(2.0, 8.0, (n, n))
    C = d[:, None] * (S + S.T) * (1 + 1e-6 * rng.standard_normal((n, n)))
    np.fill_diagonal(C, 0.0)
    return CountMatrix(C, default_labels(n))


def _bounded_run(*args: str) -> tuple[int, float]:
    """Run `python -m pairrank *args` with its address space capped at
    2 GiB. Returns the exit code and the child's peak RSS in MB.

    The probe is a fresh parent, so RUSAGE_CHILDREN sees this child alone;
    the cap makes an O(n^3) regression fail fast with MemoryError instead
    of taking the host's memory.
    """
    probe = (
        "import resource, subprocess, sys\n"
        "cap = 2 << 30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "code = subprocess.run([sys.executable, '-m', 'pairrank', "
        "*sys.argv[1:]], stdout=subprocess.DEVNULL).returncode\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(code, peak)\n")
    proc = subprocess.run([sys.executable, "-c", probe, *args],
                          capture_output=True, text=True, check=True)
    code, peak_kb = map(int, proc.stdout.split())
    return code, peak_kb / 1024


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_capped(argv: list) -> subprocess.CompletedProcess:
    """Run pairrank with a 2 GiB address-space cap held only in the child."""
    return subprocess.run([sys.executable, "-m", "pairrank", *argv],
                          capture_output=True, text=True,
                          preexec_fn=_cap_address_space)


def _by_index(scores: dict) -> np.ndarray:
    return np.array([scores[f"p{i + 1}"] for i in range(len(scores))])


def _scores(output: str) -> dict:
    obj = json.loads(output)
    return {e["label"]: e["score"] for e in obj["scores"]}


class TestRank:
    def test_iw_json(self, matrix_file, capsys):
        assert main(["rank", matrix_file, "--method", "iw",
                     "--format", "json"]) == 0
        scores = _scores(capsys.readouterr().out)
        assert scores["a"] == pytest.approx(1 / 7, abs=1e-8)
        assert scores["b"] == pytest.approx(2 / 7, abs=1e-8)
        assert scores["c"] == pytest.approx(4 / 7, abs=1e-8)

    def test_pagerank_undamped(self, matrix_file, capsys):
        assert main(["rank", matrix_file, "--method", "pagerank",
                     "--alpha", "1", "--format", "json"]) == 0
        scores = _scores(capsys.readouterr().out)
        assert scores["a"] == pytest.approx(3 / 14, abs=1e-8)
        assert scores["c"] == pytest.approx(3 / 7, abs=1e-8)

    def test_bt_scores_and_stderr(self, matrix_file, capsys):
        assert main(["rank", matrix_file, "--method", "bt",
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        expected = np.log([1, 2, 4])
        expected -= expected.mean()
        by_label = {e["label"]: e for e in obj["scores"]}
        assert by_label["c"]["score"] == pytest.approx(expected[2], abs=1e-6)
        assert "stderr" in by_label["c"]
        assert obj["diagnostics"]["deviance"] == pytest.approx(0.0, abs=1e-8)

    def test_edges_input_same_result(self, matrix_file, edges_file, capsys):
        main(["rank", matrix_file, "--method", "iw", "--format", "json"])
        a = _scores(capsys.readouterr().out)
        main(["rank", edges_file, "--method", "iw", "--format", "json"])
        b = _scores(capsys.readouterr().out)
        assert a == b

    def test_default_method_is_pagerank(self, matrix_file, capsys):
        assert main(["rank", matrix_file, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["method"] == "pagerank"
        assert obj["alpha"] == 0.85

    def test_damped_iw_variant_is_flagged(self, matrix_file, capsys):
        assert main(["rank", matrix_file, "--method", "iw", "--alpha", "0.9",
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["alpha"] == 0.9
        assert obj["diagnostics"]["damped_variant"] is True

    def test_ipp_requires_articles(self, matrix_file, capsys):
        assert main(["rank", matrix_file, "--method", "ipp"]) == 2

    def test_ipp_with_articles(self, matrix_file, tmp_path, capsys):
        art = tmp_path / "a.csv"
        art.write_text("label,articles\na,1\nb,1\nc,2\n")
        assert main(["rank", matrix_file, "--method", "ipp",
                     "--articles", str(art), "--format", "json"]) == 0
        scores = _scores(capsys.readouterr().out)
        assert scores["b"] == pytest.approx(5 / 11, abs=1e-8)

    @pytest.mark.parametrize("method", ["iw", "total", "ipp"])
    def test_damped_variants_match_oracle(self, matrix_file, tmp_path,
                                          capsys, method):
        art = tmp_path / "a.csv"
        art.write_text("a,1\nb,1\nc,2\n")
        assert main(["rank", matrix_file, "--method", method, "--alpha",
                     "0.9", "--articles", str(art), "--format", "json"]) == 0
        scores = _scores(capsys.readouterr().out)
        got = np.array([scores[lab] for lab in "abc"])
        C = np.array([[0, 1, 1], [2, 0, 2], [4, 4, 0]], float)
        a = C.sum(axis=0)
        expected = pagerank_eig(C, 0.9) / a
        if method != "iw":
            expected = expected / expected.sum() * a
        if method == "ipp":
            expected = expected / expected.sum() / np.array([1.0, 1.0, 2.0])
        assert_allclose(got, expected / expected.sum(), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("alpha", ["1.5", "-0.1", "nan"])
    @pytest.mark.parametrize("method", ["pagerank", "iw", "total", "ipp"])
    def test_alpha_outside_unit_interval_rejected(self, matrix_file,
                                                  tmp_path, capsys, method,
                                                  alpha):
        art = tmp_path / "a.csv"
        art.write_text("a,1\nb,1\nc,2\n")
        assert main(["rank", matrix_file, "--method", method, "--alpha",
                     alpha, "--articles", str(art)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alpha must lie in [0, 1]" in captured.err

    @pytest.mark.parametrize("size", ["0", "inf"])
    def test_damped_ipp_rejects_bad_articles(self, matrix_file, tmp_path,
                                             capsys, size):
        art = tmp_path / "a.csv"
        art.write_text(f"a,1\nb,{size}\nc,2\n")
        assert main(["rank", matrix_file, "--method", "ipp", "--alpha", "0.9",
                     "--articles", str(art)]) == 2
        assert capsys.readouterr().err == (
            "error: articles must be finite and strictly positive\n")

    def test_schema_validation(self, matrix_file, capsys):
        import jsonschema

        for method in ("pagerank", "iw", "total", "bt"):
            main(["rank", matrix_file, "--method", method,
                  "--format", "json"])
            jsonschema.validate(json.loads(capsys.readouterr().out),
                                load_schema())

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("winner,loser,count\nx,y,oops\n")
        assert main(["rank", str(p)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_empty_matrix_label_is_error(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text(",a,\na,0,1\n,2,0\n")
        assert main(["rank", str(p), "--method", "iw", "--format",
                     "csv"]) == 2
        assert capsys.readouterr() == ("", "error: line 1: empty label\n")

    def test_missing_file_is_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert main(["rank", missing]) == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("method", [("iw",), ("total",), ("bt",),
                                        ("pagerank", "--alpha", "1")])
    def test_quasi_symmetric_ring_1000(self, tmp_path, capsys, method):
        path, C, d = _ring_edges(tmp_path, 1000)
        assert main(["rank", path, "--method", *method,
                     "--format", "json"]) == 0
        got = _by_index(_scores(capsys.readouterr().out))
        if method[0] == "bt":
            expected = np.log(d) - np.log(d).mean()
            assert_allclose(got, expected, rtol=0, atol=1e-9)
        else:
            expected = d if method[0] == "iw" else d * C.sum(axis=0)
            assert_allclose(got, expected / expected.sum(), rtol=1e-9)

    def test_dangling_input_undamped_exit(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text(",a,b\na,0,1\nb,0,0\n")
        assert main(["rank", str(p), "--method", "iw"]) == 2
        assert "a" in capsys.readouterr().err


@pytest.mark.parametrize("junk", [b"\xff", b"1" * (csv.field_size_limit() + 1)],
                         ids=["not-utf8", "oversized-cell"])
@pytest.mark.parametrize("target", ["input", "articles"])
def test_unreadable_text_is_one_error_line(matrix_file, tmp_path, capsys,
                                           junk, target):
    p = tmp_path / "bad.csv"
    if target == "input":
        p.write_bytes(b",a,b\na,0,1\nb," + junk + b",0\n")
        argv = ["check-qs", str(p)]
    else:
        p.write_bytes(b"a,1\nb," + junk + b"\nc,2\n")
        argv = ["rank", matrix_file, "--method", "ipp", "--articles", str(p)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_byte_order_mark_is_skipped_but_hashed(tmp_path, capsys):
    raw = b"\xef\xbb\xbf" + EDGES.encode()
    p = tmp_path / "bom.csv"
    p.write_bytes(raw)
    assert main(["rank", str(p), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert sorted(e["label"] for e in obj["scores"]) == ["a", "b", "c"]
    assert obj["metadata"]["input_sha256"] == hashlib.sha256(raw).hexdigest()


ARTICLES = "label,articles\na,1\nb,1\nc,2\n"


def _feed_fifo(path, raw: bytes) -> None:
    with open(path, "wb") as f:  # waits for the reader to open the fifo
        f.write(raw)


@pytest.mark.parametrize("via", ["stdin", "fifo"])
@pytest.mark.parametrize("target", ["input", "articles"])
def test_piped_input_is_hashed_as_sent(matrix_file, tmp_path, target, via):
    # a pipe can be read once: the digest must be of the bytes parsed
    raw = (MATRIX if target == "input" else ARTICLES).encode()
    source = "/dev/stdin"
    if via == "fifo":
        source = str(tmp_path / "pipe")
        os.mkfifo(source)
        feeder = threading.Thread(target=_feed_fifo, args=(source, raw),
                                  daemon=True)
        feeder.start()
    argv = ["rank", source, "--format", "json"]
    if target == "articles":
        argv = ["rank", matrix_file, "--method", "ipp", "--articles", source,
                "--format", "json"]
    try:
        proc = subprocess.run([sys.executable, "-m", "pairrank", *argv],
                              input=raw if via == "stdin" else None,
                              capture_output=True, timeout=30)
    finally:
        if via == "fifo":
            feeder.join(timeout=5)
            if feeder.is_alive():  # the child never opened the fifo
                os.close(os.open(source, os.O_RDONLY | os.O_NONBLOCK))
    assert (proc.returncode, proc.stderr) == (0, b"")
    metadata = json.loads(proc.stdout)["metadata"]
    assert metadata[f"{target}_sha256"] == hashlib.sha256(raw).hexdigest()


def test_ipp_opens_each_input_once(matrix_file, tmp_path, monkeypatch,
                                   capsys):
    art = tmp_path / "art.csv"
    art.write_text(ARTICLES)
    opened = []
    real_open = builtins.open

    def counted(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    assert main(["rank", matrix_file, "--method", "ipp", "--articles",
                 str(art), "--format", "json"]) == 0
    metadata = json.loads(capsys.readouterr().out)["metadata"]
    assert [f for f in opened if f in (matrix_file, str(art))] == [
        matrix_file, str(art)]
    assert metadata["articles_sha256"] == hashlib.sha256(
        ARTICLES.encode()).hexdigest()


def test_rank_child_stores_its_parse(matrix_file, tmp_path):
    # the child inherits XDG_CACHE_HOME, which conftest.py points here
    cache = Path(os.environ["XDG_CACHE_HOME"]) / "pairrank"
    assert cache.parent.parent == tmp_path and not cache.exists()
    proc = subprocess.run([sys.executable, "-m", "pairrank", "rank",
                           matrix_file], capture_output=True)
    assert proc.returncode == 0
    digest = hashlib.sha256(MATRIX.encode()).hexdigest()
    assert [p.name for p in cache.iterdir()] == [
        f"{digest}-{pairrank.io._parser_key()}.npy"]
    assert cache.stat().st_mode & 0o777 == 0o700


@pytest.mark.parametrize("argv", [
    ["rank", "M", "--method", "iw", "--format", "json"],
    ["rank", "M", "--method", "bt", "--format", "table"],
    ["rank", "E", "--method", "pagerank", "--format", "csv"],
    ["rank", "M", "--method", "ipp", "--articles", "A", "--format", "json"],
    ["check-qs", "E", "--format", "json"],
    ["check-qs", "N", "--tol", "1e-4"],
    ["rank", "B"],
    ["rank", "absent.csv"],
])
def test_a_hit_a_miss_and_no_cache_print_the_same(argv, matrix_file,
                                                  edges_file, tmp_path,
                                                  monkeypatch, capsys):
    files = {"M": matrix_file, "E": edges_file}
    for name, text in (("A", ARTICLES), ("N", matrix_to_csv(_noisy_qs(6))),
                       ("B", MATRIX.replace("c,4,4", "c,4,x"))):
        files[name] = str(tmp_path / f"{name}.csv")
        Path(files[name]).write_text(text)
    expected = {"N": 4, "B": 2, "absent.csv": 2}.get(argv[1], 0)
    argv = [files.get(a, a) for a in argv]
    runs = []
    for _ in range(2):  # a miss, then a hit where the parse succeeded
        code = main(argv)
        runs.append((code, *capsys.readouterr()))
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.delenv("HOME", raising=False)
    code = main(argv)
    runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == expected


class TestCheckQs:
    def test_quasi_symmetric_input(self, matrix_file, capsys):
        assert main(["check-qs", matrix_file, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["diagnostics"]["quasi_symmetric"] is True
        assert obj["diagnostics"]["reversible"] is True
        scores = {e["label"]: e["score"] for e in obj["scores"]}
        assert scores == {"a": 1.0, "b": 2.0, "c": 4.0}

    def test_quasi_symmetric_ring(self, tmp_path, capsys):
        path, _, d = _ring_edges(tmp_path, 200)
        assert main(["check-qs", path, "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["diagnostics"]["reversible"] is True
        scores = {e["label"]: e["score"] for e in obj["scores"]}
        assert_allclose(_by_index(scores), d, rtol=1e-9)

    def test_perturbed_input_fails_with_exit_4(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text(",a,b,c\na,0,2,1\nb,2,0,2\nc,4,4,0\n")
        assert main(["check-qs", str(p), "--format", "json"]) == 4
        obj = json.loads(capsys.readouterr().out)
        assert obj["diagnostics"]["quasi_symmetric"] is False
        assert obj["diagnostics"]["triplet_violations"] >= 1
        assert obj["scores"] == []

    def test_failed_equivalence_is_exit_4(self, tmp_path, capsys):
        p = tmp_path / "noisy.csv"
        p.write_text(matrix_to_csv(_noisy_qs(6)))
        argv = ["check-qs", str(p), "--tol", "1e-4", "--format", "json"]
        assert main(argv) == 4
        out = capsys.readouterr()
        assert out.err == ""
        obj = json.loads(out.out)
        assert obj["diagnostics"]["quasi_symmetric"] is True
        assert obj["diagnostics"]["equivalence_error"].startswith(
            "fixed-point residual")
        assert "equivalence_residual" not in obj["diagnostics"]
        assert obj["scores"] == []

    def test_scaled_ring_is_not_quasi_symmetric(self, tmp_path, capsys):
        # no triplet to fail and a cycle ratio of 2^6: the decomposition
        # rejects it, though its entries are all below any absolute tol
        n = 6
        i = np.arange(n)
        C = np.zeros((n, n))
        C[i, (i + 1) % n] = 2e-10
        C[(i + 1) % n, i] = 1e-10
        p = tmp_path / "ring.csv"
        p.write_text(matrix_to_csv(CountMatrix(C, default_labels(n))))
        assert main(["check-qs", str(p), "--format", "json"]) == 4
        obj = json.loads(capsys.readouterr().out)
        assert obj["diagnostics"]["quasi_symmetric"] is False
        assert obj["diagnostics"]["decomposition_error"].startswith(
            "matrix is not quasi-symmetric: worst asymmetry 0.984375")
        assert "equivalence_error" not in obj["diagnostics"]
        assert obj["scores"] == []

    def test_one_player_exits_2(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text(",a\na,3\n")
        assert main(["check-qs", str(p)]) == 2
        assert capsys.readouterr().err == \
            "error: need at least two players to fit\n"

    def test_schema_validation(self, matrix_file, tmp_path, capsys):
        import jsonschema

        main(["check-qs", matrix_file, "--format", "json"])
        jsonschema.validate(json.loads(capsys.readouterr().out), load_schema())

    def test_decomposes_once(self, matrix_file, monkeypatch, capsys):
        import pairrank.quasisym as quasisym

        calls = []
        real = quasisym.decompose_qs

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(quasisym, "decompose_qs", counting)
        assert main(["check-qs", matrix_file]) == 0
        assert len(calls) == 1

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="ru_maxrss is in kilobytes on Linux")
    def test_dense_1000_in_bounded_memory(self, tmp_path):
        # an n^3 triplet tensor alone would take 8 GB here
        n = 1000
        rng = np.random.default_rng(4)
        d = rng.uniform(0.5, 2.0, n)
        S = rng.uniform(1.0, 9.0, (n, n))
        S += S.T
        np.fill_diagonal(S, 0.0)
        path = tmp_path / "qs1000.csv"
        path.write_text(matrix_to_csv(
            CountMatrix(d[:, None] * S, default_labels(n))))
        code, peak_mb = _bounded_run("check-qs", str(path))
        assert code == 0
        assert peak_mb < 300


class TestAsymptotics:
    def test_round_robin_closed_form(self, capsys):
        assert main(["asymptotics", "--structure", "round-robin",
                     "--n", "4", "--k", "1", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        rows = obj["matrices"]["covariance"]["rows"]
        assert rows[0][0] == pytest.approx(0.375)
        assert rows[0][1] == pytest.approx(-0.125)

    def test_check_flag_cross_validates(self, capsys):
        assert main(["asymptotics", "--structure", "circular",
                     "--n", "7", "--k", "1", "--check",
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["diagnostics"]["max_discrepancy_delta"] < 1e-10
        assert obj["diagnostics"]["max_discrepancy_bt"] < 1e-10

    def test_circular_small_n_uses_numerical_route(self, capsys):
        # the band formula holds at every n >= 3, so small rings are closed
        # form too, with the values the numerical route gave
        assert main(["asymptotics", "--structure", "circular",
                     "--n", "5", "--k", "1", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["diagnostics"]["covariance_source"] == "closed-form"
        rows = obj["matrices"]["covariance"]["rows"]
        assert abs(rows[0][0] - 0.8) < 1e-10
        assert abs(rows[0][2] - (-0.4)) < 1e-10

    def test_circular_large_n_reports_closed_bands(self, capsys):
        assert main(["asymptotics", "--structure", "circular",
                     "--n", "7", "--k", "1", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["diagnostics"]["covariance_source"] == "closed-form"

    def test_check_is_relative_to_the_closed_form(self, capsys):
        # entries near n/(6k) carry absolute rounding above 1e-10 here
        assert main(["asymptotics", "--structure", "circular",
                     "--n", "400", "--k", "1", "--check",
                     "--format", "json"]) == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostics["max_discrepancy_delta"] < 1e-10
        assert diagnostics["max_discrepancy_bt"] < 1e-10

    def test_check_beyond_tol_exits_4(self, capsys):
        assert main(["asymptotics", "--structure", "round-robin",
                     "--n", "6", "--k", "1", "--check", "--tol", "1e-30",
                     "--format", "json"]) == 4
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostics["check_tol"] == 1e-30

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_check_tol_must_be_positive(self, capsys, tol):
        assert main(["asymptotics", "--structure", "circular", "--n", "5",
                     "--k", "1", "--check", "--tol", tol]) == 2
        assert capsys.readouterr() == (
            "", f"error: tol must be positive, got {float(tol)}\n")

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="ru_maxrss is in kilobytes on Linux")
    @pytest.mark.parametrize("structure", ["round-robin", "circular"])
    def test_check_1000_in_bounded_memory(self, structure):
        # the n x n(n-1)/2 Jacobian alone would take 3.7 GiB here
        code, peak_mb = _bounded_run("asymptotics", "--structure", structure,
                                     "--n", "1000", "--k", "1", "--check")
        assert code == 0
        assert peak_mb < 300

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="RLIMIT_AS caps the address space on Linux")
    def test_out_of_memory_exits_2(self):
        # the 100000 x 100000 closed form needs 74.5 GiB, so numpy raises
        # MemoryError; the larger designs are beyond what numpy can index
        # or beyond the float range, and are rejected before any allocation
        designs = [("round-robin", 100000, 1)]
        designs += [(structure, 3, 10 ** 310)
                    for structure in ("round-robin", "circular")]
        designs += [("round-robin", 10 ** 20, 1), ("round-robin", 2 ** 40, 1),
                    ("circular", 10 ** 20, 1)]
        for structure, n, k in designs:
            proc = _run_capped(["asymptotics", "--structure", structure,
                                "--n", str(n), "--k", str(k)])
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ")
            assert proc.stderr.count("\n") == 1
            assert "Traceback" not in proc.stderr
            if n == 100000:
                assert proc.stderr.startswith("error: Unable to allocate")

    def test_schema_validation(self, capsys):
        import jsonschema

        main(["asymptotics", "--structure", "round-robin", "--n", "3",
              "--k", "2", "--format", "json"])
        jsonschema.validate(json.loads(capsys.readouterr().out), load_schema())


class TestSimulate:
    def test_small_run_reports_zscores(self, capsys):
        assert main(["simulate", "--structure", "round-robin", "--n", "3",
                     "--k", "8", "--reps", "300", "--seed", "5",
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["diagnostics"]["replications"] == 300
        assert "zscores" in obj["matrices"]
        assert obj["diagnostics"]["max_abs_z"] < 10  # sanity, not a verdict

    def test_deterministic_output(self, capsys):
        args = ["simulate", "--structure", "circular", "--n", "5", "--k", "4",
                "--reps", "100", "--seed", "3", "--format", "json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_sample_without_variation_is_an_error(self, capsys):
        # one game a direction: every accepted draw is the 1-1 split
        assert main(["simulate", "--structure", "round-robin", "--n", "2",
                     "--k", "1", "--reps", "200"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "no variation" in err


    @pytest.mark.parametrize("n", ["-1", "0", "1"])
    @pytest.mark.parametrize("structure", ["round-robin", "circular"])
    def test_too_few_players_is_an_error(self, capsys, structure, n):
        assert main(["simulate", "--structure", structure, "--n", n,
                     "--k", "1", "--reps", "5"]) == 2
        assert capsys.readouterr() == ("",
                                       "error: need at least two players\n")

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="RLIMIT_AS caps the address space on Linux")
    def test_too_many_players_is_rejected_before_allocating(self):
        # n labels and abilities would need terabytes; the keying bound
        # must reject n first
        proc = _run_capped(["simulate", "--structure", "round-robin",
                            "--n", str(10 ** 12), "--k", "1"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: too many pairs for the keying scheme "
                               "(n > 362)\n")


# (command, option, value) for each integer argument value that must end in
# exit 0 or 2; the other integers stay at --n 4 --k 1 --reps 5
INTEGER_ARGUMENTS = (
    [("simulate", "--n", v) for v in (-1, 0, 1, 2, 3)]
    + [("simulate", "--k", v) for v in (-1, 0, 1 << 62)]
    + [("simulate", "--reps", v) for v in (-1, 0, 1, (1 << 32) + 1)]
    + [("simulate", "--seed", v) for v in (-1, 1 << 64)]
    + [("asymptotics", "--n", v) for v in (-1, 0, 1, 2)]
    + [("asymptotics", "--k", v) for v in (-1, 0)])


@pytest.mark.parametrize("command, option, value", INTEGER_ARGUMENTS)
@pytest.mark.parametrize("structure", ["round-robin", "circular"])
def test_integer_argument_never_ends_in_a_traceback(capsys, structure,
                                                    command, option, value):
    settings = {"--n": 4, "--k": 1}
    if command == "simulate":
        settings["--reps"] = 5
    else:
        settings["--check"] = None
    settings[option] = value
    argv = [command, "--structure", structure]
    for flag, setting in settings.items():
        argv += [flag] if setting is None else [flag, str(setting)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


# counts whose column sums, games and C d overflow float64
NEAR_OVERFLOW = [np.array([[0, 1e308], [1e308, 0]]), 1e308 * (1 - np.eye(3))]
# a path whose d passes float64 (1, 1e200, 1e400), and a triplet whose
# products both overflow though they differ by a factor of 10
PAST_FLOAT64 = [np.array([[0, 1, 0], [1e200, 0, 1], [0, 1e200, 0]]),
                np.array([[0, 1e300, 1e300], [1e299, 0, 1e300],
                          [1e300, 1e300, 0]])]


@pytest.mark.parametrize("table", [0, 1], ids=["2x2", "3x3"])
@pytest.mark.parametrize("argv, code", [
    (["rank", "--method", "pagerank"], 0),
    (["rank", "--method", "iw"], 0),
    (["rank", "--method", "total"], 0),
    (["rank", "--method", "ipp"], 0),
    (["rank", "--method", "bt"], 2),
    (["check-qs"], 0),
], ids=["pagerank", "iw", "total", "ipp", "bt", "check-qs"])
def test_near_overflow_tables(tmp_path, capsys, table, argv, code):
    # the eigenvector methods and check-qs do not depend on the scale of
    # C and rank the players evenly; a fit does, and its overflowing games
    # are a domain error. Under the RuntimeWarning error filter, numpy
    # stays silent
    C = NEAR_OVERFLOW[table]
    labels = default_labels(len(C))
    path = tmp_path / "big.csv"
    path.write_text(matrix_to_csv(CountMatrix(C, labels)))
    articles = tmp_path / "articles.csv"
    articles.write_text("".join(f"{label},1\n" for label in labels))
    if argv[-1] == "ipp":
        argv = [*argv, "--articles", str(articles)]
    assert main([*argv, str(path), "--format", "json"]) == code
    out, err = capsys.readouterr()
    if code:
        assert err == ("error: the games of p1 sum beyond float64's largest "
                       "value 1.798e+308\n")
        return
    report = _strict_json(out)
    scores = [entry["score"] for entry in report["scores"]]
    if argv[0] == "check-qs":
        assert scores == [1.0] * len(C)
        assert {k: report["diagnostics"][k] for k in (
            "quasi_symmetric", "decomposition_residual",
            "equivalence_residual", "reversible")} == {
            "quasi_symmetric": True, "decomposition_residual": 0.0,
            "equivalence_residual": 0.0, "reversible": True}
    else:
        assert_allclose(scores, 1 / len(C), rtol=1e-15)


@pytest.mark.parametrize("table", [0, 1], ids=["path", "triplet"])
def test_check_qs_past_float64(tmp_path, capsys, table):
    # a tree is quasi-symmetric, but its d does not fit float64: a domain
    # error, with numpy silent. The triplet's products are compared past
    # float64's range, so its gap of 0.9 is found
    path = tmp_path / "past.csv"
    path.write_text(matrix_to_csv(CountMatrix(PAST_FLOAT64[table],
                                              default_labels(3))))
    code = main(["check-qs", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    if table == 0:
        assert (code, out) == (2, "")
        assert err == ("error: d of C = diag(d) S spans 1e0 to 1e400, "
                       "past float64's normal range\n")
        return
    assert (code, err) == (4, "")
    diagnostics = _strict_json(out)["diagnostics"]
    assert diagnostics["quasi_symmetric"] is False
    assert diagnostics["triplet_violations"] == 1
    assert diagnostics["triplet_max_gap"] == pytest.approx(0.9, abs=1e-12)


def test_extreme_tables_exit_with_a_documented_code(tmp_path, capsys):
    # lognormal counts over tens of decades, and the tables where the
    # Newton system turned singular and a fitted count underflowed to 0
    tables = [lognormal_table([41, k], (2, 30), (0.1, 1.0), (4.0, 12.0))
              for k in range(100)]
    tables += [lognormal_table([7, 45], (5, 60), (0.1, 0.5), (4.0, 7.0)),
               lognormal_table([9, 108], (5, 40), (0.2, 1.0), 12.0)]
    tables += NEAR_OVERFLOW  # sums past float64's largest value
    tables += PAST_FLOAT64  # d and triplet products past float64's range
    path = tmp_path / "extreme.csv"
    codes = set()
    for C in tables:
        path.write_text(matrix_to_csv(CountMatrix(C, default_labels(len(C)))))
        for argv in (["rank", "--method", "bt"], ["rank", "--method", "iw"],
                     ["rank", "--method", "pagerank"], ["check-qs"]):
            code = main([*argv, str(path), "--format", "json"])
            out = capsys.readouterr().out
            assert code in (0, 2, 3, 4), (argv, C)
            if out:
                _strict_json(out)
            codes.add(code)
    assert codes == {0, 2, 3, 4}


def _subcommands() -> dict:
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def _dispatch_choices(command: str, option: str) -> list:
    return next(action.choices for action in _subcommands()[command]._actions
                if option in action.option_strings)


def test_readme_names_every_long_option():
    # the README names each subcommand's long options, and no others
    options = {option for parser in _subcommands().values()
               for action in parser._actions
               for option in action.option_strings
               if option.startswith("--")} - {"--help"}
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    named = set(re.findall(r"--[a-z][a-z-]*", readme))
    assert named - {"--no-build-isolation"} == options


def test_readme_check_qs_example_is_the_output(tmp_path, capsys):
    # the README's check-qs example runs on the quick-start matrix; each
    # line it shows, up to its "...", is the command's output
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    shown = re.search(r"\$ pairrank check-qs worked\.csv\n(.*?\n)\.\.\.\n",
                      readme, re.DOTALL).group(1)
    path = tmp_path / "worked.csv"
    path.write_text(MATRIX)
    assert main(["check-qs", str(path)]) == 0
    assert capsys.readouterr().out.startswith(shown)


@pytest.mark.parametrize("command", ["rank", "check-qs"])
def test_input_format_is_a_usage_error(matrix_file, capsys, command):
    # the header row decides the layout; there is no option to force one
    with pytest.raises(SystemExit) as exc:
        main([command, matrix_file, "--input-format", "matrix"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --input-format matrix" in \
        capsys.readouterr().err


# the library function each --method choice must reach, with the method
# name the report prints
METHOD_TARGETS = {
    "pagerank": (rankings, "pagerank", "pagerank"),
    "iw": (rankings, "influence_weight", "influence_weight"),
    "total": (rankings, "total_influence", "total_influence"),
    "ipp": (rankings, "influence_per_publication",
            "influence_per_publication"),
    "bt": (bradley_terry, "fit_bt", "bradley_terry"),
}
DESIGN_TARGETS = {"round-robin": "round_robin_covariance",
                  "circular": "circular_covariance"}


def _counting(monkeypatch, owner, name: str) -> list:
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestDispatch:
    """Every parser choice reaches the library function it names, looked up
    at call time, so a choice and its dispatch table cannot drift apart."""

    def test_choices_keep_their_order(self):
        assert _dispatch_choices("rank", "--method") == sorted(METHOD_TARGETS)
        for command in ("asymptotics", "simulate"):
            assert list(_dispatch_choices(command, "--structure")) == list(
                DESIGN_TARGETS)

    @pytest.mark.parametrize("choice", _dispatch_choices("rank", "--method"))
    def test_every_method_is_dispatched(self, choice, matrix_file, tmp_path,
                                        monkeypatch, capsys):
        owner, name, printed = METHOD_TARGETS[choice]
        calls = _counting(monkeypatch, owner, name)
        art = tmp_path / "a.csv"
        art.write_text("a,1\nb,1\nc,2\n")
        assert main(["rank", matrix_file, "--method", choice, "--articles",
                     str(art), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == printed
        assert calls == [name]

    @pytest.mark.parametrize("command", ["asymptotics", "simulate"])
    def test_every_structure_is_dispatched(self, command, monkeypatch,
                                           capsys):
        for choice in _dispatch_choices(command, "--structure"):
            name = DESIGN_TARGETS[choice]
            calls = _counting(monkeypatch, asymptotics, name)
            argv = [command, "--structure", choice, "--n", "4", "--k", "2",
                    "--format", "json"]
            if command == "simulate":
                argv += ["--reps", "20"]
            assert main(argv) == 0
            obj = json.loads(capsys.readouterr().out)
            assert obj["diagnostics"]["structure"] == choice
            assert calls == [name]


DIAG_ASYMPTOTICS = ["structure", "n", "k", "games_per_pair",
                    "covariance_source"]
DIAG_QS = ["quasi_symmetric", "triplet_max_gap", "triplet_violations"]


def _layout(argv: list[str], capsys) -> tuple:
    """Exit code, the top-level JSON keys, and the diagnostics and metadata
    keys, each in print order."""
    code = main([*argv, "--format", "json"])
    obj = json.loads(capsys.readouterr().out)
    return code, list(obj), list(obj["diagnostics"]), list(obj["metadata"])


class TestReportLayout:
    """The report of every branch of every handler: exit code and keys in
    order."""

    @pytest.mark.parametrize("args, top, diagnostics, metadata", [
        (["--method", "bt", "--alpha", "0.5"],
         ["command", "method", "scores", "diagnostics", "metadata"],
         ["note", "deviance", "iterations", "converged"],
         ["input_sha256", "tol"]),
        (["--method", "iw", "--alpha", "0.9"],
         ["command", "method", "alpha", "scores", "diagnostics", "metadata"],
         ["damped_variant", "note"], ["input_sha256", "tol"]),
        (["--method", "ipp", "--alpha", "0.9", "--articles", "ARTICLES"],
         ["command", "method", "alpha", "scores", "diagnostics", "metadata"],
         ["damped_variant", "note"],
         ["input_sha256", "tol", "articles_sha256"]),
        (["--method", "ipp", "--articles", "ARTICLES"],
         ["command", "method", "scores", "diagnostics", "metadata"],
         [], ["input_sha256", "tol", "articles_sha256"]),
        (["--method", "pagerank"],
         ["command", "method", "alpha", "scores", "diagnostics", "metadata"],
         [], ["input_sha256", "tol"]),
    ], ids=["bt-alpha", "iw-damped", "ipp-damped", "ipp", "pagerank"])
    def test_rank(self, matrix_file, tmp_path, capsys, args, top,
                  diagnostics, metadata):
        art = tmp_path / "a.csv"
        art.write_text("a,1\nb,1\nc,2\n")
        args = [str(art) if a == "ARTICLES" else a for a in args]
        assert _layout(["rank", matrix_file, *args], capsys) == (
            0, top, diagnostics, metadata)

    def test_rank_ipp_without_articles(self, matrix_file, capsys):
        assert main(["rank", matrix_file, "--method", "ipp",
                     "--format", "json"]) == 2
        assert capsys.readouterr() == (
            "", "error: --method ipp requires --articles (per-player "
                "sizes)\n")

    @pytest.mark.parametrize("matrix, code, diagnostics", [
        (",a,b,c\na,0,2,1\nb,2,0,2\nc,4,4,0\n", 4,
         DIAG_QS + ["worst_triplet"]),
        # two mutual pairs with no games between them: the triplets hold
        # vacuously, but d is not identified across the two groups
        (",a,b,c,d\na,0,2,0,0\nb,2,0,0,0\nc,0,0,0,1\nd,0,0,1,0\n", 4,
         DIAG_QS + ["decomposition_error"]),
        ("NOISY", 4, DIAG_QS + ["decomposition_residual",
                                "equivalence_error"]),
        (MATRIX, 0, DIAG_QS + ["decomposition_residual",
                               "equivalence_residual", "reversible",
                               "detailed_balance_gap"]),
    ], ids=["triplets", "decomposition", "equivalence", "pass"])
    def test_check_qs(self, tmp_path, capsys, matrix, code, diagnostics):
        p = tmp_path / "m.csv"
        if matrix == "NOISY":
            p.write_text(matrix_to_csv(_noisy_qs(6)))
        else:
            p.write_text(matrix)
        assert _layout(["check-qs", str(p), "--tol", "1e-4"], capsys) == (
            code, ["command", "scores", "diagnostics", "metadata"],
            diagnostics, ["input_sha256", "tol"])

    @pytest.mark.parametrize("tol, code", [("1e-10", 0), ("1e-30", 4)])
    def test_asymptotics_check(self, capsys, tol, code):
        argv = ["asymptotics", "--structure", "round-robin", "--n", "6",
                "--k", "1", "--check", "--tol", tol]
        assert _layout(argv, capsys) == (
            code, ["command", "scores", "matrices", "diagnostics",
                   "metadata"],
            DIAG_ASYMPTOTICS + ["max_discrepancy_delta",
                                "max_discrepancy_bt", "check_tol"], [])

    def test_simulate(self, capsys):
        argv = ["simulate", "--structure", "circular", "--n", "5", "--k",
                "2", "--reps", "50", "--seed", "3"]
        assert _layout(argv, capsys) == (
            0, ["command", "scores", "matrices", "diagnostics", "metadata"],
            DIAG_ASYMPTOTICS[:4] + ["replications", "rejections",
                                    "max_abs_z", "target_source"],
            ["seed"])


# MATRIX under labels the csv module must quote, and a copy that is not
# quasi-symmetric
QUOTED = ',"a,b","c""d",e\n"a,b",0,1,1\n"c""d",2,0,2\ne,4,4,0\n'
QUOTED_NOISY = QUOTED.replace('"a,b",0,1,1', '"a,b",0,2,1')
# a 3 x 3 matrix block: its header row and three rows of {} for the numbers
BLOCK3 = ",p1,p2,p3\np1,{},{},{}\np2,{},{},{}\np3,{},{},{}\n"


def _g12(value: float) -> str:
    return f"{value:.12g}"


def _csv_numbers(obj: dict) -> list[str]:
    """A json report's numbers at 12 significant digits, in the order its
    csv twin prints them: each score and its stderr, then each matrix
    row by row."""
    cells = [_g12(e[key]) for e in obj["scores"]
             for key in ("score", "stderr") if key in e]
    for block in obj.get("matrices", {}).values():
        cells += [_g12(v) for row in block["rows"] for v in row]
    return cells


def _csv_sections(obj: dict) -> dict:
    """The rows a csv report of the json report obj holds: the score table
    under None, then each matrix block under its name."""
    sections = {}
    scores = obj["scores"]
    if scores:
        keys = ["label", "score"]
        if any("stderr" in e for e in scores):
            keys.append("stderr")
        sections[None] = [keys] + [
            [e["label"]] + [_g12(e[k]) if k in e else "" for k in keys[1:]]
            for e in scores]
    for name, block in obj.get("matrices", {}).items():
        sections[name] = [["", *block["labels"]]] + [
            [label, *map(_g12, row)]
            for label, row in zip(block["labels"], block["rows"])]
    return sections


def _read_back(text: str) -> dict:
    """A csv report's rows as csv.reader reads them, by section: the score
    table under None, then each "# name" block under its name."""
    sections, name = {}, None
    for row in csv.reader(text.splitlines(keepends=True)):
        if len(row) == 1 and row[0].startswith("# "):
            name = row[0][2:]
        elif row:
            sections.setdefault(name, []).append(row)
    return sections


class TestCsvPayload:
    """Every byte of a csv report: the quoting of labels, the "# name" line
    over each matrix block and the blank lines between sections. Each
    report also reads back through csv.reader to the labels of its json
    twin and to that twin's numbers at 12 significant digits."""

    @pytest.mark.parametrize("argv, code, layout", [
        (["rank", "QUOTED", "--method", "pagerank"], 0,
         'label,score\ne,{}\n"c""d",{}\n"a,b",{}\n'),
        (["rank", "QUOTED", "--method", "bt"], 0,
         'label,score,stderr\ne,{},{}\n"c""d",{},{}\n"a,b",{},{}\n'),
        (["check-qs", "QUOTED"], 0,
         'label,score\ne,{}\n"c""d",{}\n"a,b",{}\n'),
        # a failed check carries no scores: csv has nothing to print
        (["check-qs", "QUOTED_NOISY"], 4, "\n"),
        (["asymptotics", "--structure", "round-robin", "--n", "3", "--k",
          "1", "--check"], 0, "# covariance\n" + BLOCK3),
        (["simulate", "--structure", "circular", "--n", "3", "--k", "2",
          "--reps", "50", "--seed", "3"], 0,
         "# empirical\n" + BLOCK3 + "\n# target\n" + BLOCK3
         + "\n# zscores\n" + BLOCK3),
    ], ids=["pagerank", "bt", "check-qs", "check-qs-fails", "asymptotics",
            "simulate"])
    def test_payload(self, tmp_path, capsys, argv, code, layout):
        files = {"QUOTED": QUOTED, "QUOTED_NOISY": QUOTED_NOISY}
        for name, text in files.items():
            (tmp_path / f"{name}.csv").write_text(text)
        argv = [str(tmp_path / f"{a}.csv") if a in files else a for a in argv]
        assert main([*argv, "--format", "json"]) == code
        obj = json.loads(capsys.readouterr().out)
        assert main([*argv, "--format", "csv"]) == code
        text, err = capsys.readouterr()
        assert (text, err) == (layout.format(*_csv_numbers(obj)), "")
        assert _read_back(text) == _csv_sections(obj)


class TestEntryPoint:
    def test_module_invocation(self, matrix_file):
        proc = subprocess.run(
            [sys.executable, "-m", "pairrank", "rank", matrix_file,
             "--method", "iw", "--format", "csv"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "label,score"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pairrank", "rank"],
            capture_output=True, text=True)
        assert proc.returncode == 2


def _env(unbuffered: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestTeardownSkip:
    """`pairrank` ends its process without the interpreter's teardown once
    the report is flushed; what reaches the caller must not change."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("case, code", [("rank", 0), ("check-qs", 4),
                                            ("missing", 2)])
    def test_module_run_gives_main_bytes(self, case, code, unbuffered,
                                         tmp_path, capsys):
        if case == "rank":
            # a report larger than the 8 KiB stdout buffer
            path, _, _ = _ring_edges(tmp_path, 300)
            argv = ["rank", path, "--format", "json"]
        elif case == "check-qs":
            path = tmp_path / "noisy.csv"
            path.write_text(matrix_to_csv(_noisy_qs(6)))
            argv = ["check-qs", str(path), "--tol", "1e-4", "--format",
                    "json"]
        else:
            argv = ["rank", str(tmp_path / "absent.csv")]
        assert main(argv) == code
        expected = capsys.readouterr()
        out = tmp_path / "out.txt"
        with open(out, "wb") as f:
            proc = subprocess.run([sys.executable, "-m", "pairrank", *argv],
                                  stdout=f, stderr=subprocess.PIPE,
                                  env=_env(unbuffered))
        assert proc.returncode == code
        assert out.read_bytes() == expected.out.encode("utf-8")
        assert proc.stderr == expected.err.encode("utf-8")

    @pytest.mark.parametrize("unbuffered, code", [(False, 120), (True, 1)])
    def test_closed_stdout_pipe(self, unbuffered, code, matrix_file):
        # buffered, the report waits for the final flush, which fails as the
        # interpreter ends (exit 120); unbuffered, main's write raises
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pairrank", "rank", matrix_file,
                 "--format", "json"],
                stdout=write, stderr=subprocess.PIPE, text=True,
                env=_env(unbuffered))
        finally:
            os.close(write)
        assert proc.returncode == code
        if unbuffered:
            lines = proc.stderr.splitlines()
            assert lines[0] == "Traceback (most recent call last):"
            assert "    sys.stdout.write(report.render(args.format))" in lines
            assert lines[-1] == "BrokenPipeError: [Errno 32] Broken pipe"
        else:
            assert proc.stderr == (
                "Exception ignored in: <_io.TextIOWrapper name='<stdout>' "
                "mode='w' encoding='utf-8'>\n"
                "BrokenPipeError: [Errno 32] Broken pipe\n")


def _loaded(code: str, *args: str) -> set[str]:
    """The pairrank submodules a fresh interpreter holds after running
    code, with args as its sys.argv[1:]."""
    probe = (f"import sys\n{code}\n"
             "print(*(m for m in sys.modules if m.startswith('pairrank.')),"
             " file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", probe, *args],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=True)
    return set(proc.stderr.split())


_CALL = "import pairrank.cli\nassert pairrank.cli.main(sys.argv[1:]) == 0"


class TestWhatACallLoads:
    """A call loads only the modules its subcommand runs, so a stray eager
    import fails here rather than slowing every call."""

    def test_package_import_loads_no_submodule(self):
        assert _loaded("import pairrank") == set()

    def test_rank_iw(self, matrix_file):
        loaded = _loaded(_CALL, "rank", matrix_file, "--method", "iw")
        assert "pairrank.rankings" in loaded
        assert not loaded & {"pairrank.generators", "pairrank.quasisym",
                             "pairrank.asymptotics", "pairrank.bradley_terry"}

    def test_simulate(self):
        loaded = _loaded(_CALL, "simulate", "--structure", "circular", "--n",
                         "4", "--k", "2", "--reps", "20")
        assert "pairrank.generators" in loaded
        assert not loaded & {"pairrank.io", "pairrank.quasisym"}

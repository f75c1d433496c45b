"""Self-tests for the benchmark harness.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import spans
import workloads


def _build(workload: str, seed: int, work: Path):
    calls = workloads.build(workload, seed, work)
    argv = [" ".join(c.argv).replace(str(work), "WORK") for c in calls]
    return workloads.input_hashes(work), argv


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload, tmp_path):
    first = _build(workload, 7, tmp_path / "a")
    again = _build(workload, 7, tmp_path / "b")
    other = _build(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other
    if workload != "monte-carlo":
        assert first[0] and set(first[0]) == set(other[0])
        assert all(first[0][name] != other[0][name] for name in first[0])


def _ring(n=50, seed=3):
    return workloads.ring_qs(np.random.default_rng(seed), n)


def _render(fmt: str, scores: np.ndarray) -> str:
    """Score reports laid out the way the three CLI formats print them."""
    names = workloads.labels(len(scores))
    if fmt == "json":
        return json.dumps({"command": "rank", "scores": [
            {"label": lab, "score": float(s)} for lab, s in zip(names, scores)],
            "diagnostics": {}, "metadata": {}})
    if fmt == "csv":
        return "label,score\n" + "".join(
            f"{lab},{s:.12g}\n" for lab, s in zip(names, scores))
    return "command: rank\nmethod: influence_weight\n\n" + "".join(
        f"{lab}  {s:>18.12g}\n" for lab, s in zip(names, scores)) + \
        "\ninput_sha256: x\ntol: 1e-10\n"


@pytest.mark.parametrize("fmt", ("json", "csv", "table"))
def test_checker_flags_tampered_scores(fmt):
    C, d = _ring()
    expected = d / d.sum()

    def check(scores):
        return reference.check_scores(
            reference.parse(_render(fmt, scores), fmt), expected,
            workloads.RING_RTOL)

    assert check(expected) == []
    tampered = expected.copy()
    tampered[5] *= 1.01
    assert check(tampered)
    swapped = expected.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert check(swapped)
    assert check(expected[:-1])


def test_checker_flags_wrong_abilities():
    C, d = _ring()
    exact = reference.centred_log(d)

    def check(mu):
        return reference.check_bt_score_equations(
            reference.parse(_render("json", mu), "json"), C)

    assert check(exact) == []
    tampered = exact.copy()
    tampered[3] += 1e-3
    tampered -= tampered.mean()
    assert check(tampered)


def test_self_time_subtracts_children():
    spans_ = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["io.parse_input", 1.0, 4.0, 0, 0, {"bytes": 3_000_000}],
        ["rankings.influence_weight", 5.0, 9.0, 0, 0, None],
        ["linalg.leading_eigenvector", 6.0, 7.5, 2, 0,
         {"iters": 40, "failed": 0}],
        ["counts.CountMatrix.__post_init__", 2.0, 2.5, 1, 0, None],
    ]
    assert spans.self_times(spans_) == pytest.approx([3.0, 2.5, 2.5, 1.5, 0.5])
    m = spans.layer_metrics(spans_)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["io.parse_s"] == pytest.approx(2.5)
    assert m["io.parse_bytes"] == 3_000_000
    assert m["io.parse_mb_per_s"] == pytest.approx(1.2)
    assert m["rankings.rank_self_s"] == pytest.approx(2.5)
    assert m["rankings.rank_calls"] == 1
    assert m["linalg.eigen_s"] == pytest.approx(1.5)
    assert (m["linalg.eigen_calls"], m["linalg.eigen_iters"]) == (1, 40)
    assert (m["counts.validate_s"], m["counts.validate_calls"]) == (0.5, 1)
    assert m["generators.solves"] == 0


def test_traced_replay_wraps_every_binding(tmp_path):
    """The in-process replay reaches the eigen solver through the wrapper
    bound in rankings and in quasisym, and tracing does not change output."""
    C, d = _ring()
    path = tmp_path / "ring.csv"
    workloads.write_matrix(path, C)
    spec = tmp_path / "calls.json"
    spec.write_text(json.dumps({"src": str(run.SRC), "calls": [
        ["rank", str(path), "--method", "iw", "--format", "json"],
        ["check-qs", str(path), "--format", "json"]]}))
    out = tmp_path / "out.json"
    subprocess.run([sys.executable, str(run.BENCH / "traced.py"), str(spec),
                    str(out)], check=True, timeout=120)
    result = json.loads(out.read_text())
    assert [r["stdout"] for r in result["traced"]] == \
        [r["stdout"] for r in result["untraced"]]
    names = [s[0] for s in result["spans"]]
    parents = {names[s[3]] for s in result["spans"]
               if s[0] == "linalg.leading_eigenvector"}
    assert {"rankings.influence_weight", "quasisym.is_reversible"} <= parents
    assert "counts.CountMatrix.__post_init__" in names
    assert {s[4] for s in result["spans"]} == {0, 1}


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {name: run.unit(name) for name in run.END_TO_END}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = list(spans.layer_metrics([])) + ["cli.cpu_s"] + [
        f"cli.{c.replace('-', '_')}_s" for c in run.SUBCOMMANDS] + [
        "trace.overhead_frac"]
    assert layer == {name: run.unit(name) for name in names}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

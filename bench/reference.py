"""Independent output checks for benchmark calls.

numpy only: nothing here imports pairrank or routes through its solvers.
Expected values come from the generating parameters (the d of a
quasi-symmetric input), from LAPACK ``eig`` of the chain, from the
Bradley-Terry score equations, or from closed-form covariances.

``parse`` reads a report in any of the three output formats into an
``Output``; each ``check_*`` takes an ``Output`` plus expected values and
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Output:
    scores: dict[str, float] = field(default_factory=dict)
    diagnostics: dict[str, str] = field(default_factory=dict)
    matrices: dict[str, np.ndarray] = field(default_factory=dict)


def parse(text: str, fmt: str) -> Output:
    """Read a rendered report. Diagnostics values are kept as the strings
    the table format prints (``true``/``false`` for booleans)."""
    if fmt == "json":
        return _parse_json(text)
    if fmt == "csv":
        return _parse_csv(text)
    return _parse_table(text)


def _parse_json(text: str) -> Output:
    obj = json.loads(text)
    diagnostics = {key: (("true" if value else "false")
                         if isinstance(value, bool) else str(value))
                   for key, value in obj.get("diagnostics", {}).items()}
    return Output(
        scores={e["label"]: float(e["score"]) for e in obj.get("scores", [])},
        diagnostics=diagnostics,
        matrices={name: np.array(block["rows"], dtype=float)
                  for name, block in obj.get("matrices", {}).items()})


def _parse_csv(text: str) -> Output:
    """Score rows only: no call in the workloads asks for csv matrices."""
    rows = list(csv.reader(io.StringIO(text)))
    out = Output()
    if rows and rows[0][:2] == ["label", "score"]:
        for row in rows[1:]:
            if not row:
                break
            out.scores[row[0]] = float(row[1])
    return out


def _parse_table(text: str) -> Output:
    out = Output()
    sections = [s.splitlines() for s in text.strip("\n").split("\n\n")]
    for line in sections[0][1:]:
        key, _, value = line.partition(": ")
        out.diagnostics[key] = value
    for lines in sections[1:]:
        if lines[0].endswith(":") and " " not in lines[0]:
            out.matrices[lines[0][:-1]] = np.array(
                [[float(v) for v in row.split()[1:]] for row in lines[1:]])
        elif ": " not in lines[0]:
            for row in lines:
                label, score = row.split()[:2]
                out.scores[label] = float(score)
    return out


# Reference values -------------------------------------------------------

def stationary(M: np.ndarray) -> np.ndarray:
    """Leading right eigenvector of a nonnegative matrix by LAPACK eig,
    normalized to sum 1."""
    values, vectors = np.linalg.eig(M)
    v = np.real(vectors[:, np.argmax(values.real)])
    return v / v.sum()


def iw_eig(C: np.ndarray) -> np.ndarray:
    """Influence weights: leading eigenvector of A^-1 C."""
    return stationary(C / C.sum(axis=0)[:, None])


def pagerank_eig(C: np.ndarray, alpha: float) -> np.ndarray:
    """Stationary vector of alpha C A^-1 + (1 - alpha)/n."""
    P = alpha * C / C.sum(axis=0) + (1.0 - alpha) / C.shape[0]
    return stationary(P)


def centred_log(d: np.ndarray) -> np.ndarray:
    mu = np.log(d)
    return mu - mu.mean()


def round_robin_closed_form(n: int, k: int) -> np.ndarray:
    M = np.full((n, n), -2.0 / (k * n * n))
    np.fill_diagonal(M, 2.0 * (n - 1) / (k * n * n))
    return M


def circular_closed_form(n: int, k: int) -> np.ndarray:
    """Ring covariance of centred log influence weights: at circular
    distance t, (n^2 - 1)/(6kn) - t(n - t)/(kn)."""
    idx = np.arange(n)
    diff = np.abs(np.subtract.outer(idx, idx))
    t = np.minimum(diff, n - diff)
    return (n * n - 1) / (6.0 * k * n) - t * (n - t) / (k * n)


# Checks -----------------------------------------------------------------

def _vector(out: Output, n: int) -> np.ndarray | None:
    names = [f"p{i + 1}" for i in range(n)]
    if sorted(out.scores) != sorted(names):
        return None
    return np.array([out.scores[name] for name in names])


def check_scores(out: Output, expected: np.ndarray, atol: float,
                 relative: bool = True) -> list[str]:
    """Scores by label against expected; with relative, the gap of each
    entry is divided by the entry."""
    got = _vector(out, len(expected))
    if got is None:
        return [f"expected scores for p1..p{len(expected)}, got "
                f"{len(out.scores)} labels"]
    gap = np.abs(got - expected)
    if relative:
        gap = gap / np.abs(expected)
    worst = float(gap.max())
    if not worst <= atol:
        return [f"scores off by {worst:.3g} (allowed {atol:g})"]
    return []


def check_bt_score_equations(out: Output, C: np.ndarray,
                             rtol: float = 1e-6) -> list[str]:
    """A Bradley-Terry MLE solves W_i = sum_j n_ij p_ij for every player."""
    mu = _vector(out, C.shape[0])
    if mu is None:
        return [f"expected abilities for p1..p{C.shape[0]}"]
    counts = C.copy()
    np.fill_diagonal(counts, 0.0)
    games = counts + counts.T
    wins = counts.sum(axis=1)
    p = 1.0 / (1.0 + np.exp(-np.subtract.outer(mu, mu)))
    residual = float(np.max(np.abs(wins - (games * p).sum(axis=1))))
    problems = []
    if residual > rtol * wins.max():
        problems.append(f"score-equation residual {residual:.3g} exceeds "
                        f"{rtol:g} x max wins {wins.max():.3g}")
    if abs(mu.sum()) > 1e-8 * max(1.0, np.abs(mu).max()):
        problems.append(f"abilities sum to {mu.sum():.3g}, not 0")
    return problems


def check_verdict(out: Output, expected: bool) -> list[str]:
    got = out.diagnostics.get("quasi_symmetric")
    want = "true" if expected else "false"
    return [] if got == want else [f"quasi_symmetric is {got}, expected {want}"]


def check_qs_pass(out: Output, d: np.ndarray) -> list[str]:
    """A quasi-symmetric input decomposes with scores d, gauge d[0] = 1."""
    return check_verdict(out, True) + check_scores(out, d / d[0], atol=1e-8)


def check_covariance(out: Output, target: np.ndarray) -> list[str]:
    got = out.matrices.get("covariance")
    if got is None or got.shape != target.shape:
        return ["missing or misshapen covariance block"]
    gap = float(np.max(np.abs(got - target)))
    if gap > 1e-9 * np.abs(target).max():
        return [f"covariance off the closed form by {gap:.3g}"]
    return []


def check_simulation(out: Output, target: np.ndarray,
                     replications: int) -> list[str]:
    """simulate: symmetric empirical covariance, the requested replication
    count, and the closed-form target block."""
    problems = []
    emp = out.matrices.get("empirical")
    if emp is None or emp.shape != target.shape:
        return ["missing or misshapen empirical block"]
    if not np.all(np.isfinite(emp)) or np.max(np.abs(emp - emp.T)) > \
            1e-12 * np.abs(emp).max():
        problems.append("empirical covariance is not symmetric and finite")
    if out.diagnostics.get("replications") != str(replications):
        problems.append(f"replications {out.diagnostics.get('replications')}"
                        f", expected {replications}")
    got = out.matrices.get("target")
    if got is None or got.shape != target.shape or \
            np.max(np.abs(got - target)) > 1e-9 * np.abs(target).max():
        problems.append("target block differs from the closed form")
    return problems

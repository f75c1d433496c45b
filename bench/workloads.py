"""Seeded inputs and call lists for the benchmark workloads.

Every input is built here with numpy alone, from the workload seed, and
never with ``pairrank.generators``: a change to the package cannot change
the data it is measured on. The same seed gives byte-identical files.

Each workload is a list of ``Call`` objects: the ``pairrank`` arguments, the
exit code a well-posed call should return, and the reference check for its
output (see ``reference.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import reference

WORKLOADS = ("dense-tables", "sparse-rings", "monte-carlo")

# Power iteration stops on a step of 1e-10, so on a slowly mixing ring the
# scores sit up to ~5e-5 (relative) from the fixed point at n = 200; dense
# chains mix in tens of steps and land within ~5e-8. Each tolerance leaves
# a margin of about ten over the largest gap measured when it was set.
DENSE_RTOL = 1e-6
RING_RTOL = 5e-4
BT_ATOL = 1e-6
SIM_REPS = 500


@dataclass(frozen=True)
class Call:
    """One CLI call: pairrank arguments, the exit code it should return, and
    a check that takes the parsed output and returns a list of problems."""

    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[reference.Output], list[str]]

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


def labels(n: int) -> list[str]:
    return [f"p{i + 1}" for i in range(n)]


def write_matrix(path: Path, C: np.ndarray) -> None:
    """Matrix layout: empty corner, column labels, one labelled row per
    player. Floats are written with repr, so the file holds the exact
    binary64 values the reference uses."""
    names = labels(C.shape[0])
    lines = ["," + ",".join(names)]
    for name, row in zip(names, C.tolist()):
        lines.append(name + "," + ",".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_articles(path: Path, articles: np.ndarray) -> None:
    rows = ["label,articles"] + [f"{name},{int(a)}" for name, a in
                                 zip(labels(len(articles)), articles)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def dense_qs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """C = diag(d) S with d in [0.5, 2] (d[0] = 1) and S symmetric with
    off-diagonal entries in [1, 10]."""
    d = rng.uniform(0.5, 2.0, n)
    d[0] = 1.0
    S = np.zeros((n, n))
    upper = np.triu_indices(n, k=1)
    S[upper] = rng.uniform(1.0, 10.0, len(upper[0]))
    return d[:, None] * (S + S.T), d


def noisy(rng: np.random.Generator, C: np.ndarray) -> np.ndarray:
    """Multiplicative lognormal noise breaks quasi-symmetry everywhere."""
    return C * rng.lognormal(0.0, 0.2, C.shape)


def ring_qs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """C = diag(d) S with S nonzero only on the ring edges (i, i+1 mod n):
    the slowest-mixing connected design, as in the paper's circular
    structure."""
    d = rng.uniform(0.5, 2.0, n)
    d[0] = 1.0
    idx = np.arange(n)
    S = np.zeros((n, n))
    s = rng.uniform(2.0, 8.0, n)
    S[idx, (idx + 1) % n] = s
    S[(idx + 1) % n, idx] = s
    return d[:, None] * S, d


def _rank(path: Path, method: str, fmt: str, *extra: str) -> tuple[str, ...]:
    return ("rank", str(path), "--method", method, *extra, "--format", fmt)


def _qs_rank_calls(path: Path, C: np.ndarray, d: np.ndarray, rtol: float,
                   methods: list[tuple[str, str]]) -> list[Call]:
    """Rank calls on a quasi-symmetric input, checked against the d the
    builder drew (and LAPACK eig for damped pagerank)."""
    a = C.sum(axis=0)
    calls = []
    for method, fmt in methods:
        if method == "bt":
            check = partial(reference.check_scores,
                            expected=reference.centred_log(d),
                            atol=BT_ATOL, relative=False)
        else:
            expected = {"iw": d, "total": d * a}.get(method)
            if method == "pagerank":
                expected = reference.pagerank_eig(C, 0.85)
            check = partial(reference.check_scores,
                            expected=expected / expected.sum(), atol=rtol)
        calls.append(Call(_rank(path, method, fmt), 0, check))
    return calls


def _noisy_rank_calls(path: Path, C: np.ndarray,
                      methods: list[tuple[str, str]]) -> list[Call]:
    calls = []
    for method, fmt in methods:
        if method == "bt":
            check = partial(reference.check_bt_score_equations, C=C)
        else:
            w = reference.iw_eig(C)
            expected = {"iw": w, "total": w * C.sum(axis=0)}.get(method)
            if method == "pagerank":
                expected = reference.pagerank_eig(C, 0.85)
            check = partial(reference.check_scores,
                            expected=expected / expected.sum(),
                            atol=DENSE_RTOL)
        calls.append(Call(_rank(path, method, fmt), 0, check))
    return calls


def _check_qs_call(path: Path, d: np.ndarray | None, fmt: str) -> Call:
    """check-qs on quasi-symmetric input must pass with scores d (gauge
    d[0] = 1); on noisy input it must exit 4 with quasi_symmetric false."""
    argv = ("check-qs", str(path), "--format", fmt)
    if d is None:
        return Call(argv, 4, partial(reference.check_verdict, expected=False))
    return Call(argv, 0, partial(reference.check_qs_pass, d=d))


def dense_tables(rng: np.random.Generator, work: Path) -> list[Call]:
    """Dense tables at n = 200 and 1000: parse, render and triplet bound."""
    qs200, d200 = dense_qs(rng, 200)
    noisy200 = noisy(rng, dense_qs(rng, 200)[0])
    qs1000, d1000 = dense_qs(rng, 1000)
    noisy1000 = noisy(rng, dense_qs(rng, 1000)[0])
    articles = rng.integers(1, 50, 200, endpoint=True)
    paths = {name: work / f"{name}.csv" for name in
             ("qs200", "noisy200", "qs1000", "noisy1000", "articles200")}
    for name, C in (("qs200", qs200), ("noisy200", noisy200),
                    ("qs1000", qs1000), ("noisy1000", noisy1000)):
        write_matrix(paths[name], C)
    write_articles(paths["articles200"], articles)

    total = d200 * qs200.sum(axis=0)
    ipp = total / articles
    calls = _qs_rank_calls(paths["qs200"], qs200, d200, DENSE_RTOL,
                           [("iw", "table"), ("total", "csv"),
                            ("pagerank", "json"), ("bt", "table")])
    calls.append(Call(_rank(paths["qs200"], "ipp", "json", "--articles",
                            str(paths["articles200"])), 0,
                      partial(reference.check_scores,
                              expected=ipp / ipp.sum(), atol=DENSE_RTOL)))
    calls += _noisy_rank_calls(paths["noisy200"], noisy200,
                               [("iw", "csv"), ("pagerank", "table"),
                                ("bt", "json")])
    calls += _qs_rank_calls(paths["qs1000"], qs1000, d1000, DENSE_RTOL,
                            [("iw", "json")])
    calls += _noisy_rank_calls(paths["noisy1000"], noisy1000,
                               [("bt", "json")])
    calls.append(_check_qs_call(paths["qs200"], d200, "table"))
    calls.append(_check_qs_call(paths["noisy200"], None, "json"))
    return calls


def sparse_rings(rng: np.random.Generator, work: Path) -> list[Call]:
    """Quasi-symmetric rings, n = 50 to 200: slow mixing puts the time in
    power iteration and Bradley-Terry MM. The well-posed bt calls at
    n >= 100 and check-qs at n = 100 exit 3 when this list was made; they stay
    in the list and count as failed calls."""
    calls = []
    plans = {
        50: [("iw", "table"), ("bt", "json"), ("check-qs", "table")],
        100: [("iw", "csv"), ("bt", "table"), ("pagerank", "json"),
              ("check-qs", "json")],
        150: [("total", "table"), ("bt", "csv")],
        200: [("iw", "json"), ("bt", "table")],
    }
    for n, plan in plans.items():
        C, d = ring_qs(rng, n)
        path = work / f"ring{n}.csv"
        write_matrix(path, C)
        a = C.sum(axis=0)
        for method, fmt in plan:
            if method == "check-qs":
                calls.append(_check_qs_call(path, d, fmt))
            elif method == "pagerank":
                expected = d * a
                calls.append(Call(
                    _rank(path, "pagerank", fmt, "--alpha", "1"), 0,
                    partial(reference.check_scores,
                            expected=expected / expected.sum(),
                            atol=RING_RTOL)))
            else:
                calls += _qs_rank_calls(path, C, d, RING_RTOL,
                                        [(method, fmt)])
    n, k = 100, 2
    calls.append(Call(
        ("asymptotics", "--structure", "circular", "--n", str(n), "--k",
         str(k), "--check", "--format", "json"), 0,
        partial(reference.check_covariance,
                target=reference.circular_closed_form(n, k))))
    return calls


def monte_carlo(rng: np.random.Generator, work: Path) -> list[Call]:
    """simulate on the two test-07 designs (solve-bound) and a 20-player
    round robin (draw-bound). The seed reaches the program as --seed."""
    calls = []
    for structure, n, k, fmt in (("circular", 7, 8, "json"),
                                 ("round-robin", 4, 8, "table"),
                                 ("round-robin", 20, 2, "json")):
        sim_seed = int(rng.integers(0, 2**32))
        target = (reference.circular_closed_form(n, k)
                  if structure == "circular"
                  else reference.round_robin_closed_form(n, k))
        calls.append(Call(
            ("simulate", "--structure", structure, "--n", str(n), "--k",
             str(k), "--reps", str(SIM_REPS), "--seed", str(sim_seed),
             "--format", fmt), 0,
            partial(reference.check_simulation, target=target,
                    replications=SIM_REPS)))
    return calls


BUILDERS = {"dense-tables": dense_tables, "sparse-rings": sparse_rings,
            "monte-carlo": monte_carlo}


def build(workload: str, seed: int, work: Path) -> list[Call]:
    """Write the workload's inputs under work and return its call list."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](np.random.default_rng(seed), work)


def input_hashes(work: Path) -> dict[str, str]:
    """sha256 of every generated input file, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.glob("*.csv"))}

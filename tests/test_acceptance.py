"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS|FAIL (...)`` line
with the measured numbers before asserting, so a plain ``pytest -rA`` run
doubles as a sign-off sheet. Tolerances and case counts here are the
product's contract; do not loosen them to make a run green.
"""

from __future__ import annotations

import json
import re
import time

import numpy as np

from pairrank import (
    AbilityVector,
    NotQuasiSymmetricError,
    SimulationConfig,
    bt_covariance,
    bt_deviance,
    check_triplets,
    circular,
    circular_covariance,
    decompose_qs,
    default_labels,
    delta_method_covariance,
    fit_bt,
    influence_weight,
    is_reversible,
    iw_from_pagerank,
    lexicographic_pairs,
    log_iw_jacobian,
    monte_carlo_covariance,
    pagerank,
    pagerank_from_iw,
    random_quasi_symmetric,
    round_robin,
    round_robin_covariance,
    stationary_derivative,
    transition_matrix,
    verify_equivalence,
)
from pairrank.cli import main

from oracles import (
    fd_log_iw_derivative,
    fd_stationary_derivative,
    random_counts,
)


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    assert ok, f"{name}: {detail}"


def _pair_pdot(P: np.ndarray, a: np.ndarray, i: int, j: int) -> np.ndarray:
    """dP/dt along the (i, j) pair direction at a general count matrix."""
    n = P.shape[0]
    M = np.zeros((n, n))
    e_i = np.eye(n)[i]
    e_j = np.eye(n)[j]
    M[:, i] = (P[:, i] - e_j) / a[i]
    M[:, j] = (e_i - P[:, j]) / a[j]
    return M


def _ring_dist(n: int) -> np.ndarray:
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(d, n - d)


def test_01_theorem_equivalence():
    """100 random quasi-symmetric matrices: decomposition residual, the
    eigenvector weights, and the logistic fit all agree with the common
    merit vector; the fit is saturated."""
    start = time.perf_counter()
    worst_residual = 0.0
    worst_deviance = 0.0
    worst_iw = 0.0
    worst_mu = 0.0
    for idx in range(100):
        n = 3 + idx % 18
        C = random_quasi_symmetric(n, seed=1000 + idx)
        # verify_equivalence raises unless d solves both routes' equations;
        # the routes' own solutions are compared with d here
        residual = verify_equivalence(C, tol=1e-10)
        worst_residual = max(worst_residual, residual)
        d = decompose_qs(C).d
        iw = influence_weight(C).scores
        worst_iw = max(worst_iw, float(np.max(np.abs(iw - d / d.sum()))))
        fit = fit_bt(C)
        log_d = np.log(d)
        worst_mu = max(worst_mu, float(np.max(np.abs(
            fit.abilities.mu - (log_d - log_d.mean())))))
        dev = bt_deviance(C, fit.abilities)
        worst_deviance = max(worst_deviance, dev)
    elapsed = time.perf_counter() - start
    ok = (worst_residual < 1e-10 and worst_iw <= 1e-8 and worst_mu <= 1e-6
          and worst_deviance < 1e-6 and elapsed < 10.0)
    _verdict(1, "theorem-equivalence", ok,
             f"100 matrices n in 3..20, max residual {worst_residual:.2e}, "
             f"max iw gap {worst_iw:.2e}, max ability gap {worst_mu:.2e}, "
             f"max deviance {worst_deviance:.2e}, {elapsed:.2f}s")


def test_02_two_metrics_one_eigenvector():
    """100 random irreducible matrices: converting the undamped stationary
    vector to influence weights (and back) reproduces the direct
    computations."""
    rng = np.random.default_rng(20260826)
    worst = 0.0
    for idx in range(100):
        n = 3 + idx % 13
        C = random_counts(rng, n)
        a = C.sum(axis=0)
        pi = pagerank(C, alpha=1.0)
        iw = influence_weight(C)
        d1 = np.max(np.abs(iw_from_pagerank(pi, a).scores - iw.scores))
        d2 = np.max(np.abs(pagerank_from_iw(iw, a).scores - pi.scores))
        worst = max(worst, d1, d2)
    ok = worst < 1e-8
    _verdict(2, "two-metrics-one-eigenvector", ok,
             f"100 matrices n in 3..15, max conversion error {worst:.2e}")


def test_03_round_robin_efficiency():
    """All-play-all designs n in 2..12, k in {1,2,5}: numerical delta-method
    covariance, closed form, and the logistic-fit covariance at equal
    strengths agree pairwise."""
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 13):
        for k in (1, 2, 5):
            C = round_robin(n, k)
            numerical = delta_method_covariance(C)
            closed = round_robin_covariance(n, k)
            logistic = bt_covariance(C, np.zeros(n))
            worst = max(worst,
                        float(np.max(np.abs(numerical - closed))),
                        float(np.max(np.abs(numerical - logistic))),
                        float(np.max(np.abs(closed - logistic))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _verdict(3, "round-robin-efficiency", ok,
             f"33 designs, max pairwise discrepancy {worst:.2e}, "
             f"{elapsed:.2f}s")


def test_04_circular_efficiency():
    """Ring designs n in 7..15, k in {1,2}: numerical covariance matches the
    logistic-fit covariance and the closed band values; the n=5 ring has the
    known numerical diagonal and second band."""
    worst_bt = 0.0
    worst_band = 0.0
    for n in range(7, 16):
        for k in (1, 2):
            C = circular(n, k)
            numerical = delta_method_covariance(C)
            logistic = bt_covariance(C, np.zeros(n))
            worst_bt = max(worst_bt,
                           float(np.max(np.abs(numerical - logistic))))
            dist = _ring_dist(n)
            bands = {
                0: (n * n - 1) / (6.0 * k * n),
                1: (n - 1) * (n - 5) / (6.0 * k * n),
                2: (n * n - 12 * n + 23) / (6.0 * k * n),
            }
            for d, value in bands.items():
                gap = float(np.max(np.abs(numerical[dist == d] - value)))
                worst_band = max(worst_band, gap)
    small = delta_method_covariance(circular(5, 1))
    dist5 = _ring_dist(5)
    small_diag = float(np.max(np.abs(small[dist5 == 0] - 0.8)))
    small_band2 = float(np.max(np.abs(small[dist5 == 2] + 0.4)))
    ok = (worst_bt < 1e-10 and worst_band < 1e-10
          and small_diag < 1e-10 and small_band2 < 1e-10)
    _verdict(4, "circular-efficiency", ok,
             f"18 designs, max vs logistic {worst_bt:.2e}, max band gap "
             f"{worst_band:.2e}; n=5 diag gap {small_diag:.2e}, "
             f"band2 gap {small_band2:.2e}")


def test_05_derivative_correctness():
    """Stationary-vector derivatives and the log-weight Jacobian agree with
    central finite differences (step 1e-6) on structured and random
    matrices."""
    rng = np.random.default_rng(777)
    cases = [round_robin(4, 1).counts, round_robin(9, 2).counts,
             circular(7, 1).counts, circular(10, 2).counts]
    for idx in range(20):
        n = 3 + idx % 13
        cases.append(random_counts(rng, n))
    worst_pi = 0.0
    worst_jac = 0.0
    for C in cases:
        n = C.shape[0]
        P = transition_matrix(C, 1.0)
        a = C.sum(axis=0)
        pi = pagerank(C, alpha=1.0).scores
        J = log_iw_jacobian(C)
        for col, (i, j) in enumerate(lexicographic_pairs(n)):
            x = stationary_derivative(P, pi, _pair_pdot(P, a, i, j))
            gap_pi = float(np.max(np.abs(x - fd_stationary_derivative(C, i, j))))
            gap_jac = float(np.max(np.abs(J[:, col]
                                          - fd_log_iw_derivative(C, i, j))))
            worst_pi = max(worst_pi, gap_pi)
            worst_jac = max(worst_jac, gap_jac)
    ok = worst_pi < 1e-7 and worst_jac < 1e-7
    _verdict(5, "derivative-correctness", ok,
             f"{len(cases)} matrices, all pairs; max stationary gap "
             f"{worst_pi:.2e}, max Jacobian gap {worst_jac:.2e}")


def test_06_reversibility_equivalence():
    """50 strictly positive matrices, half quasi-symmetric and half
    perturbed: the triplet check, the decomposition, and the reversibility
    test return the same verdict; all perturbed cases are negative."""
    verdicts_agree = True
    qs_all_true = True
    perturbed_all_false = True
    for idx in range(50):
        n = 3 + idx % 10
        C = random_quasi_symmetric(n, seed=5000 + idx)
        counts = C.counts.copy()
        perturbed = idx % 2 == 1
        if perturbed:
            counts[0, 1] *= 1.5
        triplet = bool(check_triplets(counts))
        try:
            decompose_qs(counts)
            decomposed = True
        except NotQuasiSymmetricError:
            decomposed = False
        reversible = bool(is_reversible(counts))
        if not (triplet == decomposed == reversible):
            verdicts_agree = False
        if perturbed and (triplet or decomposed or reversible):
            perturbed_all_false = False
        if not perturbed and not (triplet and decomposed and reversible):
            qs_all_true = False
    ok = verdicts_agree and qs_all_true and perturbed_all_false
    _verdict(6, "reversibility-equivalence", ok,
             f"50 matrices; verdicts agree: {verdicts_agree}, "
             f"clean all positive: {qs_all_true}, "
             f"perturbed all negative: {perturbed_all_false}")


def test_07_monte_carlo_efficiency():
    """Empirical covariance of centered log weights over 10,000 simulated
    tournaments vs the first-order target, entrywise within 4 Monte Carlo
    standard errors, for the n=4 all-play-all and the n=7 ring at 16 games
    per pair."""
    start = time.perf_counter()
    z_max = {}
    for structure, n in (("round-robin", 4), ("circular", 7)):
        config = SimulationConfig(
            abilities=AbilityVector(np.zeros(n), default_labels(n)),
            games_per_pair=16, replications=10_000, seed=42)
        result = monte_carlo_covariance(config, structure)
        if structure == "round-robin":
            target = round_robin_covariance(n, 8)
        else:
            target = circular_covariance(n, 8)
        z = (result.covariance - target) / result.standard_errors
        z_max[structure] = float(np.max(np.abs(z)))
    elapsed = time.perf_counter() - start
    ok = z_max["round-robin"] <= 4.0 and z_max["circular"] <= 4.0 \
        and elapsed < 60.0
    _verdict(7, "monte-carlo-efficiency", ok,
             f"round-robin max|z| {z_max['round-robin']:.2f}, "
             f"circular max|z| {z_max['circular']:.2f}, limit 4.00, "
             f"{elapsed:.1f}s")


def test_08_self_citation_invariance():
    """50 matrices with rewritten diagonals: eigenvector weights and the
    logistic fit do not move; the damped ranking does move somewhere."""
    rng = np.random.default_rng(888)
    worst_iw = 0.0
    worst_bt = 0.0
    best_pagerank_shift = 0.0
    for idx in range(50):
        n = 3 + idx % 10
        base = random_counts(rng, n)
        modified = base.copy()
        np.fill_diagonal(modified, rng.uniform(1.0, 10.0, size=n))
        d_iw = np.max(np.abs(influence_weight(base).scores
                             - influence_weight(modified).scores))
        d_bt = np.max(np.abs(fit_bt(base).abilities.mu
                             - fit_bt(modified).abilities.mu))
        d_pr = np.max(np.abs(pagerank(base, alpha=0.85).scores
                             - pagerank(modified, alpha=0.85).scores))
        worst_iw = max(worst_iw, float(d_iw))
        worst_bt = max(worst_bt, float(d_bt))
        best_pagerank_shift = max(best_pagerank_shift, float(d_pr))
    ok = worst_iw < 1e-10 and worst_bt < 1e-10 \
        and best_pagerank_shift > 1e-4
    _verdict(8, "self-citation-invariance", ok,
             f"50 matrices; max weight shift {worst_iw:.2e}, max fit shift "
             f"{worst_bt:.2e}, largest damped shift {best_pagerank_shift:.2e}")


def test_09_cli_end_to_end(tmp_path, capsys):
    """The 3-node worked example through the rank command reproduces the
    known scores for all three methods in all three output formats, and the
    bytes are identical across repeated runs."""
    path = tmp_path / "worked.csv"
    path.write_text(",a,b,c\na,0,1,1\nb,2,0,2\nc,4,4,0\n", encoding="utf-8")
    log4 = float(np.log(4.0))
    expectations = {
        ("iw",): {"a": 1 / 7, "b": 2 / 7, "c": 4 / 7},
        ("pagerank", "--alpha", "1"): {"a": 3 / 14, "b": 5 / 14, "c": 3 / 7},
        ("bt",): {"a": -log4 / 2, "b": 0.0, "c": log4 / 2},
    }
    float_re = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

    def run_once(method_args, fmt):
        assert main(["rank", str(path), "--method", method_args[0],
                     *method_args[1:], "--format", fmt]) == 0
        return capsys.readouterr().out

    stable = True
    worst_eigen = 0.0
    worst_fit = 0.0
    for method_args, expected in expectations.items():
        is_fit = method_args[0] == "bt"
        tol = 1e-8 if is_fit else 1e-9
        for fmt in ("table", "json", "csv"):
            first = run_once(method_args, fmt)
            second = run_once(method_args, fmt)
            if first.encode() != second.encode():
                stable = False
            got = {}
            if fmt == "json":
                obj = json.loads(first)
                got = {s["label"]: s["score"] for s in obj["scores"]}
            elif fmt == "csv":
                for line in first.splitlines()[1:]:
                    fields = line.split(",")
                    if fields[0] in expected:
                        got[fields[0]] = float(fields[1])
            else:
                for line in first.splitlines():
                    parts = line.split()
                    if parts and parts[0] in expected:
                        got[parts[0]] = float(float_re.search(
                            " ".join(parts[1:])).group())
            assert set(got) == set(expected), f"{method_args} {fmt}: {got}"
            gap = max(abs(got[label] - expected[label])
                      for label in expected)
            if is_fit:
                worst_fit = max(worst_fit, gap)
            else:
                worst_eigen = max(worst_eigen, gap)
            assert gap <= tol, (
                f"{method_args} {fmt}: max score error {gap:.2e} > {tol}")
    ok = stable and worst_eigen <= 1e-9 and worst_fit <= 1e-8
    _verdict(9, "cli-end-to-end", ok,
             f"3 methods x 3 formats; max eigen-score error "
             f"{worst_eigen:.2e} (tol 1e-9), max fit error {worst_fit:.2e} "
             f"(tol 1e-8), byte-stable: {stable}")

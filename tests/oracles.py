"""Independent reference computations used to cross-check package output.

Everything here avoids the package's own iterative code paths on purpose:
eigenvectors come straight from LAPACK (numpy.linalg.eig), maximum
likelihood fits from scipy.optimize with an analytic gradient, derivatives
from central finite differences of the LAPACK route, and graph components
and reachability from scipy.sparse.csgraph. Nothing here imports the package.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize
from scipy.sparse.csgraph import breadth_first_order, connected_components


def graph_components(adj: np.ndarray, strong: bool) -> list[list[int]]:
    """Strong (strong=True) or weak components of the directed graph with
    an edge u -> v wherever adj[u, v], each ascending, ordered by their
    smallest node."""
    count, labels = connected_components(
        np.asarray(adj, dtype=bool), directed=True,
        connection="strong" if strong else "weak")
    return sorted(np.flatnonzero(labels == c).tolist() for c in range(count))


def graph_reach(adj: np.ndarray, start: int) -> np.ndarray:
    """Mask of the nodes reached from start over the edges u -> v where
    adj[u, v], start included."""
    order = breadth_first_order(np.asarray(adj, dtype=bool), start,
                                directed=True, return_predecessors=False)
    reached = np.zeros(len(adj), dtype=bool)
    reached[order] = True
    return reached


def stationary_eig(P: np.ndarray) -> np.ndarray:
    """Stationary vector of a column-stochastic matrix: the eigenvector for
    the eigenvalue closest to 1, normalized to sum 1."""
    vals, vecs = np.linalg.eig(P)
    idx = np.argmin(np.abs(vals - 1.0))
    v = np.real(vecs[:, idx])
    return v / v.sum()


def influence_eig(C: np.ndarray) -> np.ndarray:
    """Influence weights as the eigenvector of A^-1 C closest to eigenvalue
    1, normalized to sum 1. Tolerates small negative entries in C (used for
    finite-difference probes)."""
    C = np.asarray(C, dtype=float)
    a = C.sum(axis=0)
    M = C / a[:, None]
    vals, vecs = np.linalg.eig(M)
    idx = np.argmin(np.abs(vals - 1.0))
    v = np.real(vecs[:, idx])
    return v / v.sum()


def pagerank_eig(C: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    P = C / C.sum(axis=0)
    if alpha < 1.0:
        P = alpha * P + (1.0 - alpha) / n
    return stationary_eig(P)


def bt_mle(C: np.ndarray) -> np.ndarray:
    """Sum-zero Bradley-Terry MLE by quasi-Newton with analytic gradient."""
    C = np.asarray(C, dtype=float).copy()
    np.fill_diagonal(C, 0.0)
    n = C.shape[0]

    def full(mu_free):
        return np.append(mu_free, -mu_free.sum())

    def nll(mu_free):
        mu = full(mu_free)
        diff = np.subtract.outer(mu, mu)
        return float((C * np.logaddexp(0.0, -diff)).sum())

    def grad(mu_free):
        mu = full(mu_free)
        diff = np.subtract.outer(mu, mu)
        q = 1.0 / (1.0 + np.exp(diff))  # 1 - logistic(mu_i - mu_j)
        g = (C * q).sum(axis=1) - (C * q).sum(axis=0)
        return -(g[:-1] - g[-1])

    res = minimize(nll, np.zeros(n - 1), jac=grad, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 10_000})
    mu = full(res.x)
    return mu - mu.mean()


def pair_direction(n: int, i: int, j: int) -> np.ndarray:
    F = np.zeros((n, n))
    F[i, j] = 1.0
    F[j, i] = -1.0
    return F


def fd_transition_derivative(C: np.ndarray, i: int, j: int,
                             h: float = 1e-6) -> np.ndarray:
    """Central finite difference of the column normalization C -> C A^-1."""
    C = np.asarray(C, dtype=float)
    F = pair_direction(C.shape[0], i, j)

    def P(M):
        return M / M.sum(axis=0)

    return (P(C + h * F) - P(C - h * F)) / (2.0 * h)


def fd_stationary_derivative(C: np.ndarray, i: int, j: int,
                             h: float = 1e-6) -> np.ndarray:
    """Central finite difference of C -> stationary vector, via LAPACK."""
    C = np.asarray(C, dtype=float)
    F = pair_direction(C.shape[0], i, j)

    def pi(M):
        return stationary_eig(M / M.sum(axis=0))

    return (pi(C + h * F) - pi(C - h * F)) / (2.0 * h)


def fd_log_iw_derivative(C: np.ndarray, i: int, j: int,
                         h: float = 1e-6) -> np.ndarray:
    """Central finite difference of C -> log influence weights, via LAPACK."""
    C = np.asarray(C, dtype=float)
    F = pair_direction(C.shape[0], i, j)
    hi = np.log(influence_eig(C + h * F))
    lo = np.log(influence_eig(C - h * F))
    return (hi - lo) / (2.0 * h)


def random_counts(rng: np.random.Generator, n: int, low: float = 0.5,
                  high: float = 10.0, zero_diagonal: bool = True) -> np.ndarray:
    """Strictly positive off-diagonal counts (hence irreducible)."""
    C = rng.uniform(low, high, size=(n, n))
    if zero_diagonal:
        np.fill_diagonal(C, 0.0)
    return C


def quasi_symmetric_ring(n: int,
                         seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Counts C = diag(d) S with S nonzero only on the ring edges
    (i, i+1 mod n), and the exact merit vector d (d[0] = 1). The ring is the
    slowest-mixing connected design, so iterative solvers struggle on it
    while the exact answer is known: iw proportional to d, undamped
    pagerank and total influence to d * a, abilities equal to centered
    log d."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 2.0, n)
    d[0] = 1.0
    idx = np.arange(n)
    s = rng.uniform(2.0, 8.0, n)
    S = np.zeros((n, n))
    S[idx, (idx + 1) % n] = s
    S[(idx + 1) % n, idx] = s
    return d[:, None] * S, d


def lognormal_quasi_symmetric(rng: np.random.Generator, sigma: float
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Counts C = diag(d) S for 5 to 79 players with log d ~ N(0, sigma^2),
    and d. S is symmetric, uniform in [1, 10] on a path through the players
    plus a random share of the other pairs, and zero elsewhere."""
    n = int(rng.integers(5, 80))
    d = np.exp(rng.normal(0.0, sigma, n))
    played = np.triu(rng.random((n, n)) < rng.uniform(0.05, 1.0), 1)
    played[np.arange(n - 1), np.arange(1, n)] = True
    S = np.zeros((n, n))
    S[played] = rng.uniform(1.0, 10.0, np.count_nonzero(played))
    return d[:, None] * (S + S.T), d


def two_block_quasi_symmetric(eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts C = diag(d) S on 40 players, and d (d[0] = 1): S uniform in
    [1, 10] within each half, and the halves joined by the one pair
    (0, 20) at strength eps. The chain is nearly decomposable, so a
    stationary solve's error grows like 1/eps."""
    rng = np.random.default_rng(0)
    d = rng.uniform(0.5, 2.0, 40)
    d[0] = 1.0
    S = np.triu(rng.uniform(1.0, 10.0, (40, 40)), 1)
    S[:20, 20:] = 0.0
    S[0, 20] = eps
    return d[:, None] * (S + S.T), d


def lognormal_table(seed, sizes: tuple[int, int],
                    densities: tuple[float, float], sigma) -> np.ndarray:
    """Lognormal(0, sigma) counts on a random share of the off-diagonal
    pairs. Drawn from default_rng(seed) in this order: n in sizes, the
    share in densities, sigma (when given as a range), the mask of playing
    pairs, then the counts."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(*sizes))
    density = rng.uniform(*densities)
    if np.ndim(sigma):
        sigma = rng.uniform(*sigma)
    played = rng.random((n, n)) < density
    np.fill_diagonal(played, False)
    C = np.zeros((n, n))
    C[played] = rng.lognormal(0.0, sigma, (n, n))[played]
    return C


def _mantissa_product(a: float, b: float, c: float) -> tuple[float, int]:
    """(a b) c as float64 with an unbounded exponent: the product of the
    frexp mantissas in that order, and the sum of the exponents."""
    (ma, ea), (mb, eb), (mc, ec) = (math.frexp(x) for x in (a, b, c))
    return ma * mb * mc, ea + eb + ec


def triplets(C, tol: float) -> tuple[float, list[tuple]]:
    """Triplet test by plain loops over Python floats: (max relative gap,
    every violation as (i, j, k, lhs, rhs, gap)). One-sided pairs come
    first, in row-major order of their positive direction, as (lo, hi, hi,
    c_pos, 0.0, 1.0); then each triplet i < j < k, in lexicographic order,
    whose products lhs = (c_ij c_jk) c_ki and rhs = (c_ik c_kj) c_ji differ
    by more than tol relative to the larger, as float64 with an unbounded
    exponent computes them: the products of the counts' frexp mantissas,
    with the exponents added, both scaled to the larger exponent. lhs and
    rhs are listed as plain float64 gives them (inf or 0 past its range).
    Triplets with a zero count in both products are skipped."""
    c = [[float(x) for x in row] for row in C]
    n = len(c)
    max_gap = 0.0
    found = []
    for i in range(n):
        for j in range(n):
            if i != j and c[i][j] > 0 and c[j][i] == 0:
                lo, hi = min(i, j), max(i, j)
                found.append((lo, hi, hi, c[i][j], c[j][i], 1.0))
                max_gap = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                lhs = c[i][j] * c[j][k] * c[k][i]
                rhs = c[i][k] * c[k][j] * c[j][i]
                ml, el = _mantissa_product(c[i][j], c[j][k], c[k][i])
                mr, er = _mantissa_product(c[i][k], c[k][j], c[j][i])
                if ml == mr == 0:
                    continue
                top = max(e for m, e in ((ml, el), (mr, er)) if m)
                ml, mr = math.ldexp(ml, el - top), math.ldexp(mr, er - top)
                gap = abs(ml - mr) / max(ml, mr)
                if gap > max_gap:
                    max_gap = gap
                if gap > tol:
                    found.append((i, j, k, lhs, rhs, gap))
    return max_gap, found

"""First-order (delta-method) sampling theory for log influence weights.

A tournament is perturbed along a pair direction F(i, j), the matrix with +1
at (i, j) and -1 at (j, i): one game between i and j flips from a j-win to an
i-win as t moves. The chain maps C -> P -> pi -> iw -> log iw, and each stage
has an explicit derivative:

* stationary_derivative: dpi/dt for any chain, x = (I - P)# Pdot pi with
  the group inverse (I - P)# = (I - P + pi e^T)^-1 - pi e^T (Golub and
  Meyer 1986), the unique sum-zero solution of (I - P) x = Pdot pi,
* log_iw_jacobian: d log iw / dt for every pair direction at a general C.

Composing the Jacobian with the per-pair binomial variance of the win counts
(n_ij p (1-p) = n_ij / 4 at even strength) gives the asymptotic covariance of
the centered log influence weights. Closed forms exist for the balanced
round robin and for the circular structure.

Pair directions use 0-based indices and columns are ordered lexicographically
over i < j.
"""

from __future__ import annotations

import numpy as np

from .counts import as_count_matrix
from .errors import ConsistencyError, DimensionError, DomainError
from .generators import _check_design
from .linalg import DEFAULT_TOL, _check_chain, stationary_vector
from .rankings import transition_matrix


def lexicographic_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def stationary_derivative(P, pi, Pdot) -> np.ndarray:
    """dpi/dt for a column-stochastic chain: the sum-zero solution of
    (I - P) x = Pdot pi, i.e. the group inverse of I - P applied to
    Pdot pi. pi must be a probability vector (finite, nonnegative, sum 1
    within 1e-8) and stationary for P within 1e-8.
    """
    P = np.asarray(P, dtype=float)
    Pdot = np.asarray(Pdot, dtype=float)
    pi = np.asarray(pi, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n) or Pdot.shape != (n, n) or pi.shape != (n,):
        raise DimensionError(
            f"incompatible shapes P{P.shape}, Pdot{Pdot.shape}, pi{pi.shape}")
    if not n:
        raise DimensionError(f"P is empty, got shape {P.shape}")
    # each guard is written so that a NaN fails it
    _check_chain(P)
    if not np.max(np.abs(Pdot.sum(axis=0))) <= 1e-8:
        raise DomainError("Pdot columns must sum to zero (tangent direction)")
    if not (np.all(pi >= 0) and abs(pi.sum() - 1.0) <= 1e-8):
        raise DomainError("pi is not a probability vector")
    if not np.max(np.abs(P @ pi - pi)) <= 1e-8:
        raise ConsistencyError("pi is not stationary for P within 1e-8")
    return _group_inverse(P, pi / pi.sum()) @ (Pdot @ pi)


def _group_inverse(P: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Group inverse (I - P)# = (I - P + pi e^T)^-1 - pi e^T of an
    irreducible column-stochastic P with stationary vector pi (sum 1).

    It maps every vector to the sum-zero slice and inverts I - P there.
    """
    n = P.shape[0]
    rank_one = np.repeat(pi[:, None], n, axis=1)
    return np.linalg.inv(np.eye(n) - P + rank_one) - rank_one


def _log_iw_parts(C, tol: float):
    """Factors (R, B, G, u) of d log iw / dt: along pair (i, j) the
    derivative is R z with z = B (e_i - e_j) + G (u_j e_i - u_i e_j).

    G is the group inverse of I - P and u = pi / a the unnormalized
    influence weights. Pair (i, j) moves column i of C by -e_j and column j
    by +e_i, so Pdot pi = u_i (P e_i - e_j) + u_j (e_i - P e_j) and pi moves
    by x = H e_i - H e_j + u_j G e_i - u_i G e_j, with H = G P diag(u).
    u = pi / a also moves with a (a_i by -1, a_j by +1): d u = z / a with
    z = x + u_i e_i - u_j e_j, hence B = H + diag(u). Then d log u = z / pi,
    less the shift of the normalizer sum(u), (1/a)^T z / sum(u):
    R = diag(1/pi) - 1 (1/a)^T / sum(u).
    """
    a = C.column_sums()
    P = transition_matrix(C, 1.0)
    pi = stationary_vector(P, tol=tol).vector
    G = _group_inverse(P, pi)
    u = pi / a
    B = G @ (P * u) + np.diag(u)
    R = np.diag(1.0 / pi) - np.outer(np.ones_like(u), 1.0 / a) / u.sum()
    return R, B, G, u


def log_iw_jacobian(C, tol: float = DEFAULT_TOL) -> np.ndarray:
    """n x n(n-1)/2 Jacobian of log normalized influence weights with
    respect to the pair perturbations, columns in lexicographic pair order.

    Because the weights sum to 1, each column J[:, c] satisfies
    sum_i iw_i J[i, c] = 0; at uniform weights (balanced structures) the
    plain column sums vanish too. Requires an undamped-usable C (positive
    column sums, irreducible).
    """
    R, B, G, u = _log_iw_parts(as_count_matrix(C), tol)
    i, j = np.triu_indices(u.size, k=1)
    # two pair-sized buffers; mode="clip" lets take write to T without a copy
    D, T = B[:, i], np.take(B, j, axis=1)
    D -= T
    D += np.multiply(np.take(G, i, axis=1, out=T, mode="clip"), u[j], out=T)
    D -= np.multiply(np.take(G, j, axis=1, out=T, mode="clip"), u[i], out=T)
    return np.matmul(R, D, out=T)


def delta_method_covariance(C, tol: float = DEFAULT_TOL) -> np.ndarray:
    """First-order covariance of centered log influence weights for an
    arbitrary structure: J diag(n_ij / 4) J^T with n_ij = c_ij + c_ji the
    games actually played by each pair (zero-game pairs contribute nothing).

    The sum over pairs is formed in closed form from n x n arrays, never
    from the n x n(n-1)/2 Jacobian: with W = (C + C^T)/4 off the diagonal
    and the factors of _log_iw_parts, it is R (B L1 B^T + G L2 G^T + X +
    X^T) R^T, X = B L3 G^T, where L1 = diag(W 1) - W,
    L2 = diag(W u^2) - W o u u^T and L3 = diag(W u) - diag(u) W.
    """
    C = as_count_matrix(C)
    R, B, G, u = _log_iw_parts(C, tol)
    W = (C.counts + C.counts.T) / 4.0
    np.fill_diagonal(W, 0.0)
    Wu = W * u
    L1 = np.diag(W.sum(axis=1)) - W
    L2 = np.diag(Wu @ u) - u[:, None] * Wu
    L3 = np.diag(Wu.sum(axis=1)) - u[:, None] * W
    X = B @ L3 @ G.T
    return R @ (B @ L1 @ B.T + G @ L2 @ G.T + X + X.T) @ R.T


def round_robin_covariance(n: int, k: int) -> np.ndarray:
    """Closed-form covariance for the balanced round robin:
    diagonal 2(n-1)/(k n^2), off-diagonal -2/(k n^2)."""
    _check_design(n, k)
    M = np.full((n, n), -2.0 / (k * n * n))
    np.fill_diagonal(M, 2.0 * (n - 1) / (k * n * n))
    return M


def circular_covariance(n: int, k: int) -> np.ndarray:
    """Closed-form covariance for the circular structure (each node plays
    2k games with each of its two ring neighbors): (2/k) times the
    pseudoinverse of the cycle Laplacian.

    The entry at circular distance d is (n^2-1)/(6kn) - d(n-d)/(kn), for
    every n >= 3: (n^2-1)/(6kn), (n-1)(n-5)/(6kn), (n^2-12n+23)/(6kn) for
    d = 0, 1, 2.
    """
    _check_design(n, k, ring=True)
    # d (n - d) takes the same value at |i - j| and at n - |i - j|, so the
    # plain index distance stands in for the circular one
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return (n * n - 1 - 6.0 * d * (n - d)) / (6.0 * k * n)

"""First-order (delta-method) sampling theory for log influence weights.

The unnormalized influence weights u = pi / a (pi stationary for
P = C A^-1, A = diag(a), a the column sums) are the fixed point
(C - A) u = 0. A pair direction F(i, j), +1 at (i, j) and -1 at (j, i),
flips one game between i and j from a j-win to an i-win: C moves by F, a
by e_j - e_i, and so (C - A) u by (u_i + u_j)(e_i - e_j). As
C - A = (P - I) A, the fixed point moves by d log u = (u_i + u_j)
diag(1/pi) G (e_i - e_j) up to a multiple of 1, with G = (I - P)# =
(I - P + pi e^T)^-1 - pi e^T the group inverse (Golub and Meyer 1986).
Normalizing iw = u / sum(u) subtracts the iw-weighted mean, multiple
included: d log iw = (u_i + u_j) M (e_i - e_j), M = (I - 1 iw^T)
diag(1/pi) G.

* stationary_derivative: dpi/dt = G Pdot pi for any chain,
* log_iw_jacobian: d log iw / dt for every pair direction at a general C,
* delta_method_covariance: with the per-pair binomial variance n_ij / 4 of
  the win counts at even strength, M L M^T, L the Laplacian of the pair
  weights (n_ij / 4)(u_i + u_j)^2.

That is the covariance of log iw with iw normalized to sum 1: its rows
weighted by iw vanish, its plain column sums need not. At uniform weights,
as in every balanced design, it equals the covariance of the centered log
weights; closed forms exist for the balanced round robin and the ring.

Pair directions use 0-based indices and columns are ordered lexicographically
over i < j.
"""

from __future__ import annotations

import numpy as np

from .counts import _summable, as_count_matrix
from .errors import ConsistencyError, DimensionError, DomainError
from .linalg import (DEFAULT_TOL, _check_chain, _check_design,
                     _require_integer, stationary_vector)
from .rankings import transition_matrix


def lexicographic_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered pairs (i, j), i < j, in lexicographic order."""
    _require_integer("n", n)
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
    n = P.shape[0] if P.ndim else 0
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
    """Factors (M, u) of d log iw / dt, (u_i + u_j) M (e_i - e_j) along
    pair (i, j), as derived in the module docstring, with the counts and
    2^e they were scaled by (counts._summable); u goes as 1/C, M not."""
    S = _summable(C)
    e = int(np.frexp(S.counts.max())[1] - np.frexp(C.counts.max())[1])
    P = transition_matrix(S, 1.0)
    pi = stationary_vector(P, tol=tol).vector
    M = _group_inverse(P, pi)
    M /= pi[:, None]
    u = pi / S.column_sums()
    M -= (u / u.sum()) @ M
    return M, u, S.counts, e


def log_iw_jacobian(C, tol: float = DEFAULT_TOL) -> np.ndarray:
    """n x n(n-1)/2 Jacobian of log normalized influence weights with
    respect to the pair perturbations, columns in lexicographic pair order.

    Because the weights sum to 1, each column J[:, c] satisfies
    sum_i iw_i J[i, c] = 0; at uniform weights (balanced structures) the
    plain column sums vanish too. Requires an undamped-usable C (positive
    column sums, irreducible).
    """
    M, u, _, e = _log_iw_parts(as_count_matrix(C), tol)
    i, j = np.triu_indices(u.size, k=1)
    # two pair-sized buffers: the differences and one taken copy
    J = M[:, i]
    J -= np.take(M, j, axis=1)
    J *= u[i] + u[j]
    return np.ldexp(J, e, out=J)


def delta_method_covariance(C, tol: float = DEFAULT_TOL) -> np.ndarray:
    """First-order covariance of log influence weights normalized to sum
    1 (iw^T S = 0), for an arbitrary structure: J diag(n_ij / 4) J^T with
    n_ij = c_ij + c_ji the games each pair played. It is formed from n x n
    arrays as M L M^T, L the Laplacian of the pair weights
    (n_ij / 4)(u_i + u_j)^2, never from the n x n(n-1)/2 Jacobian.
    """
    M, u, counts, e = _log_iw_parts(as_count_matrix(C), tol)
    # L goes as C u^2: u times 2^h, h half C's exponent, keeps L near 1
    h = int(np.frexp(counts.max())[1]) // 2
    u = np.ldexp(u, h)
    # L in place: -(n_ij / 4)(u_i + u_j)^2 off the diagonal, row sums on it
    L = np.add(counts, counts.T)
    L *= np.square(np.add.outer(u, u))
    L *= -0.25
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    V = M @ L @ M.T
    return np.ldexp(V, e - 2 * h, out=V)


def round_robin_covariance(n: int, k: float) -> np.ndarray:
    """Closed-form covariance for the balanced round robin:
    diagonal 2(n-1)/(k n^2), off-diagonal -2/(k n^2)."""
    n = _check_design(n, k)
    M = np.full((n, n), -2.0 / (k * n * n))
    np.fill_diagonal(M, 2.0 * (n - 1) / (k * n * n))
    return M


def circular_covariance(n: int, k: float) -> np.ndarray:
    """Closed-form covariance for the circular structure (each node plays
    2k games with each of its two ring neighbors): (2/k) times the
    pseudoinverse of the cycle Laplacian.

    The entry at circular distance d is (n^2-1)/(6kn) - d(n-d)/(kn), for
    every n >= 3: (n^2-1)/(6kn), (n-1)(n-5)/(6kn), (n^2-12n+23)/(6kn) for
    d = 0, 1, 2.
    """
    n = _check_design(n, k, ring=True)
    # d (n - d) takes the same value at |i - j| and at n - |i - j|, so the
    # plain index distance stands in for the circular one
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return (n * n - 1 - 6.0 * d * (n - d)) / (6.0 * k * n)

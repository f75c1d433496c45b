"""Dense linear-algebra kernels: column sums, the stationary vector of a
chain, power iteration, pseudoinverse, connected components and
irreducibility.

stationary_vector is the one kernel every ranking goes through: a single LU
solve, followed by a residual check against tol. leading_eigenvector (lazy
power iteration) and pseudoinverse (SVD) stay public for general matrices;
no ranking path uses them.

All functions take and return plain numpy arrays; wrappers with labels live in
higher-level modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DecompositionError, DimensionError,
                     DomainError, ReducibilityError)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    return M


def column_sums(C) -> np.ndarray:
    """Vector of column sums of a square matrix (element j = sum of column j)."""
    return _as_square(C).sum(axis=0)


@dataclass(frozen=True)
class EigenResult:
    """Leading eigenpair found by power iteration.

    vector is normalized to sum 1 when nonnegative, otherwise to unit 2-norm
    with the largest-magnitude entry positive. value is the 1-norm ratio
    ||M v|| / ||v|| at the returned vector, and residual is the max-norm of
    M v - value * v.
    """

    vector: np.ndarray
    value: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class StationaryResult:
    """Stationary vector (sum 1) and its residual max|P x - x|."""

    vector: np.ndarray
    residual: float


def stationary_vector(P, tol: float = DEFAULT_TOL) -> StationaryResult:
    """Stationary vector of an irreducible column-stochastic matrix.

    Solves (I - P) x = 0 with sum(x) = 1 in one LU solve, the last equation
    replaced by the normalization (the system is nonsingular exactly when
    the stationary vector is unique). tol bounds the residual max|P x - x|,
    checked on the returned vector; a larger residual raises the
    convergence error.
    """
    P = _as_square(P)
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if np.max(np.abs(P.sum(axis=0) - 1.0)) > 1e-8:
        raise DomainError("P is not column-stochastic")
    n = P.shape[0]
    A = np.eye(n) - P
    A[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise ReducibilityError(
            "the chain has more than one stationary vector (it is not "
            "irreducible)") from None
    x = np.clip(x, 0.0, None)
    x /= x.sum()
    residual = float(np.max(np.abs(P @ x - x)))
    if not residual <= tol:
        raise ConvergenceError(
            f"stationary solve residual {residual:.3g} exceeds tol {tol:.3g}",
            residual=residual)
    return StationaryResult(x, residual)


def leading_eigenvector(M, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> EigenResult:
    """Dominant eigenpair of a nonnegative square matrix by power iteration.

    Internally iterates the lazy map v <- (v + M v)/2, which has the same
    eigenvectors as M but shifts every eigenvalue toward 1, so periodic
    chains (even cycles) converge instead of oscillating. Convergence
    requires both successive iterates within tol (max-norm) and the
    eigen-residual below tol * max(1, |value|).
    """
    M = _as_square(M)
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    n = M.shape[0]
    v = np.full(n, 1.0 / n)
    value = 0.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        w = M @ v
        norm_w = np.abs(w).sum()
        if norm_w == 0.0:
            raise ConvergenceError(
                "power iteration hit the zero vector; matrix has no "
                "positive dominant eigenvalue reachable from a uniform start",
                residual=np.inf, iterations=it)
        value = norm_w / np.abs(v).sum()
        residual = float(np.max(np.abs(w - value * v)))
        v_next = 0.5 * (v + w)
        v_next = v_next / np.abs(v_next).sum()
        diff = float(np.max(np.abs(v_next - v)))
        v = v_next
        if diff < tol and residual <= tol * max(1.0, abs(value)):
            return EigenResult(_normalize_eigvec(v), float(value), it, residual)
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3g})",
        residual=residual, iterations=max_iter)


def _normalize_eigvec(v: np.ndarray) -> np.ndarray:
    if np.all(v >= -1e-15):
        v = np.clip(v, 0.0, None)
        return v / v.sum()
    v = v / np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return v


def pseudoinverse(M) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below max(shape) * eps * s_max are treated as zero.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {M.shape}")
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed to converge: {exc}") from exc
    if s.size == 0:
        return M.T
    cutoff = max(M.shape) * np.finfo(float).eps * s[0]
    inv = np.zeros_like(s)
    keep = s > cutoff
    inv[keep] = 1.0 / s[keep]
    return (Vt.T * inv) @ U.T


def _components(adj: np.ndarray) -> list[list[int]]:
    """Node groups of the graph with an edge u -> v wherever adj[u, v], each
    the set reached from its smallest unvisited node, in ascending order.

    For a symmetric adj these are the connected components. For any adj the
    first group is everything reachable from node 0.
    """
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            new = np.flatnonzero(adj[u] & ~seen)
            seen[new] = True
            comp.extend(new.tolist())
            stack.extend(new.tolist())
        comps.append(sorted(comp))
    return comps


def is_irreducible(C) -> bool:
    """True when the directed graph on the positive entries of C is strongly
    connected (edge j -> i for every c_ij > 0).

    A single node is trivially irreducible.
    """
    C = _as_square(C)
    if C.shape[0] == 1:
        return True
    adj = C > 0
    return len(_components(adj)) == 1 and len(_components(adj.T)) == 1

"""Dense linear-algebra kernels: column sums, the stationary vector of a
chain, connected components and irreducibility.

stationary_vector is the one kernel every ranking goes through: a single LU
solve, followed by a residual check against tol.

All functions take and return plain numpy arrays; wrappers with labels live in
higher-level modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DimensionError, DomainError,
                     ReducibilityError)

DEFAULT_TOL = 1e-12


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    return M


def column_sums(C) -> np.ndarray:
    """Vector of column sums of a square matrix (element j = sum of column j)."""
    return _as_square(C).sum(axis=0)


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

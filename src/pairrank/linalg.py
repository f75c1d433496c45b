"""Dense linear-algebra kernels: the stationary vector of a chain,
connected components and irreducibility.

stationary_vector is the one kernel every ranking goes through: a single LU
solve, followed by a residual check against tol. It also solves a stack of
chains at once, as the Monte Carlo does.

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


@dataclass(frozen=True)
class StationaryResult:
    """Stationary vector (sum 1) and its residual max|P x - x|; on a stack,
    one vector per row and an array of residuals."""

    vector: np.ndarray
    residual: float | np.ndarray


def stationary_vector(P, tol: float = DEFAULT_TOL) -> StationaryResult:
    """Stationary vector of an irreducible column-stochastic matrix, or of
    each matrix in a stack of shape (m, n, n).

    Solves (I - P) x = 0 with sum(x) = 1 in one LU solve, the last equation
    replaced by the normalization (the system is nonsingular exactly when
    the stationary vector is unique). tol bounds the residual max|P x - x|,
    checked on the returned vector; a larger residual raises the
    convergence error, for the first such matrix of a stack. A stack gives
    each matrix bit for bit the result it would get alone.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim not in (2, 3) or P.shape[-1] != P.shape[-2]:
        raise DimensionError(
            f"expected a square matrix or a stack of them, got shape "
            f"{P.shape}")
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if not np.max(np.abs(P.sum(axis=-2) - 1.0)) <= 1e-8:
        raise DomainError("P is not column-stochastic")
    n = P.shape[-1]
    A = np.eye(n) - P
    A[..., -1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise ReducibilityError(
            "the chain has more than one stationary vector (it is not "
            "irreducible)") from None
    x = np.clip(x, 0.0, None)
    x /= x.sum(axis=-1, keepdims=True)
    residual = np.max(np.abs((P @ x[..., None])[..., 0] - x), axis=-1)
    failed = np.flatnonzero(~(residual <= tol))
    if failed.size:
        first = float(residual.flat[failed[0]])
        where = f" for matrix {failed[0]} of the stack" if P.ndim == 3 else ""
        raise ConvergenceError(
            f"stationary solve residual {first:.3g} exceeds tol {tol:.3g}"
            f"{where}", residual=first)
    return StationaryResult(x, float(residual) if P.ndim == 2 else residual)


def _search(adj: np.ndarray, start: int = 0, seen=None):
    """Depth-first search from start over the edges u -> v where adj[u, v],
    past the nodes marked in seen, until all are. Returns the steps (u, the
    nodes first reached from u) in order, and seen with those marked too."""
    seen = np.zeros(adj.shape[0], dtype=bool) if seen is None else seen
    seen[start] = True
    stack, steps, left = [start], [], seen.size - np.count_nonzero(seen)
    while stack and left:
        u = stack.pop()
        row = adj[u] & ~seen
        new = row.nonzero()[0]
        seen |= row
        left -= len(new)
        stack.extend(new.tolist())
        steps.append((u, new))
    return steps, seen


def _components(adj: np.ndarray) -> list[list[int]]:
    """Nodes reached from each smallest unvisited node over the edges u -> v
    where adj[u, v], ascending: the components when adj is symmetric."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    comps = []
    while not seen.all():
        before = seen.copy()
        _search(adj, int(np.argmin(seen)), seen)
        comps.append(np.flatnonzero(seen & ~before).tolist())
    return comps


def _closed_group(adj: np.ndarray) -> np.ndarray | None:
    """None when the graph of adj is strongly connected, else a mask of a
    group with no edge into it: what node 0 cannot reach, or else what
    reaches node 0. For n >= 2 counts C and adj = C > 0, None is exactly
    when C A^-1 has a unique positive stationary vector and exactly when
    the Bradley-Terry MLE exists (Zermelo 1929; Ford 1957)."""
    reached = _search(adj)[1]
    if not reached.all():
        return ~reached
    reached = _search(adj.T)[1]
    return None if reached.all() else reached


def is_irreducible(C) -> bool:
    """True when the positive entries of C form a strongly connected graph."""
    return _closed_group(_as_square(C) > 0) is None

"""Dense linear-algebra kernels: the stationary vector of a chain,
connected components and irreducibility.

stationary_vector is the one kernel every ranking goes through: a single LU
solve, followed by a residual check against tol. It also solves a stack of
chains at once, as the Monte Carlo does.

The one graph traversal is _levels, a breadth-first search of a graph or
a stack of them; components and strong connectivity are built on it.

The package's input guards live here too: _check_tol, _check_chain,
_require_integer (an Integral, not a bool) and _check_design.

All functions take and return plain numpy arrays; wrappers with labels live in
higher-level modules.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import (ConvergenceError, DimensionError, DomainError,
                     ReducibilityError)

DEFAULT_TOL = 1e-12


def _check_tol(tol) -> None:
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")


def _check_chain(P: np.ndarray) -> None:
    """Raise unless P, or each matrix of a stack, is column-stochastic:
    entries >= 0 and columns summing to 1 within 1e-8. A NaN fails."""
    if not (P.min() >= 0 and np.max(np.abs(P.sum(axis=-2) - 1.0)) <= 1e-8):
        raise DomainError("P is not column-stochastic")


def _require_integer(name: str, value) -> None:
    """Reject a value that is not an integer, bool included: a float would
    draw fractional games, truncate to another key or size no array."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def _check_design(n: int, k: float, ring: bool = False) -> int:
    """Reject a non-integer n, n < 2 (n < 3 on a ring), a k that is not a
    real number (a bool or a string), k < 1, an n x n float64 array numpy
    cannot index, and 6 k n^2 (a closed-form denominator) beyond floats.
    Return n as a Python int."""
    _require_integer("n", n)
    if ring and n < 3:
        raise DomainError(f"a ring needs n >= 3, got {n}")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if isinstance(k, bool) or not isinstance(k, Real):
        raise DomainError(f"k must be a real number, got {k!r}")
    if not k >= 1:
        raise DomainError(f"need k >= 1, got {k}")
    n = int(n)
    if (n * n * 8 > np.iinfo(np.intp).max
            or 6 * k * n * n > sys.float_info.max):
        raise DomainError(
            f"n={n}, k={k} is too large for a float64 n x n array")
    return n


@dataclass(frozen=True)
class StationaryResult:
    """Stationary vector (sum 1) and its residual max|P x - x|; on a stack,
    one vector per row and an array of residuals."""

    vector: np.ndarray
    residual: float | np.ndarray


def stationary_vector(P, tol: float = DEFAULT_TOL) -> StationaryResult:
    """Stationary vector of an irreducible, nonnegative column-stochastic
    matrix, or of each matrix in a stack of shape (m, n, n).

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
    if not P.size:
        raise DimensionError(f"P is empty, got shape {P.shape}")
    _check_tol(tol)
    _check_chain(P)
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


def _levels(adj: np.ndarray, start: int = 0) -> np.ndarray:
    """Breadth-first levels from start over the edges u -> v where
    adj[..., u, v], of a graph (n, n) or each graph of a stack (m, n, n):
    edges on a shortest path from start, -1 where it cannot reach. The rows
    of a level's nodes are read together, each reached node's row once,
    until every node is reached."""
    graphs = adj.reshape(-1, *adj.shape[-2:])
    level = np.full(graphs.shape[:2], -1)
    level[:, start] = 0
    g, u = np.arange(len(graphs)), np.full(len(graphs), start)
    while g.size and level.min() < 0:
        depth = level.max() + 1
        at, v = (graphs[g, u] & (level < 0)[g]).nonzero()
        level[g[at], v] = depth
        g, u = (level == depth).nonzero()
    return level.reshape(adj.shape[:-1])


def _components(adj: np.ndarray) -> list[list[int]]:
    """Components of the graph of a symmetric adj, each ascending, in the
    order of their smallest node."""
    label = np.full(adj.shape[0], -1)
    while (label < 0).any():
        label[_levels(adj, int(np.argmin(label))) >= 0] = label.max() + 1
    return [np.flatnonzero(label == c).tolist()
            for c in range(label.max(initial=-1) + 1)]


def _closed_group(adj: np.ndarray) -> np.ndarray:
    """A mask of a group with no edge into it, of a graph or each graph of
    a stack: what node 0 cannot reach, or else what reaches node 0; all
    False exactly when the graph is strongly connected. For n >= 2 counts C
    and adj = C > 0, exactly when C A^-1 has a unique positive stationary
    vector and the Bradley-Terry MLE exists (Zermelo 1929; Ford 1957)."""
    ahead = _levels(adj) >= 0
    behind = _levels(np.swapaxes(adj, -1, -2)) >= 0
    return np.where(ahead.all(axis=-1, keepdims=True),
                    behind & ~behind.all(axis=-1, keepdims=True), ~ahead)


def is_irreducible(C) -> bool:
    """True when the positive entries of C form a strongly connected graph."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {C.shape}")
    if C.size == 0:
        raise DimensionError("C is empty, got shape (0, 0)")
    return not _closed_group(C > 0).any()

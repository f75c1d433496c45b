"""Eigenvector ranking methods on paired-comparison count matrices.

Every method reduces to the stationary vector pi of the damped
column-stochastic chain

    P_alpha = alpha C A^-1 + ((1 - alpha)/n) e e^T,  A = diag(column sums a),

built by one formula for every alpha (transition_matrix, a zero-sum column
uniform) and found by one direct solve (linalg.stationary_vector); tol
bounds that solve's residual max|P x - x|. alpha = 1 is the undamped chain
P = C A^-1; alpha < 1 gives the damped analogue of each method. All four
methods return probability-normalized score vectors:

* pagerank: pi itself.
* influence_weight: normalize(pi / a). At alpha = 1 this is the fixed point
  of w_i = sum_j w_j c_ij / sum_j c_ji, i.e. the leading eigenvector of
  A^-1 C, invariant to the diagonal of C and to global rescaling of any
  single column pair structure.
* total_influence: influence weight times column sum, renormalized. Equals
  pagerank at the same alpha.
* influence_per_publication: total influence divided by a per-node size
  vector, renormalized.

The two families are linked by the exact correspondences iw_from_pagerank
and pagerank_from_iw (w proportional to A^-1 pi and back).

No method depends on the scale of C, so a table whose sums would overflow
float64 is ranked as counts._summable scales it, by a power of two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counts import _summable, as_count_matrix
from .errors import (DanglingNodeError, DimensionError, DomainError,
                     ReducibilityError)
from .linalg import DEFAULT_TOL, is_irreducible, stationary_vector

METHODS = ("pagerank", "influence_weight", "total_influence",
           "influence_per_publication")


@dataclass(frozen=True)
class RankingVector:
    """Probability-normalized scores aligned with labels."""

    scores: np.ndarray
    labels: tuple[str, ...]
    method: str

    def __post_init__(self):
        scores = np.array(self.scores, dtype=float)
        if scores.ndim != 1 or scores.shape[0] != len(self.labels):
            raise DimensionError(
                f"{scores.shape} scores for {len(self.labels)} labels")
        if not np.all(np.isfinite(scores)):
            raise DomainError("scores contain non-finite entries")
        if np.any(scores < -1e-12):
            raise DomainError("scores must be nonnegative")
        if self.method not in METHODS:
            raise DomainError(f"unknown method {self.method!r}")
        if abs(scores.sum() - 1.0) > 1e-8:
            raise DomainError(
                f"scores must sum to 1, got {scores.sum():.12g}")
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", tuple(self.labels))

    def as_dict(self) -> dict[str, float]:
        return {lab: float(s) for lab, s in zip(self.labels, self.scores)}


def transition_matrix(C, alpha: float = 1.0) -> np.ndarray:
    """Column-stochastic transition matrix of the damped comparison chain.

    One formula for every alpha: columns divided by their sums, a zero-sum
    column made uniform, then damped in place (skipped at alpha = 1, where
    it would multiply by 1 and add 0). At alpha = 1 the chain must be
    usable: every column sum positive and the graph strongly connected.
    """
    C = _summable(as_count_matrix(C))
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    a = C.column_sums()
    dangling = a <= 0
    if alpha == 1.0 and dangling.any():
        raise DanglingNodeError(
            [C.labels[i] for i in np.flatnonzero(dangling)])
    if alpha == 1.0 and not is_irreducible(C.counts):
        raise ReducibilityError(
            "comparison graph is not strongly connected; the undamped chain "
            "has no unique stationary vector (use alpha < 1)")
    P = C.counts / np.where(dangling, 1.0, a)
    P[:, dangling] = 1.0 / C.n
    if alpha < 1.0:
        P *= alpha
        P += (1.0 - alpha) / C.n
    return P


def pagerank(C, alpha: float = 0.85, tol: float = DEFAULT_TOL) -> RankingVector:
    """Stationary vector of the damped chain, normalized to sum 1."""
    C = as_count_matrix(C)
    P = transition_matrix(C, alpha)
    pi = stationary_vector(P, tol=tol).vector
    return RankingVector(pi, C.labels, "pagerank")


def influence_weight(C, alpha: float = 1.0,
                     tol: float = DEFAULT_TOL) -> RankingVector:
    """Size-free eigenvector weights normalize(pi / a), pi the stationary
    vector of the chain at damping alpha and a the column sums.

    Requires positive column sums, and at alpha = 1 an irreducible
    comparison graph. At alpha = 1 this is the leading eigenvector of
    A^-1 C, and it does not change when the diagonal of C changes.
    """
    C = _summable(as_count_matrix(C))
    return iw_from_pagerank(pagerank(C, alpha, tol=tol), C.column_sums())


def total_influence(C, alpha: float = 1.0,
                    tol: float = DEFAULT_TOL) -> RankingVector:
    """Influence weight scaled by column sums; equals pagerank at the same
    alpha."""
    C = _summable(as_count_matrix(C))
    w = influence_weight(C, alpha, tol=tol)
    scores = w.scores * C.column_sums()
    return RankingVector(scores / scores.sum(), C.labels, "total_influence")


def influence_per_publication(C, articles, alpha: float = 1.0,
                              tol: float = DEFAULT_TOL) -> RankingVector:
    """Total influence divided entrywise by a positive size vector."""
    C = as_count_matrix(C)
    articles = _positive(articles, C.n, "articles")
    t = total_influence(C, alpha, tol=tol)
    scores = t.scores / articles
    return RankingVector(scores / scores.sum(), C.labels,
                         "influence_per_publication")


def iw_from_pagerank(pi: RankingVector, colsums) -> RankingVector:
    """Convert a stationary vector to influence weights: normalize(pi / a)."""
    a = _positive(colsums, len(pi.labels), "column sums")
    w = pi.scores / a
    return RankingVector(w / w.sum(), pi.labels, "influence_weight")


def pagerank_from_iw(w: RankingVector, colsums) -> RankingVector:
    """Convert influence weights to the stationary vector: normalize(w * a)."""
    a = _positive(colsums, len(w.labels), "column sums")
    pi = w.scores * a
    return RankingVector(pi / pi.sum(), w.labels, "pagerank")


def _positive(values, n: int, name: str) -> np.ndarray:
    """values as a float vector of shape (n,), every entry finite and > 0."""
    a = np.asarray(values, dtype=float)
    if a.shape != (n,):
        raise DimensionError(f"{name} has shape {a.shape}, expected ({n},)")
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise DomainError(f"{name} must be finite and strictly positive")
    return a

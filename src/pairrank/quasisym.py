"""Quasi-symmetry detection, decomposition, and reversibility.

A count matrix is quasi-symmetric when C = diag(d) S for a positive vector d
and a symmetric S. Equivalent characterizations, all checked here:

* every triplet satisfies c_ij c_jk c_ki = c_ji c_kj c_ik;
* d is a fixed point of the column-normalized scaling, A^-1 C d = d;
* the undamped chain C A^-1 is reversible (its probability flow is
  symmetric).

Under quasi-symmetry the eigenvector and Bradley-Terry rankings coincide:
influence weights are proportional to d, and the fitted log-abilities equal
centered log d with zero deviance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bradley_terry import _require_connected, fit_bt
from .counts import CountMatrix, as_count_matrix
from .errors import ConsistencyError, DomainError, NotQuasiSymmetricError
from .linalg import DEFAULT_TOL, _check_tol, _search, stationary_vector
from .rankings import influence_weight, transition_matrix

DEFAULT_QS_TOL = 1e-8


class TripletViolation(NamedTuple):
    """One failed product identity. For a one-sided zero pair (c_ij > 0 but
    c_ji = 0, impossible under quasi-symmetry) j == k and the gap is 1."""

    i: int
    j: int
    k: int
    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True)
class TripletReport:
    """Outcome of the triplet test.

    violation_count is exact. violations lists the first
    MAX_LISTED_VIOLATIONS failures in a fixed order: one-sided pairs
    first, then triplets (i, j, k), i < j < k, lexicographically;
    violations_truncated says whether more exist. worst is the first
    failure with the largest gap in that order (None when there is none).
    """

    is_quasi_symmetric: bool
    max_relative_gap: float
    violations: tuple[TripletViolation, ...]
    tolerance: float
    violation_count: int
    worst: TripletViolation | None
    violations_truncated: bool

    def __bool__(self) -> bool:
        return self.is_quasi_symmetric


MAX_LISTED_VIOLATIONS = 1000
_BLOCK_CELLS = 1 << 15  # cells per block, so its four buffers stay in cache


def check_triplets(C, tol: float = DEFAULT_QS_TOL) -> TripletReport:
    """Test every unordered triplet's cyclic product identity.

    Relative gap for a triplet is |lhs - rhs| / max(lhs, rhs); triplets with
    both products zero are vacuously consistent, and so are products that
    overflow to a NaN gap. Pairs where exactly one direction is zero cannot
    occur under quasi-symmetry and are reported as degenerate violations
    with gap 1. Runs in O(n^2) memory and O(n^3) time, one block of (j, k)
    pairs for one i at a time.
    """
    C = as_count_matrix(C)
    _check_tol(tol)
    counts = C.counts
    listed: list[TripletViolation] = []
    worst = None
    max_gap = 0.0

    # a one-sided pair can only fire in the direction whose count is positive,
    # so each unordered pair appears exactly once
    one_sided = (counts > 0) & (counts.T == 0)
    np.fill_diagonal(one_sided, False)
    pairs = np.argwhere(one_sided)
    for i, j in pairs[:MAX_LISTED_VIOLATIONS]:
        listed.append(TripletViolation(
            int(min(i, j)), int(max(i, j)), int(max(i, j)),
            float(counts[i, j]), float(counts[j, i]), 1.0))
    count = len(pairs)
    if count:
        max_gap = 1.0
        worst = listed[0]

    for i, j0, lhs, rhs, gap in _triplet_blocks(counts):
        block_max = float(np.fmax.reduce(gap, axis=None, initial=0.0))
        over = gap > tol
        # rows j0.. pair with columns j0..: the leading square holds every
        # pair twice and its diagonal never fails
        h = gap.shape[0]
        failed = (np.count_nonzero(over[:, :h]) // 2
                  + np.count_nonzero(over[:, h:]))
        if block_max > max_gap:
            max_gap = block_max
            if block_max > tol:
                worst = _block_violations(i, j0, gap == block_max, lhs, rhs,
                                          gap, 1)[0]
        room = MAX_LISTED_VIOLATIONS - len(listed)
        if failed and room > 0:
            listed += _block_violations(i, j0, over, lhs, rhs, gap, room)
        count += failed
    return TripletReport(
        is_quasi_symmetric=bool(max_gap <= tol),
        max_relative_gap=max_gap,
        violations=tuple(listed),
        tolerance=tol,
        violation_count=int(count),
        worst=worst,
        violations_truncated=count > len(listed),
    )


def _triplet_blocks(counts: np.ndarray):
    """Yield (i, j0, lhs, rhs, gap) for each i and each run of rows
    j0 <= j < j1, with columns k >= j0: lhs[r, c] = (c_ij c_jk) c_ki and
    rhs[r, c] = (c_ik c_kj) c_ji for j = j0 + r, k = j0 + c, the product
    order of the einsum over the full tensor, and gap their relative gap
    (NaN where both are zero). The arrays are views of buffers reused by
    the next block."""
    n = len(counts)
    counts_t = np.ascontiguousarray(counts.T)
    size = max(_BLOCK_CELLS, n)
    buffers = [np.empty(size) for _ in range(4)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(n - 2):
            row, col = counts[i], counts[:, i]
            step = max(1, _BLOCK_CELLS // (n - i - 1))
            for j0 in range(i + 1, n - 1, step):
                j1 = min(j0 + step, n - 1)
                shape = (j1 - j0, n - j0)
                lhs, rhs, gap, big = (b[:shape[0] * shape[1]].reshape(shape)
                                      for b in buffers)
                np.multiply(row[j0:j1, None], counts[j0:j1, j0:], out=lhs)
                lhs *= col[j0:]
                np.multiply(counts_t[j0:j1, j0:], row[j0:], out=rhs)
                rhs *= col[j0:j1, None]
                np.subtract(lhs, rhs, out=gap)
                np.abs(gap, out=gap)
                np.maximum(lhs, rhs, out=big)
                gap /= big
                yield i, j0, lhs, rhs, gap


def _block_violations(i: int, j0: int, mask: np.ndarray, lhs: np.ndarray,
                      rhs: np.ndarray, gap: np.ndarray,
                      limit: int) -> list[TripletViolation]:
    """The first limit triplets (i, j, k), j < k, of a block where mask is
    set, in lexicographic order."""
    rows, cols = np.nonzero(mask)
    upper = cols > rows
    return [TripletViolation(i, int(j0 + r), int(j0 + c), float(lhs[r, c]),
                             float(rhs[r, c]), float(gap[r, c]))
            for r, c in zip(rows[upper][:limit], cols[upper][:limit])]


@dataclass(frozen=True)
class QSDecomposition:
    """Factorization C = diag(d) S with S symmetric and the gauge d[0] = 1."""

    d: np.ndarray
    S: np.ndarray
    residual: float
    labels: tuple[str, ...]


def decompose_qs(C, tol: float = DEFAULT_QS_TOL) -> QSDecomposition:
    """Recover d and S from a quasi-symmetric matrix.

    d is propagated along a spanning tree of the reciprocal-support graph
    (pairs with counts in both directions) via d_v = d_u c_vu / c_uv, then
    the verdict is max asymmetry of diag(d)^-1 C against tol. Disconnected
    reciprocal support means d is not identified and raises the
    connectivity error; asymmetry beyond tol raises the quasi-symmetry
    error with the worst entry.
    """
    C = as_count_matrix(C)
    _check_tol(tol)
    counts = C.counts
    mutual = (counts > 0) & (counts.T > 0)

    d = np.ones(C.n)
    steps, seen = _search(mutual)
    for u, new in steps:
        d[new] = d[u] * counts[new, u] / counts[u, new]
    if not seen.all():
        _require_connected(mutual, C.labels)

    M = counts / d[:, None]
    asym = np.abs(M - M.T)
    worst = float(asym.max())
    if worst > tol:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise NotQuasiSymmetricError(worst, (int(i), int(j)))
    S = 0.5 * (M + M.T)
    residual = float(np.max(np.abs(counts - d[:, None] * S)))
    return QSDecomposition(d=d, S=S, residual=residual, labels=C.labels)


def verify_equivalence(C, tol: float = 1e-10,
                       dec: QSDecomposition | None = None) -> float:
    """Confirm the scaling identity behind the quasi-symmetry equivalence.

    Decomposes C = diag(d) S (or takes dec, a decomposition of C already
    made), then checks that d is a fixed point of A^-1 C (returns that
    residual, max-norm relative to max d). Also confirms the two ranking
    routes coincide: influence weights proportional to d (within 1e-8) and
    fitted log-abilities equal to centered log d (within 1e-6). Any failed
    check raises the consistency error.
    """
    C = as_count_matrix(C)
    _check_tol(tol)
    if dec is None:
        dec = decompose_qs(C)
    d = dec.d
    a = C.column_sums()
    if np.any(a <= 0):
        raise DomainError("scaling identity needs positive column sums")
    residual = float(np.max(np.abs(C.counts @ d / a - d)) / np.max(np.abs(d)))
    if residual > tol:
        raise ConsistencyError(
            f"fixed-point residual {residual:.3g} exceeds tol {tol:.3g}")

    iw = influence_weight(C).scores
    d_norm = d / d.sum()
    iw_gap = float(np.max(np.abs(iw - d_norm)))
    if iw_gap > 1e-8:
        raise ConsistencyError(
            f"influence weights deviate from normalized d by {iw_gap:.3g}")

    mu = fit_bt(C).abilities.mu
    log_d = np.log(d)
    log_d -= log_d.mean()
    mu_gap = float(np.max(np.abs(mu - log_d)))
    if mu_gap > 1e-6:
        raise ConsistencyError(
            f"fitted abilities deviate from centered log d by {mu_gap:.3g}")
    return residual


@dataclass(frozen=True)
class ReversibilityReport:
    reversible: bool
    max_gap: float
    tolerance: float

    def __bool__(self) -> bool:
        return self.reversible


def is_reversible(C, tol: float = DEFAULT_QS_TOL) -> ReversibilityReport:
    """Check detailed balance of the undamped chain.

    Builds P = C A^-1 and its stationary vector pi, then tests symmetry of
    the flow matrix with entries p_ij pi_j. Requires positive column sums
    and irreducibility (the undamped chain must exist).
    """
    C = as_count_matrix(C)
    _check_tol(tol)
    P = transition_matrix(C, 1.0)
    pi = stationary_vector(P, tol=DEFAULT_TOL).vector
    flow = P * pi[None, :]
    gap = float(np.max(np.abs(flow - flow.T)))
    return ReversibilityReport(reversible=gap <= tol, max_gap=gap, tolerance=tol)

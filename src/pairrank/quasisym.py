"""Quasi-symmetry detection, decomposition, and reversibility.

A count matrix is quasi-symmetric when C = diag(d) S for a positive vector d
and a symmetric S. Equivalent characterizations, all checked here:

* every cycle balances, c_ij c_jk ... c_mi = c_ji c_kj ... c_im; the
  triplet test checks the triangles, which decide it only where they
  generate the cycle space, as on a complete support (a 6-ring whose
  every edge has ratio 2 has no triangle and passes with gap 0);
* d is a fixed point of the column-normalized scaling, A^-1 C d = d;
* the undamped chain C A^-1 is reversible (its probability flow is
  symmetric).

decompose_qs is the verdict on any support: its check over every pair
closes each fundamental cycle of its breadth-first tree, and it rejects
that 6-ring, as is_reversible does.

Under quasi-symmetry the eigenvector and Bradley-Terry rankings coincide:
influence weights are proportional to d, and the fitted log-abilities equal
centered log d with zero deviance; each route's own equation holds at d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bradley_terry import (_games, _require_connected, _score,
                            _win_probabilities)
from .counts import _summable, as_count_matrix
from .errors import ConsistencyError, DomainError, NotQuasiSymmetricError
from .linalg import DEFAULT_TOL, _check_tol, _levels, stationary_vector
from .rankings import transition_matrix

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

    is_quasi_symmetric says that every triangle balances. That decides
    quasi-symmetry only where triangles generate the cycle space, as on a
    complete support; decompose_qs decides it on any support.
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

    Relative gap for a triplet is |lhs - rhs| / max(lhs, rhs), also where
    the products pass float64's range; triplets with a zero count in both
    products are vacuously consistent. Pairs where exactly one direction
    is zero cannot occur under quasi-symmetry and are reported as
    degenerate violations with gap 1. Runs in O(n^2) memory and O(n^3)
    time, one block of (j, k) pairs for one i at a time.
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
    the next block. Where a count lies beyond 2^+-330, a product may leave
    float64's range, so the gap is taken from the products of the counts'
    frexp mantissas, each scaled by its exponents' sum less the larger sum:
    the same bits where the products stay normal."""
    n = len(counts)
    counts_t = np.ascontiguousarray(counts.T)
    low = np.min(counts, where=counts > 0, initial=1.0)
    wide = low < 2.0 ** -330 or counts.max() > 2.0 ** 330
    if wide:
        m, x = np.frexp(counts)
        x[counts == 0] = -(1 << 20)  # a product with a 0 sets no scale
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
                pair = lhs, rhs
                if wide:
                    j, k = np.ogrid[j0:j1, j0:n]
                    el = x[i, j] + x[j, k] + x[k, i]
                    er = x[i, k] + x[k, j] + x[j, i]
                    top = np.maximum(el, er)
                    pair = (np.ldexp(m[i, j] * m[j, k] * m[k, i], el - top),
                            np.ldexp(m[i, k] * m[k, j] * m[j, i], er - top))
                np.subtract(*pair, out=gap)
                np.abs(gap, out=gap)
                np.maximum(*pair, out=big)
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

    d is propagated by breadth-first levels from node 0 of the
    reciprocal-support graph (pairs with counts in both directions): d_v =
    d_u c_vu / c_uv, u the lowest-indexed neighbour one level up. Then the
    verdict is the largest relative asymmetry of M = diag(d)^-1 C,
    |m_ij - m_ji| / max(m_ij, m_ji) over pairs not both zero (the triplet
    test's gap), against tol; it does not move with the scale of C or the
    gauge of d. Disconnected reciprocal support means d is not identified
    and raises the connectivity error, a d past float64's normal range the
    domain error, and asymmetry beyond tol the quasi-symmetry error.
    """
    C = as_count_matrix(C)
    _check_tol(tol)
    counts = C.counts
    mutual = (counts > 0) & (counts.T > 0)

    level = _levels(mutual)
    if (level < 0).any():
        _require_connected(mutual, C.labels)
    d, log_d = np.ones(C.n), np.zeros(C.n)
    with np.errstate(over="ignore"):  # a d past float64 raises below
        for depth in range(1, level.max() + 1):
            prev, new = np.flatnonzero(level == depth - 1), level == depth
            parent = prev[np.argmax(mutual[prev][:, new], axis=0)]
            d[new] = d[parent] * counts[new, parent] / counts[parent, new]
            log_d[new] = (log_d[parent] + np.log10(counts[new, parent])
                          - np.log10(counts[parent, new]))
    if not np.all((d >= np.finfo(float).tiny) & (d < np.inf)):
        raise DomainError(f"d of C = diag(d) S spans 1e{log_d.min():.0f} to "
                          f"1e{log_d.max():.0f}, past float64's normal range")

    M = counts / d[:, None]
    gap = np.abs(M - M.T)
    big = np.maximum(M, M.T)
    np.divide(gap, big, out=gap, where=big > 0)  # both 0: gap stays 0
    worst = float(gap.max())
    if worst > tol:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise NotQuasiSymmetricError(worst, (int(i), int(j)))
    M *= 0.5  # halves first: their sum does not overflow
    S = np.add(M, M.T, out=big)  # big is spent; S takes its buffer
    residual = float(np.max(np.abs(counts - d[:, None] * S)))
    return QSDecomposition(d=d, S=S, residual=residual, labels=C.labels)


def verify_equivalence(C, tol: float = 1e-10,
                       dec: QSDecomposition | None = None) -> float:
    """Confirm the scaling identity behind the quasi-symmetry equivalence.

    Decomposes C = diag(d) S (or takes dec, a decomposition of C already
    made), then checks within tol each ranking route's own equation at d:
    the fixed point A^-1 C d = d, so that P (d a) = d a for the undamped
    chain P = C A^-1 (returns this residual, max-norm relative to max d),
    and the Bradley-Terry score equations at centered log d, by fit_bt's
    relative score residual. On the connected design that a decomposition
    implies each has one solution, so neither route is solved. Any failed
    check, a non-finite residual among them, raises the consistency error.
    Neither residual depends on the scale of C, nor the fixed point's on
    that of d, so both are checked on C as counts._summable scales it, and
    the fixed point on d over the power of two that puts max d in [1/2, 1):
    no sum then overflows.
    """
    C = as_count_matrix(C)
    _check_tol(tol)
    if dec is None:
        dec = decompose_qs(C)
    d = dec.d
    C = _summable(C)
    a = C.column_sums()
    if np.any(a <= 0):
        raise DomainError("scaling identity needs positive column sums")
    u = np.ldexp(d, -np.frexp(np.max(np.abs(d)))[1])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite d
        residual = float(np.max(np.abs(C.counts @ u / a - u))
                         / np.max(np.abs(u)))
    if not residual <= tol:
        raise ConsistencyError(
            f"fixed-point residual {residual:.3g} exceeds tol {tol:.3g}")
    if C.n < 2:
        raise DomainError("need at least two players to fit")

    counts, games, played = _games(C)
    log_d = np.log(d)
    p = _win_probabilities(log_d - log_d.mean())
    bt = _score(counts.sum(axis=1), games, played, p, counts)[1]
    if not bt <= tol:
        raise ConsistencyError(
            f"Bradley-Terry score residual {bt:.3g} exceeds tol {tol:.3g}")
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

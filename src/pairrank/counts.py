"""Labeled paired-comparison count matrices.

Entry (i, j) counts wins of i over j (equivalently, endorsements flowing from
j to i). Column j therefore collects everything j conceded; column sums play
the role of out-strength.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"p{i + 1}" for i in range(n))


@dataclass(frozen=True)
class CountMatrix:
    """Square nonnegative count matrix with row/column labels.

    counts[i, j] = wins of labels[i] over labels[j]. Labels default to
    p1..pn. The array is copied and made read-only.
    """

    counts: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        counts = np.array(self.counts, dtype=float)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise DimensionError(
                f"count matrix must be square, got shape {counts.shape}")
        if counts.size == 0:
            raise DimensionError("count matrix is empty, got shape (0, 0)")
        if not np.all(np.isfinite(counts)):
            raise DomainError("count matrix contains non-finite entries")
        if np.any(counts < 0):
            i, j = np.unravel_index(np.argmin(counts), counts.shape)
            raise DomainError(
                f"count matrix has a negative entry at ({i}, {j}): {counts[i, j]}")
        labels = tuple(self.labels) if self.labels else default_labels(counts.shape[0])
        if len(labels) != counts.shape[0]:
            raise DimensionError(
                f"{len(labels)} labels for a {counts.shape[0]}-node matrix")
        if len(set(labels)) != len(labels):
            raise DomainError("labels must be distinct")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    def column_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def as_count_matrix(C) -> CountMatrix:
    """Coerce an array-like (or pass through a CountMatrix) with validation."""
    if isinstance(C, CountMatrix):
        return C
    return CountMatrix(np.asarray(C, dtype=float))


def _summable(C: CountMatrix) -> CountMatrix:
    """C, or, where its largest entry passes float64's largest value over
    2 n^2, C times the power of two that brings it below that, so that no
    sum of C's entries overflows. The scaling is exact: where it would take
    a positive entry below the smallest normal float, it raises the domain
    error. For results that do not depend on C's scale."""
    limit = np.finfo(float).max / (2 * C.n * C.n)
    top = C.counts.max()
    if top <= limit:
        return C
    shift = -int(np.frexp(top / limit)[1])
    low = C.counts[C.counts > 0].min()
    if np.ldexp(low, shift) < np.finfo(float).tiny:
        raise DomainError(
            f"counts from {low:.3g} to {top:.3g} span more than float64 can "
            f"sum: the largest overflows, the smallest underflow when scaled")
    return CountMatrix(np.ldexp(C.counts, shift), C.labels)

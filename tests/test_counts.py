import numpy as np
import pytest

from pairrank.counts import CountMatrix
from pairrank.errors import DimensionError, DomainError


class TestCountMatrix:
    def test_copied_read_only_with_default_labels(self):
        raw = np.array([[0.0, 1.0], [2.0, 0.0]])
        C = CountMatrix(raw)
        raw[0, 1] = 5.0
        assert C.labels == ("p1", "p2")
        assert C.counts[0, 1] == 1.0
        assert not C.counts.flags.writeable

    @pytest.mark.parametrize("counts, labels, kind, message", [
        (np.ones((2, 3)), (), DimensionError,
         "count matrix must be square, got shape (2, 3)"),
        (np.ones(3), (), DimensionError,
         "count matrix must be square, got shape (3,)"),
        ([[0, np.inf], [1, 0]], (), DomainError,
         "count matrix contains non-finite entries"),
        ([[0, 1], [np.nan, 0]], (), DomainError,
         "count matrix contains non-finite entries"),
        ([[0, 1, 2], [3, 0, -0.5], [1, 1, 0]], (), DomainError,
         "count matrix has a negative entry at (1, 2): -0.5"),
        ([[0, 1], [1, 0]], ("a",), DimensionError,
         "1 labels for a 2-node matrix"),
        ([[0, 1], [1, 0]], ("a", "a"), DomainError, "labels must be distinct"),
    ])
    def test_rejects(self, counts, labels, kind, message):
        with pytest.raises(kind) as exc:
            CountMatrix(counts, labels)
        assert str(exc.value) == message

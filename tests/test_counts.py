import inspect

import numpy as np
import pytest

import pairrank
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
        (np.zeros((0, 0)), (), DimensionError,
         "count matrix is empty, got shape (0, 0)"),
    ])
    def test_rejects(self, counts, labels, kind, message):
        with pytest.raises(kind) as exc:
            CountMatrix(counts, labels)
        assert str(exc.value) == message


EMPTY = np.zeros((0, 0))
NO_ABILITIES = np.zeros(0)

# every public function whose first argument is a matrix, on 0 x 0
EMPTY_CALLS = {
    "as_count_matrix": lambda: pairrank.as_count_matrix(EMPTY),
    "bt_covariance": lambda: pairrank.bt_covariance(EMPTY, NO_ABILITIES),
    "bt_deviance": lambda: pairrank.bt_deviance(EMPTY, NO_ABILITIES),
    "check_triplets": lambda: pairrank.check_triplets(EMPTY),
    "decompose_qs": lambda: pairrank.decompose_qs(EMPTY),
    "delta_method_covariance":
        lambda: pairrank.delta_method_covariance(EMPTY),
    "fit_bt": lambda: pairrank.fit_bt(EMPTY),
    "influence_per_publication":
        lambda: pairrank.influence_per_publication(EMPTY, NO_ABILITIES),
    "influence_weight": lambda: pairrank.influence_weight(EMPTY),
    "is_irreducible": lambda: pairrank.is_irreducible(EMPTY),
    "is_reversible": lambda: pairrank.is_reversible(EMPTY),
    "log_iw_jacobian": lambda: pairrank.log_iw_jacobian(EMPTY),
    "pagerank": lambda: pairrank.pagerank(EMPTY),
    "stationary_derivative":
        lambda: pairrank.stationary_derivative(EMPTY, NO_ABILITIES, EMPTY),
    "stationary_vector": lambda: pairrank.stationary_vector(EMPTY),
    "total_influence": lambda: pairrank.total_influence(EMPTY),
    "transition_matrix": lambda: pairrank.transition_matrix(EMPTY),
    "verify_equivalence": lambda: pairrank.verify_equivalence(EMPTY),
}


def test_empty_calls_cover_every_matrix_argument():
    # matrix_to_csv takes a CountMatrix, which cannot be empty
    takes_matrix = {
        name for name in pairrank.__all__
        if inspect.isfunction(getattr(pairrank, name))
        and next(iter(inspect.signature(getattr(pairrank, name)).parameters),
                 None) in ("C", "P")}
    assert takes_matrix - {"matrix_to_csv"} == set(EMPTY_CALLS)


@pytest.mark.parametrize("name", sorted(EMPTY_CALLS))
def test_empty_matrix_is_a_dimension_error(name):
    with pytest.raises(DimensionError, match="empty, got shape \\(0, 0\\)"):
        EMPTY_CALLS[name]()

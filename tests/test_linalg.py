import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairrank.errors import (ConvergenceError, DimensionError, DomainError,
                             ReducibilityError)
from pairrank.linalg import is_irreducible, stationary_vector

from oracles import random_counts, stationary_eig


class TestStationaryVector:
    def test_worked_example_chain(self):
        C = np.array([[0, 1, 1], [2, 0, 2], [4, 4, 0]], float)
        res = stationary_vector(C / C.sum(axis=0))
        assert_allclose(res.vector, [3 / 14, 5 / 14, 3 / 7], atol=1e-14)

    def test_matches_lapack_on_random_chains(self):
        rng = np.random.default_rng(11)
        for n in (1, 3, 6, 10, 60):
            C = rng.uniform(0.1, 4.0, size=(n, n))
            P = C / C.sum(axis=0)
            assert_allclose(stationary_vector(P).vector, stationary_eig(P),
                            atol=1e-12)

    def test_even_cycle(self):
        n = 8
        P = np.zeros((n, n))
        idx = np.arange(n)
        P[(idx + 1) % n, idx] = 0.5
        P[(idx - 1) % n, idx] = 0.5
        assert_allclose(stationary_vector(P).vector, np.full(n, 1 / n),
                        atol=1e-14)

    @pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-15])
    def test_reported_residual_is_at_most_tol(self, tol):
        rng = np.random.default_rng(13)
        C = rng.uniform(0.1, 4.0, size=(40, 40))
        P = C / C.sum(axis=0)
        res = stationary_vector(P, tol=tol)
        assert res.residual <= tol
        assert np.max(np.abs(P @ res.vector - res.vector)) == res.residual

    def test_residual_above_tol_raises(self):
        rng = np.random.default_rng(13)
        C = rng.uniform(0.1, 4.0, size=(40, 40))
        P = C / C.sum(axis=0)
        residual = stationary_vector(P).residual
        assert residual > 0
        with pytest.raises(ConvergenceError) as exc:
            stationary_vector(P, tol=residual / 2)
        assert exc.value.residual == residual

    @pytest.mark.parametrize("n", [2, 5, 20, 60])
    def test_stack_matches_per_matrix_loop(self, n):
        rng = np.random.default_rng(n)
        C = rng.uniform(0.1, 4.0, size=(9, n, n))
        P = C / C.sum(axis=1, keepdims=True)
        stacked = stationary_vector(P)
        assert stacked.vector.shape == (9, n)
        for k in range(9):
            alone = stationary_vector(P[k])
            assert np.array_equal(stacked.vector[k], alone.vector)
            assert stacked.residual[k] == alone.residual

    def test_stack_raises_for_first_bad_residual(self):
        rng = np.random.default_rng(17)
        C = rng.uniform(0.1, 4.0, size=(8, 40, 40))
        P = C / C.sum(axis=1, keepdims=True)
        residuals = np.array([stationary_vector(M).residual for M in P])
        order = np.argsort(residuals, kind="stable")
        P, residuals = P[order], residuals[order]
        P[[3, -1]] = P[[-1, 3]]  # the largest residual sits at index 3
        residuals[[3, -1]] = residuals[[-1, 3]]
        tol = (residuals[2] + residuals[3]) / 2
        assert residuals[2] < tol < residuals[3]
        with pytest.raises(ConvergenceError) as exc:
            stationary_vector(P, tol=tol)
        assert exc.value.residual == residuals[3]
        assert str(exc.value) == (
            f"stationary solve residual {residuals[3]:.3g} exceeds tol "
            f"{tol:.3g} for matrix 3 of the stack")

    def test_stack_validation(self):
        with pytest.raises(DimensionError):
            stationary_vector(np.full((2, 3, 4), 0.25))
        with pytest.raises(DimensionError):
            stationary_vector(np.full((1, 2, 2, 2), 0.5))
        P = np.full((3, 2, 2), 0.5)
        P[1, 0, 0] = 0.6
        with pytest.raises(DomainError, match="not column-stochastic"):
            stationary_vector(P)
        P = np.full((3, 4, 4), 0.25)
        P[2] = np.eye(4)
        with pytest.raises(ReducibilityError):
            stationary_vector(P)

    def test_two_closed_classes_rejected(self):
        P = np.eye(4)
        P[:2, :2] = P[2:, 2:] = 0.5
        with pytest.raises(ReducibilityError):
            stationary_vector(P)

    def test_rejects_non_stochastic(self):
        with pytest.raises(DomainError):
            stationary_vector(np.full((3, 3), 0.5))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)],
                             ids=["single", "stack"])
    def test_rejects_nan_chain(self, shape):
        # a NaN column sum is not > 1e-8 off 1; it reached the solve and
        # failed there as a residual, not as a domain error
        P = np.full(shape, 1 / 3)
        P.reshape(-1, 3, 3)[-1, 1, 2] = np.nan  # the last matrix alone
        with pytest.raises(DomainError, match="not column-stochastic"):
            stationary_vector(P)

    def test_rejects_bad_tol(self):
        with pytest.raises(DomainError):
            stationary_vector(np.full((2, 2), 0.5), tol=0.0)


class TestIsIrreducible:
    def test_two_cycle(self):
        assert is_irreducible([[0, 1], [1, 0]])

    def test_one_way_edge(self):
        assert not is_irreducible([[0, 1], [0, 0]])

    def test_single_node(self):
        assert is_irreducible([[0.0]])

    def test_ring(self):
        n = 6
        C = np.zeros((n, n))
        idx = np.arange(n)
        C[(idx + 1) % n, idx] = 1.0
        assert is_irreducible(C)

    def test_two_blocks(self):
        C = np.zeros((4, 4))
        C[0, 1] = C[1, 0] = 1.0
        C[2, 3] = C[3, 2] = 1.0
        assert not is_irreducible(C)

    def test_positive_matrix(self):
        rng = np.random.default_rng(1)
        assert is_irreducible(rng.uniform(0.1, 1.0, size=(5, 5)))

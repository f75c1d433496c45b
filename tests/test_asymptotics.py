import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairrank.asymptotics import (circular_covariance,
                                  delta_method_covariance,
                                  lexicographic_pairs, log_iw_jacobian,
                                  round_robin_covariance,
                                  stationary_derivative)
from pairrank.bradley_terry import bt_covariance
from pairrank.errors import ConsistencyError, DimensionError, DomainError
from pairrank.generators import circular, round_robin
from pairrank.rankings import influence_weight, pagerank, transition_matrix

from oracles import (fd_log_iw_derivative, fd_stationary_derivative,
                     fd_transition_derivative, random_counts)


class TestPairs:
    def test_lexicographic_order(self):
        assert lexicographic_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2),
                                          (1, 3), (2, 3)]


class TestTransitionDerivative:
    def test_matches_finite_differences(self):
        # the analytic dP/dt that builds the inputs of the derivative tests
        rng = np.random.default_rng(13)
        cases = [(round_robin(n, k).counts, (0, n - 1))
                 for n, k in [(2, 1), (3, 1), (5, 2), (8, 3)]]
        cases += [(random_counts(rng, n), (1, n - 2)) for n in (4, 7)]
        for C, (i, j) in cases:
            P = transition_matrix(C, 1.0)
            got = _general_pdot(P, C.sum(axis=0), i, j)
            assert_allclose(got, fd_transition_derivative(C, i, j),
                            atol=1e-8)


class TestStationaryDerivative:
    def test_round_robin_closed_form(self):
        # perturbing pair (i, j) moves pi_i by 1/(kn^2) and pi_j by -1/(kn^2)
        for n, k in [(3, 1), (5, 2), (8, 1)]:
            C = round_robin(n, k)
            P = transition_matrix(C, 1.0)
            pi = np.full(n, 1 / n)
            Pdot = _general_pdot(P, C.column_sums(), 0, 1)
            x = stationary_derivative(P, pi, Pdot)
            expected = np.zeros(n)
            expected[0] = 1 / (k * n * n)
            expected[1] = -1 / (k * n * n)
            assert_allclose(x, expected, atol=1e-12)

    def test_zero_direction_gives_zero(self):
        C = round_robin(4, 1)
        P = transition_matrix(C, 1.0)
        x = stationary_derivative(P, np.full(4, 0.25), np.zeros((4, 4)))
        assert_allclose(x, np.zeros(4), atol=1e-14)

    def test_sums_to_zero(self):
        rng = np.random.default_rng(3)
        C = random_counts(rng, 6)
        P = transition_matrix(C, 1.0)
        pi = pagerank(C, 1.0).scores
        a = C.sum(axis=0)
        Pdot = _general_pdot(P, a, 0, 4)
        x = stationary_derivative(P, pi, Pdot)
        assert x.sum() == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(5)
        for n in (4, 7, 11):
            C = random_counts(rng, n)
            P = transition_matrix(C, 1.0)
            pi = pagerank(C, 1.0).scores
            a = C.sum(axis=0)
            for (i, j) in [(0, 1), (1, n - 1)]:
                x = stationary_derivative(P, pi, _general_pdot(P, a, i, j))
                assert_allclose(x, fd_stationary_derivative(C, i, j),
                                atol=1e-7)

    def test_matches_finite_differences_circular(self):
        C = circular(5, 1).counts
        P = transition_matrix(C, 1.0)
        pi = np.full(5, 0.2)
        a = C.sum(axis=0)
        for (i, j) in [(0, 1), (0, 2)]:
            x = stationary_derivative(P, pi, _general_pdot(P, a, i, j))
            assert_allclose(x, fd_stationary_derivative(C, i, j), atol=1e-7)

    def test_rejects_non_stationary_pi(self):
        C = round_robin(3, 1)
        P = transition_matrix(C, 1.0)
        with pytest.raises(ConsistencyError):
            stationary_derivative(P, np.array([0.6, 0.2, 0.2]),
                                  np.zeros((3, 3)))

    def test_rejects_non_tangent_pdot(self):
        P = transition_matrix(round_robin(3, 1), 1.0)
        with pytest.raises(DomainError):
            stationary_derivative(P, np.full(3, 1 / 3), np.ones((3, 3)))

    @pytest.mark.parametrize("pi", [np.zeros(3), np.full(3, np.nan),
                                    np.full(3, -1 / 3),
                                    np.array([0.5, 0.5, np.inf])],
                             ids=["zero", "nan", "negative", "inf"])
    def test_rejects_pi_off_the_simplex(self, pi):
        # each of these passed the stationarity test: pi = 0 and -1/3 are
        # fixed by P, and a NaN residual is not > 1e-8
        P = transition_matrix(round_robin(3, 1), 1.0)
        with pytest.raises(DomainError, match="pi is not a probability"):
            stationary_derivative(P, pi, _general_pdot(P, np.full(3, 3.0),
                                                       0, 1))

    @pytest.mark.parametrize("where", ["P", "Pdot", "negative-P"])
    def test_rejects_nan_chain(self, where):
        P = transition_matrix(round_robin(3, 1), 1.0)
        args = {"P": P, "pi": np.full(3, 1 / 3),
                "Pdot": _general_pdot(P, np.full(3, 3.0), 0, 1)}
        if where == "negative-P":
            # columns still sum to 1 and pi stays stationary, so only the
            # negative entries make this P not a chain
            args["P"] = P + 0.5 * (np.eye(3) - np.roll(np.eye(3), 1, axis=0))
        else:
            args[where] = args[where].copy()
            args[where][1, 2] = np.nan
        with pytest.raises(DomainError):
            stationary_derivative(**args)

    def test_rejects_empty_chain(self):
        # n = 0 used to reach the chain guard and fail in numpy's min()
        with pytest.raises(DimensionError, match="P is empty"):
            stationary_derivative(np.zeros((0, 0)), np.zeros(0),
                                  np.zeros((0, 0)))
        # a 0-d P used to fail reading P.shape[0] with an IndexError
        with pytest.raises(DimensionError, match="incompatible shapes"):
            stationary_derivative(1.0, 1.0, 0.0)


def _general_pdot(P: np.ndarray, a: np.ndarray, i: int, j: int) -> np.ndarray:
    """Analytic dP/dt along the (i, j) pair direction at a general matrix."""
    n = P.shape[0]
    M = np.zeros((n, n))
    e_i = np.eye(n)[i]
    e_j = np.eye(n)[j]
    M[:, i] = (P[:, i] - e_j) / a[i]
    M[:, j] = (e_i - P[:, j]) / a[j]
    return M


class TestLogIwJacobian:
    def test_round_robin_column(self):
        # at the balanced point the stationary shift (1/(kn)) and the
        # column-sum shift (1/(kn)) add: entries are +-2/(kn)
        J = log_iw_jacobian(round_robin(4, 2))
        col = J[:, 0]  # pair (0, 1)
        assert_allclose(col, [0.25, -0.25, 0, 0], atol=1e-12)

    def test_weight_weighted_columns_sum_to_zero(self):
        # normalization constraint: sum_i iw_i * dlog iw_i = sum_i iwdot_i = 0
        rng = np.random.default_rng(7)
        C = random_counts(rng, 6)
        J = log_iw_jacobian(C)
        iw = influence_weight(C).scores
        assert_allclose(iw @ J, np.zeros(J.shape[1]), atol=1e-10)

    def test_balanced_columns_sum_to_zero(self):
        J = log_iw_jacobian(round_robin(5, 2).counts)
        assert_allclose(J.sum(axis=0), np.zeros(J.shape[1]), atol=1e-10)

    def test_shape(self):
        J = log_iw_jacobian(round_robin(5, 1))
        assert J.shape == (5, 10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        cases = [round_robin(4, 1).counts, circular(5, 1).counts,
                 random_counts(rng, 6)]
        for C in cases:
            J = log_iw_jacobian(C)
            for col, (i, j) in enumerate(lexicographic_pairs(C.shape[0])):
                assert_allclose(J[:, col], fd_log_iw_derivative(C, i, j),
                                atol=1e-7)

    def test_even_cycle(self):
        # periodic undamped chain: the direct stationary solve must not
        # depend on aperiodicity
        J = log_iw_jacobian(circular(6, 1))
        assert J.shape == (6, 15)
        assert np.all(np.isfinite(J))


    def test_peak_memory_is_about_two_jacobians(self):
        # the pair differences and the product share two pair-sized buffers
        tracemalloc.start()
        try:
            J = log_iw_jacobian(circular(120, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * J.nbytes


class TestDeltaCovariance:
    def test_round_robin_matches_closed_form(self):
        for n, k in [(3, 1), (4, 2), (6, 5)]:
            J = log_iw_jacobian(round_robin(n, k))
            assert_allclose((k / 2) * J @ J.T,
                            round_robin_covariance(n, k), atol=1e-12)

    def test_general_form_matches_bradley_terry_on_circular(self):
        for n, k in [(5, 1), (7, 1), (8, 2)]:
            C = circular(n, k)
            assert_allclose(delta_method_covariance(C),
                            bt_covariance(C, np.zeros(n)), atol=1e-10)

    def test_general_form_matches_finite_difference_sum(self):
        # sum over played pairs of (n_ij / 4) f f^T, f from the LAPACK
        # finite-difference oracle; a ring keeps the counts irreducible
        # while other pairs are dropped
        rng = np.random.default_rng(11)
        for n in range(3, 9):
            C = random_counts(rng, n)
            for i, j in lexicographic_pairs(n):
                if j - i not in (1, n - 1) and rng.uniform() < 0.4:
                    C[i, j] = C[j, i] = 0.0
            expected = np.zeros((n, n))
            for i, j in lexicographic_pairs(n):
                if C[i, j] + C[j, i] > 0:
                    f = fd_log_iw_derivative(C, i, j)
                    expected += (C[i, j] + C[j, i]) / 4.0 * np.outer(f, f)
            assert_allclose(delta_method_covariance(C), expected, atol=1e-7)

    def test_general_form_reduces_to_uniform_on_round_robin(self):
        C = round_robin(5, 3)
        J = log_iw_jacobian(C)
        assert_allclose(delta_method_covariance(C), (3 / 2) * J @ J.T,
                        atol=1e-12)
        # beyond balanced designs: J diag(n_ij / 4) J^T, and iw^T S = 0
        rng = np.random.default_rng(17)
        for n in (3, 4, 6, 9, 14, 23):
            C = _random_design(rng, n)
            S = delta_method_covariance(C)
            J = log_iw_jacobian(C)
            i, j = np.triu_indices(n, k=1)
            expected = (J * ((C[i, j] + C[j, i]) / 4.0)) @ J.T
            scale = np.max(np.abs(expected))
            assert_allclose(S, expected, rtol=0, atol=1e-12 * scale)
            iw = influence_weight(C).scores
            assert_allclose(iw @ S, np.zeros(n), atol=1e-12 * scale)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shift", [1000, -1000])
    def test_any_scale_of_counts(self, shift):
        # both go as 1/C: at C 2^shift, far from 1 though no sum overflows,
        # they are the unit table's times 2^-shift, bit for bit
        C = _random_design(np.random.default_rng(5), 7)
        for f in (delta_method_covariance, log_iw_jacobian):
            assert f(np.ldexp(C, shift)).tobytes() == \
                np.ldexp(f(C), -shift).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sums_beyond_float64(self):
        # every sum of these counts overflows: the results are the unit
        # table's over 1e308, below the smallest normal float
        unit = 1 - np.eye(3)
        for f in (delta_method_covariance, log_iw_jacobian):
            assert_allclose(f(1e308 * unit) * 1e308, f(unit), rtol=1e-12,
                            atol=1e-12)

    def test_peak_memory_is_a_few_square_arrays(self):
        # the factor M, the Laplacian L and the two products of M L M^T,
        # with room for the counts and the group inverse's temporaries
        n = 500
        tracemalloc.start()
        try:
            delta_method_covariance(circular(n, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 8 * n * n


def _random_design(rng: np.random.Generator, n: int) -> np.ndarray:
    """Expected win table N o p of a sparse design: a ring backbone plus
    random pairs, 1 to 8 games a pair, Bradley-Terry strengths
    exp(N(0, 1.5^2)) and some nonzero diagonal entries. Irreducible."""
    games = np.triu(rng.integers(1, 9, (n, n)).astype(float), 1)
    idx = np.arange(n)
    ring = np.zeros((n, n), dtype=bool)
    ring[idx, (idx + 1) % n] = True
    played = ring | np.triu(rng.uniform(size=(n, n)) < 0.3, 1)
    N = np.where(played | played.T, games + games.T, 0.0)
    d = np.exp(rng.normal(0.0, 1.5, n))
    C = N * (d[:, None] / (d[:, None] + d))
    C[idx, idx] = np.where(rng.uniform(size=n) < 0.5, rng.uniform(0, 2, n),
                           0.0)
    return C


class TestClosedForms:
    def test_round_robin_values(self):
        M = round_robin_covariance(4, 1)
        assert M[0, 0] == pytest.approx(0.375)
        assert M[0, 1] == pytest.approx(-0.125)

    def test_round_robin_two_players(self):
        M = round_robin_covariance(2, 1)
        assert_allclose(M, [[0.5, -0.5], [-0.5, 0.5]])

    def test_rows_sum_to_zero(self):
        assert_allclose(round_robin_covariance(7, 2) @ np.ones(7),
                        np.zeros(7), atol=1e-14)
        assert_allclose(circular_covariance(9, 2) @ np.ones(9),
                        np.zeros(9), atol=1e-12)

    def test_circular_seven_bands(self):
        M = circular_covariance(7, 1)
        assert M[0, 0] == pytest.approx(8 / 7, abs=1e-12)
        assert M[0, 1] == pytest.approx(2 / 7, abs=1e-12)
        assert M[0, 2] == pytest.approx(-2 / 7, abs=1e-12)

    def test_circular_is_circulant(self):
        M = circular_covariance(10, 1)
        for shift in range(1, 10):
            assert_allclose(np.roll(np.roll(M, shift, 0), shift, 1), M,
                            atol=1e-10)

    def test_circular_matches_cycle_laplacian_pseudoinverse(self):
        # independent closed form: covariance = (2/k) pinv(L_ring)
        for n, k in [(3, 1), (4, 2), (5, 1), (6, 3), (7, 1), (9, 2), (12, 1)]:
            L = 2 * np.eye(n)
            idx = np.arange(n)
            L[idx, (idx + 1) % n] -= 1
            L[(idx + 1) % n, idx] -= 1
            assert_allclose(circular_covariance(n, k),
                            (2 / k) * np.linalg.pinv(L), atol=1e-10)

    def test_circular_small_n_rejected(self):
        with pytest.raises(DomainError, match="a ring needs n >= 3, got 2"):
            circular_covariance(2, 1)

    def test_k_scaling(self):
        assert_allclose(round_robin_covariance(5, 4),
                        round_robin_covariance(5, 1) / 4, atol=1e-15)
        assert_allclose(circular_covariance(8, 2),
                        circular_covariance(8, 1) / 2, atol=1e-12)

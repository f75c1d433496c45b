import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairrank.counts import CountMatrix
from pairrank.errors import (DanglingNodeError, DimensionError, DomainError,
                             ReducibilityError)
from pairrank.rankings import (RankingVector, influence_per_publication,
                               influence_weight, iw_from_pagerank, pagerank,
                               pagerank_from_iw, total_influence,
                               transition_matrix)

from oracles import (influence_eig, pagerank_eig, quasi_symmetric_ring,
                     random_counts)

WORKED = np.array([[0, 1, 1], [2, 0, 2], [4, 4, 0]], float)
RING_SIZES = [200, 1000]


def _overflowing(seed: int) -> np.ndarray:
    """A 4 x 4 table whose column sums pass float64's largest value."""
    C = np.random.default_rng(seed).uniform(0.5, 1.0, (4, 4)) * 1e308
    np.fill_diagonal(C, 0.0)
    return C


class TestSumsBeyondFloat64:
    # no eigenvector method depends on the scale of C, so a table whose
    # sums overflow ranks as its scaled copy does, bit for bit
    @pytest.mark.parametrize("rank", [
        lambda C: transition_matrix(C),
        lambda C: transition_matrix(C, 0.85),
        lambda C: pagerank(C).scores,
        lambda C: influence_weight(C).scores,
        lambda C: total_influence(C).scores,
        lambda C: influence_per_publication(C, [1, 2, 3, 4]).scores,
    ], ids=["chain", "damped-chain", "pagerank", "iw", "total", "ipp"])
    def test_ranks_as_the_scaled_table(self, rank):
        C = _overflowing(1)
        with np.errstate(over="ignore"):
            assert not np.isfinite(C.sum(axis=0)).any()
        assert rank(C).tobytes() == rank(np.ldexp(C, -20)).tobytes()

    def test_uniform_table_near_overflow(self):
        C = 1e308 * (1 - np.eye(3))
        assert_allclose(influence_weight(C).scores, np.full(3, 1 / 3))

    def test_a_range_no_power_of_two_keeps_is_a_domain_error(self):
        # scaled by 2^-3, 1e-307 would fall below the smallest normal float
        with pytest.raises(DomainError) as exc:
            pagerank([[0, 1e308], [1e-307, 0]])
        assert str(exc.value) == (
            "counts from 1e-307 to 1e+308 span more than float64 can sum: "
            "the largest overflows, the smallest underflow when scaled")


class TestTransitionMatrix:
    def test_constant_counts_give_uniform_chain(self):
        P = transition_matrix(np.full((3, 3), 2.0), alpha=1.0)
        assert_allclose(P, np.full((3, 3), 1 / 3))

    def test_worked_example_columns(self):
        P = transition_matrix(WORKED, alpha=1.0)
        assert_allclose(P[:, 0], [0, 2 / 6, 4 / 6])
        assert_allclose(P[:, 1], [1 / 5, 0, 4 / 5])
        assert_allclose(P[:, 2], [1 / 3, 2 / 3, 0])

    def test_columns_sum_to_one_damped(self):
        rng = np.random.default_rng(2)
        C = random_counts(rng, 6)
        for alpha in (0.0, 0.5, 0.85, 1.0):
            P = transition_matrix(C, alpha)
            assert_allclose(P.sum(axis=0), np.ones(6), atol=1e-12)

    def test_alpha_zero_is_uniform(self):
        P = transition_matrix(WORKED, alpha=0.0)
        assert_allclose(P, np.full((3, 3), 1 / 3))

    def test_dangling_column_errors_undamped(self):
        C = CountMatrix([[0, 1], [0, 0]], ("a", "b"))
        with pytest.raises(DanglingNodeError) as exc:
            transition_matrix(C, alpha=1.0)
        assert "a" in str(exc.value)

    def test_dangling_column_becomes_uniform_when_damped(self):
        C = np.array([[0, 1, 0], [0, 0, 2], [0, 3, 0]], float)
        P = transition_matrix(C, alpha=0.85)
        assert_allclose(P[:, 0], np.full(3, 1 / 3))

    def test_reducible_errors_undamped(self):
        C = np.zeros((4, 4))
        C[0, 1] = C[1, 0] = 1.0
        C[2, 3] = C[3, 2] = 1.0
        with pytest.raises(ReducibilityError):
            transition_matrix(C, alpha=1.0)

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            transition_matrix(WORKED, alpha=1.5)


class TestPagerank:
    def test_worked_example_undamped(self):
        v = pagerank(WORKED, alpha=1.0)
        assert_allclose(v.scores, [3 / 14, 5 / 14, 3 / 7], atol=1e-10)

    def test_round_robin_uniform_any_alpha(self):
        C = np.full((5, 5), 2.0)
        for alpha in (0.3, 0.85, 1.0):
            assert_allclose(pagerank(C, alpha).scores, np.full(5, 0.2),
                            atol=1e-10)

    def test_matches_lapack(self):
        rng = np.random.default_rng(4)
        for alpha in (0.85, 1.0):
            C = random_counts(rng, 8)
            assert_allclose(pagerank(C, alpha).scores, pagerank_eig(C, alpha),
                            atol=1e-9)

    def test_damped_floor(self):
        rng = np.random.default_rng(9)
        C = random_counts(rng, 7)
        v = pagerank(C, 0.85)
        assert np.all(v.scores >= (1 - 0.85) / 7 - 1e-12)

    def test_scores_sum_to_one(self):
        v = pagerank(WORKED, 0.85)
        assert v.scores.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", RING_SIZES)
    def test_undamped_quasi_symmetric_ring_gives_d_times_a(self, n):
        C, d = quasi_symmetric_ring(n)
        expected = d * C.sum(axis=0)
        assert_allclose(pagerank(C, 1.0).scores, expected / expected.sum(),
                        rtol=1e-9)


class TestInfluenceWeight:
    def test_worked_example(self):
        w = influence_weight(WORKED)
        assert_allclose(w.scores, [1 / 7, 2 / 7, 4 / 7], atol=1e-10)

    def test_symmetric_counts_give_uniform(self):
        rng = np.random.default_rng(12)
        S = rng.uniform(1, 5, size=(6, 6))
        S = S + S.T
        np.fill_diagonal(S, 0.0)
        assert_allclose(influence_weight(S).scores, np.full(6, 1 / 6),
                        atol=1e-10)

    def test_diagonal_invariance_exact(self):
        base = influence_weight(WORKED).scores
        C = WORKED.copy()
        np.fill_diagonal(C, [9.0, 1.5, 100.0])
        assert_allclose(influence_weight(C).scores, base, atol=1e-12)

    def test_matches_lapack(self):
        rng = np.random.default_rng(21)
        C = random_counts(rng, 9)
        assert_allclose(influence_weight(C).scores, influence_eig(C),
                        atol=1e-9)

    def test_scale_invariance(self):
        w1 = influence_weight(WORKED).scores
        w2 = influence_weight(3.7 * WORKED).scores
        assert_allclose(w1, w2, atol=1e-12)

    def test_dangling_error(self):
        with pytest.raises(DanglingNodeError):
            influence_weight([[0, 1], [0, 0]])

    def test_damped_matches_lapack(self):
        rng = np.random.default_rng(22)
        C = random_counts(rng, 9)
        w = pagerank_eig(C, 0.8) / C.sum(axis=0)
        assert_allclose(influence_weight(C, 0.8).scores, w / w.sum(),
                        atol=1e-9)

    def test_damped_rejects_zero_column_sum(self):
        # the damped chain has a stationary vector, but pi / a does not exist
        with pytest.raises(DomainError, match="column sums"):
            influence_weight([[0, 1], [0, 0]], 0.9)

    @pytest.mark.parametrize("n", RING_SIZES)
    def test_quasi_symmetric_ring_gives_d(self, n):
        C, d = quasi_symmetric_ring(n)
        assert_allclose(influence_weight(C).scores, d / d.sum(), rtol=1e-9)


class TestTotalInfluence:
    def test_equals_undamped_pagerank(self):
        rng = np.random.default_rng(30)
        C = random_counts(rng, 7)
        assert_allclose(total_influence(C).scores,
                        pagerank(C, 1.0).scores, atol=1e-9)

    def test_equals_damped_pagerank(self):
        rng = np.random.default_rng(31)
        C = random_counts(rng, 7)
        assert_allclose(total_influence(C, 0.7).scores,
                        pagerank(C, 0.7).scores, atol=1e-12)

    def test_worked_example(self):
        assert_allclose(total_influence(WORKED).scores, [3 / 14, 5 / 14, 3 / 7],
                        atol=1e-10)

    @pytest.mark.parametrize("n", RING_SIZES)
    def test_quasi_symmetric_ring_gives_d_times_a(self, n):
        C, d = quasi_symmetric_ring(n)
        expected = d * C.sum(axis=0)
        assert_allclose(total_influence(C).scores, expected / expected.sum(),
                        rtol=1e-9)


class TestInfluencePerPublication:
    def test_unit_sizes_reduce_to_total(self):
        assert_allclose(
            influence_per_publication(WORKED, np.ones(3)).scores,
            total_influence(WORKED).scores, atol=1e-12)

    def test_worked_example_with_sizes(self):
        # total = (3/14, 5/14, 6/14); sizes (1, 1, 2) -> (3, 5, 3)/11
        v = influence_per_publication(WORKED, [1.0, 1.0, 2.0])
        assert_allclose(v.scores, np.array([3, 5, 3]) / 11, atol=1e-10)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(DomainError):
            influence_per_publication(WORKED, [1.0, 0.0, 2.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            influence_per_publication(WORKED, [1.0, 2.0])


class TestConversions:
    def test_round_trip_through_pagerank(self):
        rng = np.random.default_rng(17)
        C = random_counts(rng, 8)
        a = C.sum(axis=0)
        w = influence_weight(C)
        pi = pagerank_from_iw(w, a)
        back = iw_from_pagerank(pi, a)
        assert_allclose(back.scores, w.scores, atol=1e-12)

    def test_conversion_matches_direct_computation(self):
        rng = np.random.default_rng(23)
        C = random_counts(rng, 10)
        a = C.sum(axis=0)
        assert_allclose(iw_from_pagerank(pagerank(C, 1.0), a).scores,
                        influence_weight(C).scores, atol=1e-9)
        assert_allclose(pagerank_from_iw(influence_weight(C), a).scores,
                        pagerank(C, 1.0).scores, atol=1e-9)

    def test_worked_example_conversion(self):
        pi = pagerank(WORKED, 1.0)
        w = iw_from_pagerank(pi, WORKED.sum(axis=0))
        assert_allclose(w.scores, [1 / 7, 2 / 7, 4 / 7], atol=1e-10)

    def test_rejects_nonpositive_colsums(self):
        w = influence_weight(WORKED)
        with pytest.raises(DomainError):
            pagerank_from_iw(w, [1.0, -1.0, 2.0])


class TestRankingVector:
    def test_accepts(self):
        rv = RankingVector([0.25, 0.75], ("a", "b"), "pagerank")
        assert rv.as_dict() == {"a": 0.25, "b": 0.75}
        assert not rv.scores.flags.writeable

    @pytest.mark.parametrize("scores, method, kind, message", [
        ([0.5, 0.25, 0.25], "pagerank", DimensionError,
         "(3,) scores for 2 labels"),
        ([[0.5, 0.5]], "pagerank", DimensionError,
         "(1, 2) scores for 2 labels"),
        ([np.nan, 1.0], "pagerank", DomainError,
         "scores contain non-finite entries"),
        ([1.5, -0.5], "pagerank", DomainError, "scores must be nonnegative"),
        ([0.5, 0.5], "bradley_terry", DomainError,
         "unknown method 'bradley_terry'"),
        ([0.25, 0.5], "pagerank", DomainError,
         "scores must sum to 1, got 0.75"),
    ], ids=["length", "shape", "finite", "negative", "method", "sum"])
    def test_rejects(self, scores, method, kind, message):
        with pytest.raises(kind) as exc:
            RankingVector(scores, ("a", "b"), method)
        assert str(exc.value) == message

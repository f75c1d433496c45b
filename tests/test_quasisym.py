import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairrank import bradley_terry, cli, rankings
from pairrank.cli import main
from pairrank.counts import CountMatrix, default_labels
from pairrank.errors import (ConnectivityError, ConsistencyError,
                             DomainError, NotQuasiSymmetricError)
from pairrank.generators import random_quasi_symmetric
from pairrank import quasisym
from pairrank.io import matrix_to_csv
from pairrank.quasisym import (MAX_LISTED_VIOLATIONS, check_triplets,
                               decompose_qs, is_reversible, verify_equivalence)
from pairrank.rankings import influence_weight, transition_matrix

import oracles
from oracles import random_counts

WORKED = np.array([[0, 1, 1], [2, 0, 2], [4, 4, 0]], float)


class TestCheckTriplets:
    def test_worked_example_passes(self):
        rep = check_triplets(WORKED)
        assert rep.is_quasi_symmetric
        assert rep.max_relative_gap == 0.0
        assert rep.violations == ()
        assert bool(rep)

    def test_symmetric_matrix_passes(self):
        rng = np.random.default_rng(3)
        S = rng.uniform(1, 9, size=(5, 5))
        S = S + S.T
        np.fill_diagonal(S, 0.0)
        assert check_triplets(S).is_quasi_symmetric

    def test_single_perturbed_entry_fails(self):
        C = WORKED.copy()
        C[0, 1] = 2.0  # doubles the (0,1,2) product one way
        rep = check_triplets(C)
        assert not rep.is_quasi_symmetric
        v = rep.violations[0]
        assert (v.i, v.j, v.k) == (0, 1, 2)
        assert v.lhs == pytest.approx(16.0)  # 2 * 2 * 4
        assert v.rhs == pytest.approx(8.0)   # 2 * 4 * 1
        assert v.gap == pytest.approx(0.5)

    def test_one_sided_pair_is_degenerate_violation(self):
        C = np.array([[0, 2, 1], [0, 0, 2], [1, 4, 0]], float)
        rep = check_triplets(C)
        assert not rep.is_quasi_symmetric
        degenerate = [v for v in rep.violations if v.j == v.k]
        assert degenerate and degenerate[0].gap == 1.0
        assert (degenerate[0].i, degenerate[0].j) == (0, 1)

    def test_both_zero_pair_is_consistent(self):
        # ring with a missing chord: all triplet products vanish
        C = np.array([[0, 2, 0], [1, 0, 3], [0, 6, 0]], float)
        assert check_triplets(C).is_quasi_symmetric

    def test_tolerance_respected(self):
        C = WORKED.copy()
        C[0, 1] *= 1.0 + 5e-9
        assert check_triplets(C, tol=1e-6).is_quasi_symmetric
        assert not check_triplets(C, tol=1e-12).is_quasi_symmetric


def _triplet_case(seed: int) -> np.ndarray:
    """Random counts with zeros, one-sided pairs, tied gaps or products
    that overflow, by seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 25))
    kind = seed % 4
    if kind == 0:  # small integers: many ties, zeros and one-sided pairs
        C = rng.integers(0, 4, (n, n)).astype(float)
    elif kind == 1:  # quasi-symmetric with tiny noise and missing pairs
        d = rng.uniform(0.5, 2.0, n)
        S = rng.uniform(1.0, 9.0, (n, n)) * (rng.random((n, n)) < 0.8)
        C = d[:, None] * (S + S.T) * rng.lognormal(0.0, 1e-8, (n, n))
    elif kind == 2:  # counts 1 or 2 on a symmetric support: tied gaps
        mask = rng.random((n, n)) < 0.8
        C = rng.integers(1, 3, (n, n)) * (mask & mask.T).astype(float)
    else:  # a wide range: some products overflow
        C = np.exp(rng.uniform(-300, 300, (n, n))) * (rng.random((n, n)) < .7)
    np.fill_diagonal(C, 0.0)
    return C


def _assert_matches_oracle(C: np.ndarray, tol: float) -> None:
    max_gap, found = oracles.triplets(C, tol)
    rep = check_triplets(C, tol=tol)
    assert rep.is_quasi_symmetric == (max_gap <= tol)
    assert rep.max_relative_gap == max_gap  # bit-identical
    assert rep.violation_count == len(found)
    assert rep.worst == (max(found, key=lambda v: v[5]) if found else None)
    assert len(rep.violations) == min(len(found), MAX_LISTED_VIOLATIONS)
    assert rep.violations == tuple(found[:len(rep.violations)])
    assert rep.violations_truncated == (len(found) > MAX_LISTED_VIOLATIONS)


class TestTripletsAgainstOracle:
    @pytest.mark.parametrize("tol", [1e-8, 0.25])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_counts(self, seed, tol):
        with np.errstate(over="ignore"):
            _assert_matches_oracle(_triplet_case(seed), tol)

    @pytest.mark.parametrize("seed", range(8))
    def test_small_blocks(self, seed, monkeypatch):
        # blocks of a few rows, as large inputs get, on inputs the loops
        # can check
        monkeypatch.setattr(quasisym, "_BLOCK_CELLS", 7)
        with np.errstate(over="ignore"):
            _assert_matches_oracle(_triplet_case(seed), 1e-8)

    @pytest.mark.parametrize("block_cells", [quasisym._BLOCK_CELLS, 7])
    def test_listing_is_truncated_and_count_exact(self, block_cells,
                                                  monkeypatch):
        monkeypatch.setattr(quasisym, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(21)
        C = random_counts(rng, 30)
        _, found = oracles.triplets(C, 1e-8)
        assert len(found) > MAX_LISTED_VIOLATIONS
        rep = check_triplets(C)
        assert rep.violations_truncated
        assert rep.violation_count == len(found)
        assert len(rep.violations) == MAX_LISTED_VIOLATIONS
        _assert_matches_oracle(C, 1e-8)

    def test_quasi_symmetric_input_lists_nothing(self):
        rep = check_triplets(random_quasi_symmetric(40, seed=3))
        assert rep.is_quasi_symmetric
        assert rep.violation_count == 0
        assert rep.worst is None
        assert not rep.violations_truncated


class TestDecompose:
    def test_symmetric_part_of_counts_near_overflow(self):
        # S = M / 2 + M.T / 2: the halves are summed, so m_ij + m_ji never
        # overflows on the way
        C = 1e308 * (1 - np.eye(3))
        dec = decompose_qs(C)
        assert np.array_equal(dec.d, np.ones(3))
        assert np.array_equal(dec.S, C)
        assert dec.residual == 0.0

    def test_worked_example(self):
        dec = decompose_qs(WORKED)
        assert_allclose(dec.d, [1, 2, 4], atol=1e-12)
        off = np.ones((3, 3)) - np.eye(3)
        assert_allclose(dec.S, off, atol=1e-12)
        assert dec.residual <= 1e-12

    def test_gauge_first_entry_is_one(self):
        C = random_quasi_symmetric(6, seed=5)
        assert decompose_qs(C).d[0] == 1.0

    def test_symmetric_matrix_gives_unit_d(self):
        rng = np.random.default_rng(8)
        S = rng.uniform(1, 9, size=(4, 4))
        S = S + S.T
        np.fill_diagonal(S, 0.0)
        assert_allclose(decompose_qs(S).d, np.ones(4), atol=1e-12)

    def test_recomposition(self):
        C = random_quasi_symmetric(8, seed=11)
        dec = decompose_qs(C)
        assert_allclose(dec.d[:, None] * dec.S, C.counts, atol=1e-10)
        assert_allclose(dec.S, dec.S.T, atol=1e-13)

    def test_recovers_generating_diagonal(self):
        C = random_quasi_symmetric(7, seed=13)
        dec = decompose_qs(C)
        # the generator also uses the d[0] = 1 gauge
        w = influence_weight(C).scores
        assert_allclose(dec.d / dec.d.sum(), w, atol=1e-9)

    def test_missing_pair_still_decomposes(self):
        C = np.array([[0, 2, 0], [1, 0, 3], [0, 6, 0]], float)
        dec = decompose_qs(C)
        assert_allclose(dec.d, [1.0, 0.5, 1.0], atol=1e-12)
        assert dec.S[0, 2] == 0.0

    def test_perturbed_matrix_rejected(self):
        C = WORKED.copy()
        C[0, 1] = 2.0
        with pytest.raises(NotQuasiSymmetricError) as exc:
            decompose_qs(C)
        assert exc.value.residual > 0.1

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    def test_verdict_does_not_move_with_scale(self, scale):
        # a 6-ring with c_{i,i+1} = 2 and c_{i+1,i} = 1 has no triplet to
        # fail, and its cycle ratio 2^6 is not 1: the decomposition and the
        # reversibility check reject it, whatever the unit of the counts
        n = 6
        i = np.arange(n)
        C = np.zeros((n, n))
        C[i, (i + 1) % n] = 2.0 * scale
        C[(i + 1) % n, i] = 1.0 * scale
        assert check_triplets(C).is_quasi_symmetric
        with pytest.raises(NotQuasiSymmetricError) as exc:
            decompose_qs(C)
        assert exc.value.residual == 63 / 64
        assert not is_reversible(C).reversible
        C = random_quasi_symmetric(6, seed=5).counts
        assert_allclose(decompose_qs(C * scale).d, decompose_qs(C).d,
                        rtol=1e-14)

    def test_disconnected_reciprocal_support(self):
        C = np.zeros((4, 4))
        C[0, 1] = C[1, 0] = 2.0
        C[2, 3] = C[3, 2] = 1.0
        C[0, 2] = 1.0  # one-way edge does not identify d
        with pytest.raises(ConnectivityError):
            decompose_qs(CountMatrix(C, ("a", "b", "c", "d")))


class TestVerifyEquivalence:
    def test_worked_example(self):
        assert verify_equivalence(WORKED) <= 1e-12

    def test_random_generated(self):
        for seed in (1, 2, 3):
            C = random_quasi_symmetric(8, seed=seed)
            assert verify_equivalence(C) <= 1e-10

    def test_symmetric_input(self):
        rng = np.random.default_rng(2)
        S = rng.uniform(1, 9, size=(5, 5))
        S = S + S.T
        np.fill_diagonal(S, 0.0)
        assert verify_equivalence(S) <= 1e-10

    def test_perturbed_input_raises(self):
        C = WORKED.copy()
        C[0, 1] = 2.0
        with pytest.raises(NotQuasiSymmetricError):
            verify_equivalence(C)

    def test_bradley_terry_equation_is_checked(self):
        # d from a noisy table's own influence weights meets the fixed point
        # to rounding, but not the Bradley-Terry score equations, which the
        # table's MLE alone solves
        rng = np.random.default_rng(3)
        C = rng.uniform(1, 10, (5, 5))
        np.fill_diagonal(C, 0.0)
        w = influence_weight(C).scores
        dec = quasisym.QSDecomposition(d=w / w[0], S=np.zeros((5, 5)),
                                       residual=0.0, labels=default_labels(5))
        with pytest.raises(ConsistencyError) as exc:
            verify_equivalence(C, dec=dec)
        assert str(exc.value) == (
            "Bradley-Terry score residual 0.0119 exceeds tol 1e-10")

    @pytest.mark.parametrize("C", [[[0, 1e308], [1e308, 0]],
                                   1e308 * (1 - np.eye(3))],
                             ids=["2x2", "3x3"])
    def test_near_overflow_tables_hold_exactly(self, C):
        # column sums, C d and the games pass float64's largest value, and
        # neither residual depends on the scale: both are exactly 0
        assert verify_equivalence(np.array(C, float)) == 0.0

    def test_fixed_point_with_d_over_many_decades(self):
        # d = (1, 1e200, 1e200): C d sums c_12 d_2 = 1e500 at full scale
        C = np.array([[0, 1, 1], [1e200, 0, 1e300], [1e200, 1e300, 0]])
        assert verify_equivalence(C) == 0.0

    def test_a_nan_residual_fails(self):
        # a NaN residual is not within tol
        dec = quasisym.QSDecomposition(d=np.array([1.0, np.nan, 1.0]),
                                       S=WORKED, residual=0.0,
                                       labels=default_labels(3))
        with pytest.raises(ConsistencyError) as exc:
            verify_equivalence(WORKED, dec=dec)
        assert str(exc.value) == "fixed-point residual nan exceeds tol 1e-10"

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
    def test_tol_must_be_positive(self, tol):
        # a NaN bound would skip the fixed-point check
        with pytest.raises(DomainError, match="tol must be positive"):
            verify_equivalence(WORKED, tol=tol)

    def test_uses_the_given_decomposition(self, monkeypatch):
        C = random_quasi_symmetric(8, seed=4)
        dec = decompose_qs(C)

        def fail(*args, **kwargs):
            raise AssertionError("decomposed again")

        monkeypatch.setattr(quasisym, "decompose_qs", fail)
        assert verify_equivalence(C, dec=dec) <= 1e-10

    @pytest.fixture()
    def no_solves(self, monkeypatch):
        """influence_weight and fit_bt fail wherever check-qs could reach
        them: each route is checked by its own equation at d."""
        def fail(*args, **kwargs):
            raise AssertionError("a ranking route was solved")

        for module in (rankings, bradley_terry, quasisym, cli):
            for name in ("influence_weight", "fit_bt"):
                monkeypatch.setattr(module, name, fail, raising=False)

    @staticmethod
    def _passes(C, d, tmp_path, capsys):
        assert verify_equivalence(C) <= 1e-10
        p = tmp_path / "qs.csv"
        p.write_text(matrix_to_csv(CountMatrix(C, default_labels(len(C)))))
        assert main(["check-qs", str(p), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["diagnostics"]["equivalence_residual"] <= 1e-10
        scores = {e["label"]: e["score"] for e in obj["scores"]}
        assert_allclose([scores[label] for label in default_labels(len(C))],
                        d / d[0], rtol=1e-9)

    def test_exact_tables_at_extreme_merit(self, no_solves, tmp_path,
                                           capsys):
        # d spread over tens of decades: a fit from zero stops short of
        # centered log d for players whose wins are a tiny share of their
        # games, and an iw solve loses digits; at sigma 8 the entries of
        # diag(d)^-1 C span so many decades that only a relative
        # decomposition verdict holds for every table
        for seed, sigma in ((23, 5.0), (0, 8.0)):
            rng = np.random.default_rng(seed)
            for _ in range(60):
                C, d = oracles.lognormal_quasi_symmetric(rng, sigma)
                self._passes(C, d, tmp_path, capsys)

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_two_blocks_joined_weakly(self, eps, no_solves, tmp_path,
                                      capsys):
        self._passes(*oracles.two_block_quasi_symmetric(eps), tmp_path,
                     capsys)


class TestIsReversible:
    def test_worked_example_reversible(self):
        rep = is_reversible(WORKED)
        assert rep.reversible
        assert rep.max_gap <= 1e-10
        assert bool(rep)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
    def test_tol_must_be_positive(self, tol):
        # a NaN bound would call every chain irreversible
        with pytest.raises(DomainError, match="tol must be positive"):
            is_reversible(WORKED, tol=tol)

    def test_symmetric_counts_reversible(self):
        rng = np.random.default_rng(6)
        S = rng.uniform(1, 9, size=(5, 5))
        S = S + S.T
        np.fill_diagonal(S, 0.0)
        assert is_reversible(S).reversible

    def test_one_directional_cycle_not_reversible(self):
        n = 5
        C = np.zeros((n, n))
        idx = np.arange(n)
        C[(idx + 1) % n, idx] = 2.0
        rep = is_reversible(C)
        assert not rep.reversible
        assert rep.max_gap > 0.1

    def test_random_quasi_symmetric_reversible(self):
        for seed in (4, 5):
            assert is_reversible(random_quasi_symmetric(6, seed)).reversible

    def test_damping_breaks_reversibility(self):
        C = random_quasi_symmetric(5, seed=9)
        P = transition_matrix(C, alpha=0.85)
        # the damped chain, viewed as counts, is no longer reversible
        assert not is_reversible(P).reversible

    def test_generic_matrix_not_reversible(self):
        rng = np.random.default_rng(44)
        C = random_counts(rng, 6)
        assert not is_reversible(C).reversible


class TestVerdictsAgree:
    def test_three_routes_same_verdict(self):
        rng = np.random.default_rng(60)
        for case in range(10):
            if case % 2 == 0:
                C = random_quasi_symmetric(5, seed=100 + case).counts.copy()
                expected = True
            else:
                C = random_quasi_symmetric(5, seed=100 + case).counts.copy()
                C[0, 1] *= 1.3
                expected = False
            triplet = check_triplets(C).is_quasi_symmetric
            try:
                decompose_qs(C)
                decomposed = True
            except NotQuasiSymmetricError:
                decomposed = False
            reversible = is_reversible(C).reversible
            assert triplet == decomposed == reversible == expected

import hashlib
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairrank.bradley_terry import AbilityVector, _logistic
from pairrank.errors import DegenerateSampleError, DomainError
from pairrank import generators
from pairrank.generators import (MonteCarloResult, SimulationConfig, circular,
                                 monte_carlo_covariance,
                                 random_quasi_symmetric, round_robin,
                                 simulate_tournament, structure_matrix)
from pairrank.asymptotics import round_robin_covariance
from pairrank.counts import default_labels
from pairrank.quasisym import check_triplets, decompose_qs, verify_equivalence
from pairrank.linalg import is_irreducible
from pairrank.rankings import influence_weight, transition_matrix


def _config(n, games, reps=10, seed=0, mu=None):
    if mu is None:
        mu = np.zeros(n)
    return SimulationConfig(
        abilities=AbilityVector(mu, default_labels(n)),
        games_per_pair=games, replications=reps, seed=seed)


def _reference_draw(cfg, replication, retry=0):
    """A round robin drawn by the keying contract: a fresh Philox keyed by
    (seed, replication << 32 | retry << 16 | pair) for each pair, and wins
    of i over j Binomial(games, logistic(mu_i - mu_j))."""
    n, games = cfg.n, cfg.games_per_pair
    probs = _logistic(np.subtract.outer(cfg.abilities.mu, cfg.abilities.mu))
    C = np.zeros((n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for index, (i, j) in enumerate(pairs):
        word = (replication << 32) | (retry << 16) | index
        key = np.array([cfg.seed, word], dtype=np.uint64)
        wins = int(np.random.Generator(np.random.Philox(key=key)).binomial(
            games, probs[i, j]))
        C[i, j] = wins
        C[j, i] = games - wins
    return C


def _record_draws(monkeypatch) -> list:
    """(replication, retry) of every tournament the Monte Carlo draws."""
    calls = []
    build = generators._draw_counts

    def recording(config, pairs):
        draw = build(config, pairs)

        def wrapped(replication, retry):
            calls.append((replication, retry))
            return draw(replication, retry)
        return wrapped

    monkeypatch.setattr(generators, "_draw_counts", recording)
    return calls


class TestStructures:
    def test_round_robin_entries(self):
        C = round_robin(4, 3)
        assert_allclose(C.counts, np.full((4, 4), 3.0))
        assert_allclose(C.column_sums(), np.full(4, 12.0))

    def test_round_robin_uniform_chain(self):
        P = transition_matrix(round_robin(5, 2), 1.0)
        assert_allclose(P, np.full((5, 5), 0.2))

    def test_circular_band_structure(self):
        C = circular(5, 2).counts
        idx = np.arange(5)
        assert_allclose(C[idx, (idx + 1) % 5], np.full(5, 2.0))
        assert_allclose(C[(idx + 1) % 5, idx], np.full(5, 2.0))
        assert C.sum() == pytest.approx(20.0)  # only ring pairs play
        assert_allclose(C.sum(axis=0), np.full(5, 4.0))

    def test_circular_three_is_complete(self):
        C = circular(3, 1).counts
        assert_allclose(C, np.ones((3, 3)) - np.eye(3))

    def test_circular_uniform_weights(self):
        assert_allclose(influence_weight(circular(7, 1)).scores,
                        np.full(7, 1 / 7), atol=1e-10)

    def test_structure_by_name(self):
        assert np.array_equal(structure_matrix("round_robin", 4, 3).counts,
                              round_robin(4, 3).counts)
        assert np.array_equal(structure_matrix("Circular", 5, 2).counts,
                              circular(5, 2).counts)
        with pytest.raises(DomainError, match="unknown structure 'lattice'"):
            structure_matrix("lattice", 4)
        with pytest.raises(DomainError, match="a ring needs n >= 3, got 2"):
            structure_matrix("circular", 2)

    def test_validation(self):
        with pytest.raises(DomainError):
            round_robin(1, 1)
        with pytest.raises(DomainError):
            round_robin(3, 0)
        with pytest.raises(DomainError):
            circular(2, 1)
        for k in (np.nan, 10 ** 310):  # rejected by the design guard itself
            with pytest.raises(DomainError, match="need k >= 1|too large"):
                round_robin(3, k)
        # sizes numpy cannot index fail before anything is allocated
        for n in (10 ** 20, 2 ** 40):
            for build in (lambda: round_robin(n, 1), lambda: circular(n, 1),
                          lambda: structure_matrix("round-robin", n),
                          lambda: random_quasi_symmetric(n, 0)):
                with pytest.raises(DomainError, match="too large"):
                    build()


class TestRandomQuasiSymmetric:
    def test_is_quasi_symmetric(self):
        for seed in (0, 7, 123):
            C = random_quasi_symmetric(6, seed)
            assert check_triplets(C).is_quasi_symmetric
            assert verify_equivalence(C) <= 1e-10

    def test_gauge_and_ranges(self):
        C = random_quasi_symmetric(9, seed=4)
        dec = decompose_qs(C)
        assert dec.d[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(dec.d >= 0.5 - 1e-9) and np.all(dec.d <= 2.0 + 1e-9)
        off = dec.S[~np.eye(9, dtype=bool)]
        assert np.all(off >= 1.0 - 1e-9) and np.all(off <= 10.0 + 1e-9)
        assert_allclose(np.diag(C.counts), np.zeros(9))

    def test_deterministic(self):
        A = random_quasi_symmetric(5, seed=42)
        B = random_quasi_symmetric(5, seed=42)
        assert np.array_equal(A.counts, B.counts)
        C = random_quasi_symmetric(5, seed=43)
        assert not np.array_equal(A.counts, C.counts)


class TestSimulateTournament:
    def test_pair_totals(self):
        C = simulate_tournament(_config(5, games=16), replication=3).counts
        games = C + C.T
        off = games[~np.eye(5, dtype=bool)]
        assert np.all(off == 16.0)
        assert_allclose(np.diag(C), np.zeros(5))

    def test_deterministic_per_replication(self):
        cfg = _config(4, games=10, seed=9)
        A = simulate_tournament(cfg, replication=2).counts
        B = simulate_tournament(cfg, replication=2).counts
        assert np.array_equal(A, B)
        D = simulate_tournament(cfg, replication=3).counts
        assert not np.array_equal(A, D)

    def test_seed_changes_draws(self):
        A = simulate_tournament(_config(4, games=10, seed=1)).counts
        B = simulate_tournament(_config(4, games=10, seed=2)).counts
        assert not np.array_equal(A, B)

    def test_even_strength_win_rate(self):
        C = simulate_tournament(_config(3, games=10_000, seed=5)).counts
        assert abs(C[0, 1] / 10_000 - 0.5) < 0.02

    def test_ability_gap_shifts_win_rate(self):
        mu = np.array([np.log(3) / 2, -np.log(3) / 2])
        C = simulate_tournament(_config(2, games=20_000, seed=6, mu=mu)).counts
        assert abs(C[0, 1] / 20_000 - 0.75) < 0.02

    def test_keying_limits_checked_once_in_the_config(self):
        _config(362, games=1)
        with pytest.raises(DomainError, match=r"too many pairs.*n > 362"):
            _config(363, games=1)
        _config(2, games=1, reps=1 << 32)
        with pytest.raises(DomainError, match="replications"):
            _config(2, games=1, reps=(1 << 32) + 1)

    @pytest.mark.parametrize("n, games, reps, seed, message", [
        (1, 2, 2, 0, "need at least two players"),
        (0, 2, 2, 0, "need at least two players"),
        (3, 0, 2, 0, "games_per_pair must be >= 1, got 0"),
        (3, -2, 2, 0, "games_per_pair must be >= 1, got -2"),
        (3, 1 << 63, 2, 0,
         "games_per_pair must be < 2^63, the binomial's limit, got "
         f"{1 << 63}"),
        (3, 2, 0, 0, "replications must be >= 1, got 0"),
        (3, 2, -1, 0, "replications must be >= 1, got -1"),
        (3, 2, 2, -1, "seed must lie in [0, 2^64), got -1"),
        (3, 2, 2, 1 << 64, f"seed must lie in [0, 2^64), got {1 << 64}"),
    ])
    def test_config_validation(self, n, games, reps, seed, message):
        with pytest.raises(DomainError) as exc:
            _config(n, games=games, reps=reps, seed=seed)
        assert str(exc.value) == message

    def test_largest_games_per_pair_draws(self):
        cfg = _config(2, games=(1 << 63) - 1, reps=1)
        C = simulate_tournament(cfg).counts
        assert C[0, 1] + C[1, 0] == float((1 << 63) - 1)

    @pytest.mark.parametrize("seed", [0, 42, 1 << 63, (1 << 63) + 1,
                                      (1 << 64) - 1])
    @pytest.mark.parametrize("replication", [0, 5, 1 << 31, (1 << 32) - 1])
    def test_draws_follow_the_keying_contract(self, seed, replication):
        # numpy's binomial inverts the cdf while games min(p, 1 - p) <= 30
        # (4 and 16 games) and samples by BTPE above (1000 and 2^62 + 3);
        # the nonzero abilities give p on both sides of 1/2
        for mu in (np.zeros(6), np.array([0.8, -0.4, 0.3, -0.9, 0.0, 0.2])):
            for games in (4, 16, 1000, (1 << 62) + 3):
                cfg = _config(6, games=games, seed=seed, mu=mu)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    C = simulate_tournament(cfg, replication).counts
                assert np.array_equal(C, _reference_draw(cfg, replication))

    def test_seeds_beyond_int64_draw_apart(self):
        # a key list mixing 2^63 with a small word used to become float64,
        # so these seeds drew alike and 2^64 - 1 drew as seed 0
        draws = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (0, 1 << 63, (1 << 63) + 1, (1 << 64) - 1):
                draws[seed] = (
                    simulate_tournament(_config(10, games=1000,
                                                seed=seed)).counts,
                    random_quasi_symmetric(6, seed).counts)
        for a, b in ((1 << 63, (1 << 63) + 1), ((1 << 64) - 1, 0)):
            assert not np.array_equal(draws[a][0], draws[b][0])
            assert not np.array_equal(draws[a][1], draws[b][1])

    def test_replication_bounds(self):
        with pytest.raises(DomainError):
            simulate_tournament(_config(3, games=4), replication=-1)
        with pytest.raises(DomainError):
            simulate_tournament(_config(3, games=4), replication=1 << 32)


class TestMonteCarlo:
    def test_requires_zero_abilities(self):
        cfg = _config(3, games=8, reps=5,
                      mu=np.array([0.5, -0.25, -0.25]))
        with pytest.raises(DomainError):
            monte_carlo_covariance(cfg, "round-robin")

    def test_requires_two_replications(self):
        with pytest.raises(DomainError):
            monte_carlo_covariance(_config(3, games=8, reps=1), "round-robin")

    def test_unknown_structure(self):
        with pytest.raises(DomainError):
            monte_carlo_covariance(_config(3, games=8, reps=4), "lattice")

    def test_deterministic(self):
        a = monte_carlo_covariance(_config(4, games=8, reps=50, seed=3),
                                   "round-robin")
        b = monte_carlo_covariance(_config(4, games=8, reps=50, seed=3),
                                   "round-robin")
        assert np.array_equal(a.covariance, b.covariance)
        assert a.rejections == b.rejections

    def test_structure_masks_draws(self):
        res = monte_carlo_covariance(_config(5, games=12, reps=10, seed=2),
                                     "circular")
        assert isinstance(res, MonteCarloResult)
        assert res.structure == "circular"
        assert res.covariance.shape == (5, 5)

    @pytest.mark.parametrize("structure, n, rejections, digest", [
        ("circular", 7, 3,
         "354be6fa8a98014c156a272f46c7f4b9b2df6d842732ecb7df77a793602a4524"),
        ("round-robin", 4, 0,
         "7d09afccb45cd661f20f438f7abb0c28d8f8dd7849fa13491f04dc3bf9a83485"),
    ])
    def test_seed_42_covariance_is_pinned(self, structure, n, rejections,
                                          digest):
        # bit for bit: the draw keying, the structure's pairs and the
        # per-replication solve must not change (the ring redraws 3 times)
        res = monte_carlo_covariance(_config(n, games=4, reps=30, seed=42),
                                     structure)
        assert res.rejections == rejections
        assert hashlib.sha256(res.covariance.tobytes()).hexdigest() == digest

    def test_degenerate_draws_rejected_and_counted(self):
        # games=2 on a 3-ring rejects ~28% of draws (exact enumeration), so
        # some replications get redrawn but the 50% budget holds
        res = monte_carlo_covariance(_config(3, games=2, reps=60, seed=0),
                                     "circular")
        assert res.rejections > 0
        assert res.replications == 60

    def test_all_degenerate_raises(self):
        # two players, one game: one column is always zero
        with pytest.raises(DegenerateSampleError):
            monte_carlo_covariance(_config(2, games=1, reps=10), "round-robin")

    @pytest.mark.parametrize("seed", [0, 5, 42])
    def test_too_many_rejections_fire_at_the_same_draw(self, monkeypatch,
                                                        seed):
        # one game a pair on three players: only the two 3-cycles of the 8
        # outcomes are irreducible, so rejections pass reps part way through
        cfg = _config(3, games=1, reps=40, seed=seed)
        rejections, expected = 0, None
        for rep in range(cfg.replications):
            retry = 0
            while expected is None:
                C = _reference_draw(cfg, rep, retry)
                if C.sum(axis=0).all() and is_irreducible(C):
                    break
                rejections += 1
                if rejections > cfg.replications:
                    expected = (rep, retry)
                retry += 1
        assert expected is not None and expected[0] < cfg.replications - 1
        calls = _record_draws(monkeypatch)
        with pytest.raises(DegenerateSampleError) as exc:
            monte_carlo_covariance(cfg, "round-robin")
        assert str(exc.value) == (
            "more than half of all tournament draws were degenerate "
            "(41 rejections); increase games_per_pair")
        assert calls[-1] == expected

    def test_redraws_follow_replication_order(self, monkeypatch):
        # more replications than one block, so blocks meet in the middle
        reps = 2 * generators._BLOCK + 9
        cfg = _config(3, games=2, reps=reps, seed=4)
        expected = []
        for rep in range(reps):
            for retry in range(100):
                expected.append((rep, retry))
                C = _reference_draw(cfg, rep, retry)
                if C.sum(axis=0).all() and is_irreducible(C):
                    break
        calls = _record_draws(monkeypatch)
        res = monte_carlo_covariance(cfg, "round-robin")
        assert calls == expected
        assert res.rejections == len(expected) - reps > 0

    def test_retry_budget_exhausted(self, monkeypatch):
        # two players, one game: every draw has a zero column, and with
        # 2^16 replications the budget of one replication runs out before
        # rejections pass half of all draws
        calls = _record_draws(monkeypatch)
        with pytest.raises(DegenerateSampleError) as exc:
            monte_carlo_covariance(_config(2, games=1, reps=1 << 16),
                                   "round-robin")
        assert str(exc.value) == ("retry budget exhausted for a single "
                                  "replication; increase games_per_pair")
        assert calls[-1] == (0, (1 << 16) - 1)
        assert len(calls) == 1 << 16

    @pytest.mark.parametrize("structure, n", [("round-robin", 20),
                                              ("circular", 7)])
    def test_one_philox_per_call(self, monkeypatch, structure, n):
        # per-pair generators cost one OS entropy read each
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(generators.np.random, "Philox", counting)
        monte_carlo_covariance(_config(n, games=8, reps=150, seed=1),
                               structure)
        assert len(built) <= 1

    def test_sample_without_variation_raises(self):
        # two games a pair: every accepted draw is the 1-1 split, so the
        # standard errors would all be 0
        with pytest.raises(DegenerateSampleError, match="no variation"):
            monte_carlo_covariance(_config(2, games=2, reps=200),
                                   "round-robin")

    def test_large_games_match_first_order_theory(self):
        # at 64 games per pair the first-order covariance is accurate well
        # inside 4 standard errors of a 4000-replication estimate
        n, k = 4, 32
        res = monte_carlo_covariance(_config(n, games=2 * k, reps=4000,
                                             seed=7), "round-robin")
        target = round_robin_covariance(n, k)
        z = np.abs(res.covariance - target) / res.standard_errors
        assert z.max() < 4.0

    def test_standard_errors_scale(self):
        small = monte_carlo_covariance(_config(4, games=16, reps=200, seed=8),
                                       "round-robin")
        large = monte_carlo_covariance(_config(4, games=16, reps=800, seed=8),
                                       "round-robin")
        ratio = small.standard_errors.mean() / large.standard_errors.mean()
        assert 1.5 < ratio < 2.6  # roughly sqrt(4)

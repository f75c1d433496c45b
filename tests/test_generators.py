import hashlib
import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairrank.bradley_terry import AbilityVector, _win_probabilities
from pairrank.errors import DegenerateSampleError, DomainError
from pairrank import generators
from pairrank.generators import (MonteCarloResult, SimulationConfig, circular,
                                 monte_carlo_covariance,
                                 random_quasi_symmetric, round_robin,
                                 simulate_tournament, structure_matrix)
from pairrank.asymptotics import (circular_covariance, lexicographic_pairs,
                                  round_robin_covariance)
from pairrank.counts import default_labels
from pairrank.quasisym import check_triplets, decompose_qs, verify_equivalence
from pairrank.linalg import is_irreducible
from pairrank.rankings import influence_weight, transition_matrix

from oracles import influence_eig


def _config(n, games, reps=10, seed=0, mu=None):
    if mu is None:
        mu = np.zeros(n)
    return SimulationConfig(
        abilities=AbilityVector(mu, default_labels(n)),
        games_per_pair=games, replications=reps, seed=seed)


def _reference_draw(cfg, replication, retry=0):
    """A round robin drawn by the keying contract: one fresh Philox keyed by
    (seed, replication << 32 | retry), and the wins of i over j, over the
    pairs i < j in lexicographic order, one Binomial(games,
    logistic(mu_i - mu_j)) call."""
    n, games = cfg.n, cfg.games_per_pair
    i, j = np.array(list(combinations(range(n), 2))).T
    key = np.array([cfg.seed, (replication << 32) | retry], dtype=np.uint64)
    wins = np.random.Generator(np.random.Philox(key=key)).binomial(
        games, _win_probabilities(cfg.abilities.mu)[i, j])
    C = np.zeros((n, n))
    C[i, j] = wins
    C[j, i] = games - wins
    return C


def _reference_pairs(cfg, structure):
    """The pairs as one tuple each, (i, j, P(i beats j)) over the pairs
    i < j of the lexicographic list that play in the structure, unzipped
    into arrays."""
    probs = _win_probabilities(cfg.abilities.mu)
    plays = structure_matrix(structure, cfg.n).counts
    pairs = [(i, j, float(probs[i, j]))
             for i, j in combinations(range(cfg.n), 2) if plays[i, j]]
    return tuple(np.array(v) for v in zip(*pairs))


def _record_draws(monkeypatch) -> tuple[list, dict]:
    """What the Monte Carlo draws and what it examines: (drawn, examined),
    drawn the (replication, retry) of every tournament drawn, in the order
    of the draw calls, and examined the support C > 0 the degeneracy check
    sees of each (replication, retry). The check must take exactly the
    stack of the draw call before it."""
    drawn, examined, pending = [], {}, []
    build, closed_group = generators._draw_counts, generators._closed_group

    def recording(config, pairs):
        draw = build(config, pairs)

        def wrapped(replications, retries):
            keys = list(zip(np.asarray(replications).tolist(),
                            np.asarray(retries).tolist()))
            drawn.extend(keys)
            pending[:] = keys
            return draw(replications, retries)
        return wrapped

    def examining(adj):
        assert adj.shape[0] == len(pending)
        examined.update(zip(pending, adj.copy()))
        pending.clear()
        return closed_group(adj)

    monkeypatch.setattr(generators, "_draw_counts", recording)
    monkeypatch.setattr(generators, "_closed_group", examining)
    return drawn, examined


def _walk_verdict(cfg):
    """The verdict of the one-by-one walk the Monte Carlo must reproduce:
    each replication in turn is redrawn at retry 1, 2, ... until its
    support is strongly connected, and the walk stops once its rejections
    pass the replication count. The rejection count, or the error's
    message; the sample has no variation when the accepted draws' influence
    weights (by LAPACK) agree."""
    reps, rejections, weights = cfg.replications, 0, []
    for rep in range(reps):
        retry = 0
        while not is_irreducible(_reference_draw(cfg, rep, retry)):
            rejections += 1
            if rejections > reps:
                return (f"more than half of all tournament draws were "
                        f"degenerate ({reps + 1} rejections); increase "
                        f"games_per_pair")
            retry += 1
        weights.append(influence_eig(_reference_draw(cfg, rep, retry)))
    if np.allclose(weights, weights[0], rtol=0.0, atol=1e-12):
        return (f"all {reps} accepted tournament draws gave the same log "
                "weights, so the sample has no variation; increase "
                "games_per_pair")
    return rejections


def _count_philox(monkeypatch) -> list:
    """One entry per numpy Philox built through generators."""
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(generators.np.random, "Philox", counting)
    return built


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

    @pytest.mark.parametrize("name", [None, 3, b"circular"])
    def test_structure_names_must_be_strings(self, name):
        # each raised an AttributeError, the Monte Carlo's before any draw
        message = (f"unknown structure {name!r}; expected one of "
                   f"{generators.STRUCTURES}")
        for build in (lambda: structure_matrix(name, 4),
                      lambda: monte_carlo_covariance(
                          _config(4, games=2, reps=4), name)):
            with pytest.raises(DomainError) as exc:
                build()
            assert str(exc.value) == message
        res = monte_carlo_covariance(_config(3, games=8, reps=4),
                                     "Round_Robin")
        assert res.structure == "round-robin"

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

    @pytest.mark.parametrize("build", [
        lambda k: round_robin(3, k).counts, lambda k: circular(3, k).counts,
        lambda k: round_robin_covariance(3, k),
        lambda k: circular_covariance(3, k)])
    def test_k_must_be_a_real_number(self, build):
        # "2" raised a bare TypeError from the comparison with 1, and True
        # built the design and closed form of k = 1
        for k in ("2", True):
            with pytest.raises(DomainError) as exc:
                build(k)
            assert str(exc.value) == f"k must be a real number, got {k!r}"
        assert build(np.float64(2.0)).tobytes() == build(2).tobytes()


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
        # one tournament's n^2 cells must fit in a draw call's budget
        _config(1024, games=1)
        with pytest.raises(DomainError) as exc:
            _config(1025, games=1)
        assert str(exc.value) == (
            "too many players for a 2^20-cell draw (n > 1024)")
        # a retry is at most the rejections, at most replications, so both
        # words of a key fit in 32 bits
        _config(2, games=1, reps=(1 << 32) - 1)
        with pytest.raises(DomainError) as exc:
            _config(2, games=1, reps=1 << 32)
        assert str(exc.value) == (
            f"replications must be < 2^32, got {1 << 32}")

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

    @pytest.mark.parametrize("games", [2.5, 2.0, np.float64(4.0), True])
    def test_games_per_pair_must_be_an_integer(self, games):
        # 2.5 drew half games (counts 0.5, 1.5, 2.5) and True drew one game
        with pytest.raises(DomainError) as exc:
            _config(3, games=games)
        assert str(exc.value) == (
            f"games_per_pair must be an integer, got {games!r}")
        cfg = _config(4, games=np.int64(16), seed=3)
        assert np.array_equal(simulate_tournament(cfg).counts,
                              simulate_tournament(_config(4, games=16,
                                                          seed=3)).counts)

    @pytest.mark.parametrize("reps", [10.0, 2.5, np.float64(4.0), True])
    def test_replications_must_be_an_integer(self, reps):
        # 10.0 failed late, with a TypeError from range
        with pytest.raises(DomainError) as exc:
            _config(3, games=4, reps=reps)
        assert str(exc.value) == (
            f"replications must be an integer, got {reps!r}")
        a = monte_carlo_covariance(_config(3, games=4, reps=np.int64(10)))
        b = monte_carlo_covariance(_config(3, games=4, reps=10))
        assert np.array_equal(a.covariance, b.covariance)

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(0.0), True])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 drew as seed 1, in the config and in random_quasi_symmetric
        for build in (lambda: _config(3, games=4, seed=seed),
                      lambda: random_quasi_symmetric(4, seed)):
            with pytest.raises(DomainError) as exc:
                build()
            assert str(exc.value) == f"seed must be an integer, got {seed!r}"
        top = np.uint64((1 << 64) - 1)
        assert _config(3, games=4, seed=top).seed == (1 << 64) - 1
        assert np.array_equal(random_quasi_symmetric(4, np.int64(7)).counts,
                              random_quasi_symmetric(4, 7).counts)

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


# each entry point's integer input: its name, and a call with it as the
# value; the result as an array, so that its bytes can be compared
_INTEGER_INPUTS = {
    "simulate_tournament": ("replication", lambda v: simulate_tournament(
        _config(4, games=6, seed=2), v).counts),
    "round_robin": ("n", lambda v: round_robin(v, 2).counts),
    "circular": ("n", lambda v: circular(v, 2).counts),
    "structure_matrix": ("n", lambda v: structure_matrix(
        "circular", v, 2).counts),
    "random_quasi_symmetric": ("n",
                               lambda v: random_quasi_symmetric(v, 1).counts),
    "round_robin_covariance": ("n", lambda v: round_robin_covariance(v, 2)),
    "circular_covariance": ("n", lambda v: circular_covariance(v, 2)),
    "lexicographic_pairs": ("n", lambda v: np.array(lexicographic_pairs(v))),
}


class TestIntegerInputs:
    """Every count a design, closed form or draw is indexed by is an
    integer: a float, a bool or a string is rejected by name, and a numpy
    integer gives the Python int's bytes."""

    @pytest.mark.parametrize("value", [3.0, 2.5, math.nan, True, "3"])
    @pytest.mark.parametrize("call", list(_INTEGER_INPUTS))
    def test_non_integers_are_rejected(self, call, value):
        # a float replication or True drew another replication's
        # tournament, n = 3.0 failed late inside numpy, and a ring of 4.0
        # players had a closed form
        name, build = _INTEGER_INPUTS[call]
        with pytest.raises(DomainError) as exc:
            build(value)
        assert str(exc.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("call", list(_INTEGER_INPUTS))
    def test_numpy_integers_give_the_same_bytes(self, call):
        # a uint64 n took the ring's indices to float64 (int64 % uint64),
        # an IndexError
        build = _INTEGER_INPUTS[call][1]
        want = build(3)
        for value in (np.int64(3), np.uint64(3)):
            got = build(value)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


class TestPairs:
    """_pairs' arrays against the tuple per playing pair they replace."""

    @pytest.mark.parametrize("structure", ["round-robin", "circular"])
    @pytest.mark.parametrize("n", [2, 3, 7, 45, 362])
    @pytest.mark.parametrize("even", [True, False])
    def test_arrays_match_the_tuple_list(self, structure, n, even):
        mu = np.zeros(n)
        if not even:
            mu = np.random.default_rng(n).normal(0.0, 1.5, n)
            mu -= mu.mean()
        cfg = _config(n, games=4, mu=mu)
        if structure == "circular" and n == 2:
            for build in (_reference_pairs, generators._pairs):
                with pytest.raises(DomainError, match="ring needs n >= 3"):
                    build(cfg, structure)
            return
        got = generators._pairs(cfg, structure)
        expected = _reference_pairs(cfg, structure)
        assert len(got) == 3
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


class TestDrawKernel:
    """The re-keyed draws against a fresh numpy Generator(Philox(key)) per
    row."""

    def test_many_lanes_match_fresh_generators(self):
        # 86,400 (row, pair) lanes: games 1-200, so numpy both inverts the
        # cdf (games min(p, 1 - p) <= 30, as at 60 games and p = 1/2) and
        # samples by BTPE (above, as at 61), random abilities that put p on
        # both sides of 1/2, random 64-bit seeds, and among the rows the
        # largest replication and retry
        rng = np.random.default_rng(36)
        top = (generators._MAX_REPLICATION - 1, (1 << 32) - 1)
        lanes, regimes = 0, set()
        for games in range(1, 201):
            mu = rng.normal(0.0, 1.0, 9)
            cfg = _config(9, games=games, mu=mu - mu.mean(),
                          seed=int(rng.integers(0, 1 << 64, dtype=np.uint64)))
            pairs = generators._pairs(cfg)
            low = np.minimum(pairs[2], 1.0 - pairs[2])
            regimes.update(games * low > 30.0)
            assert (pairs[2] < 0.5).any() and (pairs[2] > 0.5).any()
            reps = [top[0], top[0], 0] + rng.integers(0, 1 << 32, 9).tolist()
            retries = [top[1], 0, top[1]] + rng.integers(0, 1 << 32,
                                                         9).tolist()
            C = generators._draw_counts(cfg, pairs)(reps, retries)
            for c, replication, retry in zip(C, reps, retries):
                assert np.array_equal(c,
                                      _reference_draw(cfg, replication, retry))
            lanes += len(C) * len(pairs[0])
        assert lanes >= 80_000 and regimes == {False, True}

    @pytest.mark.parametrize("games, btpe", [(60, 0), (61, 1)])
    def test_inversion_and_btpe_split(self, monkeypatch, games, btpe):
        # numpy inverts the cdf while games p <= 30 and samples by BTPE
        # above; either side is drawn by the one Philox of each call
        assert (games * 0.5 > 30.0) == btpe
        cfg = _config(6, games=games, seed=11)
        expected = [_reference_draw(cfg, replication) for replication in
                    range(5)]
        built = _count_philox(monkeypatch)
        for replication in range(5):
            assert np.array_equal(simulate_tournament(cfg, replication).counts,
                                  expected[replication])
        assert len(built) == 5

    @pytest.mark.parametrize("games", [1, 7, (1 << 62) + 3])
    def test_probabilities_zero_and_one(self, games):
        mu = np.array([-400.0, 400.0, 40.0, -40.0])
        cfg = _config(4, games=games, seed=3, mu=mu)
        p = _win_probabilities(mu)
        assert p[0, 1] == 0.0 and p[1, 2] == p[2, 3] == 1.0
        for replication in range(3):
            C = simulate_tournament(cfg, replication).counts
            assert np.array_equal(C, _reference_draw(cfg, replication))
            assert C[0, 1] == 0 and C[2, 3] == games

    def test_one_game(self):
        mu = np.array([0.7, -0.2, 0.0, -0.5])
        for seed in (0, 1):
            cfg = _config(4, games=1, seed=seed, mu=mu)
            for replication in range(20):
                assert np.array_equal(
                    simulate_tournament(cfg, replication).counts,
                    _reference_draw(cfg, replication))

    def test_largest_keys(self):
        mu = np.array([0.3, -0.1, 0.5, -0.7])
        cfg = _config(4, games=16, seed=(1 << 64) - 1, mu=mu)
        draw = generators._draw_counts(cfg, generators._pairs(cfg))
        rows = [((1 << 32) - 1, (1 << 32) - 1), ((1 << 32) - 1, 0),
                (0, (1 << 32) - 1)]
        C = draw(*zip(*rows))
        for c, (replication, retry) in zip(C, rows):
            assert np.array_equal(c, _reference_draw(cfg, replication, retry))

    def test_random_lanes(self):
        # games 1-60 at abilities that put p on both sides of 1/2, random
        # 64-bit seeds and random (replication, retry) rows
        rng = np.random.default_rng(2024)
        for _ in range(12):
            mu = rng.normal(0.0, 1.5, 5)
            cfg = _config(5, games=int(rng.integers(1, 61)),
                          seed=int(rng.integers(0, 1 << 64, dtype=np.uint64)),
                          mu=mu - mu.mean())
            reps = rng.integers(0, 1 << 32, 4).tolist()
            retries = rng.integers(0, 1 << 16, 4).tolist()
            C = generators._draw_counts(cfg, generators._pairs(cfg))(
                reps, retries)
            for c, replication, retry in zip(C, reps, retries):
                assert np.array_equal(c,
                                      _reference_draw(cfg, replication, retry))


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

    @pytest.mark.parametrize("structure, n, games, reps, rejections, digest", [
        pytest.param(
            "circular", 7, 4, 30, 2,
            "367f759983c2ab103c54de01c939b88dc9ba860e3a6beb066d003a5038b4d1ad",
            id="circular-7-2-367f759983c2ab103c54de01c939b88dc9ba860e3a6beb06"
               "6d003a5038b4d1ad"),
        pytest.param(
            "round-robin", 4, 4, 30, 0,
            "80522dc9a85c3e4a5ec8ac1a23c7c845c16920f3520da76749efb45e9c14f13e",
            id="round-robin-4-0-80522dc9a85c3e4a5ec8ac1a23c7c845c16920f3520d"
               "a76749efb45e9c14f13e"),
        pytest.param(
            "round-robin", 20, 2, 30, 0,
            "04c1cf9f5ce1d9388e3457a77b7b4d91eb6b06d476e16e67e3b1e1113906e59c",
            id="round-robin-20-2-0-04c1cf9f5ce1d9388e3457a77b7b4d91eb6b06d476"
               "e16e67e3b1e1113906e59c"),
        pytest.param(
            "round-robin", 3, 2, 1000, 383,
            "c5d4664fcb5abeddd119bd2193e0d958c95f2f477f4c1dc1ba5014b478173ef3",
            id="round-robin-3-2-1000-383"),
        pytest.param(
            "circular", 7, 4, 1000, 126,
            "6a94f993e642c6261546537614285db3754b12e2be84b00e055291c4abf3a9ef",
            id="circular-7-4-1000-126"),
    ])
    def test_seed_42_covariance_is_pinned(self, structure, n, games, reps,
                                          rejections, digest):
        # bit for bit: the draw keying, the structure's pairs and the
        # per-replication solve must not change (the ring redraws twice);
        # the n = 20 round robin is the draw-bound design, and the two
        # 1000-replication designs redraw hundreds of times across blocks
        res = monte_carlo_covariance(_config(n, games=games, reps=reps,
                                             seed=42), structure)
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
        # two players, one game: one column is always zero, so the first
        # replication alone passes half of all draws
        with pytest.raises(DegenerateSampleError) as exc:
            monte_carlo_covariance(_config(2, games=1, reps=10), "round-robin")
        assert str(exc.value) == (
            "more than half of all tournament draws were degenerate "
            "(11 rejections); increase games_per_pair")
        # a 30-ring at 4 games: two pairs swept 4-0 in opposite directions
        # around the ring cut it, and most draws have such a pair of pairs
        with pytest.raises(DegenerateSampleError) as exc:
            monte_carlo_covariance(_config(30, games=4, reps=500, seed=42),
                                   "circular")
        assert str(exc.value) == (
            "more than half of all tournament draws were degenerate "
            "(501 rejections); increase games_per_pair")

    @pytest.mark.parametrize("seed", range(60))
    def test_too_many_rejections_fire_at_the_same_draw(self, monkeypatch,
                                                        seed):
        # the same rejection count or error as the one-by-one walk. Over
        # the seeds all three verdicts occur: two players at two games give
        # no variation or too many rejections, three mostly a covariance,
        # and three at one game (only the two 3-cycles of the 8 outcomes
        # are irreducible) too many rejections
        drawn, examined = _record_draws(monkeypatch)
        for n, games, reps in [(2, 2, 20), (3, 2, 2), (3, 1, 40)]:
            cfg = _config(n, games=games, reps=reps, seed=seed)
            drawn.clear()
            examined.clear()
            try:
                verdict = monte_carlo_covariance(cfg).rejections
            except DegenerateSampleError as exc:
                verdict = str(exc)
            assert verdict == _walk_verdict(cfg)
            # every row drawn once and examined, and each replication's
            # retries run 0, 1, 2, ... with no gap
            assert len(set(drawn)) == len(drawn) == len(examined)
            for key, adj in examined.items():
                assert np.array_equal(adj, _reference_draw(cfg, *key) > 0)
            retries = {}
            for rep, retry in drawn:
                assert retry == len(retries.setdefault(rep, []))
                retries[rep].append(retry)

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
        drawn, examined = _record_draws(monkeypatch)
        res = monte_carlo_covariance(cfg, "round-robin")
        # every draw of the reference walk was drawn and examined
        assert set(expected) <= set(drawn)
        for key in expected:
            assert np.array_equal(examined[key],
                                  _reference_draw(cfg, *key) > 0)
        assert res.rejections == len(expected) - reps > 0

    def test_every_draw_rejected_fires_after_whole_rounds(self,
                                                          monkeypatch):
        # two players, one game: every draw has a zero column. Each round
        # redraws the whole first block, _BLOCK more rejections, so with
        # 2^16 replications they pass half of all draws in the 129th
        calls = []
        build = generators._draw_counts

        def recording(config, pairs):
            draw = build(config, pairs)

            def wrapped(replications, retries):
                calls.append((np.asarray(replications).tolist(),
                              set(np.asarray(retries).tolist())))
                return draw(replications, retries)
            return wrapped

        monkeypatch.setattr(generators, "_draw_counts", recording)
        with pytest.raises(DegenerateSampleError) as exc:
            monte_carlo_covariance(_config(2, games=1, reps=1 << 16),
                                   "round-robin")
        assert str(exc.value) == (
            "more than half of all tournament draws were degenerate "
            "(65537 rejections); increase games_per_pair")
        assert calls == [(list(range(generators._BLOCK)), {retry})
                         for retry in range(129)]

    def test_a_call_holds_at_most_the_cell_budget(self, monkeypatch):
        # ten 3 x 3 matrices to a call: blocks of ten, and the same result
        # as blocks of _BLOCK
        cfg = _config(3, games=2, reps=35, seed=42)
        whole = monte_carlo_covariance(cfg, "round-robin")
        stacks, draws = [], []
        solve, examine = generators.stationary_vector, generators._closed_group

        def solving(P):
            stacks.append(len(P))
            return solve(P)

        def examining(adj):
            draws.append(len(adj))
            return examine(adj)

        monkeypatch.setattr(generators, "_BLOCK_CELLS", 10 * 9)
        monkeypatch.setattr(generators, "stationary_vector", solving)
        monkeypatch.setattr(generators, "_closed_group", examining)
        split = monte_carlo_covariance(cfg, "round-robin")
        assert stacks == [10, 10, 10, 5]
        assert max(draws) <= 10 and whole.rejections == split.rejections > 0
        assert split.covariance.tobytes() == whole.covariance.tobytes()

    def test_a_block_holds_one_stack(self):
        # n = 100: blocks of 104 replications, each drawn, checked and
        # solved in its one stack of at most _BLOCK_CELLS cells
        cfg = _config(100, games=4, reps=200, seed=5)
        monte_carlo_covariance(_config(3, games=4, reps=2), "round-robin")
        tracemalloc.start()
        try:
            monte_carlo_covariance(cfg, "round-robin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * generators._BLOCK_CELLS <= 24 << 20

    def test_five_hundred_players_in_bounded_memory(self):
        # n = 500: blocks of 4 tournaments (2^20 // 500^2). The peak is the
        # block's stack, the solve's system and LAPACK's copy of it, and the
        # pairs' arrays: about 10.5 n x n float64 arrays
        n = 500
        monte_carlo_covariance(_config(3, games=4, reps=2), "round-robin")
        tracemalloc.start()
        try:
            res = monte_carlo_covariance(_config(n, games=4, reps=8, seed=5),
                                         "round-robin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.covariance.shape == (n, n) and res.rejections == 0
        assert peak < 12 * 8 * n * n

    def test_blocks_of_the_old_cell_budget_give_the_same_bytes(
            self, monkeypatch):
        # 512 replications to a block, as 64 x 362^2 cells held at n = 100
        cfg = _config(100, games=4, reps=200, seed=5)
        small = monte_carlo_covariance(cfg, "round-robin")
        monkeypatch.setattr(generators, "_BLOCK_CELLS", 64 * 362 * 362)
        large = monte_carlo_covariance(cfg, "round-robin")
        assert small.covariance.tobytes() == large.covariance.tobytes()
        assert small.standard_errors.tobytes() == \
            large.standard_errors.tobytes()
        assert small.rejections == large.rejections

    @pytest.mark.parametrize("structure, n", [("round-robin", 20),
                                              ("circular", 7)])
    def test_one_philox_per_call(self, monkeypatch, structure, n):
        # a Philox per row would cost one OS entropy read each; one is
        # built per call and re-keyed for every row of every block, in
        # numpy's inversion regime (8 games) and its BTPE regime (100
        # games at p = 1/2) alike
        built = _count_philox(monkeypatch)
        monte_carlo_covariance(_config(n, games=8, reps=150, seed=1),
                               structure)
        assert len(built) == 1
        monte_carlo_covariance(_config(n, games=100, reps=70, seed=1),
                               structure)
        assert len(built) == 2

    def test_sample_without_variation_raises(self):
        # two games a pair: every accepted draw is the 1-1 split, so the
        # standard errors would all be 0. Half of all draws are rejected,
        # so the rejection count ends near the budget of 200: at seed 2 it
        # stays within it, and the no-variation check is reached
        with pytest.raises(DegenerateSampleError, match="no variation"):
            monte_carlo_covariance(_config(2, games=2, reps=200, seed=2),
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

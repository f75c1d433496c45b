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
    probs = _win_probabilities(cfg.abilities.mu)
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


def _reference_pairs(cfg, structure):
    """The pairs as one tuple each, (index, i, j, P(i beats j)) over the
    pairs i < j of the lexicographic list that play in the structure,
    unzipped into arrays."""
    probs = _win_probabilities(cfg.abilities.mu)
    plays = structure_matrix(structure, cfg.n).counts
    pairs = [(index, i, j, float(probs[i, j]))
             for index, (i, j) in enumerate(combinations(range(cfg.n), 2))
             if plays[i, j]]
    return tuple(np.array(v) for v in zip(*pairs))


def _record_draws(monkeypatch) -> tuple[list, dict]:
    """What the Monte Carlo draws and what it examines: (drawn, examined),
    drawn the (replication, retry) of every tournament drawn, in batches
    and ahead of use, and examined the support C > 0 the degeneracy check
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


def _numpy_inversion(games, p, uniforms):
    """numpy's random_binomial_inversion, line by line, on the given
    uniforms."""
    q = 1.0 - p
    qn = math.exp(games * math.log(q))
    mean = games * p
    bound = int(min(games, mean + 10.0 * math.sqrt(mean * q + 1)))
    X, px, U = 0, qn, next(uniforms)
    while U > px:
        X += 1
        if X > bound:
            X, px, U = 0, qn, next(uniforms)
        else:
            U -= px
            px = ((games - X + 1) * p * px) / (X * q)
    return X


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
        assert len(got) == 4
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


class TestDrawKernel:
    """The vectorised draws against a fresh numpy Generator(Philox(key))."""

    @pytest.mark.parametrize("games, philoxes", [(60, 0), (61, 1)])
    def test_inversion_and_btpe_split(self, monkeypatch, games, philoxes):
        # numpy inverts the cdf while games p <= 30 and samples by BTPE
        # above; only the BTPE side builds a Philox
        cfg = _config(6, games=games, seed=11)
        expected = [_reference_draw(cfg, replication) for replication in
                    range(5)]
        built = _count_philox(monkeypatch)
        for replication in range(5):
            assert np.array_equal(simulate_tournament(cfg, replication).counts,
                                  expected[replication])
        assert len(built) == 5 * philoxes

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
        rows = [((1 << 32) - 1, (1 << 16) - 1), ((1 << 32) - 1, 0),
                (0, (1 << 16) - 1)]
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

    def test_uniforms_follow_numpy_stream(self):
        # uniform k is word k % 4 of counter block k // 4 + 1
        words = np.array([0, 5, (1 << 64) - 1], dtype=np.uint64)
        for seed in (0, (1 << 64) - 1):
            got = np.array([generators._uniform(seed, words, k)
                            for k in range(9)]).T
            for row, word in zip(got, words):
                key = np.array([seed, word], dtype=np.uint64)
                ref = np.random.Generator(np.random.Philox(key=key)).random(9)
                assert np.array_equal(row, ref)

    def test_restart_with_a_forced_uniform(self):
        # a uniform above the cdf at the bound restarts the walk with the
        # lane's next uniform, as numpy's loop does
        top = 1.0 - 2.0 ** -53
        lanes = [(1000, 0.001, [top, 0.3]), (1000, 0.001, [top, top, 0.9]),
                 (1000, 0.001, [0.5]), (3, 0.5, [top]), (50, 0.4, [top, 0.7])]
        for games in (1000, 3, 50):
            rows = [(p, u) for g, p, u in lanes if g == games]
            p = np.array([p for p, _ in rows])
            forced = np.zeros((len(rows), 3))
            for row, (_, u) in enumerate(rows):
                forced[row, :len(u)] = u
            asked = []

            def uniform(at, k):
                asked.append(k)
                return forced[at, k]

            pid, px, bound = generators._inversion_table(games, p)
            got = generators._inversion(uniform, pid, px, bound)
            for x, (pr, u) in zip(got, rows):
                assert x == _numpy_inversion(games, pr, iter(u))
            assert max(asked) == max(len(u) for _, u in rows) - 1


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
            "circular", 7, 4, 30, 3,
            "354be6fa8a98014c156a272f46c7f4b9b2df6d842732ecb7df77a793602a4524",
            id="circular-7-3-354be6fa8a98014c156a272f46c7f4b9b2df6d842732ecb7"
               "df77a793602a4524"),
        pytest.param(
            "round-robin", 4, 4, 30, 0,
            "7d09afccb45cd661f20f438f7abb0c28d8f8dd7849fa13491f04dc3bf9a83485",
            id="round-robin-4-0-7d09afccb45cd661f20f438f7abb0c28d8f8dd7849fa"
               "13491f04dc3bf9a83485"),
        pytest.param(
            "round-robin", 20, 2, 30, 0,
            "594a5beac8398b2e784f9556a18bbdc85e6b1329b131c7d69d36d44c03f02f78",
            id="round-robin-20-2-0-594a5beac8398b2e784f9556a18bbdc85e6b1329b1"
               "31c7d69d36d44c03f02f78"),
        pytest.param(
            "round-robin", 3, 2, 1000, 357,
            "a295ddc05203f14991d9fb8768c76f8623f729f7c9a8ee85772d879d4493eef2",
            id="round-robin-3-2-1000-357"),
        pytest.param(
            "circular", 7, 4, 1000, 141,
            "e3a2806d06ec44c5caa835ad51f49479323b8587d0f14c5acab9efe95fd19706",
            id="circular-7-4-1000-141"),
    ])
    def test_seed_42_covariance_is_pinned(self, structure, n, games, reps,
                                          rejections, digest):
        # bit for bit: the draw keying, the structure's pairs and the
        # per-replication solve must not change (the ring redraws 3 times);
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

    @pytest.mark.parametrize("seed", [0, 5, 42])
    def test_too_many_rejections_fire_at_the_same_draw(self, monkeypatch,
                                                        seed):
        # one game a pair on three players: only the two 3-cycles of the 8
        # outcomes are irreducible, so rejections pass reps part way through
        cfg = _config(3, games=1, reps=40, seed=seed)
        rejections, walk = 0, []
        for rep in range(cfg.replications):
            retry = 0
            while rejections <= cfg.replications:
                walk.append((rep, retry))
                C = _reference_draw(cfg, rep, retry)
                if C.sum(axis=0).all() and is_irreducible(C):
                    break
                rejections += 1
                retry += 1
        expected = walk[-1]
        assert rejections == 41 and expected[0] < cfg.replications - 1
        drawn, examined = _record_draws(monkeypatch)
        with pytest.raises(DegenerateSampleError) as exc:
            monte_carlo_covariance(cfg, "round-robin")
        assert str(exc.value) == (
            "more than half of all tournament draws were degenerate "
            "(41 rejections); increase games_per_pair")
        # every draw of the reference walk, up to the one where it fires,
        # was drawn and its support examined
        assert expected in drawn
        for key in walk:
            assert np.array_equal(examined[key],
                                  _reference_draw(cfg, *key) > 0)

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

    def test_retry_budget_exhausted(self, monkeypatch):
        # two players, one game: every draw has a zero column, and with
        # 2^16 replications the budget of one replication runs out before
        # rejections pass half of all draws
        drawn, examined = _record_draws(monkeypatch)
        with pytest.raises(DegenerateSampleError) as exc:
            monte_carlo_covariance(_config(2, games=1, reps=1 << 16),
                                   "round-robin")
        assert str(exc.value) == ("retry budget exhausted for a single "
                                  "replication; increase games_per_pair")
        # replication 0 is drawn once and examined at every retry
        # 0 .. 2^16 - 1, and nothing past the budget is drawn
        assert sorted(retry for rep, retry in drawn if rep == 0) == \
            list(range(1 << 16))
        assert all((0, retry) in examined for retry in range(1 << 16))
        assert max(retry for _, retry in drawn) < 1 << 16

    def test_a_rejected_head_draws_spare_rows(self, monkeypatch):
        # with fewer redraw lanes than a block has replications, the
        # earliest pending replication still draws one more row for each of
        # its rejections: where every draw is rejected (two players, one
        # game) its retries double a call, and the error comes in a few
        rows = []
        build = generators._draw_counts

        def counting(config, pairs):
            draw = build(config, pairs)

            def wrapped(replications, retries):
                rows.append(len(replications))
                return draw(replications, retries)
            return wrapped

        monkeypatch.setattr(generators, "_REDRAW_LANES", 4)
        monkeypatch.setattr(generators, "_draw_counts", counting)
        with pytest.raises(DegenerateSampleError) as exc:
            monte_carlo_covariance(_config(2, games=1, reps=1000),
                                   "round-robin")
        assert str(exc.value) == (
            "more than half of all tournament draws were degenerate "
            "(1001 rejections); increase games_per_pair")
        assert len(rows) <= 12 and rows[0] == generators._BLOCK

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
        # per-pair generators cost one OS entropy read each; numpy's
        # inversion regime (8 games) is drawn without any, and the BTPE
        # regime (100 games at p = 1/2) builds one over several blocks
        built = _count_philox(monkeypatch)
        monte_carlo_covariance(_config(n, games=8, reps=150, seed=1),
                               structure)
        assert built == []
        monte_carlo_covariance(_config(n, games=100, reps=70, seed=1),
                               structure)
        assert len(built) == 1

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

import hashlib
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairrank import bradley_terry
from pairrank.bradley_terry import (AbilityVector, _win_probabilities,
                                    bt_covariance, bt_deviance, fit_bt,
                                    predict_prob)
from pairrank.counts import CountMatrix
from pairrank.errors import (ConnectivityError, ConvergenceError,
                             DimensionError, DomainError, SeparationError)

from oracles import bt_mle, lognormal_table, quasi_symmetric_ring, \
    random_counts

WORKED = np.array([[0, 1, 1], [2, 0, 2], [4, 4, 0]], float)


def dense_noisy(n, seed):
    """C = diag(d) S with S symmetric in [1, 10], times lognormal noise."""
    rng = np.random.default_rng(seed)
    S = np.triu(rng.uniform(1.0, 10.0, (n, n)), 1)
    C = rng.uniform(0.5, 2.0, n)[:, None] * (S + S.T)
    return C * rng.lognormal(0.0, 0.2, (n, n))


def sparse_lognormal(seed, sizes, sigmas, densities):
    """Lognormal counts on a random subset of the pairs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(*sizes))
    C = rng.lognormal(0.0, float(rng.uniform(*sigmas)), (n, n))
    C *= rng.random((n, n)) < rng.uniform(*densities)
    np.fill_diagonal(C, 0.0)
    return C


def near_separated(seed):
    """Lognormal games on a random subset of the pairs, won in about the
    proportion that abilities spread over tens of logits give, so that
    most games are all but certain."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 120))
    spread, density = rng.uniform(10.0, 100.0), rng.uniform(0.05, 1.0)
    mu = rng.uniform(0.0, spread, n)
    games = np.triu(rng.lognormal(3.0, 1.0, (n, n))
                    * (rng.random((n, n)) < density), 1)
    games += games.T
    p = 1.0 / (1.0 + np.exp(-np.subtract.outer(mu, mu)))
    return games * p * rng.lognormal(0.0, 0.3, (n, n))


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestFit:
    def test_two_players_closed_form(self):
        # 3 wins vs 1: odds ratio 3, so mu = (log 3)/2 * (1, -1)
        fit = fit_bt([[0, 3], [1, 0]])
        assert_allclose(fit.abilities.mu, [np.log(3) / 2, -np.log(3) / 2],
                        atol=1e-9)
        assert fit.converged

    def test_balanced_counts_give_zero(self):
        fit = fit_bt(np.full((4, 4), 2.0))
        assert_allclose(fit.abilities.mu, np.zeros(4), atol=1e-10)

    def test_worked_example_recovers_log_weights(self):
        fit = fit_bt(WORKED)
        expected = np.log([1, 2, 4])
        expected -= expected.mean()
        assert_allclose(fit.abilities.mu, expected, atol=1e-8)
        assert fit.deviance == pytest.approx(0.0, abs=1e-10)

    def test_matches_independent_optimizer(self):
        rng = np.random.default_rng(8)
        for n in (3, 5, 8):
            C = random_counts(rng, n, low=1.0, high=12.0)
            fit = fit_bt(C)
            assert_allclose(fit.abilities.mu, bt_mle(C), atol=1e-6)

    def test_gradient_vanishes_at_fit(self):
        rng = np.random.default_rng(14)
        C = random_counts(rng, 6, low=1.0, high=9.0)
        mu = fit_bt(C).abilities.mu
        h = 1e-6
        for u in range(6):
            e = np.zeros(6)
            e[u] = h
            up = bt_deviance(C, mu + e - (mu + e).mean())
            dn = bt_deviance(C, mu - e - (mu - e).mean())
            assert abs(up - dn) / (2 * h) < 1e-3

    def test_sum_zero_gauge(self):
        rng = np.random.default_rng(19)
        C = random_counts(rng, 5, low=1.0, high=6.0)
        assert fit_bt(C).abilities.mu.sum() == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_is_ignored(self):
        C = WORKED.copy()
        np.fill_diagonal(C, [5.0, 7.0, 11.0])
        assert_allclose(fit_bt(C).abilities.mu, fit_bt(WORKED).abilities.mu,
                        atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(25)
        C = random_counts(rng, 5, low=1.0, high=9.0)
        perm = np.array([3, 0, 4, 1, 2])
        mu = fit_bt(C).abilities.mu
        mu_p = fit_bt(C[np.ix_(perm, perm)]).abilities.mu
        assert_allclose(mu_p, mu[perm], atol=1e-9)

    def test_disconnected_components_error(self):
        C = np.zeros((4, 4))
        C[0, 1] = C[1, 0] = 2.0
        C[2, 3] = C[3, 2] = 2.0
        with pytest.raises(ConnectivityError) as exc:
            fit_bt(CountMatrix(C, ("a", "b", "c", "d")))
        assert exc.value.components == (("a", "b"), ("c", "d"))

    def test_undefeated_player_error(self):
        C = np.array([[0, 2, 2], [0, 0, 2], [0, 1, 0]], float)
        with pytest.raises(SeparationError) as exc:
            fit_bt(CountMatrix(C, ("a", "b", "c")))
        assert exc.value.label == "a"

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [2, 3, 0, 1]])
    def test_unbeaten_group_error(self, order):
        # a and b beat c and d in every game between the groups, so no MLE
        # exists although every player has a win and a loss
        C = np.array([[0, 1, 1, 1], [1, 0, 1, 1], [0, 0, 0, 1], [0, 0, 1, 0]],
                     float)
        labels = ("a", "b", "c", "d")
        with pytest.raises(SeparationError) as exc:
            fit_bt(CountMatrix(C[np.ix_(order, order)],
                               tuple(labels[i] for i in order)))
        assert exc.value.label == "a"
        assert "no losses against" in str(exc.value)

    @pytest.mark.parametrize("n", [200, 1000])
    def test_quasi_symmetric_ring_gives_centered_log_d(self, n):
        C, d = quasi_symmetric_ring(n)
        expected = np.log(d) - np.log(d).mean()
        assert_allclose(fit_bt(C).abilities.mu, expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
    def test_reported_residual_is_at_most_tol(self, tol):
        rng = np.random.default_rng(27)
        C = random_counts(rng, 30, low=1.0, high=9.0)
        fit = fit_bt(C, tol=tol)
        assert fit.residual <= tol
        # the score residual, recomputed from the returned abilities
        mu = fit.abilities.mu
        games = C + C.T
        p = 1.0 / (1.0 + np.exp(-np.subtract.outer(mu, mu)))
        score = C.sum(axis=1) - (games * p).sum(axis=1)
        assert np.max(np.abs(score) / games.sum(axis=1)) <= max(tol, 1e-14)

    def test_step_budget_error(self):
        rng = np.random.default_rng(29)
        C = random_counts(rng, 6, low=1.0, high=9.0)
        with pytest.raises(ConvergenceError) as exc:
            fit_bt(C, max_iter=1)
        assert exc.value.iterations == 1
        assert exc.value.residual > 1e-10

    @pytest.mark.parametrize("max_iter", [-1, -5, 2.5, 3.0, "3", None, True])
    def test_max_iter_must_be_a_count(self, max_iter):
        with pytest.raises(DomainError, match="max_iter must be"):
            fit_bt(WORKED, max_iter=max_iter)

    def test_zero_and_numpy_max_iter(self):
        with pytest.raises(ConvergenceError) as exc:
            fit_bt(WORKED, max_iter=0)
        assert exc.value.iterations == 0
        assert fit_bt(WORKED, max_iter=np.int64(20)).converged

    @pytest.mark.parametrize("seed", [45, 822, 1122, 1644, 1889])
    def test_singular_newton_step_error(self, seed):
        # counts spread over tens of decades: the information of a player
        # underflows and the Newton system becomes singular in floating
        # point before the fit converges
        C = lognormal_table([7, seed], (5, 60), (0.1, 0.5), (4.0, 7.0))
        with pytest.raises(ConvergenceError, match="singular system") as exc:
            fit_bt(C)
        assert exc.value.residual > 1e-10
        assert exc.value.iterations >= 1

    def test_one_player_error(self):
        with pytest.raises(DomainError) as exc:
            fit_bt(CountMatrix([[3.0]], ("a",)))
        assert str(exc.value) == "need at least two players to fit"

    def test_winless_player_error(self):
        # player b beats nobody
        C = np.array([[0, 2, 2], [0, 0, 0], [1, 3, 0]], float)
        with pytest.raises(SeparationError) as exc:
            fit_bt(CountMatrix(C, ("a", "b", "c")))
        assert exc.value.label == "b"


class TestPinnedFit:
    # sha256 of mu and of the covariance bytes, the deviance and residual
    # in hex and the step count, as the fit gave them before it was moved
    # into fixed buffers; the two sparse tables halve Newton steps 14 times.
    # The near-separated table (53 players) halves 6 times in 20 steps; at
    # its fit 93% of the count lies at win probabilities above 0.99 and |l|
    # is 3% of the total, so its Armijo test has the least room for
    # rounding in l
    PINNED = {
        "dense-noisy-300": (
            lambda: dense_noisy(300, 1701),
            "2d07c95a5ba81af989520cac46e4b6d17ecdf7fd110a15e218e84b0787f09c00",
            "24981ebc208bc8aadb5ab22532fbbc34080d7026eaf749a77368350ac63ba862",
            "0x1.642daa3d43057p+13", 4, "0x1.fb94a99358258p-47"),
        "ring-200": (
            lambda: quasi_symmetric_ring(200, seed=3)[0],
            "5383d8d55ad1d942e424ce143a4a1d7b2c4724bc20efa5c6f093745eee5c3f04",
            "a941a9665951810cab2f436447d365dda273ba09f2b4223f8cd07fde44c06e58",
            "0x1.358816c942e00p-45", 4, "0x1.16bf482733870p-36"),
        "sparse-267": (
            lambda: sparse_lognormal(50, (150, 300), (2, 4), (0.01, 0.1)),
            "202e4986b4b8e2495947d7d2d034040515e606f3e523ea7e38d338dbaec5621f",
            "79adca0c2666ea51727cfb567b3e7db8a48752982e82719661831ab6770f4db0",
            "0x1.e6d6b1a06ccd8p+15", 16, "0x1.b3805343f2643p-40"),
        "sparse-14": (
            lambda: sparse_lognormal(2368, (3, 30), (1, 4), (0.2, 1)),
            "ec2a86b449664d6531bd8d1545185782afb919fceddad763f1833b2f7e2a0807",
            "a0ff09359063c31b545f9c017d3038217fa29b9190dc0c36d2b76e8ca5b00a69",
            "0x1.65b47edd62cd8p+10", 11, "0x1.82d1017405be2p-36"),
        "near-separated-118": (
            lambda: near_separated(118),
            "1b4bc8bcc7246e240e31af25ac74089e70b55489a7c279194e7a2696f4e250fe",
            "f1c67a732c7d80372e55cb126a5d88cd944f1dac51f32768aaa235d8ab4756df",
            "0x1.e0c3bea668db6p-1", 20, "0x1.48ba1f9b6f2bap-38"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_fit_is_bit_for_bit_pinned(self, name):
        make, mu_sha, cov_sha, deviance, iterations, residual = \
            self.PINNED[name]
        C = make()
        fit = fit_bt(C)
        assert (hashlib.sha256(fit.abilities.mu.tobytes()).hexdigest(),
                hashlib.sha256(fit.covariance.tobytes()).hexdigest(),
                fit.deviance.hex(), fit.iterations, fit.residual.hex()) == (
            mu_sha, cov_sha, deviance, iterations, residual)
        # the public entry points give the fit's own bits
        assert bt_covariance(C, fit.abilities).tobytes() == \
            fit.covariance.tobytes()
        assert bt_deviance(C, fit.abilities) == fit.deviance


@pytest.mark.parametrize("n, density, sigma", [
    (5, 1.0, 2.0), (150, 0.05, 2.0), (300, 1.0, 2.0), (40, 0.5, 400.0)])
def test_probability_pass_loglik_matches_one_sum(n, density, sigma):
    # the pass sums l over the whole table and leaves the logistic in out
    rng = np.random.default_rng(n)
    counts = random_counts(rng, n) * (rng.random((n, n)) < density)
    mu = rng.normal(0.0, sigma, n)
    rows, cols = np.nonzero(counts)
    expected = -(counts[rows, cols] @ np.logaddexp(0.0, mu[cols] - mu[rows]))
    out, work = np.empty((n, n)), np.empty((n, n))
    p, ll = _win_probabilities(mu, out, work, counts)
    assert p is out
    assert np.isfinite(ll)
    assert ll == pytest.approx(expected, rel=1e-13, abs=0)
    x = np.subtract.outer(mu, mu)
    e = np.exp(-np.abs(x))
    assert p.tobytes() == (np.where(x >= 0, 1.0, e) / (1.0 + e)).tobytes()
    assert p.tobytes() == _win_probabilities(mu).tobytes()
    if sigma > 100:
        # exp(-|x|) underflows to 0 on some played pairs
        assert np.any(np.abs(x[rows, cols]) > 750)


def _masked_kernel(mu, out=None, work=None, counts=None):
    """The probability pass as it chose its numerator by a boolean mask:
    1 where x >= 0, e = exp(-|x|) elsewhere, written through np.copyto."""
    x = np.subtract.outer(mu, mu, out=out)
    nonneg = x >= 0
    if counts is not None:
        ll = np.vdot(counts, np.minimum(x, 0.0, out=work))
    e = np.abs(x, out=x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    if counts is not None:
        ll -= np.vdot(counts, np.log1p(e, out=work))
    denominator = np.add(e, 1.0, out=work)
    np.copyto(e, 1.0, where=nonneg)
    p = np.divide(e, denominator, out=e)
    return p if counts is None else (p, float(ll))


def _kernel_abilities() -> dict:
    """Random abilities with n from 2 to 60 and spreads up to +-50, gaps
    beyond +-745 where exp(-|x|) underflows to 0, exact ties and -0.0
    entries."""
    rng = np.random.default_rng(3202)
    cases = {f"random-{k}": rng.uniform(-1, 1, int(rng.integers(2, 61)))
             * float(rng.uniform(0.0, 50.0)) for k in range(40)}
    cases.update({
        "underflow": np.array([-800.0, -746.0, 0.0, 1.0, 760.0]),
        "far-apart": rng.uniform(-1e4, 1e4, 30),
        "ties": np.repeat(rng.normal(0.0, 3.0, 6), 3),
        "signed-zeros": np.array([0.0, -0.0, 0.0, -0.0, 2.5, -2.5]),
        "all-zero": np.zeros(7),
        "negative-zeros": np.full(4, -0.0)})
    return cases


KERNEL_ABILITIES = _kernel_abilities()


@pytest.mark.parametrize("mu", KERNEL_ABILITIES.values(),
                         ids=KERNEL_ABILITIES)
def test_probability_pass_matches_the_masked_kernel(mu):
    # the numerator exp(min(x, 0)) and e as the lesser of it and its
    # transpose give every p and l the masked pass gave, bit for bit
    n = len(mu)
    counts = np.random.default_rng(n).integers(0, 9, (n, n)).astype(float)
    assert _win_probabilities(mu).tobytes() == _masked_kernel(mu).tobytes()
    for given in (True, False):
        bufs = [np.empty((n, n)) for _ in range(4)] if given else [None] * 4
        p, ll = _win_probabilities(mu, bufs[0], bufs[1], counts)
        q, ll_ref = _masked_kernel(mu, bufs[2], bufs[3], counts)
        assert p.tobytes() == q.tobytes()
        assert np.float64(ll).tobytes() == np.float64(ll_ref).tobytes()
        if given:
            assert p is bufs[0]


def test_probability_pass_allocates_no_square_array():
    # with out and work given, no n x n temporary: not even a boolean one
    n = 400
    mu = np.random.default_rng(5).normal(0.0, 3.0, n)
    counts = np.ones((n, n))
    out, work = np.empty((n, n)), np.empty((n, n))
    assert peak_bytes(lambda: _win_probabilities(mu, out, work, counts)) \
        < n * n
    assert peak_bytes(lambda: _win_probabilities(mu, out, work)) < n * n


def test_fit_evaluates_its_final_abilities_once(monkeypatch):
    # after the last line-search trial (the calls that sum l), one pass at
    # the centred abilities serves the deviance and the covariance
    calls = []
    kernel = bradley_terry._win_probabilities

    def counting(mu, out=None, work=None, counts=None):
        calls.append((mu.copy(), counts is not None))
        return kernel(mu, out, work, counts)

    monkeypatch.setattr(bradley_terry, "_win_probabilities", counting)
    for C in (WORKED, dense_noisy(40, 3), np.full((4, 4), 2.0)):
        calls.clear()
        fit = fit_bt(C)
        last = max(k for k, (_, trial) in enumerate(calls) if trial)
        after = calls[last + 1:]
        assert len(after) == 1
        assert after[0][0].tobytes() == fit.abilities.mu.tobytes()
        assert not after[0][1]


@pytest.mark.parametrize("C", [[[0, 1e308], [1e308, 0]],
                               1e308 * (1 - np.eye(3))], ids=["2x2", "3x3"])
@pytest.mark.parametrize("route", [
    fit_bt,
    lambda C: bt_covariance(C, np.zeros(len(C))),
    lambda C: bt_deviance(C, np.zeros(len(C)))],
    ids=["fit", "covariance", "deviance"])
def test_games_beyond_float64_are_a_domain_error(C, route):
    # a fit's covariance and deviance depend on the counts' scale, so games
    # that overflow are an error, raised with numpy silent
    with pytest.raises(DomainError) as exc:
        route(np.array(C, float))
    assert str(exc.value) == (
        "the games of p1 sum beyond float64's largest value 1.798e+308")


class TestPeakMemory:
    # in n x n float arrays: a fit holds four (counts, games, probabilities
    # and work) and, at its deviance, the terms at the nonzero counts; the
    # covariance holds games, its two buffers and the inverse
    N = 500
    ARRAY = 8 * N * N

    @pytest.fixture(scope="class")
    def table(self):
        C = CountMatrix(dense_noisy(self.N, 5))
        return C, fit_bt(C).abilities

    def test_fit(self, table):
        C, _ = table
        assert peak_bytes(lambda: fit_bt(C)) <= 6 * self.ARRAY

    def test_deviance(self, table):
        C, abilities = table
        assert peak_bytes(lambda: bt_deviance(C, abilities)) <= \
            5.5 * self.ARRAY

    def test_covariance(self, table):
        C, abilities = table
        assert peak_bytes(lambda: bt_covariance(C, abilities)) <= \
            4.5 * self.ARRAY


class TestCovariance:
    def test_two_player_closed_form(self):
        # 4 games at even strength: F = (n/4) [[1,-1],[-1,1]], pinv scaled
        cov = bt_covariance([[0, 2], [2, 0]], np.zeros(2))
        assert_allclose(cov, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_round_robin_closed_form(self):
        # every pair 2 games at mu=0: matches 2(n-1)/(kn^2), -2/(kn^2)
        n, k = 4, 1
        C = np.full((n, n), float(k))
        cov = bt_covariance(C, np.zeros(n))
        expected = np.full((n, n), -2 / (k * n * n))
        np.fill_diagonal(expected, 2 * (n - 1) / (k * n * n))
        assert_allclose(cov, expected, atol=1e-12)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(31)
        C = random_counts(rng, 6, low=1.0, high=9.0)
        cov = bt_covariance(C, fit_bt(C).abilities.mu)
        assert_allclose(cov @ np.ones(6), np.zeros(6), atol=1e-10)

    def test_disconnected_graph_error(self):
        C = np.zeros((4, 4))
        C[0, 1] = C[1, 0] = 2.0
        C[2, 3] = C[3, 2] = 2.0
        with pytest.raises(ConnectivityError) as exc:
            bt_covariance(CountMatrix(C, ("a", "b", "c", "d")), np.zeros(4))
        assert exc.value.components == (("a", "b"), ("c", "d"))

    def test_matches_pseudoinverse_of_information(self):
        rng = np.random.default_rng(35)
        C = random_counts(rng, 8, low=1.0, high=9.0)
        mu = fit_bt(C).abilities.mu
        games = C + C.T
        p = 1.0 / (1.0 + np.exp(-np.subtract.outer(mu, mu)))
        weight = games * p * (1.0 - p)
        F = np.diag(weight.sum(axis=1)) - weight
        assert_allclose(bt_covariance(C, mu), np.linalg.pinv(F), atol=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(33)
        C = random_counts(rng, 7, low=1.0, high=9.0)
        cov = bt_covariance(C, np.zeros(7))
        vals = np.linalg.eigvalsh(cov)
        assert vals.min() >= -1e-12


class TestDeviance:
    def test_even_strength_example(self):
        val = bt_deviance([[0, 3], [1, 0]], np.zeros(2))
        expected = 2 * (3 * np.log(3 / 2) + np.log(1 / 2))
        assert val == pytest.approx(expected, abs=1e-12)

    def test_zero_counts_contribute_nothing(self):
        val = bt_deviance([[0, 2, 0], [2, 0, 1], [0, 3, 0]], np.zeros(3))
        # only pairs (0,1) and (1,2) played
        expected = 2 * (1 * np.log(1 / 2) + 3 * np.log(3 / 2))
        assert val == pytest.approx(expected, abs=1e-12)

    def test_underflowed_fitted_count_gives_finite_deviance(self):
        # a pair whose fitted n_ij p_ij underflows to 0 although c_ij > 0
        C = lognormal_table([9, 108], (5, 40), (0.2, 1.0), 12.0)
        fit = fit_bt(C)
        mu, games, won = fit.abilities.mu, C + C.T, C > 0
        assert np.any(won & (games * _win_probabilities(mu) == 0))
        log_p = -np.logaddexp(0.0, -np.subtract.outer(mu, mu))
        expected = 2 * np.sum(C[won] * (np.log(C[won]) - np.log(games[won])
                                        - log_p[won]))
        assert fit.deviance == pytest.approx(expected, rel=1e-6)
        assert bt_deviance(C, fit.abilities) == fit.deviance

    def test_saturated_fit_has_zero_deviance(self):
        rng = np.random.default_rng(40)
        C = random_counts(rng, 5, low=1.0, high=9.0)
        fit = fit_bt(C)
        assert bt_deviance(C, fit.abilities) >= 0  # not saturated in general
        d = np.exp(fit.abilities.mu)
        S = np.add.outer(d, d)
        saturated = np.outer(d, np.ones(5)) * 4 / S  # c_ij = 4 p_ij
        np.fill_diagonal(saturated, 0.0)
        assert bt_deviance(saturated, fit.abilities) == pytest.approx(
            0.0, abs=1e-10)


class TestPredict:
    def test_even_strength(self):
        mu = AbilityVector(np.zeros(2), ("a", "b"))
        assert predict_prob(mu, 0, 1) == pytest.approx(0.5)

    def test_log_three_gap(self):
        g = np.log(3) / 2
        mu = AbilityVector([g, -g], ("a", "b"))
        assert predict_prob(mu, 0, 1) == pytest.approx(0.75, abs=1e-12)

    def test_exact_complement(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            mu = rng.normal(size=4)
            mu -= mu.mean()
            ab = AbilityVector(mu, ("a", "b", "c", "d"))
            i, j = rng.choice(4, size=2, replace=False)
            assert predict_prob(ab, int(i), int(j)) + \
                predict_prob(ab, int(j), int(i)) == 1.0

    def test_self_comparison_rejected(self):
        mu = AbilityVector(np.zeros(3), ("a", "b", "c"))
        with pytest.raises(DomainError):
            predict_prob(mu, 1, 1)

    def test_worked_example_strongest_vs_weakest(self):
        mu = np.log([1.0, 2.0, 4.0])
        mu -= mu.mean()
        ab = AbilityVector(mu, ("a", "b", "c"))
        assert predict_prob(ab, 2, 0) == pytest.approx(0.8, abs=1e-12)


class TestAbilityVector:
    @pytest.mark.parametrize("mu, labels", [
        ([0.5, -0.5], ("a", "b")),
        ([1e9, -1e9 + 1e-2], ("a", "b")),
        ([], ()),
    ])
    def test_accepts(self, mu, labels):
        ab = AbilityVector(mu, labels)
        assert ab.labels == labels
        assert not ab.mu.flags.writeable

    @pytest.mark.parametrize("mu, labels, kind, message", [
        ([0.0, 0.0, 0.0], ("a", "b"), DimensionError,
         "(3,) abilities for 2 labels"),
        ([[0.0, 0.0]], ("a", "b"), DimensionError,
         "(1, 2) abilities for 2 labels"),
        ([np.nan, 0.0], ("a", "b"), DomainError,
         "abilities contain non-finite entries"),
        ([np.inf, -np.inf], ("a", "b"), DomainError,
         "abilities contain non-finite entries"),
        ([1.0, 0.0], ("a", "b"), DomainError,
         "abilities must sum to zero, got 1"),
    ])
    def test_rejects(self, mu, labels, kind, message):
        with pytest.raises(kind) as exc:
            AbilityVector(mu, labels)
        assert str(exc.value) == message

"""Bradley-Terry maximum-likelihood fitting by damped Newton steps.

Model: P(i beats j) = logistic(mu_i - mu_j) with the sum-zero gauge
sum_i mu_i = 0. The log-likelihood l(mu) = sum_{i != j} c_ij log p_ij is
concave with gradient (the score) W_i - sum_j n_ij p_ij, where W_i is the
total wins of i and n_ij = c_ij + c_ji the games between the pair, and its
negative Hessian is the Fisher information F (see bt_covariance). F is
singular along the all-ones gauge direction, so each step solves

    (F + e e^T / n) delta = score

which keeps delta sum-zero, and then halves the step until the
log-likelihood rises (backtracking). tol bounds the relative score residual
max_i |W_i - sum_j n_ij p_ij| / sum_j n_ij, checked before every step.

A fit holds four n x n float arrays: the counts without their diagonal,
the games n_ij, the win probabilities p_ij and one work buffer, which takes
the expected wins n_ij p_ij and then, in place, F + e e^T / n for the solve.
The log-likelihood comes from the probability pass: the pass that fills
p_ij at a line-search trial sums l from the same exp(min(x, 0)), and an
accepted trial leaves p_ij for the next step. At the centred abilities one
more pass fills p_ij, which the deviance (built in the work buffer) and the
covariance share; the counts are dropped before the covariance's inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counts import CountMatrix, as_count_matrix
from .errors import (ConnectivityError, ConvergenceError, DecompositionError,
                     DimensionError, DomainError, SeparationError)
from .linalg import _check_tol, _closed_group, _components, _require_integer

DEFAULT_FIT_TOL = 1e-10
DEFAULT_FIT_MAX_ITER = 100
_ARMIJO = 1e-4
_MAX_HALVINGS = 40


@dataclass(frozen=True)
class AbilityVector:
    """Sum-zero log-ability parameters aligned with labels."""

    mu: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        if mu.ndim != 1 or mu.shape[0] != len(self.labels):
            raise DimensionError(
                f"{mu.shape} abilities for {len(self.labels)} labels")
        if not np.all(np.isfinite(mu)):
            raise DomainError("abilities contain non-finite entries")
        if abs(mu.sum()) > 1e-8 * max(1.0, np.abs(mu).max(initial=0.0)):
            raise DomainError(
                f"abilities must sum to zero, got {mu.sum():.6g}")
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class FitReport:
    """A converged fit. iterations counts Newton steps and residual is the
    relative score residual at the returned abilities (at most tol)."""

    abilities: AbilityVector
    covariance: np.ndarray
    deviance: float
    iterations: int
    converged: bool
    residual: float


def _win_probabilities(mu: np.ndarray, out=None, work=None, counts=None):
    """P(i beats j) = logistic(x_ij), x_ij = mu_i - mu_j, into out, as
    exp(min(x, 0)) / (1 + e), e = exp(-|x|), which never overflows: the
    numerator is 1 where x >= 0 and e elsewhere, so e is the lesser of it
    and its transpose. work, if given, is scratch of out's shape; with both
    an n x n call allocates no n x n array. Given counts, it returns (p, l),
    l = sum c_ij log p_ij with log p_ij = min(x_ij, 0) - log1p(e_ij)."""
    x = np.subtract.outer(mu, mu, out=out)
    low = np.minimum(x, 0.0, out=work)
    if counts is not None:
        ll = np.vdot(counts, low)
    numerator = np.exp(low, out=low)
    e = np.minimum(numerator, numerator.T, out=x)
    if counts is not None:
        ll -= np.vdot(counts, np.log1p(e, out=e))
        np.minimum(numerator, numerator.T, out=e)
    p = np.divide(numerator, np.add(e, 1.0, out=e), out=e)
    return p if counts is None else (p, float(ll))


def _games(C: CountMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The counts without self-comparisons (the diagonal), the games n_ij =
    c_ij + c_ji and each player's games played; the domain error, numpy
    silent, where those overflow float64 (a fit depends on their scale)."""
    counts = C.counts.copy()
    np.fill_diagonal(counts, 0.0)
    with np.errstate(over="ignore"):
        games = counts + counts.T
        played = games.sum(axis=1)
    if not np.isfinite(played).all():
        raise DomainError(
            f"the games of {C.labels[np.argmin(np.isfinite(played))]} sum "
            f"beyond float64's largest value {np.finfo(float).max:.4g}")
    return counts, games, played


def _require_connected(games: np.ndarray, labels) -> None:
    comps = _components(games > 0)
    if len(comps) > 1:
        raise ConnectivityError([[labels[i] for i in comp] for comp in comps])


def _gauged_fisher(expected: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Turn expected = games * p, the expected wins at win probabilities p
    (p.T = 1 - p), in place into F + e e^T / n: the Fisher information
    plus the gauge term."""
    expected *= p.T
    diagonal = expected.sum(axis=1)
    np.negative(expected, out=expected)
    np.fill_diagonal(expected, diagonal)
    expected += 1.0 / len(p)
    return expected


def _deviance(counts: np.ndarray, games: np.ndarray, mu: np.ndarray,
              p: np.ndarray, out: np.ndarray) -> float:
    """The deviance (see bt_deviance) at mu, whose win probabilities are p,
    built in out. Where a fitted n_ij p_ij underflows to 0 while c_ij > 0,
    the term is c_ij (log c_ij - log n_ij - log p_ij), with log p_ij =
    min(x_ij, 0) - log1p(exp(-|x_ij|)) for x_ij = mu_i - mu_j."""
    won = counts > 0
    terms = np.multiply(games, p, out=out)
    i, j = np.nonzero(won & (terms == 0))
    with np.errstate(divide="ignore"):
        np.divide(counts, terms, out=terms, where=won)
    np.log(terms, out=terms, where=won)
    np.multiply(counts, terms, out=terms, where=won)
    if len(i):
        x = mu[i] - mu[j]
        log_p = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
        c = counts[i, j]
        terms[i, j] = c * (np.log(c) - np.log(games[i, j]) - log_p)
    return float(2.0 * terms[won].sum())


def _score(wins: np.ndarray, games: np.ndarray, played: np.ndarray,
           p: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, float]:
    """The score wins - sum_j n_ij p_ij at win probabilities p and the
    relative score residual max_i |score_i| / played_i; out receives the
    expected wins n_ij p_ij."""
    expected = np.multiply(games, p, out=out)
    score = wins - expected.sum(axis=1)
    return score, float(np.max(np.abs(score) / played))


def _covariance(games: np.ndarray, p: np.ndarray,
                work: np.ndarray) -> np.ndarray:
    """inv(F + e e^T / n) - e e^T / n at win probabilities p (see
    bt_covariance); work is scratch."""
    np.multiply(games, p, out=work)
    try:
        covariance = np.linalg.inv(_gauged_fisher(work, p))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"Fisher information is singular beyond the gauge: {exc}") from exc
    covariance -= 1.0 / len(p)
    return covariance


def _check_fittable(counts: np.ndarray, games: np.ndarray, labels) -> None:
    """Raise unless the MLE exists, that is unless the win graph (u -> v
    where u beat v) is strongly connected (linalg._closed_group). Otherwise
    some group of players never lost to the rest, and their abilities
    diverge from the others'. A disconnected graph and a player without
    wins or losses are the common cases and get their own messages; they
    are looked for only once the win graph is found not strongly
    connected, which a connected graph with a win and a loss for every
    player can still be."""
    top = _closed_group(counts > 0)
    if not top.any():
        return
    _require_connected(games, labels)
    wins = counts.sum(axis=1)
    losses = counts.sum(axis=0)
    for i in range(len(labels)):
        if wins[i] == 0:
            raise SeparationError(labels[i], "no wins")
        if losses[i] == 0:
            raise SeparationError(labels[i], "no losses")
    rest = ", ".join(labels[i] for i in np.flatnonzero(~top))
    raise SeparationError(labels[np.argmax(top)], f"no losses against {rest}")


def fit_bt(C, tol: float = DEFAULT_FIT_TOL,
           max_iter: int = DEFAULT_FIT_MAX_ITER) -> FitReport:
    """Fit sum-zero abilities by damped Newton steps from mu = 0.

    Stops once the relative score residual is at most tol; raises the
    convergence error when max_iter steps do not get there, a Newton
    system is singular or a line search finds no ascent. Requires that no group of players went
    unbeaten against the rest (otherwise the MLE does not exist): a
    connected comparison graph, a win and a loss for every player, and a
    strongly connected win graph. Self-comparisons on the diagonal are
    ignored.
    """
    C = as_count_matrix(C)
    _check_tol(tol)
    _require_integer("max_iter", max_iter)
    if max_iter < 0:
        raise DomainError(
            f"max_iter must be a non-negative integer, got {max_iter!r}")
    if C.n < 2:
        raise DomainError("need at least two players to fit")
    n = C.n
    counts, games, played = _games(C)
    _check_fittable(counts, games, C.labels)
    wins = counts.sum(axis=1)
    # l adds one term per nonzero count (a zero count adds an exact 0), so
    # rounding alone moves it by up to about this much times |l|; a trial
    # that loses no more is no loss
    noise = 16 * np.finfo(float).eps * np.count_nonzero(counts)
    p, work = np.empty((n, n)), np.empty((n, n))

    mu = np.zeros(n)
    ll = _win_probabilities(mu, p, work, counts)[1]
    for step in range(max_iter + 1):
        # p holds the win probabilities at mu; work takes the expected wins
        score, residual = _score(wins, games, played, p, work)
        if residual <= tol:
            abilities = AbilityVector(mu - mu.mean(), C.labels)
            _win_probabilities(abilities.mu, p, work)
            deviance = _deviance(counts, games, abilities.mu, p, work)
            del counts  # not needed by the covariance's inverse
            return FitReport(abilities, _covariance(games, p, work), deviance,
                             iterations=step, converged=True,
                             residual=residual)
        if step == max_iter:
            break
        try:
            delta = np.linalg.solve(_gauged_fisher(work, p), score)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"Newton step {step + 1} has a singular system (score "
                f"residual {residual:.3g})", residual=residual,
                iterations=step) from exc
        ascent = _ARMIJO * float(score @ delta)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = mu + t * delta
            ll_trial = _win_probabilities(trial, p, work, counts)[1]
            if ll_trial >= ll + t * ascent - noise * abs(ll):
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"Newton line search found no ascent at step {step + 1} "
                f"(score residual {residual:.3g})",
                residual=residual, iterations=step)
        mu, ll = trial, ll_trial
    raise ConvergenceError(
        f"score residual {residual:.3g} exceeds tol {tol:.3g} after "
        f"{max_iter} Newton steps", residual=residual, iterations=max_iter)


def _as_mu(mu, n: int) -> np.ndarray:
    if isinstance(mu, AbilityVector):
        mu = mu.mu
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise DimensionError(f"abilities have shape {mu.shape}, expected ({n},)")
    return mu


def bt_covariance(C, mu) -> np.ndarray:
    """Asymptotic covariance of the abilities: pseudoinverse of the Fisher
    information at mu.

    F_ii = sum_{j != i} n_ij p_ij (1 - p_ij), F_ij = -n_ij p_ij (1 - p_ij).
    The information is singular along the all-ones direction (the gauge).
    On a connected comparison graph that is its only null direction, and
    the Moore-Penrose inverse is exactly inv(F + e e^T / n) - e e^T / n;
    its rows sum to ~0. A disconnected graph raises the connectivity
    error.
    """
    C = as_count_matrix(C)
    mu = _as_mu(mu, C.n)
    games = _games(C)[1]
    _require_connected(games, C.labels)
    return _covariance(games, _win_probabilities(mu), np.empty_like(games))


def bt_deviance(C, mu) -> float:
    """Deviance 2 sum_{i != j} c_ij log(c_ij / (n_ij p_ij)), with 0 log 0 = 0.

    Zero for saturated data (observed frequencies equal fitted probabilities
    on every pair that played).
    """
    C = as_count_matrix(C)
    mu = _as_mu(mu, C.n)
    counts, games, _ = _games(C)
    return _deviance(counts, games, mu, _win_probabilities(mu),
                     np.empty_like(games))


def predict_prob(mu: AbilityVector, i: int, j: int) -> float:
    """P(i beats j) under the fitted model.

    Computed so that predict_prob(mu, i, j) + predict_prob(mu, j, i) == 1.0
    exactly in floating point.
    """
    _require_integer("i", i)
    _require_integer("j", j)
    n = len(mu.labels)
    if not (0 <= i < n and 0 <= j < n):
        raise DimensionError(f"indices ({i}, {j}) out of range for n={n}")
    if i == j:
        raise DomainError("cannot predict a player against itself")
    d = float(mu.mu[i] - mu.mu[j])
    if d >= 0.0:
        return 1.0 / (1.0 + np.exp(-d))
    # d < 0: mirror of the d >= 0 branch, so the two calls sum to exactly 1
    # (1 - q is exact for q in [1/2, 1) by Sterbenz).
    return 1.0 - 1.0 / (1.0 + np.exp(d))

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counts import CountMatrix, as_count_matrix
from .errors import (ConnectivityError, ConvergenceError, DecompositionError,
                     DimensionError, DomainError, SeparationError)
from .linalg import _check_tol, _closed_group, _components

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


def _logistic(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _off_diagonal(C: CountMatrix) -> np.ndarray:
    """The counts with self-comparisons (the diagonal) set to zero."""
    counts = C.counts.copy()
    np.fill_diagonal(counts, 0.0)
    return counts


def _require_connected(games: np.ndarray, labels) -> None:
    comps = _components(games > 0)
    if len(comps) > 1:
        raise ConnectivityError([[labels[i] for i in comp] for comp in comps])


def _fisher(games: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Fisher information at win probabilities p (p.T = 1 - p)."""
    weight = games * p * p.T
    F = -weight
    np.fill_diagonal(F, weight.sum(axis=1))
    return F


def _check_fittable(counts: np.ndarray, labels) -> None:
    """Raise unless the MLE exists, that is unless the win graph (u -> v
    where u beat v) is strongly connected (linalg._closed_group). Otherwise
    some group of players never lost to the rest, and their abilities
    diverge from the others'. A disconnected graph and a player without
    wins or losses are the common cases and get their own messages."""
    _require_connected(counts + counts.T, labels)
    wins = counts.sum(axis=1)
    losses = counts.sum(axis=0)
    for i in range(len(labels)):
        if wins[i] == 0:
            raise SeparationError(labels[i], "no wins")
        if losses[i] == 0:
            raise SeparationError(labels[i], "no losses")
    top = _closed_group(counts > 0)
    if top is not None:
        rest = ", ".join(labels[i] for i in np.flatnonzero(~top))
        raise SeparationError(labels[np.argmax(top)],
                              f"no losses against {rest}")


def fit_bt(C, tol: float = DEFAULT_FIT_TOL,
           max_iter: int = DEFAULT_FIT_MAX_ITER) -> FitReport:
    """Fit sum-zero abilities by damped Newton steps from mu = 0.

    Stops once the relative score residual is at most tol; raises the
    convergence error when max_iter steps do not get there or a line
    search finds no ascent. Requires that no group of players went
    unbeaten against the rest (otherwise the MLE does not exist): a
    connected comparison graph, a win and a loss for every player, and a
    strongly connected win graph. Self-comparisons on the diagonal are
    ignored.
    """
    C = as_count_matrix(C)
    _check_tol(tol)
    if C.n < 2:
        raise DomainError("need at least two players to fit")
    n = C.n
    counts = _off_diagonal(C)
    _check_fittable(counts, C.labels)
    games = counts + counts.T
    wins = counts.sum(axis=1)
    played = games.sum(axis=1)
    rows, cols = np.nonzero(counts)
    won = counts[rows, cols]

    def loglik(mu):
        return -float(won @ np.logaddexp(0.0, mu[cols] - mu[rows]))

    mu = np.zeros(n)
    ll = loglik(mu)
    for step in range(max_iter + 1):
        p = _logistic(np.subtract.outer(mu, mu))
        score = wins - (games * p).sum(axis=1)
        residual = float(np.max(np.abs(score) / played))
        if residual <= tol:
            abilities = AbilityVector(mu - mu.mean(), C.labels)
            return FitReport(
                abilities=abilities,
                covariance=_covariance(games, abilities.mu),
                deviance=bt_deviance(C, abilities),
                iterations=step,
                converged=True,
                residual=residual,
            )
        if step == max_iter:
            break
        delta = np.linalg.solve(_fisher(games, p) + 1.0 / n, score)
        ascent = _ARMIJO * float(score @ delta)
        # l sums won.size terms, so rounding alone moves it by up to about
        # this much; a trial that loses no more than that is no loss
        noise = 16 * np.finfo(float).eps * won.size * abs(ll)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = mu + t * delta
            ll_trial = loglik(trial)
            if ll_trial >= ll + t * ascent - noise:
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


def _covariance(games: np.ndarray, mu: np.ndarray) -> np.ndarray:
    n = len(mu)
    F = _fisher(games, _logistic(np.subtract.outer(mu, mu)))
    try:
        return np.linalg.inv(F + 1.0 / n) - 1.0 / n
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"Fisher information is singular beyond the gauge: {exc}") from exc


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
    counts = _off_diagonal(C)
    games = counts + counts.T
    _require_connected(games, C.labels)
    return _covariance(games, mu)


def bt_deviance(C, mu) -> float:
    """Deviance 2 sum_{i != j} c_ij log(c_ij / (n_ij p_ij)), with 0 log 0 = 0.

    Zero for saturated data (observed frequencies equal fitted probabilities
    on every pair that played).
    """
    C = as_count_matrix(C)
    mu = _as_mu(mu, C.n)
    counts = _off_diagonal(C)
    games = counts + counts.T
    p = _logistic(np.subtract.outer(mu, mu))
    expected = games * p
    mask = counts > 0
    terms = counts[mask] * np.log(counts[mask] / expected[mask])
    return float(2.0 * terms.sum())


def predict_prob(mu: AbilityVector, i: int, j: int) -> float:
    """P(i beats j) under the fitted model.

    Computed so that predict_prob(mu, i, j) + predict_prob(mu, j, i) == 1.0
    exactly in floating point.
    """
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

"""Structured count matrices and Monte Carlo tournament simulation.

Random draws use the counter-based Philox generator keyed by
(seed, replication, retry, pair), so every replication is reproducible in
isolation and results do not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bradley_terry import AbilityVector, _logistic
from .counts import CountMatrix, default_labels
from .errors import (DanglingNodeError, DegenerateSampleError,
                     DimensionError, DomainError, ReducibilityError)
from .rankings import influence_weight

STRUCTURES = ("round-robin", "circular")

_MAX_REPLICATION = 1 << 32
_MAX_RETRY = 1 << 16
_MAX_PAIRS = 1 << 16


def round_robin(n: int, k: int) -> CountMatrix:
    """Balanced complete structure: every entry k, diagonal included, so
    every pair splits its 2k games evenly and every column sums to k n."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    return CountMatrix(np.full((n, n), float(k)))


def circular(n: int, k: int) -> CountMatrix:
    """Ring structure: each node splits 2k games with each ring neighbor,
    zero elsewhere. Column sums are 2k."""
    if n < 3:
        raise DomainError(f"a ring needs n >= 3, got {n}")
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    C = np.zeros((n, n))
    idx = np.arange(n)
    C[idx, (idx + 1) % n] = float(k)
    C[(idx + 1) % n, idx] = float(k)
    return CountMatrix(C)


def structure_matrix(structure: str, n: int, k: int = 1) -> CountMatrix:
    """Count matrix of a named design, 'round-robin' (or 'round_robin') or
    'circular', with k wins per direction per playing pair."""
    name = structure.replace("_", "-").lower()
    if name == "round-robin":
        return round_robin(n, k)
    if name == "circular":
        return circular(n, k)
    raise DomainError(
        f"unknown structure {structure!r}; expected one of {STRUCTURES}")


def random_quasi_symmetric(n: int, seed: int) -> CountMatrix:
    """Random strictly positive off-diagonal quasi-symmetric matrix
    C = diag(d) S: d uniform in [0.5, 2] with d[0] = 1, S symmetric with
    off-diagonal entries uniform in [1, 10] and zero diagonal."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    rng = np.random.Generator(np.random.Philox(key=[_seed_word(seed), 0]))
    d = rng.uniform(0.5, 2.0, size=n)
    d[0] = 1.0
    S = np.zeros((n, n))
    upper = np.triu_indices(n, k=1)
    S[upper] = rng.uniform(1.0, 10.0, size=len(upper[0]))
    S = S + S.T
    return CountMatrix(d[:, None] * S)


def _seed_word(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < (1 << 64):
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


@dataclass(frozen=True)
class SimulationConfig:
    """Even-strength-or-not tournament simulation settings.

    games_per_pair is the total games each playing pair contests; wins of i
    over j are Binomial(games_per_pair, logistic(mu_i - mu_j)).
    """

    abilities: AbilityVector
    games_per_pair: int
    replications: int
    seed: int

    def __post_init__(self):
        if len(self.abilities.labels) < 2:
            raise DomainError("need at least two players")
        if self.games_per_pair < 1:
            raise DomainError(
                f"games_per_pair must be >= 1, got {self.games_per_pair}")
        if self.replications < 1:
            raise DomainError(
                f"replications must be >= 1, got {self.replications}")
        _seed_word(self.seed)
        # the draw keys pack (replication, retry, pair) into one 64-bit word
        if self.n * (self.n - 1) // 2 >= _MAX_PAIRS:
            raise DomainError("too many pairs for the keying scheme (n > 362)")
        if self.replications > _MAX_REPLICATION:
            raise DomainError(
                f"replications must be <= 2^32, got {self.replications}")

    @property
    def n(self) -> int:
        return len(self.abilities.labels)


def _draw_counts(seed: int, replication: int, retry: int, n: int,
                 probs: np.ndarray, games: int,
                 mask: np.ndarray) -> np.ndarray:
    """One tournament draw. probs[i, j] = P(i beats j); mask selects which
    unordered pairs play. Pair indices run over the complete lexicographic
    list regardless of mask, so keying is structure-independent. The caller
    keeps replication < 2^32, retry < 2^16 and n(n-1)/2 < 2^16."""
    C = np.zeros((n, n))
    pair_index = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mask[i, j]:
                word = (replication << 32) | (retry << 16) | pair_index
                rng = np.random.Generator(
                    np.random.Philox(key=[seed, word]))
                wins = int(rng.binomial(games, probs[i, j]))
                C[i, j] = wins
                C[j, i] = games - wins
            pair_index += 1
    return C


def simulate_tournament(config: SimulationConfig,
                        replication: int = 0) -> CountMatrix:
    """Draw one complete tournament (every pair plays) at the configured
    abilities. Deterministic in (seed, replication)."""
    if not 0 <= replication < _MAX_REPLICATION:
        raise DomainError(
            f"replication must lie in [0, 2^32), got {replication}")
    n = config.n
    mu = config.abilities.mu
    probs = _logistic(np.subtract.outer(mu, mu))
    mask = np.ones((n, n), dtype=bool)
    C = _draw_counts(_seed_word(config.seed), replication, 0, n, probs,
                     config.games_per_pair, mask)
    return CountMatrix(C, config.abilities.labels)


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical covariance of centered log influence weights.

    standard_errors[i, j] is the plain asymptotic standard error of the
    (i, j) covariance entry: sd over replications of the demeaned product,
    divided by sqrt(replications). rejections counts degenerate draws
    (zero column or reducible support) that were redrawn.
    """

    covariance: np.ndarray
    standard_errors: np.ndarray
    replications: int
    rejections: int
    structure: str
    labels: tuple[str, ...]


def monte_carlo_covariance(config: SimulationConfig,
                           structure: str = "round-robin") -> MonteCarloResult:
    """Estimate the covariance of centered log influence weights over
    replicated even-strength tournaments on the given structure.

    Degenerate draws are rejected and redrawn with a bumped retry counter;
    once rejections exceed the replication count (a rate above 50%), or
    when every accepted draw gives the same weights, the sample is declared
    degenerate and the caller should raise games_per_pair. Requires
    all-zero abilities (the closed-form targets hold at even strength) and
    at least two replications.
    """
    if np.any(config.abilities.mu != 0):
        raise DomainError(
            "monte_carlo_covariance requires all-zero abilities")
    if config.replications < 2:
        raise DomainError("need at least two replications for a covariance")
    n = config.n
    mask = structure_matrix(structure, n).counts > 0
    probs = np.full((n, n), 0.5)
    seed = _seed_word(config.seed)
    reps = config.replications
    Y = np.empty((reps, n))
    rejections = 0
    for rep in range(reps):
        for retry in range(_MAX_RETRY):
            C = _draw_counts(seed, rep, retry, n, probs,
                             config.games_per_pair, mask)
            try:
                w = influence_weight(CountMatrix(C, config.abilities.labels))
                break
            except (DanglingNodeError, ReducibilityError):
                rejections += 1
            if rejections > reps:
                raise DegenerateSampleError(
                    f"more than half of all tournament draws were degenerate "
                    f"({rejections} rejections); increase games_per_pair")
        else:
            raise DegenerateSampleError(
                "retry budget exhausted for a single replication; "
                "increase games_per_pair")
        y = np.log(w.scores)
        Y[rep] = y - y.mean()
    if np.all(Y == Y[0]):
        raise DegenerateSampleError(
            f"all {reps} accepted tournament draws gave the same log "
            "weights, so the sample has no variation; increase "
            "games_per_pair")
    G = Y - Y.mean(axis=0)
    prods = G[:, :, None] * G[:, None, :]
    cov = prods.sum(axis=0) / (reps - 1)
    se = prods.std(axis=0, ddof=1) / np.sqrt(reps)
    return MonteCarloResult(
        covariance=cov,
        standard_errors=se,
        replications=reps,
        rejections=rejections,
        structure=structure.replace("_", "-").lower(),
        labels=config.abilities.labels,
    )

"""Structured count matrices and Monte Carlo tournament simulation.

Random draws use the counter-based Philox generator keyed by
(seed, replication, retry, pair), so every replication is reproducible in
isolation and results do not depend on execution order. One Philox per call
is re-keyed before each pair's draw, which gives the bits a fresh
Philox(key=[seed, word]) would. The Monte Carlo draws and checks its
replications in fixed blocks and solves each block as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bradley_terry import AbilityVector, _logistic
from .counts import CountMatrix, default_labels
from .errors import DegenerateSampleError, DomainError
from .linalg import _closed_group, stationary_vector

STRUCTURES = ("round-robin", "circular")

_MAX_REPLICATION = 1 << 32
_MAX_RETRY = 1 << 16
_MAX_PAIRS = 1 << 16
_MAX_GAMES = 1 << 63  # numpy's binomial takes at most 2^63 - 1 trials
_BLOCK = 64  # Monte Carlo replications drawn, checked and solved together


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
    key = np.array([_seed_word(seed), 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
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


def _check_players(n: int) -> None:
    """Reject fewer than two players, and more than the draw keys can
    index: they pack (replication, retry, pair) into one 64-bit word."""
    if n < 2:
        raise DomainError("need at least two players")
    if n * (n - 1) // 2 >= _MAX_PAIRS:
        raise DomainError("too many pairs for the keying scheme (n > 362)")


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
        _check_players(self.n)
        if self.games_per_pair < 1:
            raise DomainError(
                f"games_per_pair must be >= 1, got {self.games_per_pair}")
        if self.games_per_pair >= _MAX_GAMES:
            raise DomainError(
                f"games_per_pair must be < 2^63, the binomial's limit, "
                f"got {self.games_per_pair}")
        if self.replications < 1:
            raise DomainError(
                f"replications must be >= 1, got {self.replications}")
        object.__setattr__(self, "seed", _seed_word(self.seed))
        if self.replications > _MAX_REPLICATION:
            raise DomainError(
                f"replications must be <= 2^32, got {self.replications}")

    @property
    def n(self) -> int:
        return len(self.abilities.labels)


def _pairs(config: SimulationConfig, structure: str = "round-robin"
           ) -> list[tuple[int, int, int, float]]:
    """(index, i, j, P(i beats j)) of each pair i < j that plays in the named
    structure; in a round robin every pair plays. The index runs over the
    complete lexicographic list, so keying is structure-independent."""
    mu = config.abilities.mu
    probs = _logistic(np.subtract.outer(mu, mu))
    plays = structure_matrix(structure, config.n).counts
    return [(index, i, j, float(probs[i, j]))
            for index, (i, j) in enumerate(combinations(range(config.n), 2))
            if plays[i, j]]


def _draw_counts(config: SimulationConfig,
                 pairs: list[tuple[int, int, int, float]]):
    """draw(replication, retry) -> counts array of one tournament over pairs
    (from _pairs). Each pair draws from the one Philox re-keyed to
    (seed, word), its counter and buffer reset. The state holds plain
    Python ints, which the state setter converts to uint64 exactly, 2^63
    and above included. The constructor's key is an exact uint64 array,
    since a list mixing a word >= 2^63 with a small one turns into float64.
    Callers keep replication < 2^32 and retry < 2^16; the config keeps
    n(n-1)/2 < 2^16."""
    games, n = config.games_per_pair, config.n
    philox = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    key = [config.seed, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    binomial = np.random.Generator(philox).binomial
    index, rows, cols, probs = zip(*pairs)
    keyed = list(zip(index, probs))
    rows, cols = np.array(rows), np.array(cols)

    def draw(replication: int, retry: int) -> np.ndarray:
        word = (replication << 32) | (retry << 16)
        wins = np.empty(len(keyed), dtype=np.int64)
        for slot, (pair, p) in enumerate(keyed):
            key[1] = word | pair
            philox.state = state
            wins[slot] = binomial(games, p)
        C = np.zeros((n, n))
        C[rows, cols] = wins
        C[cols, rows] = games - wins
        return C

    return draw


def simulate_tournament(config: SimulationConfig,
                        replication: int = 0) -> CountMatrix:
    """Draw one complete tournament (every pair plays) at the configured
    abilities. Deterministic in (seed, replication)."""
    if not 0 <= replication < _MAX_REPLICATION:
        raise DomainError(
            f"replication must lie in [0, 2^32), got {replication}")
    C = _draw_counts(config, _pairs(config))(replication, 0)
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
    n, reps = config.n, config.replications
    draw = _draw_counts(config, _pairs(config, structure))
    Y = np.empty((reps, n))
    rejections = 0
    for start in range(0, reps, _BLOCK):
        block = range(start, min(start + _BLOCK, reps))
        C = np.empty((len(block), n, n))
        for b, rep in enumerate(block):
            for retry in range(_MAX_RETRY):
                C[b] = draw(rep, retry)
                if C[b].sum(axis=0).all() and _closed_group(C[b] > 0) is None:
                    break
                rejections += 1
                if rejections > reps:
                    raise DegenerateSampleError(
                        f"more than half of all tournament draws were "
                        f"degenerate ({rejections} rejections); increase "
                        f"games_per_pair")
            else:
                raise DegenerateSampleError(
                    "retry budget exhausted for a single replication; "
                    "increase games_per_pair")
        # influence weights normalize(pi / a) of each accepted draw
        a = C.sum(axis=1)
        w = stationary_vector(C / a[:, None, :]).vector / a
        y = np.log(w / w.sum(axis=1, keepdims=True))
        Y[block.start:block.stop] = y - y.mean(axis=1, keepdims=True)
    if np.all(Y == Y[0]):
        raise DegenerateSampleError(
            f"all {reps} accepted tournament draws gave the same log "
            "weights, so the sample has no variation; increase "
            "games_per_pair")
    # one row of products at a time keeps memory O(reps n)
    G = Y - Y.mean(axis=0)
    cov = np.empty((n, n))
    se = np.empty((n, n))
    for i in range(n):
        prods = G[:, i, None] * G
        cov[i] = prods.sum(axis=0) / (reps - 1)
        se[i] = prods.std(axis=0, ddof=1) / np.sqrt(reps)
    return MonteCarloResult(
        covariance=cov,
        standard_errors=se,
        replications=reps,
        rejections=rejections,
        structure=structure.replace("_", "-").lower(),
        labels=config.abilities.labels,
    )

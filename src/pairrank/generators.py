"""Structured count matrices and Monte Carlo tournament simulation.

Random draws use the counter-based Philox generator keyed by
(seed, replication << 32 | retry): a tournament's wins are one binomial
call over its pairs, bit for bit what a fresh Generator(Philox(key)) gives,
so every replication is reproducible in isolation and results do not
depend on the order of the draws. The Monte Carlo checks a block's retry-0
draws as one stack, then redraws in rounds: each replication still rejected
draws its next retry, so the accepted draws and the rejection count are
those of a one-by-one walk. The stack becomes the block's chains in place,
all solved at once: at most _BLOCK replications in _BLOCK_CELLS cells, 512
up to n = 45 and 1 at n = 1024.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bradley_terry import AbilityVector, _win_probabilities
from .counts import CountMatrix
from .errors import DegenerateSampleError, DomainError
from .linalg import (_check_design, _closed_group, _require_integer,
                     stationary_vector)

STRUCTURES = ("round-robin", "circular")

_MAX_REPLICATION = 1 << 32
_MAX_GAMES = 1 << 63  # numpy's binomial takes at most 2^63 - 1 trials
_BLOCK = 512  # Monte Carlo replications drawn, checked and solved together
_BLOCK_CELLS = 1 << 20  # cells of one n x n stack: 8 MiB


def round_robin(n: int, k: float) -> CountMatrix:
    """Balanced complete structure: every entry k, diagonal included, so
    every pair splits its 2k games evenly and every column sums to k n.
    k is any real >= 1, as the closed forms and the delta method are
    formulas in k: 3 games a pair is k = 1.5."""
    n = _check_design(n, k)
    return CountMatrix(np.full((n, n), float(k)))


def circular(n: int, k: float) -> CountMatrix:
    """Ring structure: each node splits 2k games with each ring neighbor,
    zero elsewhere. Column sums are 2k; k is any real >= 1, as in
    round_robin."""
    n = _check_design(n, k, ring=True)
    C = np.zeros((n, n))
    idx = np.arange(n)
    C[idx, (idx + 1) % n] = float(k)
    C[(idx + 1) % n, idx] = float(k)
    return CountMatrix(C)


def _structure_name(structure: str) -> str:
    """A design's name as in STRUCTURES: '_' reads as '-' and case is
    ignored. Any other name, or one that is not a str, is unknown."""
    name = isinstance(structure, str) and structure.replace("_", "-").lower()
    if name not in STRUCTURES:
        raise DomainError(
            f"unknown structure {structure!r}; expected one of {STRUCTURES}")
    return name


def structure_matrix(structure: str, n: int, k: float = 1) -> CountMatrix:
    """Count matrix of a named design, 'round-robin' (or 'round_robin') or
    'circular', with k wins per direction per playing pair, k any real >= 1."""
    name = _structure_name(structure)
    return (round_robin if name == "round-robin" else circular)(n, k)


def random_quasi_symmetric(n: int, seed: int) -> CountMatrix:
    """Random strictly positive off-diagonal quasi-symmetric matrix
    C = diag(d) S: d uniform in [0.5, 2] with d[0] = 1, S symmetric with
    off-diagonal entries uniform in [1, 10] and zero diagonal."""
    n = _check_design(n, 1)
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
    _require_integer("seed", seed)
    seed = int(seed)
    if not 0 <= seed < (1 << 64):
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def _check_players(n: int) -> None:
    """Reject fewer than two players, and so many that one tournament's
    n^2 cells pass a draw call's budget of _BLOCK_CELLS."""
    if n < 2:
        raise DomainError("need at least two players")
    if n * n > _BLOCK_CELLS:
        raise DomainError("too many players for a 2^20-cell draw (n > 1024)")


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
        _require_integer("games_per_pair", self.games_per_pair)
        if self.games_per_pair < 1:
            raise DomainError(
                f"games_per_pair must be >= 1, got {self.games_per_pair}")
        if self.games_per_pair >= _MAX_GAMES:
            raise DomainError(
                f"games_per_pair must be < 2^63, the binomial's limit, "
                f"got {self.games_per_pair}")
        _require_integer("replications", self.replications)
        if self.replications < 1:
            raise DomainError(
                f"replications must be >= 1, got {self.replications}")
        object.__setattr__(self, "seed", _seed_word(self.seed))
        if self.replications >= _MAX_REPLICATION:
            raise DomainError(
                f"replications must be < 2^32, got {self.replications}")

    @property
    def n(self) -> int:
        return len(self.abilities.labels)


def _pairs(config: SimulationConfig, structure: str = "round-robin"):
    """Arrays (i, j, P(i beats j)) over the pairs i < j that play in the
    named structure, in the order of np.triu_indices(n, 1); in a round
    robin every pair plays."""
    i, j = np.triu_indices(config.n, 1)
    plays = np.flatnonzero(structure_matrix(structure, config.n).counts[i, j])
    i, j = i[plays], j[plays]
    return i, j, _win_probabilities(config.abilities.mu)[i, j]


def _draw_counts(config: SimulationConfig, pairs: tuple):
    """draw(replications, retries) -> counts of shape (rows, n, n), one
    tournament over pairs (from _pairs) per (replication, retry) row.

    A row's wins of i over j are Generator(Philox(key=[seed, word]))
    .binomial(games, p) over the pairs in order, word = replication << 32
    | retry, and j's wins are games minus them. One Philox, built per call
    of _draw_counts, is given back its fresh state under each row's key:
    counter 0 and an empty buffer. Callers keep both words below 2^32."""
    games, n = config.games_per_pair, config.n
    rows, cols, probs = pairs
    philox = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    binomial = np.random.Generator(philox).binomial
    fresh = philox.state
    key = fresh["state"]["key"]  # uint64 [seed, word]

    def draw(replications, retries) -> np.ndarray:
        words = ((np.asarray(replications, dtype=np.uint64) << 32)
                 | np.asarray(retries, dtype=np.uint64))
        wins = np.empty((len(words), len(probs)), dtype=np.int64)
        for r, word in enumerate(words):
            key[1] = word
            philox.state = fresh
            wins[r] = binomial(games, probs)
        C = np.zeros((len(words), n * n))
        C[:, rows * n + cols] = wins
        C[:, cols * n + rows] = games - wins
        return C.reshape(-1, n, n)

    return draw


def simulate_tournament(config: SimulationConfig,
                        replication: int = 0) -> CountMatrix:
    """Draw one complete tournament (every pair plays) at the configured
    abilities. Deterministic in (seed, replication)."""
    _require_integer("replication", replication)
    if not 0 <= replication < _MAX_REPLICATION:
        raise DomainError(
            f"replication must lie in [0, 2^32), got {replication}")
    C = _draw_counts(config, _pairs(config))([replication], [0])[0]
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
    pairs = _pairs(config, structure)
    draw = _draw_counts(config, pairs)
    Y = np.empty((reps, n))
    rejections = 0
    size = min(_BLOCK, _BLOCK_CELLS // (n * n))  # rows of one draw call
    for start in range(0, reps, size):
        block = np.arange(start, min(start + size, reps))
        retry = np.zeros(len(block), dtype=np.int64)
        C = D = None  # the last block's stacks go before this one's draw
        C = draw(block, retry)
        # strongly connected on n >= 2 nodes: no column sums to zero
        todo = np.flatnonzero(_closed_group(C > 0).any(axis=1))
        while todo.size:  # each rejected replication draws its next retry
            rejections += len(todo)
            if rejections > reps:
                raise DegenerateSampleError(
                    f"more than half of all tournament draws were degenerate "
                    f"({reps + 1} rejections); increase games_per_pair")
            retry[todo] += 1
            D = draw(block[todo], retry[todo])
            ok = ~_closed_group(D > 0).any(axis=1)
            C[todo[ok]] = D[ok]
            todo = todo[~ok]
        # each accepted draw's chain, in place, and weights normalize(pi / a)
        a = C.sum(axis=1)
        C /= a[:, None, :]
        w = stationary_vector(C).vector / a
        y = np.log(w / w.sum(axis=1, keepdims=True))
        Y[block] = y - y.mean(axis=1, keepdims=True)
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
        structure=_structure_name(structure),
        labels=config.abilities.labels,
    )

"""Structured count matrices and Monte Carlo tournament simulation.

Random draws use the counter-based Philox generator keyed by
(seed, replication, retry, pair), so every replication is reproducible in
isolation and results do not depend on execution order. Each pair's wins
are bit for bit what a fresh Generator(Philox(key=[seed, word])).binomial
gives. Where numpy inverts the binomial cdf (games min(p, 1 - p) <= 30),
the draws of many (replication, retry, pair) lanes are computed at once:
Philox4x64-10 on uint64 arrays and numpy's inversion walk in lockstep, at
most 2^14 lanes at a time. In numpy's BTPE regime one Philox per call is
re-keyed before each draw. The Monte Carlo checks a block's retry-0 draws
as one stack and redraws the rejected ones in rounds: one call, about 2^10
lanes (its fixed cost), gives each its next retry and the spare rows to
the earliest, at least one more row for each of its rejections, so a
design whose every draw is rejected doubles that one's retries a call. A
walk over the rejection counts finds the error that one replication after
another would meet. The retry-0 stack takes in the accepted redraws and
becomes the block's chains in place, all solved at once: at most _BLOCK
replications, in _BLOCK_CELLS cells, 512 up to n = 45 and 8 at n = 362.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bradley_terry import AbilityVector, _win_probabilities
from .counts import CountMatrix, default_labels
from .errors import DegenerateSampleError, DomainError
from .linalg import _closed_group, stationary_vector

STRUCTURES = ("round-robin", "circular")

_MAX_REPLICATION = 1 << 32
_MAX_RETRY = 1 << 16
_MAX_PAIRS = 1 << 16
_MAX_GAMES = 1 << 63  # numpy's binomial takes at most 2^63 - 1 trials
_BLOCK = 512  # Monte Carlo replications drawn, checked and solved together
_BLOCK_CELLS = 1 << 20  # cells of one n x n stack: 8 MiB
_CHUNK = 1 << 14  # draw lanes whose words and wins are built together
_REDRAW_LANES = 1 << 10  # lanes that cost about a draw call's fixed overhead
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_LOW, _HALF = np.uint64(_MASK32), np.uint64(32)


def _check_design(n: int, k: int, ring: bool = False) -> None:
    """Reject n < 2 (n < 3 on a ring), k < 1, an n x n float64 array numpy
    cannot index, and 6 k n^2 (a closed-form denominator) beyond floats."""
    if ring and n < 3:
        raise DomainError(f"a ring needs n >= 3, got {n}")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not k >= 1:
        raise DomainError(f"need k >= 1, got {k}")
    n = int(n)
    if (n * n * 8 > np.iinfo(np.intp).max
            or 6 * k * n * n > sys.float_info.max):
        raise DomainError(
            f"n={n}, k={k} is too large for a float64 n x n array")


def round_robin(n: int, k: int) -> CountMatrix:
    """Balanced complete structure: every entry k, diagonal included, so
    every pair splits its 2k games evenly and every column sums to k n."""
    _check_design(n, k)
    return CountMatrix(np.full((n, n), float(k)))


def circular(n: int, k: int) -> CountMatrix:
    """Ring structure: each node splits 2k games with each ring neighbor,
    zero elsewhere. Column sums are 2k."""
    _check_design(n, k, ring=True)
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
    _check_design(n, 1)
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
    probs = _win_probabilities(mu)
    plays = structure_matrix(structure, config.n).counts
    return [(index, i, j, float(probs[i, j]))
            for index, (i, j) in enumerate(combinations(range(config.n), 2))
            if plays[i, j]]


def _mulhilo(a: int, b):
    """High and low 64-bit words of the 128-bit product a * b, for a Python
    int a and b a Python int or a uint64 array. numpy has no 128-bit
    integers, so the high word of an array is built from 32-bit halves;
    no partial sum below passes 2^64 - 1."""
    if isinstance(b, int):
        return (a * b) >> 64, (a * b) & _MASK64
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo = b & _LOW
    t = a_hi * b_lo
    t += (a_lo * b_lo) >> _HALF
    w = t & _LOW
    w += a_lo * (b >> _HALF)
    hi = a_hi * (b >> _HALF)
    hi += t >> _HALF
    hi += w >> _HALF
    return hi, b * np.uint64(a)


def _philox(seed: int, words: np.ndarray, block: int) -> tuple:
    """Output block `block` (counter [block, 0, 0, 0]) of Philox4x64-10 keyed
    by (seed, word) for each uint64 word: four uint64 arrays, as numpy's
    Philox(key=[seed, word]) computes them. The key and counter words that
    are the same on every lane stay Python ints, masked to 64 bits."""
    k0, k1 = seed, words
    v = (block, 0, 0, 0)
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], v[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], v[2])
        v = (hi1 ^ v[1] ^ k0, lo1, hi0 ^ v[3] ^ k1, lo0)
    return v


def _uniform(seed: int, words: np.ndarray, k: int) -> np.ndarray:
    """Uniform k of the Philox stream of each key (seed, word), as numpy's
    next_double gives it: word k % 4 of block k // 4 + 1 (numpy bumps the
    counter before it generates), as (x >> 11) * 2^-53."""
    x = _philox(seed, words, k // 4 + 1)[k % 4]
    return (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _inversion_table(games: int, probs: np.ndarray):
    """numpy's random_binomial_inversion constants for each distinct p <= 1/2
    of probs: (pid, px, bound) with probs = distinct[pid], px[g, x] the
    P(X = x) of p = distinct[g] and bound[g] the X past which the walk
    restarts. qn = exp(games log q) and the bound come from math, the libm
    numpy calls, and px[:, x] = ((games - x + 1) p px[:, x - 1]) / (x q) in
    numpy's order of operations."""
    distinct, pid = np.unique(probs, return_inverse=True)
    bound = np.zeros(len(distinct), dtype=np.int64)
    qn = np.empty(len(distinct))
    for g, p in enumerate(distinct.tolist()):
        q = 1.0 - p
        qn[g] = math.exp(games * math.log(q))
        mean = games * p
        bound[g] = int(min(games, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = np.empty((len(distinct), bound.max(initial=0) + 1))
    px[:, 0] = qn
    q = 1.0 - distinct
    for x in range(1, px.shape[1]):
        px[:, x] = float(games - x + 1) * distinct * px[:, x - 1] / (x * q)
    return pid, px, bound


def _inversion(uniform, pid: np.ndarray, px: np.ndarray,
               bound: np.ndarray) -> np.ndarray:
    """X of numpy's random_binomial_inversion on every lane at once, in
    lockstep: lane l walks X = 0, 1, ... along row pid[l] of px (from
    _inversion_table), subtracting each P(X = x) from its uniform while the
    uniform exceeds it. A lane whose X passes bound[pid] restarts at X = 0
    with its next uniform; uniform(lanes, k) gives uniform k of lanes."""
    X = np.zeros(pid.size, dtype=np.int64)
    lanes, k = np.arange(pid.size), 0
    while lanes.size:
        X[lanes] = 0
        U, g = uniform(lanes, k), pid[lanes]
        live = np.flatnonzero(U > px[:, 0][g])
        U, g, restart, x = U[live], g[live], [], 0
        while live.size:
            x += 1
            over = bound[g] < x
            if over.any():
                restart.append(live[over])
                live, U, g = live[~over], U[~over], g[~over]
                if not live.size:
                    break
            U -= px[:, x - 1][g]
            X[lanes[live]] = x
            more = U > px[:, x][g]
            live, U, g = live[more], U[more], g[more]
        lanes = lanes[np.concatenate(restart)] if restart else lanes[:0]
        k += 1
    return X


def _draw_counts(config: SimulationConfig,
                 pairs: list[tuple[int, int, int, float]]):
    """draw(replications, retries) -> counts of shape (rows, n, n), one
    tournament over pairs (from _pairs) per (replication, retry) row.

    Each pair's wins are what Generator(Philox(key=[seed, word])).binomial
    gives, word = replication << 32 | retry << 16 | pair. Where numpy
    inverts the cdf, games min(p, 1 - p) <= 30, the draws are one
    vectorised Philox4x64-10 (_philox) and numpy's inversion walk
    (_inversion) over lanes of (row, pair), at most _CHUNK lanes at a time,
    so memory does not grow with n; for p > 1/2 a lane draws games minus
    the walk at 1 - p, and p = 0 gives 0. Pairs in numpy's BTPE regime draw
    from one Philox, built on first use, re-keyed to (seed, word) with its
    counter and buffer reset; its state holds plain Python ints, which the
    state setter converts to uint64 exactly, and the constructor's key is
    an exact uint64 array. Callers keep replication < 2^32 and
    retry < 2^16; the config keeps n(n-1)/2 < 2^16."""
    games, n, seed = config.games_per_pair, config.n, config.seed
    index, rows, cols, probs = (np.array(v) for v in zip(*pairs))
    flip = probs > 0.5
    low = np.where(flip, 1.0 - probs, probs)
    in_btpe = low * float(games) > 30.0
    btpe = [pairs[s] for s in np.flatnonzero(in_btpe)]
    inv = np.flatnonzero(~in_btpe)
    pid, px, bound = _inversion_table(games, low[inv])
    inv_words = index[inv].astype(np.uint64)
    inv_flip, inv_ij = flip[inv], rows[inv] * n + cols[inv]
    inv_ji = cols[inv] * n + rows[inv]
    key = [seed, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    sampler = []  # the BTPE regime's Philox and binomial, once built

    def draw(replications, retries) -> np.ndarray:
        head = ((np.asarray(replications, dtype=np.uint64) << _HALF)
                | (np.asarray(retries, dtype=np.uint64) << np.uint64(16)))
        C = np.zeros((len(head), n, n))
        flat = C.reshape(len(head), n * n)
        lanes = len(head) * len(inv)
        for start in range(0, lanes, _CHUNK):
            row, slot = np.divmod(np.arange(start, min(start + _CHUNK, lanes)),
                                  len(inv))
            words = head[row] | inv_words[slot]
            x = _inversion(lambda at, k: _uniform(seed, words[at], k),
                           pid[slot], px, bound)
            wins = np.where(inv_flip[slot], games - x, x)
            flat[row, inv_ij[slot]] = wins
            flat[row, inv_ji[slot]] = games - wins
        if btpe and not sampler:
            philox = np.random.Philox(
                key=np.array([seed, 0], dtype=np.uint64))
            sampler.extend((philox, np.random.Generator(philox).binomial))
        for pair, i, j, p in btpe:
            for r, word in enumerate(head.tolist()):
                key[1] = word | pair
                sampler[0].state = state
                wins = sampler[1](games, p)
                C[r, i, j] = wins
                C[r, j, i] = games - wins
        return C

    return draw


def simulate_tournament(config: SimulationConfig,
                        replication: int = 0) -> CountMatrix:
    """Draw one complete tournament (every pair plays) at the configured
    abilities. Deterministic in (seed, replication)."""
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
    most = _BLOCK_CELLS // (n * n)  # rows of one draw call, >= 8
    size, lanes = min(_BLOCK, most), _REDRAW_LANES // len(pairs)
    for start in range(0, reps, size):
        block = np.arange(start, min(start + size, reps))
        count = np.zeros(len(block), dtype=np.int64)  # rejected draws
        todo, rows = np.arange(len(block)), 1
        C = D = None  # the last block's stack goes before this one's draw
        while todo.size:
            # each in todo draws its next retry, and todo[0] its next `rows`
            D = draw(block[np.r_[np.full(rows, todo[0]), todo[1:]]],
                     np.r_[count[todo[0]] + np.arange(rows), count[todo[1:]]])
            # strongly connected on n >= 2 nodes: no column sums to zero
            ok = ~_closed_group(D > 0).any(axis=1)
            first = int(np.argmax(np.r_[ok[:rows], True]))  # rows if none
            ok = np.r_[first < rows, ok[rows:]]
            count[todo] += np.r_[first, ~ok[1:]]
            if C is None:  # every retry 0, in block order: the block's stack
                C = D
            else:
                C[todo[ok]] = D[np.r_[first, rows:len(D)][ok]]
            todo = todo[~ok]
            # the errors a one-by-one walk would meet are known up to todo[0]
            head = todo[0] if todo.size else len(block) - 1
            if rejections + count[:head + 1].sum() > reps:
                raise DegenerateSampleError(
                    f"more than half of all tournament draws were "
                    f"degenerate ({reps + 1} rejections); increase "
                    f"games_per_pair")
            if count[head] == _MAX_RETRY:
                raise DegenerateSampleError(
                    "retry budget exhausted for a single replication; "
                    "increase games_per_pair")
            # no retry reaches _MAX_RETRY: todo[0] has drawn the most
            rows = min(max(1, lanes - len(todo) + 1, int(count[head])),
                       most - len(todo) + 1, _MAX_RETRY - int(count[head]))
        rejections += int(count.sum())
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
        structure=structure.replace("_", "-").lower(),
        labels=config.abilities.labels,
    )

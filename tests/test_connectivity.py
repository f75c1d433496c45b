"""The graph search and the existence checks against scipy's graph
components.

For n >= 2 counts, the undamped chain C A^-1 has a unique positive
stationary vector exactly when the Bradley-Terry MLE exists: both need a
strongly connected comparison graph (Zermelo 1929; Ford 1957). Each
property runs over the same seeded random sparse count matrices.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairrank import generators
from pairrank.bradley_terry import AbilityVector, fit_bt
from pairrank.counts import default_labels
from pairrank.errors import (ConnectivityError, DanglingNodeError,
                             ReducibilityError, SeparationError)
from pairrank.generators import SimulationConfig
from pairrank.linalg import (_closed_group, _components, _levels,
                             is_irreducible)
from pairrank.quasisym import decompose_qs
from pairrank.rankings import influence_weight

from oracles import graph_components, graph_reach

CASES = 400


def _sparse_counts(seed: int) -> np.ndarray:
    """n in 2..24, each entry nonzero with probability 0.03..0.5; even
    seeds get a zero diagonal."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    density = rng.uniform(0.03, 0.5)
    C = np.where(rng.random((n, n)) < density,
                 rng.integers(1, 10, size=(n, n)), 0).astype(float)
    if seed % 2 == 0:
        np.fill_diagonal(C, 0.0)
    return C


@pytest.fixture(scope="module")
def cases():
    out = []
    for seed in range(CASES):
        C = _sparse_counts(seed)
        out.append((C, len(graph_components(C > 0, strong=True)) == 1))
    return out


def _reference_levels(adj, start):
    """Breadth-first search over plain lists: each node's number of edges
    on a shortest path from start, -1 where start cannot reach."""
    level = [-1] * len(adj)
    level[start] = 0
    queue = [start]
    for u in queue:
        for v, edge in enumerate(adj[u]):
            if edge and level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def test_search_levels_match_a_reference_bfs(cases):
    # decompose_qs propagates d level by level, so the levels must be exact
    for seed, (C, _) in enumerate(cases):
        n = C.shape[0]
        start = int(np.random.default_rng(20_000 + seed).integers(1, n))
        for adj in (C > 0, (C > 0).T, (C > 0) & (C.T > 0)):
            for s in (0, start):
                assert _levels(adj, s).tolist() == \
                    _reference_levels(adj.tolist(), s)


def test_cases_mix_both_outcomes(cases):
    strong = sum(connected for _, connected in cases)
    assert 100 <= strong <= CASES - 100


def test_is_irreducible(cases):
    for C, connected in cases:
        assert is_irreducible(C) == connected


def _check_closed_groups(adj: np.ndarray) -> None:
    # per graph of the stack: what node 0 cannot reach, or else what
    # reaches node 0, and nothing exactly when scipy finds one strong
    # component
    groups = _closed_group(adj)
    assert groups.shape == adj.shape[:2]
    for a, group in zip(adj, groups):
        ahead = graph_reach(a, 0)
        expected = ~ahead if not ahead.all() else graph_reach(a.T, 0)
        if expected.all():
            expected = ~expected
        assert np.array_equal(group, expected)
        assert group.any() == (len(graph_components(a, strong=True)) > 1)


def test_closed_group_of_stacks_matches_scipy(cases):
    by_n = {}
    for C, _ in cases:
        by_n.setdefault(C.shape[0], []).append(C > 0)
    for adjs in by_n.values():
        _check_closed_groups(np.stack(adjs))
    # blocks of drawn tournaments, at games low enough to reject some
    for structure, n, games in [("round-robin", 3, 1), ("circular", 7, 2),
                                ("circular", 30, 4)]:
        cfg = SimulationConfig(AbilityVector(np.zeros(n), default_labels(n)),
                               games_per_pair=games, replications=1, seed=7)
        draw = generators._draw_counts(cfg, generators._pairs(cfg, structure))
        adj = draw(np.arange(generators._BLOCK),
                   np.zeros(generators._BLOCK)) > 0
        assert 0 < _closed_group(adj).any(axis=1).sum() < len(adj)
        _check_closed_groups(adj)


def test_bt_fit_exists_exactly_when_strongly_connected(cases):
    for C, connected in cases:
        if connected:
            fit_bt(C)
        else:
            with pytest.raises((ConnectivityError, SeparationError)):
                fit_bt(C)


def test_undamped_chain_exists_exactly_when_strongly_connected(cases):
    for C, connected in cases:
        if connected:
            influence_weight(C)
        else:
            with pytest.raises((DanglingNodeError, ReducibilityError)):
                influence_weight(C)


def test_components_of_the_symmetric_graph(cases):
    for C, _ in cases:
        adj = (C > 0) | (C.T > 0)
        assert _components(adj) == graph_components(adj, strong=False)


def test_decompose_qs_needs_a_connected_mutual_graph(cases):
    # diag(d) S keeping the pairs i < j of the sparse pattern: every pair
    # kept is mutual, and the others are removed in both directions
    disconnected = 0
    for seed, (pattern, _) in enumerate(cases):
        n = pattern.shape[0]
        rng = np.random.default_rng(10_000 + seed)
        d = rng.uniform(0.5, 2.0, n)
        d[0] = 1.0
        S = rng.uniform(1.0, 9.0, size=(n, n))
        keep = np.triu(pattern > 0, 1)
        S = np.where(keep | keep.T, S + S.T, 0.0)
        if len(graph_components(S > 0, strong=False)) == 1:
            assert_allclose(decompose_qs(d[:, None] * S).d, d, rtol=1e-12)
        else:
            disconnected += 1
            with pytest.raises(ConnectivityError):
                decompose_qs(d[:, None] * S)
    assert 100 <= disconnected <= CASES - 100

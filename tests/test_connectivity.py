"""The existence checks against scipy's graph components.

For n >= 2 counts, the undamped chain C A^-1 has a unique positive
stationary vector exactly when the Bradley-Terry MLE exists: both need a
strongly connected comparison graph (Zermelo 1929; Ford 1957). Each
property runs over the same seeded random sparse count matrices.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pairrank.bradley_terry import fit_bt
from pairrank.errors import (ConnectivityError, DanglingNodeError,
                             ReducibilityError, SeparationError)
from pairrank.linalg import _components, _search, is_irreducible
from pairrank.quasisym import decompose_qs
from pairrank.rankings import influence_weight

from oracles import graph_components

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


def _reference_search(adj, start, seen):
    """Depth-first search over plain lists: pop a node, mark the unmarked
    nodes it points to in index order, push them, stop once all are
    marked."""
    n = len(adj)
    seen = list(seen)
    seen[start] = True
    stack, steps = [start], []
    while stack and not all(seen):
        u = stack.pop()
        new = [v for v in range(n) if adj[u][v] and not seen[v]]
        for v in new:
            seen[v] = True
        stack.extend(new)
        steps.append((u, new))
    return steps, seen


def test_search_steps_match_a_reference_dfs(cases):
    # decompose_qs propagates d along these steps, so their order matters
    for seed, (C, _) in enumerate(cases):
        n = C.shape[0]
        marked = np.random.default_rng(20_000 + seed).random(n) < 0.3
        for adj in (C > 0, (C > 0).T, (C > 0) & (C.T > 0)):
            steps, seen = _search(adj)
            ref_steps, ref_seen = _reference_search(adj.tolist(), 0,
                                                    [False] * n)
            assert [(u, new.tolist()) for u, new in steps] == ref_steps
            assert seen.tolist() == ref_seen
            if marked.all():
                continue
            start = int(np.argmin(marked))
            seen = marked.copy()
            ref_steps, ref_seen = _reference_search(adj.tolist(), start,
                                                    seen.tolist())
            steps, returned = _search(adj, start, seen)
            assert returned is seen
            assert [(u, new.tolist()) for u, new in steps] == ref_steps
            assert seen.tolist() == ref_seen


def test_cases_mix_both_outcomes(cases):
    strong = sum(connected for _, connected in cases)
    assert 100 <= strong <= CASES - 100


def test_is_irreducible(cases):
    for C, connected in cases:
        assert is_irreducible(C) == connected


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

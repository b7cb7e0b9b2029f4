"""Shared fixtures: a seeded corpus of random connected regular uniform
hypergraphs built with the configuration model."""

import random

import pytest

from hyplp.hypergraph import Hypergraph
from walk_oracles import bfs_connected

# (r, u, n cap): branching after the first walk step is q = (r-1)(u-1), so the
# heavy combinations keep n small to stay enumerable for the walk oracle
COMBOS = [
    (2, 2, 25), (3, 2, 25), (4, 2, 25), (5, 2, 20),
    (2, 3, 25), (3, 3, 18), (2, 4, 24), (2, 5, 25),
    (4, 3, 12), (3, 4, 12),
]
HEAVY_Q = 6
HEAVY_CAP = 6


def random_regular_uniform(rng, r, u, n):
    """Configuration model: r stubs per vertex, chopped into edges of size u;
    rejects edges with a repeated vertex and retries."""
    stubs = [v for v in range(n) for _ in range(r)]
    for _ in range(300):
        rng.shuffle(stubs)
        groups = [stubs[i:i + u] for i in range(0, n * r, u)]
        if all(len(set(g)) == u for g in groups):
            return Hypergraph(n, groups)
    return None


def cycle(n):
    """The n-cycle as a 2-regular 2-uniform hypergraph."""
    return Hypergraph(n, [(i, (i + 1) % n) for i in range(n)])


def build_corpus(seed=20260818, want=52):
    rng = random.Random(seed)
    out = []
    heavy = 0
    while len(out) < want:
        r, u, cap = COMBOS[rng.randrange(len(COMBOS))]
        n = rng.randrange(max(u + 1, 4), cap + 1)
        if (n * r) % u:
            continue
        is_heavy = (r - 1) * (u - 1) >= HEAVY_Q
        if is_heavy and heavy >= HEAVY_CAP:
            continue
        h = random_regular_uniform(rng, r, u, n)
        if h is None or not bfs_connected(h):
            continue
        if is_heavy:
            heavy += 1
        out.append(h)
    return out


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()

"""Test-side oracles for the hypergraph module: a dense incidence graph and
non-backtracking walks counted one by one.  Slow and independent of the
matrix code they check."""

from hyplp.hypergraph import Hypergraph


def incidence_graph(h: Hypergraph) -> list[list[int]]:
    """0/1 adjacency of the bipartite vertex-edge incidence graph; vertex i is
    node i, edge j is node n + j."""
    size = h.n + h.m
    b = [[0] * size for _ in range(size)]
    for j, edge in enumerate(h.edges):
        for v in edge:
            b[v][h.n + j] = 1
            b[h.n + j][v] = 1
    return b


def nbw_counts_from(h: Hypergraph, x: int, length: int,
                    incident: list[list[int]], cap: int) -> list[int]:
    """Counts of non-backtracking walks of exactly `length` steps from x to
    every vertex, by explicit depth-first enumeration."""
    counts = [0] * h.n
    budget = [0]

    def walk(v: int, last_edge: int, steps: int) -> None:
        if steps == length:
            counts[v] += 1
            budget[0] += 1
            if budget[0] > cap:
                raise RuntimeError(f"walk enumeration exceeded {cap} walks")
            return
        for e in incident[v]:
            if e == last_edge:
                continue
            for w in h.edges[e]:
                if w != v:
                    walk(w, e, steps + 1)

    walk(x, -1, 0)
    return counts


def nbw_count_oracle(h: Hypergraph, x: int, y: int, i: int,
                     max_i: int = 8, cap: int = 10**7) -> int:
    """Number of non-backtracking walks of length i from x to y, counted one
    by one (a walk may not reuse the edge it just arrived on, and consecutive
    vertices differ).  Refuses i > max_i or more than `cap` walks."""
    if i < 0:
        raise ValueError("length must be non-negative")
    if i > max_i:
        raise ValueError(f"enumeration capped at length {max_i}")
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for j, edge in enumerate(h.edges):
        for v in edge:
            incident[v].append(j)
    return nbw_counts_from(h, x, i, incident, cap)[y]

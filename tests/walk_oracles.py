"""Test-side oracles for the hypergraph module: a dense incidence graph,
adjacency multisets, the adjacency as sparse (y, w) rows, the incidence
Gram identities, non-backtracking walks counted one by one, the walk
recurrence, distances, connectivity, distance-regularity and girth on
dense lists.  Slow and independent of the packed-row code they check.
Last, the decoders that read the packed rows of `hyplp.hypergraph` back
into dense matrices: the walk matrices F_i(A) and the distance matrix."""

import math
from itertools import islice
from operator import mul

from hyplp import hypergraph
from hyplp.hypergraph import Hypergraph
from hyplp.orthopoly import Params


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


def adjacency_multisets(h: Hypergraph) -> list[list[int]]:
    """Row x of the adjacency as the sorted list of x's neighbours, y listed
    A[x][y] times, gathered from the edges through x."""
    return [sorted(y for e in h.edges if x in e for y in e if y != x)
            for x in range(h.n)]


def adjacency_rows(h: Hypergraph) -> list[list[tuple[int, int]]]:
    """The point-graph adjacency as sparse rows: row x lists (y, A[x][y])
    for every y with A[x][y] > 0, in increasing y, counted pair by pair
    over the edges."""
    counts: list[dict[int, int]] = [{} for _ in range(h.n)]
    for edge in h.edges:
        for i, x in enumerate(edge):
            for y in edge[i + 1:]:
                counts[x][y] = counts[x].get(y, 0) + 1
                counts[y][x] = counts[y].get(x, 0) + 1
    return [sorted(c.items()) for c in counts]


def gram_mismatches(h: Hypergraph) -> tuple[str, ...]:
    """The incidence Gram identities of regular uniform h, a reference
    check of the `neighbours` lists that `Analysis` reads A and A* from,
    A* over the edges through each vertex: with N the n x m vertex-edge
    incidence matrix, A the adjacency and A* that of the dual, N N^T =
    A + rI and N^T N = A* + uI, both products dense in integers.  One line
    per identity that fails, naming its first mismatching entry; () when
    both hold.  Together they give the incidence-spectrum correspondence:
    N N^T and N^T N share their nonzero eigenvalues, so spec(A) + r padded
    with m zeros equals spec(A*) + u padded with n zeros."""
    r, u = hypergraph.check_regular_uniform(h)
    inc = [[int(x in e) for e in h.edges] for x in range(h.n)]
    detail = []
    for name, shift, side, (count, edges) in (
            ("N N^T != A", r, inc, (h.n, h.edges)),
            ("N^T N != A*", u, list(zip(*inc)), (h.m, hypergraph.incident(h)))):
        a = hypergraph.adjacency(hypergraph.neighbours(count, edges))
        # the first entry, row by row, where the product and A + shift*I differ
        hit = next(((x, y, g, w) for x, row in enumerate(side)
                    for y, col in enumerate(side)
                    for g, w in [(sum(map(mul, row, col)), a[x][y] + shift * (x == y))]
                    if g != w), None)
        if hit is not None:
            detail.append("{} + {}I at ({}, {}): {} vs {}".format(name, shift, *hit))
    return tuple(detail)


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


def dense_adjacency(h: Hypergraph) -> list[list[int]]:
    """A[x][y] = number of edges holding both x and y, from the edge list."""
    a = [[0] * h.n for _ in range(h.n)]
    for edge in h.edges:
        for x in edge:
            for y in edge:
                if x != y:
                    a[x][y] += 1
    return a


def dense_walk_matrix(h: Hypergraph, r: int, u: int, i: int) -> list[list[int]]:
    """F_i(A) by the integer recurrence on dense lists: F_0 = I, F_1 = A,
    F_2 = A^2 - (u-2)A - kI, F_{j+1} = (A - (u-2)I) F_j - q F_{j-1}."""
    n = h.n
    a = dense_adjacency(h)
    k, q = r * (u - 1), (r - 1) * (u - 1)
    prev = [[int(x == y) for y in range(n)] for x in range(n)]
    cur = a
    if i == 0:
        return prev
    for j in range(1, i):
        c = k if j == 1 else q
        nxt = [[sum(a[x][z] * cur[z][y] for z in range(n))
                - (u - 2) * cur[x][y] - c * prev[x][y] for y in range(n)]
               for x in range(n)]
        prev, cur = cur, nxt
    return cur


def bfs_distances(h: Hypergraph) -> list[list[int]]:
    """Point-graph distances by one BFS per source on the dense adjacency;
    -1 when unreachable."""
    a = dense_adjacency(h)
    out = []
    for src in range(h.n):
        dist = [-1] * h.n
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for x in frontier:
                for y in range(h.n):
                    if a[x][y] and dist[y] < 0:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        out.append(dist)
    return out


def bfs_connected(h: Hypergraph) -> bool:
    """Whether a stack search from vertex 0 over the edge list reaches
    every vertex."""
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for edge in h.edges:
            if x in edge:
                fresh = set(edge) - seen
                seen |= fresh
                stack.extend(fresh)
    return len(seen) == h.n


def distance_regularity_oracle(h: Hypergraph):
    """(valid, a, b, c, witness) pair by pair, in the order x, then y: the
    weights of x's neighbours one step closer to, level with and one step
    farther from y must match those of the first pair at the same
    distance; the witness is the first pair that does not."""
    a_mat = dense_adjacency(h)
    dist = bfs_distances(h)
    d = max(map(max, dist))
    first: dict[int, tuple[int, int, int]] = {}
    for x in range(h.n):
        for y in range(h.n):
            i = dist[x][y]
            counts = [0, 0, 0]
            for z in range(h.n):
                if a_mat[x][z]:
                    counts[dist[z][y] - i + 1] += a_mat[x][z]
            closer, level, farther = counts
            want = first.setdefault(i, (closer, level, farther))
            if ((i > 0 and closer != want[0]) or level != want[1]
                    or (i < d and farther != want[2])):
                return False, (), (), (), (x, y)
    return (True, tuple(first[i][1] for i in range(d + 1)),
            tuple(first[i][2] for i in range(d)),
            tuple(first[i][0] for i in range(1, d + 1)), None)


def incidence_girth(h: Hypergraph):
    """Half the shortest cycle of the incidence graph, by a BFS from every
    node of both sides; math.inf when acyclic."""
    b = incidence_graph(h)
    size = len(b)
    best = math.inf
    for root in range(size):
        dist = [-1] * size
        parent = [-1] * size
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in range(size):
                    if not b[x][y]:
                        continue
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        nxt.append(y)
                    elif parent[x] != y:
                        best = min(best, dist[x] + dist[y] + 1)
            frontier = nxt
    return best // 2 if best != math.inf else math.inf


def _fields(packed: int, width: int, count: int) -> list[int]:
    """The `count` signed fields of a packed row, field 0 first.  Adding
    2^(width-1) to every field makes each one non-negative, so no field
    borrows from the next, and the bits then read off field by field."""
    half = 1 << (width - 1)
    ones = ((1 << (width * count)) - 1) // ((1 << width) - 1)
    bits = format(packed + half * ones, "b").zfill(width * count)
    return [int(bits[j - width:j], 2) - half
            for j in range(len(bits), len(bits) - width * count, -width)]


def nbw_count_matrix(h: Hypergraph, i: int) -> list[list[int]]:
    """F_i applied to the adjacency matrix (see `hypergraph._walk_rows`).
    Entry (x, y) counts the non-backtracking walks of length i from x to y;
    entries stay >= 0."""
    if i < 0:
        raise ValueError("length must be non-negative")
    nbrs = hypergraph.neighbours(h.n, h.edges)
    params = Params(*hypergraph.check_regular_uniform(h))
    width, walks = hypergraph._walk_rows(nbrs, params, i)
    cur = [_fields(row, width, h.n) for row in next(islice(walks, i, None))]
    bad = next(((p, q_) for p, row in enumerate(cur) for q_, v in enumerate(row)
                if v < 0), None)
    if bad is not None:
        raise AssertionError(f"negative walk count at {bad}; adjacency input invalid")
    return cur


def distance_matrix(h: Hypergraph) -> tuple[list[list[int]], bool]:
    """Point-graph distances read off `hypergraph.spheres`; unreachable
    pairs get -1 and the second return value reports connectivity."""
    nbrs = hypergraph.neighbours(h.n, h.edges)
    width = hypergraph._sphere_width(nbrs)
    shells = hypergraph.spheres(nbrs)
    dist = [[-1] * h.n for _ in range(h.n)]
    for d, layer in enumerate(shells):
        for row, bits in zip(dist, layer):
            digits = format(bits, "b")
            top = len(digits) - 1
            y = digits.find("1")
            while y >= 0:
                row[(top - y) // width] = d
                y = digits.find("1", y + 1)
    return dist, hypergraph._reaches_all(shells, h.n)

"""Hypergraph data model and structural queries.

A hypergraph is a vertex count n plus a list of edges, each edge a set of at
least two distinct vertex indices.  Repeated edges are allowed (they create
girth-2 cycles).  The text format is: first non-comment line "n m", then m
lines of space-separated vertex indices, '#' starts a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional, Sequence

from .orthopoly import Params

__all__ = [
    "Hypergraph",
    "HypergraphFormatError",
    "NotRegularUniformError",
    "IntersectionNumbers",
    "check_regular_uniform",
    "adjacency_rows",
    "adjacency",
    "incident",
    "dual",
    "distance_matrix",
    "diameter",
    "is_connected",
    "girth",
    "nbw_count_matrix",
    "girth_via_trace",
    "distance_regularity_check",
]


class HypergraphFormatError(ValueError):
    """Raised on malformed hypergraph text, with a 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotRegularUniformError(ValueError):
    """Raised when a hypergraph fails the (r, u)-regularity check; carries the
    first offending vertex or edge."""

    def __init__(self, message: str, vertex: Optional[int] = None,
                 edge: Optional[int] = None) -> None:
        super().__init__(message)
        self.vertex = vertex
        self.edge = edge


class Hypergraph:
    """Immutable hypergraph on vertices 0..n-1.  Equality is label-sensitive."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]) -> None:
        if n < 1:
            raise ValueError("need at least one vertex")
        norm = []
        for idx, edge in enumerate(edges):
            members = sorted(edge)
            if len(members) < 2:
                raise ValueError(f"edge {idx} has fewer than two vertices")
            if len(set(members)) != len(members):
                raise ValueError(f"edge {idx} repeats a vertex")
            if members[0] < 0 or members[-1] >= n:
                raise ValueError(f"edge {idx} has a vertex outside 0..{n - 1}")
            norm.append(tuple(members))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("Hypergraph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Hypergraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m})"

    @classmethod
    def from_text(cls, text: str) -> "Hypergraph":
        header: Optional[tuple[int, int]] = None
        edges: list[list[int]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                numbers = [int(tok) for tok in line.split()]
            except ValueError:
                raise HypergraphFormatError(lineno, f"not integers: {line!r}")
            if header is None:
                if len(numbers) != 2:
                    raise HypergraphFormatError(lineno, "header must be 'n m'")
                header = (numbers[0], numbers[1])
                continue
            edges.append(numbers)
            if len(edges) > header[1]:
                raise HypergraphFormatError(lineno, "more edges than the header declares")
        if header is None:
            raise HypergraphFormatError(1, "empty input")
        if len(edges) != header[1]:
            raise HypergraphFormatError(1, f"header declares {header[1]} edges, found {len(edges)}")
        try:
            return cls(header[0], edges)
        except ValueError as exc:
            raise HypergraphFormatError(1, str(exc)) from exc

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(" ".join(str(v) for v in e) for e in self.edges)
        return "\n".join(lines) + "\n"


def degrees(h: Hypergraph) -> list[int]:
    out = [0] * h.n
    for edge in h.edges:
        for v in edge:
            out[v] += 1
    return out


def check_regular_uniform(h: Hypergraph) -> tuple[int, int]:
    """(r, u) when every vertex has degree r and every edge size u; otherwise
    raises NotRegularUniformError naming the first offender."""
    if not h.edges:
        raise NotRegularUniformError("no edges")
    u = len(h.edges[0])
    for idx, edge in enumerate(h.edges):
        if len(edge) != u:
            raise NotRegularUniformError(
                f"edge {idx} has size {len(edge)}, expected {u}", edge=idx)
    degs = degrees(h)
    r = degs[0]
    for v, dv in enumerate(degs):
        if dv != r:
            raise NotRegularUniformError(
                f"vertex {v} has degree {dv}, expected {r}", vertex=v)
    return r, u


def adjacency_rows(h: Hypergraph) -> list[list[tuple[int, int]]]:
    """The point-graph adjacency as sparse rows: row x lists (y, A[x][y])
    for every y with A[x][y] > 0, in increasing y.  A[x][y] is the number
    of edges containing both x and y."""
    counts: list[dict[int, int]] = [{} for _ in range(h.n)]
    for edge in h.edges:
        for i, x in enumerate(edge):
            cx = counts[x]
            for y in edge[i + 1:]:
                cx[y] = cx.get(y, 0) + 1
                cy = counts[y]
                cy[x] = cy.get(x, 0) + 1
    return [sorted(c.items()) for c in counts]


def adjacency(h: Hypergraph, rows: Optional[list] = None) -> list[list[int]]:
    """Point-graph adjacency with multiplicity: A[x][y] = number of edges
    containing both x and y (x != y); zero diagonal.  The dense form of
    `adjacency_rows(h)`, which a caller that has it passes as `rows`."""
    a = [[0] * h.n for _ in range(h.n)]
    for x, row in enumerate(adjacency_rows(h) if rows is None else rows):
        ax = a[x]
        for y, w in row:
            ax[y] = w
    return a


def incident(h: Hypergraph) -> list[list[int]]:
    """The edges through each vertex: entry v lists the indices of the
    edges containing v, in increasing order."""
    out: list[list[int]] = [[] for _ in range(h.n)]
    for j, edge in enumerate(h.edges):
        for v in edge:
            out[v].append(j)
    return out


def dual(h: Hypergraph) -> Hypergraph:
    """Swap roles of vertices and edges: dual vertex j is edge j of h, dual
    edge x is the set of edges through vertex x.  Needs minimum degree 2.
    The dual of an r-regular u-uniform hypergraph is u-regular r-uniform."""
    through = incident(h)
    for v, lst in enumerate(through):
        if len(lst) < 2:
            raise ValueError(f"vertex {v} has degree {len(lst)} < 2; dual undefined")
    d = Hypergraph(h.m, through)
    try:
        r, u = check_regular_uniform(h)
    except NotRegularUniformError:
        return d
    rd, ud = check_regular_uniform(d)
    if (rd, ud) != (u, r):
        raise AssertionError("dual of a regular uniform hypergraph must swap (r, u)")
    return d


def distance_matrix(h: Hypergraph, rows: Optional[list] = None
                    ) -> tuple[list[list[int]], bool]:
    """BFS point-graph distances; unreachable pairs get -1 and the second
    return value reports connectivity.  `rows`: `adjacency_rows(h)`, when
    the caller has it."""
    if rows is None:
        rows = adjacency_rows(h)
    dist = [[-1] * h.n for _ in range(h.n)]
    connected = True
    for src in range(h.n):
        row = dist[src]
        row[src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for x in frontier:
                for y, _ in rows[x]:
                    if row[y] < 0:
                        row[y] = d
                        nxt.append(y)
            frontier = nxt
        if any(v < 0 for v in row):
            connected = False
    return dist, connected


def is_connected(h: Hypergraph, rows: Optional[list] = None) -> bool:
    if rows is None:
        rows = adjacency_rows(h)
    seen = [False] * h.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y, _ in rows[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == h.n


def diameter(h: Hypergraph) -> int:
    dist, connected = distance_matrix(h)
    if not connected:
        raise ValueError("diameter undefined for a disconnected hypergraph")
    return max(max(row) for row in dist)


def girth(h: Hypergraph):
    """Length of the shortest cycle (distinct edges, distinct vertices except
    the endpoints); math.inf when acyclic.  Two edges sharing two vertices
    give girth 2.  Computed as half the cycle length of the bipartite
    incidence graph, whose simple cycles alternate vertices and edges."""
    size = h.n + h.m
    adj = ([[h.n + j for j in through] for through in incident(h)]
           + [list(edge) for edge in h.edges])
    best = math.inf
    for root in range(size):
        dist = [-1] * size
        parent = [-1] * size
        dist[root] = 0
        frontier = [root]
        while frontier:
            # every frontier node sits on the same BFS level, so any cycle
            # still discoverable has length >= 2*level + 1
            if 2 * dist[frontier[0]] + 1 >= best:
                break
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        nxt.append(y)
                    elif parent[x] != y:
                        cycle = dist[x] + dist[y] + 1
                        if cycle < best:
                            best = cycle
            frontier = nxt
    return int(best) // 2 if best != math.inf else math.inf


def _walk_matrices(h: Hypergraph, rows: Optional[list] = None):
    """Yield F_0(A), F_1(A), F_2(A), ... for the adjacency A of a regular
    uniform hypergraph, by the integer recurrence F_0 = I, F_1 = A,
    F_2 = A^2 - (u-2)A - kI, F_{j+1} = (A - (u-2)I) F_j - q F_{j-1}.
    Each product with A runs over the sparse `rows` (`adjacency_rows(h)`),
    so a step costs n^2 times the number of neighbours, not n^3.  Entry
    (x, y) of F_i counts the non-backtracking walks of length i from x to y."""
    r, u = check_regular_uniform(h)
    params = Params(r, u)
    if rows is None:
        rows = adjacency_rows(h)
    n = h.n
    shift, c = params.u - 2, params.k  # c is k for F_2, then q
    prev = [[1 if p == j else 0 for j in range(n)] for p in range(n)]
    cur = adjacency(h, rows)
    yield prev
    yield cur
    while True:
        nxt = []
        for p in range(n):
            acc = [-shift * x - c * y for x, y in zip(cur[p], prev[p])]
            for z, w in rows[p]:
                acc = [a + w * b for a, b in zip(acc, cur[z])]
            nxt.append(acc)
        prev, cur, c = cur, nxt, params.q
        yield cur


def nbw_count_matrix(h: Hypergraph, i: int) -> list[list[int]]:
    """F_i applied to the adjacency matrix (see `_walk_matrices`).  Entry
    (x, y) counts the non-backtracking walks of length i from x to y;
    entries stay >= 0."""
    if i < 0:
        raise ValueError("length must be non-negative")
    cur = next(islice(_walk_matrices(h), i, None))
    bad = next(((p, q_) for p, row in enumerate(cur) for q_, v in enumerate(row)
                if v < 0), None)
    if bad is not None:
        raise AssertionError(f"negative walk count at {bad}; adjacency input invalid")
    return cur


def girth_via_trace(h: Hypergraph, max_i: int = 12,
                    rows: Optional[list] = None) -> Optional[int]:
    """Smallest g <= max_i with tr F_g(A) != 0 and tr F_i(A) = 0 for i < g;
    None when every trace through max_i vanishes (girth > max_i).  `rows`:
    `adjacency_rows(h)`, when the caller has it."""
    for g, cur in enumerate(_walk_matrices(h, rows)):
        if g and any(cur[p][p] for p in range(h.n)):
            return g
        if g >= max_i:
            return None


@dataclass(frozen=True)
class IntersectionNumbers:
    """Distance-regularity report for the (multigraph) point graph: c_i, a_i,
    b_i count edge-weighted neighbors one step closer to, level with, and one
    step farther from a reference vertex."""

    valid: bool
    diameter: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    witness: Optional[tuple[int, int]] = None


def distance_regularity_check(h: Hypergraph, rows: Optional[list] = None,
                              dist: Optional[list] = None) -> IntersectionNumbers:
    """Checks whether the weighted neighbor counts depend only on distance;
    on failure `witness` is the first ordered pair disagreeing.  `rows` and
    `dist`: `adjacency_rows(h)` and `distance_matrix(h)[0]`, when the caller
    has them."""
    if rows is None:
        rows = adjacency_rows(h)
    if not is_connected(h, rows):
        raise ValueError("distance-regularity needs a connected hypergraph")
    if dist is None:
        dist, _ = distance_matrix(h, rows)
    d = max(max(row) for row in dist)
    a_num: list[Optional[int]] = [None] * (d + 1)
    b_num: list[Optional[int]] = [None] * d
    c_num: list[Optional[int]] = [None] * d
    for x in range(h.n):
        for y in range(h.n):
            i = dist[x][y]
            closer = level = farther = 0
            for z, w in rows[x]:
                dz = dist[z][y]
                if dz == i - 1:
                    closer += w
                elif dz == i:
                    level += w
                else:
                    farther += w
            for store, value, top in ((a_num, level, i), (b_num, farther, i),
                                      (c_num, closer, i - 1)):
                if top < 0 or top >= len(store):
                    continue
                if store[top] is None:
                    store[top] = value
                elif store[top] != value:
                    return IntersectionNumbers(False, d, (), (), (), witness=(x, y))
    return IntersectionNumbers(
        True, d,
        tuple(v for v in a_num if v is not None),
        tuple(v for v in b_num if v is not None),
        tuple(v for v in c_num if v is not None))

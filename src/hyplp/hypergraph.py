"""Hypergraph data model and structural queries.

A hypergraph is a vertex count n plus a list of edges, each edge a set of at
least two distinct vertex indices.  Repeated edges are allowed (they create
girth-2 cycles).  The text format is: first non-comment line "n m", then m
lines of space-separated vertex indices, '#' starts a comment.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import reduce
from operator import or_

from ._record import Record
from .orthopoly import Params

__all__ = [
    "Hypergraph",
    "HypergraphFormatError",
    "NotRegularUniformError",
    "IntersectionNumbers",
    "check_regular_uniform",
    "neighbours",
    "adjacency",
    "incident",
    "dual",
    "spheres",
    "girth",
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

    def __init__(self, message: str, vertex: int | None = None,
                 edge: int | None = None) -> None:
        super().__init__(message)
        self.vertex = vertex
        self.edge = edge


class Hypergraph(Record):
    """Immutable hypergraph on vertices 0..n-1.  Equality is label-sensitive.
    `edges` may be given as any iterable of vertex sequences."""

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one vertex")
        norm = []
        for idx, edge in enumerate(self.edges):
            members = sorted(edge)
            if len(members) < 2:
                raise ValueError(f"edge {idx} has fewer than two vertices")
            if len(set(members)) != len(members):
                raise ValueError(f"edge {idx} repeats a vertex")
            if members[0] < 0 or members[-1] >= self.n:
                raise ValueError(f"edge {idx} has a vertex outside 0..{self.n - 1}")
            norm.append(tuple(members))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m})"

    @classmethod
    def from_text(cls, text: str) -> "Hypergraph":
        header: tuple[int, int] | None = None
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


def neighbours(n: int, edges) -> list[list[int]]:
    """The point-graph adjacency of the hypergraph on vertices 0..n-1 with
    these `edges`, as neighbour lists: entry x lists the other members of
    every edge through x, so y appears A[x][y] times, the number of edges
    containing both x and y.  Over the edges `incident(h)`, on h.m
    vertices, it is the adjacency of `dual(h)`, with no dual built."""
    out: list[list[int]] = [[] for _ in range(n)]
    for edge in edges:
        for x in edge:
            out[x] += edge
    # each list holds x once for every edge through it
    return [[y for y in nb if y != x] for x, nb in enumerate(out)]


def adjacency(nbrs: list[list[int]]) -> list[list[int]]:
    """Point-graph adjacency with multiplicity: A[x][y] = number of edges
    containing both x and y (x != y); zero diagonal.  The dense form of the
    `neighbours` lists `nbrs`."""
    a = [[0] * len(nbrs) for _ in nbrs]
    for ax, nb in zip(a, nbrs):
        for y in nb:
            ax[y] += 1
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
    The dual of an r-regular u-uniform hypergraph is u-regular r-uniform:
    dual vertex j lies on the u dual edges of the vertices of edge j, and
    dual edge x holds the r edges through x."""
    through = incident(h)
    for v, lst in enumerate(through):
        if len(lst) < 2:
            raise ValueError(f"vertex {v} has degree {len(lst)} < 2; dual undefined")
    return Hypergraph(h.m, through)


# Packed rows.  An integer matrix row is one Python int with `width`-bit
# fields, entry y in field y (bits width*y up to width*(y+1)).  Packing is
# linear over the integers, so a sum of multiples of packed rows is the
# packed row of the same sum, whatever signs its terms have; the result
# decodes exactly when every entry of it lies in [-2^(width-1), 2^(width-1)).
# `_field_width` takes width from a bound proved for the entries, plus a
# sign bit.  The product row x of A*M is the sum of the packed rows z of M
# over x's `neighbours` z, each taken A[x][z] times: deg(x) big-int
# additions, each linear in n * width.


def _field_width(bound: int) -> int:
    """Bits per field for entries of absolute value at most `bound`."""
    return bound.bit_length() + 1


def _times(nbrs: list[list[int]], packed: list[int]) -> list[int]:
    """The packed rows of A*M, with A given by its `neighbours` lists and
    M by its packed rows."""
    get = packed.__getitem__
    return [sum(map(get, nb)) for nb in nbrs]


def _field(packed: int, y: int, width: int) -> int:
    """Field y of a packed row whose fields are all >= 0."""
    return (packed >> (width * y)) & ((1 << width) - 1)


def _first_difference(a: int, b: int, width: int) -> int:
    """The lowest field in which two packed rows with fields >= 0 differ:
    the field holding the lowest bit of a ^ b."""
    diff = a ^ b
    return ((diff & -diff).bit_length() - 1) // width


def _sphere_width(nbrs: list[list[int]]) -> int:
    """The width of the packed rows of the distance matrices D_d, for the
    adjacency with `neighbours` lists `nbrs`: an entry of A D_d is at most
    the weighted degree of its row, the length of its list."""
    return _field_width(max(map(len, nbrs)))


def spheres(nbrs: list[list[int]]) -> list[list[int]]:
    """Breadth-first search from every vertex at once, on the adjacency with
    `neighbours` lists `nbrs`: entry [d][x] is row x of the 0/1
    distance-d matrix D_d packed at `_sphere_width`, field y set when y
    lies at distance exactly d from x, for d from 0 to the largest finite
    distance.  The balls grow as B_(d+1)(x) = B_d(x) | the OR of B_d(z)
    over the neighbours z of x, so a level costs one OR per entry of the
    lists."""
    width = _sphere_width(nbrs)
    ball = [1 << (width * x) for x in range(len(nbrs))]
    out = [ball]
    while True:
        grown = [reduce(or_, map(ball.__getitem__, nb), b)
                 for b, nb in zip(ball, nbrs)]
        shell = [g ^ b for g, b in zip(grown, ball)]
        if not any(shell):
            return out
        out.append(shell)
        ball = grown


def _reaches_all(shells: list[list[int]], n: int) -> bool:
    """Whether the `spheres` `shells` of n vertices are those of a
    connected graph: vertex 0 reaches all n."""
    return sum(layer[0].bit_count() for layer in shells) == n


def girth(h: Hypergraph):
    """Length of the shortest cycle (distinct edges, distinct vertices except
    the endpoints); math.inf when acyclic.  Two edges sharing two vertices
    give girth 2.  Computed as half the cycle length of the bipartite
    incidence graph, whose simple cycles alternate vertices and edges: the
    shortest one passes through the smaller side, so the searches start
    there only."""
    size = h.n + h.m
    adj = ([[h.n + j for j in through] for through in incident(h)]
           + [list(edge) for edge in h.edges])
    best = math.inf
    for root in range(h.n) if h.n <= h.m else range(h.n, size):
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


def _walk_rows(nbrs: list[list[int]], params: Params, top: int
               ) -> tuple[int, Iterator[list[int]]]:
    """F_0(A), F_1(A), F_2(A), ... for the adjacency A, given by its
    `neighbours` lists, of a regular uniform hypergraph with degrees
    `params`, as packed rows, by the integer recurrence F_0 = I, F_1 = A,
    F_2 = A^2 - (u-2)A - kI, F_{j+1} = (A - (u-2)I) F_j - q F_{j-1}.
    Entry (x, y) of F_i counts the non-backtracking walks of length i from
    x to y, so it lies in [0, k q^(i-1)], the row sum; the returned width
    holds F_0 to F_top."""
    width = _field_width(params.k * params.q ** max(top - 1, 0))

    def walks() -> Iterator[list[int]]:
        shift, c = params.u - 2, params.k  # c is k for F_2, then q
        prev = [1 << (width * x) for x in range(len(nbrs))]
        cur = _times(nbrs, prev)
        yield prev
        yield cur
        while True:
            prev, cur, c = cur, [a - shift * b - c * p for a, b, p in
                                 zip(_times(nbrs, cur), cur, prev)], params.q
            yield cur

    return width, walks()


def _field_tops(packed: int, width: int, ones: int) -> int:
    """The top bit of every nonzero field of `packed`, for fields in [0,
    2^(width-1)); `ones` has a 1 at the bottom of every field.  Adding
    2^(width-1) - 1 to a field sets its top bit exactly when the field is
    nonzero, and carries into no other field."""
    return (packed + ones * ((1 << (width - 1)) - 1)) & (ones << (width - 1))


def _walk_diagonals(nbrs: list[list[int]], params: Params, top: int
                    ) -> Iterator[Iterator[bool]]:
    """For g = 4, ..., top, whether entry (x, x) of F_g(A) is nonzero, for
    x = 0, 1, ..., n - 1: one lazy iterator per g, exact while the
    diagonals of F_1(A) to F_(g-1)(A) vanish.  None needs F_g(A) itself:
    (x, x) of F_g is sum_z A[x][z] F_(g-1)[x][z] (F_(g-1) is symmetric,
    and the diagonals of F_(g-1) and F_(g-2) vanish), nonzero exactly when
    rows x of A and of F_(g-1) have a nonzero field in common: one AND of
    their `_field_tops` per x.  `nbrs` and `params` as for `_walk_rows`."""
    if top < 4:
        return
    width, walks = _walk_rows(nbrs, params, top)
    next(walks)
    adj = next(walks)
    next(walks)
    ones = ((1 << (width * len(nbrs))) - 1) // ((1 << width) - 1)
    adj_tops = [_field_tops(a, width, ones) for a in adj]
    for _ in range(4, top + 1):
        yield (_field_tops(row, width, ones) & a != 0
               for row, a in zip(next(walks), adj_tops))


def girth_via_trace(nbrs: list[list[int]], params: Params, top: int) -> int | None:
    """Smallest g <= top with tr F_g(A) != 0 and tr F_i(A) = 0 for i < g,
    for `nbrs` and `params` as for `_walk_rows`; None when every trace
    through top vanishes (girth > top).  tr F_1 = tr A is 0.  g = 2 and 3
    need no walk product: tr F_2 != 0 exactly when two edges share two
    vertices, that is when some list repeats a vertex.  Otherwise A is
    0/1, and tr F_3(A) = tr A^3 - (u-2) n k, since tr A = 0 and
    tr A^2 = n k; the u-2 common neighbours of two members of one edge
    give the n k (u-2) closed walks of length 3 inside the edges.  tr A^3
    sums |N(x) & N(y)| over the ordered adjacent pairs, one AND of two
    bitset rows (the packed rows of A at width 1) and one `int.bit_count`
    each.  For g >= 4 the entries of F_g(A) are >= 0, so the trace
    vanishes when every diagonal entry does, and `_walk_diagonals` decides
    that with F_(g-1)(A) as the last product.  A closed non-backtracking
    walk of length g contains a cycle of length at most g, and a shortest
    cycle is such a walk, so a g found is the girth."""
    if top >= 2 and any(len(set(nb)) < len(nb) for nb in nbrs):
        return 2
    if top >= 3:
        rows = _times(nbrs, [1 << y for y in range(len(nbrs))])
        closed = sum((row & rows[y]).bit_count()
                     for row, nb in zip(rows, nbrs) for y in nb)
        if closed != len(nbrs) * params.k * (params.u - 2):
            return 3
    for g, diagonal in enumerate(_walk_diagonals(nbrs, params, top), 4):
        if any(diagonal):
            return g
    return None


class IntersectionNumbers(Record):
    """Distance-regularity report for the (multigraph) point graph: c_i, a_i,
    b_i count edge-weighted neighbors one step closer to, level with, and one
    step farther from a reference vertex."""

    valid: bool
    diameter: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    witness: tuple[int, int] | None = None


def distance_regularity_check(shells: list[list[int]],
                              nbrs: list[list[int]]) -> IntersectionNumbers:
    """Checks whether the weighted neighbor counts depend only on distance,
    for the adjacency with `neighbours` lists `nbrs` and its `spheres`
    `shells`; on failure `witness` is the first ordered pair (x, y)
    disagreeing.

    With D_i the 0/1 distance-i matrix, entry (x, y) of A D_i is the weight
    of x's neighbours at distance i from y, which is c, a or b of the pair
    as d(x, y) is i+1, i or i-1.  So the point graph is distance-regular
    exactly when A D_i = b_{i-1} D_{i-1} + a_i D_i + c_{i+1} D_{i+1} for
    every i, with b_{i-1}, a_i and c_{i+1} read at the first pair at
    distance i-1, i and i+1.  Both sides are proved equal row by row on
    packed rows; a differing row x is decoded only to find its first
    differing y, and the witness is the first such (x, y) over all i."""
    n = len(nbrs)
    if not _reaches_all(shells, n):
        raise ValueError("distance-regularity needs a connected hypergraph")
    d = len(shells) - 1
    width = _sphere_width(nbrs)
    # the first pair at each distance: x with a nonempty sphere, lowest y
    first = []
    for layer in shells:
        x = next(x for x, bits in enumerate(layer) if bits)
        first.append((x, _first_difference(layer[x], 0, width)))
    a, b, c = [], [], []
    witness = None
    rows_left = n  # once a witness is found, only rows up to its x matter
    zero = [0] * n
    for i in range(d + 1):
        below = shells[i - 1] if i else zero
        level = shells[i]
        above = shells[i + 1] if i < d else zero
        get = level.__getitem__
        bi, ai, ci = [_field(sum(map(get, nbrs[first[j][0]])), first[j][1], width)
                      if 0 <= j <= d else 0 for j in (i - 1, i, i + 1)]
        if i:
            b.append(bi)
        a.append(ai)
        if i < d:
            c.append(ci)
        prod = _times(nbrs[:rows_left], level)
        want = [bi * p + ai * q + ci * s
                for p, q, s in zip(below[:rows_left], level, above)]
        if prod != want:
            x = next(x for x, (p, w) in enumerate(zip(prod, want)) if p != w)
            pair = (x, _first_difference(prod[x], want[x], width))
            witness = pair if witness is None else min(witness, pair)
            rows_left = x + 1
    if witness is not None:
        return IntersectionNumbers(False, d, (), (), (), witness=witness)
    return IntersectionNumbers(True, d, tuple(a), tuple(b), tuple(c))

"""Dense symmetric eigensolver, spectrum utilities and the analysis of one
hypergraph.

The solver is self-contained: Householder reduction to tridiagonal form,
followed by implicit-shift QL iteration, so results are reproducible without
external linear-algebra dependencies.  The reduction takes two reflectors
per sweep: the second is computed from the block the first has not updated
yet, corrected by the first's rank-2 term, which in exact arithmetic is the
block that update would leave; then one pass over one triangle of the
exactly symmetric trailing block applies both updates.  Its mat-vecs sum
in plain floating point; the norms and the dot products of length n are
exactly rounded sums.

A distance-regular point graph whose eigenvalues are all integers needs
no solver: `array_spectrum` reads them, with their multiplicities, off the
intersection array in exact arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property
from operator import mul

from ._record import Record
from .hypergraph import (Hypergraph, IntersectionNumbers,
                         NotRegularUniformError, _reaches_all, adjacency,
                         check_regular_uniform, distance_regularity_check,
                         girth, girth_via_trace, incident, neighbours,
                         spheres)
from .orthopoly import Params
from .tridiagonal import _EPS, ql_eigenvalues

__all__ = [
    "Spectrum",
    "Analysis",
    "array_spectrum",
    "symmetric_eigenvalues",
    "TRACE_GIRTH_MAX",
]

_SYMMETRY_TOL = 1e-12
# eigenvalues this close form one cluster of the printed spectrum
_CLUSTER_TOL = 1e-7
# slack on the Ramanujan window |tau2 - (u-2)| <= 2*sqrt(q)
_RAMANUJAN_TOL = 1e-9
# the longest closed walks whose traces `Analysis.girth_by_trace` reads
TRACE_GIRTH_MAX = 12


class Spectrum(Record):
    """Eigenvalues in non-increasing order plus clusters of near-equal values
    as (representative, multiplicity) pairs.  Floats from the solver, ints
    when `array_spectrum` reads them off an intersection array."""

    values: tuple[float, ...]
    clusters: tuple[tuple[float, int], ...]

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Spectrum":
        vals = tuple(sorted(values, reverse=True))
        clusters: list[tuple[float, int]] = []
        start = 0
        for i in range(1, len(vals) + 1):
            if i == len(vals) or vals[i - 1] - vals[i] > _CLUSTER_TOL:
                group = vals[start:i]
                clusters.append((math.fsum(group) / len(group), len(group)))
                start = i
        return cls(vals, tuple(clusters))


def householder_tridiagonalize(m: Sequence[Sequence[float]]) -> tuple[list[float], list[float]]:
    """Orthogonal reduction of a symmetric matrix to tridiagonal form;
    returns (diagonal, subdiagonal).  Only the lower triangle of `m` is
    used.  A reflector maps x = A[j+1:, j] onto (alpha, 0, ..., 0) with
    alpha = -sign(x_0) ||x||, v = x - alpha e_1 and beta = 2/||v||^2, and
    alpha is the subdiagonal entry; the trailing block B = A[j+1:, j+1:]
    then becomes B - v p^T - p v^T with p = w - (beta/2)(v.w) v and
    w = beta B v.  Rows and columns up to j are final by then, so the loop
    keeps the trailing block and nothing else, popping rows and columns
    off it.

    Each sweep takes two reflectors, the panel of two of LAPACK's xSYTRD,
    and reads both off the block before either update is applied.  With
    C the block after column 0 is popped, (v, p) the first reflector's and
    v', p' their entries after the first, the updated block is
    C - v p^T - p v^T, so in exact arithmetic its column 0 is
    C[0][0] - 2 v_0 p_0 on the diagonal and C[1:, 0] - v' p_0 - p' v_0
    below it, and its trailing part times the second reflector's u is
    C[1:, 1:] u - v' (p'.u) - p' (v'.u).  These are the sequential
    reduction's values, computed from the stale C; the sweep then applies
    both rank-2 updates, B <- B - v' p'^T - p' v'^T - u q^T - q u^T, in
    one pass.  The update leaves B exactly symmetric in floating point:
    entry (i, k) is x - (v_i p_k + p_i v_k + (u_i q_k + q_i u_k)) and
    entry (k, i) the same sums of the same products in swapped order, and
    float * and + commute; so it is computed for k <= i and copied across
    the diagonal.

    A column whose entries below the diagonal have norm <= eps * ||A||_inf
    is not reflected, in either slot of the sweep, and its entries below
    the subdiagonal are dropped: the cut the QL deflation makes, a
    backward-stable perturbation.  Reflecting such a column can underflow
    its squared norm, and 2/||v||^2 then overflows into inf * 0 = NaN.  A
    column that is not reflected gets beta = 0 and p = 0, the identity,
    so the other slot of its sweep runs unchanged."""
    block = [[float(x) for x in row] for row in m]
    _mirror_lower(block)
    cut = _EPS * max((math.fsum(map(abs, row)) for row in block), default=0.0)
    diag: list[float] = []
    off: list[float] = []
    while block:
        diag.append(block.pop(0)[0])
        v, beta = _reflector([row.pop(0) for row in block], cut, off)
        if not block:
            break
        p = [0.0] * len(v)
        if beta:
            p = _partner(beta, v, [beta * sum(map(mul, row, v))
                                   for row in block])
        # the second column, read off the block the first update has not
        # touched and corrected by it
        v0, p0 = v.pop(0), p.pop(0)
        diag.append(block.pop(0)[0] - 2.0 * v0 * p0)
        u, gamma = _reflector([row.pop(0) - (vi * p0 + pi * v0)
                               for row, vi, pi in zip(block, v, p)], cut, off)
        q = [0.0] * len(u)
        if gamma:
            pu = math.fsum(map(mul, p, u))
            vu = math.fsum(map(mul, v, u))
            q = _partner(gamma, u, [gamma * (sum(map(mul, row, u))
                                             - (vi * pu + pi * vu))
                                    for row, vi, pi in zip(block, v, p)])
        if beta or gamma:
            for i, (row, vi, pi, ui, qi) in enumerate(zip(block, v, p, u, q), 1):
                row[:i] = [x - (vi * pk + pi * vk + (ui * qk + qi * uk))
                           for x, pk, vk, qk, uk in zip(row, p, v, q, u[:i])]
            _mirror_lower(block)
    return diag, off


def _reflector(x: list[float], cut: float, off: list[float]) -> tuple[list[float], float]:
    """(v, beta) of the reflector of the column x, which becomes v, and
    its subdiagonal entry appended to `off`.  beta = 0 for a column that
    is not reflected: one shorter than 2, one of norm <= `cut`, or one
    whose v underflows; its entry x_0 is kept, x_1, ... are dropped."""
    if len(x) < 2:
        off += x
        return x, 0.0
    x0 = x[0]
    alpha = math.sqrt(math.fsum(map(mul, x, x)))
    if alpha <= cut:
        off.append(x0)
        return x, 0.0
    if x0 > 0.0:
        alpha = -alpha
    x[0] = x0 - alpha
    vv = math.fsum(map(mul, x, x))
    if vv == 0.0:
        off.append(x0)
        return x, 0.0
    off.append(alpha)
    return x, 2.0 / vv


def _partner(beta: float, v: list[float], w: list[float]) -> list[float]:
    """p = w - (beta/2)(v.w) v, from w = beta B v: the reflector
    I - beta v v^T takes B to B - v p^T - p v^T."""
    kappa = 0.5 * beta * math.fsum(map(mul, v, w))
    return [wi - kappa * vi for wi, vi in zip(w, v)]


def _mirror_lower(a: list[list[float]]) -> None:
    """Copy the lower triangle of the square matrix `a` onto its upper
    triangle, in place.  The lazy transpose builds column i after rows
    0..i-1 are rewritten, but only the entries of it below row i are read,
    and no row is written there."""
    for i, (row, col) in enumerate(zip(a, zip(*a)), 1):
        row[i:] = col[i:]


def array_spectrum(n: int, numbers: IntersectionNumbers) -> Spectrum | None:
    """The exact spectrum of a distance-regular graph on n vertices with
    the valid intersection numbers `numbers`, when every eigenvalue is an
    integer; None when one is not.

    A acts on the distance matrices D_0, ..., D_d as the tridiagonal
    intersection matrix L (row i: c_i, a_i, b_i) does, and I, A, ..., A^d
    are independent, so the distinct eigenvalues of A are the d + 1 roots
    of det(xI - L).  A rational root of that monic integer polynomial is
    an integer, and every root lies in [-k, k], so exact evaluation at each
    integer there finds the integer roots.  The multiplicity of a root
    theta is Biggs' n / sum_i k_i u_i^2, with k_i = b_0...b_(i-1) /
    c_1...c_i the sphere sizes and u_i the cosines, u_0 = 1 and
    c_i u_(i-1) + a_i u_i + b_i u_(i+1) = theta u_i (Brouwer-Cohen-Neumaier
    1989, 4.1; Biggs 1993, ch. 21).  That recurrence is the one of the
    leading principal minors p_i of xI - L, scaled: u_i = p_i(theta) /
    b_0...b_(i-1), so k_i u_i^2 = p_i(theta)^2 / w_i with w_i the product
    of b_j c_(j+1) over j < i, and the sum is a ratio of integers.  The
    numbers of a multigraph count edge weights, and the same identities
    hold.  Multiplicities that are not positive integers summing to n, or
    an m(k) other than 1, also give None: a guard, not a tolerance."""
    a, d = numbers.a, numbers.diameter
    b, c = numbers.b, (0,) + numbers.c
    k = b[0]

    def minors(x: int) -> list[int]:
        p = [1, x - a[0]]
        for i in range(1, d + 1):
            p.append((x - a[i]) * p[i] - b[i - 1] * c[i] * p[i - 1])
        return p

    roots = []
    for x in range(k, -k - 1, -1):
        if not minors(x)[-1]:
            roots.append(x)
            if len(roots) > d:
                break
    else:
        return None
    w = [1]
    for bi, ci in zip(b, c[1:]):
        w.append(w[-1] * bi * ci)
    clusters = []
    for theta in roots:
        norm = sum(pi * pi * (w[-1] // wi) for pi, wi in zip(minors(theta), w))
        mult, rest = divmod(n * w[-1], norm)
        # k is simple: m(k) = n / sum_i k_i is 1 when n counts the graph
        if rest or mult < 1 or theta == k and mult != 1:
            return None
        clusters.append((theta, mult))
    if sum(m for _, m in clusters) != n:
        return None
    return Spectrum(tuple(theta for theta, m in clusters for _ in range(m)),
                    tuple(clusters))


def symmetric_eigenvalues(m: Sequence[Sequence[float]]) -> Spectrum:
    """Spectrum of a symmetric matrix (entries may be ints or floats).
    Rejects non-square or non-symmetric (beyond 1e-12) input."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    # row i equals column i exactly on symmetric input; only a row that
    # does not is walked, to name its first j > i beyond the tolerance
    for i, (row, col) in enumerate(zip(m, zip(*m))):
        if tuple(row) != col:
            for j in range(i + 1, n):
                if abs(row[j] - col[j]) > _SYMMETRY_TOL:
                    raise ValueError(f"matrix not symmetric at ({i}, {j})")
    if n == 0:
        return Spectrum((), ())
    diag, off = householder_tridiagonalize(m)
    return Spectrum.from_values(ql_eigenvalues(diag, off))


class Analysis:
    """The derived objects of one hypergraph, each built on first use and
    then kept: (r, u), the adjacency as neighbour lists, read straight off
    the edges, and as a dense matrix, the distance spheres and
    connectivity, read off the spheres, the trace girth and the adjacency
    spectrum.  `analyze` reads every report field from one instance, so
    each is built once.  The distance-regularity check is one of them: it
    serves both the spectrum and the report.  When the spectrum comes
    from A* (m < n), the dual's neighbour lists are read off `incident(h)`
    by the same pass, and no dual hypergraph is built; (r, u) is checked
    on the input alone, since the dual's is (u, r).  The hypergraph
    queries it calls take these objects and recompute none."""

    def __init__(self, h: Hypergraph) -> None:
        self.h = h

    @cached_property
    def ru(self) -> tuple[int, int]:
        """(r, u) of r-regular u-uniform input; otherwise each read raises
        `NotRegularUniformError` naming the first offender."""
        return check_regular_uniform(self.h)

    @cached_property
    def nbrs(self) -> list[list[int]]:
        return neighbours(self.h.n, self.h.edges)

    @cached_property
    def adjacency(self) -> list[list[int]]:
        return adjacency(self.nbrs)

    @cached_property
    def connected(self) -> bool:
        """Whether the point graph is connected: read off the spheres."""
        return _reaches_all(self.spheres, self.h.n)

    @cached_property
    def spheres(self) -> list[list[int]]:
        return spheres(self.nbrs)

    @cached_property
    def spectrum(self) -> Spectrum:
        """spec(A).  Connected regular uniform input with r >= 2 first asks
        the distance-regularity check: a distance-regular point graph whose
        eigenvalues are all integers has its spectrum read off the
        intersection array, exactly, by `array_spectrum`, and no matrix is
        diagonalized.  Otherwise the solver runs on the smaller of A and
        A*.  For r-regular u-uniform input, N N^T = A + rI and
        N^T N = A* + uI share their nonzero eigenvalues, so with m < n (and
        r >= 2, where the dual exists) spec(A) is
        {l + u - r : l in spec(A*)} and -r with multiplicity n - m.  A* is
        read off the edges through each vertex, the edges of the dual."""
        h = self.h
        try:
            r, u = self.ru
        except NotRegularUniformError:
            r = u = 0
        if r >= 2 and self.connected and self.distance_regularity.valid:
            exact = array_spectrum(h.n, self.distance_regularity)
            if exact is not None:
                return exact
        if r < 2 or h.m >= h.n:
            return symmetric_eigenvalues(self.adjacency)
        star = symmetric_eigenvalues(adjacency(neighbours(h.m, incident(h))))
        return Spectrum.from_values(
            [x + (u - r) for x in star.values] + [float(-r)] * (h.n - h.m))

    @cached_property
    def tau2(self) -> float:
        """Second-largest adjacency eigenvalue of a connected regular
        uniform hypergraph (the largest is k = r(u-1); the gap is k - tau2);
        an int when the spectrum was read off the intersection array."""
        r, u = self.ru
        if not self.connected:
            raise ValueError("second eigenvalue is defined here for connected input")
        values = self.spectrum.values
        k = r * (u - 1)
        if abs(values[0] - k) > 1e-7 * max(1, k):
            raise ArithmeticError("largest adjacency eigenvalue should equal r(u-1)")
        return values[1]

    def is_ramanujan(self) -> bool:
        """Whether tau2 lies within the spectral window
        |tau2 - (u-2)| <= 2*sqrt((r-1)(u-1)), up to _RAMANUJAN_TOL."""
        r, u = self.ru
        return (abs(self.tau2 - (u - 2))
                <= 2.0 * math.sqrt((r - 1) * (u - 1)) + _RAMANUJAN_TOL)

    def diameter(self) -> int:
        if not self.connected:
            raise ValueError("diameter undefined for a disconnected hypergraph")
        return len(self.spheres) - 1

    @cached_property
    def girth_by_trace(self) -> int | None:
        """`girth_via_trace` up to length TRACE_GIRTH_MAX, for regular
        uniform input."""
        return girth_via_trace(self.nbrs, Params(*self.ru), TRACE_GIRTH_MAX)

    def girth(self):
        """`girth(h)`.  For connected regular uniform input with r >= 2 it
        is `girth_by_trace` when that finds one, and the BFS runs only
        otherwise."""
        try:
            r, _ = self.ru
        except NotRegularUniformError:
            r = 0
        if r >= 2 and self.connected and self.girth_by_trace is not None:
            return self.girth_by_trace
        return girth(self.h)

    @cached_property
    def distance_regularity(self) -> IntersectionNumbers:
        return distance_regularity_check(self.spheres, self.nbrs)

"""Dense symmetric eigensolver, spectrum utilities and the analysis of one
hypergraph.

The solver is self-contained: Householder reduction to tridiagonal form,
which updates one triangle of the exactly symmetric trailing block, followed
by implicit-shift QL iteration, so results are reproducible without external
linear-algebra dependencies.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property
from operator import mul

from ._record import Record
from .hypergraph import (Hypergraph, IntersectionNumbers,
                         NotRegularUniformError, _reaches_all, adjacency,
                         adjacency_rows, check_regular_uniform,
                         distance_regularity_check, dual, girth,
                         girth_via_trace, neighbour_lists, spheres)
from .tridiagonal import _EPS, ql_eigenvalues

__all__ = [
    "Spectrum",
    "Analysis",
    "symmetric_eigenvalues",
    "second_eigenvalue",
    "is_ramanujan",
]

_SYMMETRY_TOL = 1e-12
# eigenvalues this close form one cluster of the printed spectrum
_CLUSTER_TOL = 1e-7
# slack on the Ramanujan window |tau2 - (u-2)| <= 2*sqrt(q)
_RAMANUJAN_TOL = 1e-9


class Spectrum(Record):
    """Eigenvalues in non-increasing order plus clusters of near-equal values
    as (representative, multiplicity) pairs."""

    values: tuple[float, ...]
    clusters: tuple[tuple[float, int], ...]

    @property
    def n(self) -> int:
        return len(self.values)

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
    used.  Step j reflects x = A[j+1:, j] onto (alpha, 0, ..., 0) with
    alpha = -sign(x_0) ||x||, writes alpha as the subdiagonal entry and
    applies the similarity to the trailing block B = A[j+1:, j+1:] alone:
    rows and columns up to j are final by then, so the loop keeps B and
    nothing else, popping row j and column j off it.  The update
    B <- B - v p^T - p v^T leaves B exactly symmetric in floating point,
    since entry (i, k) is x - (v_i p_k + p_i v_k) and entry (k, i) is
    x - (v_k p_i + p_k v_i), and float * and + commute; so it is computed
    for k <= i and copied across the diagonal.  A column whose entries
    below the diagonal have norm <= eps * ||A||_inf is not reflected, and
    its entries below the subdiagonal are dropped: the cut the QL deflation
    makes, a backward-stable perturbation.  Reflecting such a column can
    underflow its squared norm, and 2/||v||^2 then overflows into
    inf * 0 = NaN."""
    block = [[float(x) for x in row] for row in m]
    _mirror_lower(block)
    cut = _EPS * max((math.fsum(map(abs, row)) for row in block), default=0.0)
    diag: list[float] = []
    off: list[float] = []
    while block:
        diag.append(block.pop(0)[0])
        v = [row.pop(0) for row in block]
        if len(v) < 2:
            off += v
            continue
        x0 = v[0]
        alpha = math.sqrt(math.fsum(x * x for x in v))
        if alpha <= cut:
            off.append(x0)
            continue
        if x0 > 0.0:
            alpha = -alpha
        v[0] = x0 - alpha
        vv = math.fsum(x * x for x in v)
        if vv == 0.0:
            off.append(x0)
            continue
        beta = 2.0 / vv
        off.append(alpha)
        # B <- B - v p^T - p v^T with p = beta*B*v - kappa*v, on k <= i
        w = [beta * math.fsum(map(mul, row, v)) for row in block]
        kappa = 0.5 * beta * math.fsum(map(mul, v, w))
        p = [wi - kappa * vi for wi, vi in zip(w, v)]
        for i, (row, vi, pi) in enumerate(zip(block, v, p), 1):
            row[:i] = [x - (vi * pk + pi * vk)
                       for x, pk, vk in zip(row, p, v[:i])]
        _mirror_lower(block)
    return diag, off


def _mirror_lower(a: list[list[float]]) -> None:
    """Copy the lower triangle of the square matrix `a` onto its upper
    triangle, in place.  The lazy transpose builds column i after rows
    0..i-1 are rewritten, but only the entries of it below row i are read,
    and no row is written there."""
    for i, (row, col) in enumerate(zip(a, zip(*a)), 1):
        row[i:] = col[i:]


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
    then kept: (r, u), the adjacency as sparse rows, as neighbour lists and
    as a dense matrix, the dual and its adjacency rows, the distance
    spheres and connectivity, read off the spheres, the trace girth and the
    adjacency spectrum.  `analyze` reads every report field from one
    instance, so each is built once; the dual and its adjacency rows are
    built only when the spectrum comes from A* (m < n), and (r, u) is
    checked on the input alone, since the dual's is (u, r).
    `second_eigenvalue` and `is_ramanujan` are thin calls into a fresh
    one."""

    def __init__(self, h: Hypergraph) -> None:
        self.h = h

    @cached_property
    def ru(self) -> tuple[int, int]:
        """(r, u) of r-regular u-uniform input; otherwise each read raises
        `NotRegularUniformError` naming the first offender."""
        return check_regular_uniform(self.h)

    @cached_property
    def rows(self) -> list[list[tuple[int, int]]]:
        return adjacency_rows(self.h)

    @cached_property
    def nbrs(self) -> list[list[int]]:
        return neighbour_lists(self.rows)

    @cached_property
    def adjacency(self) -> list[list[int]]:
        return adjacency(self.h, self.rows)

    @cached_property
    def connected(self) -> bool:
        """Whether the point graph is connected: read off the spheres."""
        return _reaches_all(self.spheres, self.h.n)

    @cached_property
    def spheres(self) -> list[list[int]]:
        return spheres(self.h, self.rows)

    @cached_property
    def dual(self) -> Hypergraph:
        """The dual, for input of minimum degree 2."""
        return dual(self.h)

    @cached_property
    def dual_rows(self) -> list[list[tuple[int, int]]]:
        return adjacency_rows(self.dual)

    @cached_property
    def spectrum(self) -> Spectrum:
        """spec(A), from the smaller of A and A*.  For r-regular u-uniform
        input, N N^T = A + rI and N^T N = A* + uI share their nonzero
        eigenvalues, so with m < n (and r >= 2, where the dual exists)
        spec(A) is {l + u - r : l in spec(A*)} and -r with multiplicity
        n - m."""
        h = self.h
        try:
            r, u = self.ru
        except NotRegularUniformError:
            r = u = 0
        if r < 2 or h.m >= h.n:
            return symmetric_eigenvalues(self.adjacency)
        star = symmetric_eigenvalues(adjacency(self.dual, self.dual_rows))
        return Spectrum.from_values(
            [x + (u - r) for x in star.values] + [float(-r)] * (h.n - h.m))

    @cached_property
    def tau2(self) -> float:
        """Second-largest adjacency eigenvalue of a connected regular
        uniform hypergraph (the largest is k = r(u-1); the gap is k - tau2)."""
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
        """`girth_via_trace` up to length 12, for regular uniform input."""
        return girth_via_trace(self.h, 12, self.nbrs, self.ru)

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

    def distance_regularity(self) -> IntersectionNumbers:
        return distance_regularity_check(self.h, self.rows, self.spheres,
                                         self.nbrs)


def second_eigenvalue(h: Hypergraph) -> float:
    """Second-largest adjacency eigenvalue of a connected regular uniform
    hypergraph (the largest is k = r(u-1); the gap is k - tau2)."""
    return Analysis(h).tau2


def is_ramanujan(h: Hypergraph) -> bool:
    """Whether tau2 lies within the spectral window
    |tau2 - (u-2)| <= 2*sqrt((r-1)(u-1)), up to _RAMANUJAN_TOL."""
    return Analysis(h).is_ramanujan()

"""Dense symmetric eigensolver and spectrum utilities.

The solver is self-contained: Householder reduction to tridiagonal form
followed by implicit-shift QL iteration, so results are reproducible without
external linear-algebra dependencies.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property
from operator import mul

from ._record import Record
from .hypergraph import (Hypergraph, IntersectionNumbers,
                         NotRegularUniformError, adjacency, adjacency_rows,
                         check_regular_uniform, distance_regularity_check,
                         dual, girth, girth_via_trace, gram_mismatches,
                         is_connected, neighbour_lists, spheres)
from .tridiagonal import _EPS, ql_eigenvalues

__all__ = [
    "Spectrum",
    "CheckReport",
    "Analysis",
    "symmetric_eigenvalues",
    "second_eigenvalue",
    "is_ramanujan",
    "spectrum_correspondence_check",
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
    returns (diagonal, subdiagonal).  Step j reflects x = A[j+1:, j] onto
    (alpha, 0, ..., 0) with alpha = -sign(x_0) ||x||, writes alpha as the
    subdiagonal entry and applies the similarity to the trailing block
    A[j+1:, j+1:] alone: rows and columns up to j are final by then.  A
    column whose entries below the diagonal have norm <= eps * ||A||_inf is
    not reflected, and its entries below the subdiagonal are dropped: the
    cut the QL deflation makes, a backward-stable perturbation.  Reflecting
    such a column can underflow its squared norm, and 2/||v||^2 then
    overflows into inf * 0 = NaN."""
    n = len(m)
    a = [[float(x) for x in row] for row in m]
    cut = _EPS * max((math.fsum(map(abs, row)) for row in a), default=0.0)
    for j in range(n - 2):
        block = a[j + 1:]
        v = [row[j] for row in block]
        alpha = math.sqrt(math.fsum(x * x for x in v))
        if alpha <= cut:
            continue
        if v[0] > 0.0:
            alpha = -alpha
        v[0] -= alpha
        vv = math.fsum(x * x for x in v)
        if vv == 0.0:
            continue
        beta = 2.0 / vv
        block[0][j] = alpha
        # trailing update B <- B - v p^T - p v^T with p = beta*B*v - kappa*v
        w = [beta * math.fsum(map(mul, row[j + 1:], v)) for row in block]
        kappa = 0.5 * beta * math.fsum(map(mul, v, w))
        p = [wi - kappa * vi for wi, vi in zip(w, v)]
        for row, vi, pi in zip(block, v, p):
            row[j + 1:] = [x - (vi * pk + pi * vk)
                           for x, pk, vk in zip(row[j + 1:], p, v)]
    diag = [a[i][i] for i in range(n)]
    off = [a[i + 1][i] for i in range(n - 1)]
    return diag, off


def symmetric_eigenvalues(m: Sequence[Sequence[float]]) -> Spectrum:
    """Spectrum of a symmetric matrix (entries may be ints or floats).
    Rejects non-square or non-symmetric (beyond 1e-12) input."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(m[i][j] - m[j][i]) > _SYMMETRY_TOL:
                raise ValueError(f"matrix not symmetric at ({i}, {j})")
    if n == 0:
        return Spectrum((), ())
    diag, off = householder_tridiagonalize(m)
    return Spectrum.from_values(ql_eigenvalues(diag, off))


class CheckReport(Record):
    """Boolean verdict plus a human-readable mismatch trail."""

    ok: bool
    detail: tuple[str, ...] = ()


class Analysis:
    """The derived objects of one hypergraph, each built on first use and
    then kept: (r, u), the adjacency as sparse rows, as neighbour lists and
    as a dense matrix, the dual and its adjacency rows, connectivity, the
    distance spheres, the trace girth and the adjacency spectrum.
    `analyze` reads every report field from one instance, so each is built
    once; the dual's adjacency rows are built only when the spectrum comes
    from A* (m < n).  `second_eigenvalue` and `is_ramanujan` are thin calls
    into a fresh one."""

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
        return is_connected(self.h, self.rows)

    @cached_property
    def spheres(self) -> list[list[int]]:
        return spheres(self.h, self.rows)

    @cached_property
    def dual(self) -> Hypergraph:
        """The dual of regular uniform input."""
        return dual(self.h, self.ru)

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

    def correspondence(self) -> CheckReport:
        return spectrum_correspondence_check(self.h, self.rows, self.dual,
                                             self.ru, self.connected)


def second_eigenvalue(h: Hypergraph) -> float:
    """Second-largest adjacency eigenvalue of a connected regular uniform
    hypergraph (the largest is k = r(u-1); the gap is k - tau2)."""
    return Analysis(h).tau2


def is_ramanujan(h: Hypergraph) -> bool:
    """Whether tau2 lies within the spectral window
    |tau2 - (u-2)| <= 2*sqrt((r-1)(u-1)), up to _RAMANUJAN_TOL."""
    return Analysis(h).is_ramanujan()


def spectrum_correspondence_check(h: Hypergraph,
                                  rows: list | None = None,
                                  hd: Hypergraph | None = None,
                                  ru: tuple[int, int] | None = None,
                                  connected: bool | None = None) -> CheckReport:
    """Prove the incidence-graph spectrum relation exactly.  With N the
    n x m vertex-edge incidence matrix, A the adjacency of h and A* that of
    its dual, check N N^T = A + rI and N^T N = A* + uI entry by entry in
    integers.  The incidence graph's matrix squares to diag(N N^T, N^T N),
    so the squared incidence eigenvalues are {spec(A)+r} u {spec(A*)+u};
    and N N^T, N^T N share their nonzero eigenvalues with multiplicity, so
    spec(A)+r padded with m zeros equals spec(A*)+u padded with n zeros.
    Needs O(nnz * max(r, u)) time and no dense matrix, and holds one row of
    A* at a time (`gram_mismatches`).  `rows`, `hd`, `ru` and `connected`:
    `adjacency_rows(h)`, `dual(h)`, `check_regular_uniform(h)` and
    `is_connected(h)`, when the caller has them.  A failure names the first
    mismatching entry."""
    r, u = check_regular_uniform(h) if ru is None else ru
    if r < 2:
        raise ValueError("needs r >= 2 so the dual is defined")
    if rows is None:
        rows = adjacency_rows(h)
    if not (is_connected(h, rows) if connected is None else connected):
        raise ValueError("needs connected input")
    if hd is None:
        hd = dual(h, (r, u))
    primal, dual_side = gram_mismatches(h, rows, hd, (r, u))
    detail: list[str] = []
    if primal is not None:
        detail.append("N N^T != A + {}I at ({}, {}): {} vs {}".format(r, *primal))
    if dual_side is not None:
        detail.append("N^T N != A* + {}I at ({}, {}): {} vs {}".format(u, *dual_side))
    return CheckReport(not detail, tuple(detail))

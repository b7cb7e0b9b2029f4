"""Test-side oracles for `hyplp.spectra`: the Householder reductions that
update the whole trailing block, both triangles, at every step.

`full_update_tridiagonalize` takes two reflectors per sweep, as the
library does; the library updates one triangle and mirrors it, and on
exactly symmetric input the two must give the same doubles.
`one_reflector_tridiagonalize` takes one reflector per step and applies
each update before the next column is read: the sequential reduction,
equal to the library's in exact arithmetic and within rounding in floats."""

import math
from operator import mul

from hyplp.tridiagonal import _EPS


def _cut(a) -> float:
    return _EPS * max((math.fsum(map(abs, row)) for row in a), default=0.0)


def _reflect(a, j, cut):
    """(v, beta) of the reflector of column j of `a` below the diagonal,
    with alpha written to a[j+1][j]; beta = 0 and the column left as it
    is when it is not reflected."""
    v = [row[j] for row in a[j + 1:]]
    if len(v) < 2:
        return v, 0.0
    alpha = math.sqrt(math.fsum(map(mul, v, v)))
    if alpha <= cut:
        return v, 0.0
    if v[0] > 0.0:
        alpha = -alpha
    v[0] -= alpha
    vv = math.fsum(map(mul, v, v))
    if vv == 0.0:
        return v, 0.0
    a[j + 1][j] = alpha
    return v, 2.0 / vv


def _partner(beta, v, w):
    kappa = 0.5 * beta * math.fsum(map(mul, v, w))
    return [wi - kappa * vi for wi, vi in zip(w, v)]


def full_update_tridiagonalize(m) -> tuple[list[float], list[float]]:
    """(diagonal, subdiagonal) of the reduction of the symmetric matrix
    `m`, with the same reflections, the same `cut` and the same operation
    order as `hyplp.spectra.householder_tridiagonalize`, two reflectors a
    sweep, but the update
    B <- B - v p^T - p v^T - u q^T - q u^T applied to every entry of the
    trailing block A[j+2:, j+2:]."""
    n = len(m)
    a = [[float(x) for x in row] for row in m]
    cut = _cut(a)
    for j in range(0, n - 1, 2):
        v, beta = _reflect(a, j, cut)
        p = [0.0] * len(v)
        if beta:
            w = [beta * sum(map(mul, row[j + 1:], v)) for row in a[j + 1:]]
            p = _partner(beta, v, w)
        # column j + 1 of H1 C H1, from the stale C
        a[j + 1][j + 1] -= 2.0 * v[0] * p[0]
        for i in range(j + 2, n):
            a[i][j + 1] -= v[i - j - 1] * p[0] + p[i - j - 1] * v[0]
        v, p = v[1:], p[1:]
        u, gamma = _reflect(a, j + 1, cut)
        q = [0.0] * len(u)
        if gamma:
            pu = math.fsum(map(mul, p, u))
            vu = math.fsum(map(mul, v, u))
            w = [gamma * (sum(map(mul, row[j + 2:], u)) - (vi * pu + pi * vu))
                 for row, vi, pi in zip(a[j + 2:], v, p)]
            q = _partner(gamma, u, w)
        if beta or gamma:
            for row, vi, pi, ui, qi in zip(a[j + 2:], v, p, u, q):
                row[j + 2:] = [x - (vi * pk + pi * vk + (ui * qk + qi * uk))
                               for x, pk, vk, qk, uk in zip(row[j + 2:], p, v, q, u)]
    diag = [a[i][i] for i in range(n)]
    off = [a[i + 1][i] for i in range(n - 1)]
    return diag, off


def one_reflector_tridiagonalize(m) -> tuple[list[float], list[float]]:
    """(diagonal, subdiagonal) of the sequential reduction of the symmetric
    matrix `m`: one reflector per column, with the same `cut`, and the
    rank-2 update B <- B - v p^T - p v^T applied to every entry of the
    trailing block A[j+1:, j+1:] before column j + 1 is read."""
    n = len(m)
    a = [[float(x) for x in row] for row in m]
    cut = _cut(a)
    for j in range(n - 2):
        v, beta = _reflect(a, j, cut)
        if not beta:
            continue
        w = [beta * sum(map(mul, row[j + 1:], v)) for row in a[j + 1:]]
        p = _partner(beta, v, w)
        for row, vi, pi in zip(a[j + 1:], v, p):
            row[j + 1:] = [x - (vi * pk + pi * vk)
                           for x, pk, vk in zip(row[j + 1:], p, v)]
    diag = [a[i][i] for i in range(n)]
    off = [a[i + 1][i] for i in range(n - 1)]
    return diag, off

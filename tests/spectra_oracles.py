"""Test-side oracle for `hyplp.spectra`: the Householder reduction that
updates the whole trailing block, both triangles, at every step.  The
library updates one triangle and mirrors it; on exactly symmetric input
the two must give the same doubles."""

import math
from operator import mul

from hyplp.tridiagonal import _EPS


def full_update_tridiagonalize(m) -> tuple[list[float], list[float]]:
    """(diagonal, subdiagonal) of the reduction of the symmetric matrix
    `m`, with the same reflections, the same `cut` and the same operation
    order as `hyplp.spectra.householder_tridiagonalize`, but the rank-2
    update B <- B - v p^T - p v^T applied to every entry of the trailing
    block A[j+1:, j+1:]."""
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
        w = [beta * math.fsum(map(mul, row[j + 1:], v)) for row in block]
        kappa = 0.5 * beta * math.fsum(map(mul, v, w))
        p = [wi - kappa * vi for wi, vi in zip(w, v)]
        for row, vi, pi in zip(block, v, p):
            row[j + 1:] = [x - (vi * pk + pi * vk)
                           for x, pk, vk in zip(row[j + 1:], p, v)]
    diag = [a[i][i] for i in range(n)]
    off = [a[i + 1][i] for i in range(n - 1)]
    return diag, off

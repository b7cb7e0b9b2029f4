"""Eigenvalues of symmetric tridiagonal matrices by Reinsch's root-free QL
iteration (C. H. Reinsch, "A stable, rational QR algorithm for the
computation of the eigenvalues of an Hermitian, tridiagonal matrix",
Math. Comp. 25, 1971; EISPACK's TQLRAT)."""

from __future__ import annotations

import math
from collections.abc import Sequence

_EPS = 2.220446049250313e-16
# QL sweeps one eigenvalue may take before the iteration gives up
_MAX_SWEEPS = 64


def ql_eigenvalues(diag: Sequence[float], offdiag: Sequence[float]) -> list[float]:
    """All eigenvalues of the symmetric tridiagonal matrix with the given
    diagonal and subdiagonal, sorted in non-increasing order.

    Rational QL: the iteration runs on the squared subdiagonal and takes no
    square root inside a sweep, only one per shift.  The shifts are
    Wilkinson-style and applied explicitly, the running total kept apart;
    eigenvalues come out accurate to a few ulps of the matrix norm.  A
    squared subdiagonal entry is negligible at or below (eps times the
    infinity norm of the matrix) squared, which is what lets a cluster of
    zero eigenvalues deflate.  The matrix is first scaled by a power of two
    near its largest entry, which is exact, so the squares neither
    overflow nor underflow where it matters; the scale is undone on the
    result.  A NaN or infinite entry raises ArithmeticError: the squared
    recurrence would otherwise deflate past it and return finite values.
    """
    n = len(diag)
    if len(offdiag) != max(n - 1, 0):
        raise ValueError("offdiag must have length n-1")
    entries = [*diag, *offdiag]
    if not all(map(math.isfinite, entries)):
        raise ArithmeticError("tridiagonal matrix has a non-finite entry")
    _, exp = math.frexp(max(map(abs, entries), default=0.0))
    d = [math.ldexp(v, -exp) for v in diag]
    e = [math.ldexp(v, -exp) for v in offdiag] + [0.0]
    floor = _EPS * max((abs(d[i]) + abs(e[i]) + abs(e[i - 1] if i else 0.0)
                        for i in range(n)), default=0.0)
    tiny = floor * floor
    e2 = [v * v for v in e]
    shift = 0.0  # d[l:] hold the trailing block minus this
    for l in range(n):
        sweeps = 0
        while True:
            # locate the first negligible subdiagonal entry at or after l
            m = l
            while e2[m] > tiny:
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > _MAX_SWEEPS:
                raise ArithmeticError("tridiagonal QL iteration did not converge")
            s = math.sqrt(e2[l])
            p = (d[l + 1] - d[l]) / (2.0 * s)
            t = s / (p + math.copysign(math.hypot(p, 1.0), p))
            h = d[l] - t
            d[l] = t
            d[l + 1:] = [v - h for v in d[l + 1:]]
            shift += h
            # a zero g stands in as floor, as in TQLRAT
            g = d[m] or floor
            h = g
            s = 0.0
            for i in range(m - 1, l - 1, -1):
                p = g * h
                r = p + e2[i]
                e2[i + 1] = s * r
                s = e2[i] / r
                d[i + 1] = h + s * (h + d[i])
                g = (d[i] - e2[i] / g) or floor
                h = g * p / r
            e2[l] = s * g * h
            d[l] = h
        d[l] += shift
    d.sort(reverse=True)
    return [math.ldexp(v, exp) for v in d]

"""Eigenvalues of symmetric tridiagonal matrices by implicit-shift QL iteration."""

from __future__ import annotations

import math
from collections.abc import Sequence

_EPS = 2.220446049250313e-16
# QL sweeps one eigenvalue may take before the iteration gives up
_MAX_SWEEPS = 64


def ql_eigenvalues(diag: Sequence[float], offdiag: Sequence[float]) -> list[float]:
    """All eigenvalues of the symmetric tridiagonal matrix with the given
    diagonal and subdiagonal, sorted in non-increasing order.

    Classic implicit-shift QL with Wilkinson-style shifts; eigenvalues come
    out accurate to a few ulps of the matrix norm.  A subdiagonal entry is
    negligible when it is below eps times its two diagonal neighbours or
    eps times the infinity norm of the matrix, as in EISPACK's tql1; the
    second test is what lets a cluster of zero eigenvalues deflate.
    """
    n = len(diag)
    if len(offdiag) != max(n - 1, 0):
        raise ValueError("offdiag must have length n-1")
    if n == 0:
        return []
    d = [float(v) for v in diag]
    e = [float(v) for v in offdiag] + [0.0]
    floor = _EPS * max(abs(d[i]) + abs(e[i]) + abs(e[i - 1] if i else 0.0)
                       for i in range(n))
    for l in range(n):
        sweeps = 0
        while True:
            # locate the first negligible subdiagonal entry at or after l
            m = l
            while m < n - 1:
                em = abs(e[m])
                if em <= floor or em <= _EPS * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > _MAX_SWEEPS:
                raise ArithmeticError("tridiagonal QL iteration did not converge")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            broke = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # recover from underflow by deflating early
                    d[i + 1] -= p
                    e[m] = 0.0
                    broke = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if broke:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    d.sort(reverse=True)
    return d

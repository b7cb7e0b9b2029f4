"""Dense one-phase simplex for small linear programs, kept warm across
added columns.

Solves max c.x subject to A x <= b, x >= 0 with b >= 0 on a plain tableau,
starting from the slack basis, which b >= 0 makes feasible; a negative b is
refused.  The entering column is the one with the most negative reduced cost
(Dantzig's rule), which reaches the optimum in few pivots.  Dantzig's rule can
cycle on a degenerate vertex, so after a run of degenerate pivots the solver
falls back to Bland's lowest-index rule (Bland 1977, Math. Oper. Res. 2(2)),
which cannot cycle, until a pivot makes progress again.  The ratio test breaks
ties by the lowest basic index.  Problems here stay tiny (at most tens of
rows and columns: the LP optimizer's degree s rows, its s + 1 seed columns and
one column per round), which keeps dense pivoting cheap and reproducible.

A `Tableau` keeps its optimal basis after the solve.  `add_column` adds a
variable: the old optimum stays primal feasible, so only the new column needs
pricing, and the simplex goes on from there (column generation, Gilmore and
Gomory 1961, Oper. Res. 9(6)).  The LP optimizer in `bounds` adds one column
per constraint-generation round this way instead of solving each round's LP
from the slack basis.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._record import Record

__all__ = ["SimplexResult", "Unbounded", "Tableau"]

_PIVOT_TOL = 1e-11
_COST_TOL = 1e-9
# consecutive degenerate pivots (ratio-test minimum <= _PIVOT_TOL) after which
# the entering rule switches from Dantzig's to Bland's
_BLAND_AFTER = 50
# pivots one solve may take before it gives up as an internal failure
_MAX_ITERS = 50000


class Unbounded(Exception):
    pass


class SimplexResult(Record):
    x: tuple[float, ...]
    value: float
    duals: tuple[float, ...]
    pivots: int = 0


def _pivot(tab: list[list[float]], basis: list[int], row: int, col: int) -> None:
    inv = 1.0 / tab[row][col]
    tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0.0:
            f = r[col]
            tab[i] = [a - f * p for a, p in zip(r, prow)]
    basis[row] = col


def _iterate(tab: list[list[float]], basis: list[int], obj: list[float],
             ncols: int) -> int:
    """Pivot until the objective row (z_j - c_j entries, value in last slot)
    has no negative reduced cost; returns the number of pivots.  Entering
    column: the most negative reduced cost, or the lowest eligible index while
    the last _BLAND_AFTER or more pivots were all degenerate."""
    degenerate = 0
    for it in range(_MAX_ITERS):
        col = -1
        if degenerate < _BLAND_AFTER:
            j = min(range(ncols), key=obj.__getitem__)
            if obj[j] < -_COST_TOL:
                col = j
        else:
            for j in range(ncols):
                if obj[j] < -_COST_TOL:
                    col = j
                    break
        if col < 0:
            return it
        row, best, tie = -1, 0.0, -1
        for i, r in enumerate(tab):
            if r[col] > _PIVOT_TOL:
                ratio = r[-1] / r[col]
                if row < 0 or ratio < best - _PIVOT_TOL or (
                        abs(ratio - best) <= _PIVOT_TOL and basis[i] < tie):
                    row, best, tie = i, ratio, basis[i]
        if row < 0:
            raise Unbounded("objective unbounded above")
        degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
        _pivot(tab, basis, row, col)
        f = obj[col]
        if f != 0.0:
            prow = tab[row]
            for j in range(len(obj)):
                obj[j] -= f * prow[j]
    raise ArithmeticError("simplex iteration cap exceeded")


class Tableau:
    """max c.x over {x >= 0 : A x <= b} with b >= 0, solved on construction
    from the slack basis and kept at its optimal basis.  Columns are laid out
    as the n variables, the m slacks, then the right-hand side; `pivots`
    counts every pivot since construction."""

    def __init__(self, c: Sequence[float], a: Sequence[Sequence[float]],
                 b: Sequence[float]):
        m, n = len(b), len(c)
        if len(a) != m or any(len(row) != n for row in a):
            raise ValueError("constraint matrix shape mismatch")
        if any(bi < 0.0 for bi in b):
            raise ValueError("right-hand side must be >= 0")
        self.n, self.m = n, m
        self.tab = [[float(v) for v in a[i]]
                    + [1.0 if k == i else 0.0 for k in range(m)] + [float(b[i])]
                    for i in range(m)]
        self.basis = list(range(n, n + m))
        # the slacks are basic at cost 0, so the reduced costs are -c
        cost = [float(v) for v in c] + [0.0] * m
        self.obj = [-v for v in cost] + [0.0]
        self.pivots = _iterate(self.tab, self.basis, self.obj, n + m)

    def add_column(self, c_j: float, col: Sequence[float]) -> None:
        """Add a variable with objective coefficient c_j and constraint column
        col, then pivot back to an optimum; raises Unbounded when the new
        variable makes the objective unbounded above."""
        n, m = self.n, self.m
        if len(col) != m:
            raise ValueError("constraint column length mismatch")
        col = [float(v) for v in col]
        # the slack block holds B^-1, so the new column's current entries are
        # the slack block times col, and its reduced cost is the slack part
        # of the objective row times col, minus c_j
        for row in self.tab:
            row.insert(n, sum(v * row[n + k] for k, v in enumerate(col)))
        obj = self.obj
        obj.insert(n, sum(v * obj[n + k] for k, v in enumerate(col)) - float(c_j))
        # the column goes in before the slacks, where a cold solve would have
        # it, so the lowest-index rules see the same order
        self.basis = [bi + 1 if bi >= n else bi for bi in self.basis]
        self.n = n + 1
        self.pivots += _iterate(self.tab, self.basis, obj, len(obj) - 1)

    def result(self) -> SimplexResult:
        """The primal solution, the optimal value, the dual vector read off
        the slack reduced costs, and the pivots since construction."""
        n = self.n
        x = [0.0] * n
        for i, bi in enumerate(self.basis):
            if bi < n:
                x[bi] = self.tab[i][-1]
        duals = tuple(self.obj[n + i] for i in range(self.m))
        return SimplexResult(tuple(x), self.obj[-1], duals, self.pivots)

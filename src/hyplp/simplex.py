"""Dense two-phase simplex for small linear programs, kept warm across
added columns.

Solves max c.x subject to A x <= b, x >= 0 (b of any sign) on a plain
tableau.  The entering column is the one with the most negative reduced cost
(Dantzig's rule), which reaches the optimum in few pivots.  Dantzig's rule can
cycle on a degenerate vertex, so after a run of degenerate pivots the solver
falls back to Bland's lowest-index rule (Bland 1977, Math. Oper. Res. 2(2)),
which cannot cycle, until a pivot makes progress again.  The ratio test breaks
ties by the lowest basic index.  Problems here stay tiny (tens of rows, a few
hundred columns), which keeps dense pivoting cheap and reproducible.

A `Tableau` keeps its optimal basis after the solve.  `add_column` adds a
variable: the old optimum stays primal feasible, so only the new column needs
pricing, and the simplex goes on from there (column generation, Gilmore and
Gomory 1961, Oper. Res. 9(6)).  The LP optimizer in `bounds` adds one column
per constraint-generation round this way instead of solving each round's LP
from the slack basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["SimplexResult", "Infeasible", "Unbounded", "Tableau", "solve_max"]

_PIVOT_TOL = 1e-11
_COST_TOL = 1e-9
# consecutive degenerate pivots (ratio-test minimum <= _PIVOT_TOL) after which
# the entering rule switches from Dantzig's to Bland's
_BLAND_AFTER = 50


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


@dataclass(frozen=True)
class SimplexResult:
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
             ncols: int, max_iters: int) -> int:
    """Pivot until the objective row (z_j - c_j entries, value in last slot)
    has no negative reduced cost; returns the number of pivots.  Entering
    column: the most negative reduced cost, or the lowest eligible index while
    the last _BLAND_AFTER or more pivots were all degenerate."""
    degenerate = 0
    for it in range(max_iters):
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
    """max c.x over {x >= 0 : A x <= b}, solved on construction and kept at
    its optimal basis.  Columns are laid out as the n variables, the m
    slacks, the phase-1 artificials, then the right-hand side; `pivots`
    counts every pivot since construction."""

    def __init__(self, c: Sequence[float], a: Sequence[Sequence[float]],
                 b: Sequence[float], max_iters: int = 50000):
        m, n = len(b), len(c)
        if len(a) != m or any(len(row) != n for row in a):
            raise ValueError("constraint matrix shape mismatch")
        self.n, self.m, self.max_iters = n, m, max_iters
        # rows with negative rhs get negated (their slack then carries -1) and
        # an artificial basic variable for phase 1
        flipped = [bi < 0.0 for bi in b]
        art_rows = [i for i in range(m) if flipped[i]]
        nart = len(art_rows)
        art_col = {i: n + m + t for t, i in enumerate(art_rows)}
        ncols = n + m + nart
        tab: list[list[float]] = []
        basis: list[int] = []
        for i in range(m):
            sgn = -1.0 if flipped[i] else 1.0
            row = [sgn * float(v) for v in a[i]]
            slack = [0.0] * m
            slack[i] = sgn
            row += slack
            art = [0.0] * nart
            if flipped[i]:
                art[art_col[i] - n - m] = 1.0
            row += art
            row.append(sgn * float(b[i]))
            tab.append(row)
            basis.append(art_col[i] if flipped[i] else n + i)
        self.tab, self.basis, self.pivots = tab, basis, 0

        if nart:
            # phase 1: maximize -(sum of artificials); with artificials basic
            # the reduced-cost row is minus the sum of their tableau rows, plus
            # 1 on each artificial column
            obj = [0.0] * (ncols + 1)
            for i, bi in enumerate(basis):
                if bi >= n + m:
                    for j in range(ncols + 1):
                        obj[j] -= tab[i][j]
            for t in range(nart):
                obj[n + m + t] += 1.0
            self.pivots += _iterate(tab, basis, obj, ncols, max_iters)
            if obj[-1] < -1e-7:
                raise Infeasible(f"phase 1 optimum {obj[-1]:.3g} < 0")
            for i in range(m):
                if basis[i] >= n + m:
                    # artificial stuck basic at zero level; pivot it out when
                    # the row has any usable entry, else the row is redundant
                    for j in range(n + m):
                        if abs(tab[i][j]) > _PIVOT_TOL:
                            _pivot(tab, basis, i, j)
                            self.pivots += 1
                            break

        cost = [float(v) for v in c] + [0.0] * (m + nart)
        obj = [-cost[j] for j in range(ncols)] + [0.0]
        for i, bi in enumerate(basis):
            if cost[bi] != 0.0:
                cb = cost[bi]
                for j in range(ncols + 1):
                    obj[j] += cb * tab[i][j]
        inf = float("inf")
        for t in range(nart):
            obj[n + m + t] = inf  # artificials never re-enter
        self.obj = obj
        self.pivots += _iterate(tab, basis, obj, ncols, max_iters)

    def add_column(self, c_j: float, col: Sequence[float]) -> None:
        """Add a variable with objective coefficient c_j and constraint column
        col, then pivot back to an optimum; raises Unbounded when the new
        variable makes the objective unbounded above."""
        n, m = self.n, self.m
        if len(col) != m:
            raise ValueError("constraint column length mismatch")
        col = [float(v) for v in col]
        # the slack block holds B^-1 D, where D negates the flipped rows; the
        # new column starts out as D col, so its current entries are the slack
        # block times col, and its reduced cost is the slack part of the
        # objective row times col, minus c_j (D cancels in both)
        for row in self.tab:
            row.insert(n, sum(v * row[n + k] for k, v in enumerate(col)))
        obj = self.obj
        obj.insert(n, sum(v * obj[n + k] for k, v in enumerate(col)) - float(c_j))
        # the column goes in before the slacks, where a cold solve would have
        # it, so the lowest-index rules see the same order
        self.basis = [bi + 1 if bi >= n else bi for bi in self.basis]
        self.n = n + 1
        self.pivots += _iterate(self.tab, self.basis, obj, len(obj) - 1,
                                self.max_iters)

    def result(self) -> SimplexResult:
        """The primal solution, the optimal value, the dual vector read off
        the slack reduced costs, and the pivots since construction."""
        n = self.n
        x = [0.0] * n
        for i, bi in enumerate(self.basis):
            if bi < n:
                x[bi] = self.tab[i][-1]
        # for a flipped row the slack column is -e_i, so obj[n+i] already
        # carries the sign that makes it the dual of the original inequality
        duals = tuple(self.obj[n + i] for i in range(self.m))
        return SimplexResult(tuple(x), self.obj[-1], duals, self.pivots)


def solve_max(c: Sequence[float], a: Sequence[Sequence[float]], b: Sequence[float],
              max_iters: int = 50000) -> SimplexResult:
    """Maximize c.x over {x >= 0 : A x <= b}.  Returns the primal solution,
    the optimal value, the dual vector read off the slack reduced costs, and
    the number of pivots over both phases."""
    return Tableau(c, a, b, max_iters).result()

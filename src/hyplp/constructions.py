"""Builders for fixture hypergraphs: orthogonal arrays, MOLS, classical graphs."""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ._record import Record
from .hypergraph import Hypergraph

__all__ = [
    "OrthogonalArray",
    "OAValidationError",
    "oa_validate",
    "mols_cyclic",
    "oa_from_mols",
    "hypergraph_from_oa",
    "oa_minus_transversal",
    "named_fixture",
    "fixture_names",
]


class OAValidationError(ValueError):
    """Raised when an array fails the orthogonal-array pair condition."""


class OrthogonalArray(Record):
    """rows x cols array over symbols 0..alphabet-1; every pair of distinct
    rows must show each ordered symbol pair exactly once (so cols = alphabet^2)."""

    rows: int
    cols: int
    alphabet: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 2 or self.alphabet < 2:
            raise ValueError("need at least 2 rows and 2 symbols")
        if len(self.cells) != self.rows or any(len(row) != self.cols for row in self.cells):
            raise ValueError("cell grid does not match declared shape")
        for row in self.cells:
            for v in row:
                if not (0 <= v < self.alphabet):
                    raise ValueError(f"symbol {v} outside alphabet 0..{self.alphabet - 1}")

    @classmethod
    def from_text(cls, text: str) -> "OrthogonalArray":
        lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines:
            raise ValueError("empty orthogonal-array text")
        head = lines[0].split()
        if len(head) != 3:
            raise ValueError("header must be 'rows cols alphabet'")
        rows, cols, alphabet = (int(x) for x in head)
        if len(lines) - 1 != rows:
            raise ValueError(f"expected {rows} data lines, got {len(lines) - 1}")
        cells = []
        for ln in lines[1:]:
            vals = tuple(int(x) for x in ln.split())
            if len(vals) != cols:
                raise ValueError(f"expected {cols} entries per line, got {len(vals)}")
            cells.append(vals)
        return cls(rows, cols, alphabet, tuple(cells))

    def to_text(self) -> str:
        out = [f"{self.rows} {self.cols} {self.alphabet}"]
        out.extend(" ".join(str(v) for v in row) for row in self.cells)
        return "\n".join(out) + "\n"


def oa_validate(oa: OrthogonalArray) -> tuple[bool, str | None]:
    """Check the defining property: in any two rows each ordered symbol pair
    occurs exactly once.  Returns (ok, witness)."""
    if oa.cols != oa.alphabet ** 2:
        return False, f"column count {oa.cols} != alphabet^2 = {oa.alphabet ** 2}"
    for a in range(oa.rows):
        for b in range(a + 1, oa.rows):
            seen: dict[tuple[int, int], int] = {}
            for j in range(oa.cols):
                pair = (oa.cells[a][j], oa.cells[b][j])
                if pair in seen:
                    return False, (f"rows ({a}, {b}): symbol pair {pair} repeats "
                                   f"at columns {seen[pair]} and {j}")
                seen[pair] = j
    return True, None


def _require_valid(oa: OrthogonalArray) -> None:
    ok, witness = oa_validate(oa)
    if not ok:
        raise OAValidationError(witness)


def mols_cyclic(p: int, m: int) -> list[tuple[tuple[int, ...], ...]]:
    """m mutually orthogonal cyclic Latin squares of prime order p:
    L_a(i,j) = (a*i + j) mod p for a = 1..m."""
    if p < 2 or any(p % f == 0 for f in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"order {p} is not prime")
    if not 1 <= m <= p - 1:
        raise ValueError(f"count must be in 1..{p - 1}")
    return [tuple(tuple((a * i + j) % p for j in range(p)) for i in range(p))
            for a in range(1, m + 1)]


def oa_from_mols(squares: Sequence[Sequence[Sequence[int]]]) -> OrthogonalArray:
    """Assemble an array from Latin squares of a common order: two
    coordinate rows plus one row per square, one column per cell.  It is an
    orthogonal array when the squares are mutually orthogonal, which is not
    checked here: `hypergraph_from_oa` and `oa_minus_transversal` check the
    array they are given, so that each array is validated once."""
    if not squares:
        raise ValueError("need at least one square")
    p = len(squares[0])
    for sq in squares:
        if len(sq) != p or any(len(row) != p for row in sq):
            raise ValueError("squares must share one order")
    cols = [(i, j) + tuple(sq[i][j] for sq in squares)
            for i in range(p) for j in range(p)]
    cells = tuple(tuple(col[t] for col in cols) for t in range(2 + len(squares)))
    return OrthogonalArray(2 + len(squares), p * p, p, cells)


def hypergraph_from_oa(oa: OrthogonalArray) -> Hypergraph:
    """Hypergraph on (row, symbol) pairs whose edges are the columns; with u
    rows over r symbols the result is r-regular u-uniform on ru vertices with
    second eigenvalue 0: by the pair condition each symbol fills r columns
    of every row.  Vertex (i, s) gets label i*alphabet + s."""
    _require_valid(oa)
    edges = [tuple(i * oa.alphabet + oa.cells[i][j] for i in range(oa.rows))
             for j in range(oa.cols)]
    return Hypergraph(oa.rows * oa.alphabet, edges)


def oa_minus_transversal(oa: OrthogonalArray, symbol: int) -> Hypergraph:
    """Drop the last row together with the columns carrying `symbol` there;
    with u+1 rows over r+1 symbols this leaves an r-regular u-uniform
    hypergraph on u(r+1) vertices with second eigenvalue 1: each symbol of
    a kept row meets `symbol` in the last row in exactly one column."""
    _require_valid(oa)
    if oa.rows < 3:
        raise ValueError("need at least 3 rows so dropping one leaves edges of size >= 2")
    if not 0 <= symbol < oa.alphabet:
        raise ValueError(f"symbol {symbol} outside alphabet 0..{oa.alphabet - 1}")
    edges = [tuple(i * oa.alphabet + oa.cells[i][j] for i in range(oa.rows - 1))
             for j in range(oa.cols) if oa.cells[-1][j] != symbol]
    return Hypergraph((oa.rows - 1) * oa.alphabet, edges)


def _petersen() -> Hypergraph:
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    return Hypergraph(10, edges)


def _complete(n: int) -> Hypergraph:
    return Hypergraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _complete_bipartite(m: int) -> Hypergraph:
    return Hypergraph(2 * m, [(i, m + j) for i in range(m) for j in range(m)])


def _crown(m: int) -> Hypergraph:
    """K_{m,m} minus a perfect matching."""
    return Hypergraph(2 * m, [(i, m + j) for i in range(m) for j in range(m) if i != j])


_FANO_LINES = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def _fano() -> Hypergraph:
    return Hypergraph(7, _FANO_LINES)


def _heawood() -> Hypergraph:
    edges = [(p, 7 + j) for j, line in enumerate(_FANO_LINES) for p in line]
    return Hypergraph(14, edges)


def _oa33() -> Hypergraph:
    return hypergraph_from_oa(oa_from_mols(mols_cyclic(3, 1)))


def _oa45_minus() -> Hypergraph:
    return oa_minus_transversal(oa_from_mols(mols_cyclic(5, 2)), 0)


# name -> (builder, r, u, tau2, girth, diameter, order); the figures after
# the builder are the expected ones, which the tests compute and compare
_CATALOG: dict[str, tuple[Callable[[], Hypergraph], int, int, float, float, int, int]] = {
    "petersen": (_petersen, 3, 2, 1.0, 5, 2, 10),
    "k4": (lambda: _complete(4), 3, 2, -1.0, 3, 1, 4),
    "k5": (lambda: _complete(5), 4, 2, -1.0, 3, 1, 5),
    "k6": (lambda: _complete(6), 5, 2, -1.0, 3, 1, 6),
    "k7": (lambda: _complete(7), 6, 2, -1.0, 3, 1, 7),
    "k33": (lambda: _complete_bipartite(3), 3, 2, 0.0, 4, 2, 6),
    "k44": (lambda: _complete_bipartite(4), 4, 2, 0.0, 4, 2, 8),
    "k55": (lambda: _complete_bipartite(5), 5, 2, 0.0, 4, 2, 10),
    "k33-minus": (lambda: _crown(3), 2, 2, 1.0, 6, 3, 6),
    "k44-minus": (lambda: _crown(4), 3, 2, 1.0, 4, 3, 8),
    "k55-minus": (lambda: _crown(5), 4, 2, 1.0, 4, 3, 10),
    "fano": (_fano, 3, 3, -1.0, 3, 1, 7),
    "heawood": (_heawood, 3, 2, 2 ** 0.5, 6, 3, 14),
    "oa33": (_oa33, 3, 3, 0.0, 3, 2, 9),
    "oa45-minus": (_oa45_minus, 4, 3, 1.0, 3, 2, 15),
}


def fixture_names() -> list[str]:
    return sorted(_CATALOG)


def named_fixture(name: str) -> Hypergraph:
    """Build a catalog hypergraph.  Its (r, u, tau2, girth, diameter,
    order) row is not recomputed here: the tests check every row."""
    try:
        builder = _CATALOG[name][0]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}") from None
    return builder()

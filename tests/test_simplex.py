"""Simplex solver: textbook cases, degenerate pivots, and randomized
comparison against scipy's LP solver."""

import math
import random

import pytest
import scipy.optimize

from hyplp import simplex
from hyplp.orthopoly import Params, f_values
from hyplp.simplex import SimplexResult, Tableau, Unbounded


def test_textbook_two_variable():
    # max 3x + 5y: x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6)
    res = Tableau([3, 5], [[1, 0], [0, 2], [3, 2]], [4, 12, 18]).result()
    assert res.value == pytest.approx(36.0)
    assert res.x == (pytest.approx(2.0), pytest.approx(6.0))
    assert res.duals == (pytest.approx(0.0), pytest.approx(1.5), pytest.approx(1.0))


def test_beale_degenerate_cycle_guard():
    # classic cycling example; Bland's rule must terminate at 0.05
    c = [0.75, -150, 0.02, -6]
    a = [[0.25, -60, -0.04, 9],
         [0.5, -90, -0.02, 3],
         [0, 0, 1, 0]]
    b = [0, 0, 1]
    res = Tableau(c, a, b).result()
    assert res.value == pytest.approx(0.05)


def test_negative_rhs_refused():
    # the solve starts from the slack basis, which b < 0 makes infeasible
    with pytest.raises(ValueError, match="right-hand side"):
        Tableau([1, 1], [[1, 1], [-1, 0]], [4, -1])
    with pytest.raises(ValueError):
        Tableau([1], [[1]], [-1e-300])


def test_unbounded_detected():
    with pytest.raises(Unbounded):
        Tableau([1, 0], [[0, 1]], [1])


def test_shape_mismatch():
    with pytest.raises(ValueError):
        Tableau([1, 2], [[1]], [1])


def test_duals_price_out_objective():
    # strong duality: value == b . duals when b >= 0
    res = Tableau([2, 3, 1], [[1, 1, 1], [2, 1, 0], [0, 1, 3]], [6, 5, 9]).result()
    assert res.value == pytest.approx(
        6 * res.duals[0] + 5 * res.duals[1] + 9 * res.duals[2])
    assert all(d >= -1e-9 for d in res.duals)


def _scipy_solve(c, a, b):
    return scipy.optimize.linprog(
        [-v for v in c], A_ub=a, b_ub=b, bounds=[(0, None)] * len(c),
        method="highs")


def _has_recession_ray(c, a, n):
    """Whether max c.x is unbounded over {x >= 0, A x <= 0} != {0}: decided by
    an auxiliary LP capping c.x at 1."""
    try:
        aux = Tableau(c, list(a) + [list(c)], [0.0] * len(a) + [1.0]).result()
    except Unbounded:
        return True
    return aux.value > 1e-7


def _agrees_with_scipy(c, a, b, trial, rel=0.0):
    """Compare status, value and primal feasibility with scipy; returns
    whether the LP had an optimum.  b >= 0 makes x = 0 feasible, so an LP
    without one is unbounded.  rel adds a relative tolerance for LPs whose
    entries span many orders of magnitude."""
    n = len(c)
    try:
        mine = Tableau(c, a, b).result()
    except Unbounded:
        mine = None
    ref = _scipy_solve(c, a, b)
    if ref.status == 0:
        assert mine is not None, trial
        assert mine.value == pytest.approx(-ref.fun, rel=rel, abs=1e-6), trial
        # feasibility of our point
        for row, bi in zip(a, b):
            assert sum(rv * xv for rv, xv in zip(row, mine.x)) <= bi + 1e-7 + rel * abs(bi)
        return True
    if ref.status in (2, 3):
        # scipy's presolve sometimes reports infeasible (2) for unbounded (3)
        # problems; adjudicate with the recession cone
        assert mine is None, trial
        assert _has_recession_ray(c, a, n), trial
    return False


def test_random_lps_match_scipy():
    rng = random.Random(99)
    agree = 0
    for trial in range(60):
        n = rng.randrange(2, 6)
        m = rng.randrange(2, 7)
        c = [rng.uniform(-4, 4) for _ in range(n)]
        a = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.uniform(0, 5) for _ in range(m)]
        agree += _agrees_with_scipy(c, a, b, trial)
    assert agree >= 20  # the sampler should hit plenty of bounded cases


@pytest.mark.parametrize("bland_after", [simplex._BLAND_AFTER, 1])
def test_degenerate_lps_match_scipy(monkeypatch, bland_after):
    # zero right-hand sides and repeated rows put many bases on one vertex,
    # where most-negative pricing can cycle without its lowest-index fallback;
    # a run length of 1 hands most of these pivots to the fallback
    monkeypatch.setattr(simplex, "_BLAND_AFTER", bland_after)
    rng = random.Random(7)
    agree = 0
    for trial in range(60):
        n = rng.randrange(3, 8)
        m = rng.randrange(3, 9)
        c = [float(rng.randint(-3, 5)) for _ in range(n)]
        a = [[float(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        b = [0.0 if rng.random() < 0.6 else float(rng.randint(1, 6))
             for _ in range(m)]
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(m)
            a.append(list(a[i]))
            b.append(b[i])
        agree += _agrees_with_scipy(c, a, b, trial)
    assert agree >= 20


def test_optimizer_shaped_lps_match_scipy():
    # the point-mass dual the LP bound optimizer solves: s <= 8 rows, one
    # column -F_j(x) per sample point x in [-r, theta], all-ones objective
    rng = random.Random(2015)
    agree = 0
    for trial in range(12):
        params = Params(rng.randrange(3, 9), rng.randrange(2, 4))
        s = rng.randrange(2, 9)
        top = params.u - 2 + 2 * math.sqrt(params.q)
        lo = -float(params.r)
        theta = lo + (top - lo) * rng.uniform(0.4, 0.95)
        xs = [lo + (theta - lo) * t / 199 for t in range(200)]
        xs += [rng.uniform(lo, theta) for _ in range(rng.randrange(1, 40))]
        cols = [f_values(params, s, x) for x in xs]
        a = [[-col[j] for col in cols] for j in range(1, s + 1)]
        b = [float(params.k * params.q ** (j - 1)) for j in range(1, s + 1)]
        agree += _agrees_with_scipy([1.0] * len(xs), a, b, trial, rel=1e-9)
    assert agree >= 6


def test_add_column_matches_a_fresh_solve():
    # columns appended one at a time to random LPs: after each append the kept
    # tableau must give the value, x and duals of a fresh solve of the
    # enlarged LP, and scipy's value and duals.  A budget row with positive
    # entries keeps every LP bounded.
    rng = random.Random(31)
    appended = 0
    for trial in range(40):
        n, m = rng.randrange(1, 4), rng.randrange(2, 6)
        c = [rng.uniform(-1, 3) for _ in range(n)]
        a = [[rng.uniform(0.5, 2) for _ in range(n)]]
        a += [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(m - 1)]
        b = [rng.uniform(5, 10)] + [rng.uniform(0, 4) for _ in range(m - 1)]
        t = Tableau(c, a, b)
        for _ in range(rng.randrange(1, 6)):
            c_j = rng.uniform(-1, 3)
            col = [rng.uniform(0.5, 2)] + [rng.uniform(-3, 3) for _ in range(m - 1)]
            t.add_column(c_j, col)
            c.append(c_j)
            for row, v in zip(a, col):
                row.append(v)
            warm, cold, ref = t.result(), Tableau(c, a, b).result(), _scipy_solve(c, a, b)
            assert ref.status == 0, trial
            assert warm.value == pytest.approx(cold.value, abs=1e-9), trial
            assert warm.value == pytest.approx(-ref.fun, abs=1e-7), trial
            assert warm.x == pytest.approx(cold.x, abs=1e-9), trial
            assert warm.duals == pytest.approx(cold.duals, abs=1e-9), trial
            # highs reports d(min -c.x)/d(b), the negated duals of max c.x
            assert warm.duals == pytest.approx(
                [-v for v in ref.ineqlin.marginals], abs=1e-7), trial
            appended += 1
        # a column with a positive cost and no positive entry is a ray
        with pytest.raises(Unbounded):
            t.add_column(1.0, [-rng.uniform(0, 1) for _ in range(m)])
    assert appended >= 60


def test_result_is_frozen():
    res = SimplexResult((1.0,), 1.0, (0.0,))
    with pytest.raises(AttributeError):
        res.value = 2.0

"""Eigensolver against numpy, the full-update reduction and known spectra,
and the incidence-spectrum correspondence."""

import math
import random

import numpy as np
import pytest

from hyplp import cli, hypergraph, spectra
from hyplp.constructions import (fixture_names, hypergraph_from_oa, mols_cyclic,
                                 named_fixture, oa_from_mols)
from hyplp.hypergraph import Hypergraph, check_regular_uniform, dual
from hyplp.spectra import (Analysis, Spectrum, householder_tridiagonalize,
                           symmetric_eigenvalues)
from hyplp.tridiagonal import ql_eigenvalues
from conftest import cycle, random_regular_uniform
from spectra_oracles import (full_update_tridiagonalize,
                             one_reflector_tridiagonalize)
from walk_oracles import dense_adjacency, gram_mismatches, incidence_graph

SQRT2 = math.sqrt(2.0)


def test_solver_matches_numpy_on_random_symmetric():
    rng = random.Random(20260818)
    for trial in range(40):
        n = rng.randrange(1, 13)
        m = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.uniform(-3.0, 3.0)
                m[i][j] = m[j][i] = v
        got = symmetric_eigenvalues(m).values
        want = sorted(np.linalg.eigvalsh(np.array(m)), reverse=True)
        scale = max(1.0, max(abs(w) for w in want))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-8 * scale, (trial, got, want)


def structured_symmetric():
    """(n, m) for n = 1..40 and m each of three exactly symmetric inputs:
    dense, rank-deficient (C C^T with C of rank n/3) and block-diagonal."""
    rng = np.random.default_rng(20261018)
    for n in range(1, 41):
        b = rng.standard_normal((n, n))
        dense = b + b.T
        c = rng.standard_normal((n, max(1, n // 3)))
        low_rank = c @ c.T
        low_rank = (low_rank + low_rank.T) / 2
        blocks = np.zeros((n, n))
        half = n // 2
        blocks[:half, :half] = dense[:half, :half]
        blocks[half:, half:] = low_rank[half:, half:]
        for m in (dense, low_rank, blocks):
            yield n, m


def test_householder_matches_numpy_on_structured_symmetric():
    # the reduction alone, read back through numpy, and the whole solver
    # must both reproduce numpy's spectrum
    for n, m in structured_symmetric():
        want = np.linalg.eigvalsh(m)
        tol = 1e-12 * max(1.0, float(np.abs(want).max()))
        diag, off = householder_tridiagonalize(m.tolist())
        t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.abs(np.linalg.eigvalsh(t) - want).max() <= tol, n
        got = symmetric_eigenvalues(m.tolist()).values
        assert np.abs(np.array(got[::-1]) - want).max() <= tol, n


def reference_cases():
    """(label, matrix): exactly symmetric inputs for the comparison with
    the full-update reduction."""
    rng = random.Random(20261020)
    for r, u, n in [(2, 3, 30), (3, 2, 24), (2, 4, 40), (3, 4, 32),
                    (4, 5, 25), (5, 2, 20), (3, 3, 27)]:
        h = random_regular_uniform(rng, r, u, n)
        if h is not None:
            yield (r, u, n), dense_adjacency(h)
            yield (r, u, n, "dual"), dense_adjacency(dual(h))
    yield "OA(4, 29)", dense_adjacency(oa_point_hypergraph(29, 4))
    yield "OA(3, 11) incidence", incidence_graph(oa_point_hypergraph(11, 3))
    for name in fixture_names():
        yield name, dense_adjacency(named_fixture(name))
    for n, m in structured_symmetric():
        yield n, m.tolist()


def test_householder_equals_the_full_update_reference():
    # the trailing block stays exactly symmetric, so updating one triangle
    # and mirroring it gives the same doubles as updating both
    seen = 0
    for label, m in reference_cases():
        assert householder_tridiagonalize(m) == full_update_tridiagonalize(m), label
        seen += 1
    # six configuration-model graphs with their duals, OA(4, 29), the
    # incidence graph, the fixtures and the structured inputs
    assert seen == 12 + 2 + len(fixture_names()) + 120


def tridiagonal_spectrum(diag, off):
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def inf_norm(m):
    return max((sum(abs(x) for x in row) for row in m), default=0.0)


def block_diagonal(sizes, rng):
    n = sum(sizes)
    m = [[0.0] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(start, i + 1):
                m[i][j] = m[j][i] = rng.uniform(-2.0, 2.0)
        start += size
    return m


EPS = 2.0 ** -52
TINY = 1e-30  # far below cut = eps * ||A||_inf


def skipping_cases():
    """(label, matrix, {subdiagonal index: value}): small and structured
    inputs, with the subdiagonal entries a column that is not reflected
    keeps.  A leading block of odd size ends on a column with nothing
    below it in slot 1 of a sweep, one of even size in slot 2.  The TINY
    couplings give a column of norm sqrt(3) * TINY <= cut below the
    diagonal, which keeps its first entry (up to a sign flip by the
    first reflector) where reflecting it would give +-sqrt(3) * TINY."""
    rng = random.Random(20261020)
    for n in range(6):
        yield f"dense {n}", block_diagonal([n], rng), {}
    for n in (6, 7):
        yield f"diagonal {n}", block_diagonal([1] * n, rng), {}
    for sizes in ((3, 2, 4), (2, 2, 1, 3), (1, 5), (4, 3), (2, 5)):
        yield f"blocks {sizes}", block_diagonal(sizes, rng), {}
    # slot 1: column 0 is not reflected
    m = block_diagonal([1, 5], rng)
    for i in (1, 2, 3):
        m[i][0] = m[0][i] = TINY
    yield "slot 1 below cut", m, {0: TINY}
    # slot 2: column 0 is (2, 0, ...), so the first reflector negates row
    # and column 1 of the trailing block, and column 1 is then (-TINY, ...)
    m = block_diagonal([2, 5], rng)
    m[1][0] = m[0][1] = 2.0
    for i in (2, 3, 4):
        m[i][1] = m[1][i] = TINY
    yield "slot 2 below cut", m, {0: -2.0, 1: -TINY}


def test_householder_on_small_blocked_and_cut_columns():
    for label, m, kept in skipping_cases():
        diag, off = householder_tridiagonalize(m)
        assert (diag, off) == full_update_tridiagonalize(m), label
        assert len(diag) == len(m) and len(off) == max(0, len(m) - 1), label
        for i, x in kept.items():
            assert off[i] == x, (label, i, off)
        if m:
            want = np.linalg.eigvalsh(np.array(m))
            tol = 64 * len(m) * EPS * inf_norm(m)
            assert np.abs(tridiagonal_spectrum(diag, off) - want).max() <= tol, label


def test_two_reflector_sweep_agrees_with_the_sequential_reduction():
    # in exact arithmetic the stale-block mat-vec and the corrected second
    # column are the sequential reduction; in floats the spectra of the two
    # tridiagonal matrices agree within a few ulps of ||A||_inf per order
    cases = list(reference_cases())
    cases += [(label, m) for label, m, _ in skipping_cases() if m]
    for label, m in cases:
        got = tridiagonal_spectrum(*householder_tridiagonalize(m))
        want = tridiagonal_spectrum(*one_reflector_tridiagonalize(m))
        tol = 64 * len(m) * EPS * inf_norm(m)
        assert np.abs(got - want).max() <= tol, label


def test_householder_reads_only_the_lower_triangle():
    for label, m in (("dense", next(m for n, m in structured_symmetric() if n == 12)),
                     ("petersen", dense_adjacency(named_fixture("petersen")))):
        m = [[float(x) for x in row] for row in m]
        bent = [row[:] for row in m]
        bent[2][7] += 1e-13
        assert bent[2][7] != m[2][7]
        symmetric_eigenvalues(bent)  # within the symmetry tolerance
        assert householder_tridiagonalize(bent) == householder_tridiagonalize(m), label


def test_solver_rejects_bad_input():
    with pytest.raises(ValueError):
        symmetric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        symmetric_eigenvalues([[0.0, 1.0]])


def test_symmetry_error_names_the_first_pair_in_row_order():
    # messages pinned from the pair-by-pair scan the row comparison replaced
    m = [[0, 1, 2, 3, 4],
         [1, 0, 5, 6, 7],
         [2, 5, 0, 8, 9],
         [3, 6, 8, 0, 1],
         [4, 7, 9, 1, 0]]
    m = [[float(x) for x in row] for row in m]
    m[0][1] += 1e-13  # within the tolerance
    m[3][1] += 0.5    # (1, 3), from the lower triangle
    m[1][4] -= 0.25   # (1, 4)
    m[2][3] += 1.0    # (2, 3)
    with pytest.raises(ValueError, match=r"^matrix not symmetric at \(1, 3\)$"):
        symmetric_eigenvalues(m)
    m[3][1] -= 0.5
    with pytest.raises(ValueError, match=r"^matrix not symmetric at \(1, 4\)$"):
        symmetric_eigenvalues(m)


@pytest.mark.parametrize("m", [[[0.0, math.nan], [1.0, 0.0]],
                               [[0.0, 1.0], [math.nan, 0.0]]], ids=["above", "below"])
def test_nan_off_the_diagonal_is_not_symmetric(m):
    # every comparison with a NaN is False: `abs(nan - 1) > tol` let the
    # matrix through, and the reduction, which reads the lower triangle,
    # returned the spectrum (1, -1) of another matrix
    with pytest.raises(ValueError, match=r"^matrix not symmetric at \(0, 1\)$"):
        symmetric_eigenvalues(m)


def test_ql_on_path_graph():
    # eigenvalues of the n-path adjacency are 2 cos(pi j / (n+1))
    for n in (2, 3, 5, 9):
        got = ql_eigenvalues([0.0] * n, [1.0] * (n - 1))
        want = sorted((2.0 * math.cos(math.pi * j / (n + 1))
                       for j in range(1, n + 1)), reverse=True)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-10


def oa_point_hypergraph(p, rows):
    return hypergraph_from_oa(oa_from_mols(mols_cyclic(p, rows - 2)))


def test_ql_deflates_a_cluster_of_zero_eigenvalues():
    # the 154 x 154 incidence matrix of the OA(3, 11) point hypergraph has 92
    # zero eigenvalues; deflating only against the neighbouring diagonal
    # entries ran past the sweep cap there
    b = incidence_graph(oa_point_hypergraph(11, 3))
    assert len(b) == 154
    got = symmetric_eigenvalues(b).values
    want = sorted(np.linalg.eigvalsh(np.array(b, dtype=float)), reverse=True)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
    assert sum(1 for g in got if abs(g) <= 1e-9) == 92


def test_householder_skips_underflowing_columns():
    # the OA(4, 29) point adjacency has rank 4 of 116: later Householder
    # columns decay to ~1e-149, whose squared norm underflows to 0, and
    # reflecting them once gave NaN and a QL iteration that never converged
    a = dense_adjacency(oa_point_hypergraph(29, 4))
    assert len(a) == 116
    got = symmetric_eigenvalues(a).values
    want = sorted(np.linalg.eigvalsh(np.array(a, dtype=float)), reverse=True)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-11
    assert got[0] == pytest.approx(87.0) and abs(got[1]) <= 1e-9


def test_symmetrized_offdiagonal():
    # T(3, 2, 2, 1) symmetrized: sub (3, 2) and super (1, 1) give the
    # off-diagonal (sqrt(3*1), sqrt(2*1))
    eigs = ql_eigenvalues([0.0, 0.0, 2.0], [math.sqrt(3.0), math.sqrt(2.0)])
    for g, w in zip(eigs, [3.0, 1.0, -2.0]):
        assert abs(g - w) < 1e-9


@pytest.mark.parametrize("scale", [1e200, 1e-170, 2.0 ** 1000, 2.0 ** -1000])
def test_ql_squares_neither_overflow_nor_underflow(scale):
    # the path P_3 times `scale` has eigenvalues sqrt(2) scale, 0 and
    # -sqrt(2) scale; the squared subdiagonal of the unscaled matrix is
    # inf or 0 at these scales
    got = ql_eigenvalues([0.0] * 3, [scale] * 2)
    assert got[0] == pytest.approx(SQRT2 * scale, rel=1e-14, abs=0.0)
    assert abs(got[1]) <= 1e-14 * scale
    assert got[2] == pytest.approx(-SQRT2 * scale, rel=1e-14, abs=0.0)


def test_ql_scaling_by_a_power_of_two_changes_no_bit():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 30)
        diag = [rng.uniform(-3.0, 3.0) for _ in range(n)]
        off = [rng.uniform(-3.0, 3.0) for _ in range(n - 1)]
        got = ql_eigenvalues(diag, off)
        for power in (-600, -3, 7, 600):
            scaled = ql_eigenvalues([math.ldexp(v, power) for v in diag],
                                    [math.ldexp(v, power) for v in off])
            assert scaled == [math.ldexp(v, power) for v in got]


def test_ql_small_and_degenerate_matrices():
    assert ql_eigenvalues([], []) == []
    assert ql_eigenvalues([-2.5], []) == [-2.5]
    assert ql_eigenvalues([0.0] * 4, [0.0] * 3) == [0.0] * 4
    assert ql_eigenvalues([3.0, 1.0, 2.0], [0.0, 0.0]) == [3.0, 2.0, 1.0]
    with pytest.raises(ValueError, match="offdiag must have length n-1"):
        ql_eigenvalues([1.0, 2.0], [])


@pytest.mark.parametrize("diag, off", [
    # where the rational recurrence meets a zero g: at the last step of a
    # sweep on [[0, 1], [1, 0]], where no division follows; at the first
    # d[m] of a sweep on the second matrix; inside a sweep, before the
    # division by g, on the path P_4
    ([0.0, 0.0], [1.0]),
    ([0.0, 0.0, -1.0], [1.0, 1.0]),
    ([0.0] * 4, [1.0] * 3),
])
def test_ql_zero_diagonal_where_the_recurrence_meets_zero(diag, off):
    got = ql_eigenvalues(diag, off)
    want = sorted(np.linalg.eigvalsh(
        np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)), reverse=True)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14
    assert sum(got) == pytest.approx(sum(diag), abs=1e-14)


@pytest.mark.parametrize("diag, off", [
    ([math.nan, 1.0, 2.0], [1.0, 1.0]),
    ([1.0, 1.0, 2.0], [1.0, math.nan]),
    ([1.0, 1.0], [math.inf]),
    ([-math.inf, 1.0], [1.0]),
])
def test_ql_refuses_a_non_finite_entry(diag, off):
    # a NaN subdiagonal squares to NaN, which no comparison finds above
    # the deflation floor: unchecked, it deflates and yields finite values
    with pytest.raises(ArithmeticError, match="non-finite entry"):
        ql_eigenvalues(diag, off)


def test_ql_matches_numpy_on_random_tridiagonals():
    # zeros, repeated values and tiny entries on both diagonals
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randrange(1, 40)
        diag = [rng.choice((0.0, 1.0, -2.0, rng.uniform(-3.0, 3.0)))
                for _ in range(n)]
        off = [rng.choice((0.0, 1e-9, 1.0, rng.uniform(-3.0, 3.0)))
               for _ in range(n - 1)]
        t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        want = sorted(np.linalg.eigvalsh(t), reverse=True)
        norm = max(np.abs(t).sum(axis=1).max(), 1.0)
        got = ql_eigenvalues(diag, off)
        assert got == sorted(got, reverse=True)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14 * norm


def assert_clusters(spec, expected):
    assert len(spec.clusters) == len(expected)
    for (got_v, got_m), (want_v, want_m) in zip(spec.clusters, expected):
        assert got_m == want_m
        assert got_v == pytest.approx(want_v, abs=1e-8)


def test_petersen_spectrum():
    spec = symmetric_eigenvalues(dense_adjacency(named_fixture("petersen")))
    assert_clusters(spec, [(3.0, 1), (1.0, 5), (-2.0, 4)])


def test_fano_point_graph_is_complete():
    spec = symmetric_eigenvalues(dense_adjacency(named_fixture("fano")))
    assert_clusters(spec, [(6.0, 1), (-1.0, 6)])


def test_heawood_spectrum():
    spec = symmetric_eigenvalues(dense_adjacency(named_fixture("heawood")))
    assert_clusters(spec, [(3.0, 1), (SQRT2, 6), (-SQRT2, 6), (-3.0, 1)])


def test_oa33_point_graph_is_complete_tripartite():
    spec = symmetric_eigenvalues(dense_adjacency(named_fixture("oa33")))
    assert_clusters(spec, [(6.0, 1), (0.0, 6), (-3.0, 2)])


def test_second_eigenvalue_fixtures():
    for name, want in [("petersen", 1.0), ("k4", -1.0), ("k33", 0.0),
                       ("heawood", SQRT2), ("fano", -1.0), ("oa33", 0.0),
                       ("oa45-minus", 1.0)]:
        assert Analysis(named_fixture(name)).tau2 == pytest.approx(
            want, abs=1e-8), name


def test_second_eigenvalue_needs_connected():
    h = Hypergraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    with pytest.raises(ValueError):
        Analysis(h).tau2


def test_ramanujan_fixtures():
    assert Analysis(named_fixture("petersen")).is_ramanujan()
    assert Analysis(named_fixture("heawood")).is_ramanujan()
    assert Analysis(named_fixture("oa45-minus")).is_ramanujan()
    # triple edge on two vertices: tau2 = -3, below -2*sqrt(2)
    assert not Analysis(Hypergraph(2, [(0, 1), (0, 1), (0, 1)])).is_ramanujan()


def test_spectrum_clustering():
    spec = Spectrum.from_values([0.5, 1.0, 1.0 + 1e-9])
    assert spec.values == (1.0 + 1e-9, 1.0, 0.5)
    assert len(spec.clusters) == 2
    assert spec.clusters[0][1] == 2
    assert spec.clusters[1] == (0.5, 1)
    assert len(spec.values) == 3


CORRESPONDENCE_FIXTURES = ("petersen", "fano", "heawood", "oa33", "oa45-minus", "k33")


def _multiset_match(a, b, tol):
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol for x, y in zip(sorted(a), sorted(b)))


def float_correspondence(h, tol=1e-7):
    """Float oracle for the exact Gram check: diagonalize the incidence
    graph, A and A* densely and compare squared incidence eigenvalues with
    {spec(A)+r} u {spec(A*)+u}, and the zero-padded shifted spectra."""
    r, u = check_regular_uniform(h)
    inc = symmetric_eigenvalues(incidence_graph(h)).values
    ev = symmetric_eigenvalues(dense_adjacency(h)).values
    ev_dual = symmetric_eigenvalues(dense_adjacency(dual(h))).values
    squared = [x * x for x in inc]
    shifted = [x + r for x in ev] + [x + u for x in ev_dual]
    padded_primal = [x + r for x in ev] + [0.0] * h.m
    padded_dual = [x + u for x in ev_dual] + [0.0] * h.n
    return (_multiset_match(squared, shifted, tol)
            and _multiset_match(padded_primal, padded_dual, tol))


def test_correspondence_on_fixtures():
    for name in CORRESPONDENCE_FIXTURES:
        h = named_fixture(name)
        detail = gram_mismatches(h)
        assert not detail, (name, detail)
        assert (not detail) == float_correspondence(h), name
    h = oa_point_hypergraph(11, 3)
    assert not gram_mismatches(h) and float_correspondence(h)


def _tampered_lists(monkeypatch, n, entry):
    """Make the adjacency `neighbours` returns off by one at `entry` on the
    side with n vertices (the primal or the dual), symmetrically."""
    real = hypergraph.neighbours

    def fake(count, edges):
        nbrs = real(count, edges)
        if count == n:
            x, y = entry
            nbrs[x].append(y)
            nbrs[y].append(x)
        return nbrs

    monkeypatch.setattr(hypergraph, "neighbours", fake)


def test_correspondence_names_a_tampered_primal_entry(monkeypatch):
    h = named_fixture("petersen")  # n = 10, m = 15
    was = dense_adjacency(h)[0][2]
    _tampered_lists(monkeypatch, 10, (0, 2))
    detail = gram_mismatches(h)
    assert detail
    assert detail == (f"N N^T != A + 3I at (0, 2): {was} vs {was + 1}",)


def test_correspondence_names_a_tampered_dual_entry(monkeypatch):
    h = named_fixture("petersen")
    was = dense_adjacency(dual(h))[3][7]
    _tampered_lists(monkeypatch, 15, (3, 7))
    detail = gram_mismatches(h)
    assert detail
    assert detail == (f"N^T N != A* + 2I at (3, 7): {was} vs {was + 1}",)


@pytest.fixture
def diagonalized(monkeypatch):
    """The sizes of the matrices `spectra` diagonalizes, in call order."""
    sizes = []
    real = spectra.symmetric_eigenvalues

    def counting(m, *args, **kwargs):
        sizes.append(len(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(spectra, "symmetric_eigenvalues", counting)
    return sizes


def test_analyze_computes_one_spectrum(diagonalized):
    sizes = diagonalized
    # m >= n: A itself; m < n: only the dual's m x m adjacency; both
    # distance-regular with irrational eigenvalues, so the solver runs
    for h, tau2 in ((named_fixture("heawood"), SQRT2),
                    (dual(named_fixture("heawood")), 1.0 + SQRT2)):
        sizes.clear()
        pairs = dict(cli.analyze_pairs(h))
        assert sizes == [min(h.n, h.m)]
        assert pairs["spectrum_correspondence"] == "ok"
        assert pairs["tau2"] == pytest.approx(tau2, abs=1e-8)
    # an integer spectrum is read off the intersection array: no solver.
    # The dual of Petersen is its line graph, {4, 2, 1; 1, 1, 4}, with
    # spectrum 4, 2x5, -1x4, -2x5
    for h, tau2 in ((named_fixture("petersen"), 1),
                    (dual(named_fixture("petersen")), 2)):
        sizes.clear()
        pairs = dict(cli.analyze_pairs(h))
        assert sizes == []
        assert pairs["tau2"] == tau2 and isinstance(pairs["tau2"], int)


def assert_matches_numpy(h):
    """Analysis(h).spectrum against numpy on the dense adjacency: values to
    1e-12 * max(1, k) and the same cluster multiplicities."""
    got = Analysis(h).spectrum
    want = sorted(np.linalg.eigvalsh(np.array(dense_adjacency(h), dtype=float)),
                  reverse=True)
    k = max(map(sum, dense_adjacency(h)))
    assert len(got.values) == h.n
    assert max(abs(g - w) for g, w in zip(got.values, want)) <= 1e-12 * max(1, k)
    assert ([m for _, m in got.clusters]
            == [m for _, m in Spectrum.from_values(want).clusters])


DUAL_FIXTURES = ("heawood", "petersen", "oa45-minus", "k55")


def test_dual_side_spectrum_on_fixture_duals():
    for name, (n, m) in zip(DUAL_FIXTURES, ((21, 14), (15, 10), (20, 15), (25, 10))):
        h = dual(named_fixture(name))
        assert (h.n, h.m) == (n, m)
        assert_matches_numpy(h)


def test_dual_side_spectrum_on_random_inputs():
    rng = random.Random(20261018)
    done = 0
    for r, u, n in [(2, 3, 30), (2, 4, 40), (2, 5, 50), (3, 4, 32),
                    (3, 5, 40), (2, 3, 45), (4, 5, 25), (2, 6, 36)]:
        h = random_regular_uniform(rng, r, u, n)
        if h is None:
            continue
        assert h.m < h.n
        assert_matches_numpy(h)
        done += 1
    assert done >= 6


def test_spectrum_fallbacks_to_the_adjacency(diagonalized):
    sizes = diagonalized
    matching = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])  # r = 1, no dual
    irregular = Hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    for h in (matching, irregular):
        sizes.clear()
        assert_matches_numpy(h)
        assert sizes == [h.n]
    # the identity needs regularity only, not connectivity
    one = dual(named_fixture("petersen"))
    two = Hypergraph(2 * one.n, list(one.edges)
                     + [[v + one.n for v in e] for e in one.edges])
    sizes.clear()
    assert_matches_numpy(two)
    assert sizes == [two.m]
    assert not Analysis(two).connected


def test_analysis_fields_match_the_public_functions():
    for h in (named_fixture("petersen"), named_fixture("heawood"),
              named_fixture("oa45-minus"), dual(named_fixture("petersen")),
              dual(named_fixture("heawood"))):
        an = Analysis(h)
        fresh = Analysis(h)
        assert an.tau2 == fresh.tau2
        assert an.is_ramanujan() == fresh.is_ramanujan()
        dense = symmetric_eigenvalues(dense_adjacency(h))
        if isinstance(an.tau2, int):
            # read off the intersection array: exact integers
            assert an.spectrum.clusters == tuple(
                (round(x), m) for x, m in dense.clusters)
        elif h.m >= h.n:
            assert an.spectrum == dense
        else:
            # the dual route differs from A's own reduction in the last bits
            assert max(abs(x - y) for x, y in
                       zip(an.spectrum.values, dense.values)) <= 1e-12
            assert ([m for _, m in an.spectrum.clusters]
                    == [m for _, m in dense.clusters])



def test_dual_lists_only_for_the_dual_side_spectrum(monkeypatch):
    # only a spectrum taken from A* (m < n) reads the dual's neighbour
    # lists, off the edges through each vertex, and no dual hypergraph is
    # built on either side
    passes = []
    real = hypergraph.neighbours

    def counted(count, edges):
        passes.append(count)
        return real(count, edges)

    monkeypatch.setattr(spectra, "neighbours", counted)
    monkeypatch.setattr(hypergraph, "dual", None)
    # Heawood and its dual have irrational eigenvalues, so the solver runs
    for h, sides in ((named_fixture("heawood"), [14]),
                     (dual(named_fixture("heawood")), [14, 21])):
        passes.clear()
        an = Analysis(h)
        assert len(an.spectrum.values) == h.n
        assert an.distance_regularity.valid
        assert sorted(passes) == sides
    # nor does the whole report when m >= n
    passes.clear()
    pairs = dict(cli.analyze_pairs(named_fixture("petersen")))
    assert pairs["spectrum_correspondence"] == "ok"
    assert passes == [10]

def test_correspondence_heawood_explicit():
    # incidence spectrum of the Fano hypergraph squared: {spec(A)+3} u {spec(A*)+3}
    h = named_fixture("fano")
    inc = symmetric_eigenvalues(incidence_graph(h))
    assert_clusters(inc, [(3.0, 1), (SQRT2, 6), (-SQRT2, 6), (-3.0, 1)])


def numpy_clusters(h):
    """numpy's eigenvalues of the dense adjacency, clustered as
    `Spectrum.from_values` clusters them."""
    a = np.array(dense_adjacency(h), dtype=float)
    return Spectrum.from_values(np.linalg.eigvalsh(a)).clusters


def distance_regular_inputs(corpus):
    """Connected regular uniform inputs with r >= 2 whose point graph is
    distance-regular: from the conftest corpus, the named fixtures and
    their duals, the cycles C_3 to C_29 and the OA(3, p) and OA(4, p)
    point hypergraphs for p <= 29."""
    candidates = list(corpus)
    for name in fixture_names():
        candidates += [named_fixture(name), dual(named_fixture(name))]
    candidates += [cycle(n) for n in range(3, 30)]
    candidates += [oa_point_hypergraph(p, rows) for rows in (3, 4)
                   for p in (3, 5, 7, 11, 13, 17, 19, 23, 29)]
    out = []
    for h in candidates:
        an = Analysis(h)
        if an.ru[0] >= 2 and an.connected and an.distance_regularity.valid:
            out.append(h)
    return out


def test_array_spectrum_is_numpys_exactly_when_it_is_all_integers(corpus):
    # the integer path is taken exactly when numpy's eigenvalues are all
    # integers (to 1e-9), and then gives numpy's values and multiplicities
    integral = irrational = 0
    for h in distance_regular_inputs(corpus):
        an = Analysis(h)
        got = spectra.array_spectrum(h.n, an.distance_regularity)
        want = numpy_clusters(h)
        if all(abs(x - round(x)) <= 1e-9 for x, _ in want):
            assert got is not None, h
            assert got.clusters == tuple((round(x), m) for x, m in want)
            assert all(type(x) is int for x in got.values)
            assert an.spectrum == got
            integral += 1
        else:
            assert got is None, h
            irrational += 1
    assert integral >= 40 and irrational >= 20


@pytest.mark.parametrize("h", [cycle(13), named_fixture("heawood"),
                               dual(named_fixture("heawood"))],
                         ids=["C13", "heawood", "heawood-dual"])
def test_array_with_an_irrational_root_falls_back_to_the_solver(diagonalized, h):
    sizes = diagonalized
    an = Analysis(h)
    assert an.distance_regularity.valid
    assert spectra.array_spectrum(h.n, an.distance_regularity) is None
    assert len(an.spectrum.values) == h.n
    assert sizes == [min(h.n, h.m)]


@pytest.mark.parametrize("h, clusters", [
    # every triple of 4 points: the point graph is 2 K_4
    (Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]), ((6, 1), (-2, 3))),
    # Petersen with every edge doubled
    (Hypergraph(10, [e for e in named_fixture("petersen").edges for _ in range(2)]),
     ((6, 1), (2, 5), (-4, 4))),
], ids=["2K4", "2-petersen"])
def test_array_spectrum_of_a_multigraph_point_graph(diagonalized, h, clusters):
    # the intersection numbers count edge weights: c_1 is the multiplicity
    an = Analysis(h)
    assert an.distance_regularity.c[0] == 2
    assert an.spectrum.clusters == clusters
    assert diagonalized == []
    want = numpy_clusters(h)
    assert tuple((round(x), m) for x, m in want) == clusters
    assert max(abs(x - round(x)) for x, _ in want) <= 1e-9


def test_array_spectrum_refuses_an_array_with_no_graph():
    # Petersen's array with the wrong order: the integer roots are there,
    # but Biggs' multiplicities are not integers summing to n
    petersen = Analysis(named_fixture("petersen")).distance_regularity
    assert spectra.array_spectrum(10, petersen).clusters == ((3, 1), (1, 5), (-2, 4))
    for n in (9, 11, 20):
        assert spectra.array_spectrum(n, petersen) is None

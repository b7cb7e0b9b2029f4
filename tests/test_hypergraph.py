"""Data model, text format, girth, non-backtracking walk counts, duality,
and distance-regularity."""

import math
import os
import random

import pytest

from hyplp import hypergraph
from hyplp.constructions import fixture_names, named_fixture
from hyplp.hypergraph import (Hypergraph, HypergraphFormatError,
                              NotRegularUniformError, adjacency,
                              check_regular_uniform, degrees, dual, girth,
                              incident, neighbours, spheres)
from hyplp.orthopoly import Params
from hyplp.spectra import Analysis
from conftest import random_regular_uniform
from walk_oracles import (_fields, adjacency_multisets, adjacency_rows,
                          bfs_connected, bfs_distances, dense_adjacency,
                          dense_walk_matrix, distance_matrix,
                          distance_regularity_oracle,
                          incidence_girth, incidence_graph, nbw_count_matrix,
                          nbw_count_oracle)

PRISM = Hypergraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                       (0, 3), (1, 4), (2, 5)])
# a 4-regular multigraph from the seeded corpus, four of its pairs doubled
DOUBLED = Hypergraph(6, [(2, 5), (1, 3), (0, 5), (1, 4), (3, 4), (0, 5), (2, 5),
                         (1, 2), (2, 3), (1, 3), (0, 4), (0, 4)])
# three parallel edges: every walk from a vertex ends at one vertex
TRIPLE = Hypergraph(2, [(0, 1)] * 3)
# 2-regular 3-uniform, edges 0 and 1 share the pair {0, 1}
SHARED_PAIR = Hypergraph(6, [(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)])


def test_constructor_normalizes_and_validates():
    h = Hypergraph(4, [(2, 0), (1, 3)])
    assert h.edges == ((0, 2), (1, 3))
    assert (h.n, h.m) == (4, 2)
    with pytest.raises(ValueError):
        Hypergraph(3, [(0,)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph(0, [])


def test_immutable_and_hashable():
    h = Hypergraph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        h.n = 5
    assert h == Hypergraph(2, [(1, 0)])
    assert hash(h) == hash(Hypergraph(2, [(0, 1)]))


def test_from_text_errors_carry_line_numbers():
    with pytest.raises(HypergraphFormatError) as e:
        Hypergraph.from_text("")
    assert e.value.line == 1
    with pytest.raises(HypergraphFormatError) as e:
        Hypergraph.from_text("3\n0 1\n")
    assert e.value.line == 1
    with pytest.raises(HypergraphFormatError) as e:
        Hypergraph.from_text("3 1\n0 x\n")
    assert e.value.line == 2
    with pytest.raises(HypergraphFormatError) as e:
        Hypergraph.from_text("3 1\n0 1\n1 2\n")
    assert e.value.line == 3
    with pytest.raises(HypergraphFormatError):
        Hypergraph.from_text("3 2\n0 1\n")  # fewer edges than declared


def test_text_roundtrip_with_comments():
    text = "# triangle plus pendant edge\n4 4\n0 1\n1 2\n\n2 0  # closing\n2 3\n"
    h = Hypergraph.from_text(text)
    assert h.n == 4 and h.m == 4
    assert Hypergraph.from_text(h.to_text()) == h


def test_degrees_and_regularity_check():
    h = named_fixture("petersen")
    assert degrees(h) == [3] * 10
    assert check_regular_uniform(h) == (3, 2)
    with pytest.raises(NotRegularUniformError) as e:
        check_regular_uniform(Hypergraph(3, [(0, 1), (0, 1, 2)]))
    assert e.value.edge == 1
    with pytest.raises(NotRegularUniformError) as e:
        check_regular_uniform(Hypergraph(3, [(0, 1), (0, 2)]))
    assert e.value.vertex == 1
    with pytest.raises(NotRegularUniformError):
        check_regular_uniform(Hypergraph(1, []))


def _lists(h):
    return neighbours(h.n, h.edges)


def test_adjacency_counts_multiplicity():
    h = Hypergraph(3, [(0, 1), (0, 1), (1, 2)])
    assert adjacency(_lists(h)) == [[0, 2, 0], [2, 0, 1], [0, 1, 0]]


def test_adjacency_multisets_list_each_neighbour_by_multiplicity(corpus):
    for h in corpus + [DOUBLED, SHARED_PAIR, Hypergraph(3, [(0, 1)])]:
        assert adjacency_multisets(h) == [sorted(nb) for nb in _lists(h)]


def list_inputs(corpus):
    """The corpus, the named fixtures, every analyze golden input, a
    repeated edge and two edges sharing two vertices."""
    folder = os.path.join(os.path.dirname(__file__), "data", "analyze")
    goldens = []
    for name in sorted(os.listdir(folder)):
        if name.endswith(".txt"):
            with open(os.path.join(folder, name)) as fh:
                goldens.append(Hypergraph.from_text(fh.read()))
    assert len(goldens) == 9
    fixtures = [named_fixture(name) for name in fixture_names()]
    assert len(fixtures) == 15
    return (corpus + fixtures + goldens
            + [Hypergraph(3, [(0, 1), (0, 1), (1, 2)]), SHARED_PAIR])


def test_neighbour_lists_expand_the_adjacency_rows(corpus):
    # each list holds y A[x][y] times, in the order the edges give
    for h in list_inputs(corpus):
        assert [sorted(nb) for nb in _lists(h)] == [
            [y for y, w in row for _ in range(w)] for row in adjacency_rows(h)]
        assert adjacency(_lists(h)) == dense_adjacency(h)


def test_dual_side_lists_are_those_of_the_dual(corpus):
    # every input with m < n and minimum degree 2, which the dual needs,
    # among them the duals of the fixtures
    fixtures = [named_fixture(name) for name in fixture_names()]
    cases = [h for h in list_inputs(corpus) + [dual(h) for h in fixtures
                                                if min(degrees(h)) >= 2]
             if h.m < h.n and min(degrees(h)) >= 2]
    for h in cases:
        d = dual(h)
        assert neighbours(h.m, incident(h)) == neighbours(d.n, d.edges)
    assert len(cases) == 27


def test_adjacency_rows_are_the_nonzero_entries(corpus):
    for h in corpus + [Hypergraph(2, [(0, 1), (0, 1)])]:
        want = [[0] * h.n for _ in range(h.n)]
        for e in h.edges:
            for x in e:
                for y in e:
                    if x != y:
                        want[x][y] += 1
        assert adjacency_rows(h) == [[(y, w) for y, w in enumerate(row) if w]
                                     for row in want]
        assert adjacency(_lists(h)) == want


def test_incidence_graph_shape():
    h = Hypergraph(3, [(0, 1, 2)])
    b = incidence_graph(h)
    assert len(b) == 4
    assert [row[3] for row in b] == [1, 1, 1, 0]


def test_dual_swaps_parameters_and_involutes(corpus):
    # `dual` does not check that (r, u) swap; this is the check
    fixtures = [named_fixture(name) for name in fixture_names()]
    for h in corpus + [h for h in fixtures if check_regular_uniform(h)[0] >= 2]:
        r, u = check_regular_uniform(h)
        hd = dual(h)
        assert check_regular_uniform(hd) == (u, r)
        assert (hd.n, hd.m) == (h.m, h.n)
        assert dual(hd) == h


def test_dual_needs_min_degree_two():
    with pytest.raises(ValueError):
        dual(Hypergraph(3, [(0, 1), (1, 2)]))


def test_distance_matrix_and_diameter():
    h = named_fixture("petersen")
    dist, connected = distance_matrix(h)
    assert connected
    assert max(max(row) for row in dist) == 2
    assert Analysis(h).diameter() == 2
    two = Hypergraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    dist2, conn2 = distance_matrix(two)
    assert not conn2 and dist2[0][2] == -1
    assert not Analysis(two).connected
    with pytest.raises(ValueError, match="^diameter undefined for a disconnected hypergraph$"):
        Analysis(two).diameter()


def test_distances_from_spheres_match_bfs(corpus):
    two = Hypergraph(7, [(0, 1), (0, 1), (2, 3, 4), (3, 4, 5)])
    isolated = Hypergraph(4, [(0, 1), (1, 2), (0, 2)])  # vertex 3 on no edge
    golden = os.path.join(os.path.dirname(__file__), "data", "analyze",
                          "disconnected.txt")
    with open(golden) as fh:
        disconnected = Hypergraph.from_text(fh.read())
    odd = [two, Hypergraph(1, []), isolated, disconnected]
    for h in corpus + [DOUBLED, SHARED_PAIR] + odd:
        dist, connected = distance_matrix(h)
        assert dist == bfs_distances(h)
        assert (connected == Analysis(h).connected == bfs_connected(h)
                == (min(map(min, dist)) >= 0))
        assert len(spheres(_lists(h))) - 1 == max(map(max, dist))
    assert [Analysis(h).connected for h in odd] == [False, True, False, False]


def test_girth_fixtures():
    assert girth(named_fixture("petersen")) == 5
    assert girth(named_fixture("k4")) == 3
    assert girth(named_fixture("k33")) == 4
    assert girth(named_fixture("heawood")) == 6
    assert girth(named_fixture("fano")) == 3
    assert girth(named_fixture("oa33")) == 3
    assert girth(named_fixture("k33-minus")) == 6
    assert girth(Hypergraph(2, [(0, 1), (0, 1)])) == 2
    assert girth(Hypergraph(4, [(0, 1, 2), (0, 1, 3)])) == 2  # edges sharing a pair
    assert girth(Hypergraph(3, [(0, 1), (1, 2)])) == math.inf
    assert girth(Hypergraph(3, [(0, 1, 2)])) == math.inf


def test_girth_from_the_smaller_side(corpus):
    # the searches start on the vertices when n <= m and on the edges when
    # m < n; a hypergraph and its dual share the incidence graph
    pet = named_fixture("petersen")  # n = 10 < m = 15
    assert girth(pet) == girth(dual(pet)) == 5  # dual: n = 15 > m = 10
    assert girth(SHARED_PAIR) == 2 and SHARED_PAIR.m < SHARED_PAIR.n
    assert girth(DOUBLED) == 2 and DOUBLED.m > DOUBLED.n
    assert girth(Hypergraph(5, [(0, 1, 2), (2, 3, 4)])) == math.inf  # m < n
    assert girth(Hypergraph(3, [(0, 1), (1, 2)])) == math.inf  # m < n
    assert girth(Hypergraph(2, [])) == math.inf
    heavy = 0
    for h in corpus:
        assert girth(h) == incidence_girth(h), (h.n, h.m)
        heavy += h.m < h.n
    assert heavy >= 5


def girth_by_edge_deletion(h):
    """Independent 2-uniform oracle: min over edges e of 1 + dist(x, y) in
    the graph without e."""
    best = math.inf
    for skip, (x, y) in enumerate(h.edges):
        nbrs = [[] for _ in range(h.n)]
        for j, (a, b) in enumerate(h.edges):
            if j != skip:
                nbrs[a].append(b)
                nbrs[b].append(a)
        seen = {x: 0}
        frontier = [x]
        while frontier and y not in seen:
            nxt = []
            for v in frontier:
                for w in nbrs[v]:
                    if w not in seen:
                        seen[w] = seen[v] + 1
                        nxt.append(w)
            frontier = nxt
        if y in seen:
            best = min(best, 1 + seen[y])
    return best


def test_girth_matches_edge_deletion_oracle(corpus):
    checked = 0
    for h in corpus:
        r, u = check_regular_uniform(h)
        if u == 2:
            assert girth(h) == girth_by_edge_deletion(h), (r, u, h.n)
            checked += 1
    assert checked >= 10


def test_nbw_oracle_small_cases():
    h = named_fixture("petersen")
    # girth 5: no returns before length 5, then the cycles come back
    assert nbw_count_oracle(h, 0, 0, 0) == 1
    assert nbw_count_oracle(h, 0, 0, 1) == 0
    assert nbw_count_oracle(h, 0, 0, 2) == 0
    # six pentagons through each vertex, each walked in two directions
    assert nbw_count_oracle(h, 0, 0, 5) == 12
    assert nbw_count_oracle(h, 0, 1, 1) == 1
    with pytest.raises(ValueError):
        nbw_count_oracle(h, 0, 0, 9)
    with pytest.raises(RuntimeError):
        nbw_count_oracle(h, 0, 0, 6, cap=10)


def test_nbw_matrix_matches_oracle_on_fixtures():
    for name, imax in (("petersen", 6), ("fano", 4), ("k33", 5), ("k4", 5)):
        h = named_fixture(name)
        for i in range(imax + 1):
            want = nbw_count_matrix(h, i)
            for x in range(h.n):
                for y in range(h.n):
                    assert want[x][y] == nbw_count_oracle(h, x, y, i), (name, i, x, y)


def test_nbw_matrix_counts_walks_over_repeated_edges():
    # A[x][y] = 2 for a doubled pair: the packed product adds row z twice
    for h, imax in ((DOUBLED, 5), (SHARED_PAIR, 6), (TRIPLE, 8)):
        for i in range(imax + 1):
            got = nbw_count_matrix(h, i)
            for x in range(h.n):
                for y in range(h.n):
                    assert got[x][y] == nbw_count_oracle(h, x, y, i), (h, i, x, y)


def test_nbw_matrix_beyond_64_bit_entries(corpus):
    # the first length whose row sum k q^(i-1) exceeds n * 2^64, so the
    # largest entry of a row exceeds 2^64; on TRIPLE an entry meets the
    # row-sum bound the field width is taken from
    for h in [named_fixture("fano"), DOUBLED, SHARED_PAIR, TRIPLE] + corpus[:2]:
        r, u = check_regular_uniform(h)
        i = 1
        while r * (u - 1) * ((r - 1) * (u - 1)) ** (i - 1) <= h.n * 2 ** 64:
            i += 1
        got = nbw_count_matrix(h, i)
        assert got == dense_walk_matrix(h, r, u, i)
        assert max(map(max, got)) >= 2 ** 64
        assert all(sum(row) == r * (u - 1) * ((r - 1) * (u - 1)) ** (i - 1)
                   for row in got)


def test_signed_fields_decode_exactly():
    rng = random.Random(7)
    for width in (2, 3, 5, 8, 13, 64, 67):
        half = 1 << (width - 1)
        for count in (1, 2, 7, 30):
            vals = [rng.randrange(-half, half) for _ in range(count)]
            vals[rng.randrange(count)] = -half
            packed = sum(v << (width * y) for y, v in enumerate(vals))
            assert _fields(packed, width, count) == vals


def test_nbw_matrix_negative_field_trips_the_assertion(monkeypatch):
    # F_i(A) >= 0 for every regular uniform input, so only a fault in the
    # products can make a field negative; the decoded sign must show it
    width = 6

    def fake(nbrs, params, top):
        def pack(vals):
            return sum(v << (width * y) for y, v in enumerate(vals))
        return width, iter([[pack([1, 0, 0, 0]), pack([0, 1, -1, 2]),
                             pack([0, 0, 1, 0]), pack([0, 0, 0, 1])]])

    monkeypatch.setattr(hypergraph, "_walk_rows", fake)
    with pytest.raises(AssertionError, match=r"negative walk count at \(1, 2\)"):
        nbw_count_matrix(named_fixture("k4"), 0)


def test_nbw_row_sums_count_all_walks(corpus):
    # total non-backtracking walks of length i from any vertex is k q^(i-1)
    for h in corpus[:8]:
        r, u = check_regular_uniform(h)
        k, q = r * (u - 1), (r - 1) * (u - 1)
        for i in range(1, 4):
            mat = nbw_count_matrix(h, i)
            for row in mat:
                assert sum(row) == k * q ** (i - 1), (r, u, i)


def test_nbw_matrix_rejects_bad_length_zero_one():
    h = named_fixture("k4")
    with pytest.raises(ValueError):
        nbw_count_matrix(h, -1)
    assert nbw_count_matrix(h, 0) == [[1 if i == j else 0 for j in range(4)]
                                      for i in range(4)]
    assert nbw_count_matrix(h, 1) == adjacency(_lists(h))


def test_girth_via_trace_fixtures():
    for name in ("petersen", "k4", "k33", "heawood", "fano", "oa33",
                 "k33-minus", "oa45-minus"):
        h = named_fixture(name)
        assert Analysis(h).girth_by_trace == girth(h), name
    assert Analysis(Hypergraph(2, [(0, 1), (0, 1)])).girth_by_trace == 2
    # long cycle: girth above the trace cutoff reports None
    c26 = Hypergraph(26, [(i, (i + 1) % 26) for i in range(26)])
    assert girth(c26) == 26
    assert Analysis(c26).girth_by_trace is None


def test_walk_diagonals_match_the_full_products(corpus):
    # each g's verdicts, read off F_(g-1) without forming F_g, against the
    # diagonal of the full product F_g, for g from 2 up to the girth (the
    # verdicts hold while the earlier diagonals vanish, and tr F_1 = tr A
    # is 0); the corpus has girths 2 (repeated pairs) to above 6
    girths = set()
    for h in corpus + [DOUBLED, TRIPLE, PRISM]:
        g = girth(h)
        girths.add(g)
        top = min(g, 6)
        assert not any(row[x] for x, row in enumerate(nbw_count_matrix(h, 1)))
        an = Analysis(h)
        diagonals = hypergraph._walk_diagonals(an.nbrs, Params(*an.ru), top)
        for i, diagonal in enumerate(diagonals, 2):
            want = [row[x] != 0 for x, row in enumerate(nbw_count_matrix(h, i))]
            assert list(diagonal) == want, (h, i)
        assert i == top
    assert {2, 3, 4} <= girths


def test_field_tops_mark_exactly_the_nonzero_fields():
    # fields up to 2^(width-1) - 1, the largest a proved bound allows
    rng = random.Random(11)
    for width in (2, 3, 7, 64, 93):
        for count in (1, 5, 40):
            vals = [rng.choice((0, 1, (1 << (width - 1)) - 1, rng.randrange(1 << (width - 1))))
                    for _ in range(count)]
            ones = sum(1 << (width * y) for y in range(count))
            packed = sum(v << (width * y) for y, v in enumerate(vals))
            want = sum(1 << (width * y + width - 1) for y, v in enumerate(vals) if v)
            assert hypergraph._field_tops(packed, width, ones) == want


def test_distance_regularity_petersen():
    rep = Analysis(named_fixture("petersen")).distance_regularity
    assert rep.valid
    assert rep.diameter == 2
    assert rep.b == (3, 2)
    assert rep.c == (1, 1)
    assert rep.a == (0, 0, 2)
    assert rep.witness is None


def test_distance_regularity_crown():
    rep = Analysis(named_fixture("k44-minus")).distance_regularity
    assert rep.valid
    assert (rep.b, rep.c) == ((3, 2, 1), (1, 2, 3))


def test_distance_regularity_rejects_prism():
    rep = Analysis(PRISM).distance_regularity
    assert not rep.valid
    assert rep.witness is not None
    x, y = rep.witness
    assert 0 <= x < 6 and 0 <= y < 6


def test_distance_regularity_witness_is_the_first_pair():
    # pinned from the pairwise check the packed identities replaced
    assert Analysis(PRISM).distance_regularity.witness == (0, 3)
    assert Analysis(DOUBLED).distance_regularity.witness == (1, 0)


def test_distance_regularity_matches_the_pairwise_oracle(corpus):
    rng = random.Random(20261018)
    extra = [random_regular_uniform(rng, r, u, n)
             for r, u, n in ((3, 2, 30), (2, 3, 30), (4, 2, 16), (2, 4, 24))]
    names = ("petersen", "heawood", "k33", "k44-minus", "fano", "oa33",
             "oa45-minus", "k55")
    hs = corpus + [named_fixture(x) for x in names] + [DOUBLED, SHARED_PAIR, PRISM]
    witnesses = set()
    for h in hs + [h for h in extra if h is not None and bfs_connected(h)]:
        rep = Analysis(h).distance_regularity
        valid, a, b, c, witness = distance_regularity_oracle(h)
        assert (rep.valid, rep.a, rep.b, rep.c, rep.witness) == (valid, a, b, c, witness)
        assert rep.diameter == Analysis(h).diameter()
        witnesses.add(witness)
    assert len(witnesses) >= 6


def test_distance_regularity_needs_connected():
    with pytest.raises(ValueError):
        Analysis(Hypergraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])).distance_regularity
